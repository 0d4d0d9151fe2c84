"""The `repro lint` invariant linter (`repro.lint`).

Covers every rule family with minimal good/bad fixtures, all driven
through ``lint_sources`` as in-memory trees (multi-file where the
whole-program REP5xx/6xx families need it), the pragma suppression
contract (reasons mandatory, real rules only, families allowed, strings
are not comments), the stable JSON report schema, the CLI exit-code
contract (0 clean / 1 findings / 2 usage), the pinned concurrency
surface of ``src/repro`` (its only threads and locks), and — the actual
gate — that the real repository tree lints clean.
"""

import ast
import json
from io import StringIO
from pathlib import Path

import pytest

from repro.lint import (
    ALL_RULES,
    REPORT_SCHEMA_VERSION,
    LintError,
    expand_selectors,
    lint_sources,
    parse_pragmas,
    render_json,
    run_lint,
)
from repro.lint.cli import run_command
from repro.lint.program import ModuleInfo


def rules_of(findings):
    return [finding.rule for finding in findings]


def lint(sources, select="REP001,REP1xx,REP3xx"):
    """Lint a ``{path: source}`` tree (a bare string is ``probe.py``)
    under a ``--select`` string; the default is the local families the
    single-file fixtures target."""
    if isinstance(sources, str):
        sources = {"probe.py": sources}
    return lint_sources(sources, select=expand_selectors(select))


# ---------------------------------------------------------------------------
# REP1xx determinism


class TestDeterminismRules:
    def test_legacy_numpy_random_flagged(self):
        src = "import numpy as np\nnp.random.rand(3)\n"
        assert rules_of(lint(src)) == ["REP101"]

    def test_legacy_numpy_random_from_import(self):
        src = "from numpy import random\nrandom.seed(0)\n"
        assert rules_of(lint(src)) == ["REP101"]

    def test_seeded_default_rng_clean(self):
        src = "import numpy as np\nrng = np.random.default_rng(42)\n"
        assert lint(src) == []

    def test_unseeded_default_rng_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules_of(lint(src)) == ["REP102"]

    def test_unseeded_default_rng_direct_import(self):
        src = "from numpy.random import default_rng\nr = default_rng()\n"
        assert rules_of(lint(src)) == ["REP102"]

    def test_stdlib_random_flagged(self):
        src = "import random\nx = random.random()\n"
        assert rules_of(lint(src)) == ["REP103"]

    def test_generator_method_not_confused_with_stdlib(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(0)\n"
            "x = rng.random()\n"
        )
        assert lint(src) == []

    def test_wall_clock_in_key_scope_flagged(self):
        src = (
            "import time\n"
            "def cache_key(spec):\n"
            "    return (spec, time.time())\n"
        )
        assert rules_of(lint(src)) == ["REP104"]

    def test_wall_clock_outside_key_scope_clean(self):
        src = (
            "import time\n"
            "def elapsed(start):\n"
            "    return time.time() - start\n"
        )
        assert lint(src) == []

    def test_set_iteration_in_key_scope_flagged(self):
        src = (
            "def state_signature(arrays):\n"
            "    return [a for a in {'x', 'y'}]\n"
        )
        assert rules_of(lint(src)) == ["REP105"]

    def test_sorted_set_in_key_scope_clean(self):
        src = (
            "def state_signature(arrays):\n"
            "    return [a for a in sorted({'x', 'y'})]\n"
        )
        assert lint(src) == []


# ---------------------------------------------------------------------------
# REP3xx executor safety


class TestExecutorRules:
    def test_lambda_process_entry_flagged(self):
        src = "backend = ProcessBackend(lambda i, a: i, jobs=2)\n"
        assert rules_of(lint(src)) == ["REP301"]

    def test_nested_function_entry_flagged(self):
        src = (
            "def build():\n"
            "    def run(i, a):\n"
            "        return i\n"
            "    return ProcessBackend(run)\n"
        )
        assert rules_of(lint(src)) == ["REP301"]

    def test_module_level_entry_clean(self):
        src = (
            "def _pool_run(i, a):\n"
            "    return i\n"
            "def build():\n"
            "    return ProcessBackend(_pool_run)\n"
        )
        assert lint(src) == []

    def test_bound_method_entry_flagged(self):
        src = (
            "class Engine:\n"
            "    def build(self):\n"
            "        return ProcessBackend(self.run)\n"
        )
        assert rules_of(lint(src)) == ["REP301"]

    def test_broad_except_without_reraise_flagged(self):
        src = "try:\n    work()\nexcept Exception:\n    pass\n"
        assert rules_of(lint(src)) == ["REP302"]

    def test_bare_except_flagged(self):
        src = "try:\n    work()\nexcept:\n    pass\n"
        assert rules_of(lint(src)) == ["REP302"]

    def test_broad_except_with_reraise_clean(self):
        src = (
            "try:\n"
            "    work()\n"
            "except Exception:\n"
            "    cleanup()\n"
            "    raise\n"
        )
        assert lint(src) == []

    def test_narrow_except_clean(self):
        src = "try:\n    work()\nexcept ValueError:\n    pass\n"
        assert lint(src) == []

    def test_worker_global_rebind_flagged(self):
        src = (
            "def _pool_run_cell(payload):\n"
            "    global _ENGINE\n"
            "    _ENGINE = payload\n"
        )
        assert rules_of(lint(src)) == ["REP303"]

    def test_non_worker_global_clean(self):
        src = (
            "def configure(level):\n"
            "    global _LEVEL\n"
            "    _LEVEL = level\n"
        )
        assert lint(src) == []


# ---------------------------------------------------------------------------
# REP5xx seed provenance (whole-program)


class TestSeedProvenanceRules:
    def test_literal_seed_flagged(self):
        sources = {
            "proj/a.py": (
                "from numpy.random import default_rng\n"
                "def sample():\n"
                "    return default_rng(1234)\n"
            ),
        }
        findings = lint(sources, "REP501")
        assert rules_of(findings) == ["REP501"]
        assert "1234" in findings[0].message

    def test_literal_seed_through_cross_module_chain(self):
        # the interprocedural catch: the literal lives in a.py, the
        # sink in b.py — no single-file rule can connect them
        sources = {
            "proj/a.py": (
                "from proj.b import build_rng\n"
                "def main():\n"
                "    return build_rng(1234)\n"
            ),
            "proj/b.py": (
                "from numpy.random import default_rng\n"
                "def build_rng(entropy):\n"
                "    return default_rng(entropy)\n"
            ),
        }
        findings = lint(sources, "REP501")
        assert rules_of(findings) == ["REP501"]
        assert findings[0].path == "proj/b.py"

    def test_spec_fed_parameter_clean(self):
        sources = {
            "proj/a.py": (
                "from proj.b import build_rng\n"
                "def main(preset):\n"
                "    return build_rng(preset.seed)\n"
            ),
            "proj/b.py": (
                "from numpy.random import default_rng\n"
                "def build_rng(entropy):\n"
                "    return default_rng(entropy)\n"
            ),
        }
        assert lint(sources, "REP501") == []

    def test_seed_named_parameter_clean(self):
        sources = {
            "proj/a.py": (
                "from numpy.random import default_rng\n"
                "def sample(seed):\n"
                "    return default_rng(seed)\n"
            ),
        }
        assert lint(sources, "REP501") == []

    def test_dataclass_field_default_exempt(self):
        # spec-owned defaults *define* the seed; they are the origin
        sources = {
            "proj/spec.py": (
                "from dataclasses import dataclass, field\n"
                "from repro.utils.rng import SeedSequence\n"
                "@dataclass\n"
                "class Spec:\n"
                "    seeds: SeedSequence = field(\n"
                "        default_factory=lambda: SeedSequence(2025)\n"
                "    )\n"
            ),
        }
        assert lint(sources, "REP501") == []

    def test_test_modules_skipped(self):
        sources = {
            "tests/test_thing.py": (
                "from numpy.random import default_rng\n"
                "def test_sample():\n"
                "    assert default_rng(1234) is not None\n"
            ),
        }
        assert lint(sources, "REP501") == []

    def test_pragma_suppresses_program_finding(self):
        sources = {
            "proj/a.py": (
                "from numpy.random import default_rng\n"
                "def sample():\n"
                "    # repro: allow[REP501] doc example, never imported\n"
                "    return default_rng(1234)\n"
            ),
        }
        assert lint(sources, "REP501") == []

    def test_wall_clock_seed_flagged(self):
        sources = {
            "proj/a.py": (
                "import time\n"
                "from numpy.random import default_rng\n"
                "def sample():\n"
                "    seed = int(time.time())\n"
                "    return default_rng(seed)\n"
            ),
        }
        findings = lint(sources, "REP502")
        assert rules_of(findings) == ["REP502"]

    def test_wall_clock_laundered_through_helper_flagged(self):
        sources = {
            "proj/a.py": (
                "import time\n"
                "from proj.b import build_rng\n"
                "def main():\n"
                "    return build_rng(time.time_ns())\n"
            ),
            "proj/b.py": (
                "from numpy.random import default_rng\n"
                "def build_rng(entropy):\n"
                "    return default_rng(int(entropy))\n"
            ),
        }
        findings = lint(sources, "REP502")
        assert rules_of(findings) == ["REP502"]
        assert findings[0].path == "proj/b.py"

    def test_monotonic_duration_math_clean(self):
        sources = {
            "proj/a.py": (
                "import time\n"
                "def elapsed(start):\n"
                "    return time.monotonic() - start\n"
            ),
        }
        assert lint(sources, "REP502") == []

    def test_seed_dropping_call_flagged(self):
        sources = {
            "proj/a.py": (
                "from proj.b import make_building\n"
                "def run(spec):\n"
                "    root = spec.seed\n"
                "    return make_building('ND'), root\n"
            ),
            "proj/b.py": (
                "def make_building(name, seed=2025):\n"
                "    return (name, seed)\n"
            ),
        }
        findings = lint(sources, "REP503")
        assert rules_of(findings) == ["REP503"]
        assert "make_building" in findings[0].message

    def test_seed_forwarded_clean(self):
        sources = {
            "proj/a.py": (
                "from proj.b import make_building\n"
                "def run(spec):\n"
                "    return make_building('ND', seed=spec.seed)\n"
            ),
            "proj/b.py": (
                "def make_building(name, seed=2025):\n"
                "    return (name, seed)\n"
            ),
        }
        assert lint(sources, "REP503") == []

    def test_no_seed_in_scope_clean(self):
        # a caller with no seed provenance has nothing to forward
        sources = {
            "proj/a.py": (
                "from proj.b import make_building\n"
                "def run(name):\n"
                "    return make_building(name)\n"
            ),
            "proj/b.py": (
                "def make_building(name, seed=2025):\n"
                "    return (name, seed)\n"
            ),
        }
        assert lint(sources, "REP503") == []


# ---------------------------------------------------------------------------
# REP6xx cache-key soundness (whole-program)

_CACHE_STUB = (
    "def content_key(payload):\n"
    "    return str(sorted(payload.items()))\n"
    "class Cache:\n"
    "    def get_or_compute(self, stage, key, compute):\n"
    "        return compute(), False\n"
)


class TestCacheKeyRules:
    def test_missing_config_field_flagged_across_modules(self):
        # the seeded real-shape defect: the key builder forgets
        # spec.tau, which the cached computation reads two hops away in
        # another module — invisible to any per-file rule
        sources = {
            "proj/cache.py": _CACHE_STUB,
            "proj/train.py": (
                "def train_model(spec, seed):\n"
                "    return (spec.framework, spec.tau, seed)\n"
            ),
            "proj/engine.py": (
                "from proj.cache import content_key\n"
                "from proj.train import train_model\n"
                "class Engine:\n"
                "    def fit(self, spec, preset):\n"
                "        key = content_key({\n"
                "            'stage': 'fit',\n"
                "            'seed': preset.seed,\n"
                "            'framework': spec.framework,\n"
                "        })\n"
                "        return self.cache.get_or_compute(\n"
                "            'fit', key,\n"
                "            lambda: train_model(spec, preset.seed))\n"
            ),
        }
        findings = lint(sources, "REP601")
        assert rules_of(findings) == ["REP601"]
        assert "spec.tau" in findings[0].message
        assert findings[0].path == "proj/engine.py"

    def test_complete_key_clean(self):
        sources = {
            "proj/cache.py": _CACHE_STUB,
            "proj/train.py": (
                "def train_model(spec, seed):\n"
                "    return (spec.framework, spec.tau, seed)\n"
            ),
            "proj/engine.py": (
                "from proj.cache import content_key\n"
                "from proj.train import train_model\n"
                "class Engine:\n"
                "    def fit(self, spec, preset):\n"
                "        key = content_key({\n"
                "            'stage': 'fit',\n"
                "            'seed': preset.seed,\n"
                "            'framework': spec.framework,\n"
                "            'tau': spec.tau,\n"
                "        })\n"
                "        return self.cache.get_or_compute(\n"
                "            'fit', key,\n"
                "            lambda: train_model(spec, preset.seed))\n"
            ),
        }
        assert lint(sources, "REP601") == []

    def test_whole_object_dump_covers_every_field(self):
        sources = {
            "proj/cache.py": _CACHE_STUB,
            "proj/engine.py": (
                "from dataclasses import asdict\n"
                "from proj.cache import content_key\n"
                "class Engine:\n"
                "    def fit(self, spec):\n"
                "        key = content_key({'spec': asdict(spec)})\n"
                "        return self.cache.get_or_compute(\n"
                "            'fit', key, lambda: spec.framework + spec.tau)\n"
            ),
        }
        assert lint(sources, "REP601") == []

    @pytest.mark.parametrize("payload", ["spec.to_dict()", "{**spec}"])
    def test_whole_object_spellings_cover_every_field(self, payload):
        sources = {
            "proj/cache.py": _CACHE_STUB,
            "proj/engine.py": (
                "from proj.cache import content_key\n"
                "class Engine:\n"
                "    def fit(self, spec):\n"
                f"        key = content_key({payload})\n"
                "        return self.cache.get_or_compute(\n"
                "            'fit', key, lambda: spec.framework + spec.tau)\n"
            ),
        }
        assert lint(sources, "REP601") == []

    def test_annotated_key_assignment_traced(self):
        sources = {
            "proj/cache.py": _CACHE_STUB,
            "proj/engine.py": (
                "from proj.cache import content_key\n"
                "class Engine:\n"
                "    def fit(self, spec):\n"
                "        key: str = content_key({'fw': spec.framework})\n"
                "        return self.cache.get_or_compute(\n"
                "            'fit', key, lambda: spec.framework + spec.tau)\n"
            ),
        }
        findings = lint(sources, "REP601")
        assert rules_of(findings) == ["REP601"]
        assert "spec.tau" in findings[0].message

    def test_opaque_key_parameter_skipped(self):
        # cache plumbing receives key/compute as parameters: the
        # builders are checked where the expressions are written
        sources = {
            "proj/cache.py": _CACHE_STUB,
            "proj/plumbing.py": (
                "class Wrapper:\n"
                "    def fetch(self, key, compute, spec):\n"
                "        return self.cache.get_or_compute(\n"
                "            'x', key, compute)\n"
            ),
        }
        assert lint(sources, "REP601") == []

    def test_pragma_justifies_deliberate_omission(self):
        sources = {
            "proj/cache.py": _CACHE_STUB,
            "proj/engine.py": (
                "from proj.cache import content_key\n"
                "class Engine:\n"
                "    def fit(self, spec):\n"
                "        key = content_key({'fw': spec.framework})\n"
                "        # repro: allow[REP601] label only styles output\n"
                "        return self.cache.get_or_compute(\n"
                "            'fit', key,\n"
                "            lambda: (spec.framework, spec.label))\n"
            ),
        }
        assert lint(sources, "REP601") == []

    def test_volatile_id_in_key_payload_flagged(self):
        sources = {
            "proj/a.py": (
                "from proj.cache import content_key\n"
                "def build(model):\n"
                "    return content_key({'model': id(model)})\n"
            ),
            "proj/cache.py": _CACHE_STUB,
        }
        findings = lint(sources, "REP602")
        assert rules_of(findings) == ["REP602"]

    def test_wall_clock_in_key_payload_flagged(self):
        # REP104 only sees key-*named* functions; REP602 follows the
        # payload expression itself
        sources = {
            "proj/a.py": (
                "import time\n"
                "from proj.cache import content_key\n"
                "def build(spec):\n"
                "    return content_key({'at': time.time()})\n"
            ),
            "proj/cache.py": _CACHE_STUB,
        }
        findings = lint(sources, "REP602")
        assert rules_of(findings) == ["REP602"]

    def test_content_derived_payload_clean(self):
        sources = {
            "proj/a.py": (
                "from proj.cache import content_key\n"
                "def build(spec):\n"
                "    return content_key(\n"
                "        {'fw': spec.framework, 'tau': spec.tau})\n"
            ),
            "proj/cache.py": _CACHE_STUB,
        }
        assert lint(sources, "REP602") == []


# ---------------------------------------------------------------------------
# Concurrency surface: sweeps run no threads, so there are no race rules

SRC_REPRO = Path(__file__).resolve().parents[1] / "src" / "repro"


def concurrency_surface(sources):
    """``{(path, construct)}`` for a ``{path: source}`` tree: every
    thread or lock construction (``threading.*``, any ``*Thread*``
    call, ``add_done_callback``) and every ``with`` over a lock-named
    expression, names alias-resolved."""
    surface = set()
    for path, source in sources.items():
        module = ModuleInfo(path, source, ast.parse(source))
        for call in module.nodes(ast.Call):
            dotted = module.dotted_name(call.func) or ""
            name = dotted.rsplit(".", 1)[-1]
            if (
                dotted.startswith("threading.")
                or "Thread" in name
                or name == "add_done_callback"
            ):
                surface.add((path, f"{dotted}()"))
        for block in (*module.nodes(ast.With), *module.nodes(ast.AsyncWith)):
            for item in block.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    expr = expr.func
                dotted = module.dotted_name(expr)
                if dotted is not None and "lock" in dotted.lower():
                    surface.add((path, f"with {dotted}"))
    return surface


#: the REP7xx rules' "bad" fixtures: each must still show up on the
#: concurrency surface
RETIRED_RACE_FIXTURES = {
    "REP701-mixed-lock-discipline": (
        "import threading\n"
        "class Stats:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.count = 0\n"
        "    def bump(self):\n"
        "        with self._lock:\n"
        "            self.count += 1\n"
        "    def reset(self):\n"
        "        self.count = 0\n"
    ),
    "REP702-callback-write": (
        "class Sched:\n"
        "    def submit_all(self, pool, items):\n"
        "        for item in items:\n"
        "            fut = pool.submit(work, item)\n"
        "            fut.add_done_callback(self.on_done)\n"
        "    def on_done(self, fut):\n"
        "        self.done = True\n"
    ),
    "REP702-factory-closure": (
        "from proj.backend import ThreadBackend\n"
        "class Engine:\n"
        "    def _runner(self):\n"
        "        def run(index, attempt):\n"
        "            self.hits += 1\n"
        "            return index\n"
        "        return run\n"
        "    def build(self):\n"
        "        return ThreadBackend(self._runner())\n"
    ),
    "REP703-sleep-under-lock": (
        "import time\n"
        "class Sched:\n"
        "    def wait(self):\n"
        "        with self._lock:\n"
        "            time.sleep(0.5)\n"
    ),
    "REP703-future-result-under-lock": (
        "class Sched:\n"
        "    def wait(self, future):\n"
        "        with self._lock:\n"
        "            return future.result()\n"
    ),
}


class TestConcurrencySurface:
    def test_src_concurrency_surface_is_pinned(self):
        sources = {
            path.relative_to(SRC_REPRO).as_posix(): path.read_text(
                encoding="utf-8"
            )
            for path in sorted(SRC_REPRO.rglob("*.py"))
        }
        assert concurrency_surface(sources) == {
            ("fl/packed.py", "threading.local()"),
        }, (
            "src/repro's threads/locks changed.  The race rules (REP7xx) "
            "were retired because sweeps run cells inline or in worker "
            "processes; new threads or locks must bring back race "
            "checking (lock discipline, thread-reachable writes, no "
            "blocking under a lock) before this pin is updated"
        )

    @pytest.mark.parametrize("name", sorted(RETIRED_RACE_FIXTURES))
    def test_retired_race_fixture_is_on_the_surface(self, name):
        source = RETIRED_RACE_FIXTURES[name]
        assert concurrency_surface({"proj/sched.py": source})


# ---------------------------------------------------------------------------
# Pragmas


class TestPragmas:
    def test_pragma_suppresses_on_same_line(self):
        src = (
            "try:\n"
            "    work()\n"
            "except Exception:  # repro: allow[REP302] recovery path\n"
            "    pass\n"
        )
        assert lint(src) == []

    def test_standalone_pragma_covers_next_line(self):
        src = (
            "try:\n"
            "    work()\n"
            "# repro: allow[REP302] recovery path\n"
            "except Exception:\n"
            "    pass\n"
        )
        assert lint(src) == []

    def test_family_wildcard_suppresses(self):
        src = (
            "try:\n"
            "    work()\n"
            "except Exception:  # repro: allow[REP3xx] covered family\n"
            "    pass\n"
        )
        assert lint(src) == []

    def test_pragma_for_other_rule_does_not_suppress(self):
        src = (
            "try:\n"
            "    work()\n"
            "except Exception:  # repro: allow[REP101] wrong rule\n"
            "    pass\n"
        )
        assert rules_of(lint(src)) == ["REP302"]

    def test_reasonless_pragma_is_a_finding(self):
        src = "x = 1  # repro: allow[REP302]\n"
        findings = lint(src)
        assert rules_of(findings) == ["REP001"]
        assert "reason" in findings[0].message

    def test_malformed_pragma_is_a_finding(self):
        src = "x = 1  # repro: allow[NOTARULE] because\n"
        findings = lint(src)
        assert rules_of(findings) == ["REP001"]
        assert "malformed" in findings[0].message

    def test_unknown_rule_pragma_is_a_finding(self):
        src = "x = 1  # repro: allow[REP999] no such rule\n"
        findings = lint(src)
        assert rules_of(findings) == ["REP001"]
        assert "REP999" in findings[0].message

    @pytest.mark.parametrize("family", ["REP4xx", "REP7xx"])
    def test_unknown_family_pragma_does_not_suppress(self, family):
        src = (
            "try:\n"
            "    work()\n"
            f"except Exception:  # repro: allow[{family}] retired family\n"
            "    pass\n"
        )
        assert rules_of(lint(src)) == ["REP302", "REP001"]

    def test_pragma_inside_string_is_not_a_pragma(self):
        src = "doc = \"use '# repro: allow[...]' comments\"\n"
        assert lint(src) == []

    def test_parse_pragmas_reports_position(self):
        pragmas, problems = parse_pragmas(
            "a = 1\nb = 2  # repro: allow[REP104] pure helper\n", ALL_RULES
        )
        assert problems == []
        assert len(pragmas) == 1
        assert pragmas[0].line == 2
        assert not pragmas[0].standalone

    def test_syntax_error_is_one_finding(self):
        findings = lint("def broken(:\n")
        assert rules_of(findings) == ["REP001"]
        assert "does not parse" in findings[0].message


# ---------------------------------------------------------------------------
# Selection + report schema


class TestSelectionAndReport:
    def test_expand_exact_and_family(self):
        assert expand_selectors("REP302") == ("REP302",)
        family = expand_selectors("REP3xx")
        assert set(family) == {"REP301", "REP302", "REP303"}

    def test_expand_unknown_raises(self):
        with pytest.raises(LintError):
            expand_selectors("REP999")

    def test_expand_empty_selection_raises(self):
        with pytest.raises(LintError, match="names no rules"):
            expand_selectors(",")

    def test_select_filters_rules(self):
        src = (
            "import random\n"
            "try:\n"
            "    x = random.random()\n"
            "except Exception:\n"
            "    pass\n"
        )
        assert rules_of(lint(src, "REP103")) == ["REP103"]

    def test_json_schema_shape(self):
        src = "import numpy as np\nnp.random.rand()\n"
        findings = lint(src)
        payload = json.loads(render_json(findings, 1, ALL_RULES))
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION
        assert payload["tool"] == "repro-lint"
        assert payload["files_checked"] == 1
        assert payload["summary"] == {"total": 1, "by_rule": {"REP101": 1}}
        (entry,) = payload["findings"]
        assert set(entry) == {"rule", "path", "line", "col", "message"}

    def test_json_findings_sorted(self):
        src = (
            "import random\n"
            "import numpy as np\n"
            "random.random()\n"
            "np.random.rand()\n"
        )
        payload = json.loads(render_json(lint(src), 1, ALL_RULES))
        keys = [
            (f["path"], f["line"], f["col"], f["rule"])
            for f in payload["findings"]
        ]
        assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# CLI exit codes + the real tree


class TestCliAndGate:
    def _run(self, *argv_paths, **kwargs):
        out, err = StringIO(), StringIO()
        code = run_command(list(argv_paths), out=out, err=err, **kwargs)
        return code, out.getvalue(), err.getvalue()

    def test_exit_zero_on_clean_file(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        code, out, _ = self._run(str(clean))
        assert code == 0
        assert "clean" in out

    def test_exit_one_on_findings(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nrandom.random()\n")
        code, out, _ = self._run(str(dirty))
        assert code == 1
        assert "REP103" in out

    @pytest.mark.parametrize("select", ["NOPE", "REP7xx"])
    def test_exit_two_on_unknown_selector(self, tmp_path, select):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        code, _, err = self._run(str(clean), select=select)
        assert code == 2
        assert "unknown rule selector" in err

    def test_exit_two_on_empty_selection(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        code, out, err = self._run(str(clean), select=",")
        assert code == 2
        assert out == ""
        assert "names no rules" in err

    def test_exit_two_on_missing_path(self):
        code, _, err = self._run("no/such/dir")
        assert code == 2
        assert "does not exist" in err

    def test_json_format_end_to_end(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nrandom.random()\n")
        code, out, _ = self._run(str(dirty), fmt="json")
        assert code == 1
        payload = json.loads(out)
        assert payload["summary"]["by_rule"] == {"REP103": 1}

    def test_list_rules(self):
        code, out, _ = self._run(show_rules=True)
        assert code == 0
        listed = [line.split()[0] for line in out.splitlines() if line[0] != " "]
        assert listed == list(ALL_RULES) == [
            "REP001",
            *(f"REP10{i}" for i in range(1, 6)),
            *(f"REP30{i}" for i in range(1, 4)),
            *(f"REP50{i}" for i in range(1, 4)),
            "REP601",
            "REP602",
        ]

    def test_repository_tree_lints_clean(self):
        findings, files, selected = run_lint()
        assert [f.format() for f in findings] == []
        assert files > 100
        assert tuple(selected) == tuple(ALL_RULES)


# ---------------------------------------------------------------------------
# Path normalization


class TestPathNormalization:
    def test_paths_repo_relative_posix(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "dirty.py").write_text(
            "import random\nrandom.random()\n"
        )
        findings, _, _ = run_lint(
            paths=[str(package)], root=str(tmp_path)
        )
        assert [f.path for f in findings] == ["pkg/dirty.py"]

    def test_json_report_byte_stable_across_invocation_dirs(
        self, tmp_path, monkeypatch
    ):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "dirty.py").write_text(
            "import random\nrandom.random()\n"
        )
        findings_abs, files, selected = run_lint(
            paths=[str(package)], root=str(tmp_path)
        )
        monkeypatch.chdir(tmp_path)
        findings_rel, files_rel, _ = run_lint(
            paths=["pkg"], root="."
        )
        assert render_json(findings_abs, files, selected) == render_json(
            findings_rel, files_rel, selected
        )
