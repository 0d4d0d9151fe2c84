"""Tests for the unified component registry (repro.registry)."""

import pytest

from repro.registry import (
    Registry,
    UnknownComponent,
    UnknownComponentKwarg,
    register_plugin,
    registry,
)


class TestRegistryCore:
    def test_namespaces_populated_lazily(self):
        for namespace in (
            "frameworks", "attacks", "aggregations", "presets", "artefacts"
        ):
            assert registry.names(namespace), namespace

    def test_get_unknown_name_has_suggestion(self):
        with pytest.raises(UnknownComponent, match="did you mean 'safeloc'"):
            registry.get("frameworks", "safelok")

    def test_get_unknown_name_lists_choices(self):
        with pytest.raises(UnknownComponent, match="choices"):
            registry.get("attacks", "ddos")

    def test_unknown_namespace_rejected(self):
        with pytest.raises(KeyError):
            registry.get("spaceships", "enterprise")

    def test_duplicate_registration_rejected(self):
        fresh = Registry(("frameworks",))
        fresh.add("frameworks", "thing", lambda: None)
        with pytest.raises(ValueError, match="already registered"):
            fresh.add("frameworks", "thing", lambda: None)
        # replace=True is the explicit override
        fresh.add("frameworks", "thing", lambda: 1, replace=True)
        assert fresh.get("frameworks", "thing").factory() == 1

    def test_metadata_from_signature(self):
        info = registry.get("attacks", "pgd")
        assert info.defaults == {"num_steps": 10, "step_fraction": 0.25}
        assert "num_steps" in info.accepts
        assert not info.open_kwargs

    def test_paper_flag_partition(self):
        paper = registry.names("attacks", paper=True)
        extensions = registry.names("attacks", paper=False)
        assert paper == ("clb", "fgsm", "pgd", "mim", "label_flip")
        assert set(extensions) == {"targeted_label_flip", "gaussian_noise"}

    def test_components_sorted_by_name(self):
        names = [c.name for c in registry.components("frameworks")]
        assert names == sorted(names)


class TestContracts:
    """Registration metadata agrees with every factory signature:
    create() filters kwargs to the declared surface, so drift would
    surface as a TypeError or a silently dropped knob at sweep time."""

    def test_registrations_match_their_factories(self):
        assert registry.contract_problems() == []

    def test_bad_registration_is_reported(self):
        fresh = Registry(("frameworks",))
        fresh.add(
            "frameworks", "closed", lambda clients, seed=0: None,
            extra_kwargs=("lost",),
        )
        fresh.add(
            "frameworks", "stray", lambda clients, seed=0: None,
            defaults={"tau": 0.5},
        )
        problems = fresh.contract_problems()
        assert len(problems) == 2
        assert problems[0].startswith(
            "frameworks/closed: accepted kwarg 'lost'"
        )
        assert problems[1].startswith(
            "frameworks/stray: declared default 'tau'"
        )


class TestStrictKwargs:
    def test_typo_raises_with_suggestion(self):
        with pytest.raises(UnknownComponentKwarg, match="did you mean 'num_steps'"):
            registry.create("attacks", "pgd", 0.1, num_step=3)

    def test_sweep_uniform_kwargs_filtered(self):
        # num_classes is only accepted by label flipping, but the sweep
        # universe (the whole namespace) knows it: filtered, not fatal
        attack = registry.create("attacks", "fgsm", 0.1, num_classes=12)
        assert type(attack).__name__ == "FGSM"

    def test_explicit_sweep_narrows_the_universe(self):
        with pytest.raises(UnknownComponentKwarg):
            registry.create(
                "attacks", "fgsm", 0.1, num_classes=12, sweep=("fgsm", "pgd")
            )

    def test_strict_is_not_an_escape_hatch(self):
        """There is no lenient mode: ``strict`` is just another unknown
        kwarg, and the typo next to it is still reported."""
        with pytest.raises(UnknownComponentKwarg, match="strict"):
            registry.create("attacks", "pgd", 0.1, strict=False, num_step=3)

    def test_validate_kwargs_accepts_known(self):
        registry.validate_kwargs(
            "frameworks", "safeloc", {"tau": 0.1, "server_mixing": 0.5}
        )

    def test_closed_surface_for_extra_kwargs_factory(self):
        info = registry.get("frameworks", "safeloc")
        assert not info.open_kwargs
        assert "server_mixing" in info.accepts


class TestShims:
    def test_create_attack_strict_default(self):
        from repro.attacks.registry import create_attack

        with pytest.raises(TypeError, match="num_steps"):
            create_attack("mim", 0.2, num_step=4)
        assert create_attack("mim", 0.2, num_steps=4).num_steps == 4

    def test_make_framework_strict_default(self):
        from repro.baselines.registry import make_framework

        with pytest.raises(TypeError, match="did you mean 'tau'"):
            make_framework("safeloc", 8, 5, seed=0, taus=0.1)
        spec = make_framework("safeloc", 8, 5, seed=0, tau=0.1)
        assert spec.name == "safeloc"

    def test_legacy_name_tuples_preserved(self):
        from repro.attacks.registry import ATTACK_NAMES, PAPER_ATTACKS
        from repro.baselines.registry import (
            COMPARISON_FRAMEWORKS,
            FRAMEWORK_NAMES,
        )

        assert PAPER_ATTACKS == ("clb", "fgsm", "pgd", "mim", "label_flip")
        assert ATTACK_NAMES[:5] == PAPER_ATTACKS
        assert COMPARISON_FRAMEWORKS == (
            "safeloc", "onlad", "fedhil", "fedcc", "fedls", "fedloc"
        )
        assert FRAMEWORK_NAMES == (*COMPARISON_FRAMEWORKS, "krum")


class TestPlugins:
    def test_register_plugin_is_first_class(self):
        name = "test-plugin-attack"
        if not registry.has("attacks", name):
            from repro.attacks.fgsm import FGSM

            class PluginAttack(FGSM):
                """A plugin attack for the registry test."""

            register_plugin(
                "attacks", name, PluginAttack, paper=False,
                doc="test plugin",
            )
        info = registry.get("attacks", name)
        assert not info.paper
        assert name in registry.names("attacks")
        attack = registry.create("attacks", name, 0.3)
        assert attack.epsilon == 0.3

    def test_entry_point_discovery_is_idempotent(self):
        assert registry.load_entry_points() == 0  # already scanned

    def test_early_plugin_does_not_suppress_builtins(self):
        """A plugin registering into a not-yet-populated namespace must
        not stop the built-ins from loading (population is tracked per
        namespace, not inferred from emptiness)."""
        import os
        import subprocess
        import sys

        code = (
            "from repro.registry import register_plugin, registry\n"
            "register_plugin('frameworks', 'early', lambda i, c, seed=0: None)\n"
            "names = registry.names('frameworks')\n"
            "assert 'early' in names, names\n"
            "assert 'safeloc' in names, names\n"
            "registry.get('frameworks', 'safeloc')\n"
        )
        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(__file__), os.pardir, "src"
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run(
            [sys.executable, "-c", code], env=env, check=True
        )

    def test_plugin_aggregation_is_spec_addressable(self):
        """A registered plugin aggregation validates in specs and is
        what the engine would construct for strategy cells."""
        from repro.experiments.engine import scenario
        from repro.experiments.specio import validate_plan_payload
        from repro.fl.aggregation import FedAvg

        name = "test-plugin-aggregation"
        if not registry.has("aggregations", name):
            register_plugin(
                "aggregations", name, FedAvg, doc="plugin aggregation"
            )
        assert isinstance(registry.create("aggregations", name), FedAvg)
        import repro.api as api

        payload = api.experiment("fig4").preset("tiny").spec()
        payload["cells"][0]["strategy"] = name
        validate_plan_payload(payload)  # plugin name validates
        spec = scenario("safeloc", strategy=name)
        assert spec.strategy == name


class TestBatchedClientsCapability:
    def test_builtin_frameworks_declare_support(self):
        from repro.baselines.registry import FRAMEWORK_NAMES

        for name in FRAMEWORK_NAMES:
            assert registry.get("frameworks", name).supports_batched_clients

    def test_metadata_matches_model_probe(self):
        """The declared capability must agree with what the stock model
        actually exposes: a non-None fold_batch_program()."""
        from repro.baselines.registry import FRAMEWORK_NAMES, make_framework

        for name in FRAMEWORK_NAMES:
            spec = make_framework(name, 8, 5, seed=0)
            program = spec.model_factory().fold_batch_program()
            declared = registry.get(
                "frameworks", name
            ).supports_batched_clients
            assert (program is not None) == bool(declared), name

    def test_plugin_default_is_undeclared(self):
        fresh = Registry(("frameworks",))
        info = fresh.add("frameworks", "mystery", lambda: None)
        assert info.supports_batched_clients is None

    def test_api_info_exposes_capability(self):
        import repro.api as api

        frameworks = {
            entry["name"]: entry for entry in api.info()["frameworks"]
        }
        assert frameworks["safeloc"]["supports_batched_clients"] is True
        assert frameworks["onlad"]["supports_batched_clients"] is True
