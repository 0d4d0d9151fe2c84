"""Span recorder and layer wrappers for the end-to-end benchmark.

The benchmark times each layer of ``repro`` from the outside: it installs
class-level wrappers around the calls that cross a layer boundary (the
table below), records one span per call in memory, and writes the spans
out only when the run ends.  Nothing under ``src/`` is edited.

Two kinds of wrapper:

* **spans** — coarse calls (a round, a cell, a pre-train, a detector
  fit).  Each span records its name, start, end, parent span and trace
  id; the trace id is the round, cell or query the span belongs to and is
  inherited from the parent unless the caller sets one.
* **kernels** — the high-frequency ``nn`` calls (dense forward/backward,
  Adam steps, losses) and artifact I/O.  One span per call would cost
  more than the call, so a kernel only adds to a per-name call count and
  busy time.

Per name the recorder keeps a count, the busy time (wall time covered by
the outermost call of that name, so a recursive or re-entrant call is
not counted twice) and the self time (duration minus the time covered by
child spans).  Aggregates are updated as spans close, so a run with
millions of spans keeps only the first ``keep_per_name`` of each name for
the trace files.

The benchmark is single-threaded (``jobs=1``, serial executor), so one
span stack is enough.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, module, attribute) — coarse layer-boundary calls.
#: ``attribute`` is ``Class.method`` or a module-level function; a
#: function is re-bound in every loaded module that imported it by name.
SPAN_HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("experiments.sweep", "repro.experiments.engine", "SweepEngine.run"),
    # the engine's per-cell body has no public entry point inside a sweep
    ("experiments.cell", "repro.experiments.engine",
     "SweepEngine._run_federation_cell"),
    ("experiments.pretrain", "repro.experiments.artifacts",
     "ArtifactCache.get_pretrained"),
    ("fl.build", "repro.fl.simulation", "build_federation"),
    ("fl.pretrain", "repro.fl.server", "FederatedServer.pretrain"),
    ("fl.round", "repro.fl.server", "FederatedServer.run_round"),
    ("fl.broadcast", "repro.fl.client", "FederatedClient.begin_local_round"),
    ("fl.client_train", "repro.fl.client", "FederatedClient.local_update"),
    # serial tail of the batched engine (unbatchable or singleton clients)
    ("fl.client_train", "repro.fl.batched_round", "ClientCohort._train_serial"),
    ("core.safeloc_train", "repro.core.safeloc", "SafeLocModel.train_epochs"),
    ("core.screen", "repro.core.safeloc",
     "SafeLocModel._screen_training_data"),
    ("core.predict", "repro.core.safeloc", "SafeLocModel.predict"),
    ("core.saliency", "repro.core.saliency",
     "SaliencyAggregation.packed_aggregate"),
    ("baselines.fedls_detect", "repro.baselines.fedls",
     "LatentSpaceAggregation.leave_one_out_errors"),
    ("data.collect", "repro.data.fingerprints", "FingerprintCollector.collect"),
    ("metrics.evaluate", "repro.metrics.localization", "evaluate_model"),
)

#: (span name, module, base class, method) — every class in the base's
#: subclass tree that defines ``method`` itself gets a span wrapper.
SUBCLASS_HOOKS: Tuple[Tuple[str, str, str, str], ...] = (
    ("fl.aggregate", "repro.fl.aggregation", "AggregationStrategy",
     "aggregate"),
    ("fl.fold", "repro.fl.batched_round", "FoldProgram", "train_cohort"),
    ("attacks.poison", "repro.attacks.base", "Attack", "poison"),
    ("baselines.model_train", "repro.fl.interfaces", "LocalizationModel",
     "train_epochs"),
)

#: (kernel name, module, attributes) — aggregated count + busy time.
KERNEL_HOOKS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("nn.linear", "repro.nn.layers", (
        "Linear.forward", "Linear.backward",
        "TiedLinear.forward", "TiedLinear.backward",
    )),
    ("nn.batched_linear", "repro.nn.batched", (
        "BatchedLinear.forward", "BatchedLinear.backward",
        "BatchedTiedLinear.forward", "BatchedTiedLinear.backward",
    )),
    # per-round restacking of client models onto the fold axis and back
    ("nn.fold_stack", "repro.nn.batched", (
        "CompositeStacker.stack", "BatchedLinear.from_linears",
        "BatchedSequential.scatter_fold",
    )),
    ("nn.loss", "repro.nn.losses", (
        "MSELoss.forward", "MSELoss.backward",
        "SparseCrossEntropyLoss.forward", "SparseCrossEntropyLoss.backward",
    )),
    ("nn.loss", "repro.nn.batched", (
        "BatchedMSELoss.forward", "BatchedMSELoss.backward",
        "BatchedSparseCrossEntropyLoss.forward",
        "BatchedSparseCrossEntropyLoss.backward",
    )),
    # serialization and disk traffic of the sweep artifact cache
    ("experiments.artifact_io", "repro.experiments.artifacts", (
        "ArtifactCache.store_cell", "ArtifactCache.load_cell",
        "encode_update", "decode_update", "save_state", "load_state",
        "_read_bytes", "_write_bytes", "_save_datasets", "_load_datasets",
    )),
)

#: the subclass-hook family each span name is limited to (module prefix)
_SUBCLASS_SCOPE = {"baselines.model_train": "repro.baselines."}

#: modules imported before installation so every subclass is visible
_PRELOAD = (
    "repro.baselines.registry", "repro.attacks", "repro.core.safeloc",
    "repro.experiments.engine", "repro.fl.batched_round",
)


class _Frame:
    __slots__ = ("id", "name", "start", "child", "trace", "parent")

    def __init__(self, span_id, name, start, trace, parent):
        self.id = span_id
        self.name = name
        self.start = start
        self.child = 0.0
        self.trace = trace
        self.parent = parent


class Tracer:
    """In-memory span recorder (see the module docstring)."""

    def __init__(self, keep_per_name: int = 2000):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.keep_per_name = keep_per_name
        #: kept spans: (id, name, start, end, parent, trace, self_s)
        self.records: List[tuple] = []
        #: name -> [count, busy_s, self_s]
        self.stats: Dict[str, List[float]] = {}
        #: name -> [calls, busy_s]
        self.kernels: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.missing: List[str] = []
        self.observer_calls = 0
        self._stack: List[_Frame] = []
        self._depth: Dict[str, int] = {}
        self._kernel_depth: Dict[str, int] = {}
        self._kept: Dict[str, int] = {}
        self._next_id = 1
        self._restore: List[Callable[[], None]] = []
        self._cost = {"span": 0.0, "kernel": 0.0, "observer": 0.0}

    # -- recording ---------------------------------------------------------
    def begin(self, name: str, trace: Optional[str] = None) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        if trace is None and parent is not None:
            trace = parent.trace
        frame = _Frame(
            self._next_id, name, self.clock(), trace,
            parent.id if parent else None,
        )
        self._next_id += 1
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append(frame)
        return frame

    def end(self, frame: _Frame) -> None:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(
                f"span {frame.name!r} closed out of order ({popped.name!r})"
            )
        duration = end - frame.start
        self_s = duration - frame.child
        if self._stack:
            self._stack[-1].child += duration
        depth = self._depth[frame.name] - 1
        self._depth[frame.name] = depth
        entry = self.stats.setdefault(frame.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[2] += self_s
        if depth == 0:
            entry[1] += duration
        kept = self._kept.get(frame.name, 0)
        if kept < self.keep_per_name:
            self._kept[frame.name] = kept + 1
            self.records.append((
                frame.id, frame.name, frame.start, end, frame.parent,
                frame.trace, self_s,
            ))

    @contextlib.contextmanager
    def span(self, name: str, trace: Optional[str] = None):
        frame = self.begin(name, trace)
        try:
            yield frame
        finally:
            self.end(frame)

    def current(self) -> Optional[str]:
        """Name of the innermost open span."""
        return self._stack[-1].name if self._stack else None

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrappers ----------------------------------------------------------
    def span_wrapper(self, name: str, fn: Callable, trace_prefix=None):
        tracer = self
        serial = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            trace = None
            if trace_prefix is not None:
                trace = f"{trace_prefix}-{serial[0]}"
                serial[0] += 1
            frame = tracer.begin(name, trace)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(frame)
            observe = _OBSERVERS.get(name)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def kernel_wrapper(self, name: str, fn: Callable):
        clock = self.clock
        depth = self._kernel_depth
        kernels = self.kernels

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth.get(name):
                return fn(*args, **kwargs)
            depth[name] = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = clock() - start
                depth[name] = 0
                entry = kernels.get(name)
                if entry is None:
                    entry = kernels[name] = [0, 0.0]
                entry[0] += 1
                entry[1] += busy

        return wrapper

    def observer_wrapper(self, observe: Callable, fn: Callable):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.observer_calls += 1
            observe(tracer, args, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Wrap every hook in the tables; unresolvable hooks are listed in
        :attr:`missing` (their layer then reads zero)."""
        for module in _PRELOAD:
            importlib.import_module(module)
        self._calibrate()
        for name, module, attribute in SPAN_HOOKS:
            trace_prefix = "cell" if name == "experiments.cell" else None
            self._patch(
                module, attribute,
                lambda fn, n=name, p=trace_prefix: self.span_wrapper(n, fn, p),
            )
        for name, module, base, method in SUBCLASS_HOOKS:
            self._patch_subclasses(name, module, base, method)
        for name, module, attributes in KERNEL_HOOKS:
            for attribute in attributes:
                self._patch(
                    module, attribute,
                    lambda fn, n=name: self.kernel_wrapper(n, fn),
                )
        self._patch_adam()
        self._patch(
            "repro.core.detection", "ThresholdDetector.flag",
            lambda fn: self.observer_wrapper(_observe_flag, fn),
        )

    def uninstall(self) -> None:
        """Restore every wrapped attribute (last wrapped, first restored)."""
        while self._restore:
            self._restore.pop()()

    def _patch(self, module_name: str, attribute: str, make: Callable) -> None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(f"{module_name}:{attribute}")
            return
        owner_name, _, leaf = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if owner is None or leaf not in vars(owner):
                self.missing.append(f"{module_name}:{attribute}")
                return
            self._patch_method(owner, leaf, make)
            return
        original = getattr(module, leaf, None)
        if original is None:
            self.missing.append(f"{module_name}:{attribute}")
            return
        wrapped = make(original)
        # functions imported by name elsewhere are re-bound there too
        for loaded in list(sys.modules.values()):
            if getattr(loaded, leaf, None) is original:
                setattr(loaded, leaf, wrapped)
                self._restore.append(
                    lambda m=loaded, o=original: setattr(m, leaf, o)
                )

    def _patch_method(self, owner: type, leaf: str, make: Callable) -> None:
        raw = vars(owner)[leaf]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        setattr(owner, leaf, wrapped)
        self._restore.append(lambda: setattr(owner, leaf, raw))

    def _patch_subclasses(
        self, name: str, module_name: str, base_name: str, method: str
    ) -> None:
        base = getattr(importlib.import_module(module_name), base_name, None)
        if base is None:
            self.missing.append(f"{module_name}:{base_name}")
            return
        scope = _SUBCLASS_SCOPE.get(name, "")
        seen = set()
        pending = [base]
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            if method in vars(cls) and cls.__module__.startswith(scope):
                if getattr(vars(cls)[method], "__isabstractmethod__", False):
                    continue
                self._patch_method(
                    cls, method, lambda fn: self.span_wrapper(name, fn)
                )

    def _patch_adam(self) -> None:
        """``Adam.step`` serves both optimizers; split by the stacked type."""
        optim = importlib.import_module("repro.nn.optim")
        batched = importlib.import_module("repro.nn.batched").BatchedAdam
        if "step" not in vars(optim.Adam):
            self.missing.append("repro.nn.optim:Adam.step")
            return
        raw = vars(optim.Adam)["step"]
        plain = self.kernel_wrapper("nn.adam", raw)
        stacked = self.kernel_wrapper("nn.batched_adam", raw)

        def step(optimizer):
            if isinstance(optimizer, batched):
                return stacked(optimizer)
            return plain(optimizer)

        optim.Adam.step = step
        self._restore.append(lambda: setattr(optim.Adam, "step", raw))

    def _calibrate(self, calls: int = 20000) -> None:
        """Per-call cost of each wrapper kind, for ``trace.overhead_pct``."""

        def noop(*_args):
            return None

        probe = Tracer(keep_per_name=0)
        variants = {
            "span": probe.span_wrapper("calibrate", noop),
            "kernel": probe.kernel_wrapper("calibrate", noop),
            "observer": probe.observer_wrapper(lambda *_: None, noop),
        }
        clock = self.clock
        start = clock()
        for _ in range(calls):
            noop()
        plain = clock() - start
        for kind, fn in variants.items():
            start = clock()
            for _ in range(calls):
                fn()
            self._cost[kind] = max(0.0, (clock() - start - plain) / calls)

    # -- results -----------------------------------------------------------
    def overhead_s(self) -> float:
        """Estimated wall time the wrappers themselves added."""
        spans = sum(entry[0] for entry in self.stats.values())
        kernels = sum(entry[0] for entry in self.kernels.values())
        return (
            spans * self._cost["span"]
            + kernels * self._cost["kernel"]
            + self.observer_calls * self._cost["observer"]
        )

    def span_count(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def busy(self, name: str) -> float:
        if name in self.kernels:
            return self.kernels[name][1]
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def calls(self, name: str) -> int:
        return int(self.kernels.get(name, (0, 0.0))[0])

    def write(self, stem: str) -> Tuple[str, str]:
        """Write ``<stem>.jsonl`` (spans, kernels, counters) and
        ``<stem>.chrome.json`` (Chrome trace-event format, loadable in
        Perfetto); returns both paths."""
        jsonl = f"{stem}.jsonl"
        chrome = f"{stem}.chrome.json"
        with open(jsonl, "w") as handle:
            for span_id, name, start, end, parent, trace, self_s in self.records:
                handle.write(json.dumps({
                    "span": name, "id": span_id, "parent": parent,
                    "trace": trace,
                    "start_s": start - self.origin,
                    "end_s": end - self.origin,
                    "self_s": self_s,
                }) + "\n")
            for name, (calls, busy) in sorted(self.kernels.items()):
                handle.write(json.dumps(
                    {"kernel": name, "calls": calls, "busy_s": busy}
                ) + "\n")
            for name, value in sorted(self.counters.items()):
                handle.write(json.dumps(
                    {"counter": name, "value": value}
                ) + "\n")
        events = [
            {
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - self.origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent, "trace": trace},
            }
            for span_id, name, start, end, parent, trace, _ in self.records
        ]
        with open(chrome, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        return jsonl, chrome


# -- observers: counters read off a wrapped call's arguments or result ----
def _observe_round(tracer: Tracer, args, record) -> None:
    tracer.count("fl.flagged", record.num_flagged)
    tracer.count("fl.dropped", record.num_dropped)
    tracer.count("client_update.needed", len(record.updates))


def _observe_fold(tracer: Tracer, args, result) -> None:
    # train_cohort(self, programs, preps, config, rngs)
    tracer.count("fl.fold.folds", len(args[1]))


def _observe_flag(tracer: Tracer, args, flagged) -> None:
    if tracer.current() == "core.predict":
        tracer.count("core.predict.rows", len(flagged))
        tracer.count("core.predict.flagged", int(flagged.sum()))


_OBSERVERS = {"fl.round": _observe_round, "fl.fold": _observe_fold}


# -- per-layer metrics -----------------------------------------------------
#: (metric, unit, better) of every per-layer metric a traced run emits;
#: BENCHMARK.json's ``per_layer`` list mirrors this table.
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("experiments.scheduler.overhead_pct", "%", "lower"),
    ("experiments.data.hits", "count", "higher"),
    ("experiments.data.misses", "count", "lower"),
    ("experiments.pretrain.hits", "count", "higher"),
    ("experiments.pretrain.misses", "count", "lower"),
    ("experiments.pretrain.busy_pct", "%", "lower"),
    ("experiments.client_update.needed", "count", "lower"),
    ("experiments.client_update.reused", "count", "higher"),
    ("experiments.client_update.reuse_ratio", "ratio", "higher"),
    ("experiments.artifact_io.busy_pct", "%", "lower"),
    ("experiments.cache.bytes_written", "bytes", "lower"),
    ("experiments.cells.failed", "count", "lower"),
    ("experiments.cells.retried", "count", "lower"),
    ("fl.round.count", "count", "higher"),
    ("fl.round.self_pct", "%", "lower"),
    ("fl.broadcast.self_pct", "%", "lower"),
    ("fl.client_train.count", "count", "lower"),
    ("fl.client_train.busy_pct", "%", "lower"),
    ("fl.fold.groups", "count", "lower"),
    ("fl.fold.mean_size", "folds", "higher"),
    ("fl.fold.busy_pct", "%", "lower"),
    ("fl.aggregate.count", "count", "lower"),
    ("fl.aggregate.busy_pct", "%", "lower"),
    ("fl.pretrain.busy_pct", "%", "lower"),
    ("fl.build.busy_pct", "%", "lower"),
    ("fl.flagged.count", "count", "higher"),
    ("fl.dropped.count", "count", "higher"),
    ("nn.linear.calls", "count", "lower"),
    ("nn.linear.busy_pct", "%", "lower"),
    ("nn.adam.calls", "count", "lower"),
    ("nn.adam.busy_pct", "%", "lower"),
    ("nn.batched_linear.calls", "count", "lower"),
    ("nn.batched_linear.busy_pct", "%", "lower"),
    ("nn.batched_adam.busy_pct", "%", "lower"),
    ("nn.fold_stack.busy_pct", "%", "lower"),
    ("nn.loss.busy_pct", "%", "lower"),
    ("core.safeloc_train.self_pct", "%", "lower"),
    ("core.screen.busy_pct", "%", "lower"),
    ("core.predict.calls", "count", "lower"),
    ("core.predict.self_pct", "%", "lower"),
    ("core.predict.flagged_frac", "ratio", "lower"),
    ("core.saliency.busy_pct", "%", "lower"),
    ("baselines.fedls_detect.busy_pct", "%", "lower"),
    ("baselines.model_train.busy_pct", "%", "lower"),
    ("attacks.poison.count", "count", "lower"),
    ("attacks.poison.busy_pct", "%", "lower"),
    ("data.collect.busy_pct", "%", "lower"),
    ("metrics.evaluate.busy_pct", "%", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

#: layers of the printed table: (name, kind)
TABLE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("experiments.sweep", "span"), ("experiments.cell", "span"),
    ("experiments.pretrain", "span"), ("experiments.artifact_io", "kernel"),
    ("fl.build", "span"), ("fl.pretrain", "span"), ("fl.round", "span"),
    ("fl.broadcast", "span"), ("fl.client_train", "span"),
    ("fl.fold", "span"), ("fl.aggregate", "span"),
    ("core.safeloc_train", "span"), ("core.screen", "span"),
    ("core.predict", "span"), ("core.saliency", "span"),
    ("baselines.fedls_detect", "span"), ("baselines.model_train", "span"),
    ("attacks.poison", "span"), ("data.collect", "span"),
    ("metrics.evaluate", "span"),
    ("nn.linear", "kernel"), ("nn.batched_linear", "kernel"),
    ("nn.adam", "kernel"), ("nn.batched_adam", "kernel"),
    ("nn.fold_stack", "kernel"), ("nn.loss", "kernel"),
)


def layer_metrics(
    tracer: Tracer, wall_s: float, sweep: Dict[str, float]
) -> Dict[str, Tuple[float, str]]:
    """Every :data:`LAYER_METRICS` entry for one traced run.

    ``wall_s`` is the traced run's wall time (the base of every ``_pct``
    share); ``sweep`` holds the sweep-level counts the fig6 workload read
    off its :class:`~repro.experiments.engine.SweepResult` (empty for the
    other workloads).
    """

    def pct(seconds: float) -> float:
        return 100.0 * seconds / wall_s if wall_s > 0 else 0.0

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    counters = tracer.counters
    groups = tracer.span_count("fl.fold")
    trained = tracer.span_count("fl.client_train") + counters.get(
        "fl.fold.folds", 0
    )
    needed = counters.get("client_update.needed", 0)
    reused = max(0.0, needed - trained)
    values = {
        "experiments.scheduler.overhead_pct": pct(
            sweep.get("scheduler_overhead_s", 0.0)
        ),
        "experiments.data.hits": sweep.get("data_hits", 0),
        "experiments.data.misses": sweep.get("data_misses", 0),
        "experiments.pretrain.hits": sweep.get("pretrain_hits", 0),
        "experiments.pretrain.misses": sweep.get("pretrain_misses", 0),
        "experiments.pretrain.busy_pct": pct(
            tracer.busy("experiments.pretrain")
        ),
        "experiments.client_update.needed": needed,
        "experiments.client_update.reused": reused,
        "experiments.client_update.reuse_ratio": ratio(reused, needed),
        "experiments.artifact_io.busy_pct": pct(
            tracer.busy("experiments.artifact_io")
        ),
        "experiments.cache.bytes_written": sweep.get("bytes_written", 0),
        "experiments.cells.failed": sweep.get("cells_failed", 0),
        "experiments.cells.retried": sweep.get("cells_retried", 0),
        "fl.round.count": tracer.span_count("fl.round"),
        "fl.round.self_pct": pct(tracer.self_time("fl.round")),
        "fl.broadcast.self_pct": pct(tracer.self_time("fl.broadcast")),
        "fl.client_train.count": tracer.span_count("fl.client_train"),
        "fl.client_train.busy_pct": pct(tracer.busy("fl.client_train")),
        "fl.fold.groups": groups,
        "fl.fold.mean_size": ratio(counters.get("fl.fold.folds", 0), groups),
        "fl.fold.busy_pct": pct(tracer.busy("fl.fold")),
        "fl.aggregate.count": tracer.span_count("fl.aggregate"),
        "fl.aggregate.busy_pct": pct(tracer.busy("fl.aggregate")),
        "fl.pretrain.busy_pct": pct(tracer.busy("fl.pretrain")),
        "fl.build.busy_pct": pct(tracer.busy("fl.build")),
        "fl.flagged.count": counters.get("fl.flagged", 0),
        "fl.dropped.count": counters.get("fl.dropped", 0),
        "nn.linear.calls": tracer.calls("nn.linear"),
        "nn.linear.busy_pct": pct(tracer.busy("nn.linear")),
        "nn.adam.calls": tracer.calls("nn.adam"),
        "nn.adam.busy_pct": pct(tracer.busy("nn.adam")),
        "nn.batched_linear.calls": tracer.calls("nn.batched_linear"),
        "nn.batched_linear.busy_pct": pct(tracer.busy("nn.batched_linear")),
        "nn.batched_adam.busy_pct": pct(tracer.busy("nn.batched_adam")),
        "nn.fold_stack.busy_pct": pct(tracer.busy("nn.fold_stack")),
        "nn.loss.busy_pct": pct(tracer.busy("nn.loss")),
        "core.safeloc_train.self_pct": pct(
            tracer.self_time("core.safeloc_train")
        ),
        "core.screen.busy_pct": pct(tracer.busy("core.screen")),
        "core.predict.calls": tracer.span_count("core.predict"),
        "core.predict.self_pct": pct(tracer.self_time("core.predict")),
        "core.predict.flagged_frac": ratio(
            counters.get("core.predict.flagged", 0),
            counters.get("core.predict.rows", 0),
        ),
        "core.saliency.busy_pct": pct(tracer.busy("core.saliency")),
        "baselines.fedls_detect.busy_pct": pct(
            tracer.busy("baselines.fedls_detect")
        ),
        "baselines.model_train.busy_pct": pct(
            tracer.busy("baselines.model_train")
        ),
        "attacks.poison.count": tracer.span_count("attacks.poison"),
        "attacks.poison.busy_pct": pct(tracer.busy("attacks.poison")),
        "data.collect.busy_pct": pct(tracer.busy("data.collect")),
        "metrics.evaluate.busy_pct": pct(tracer.busy("metrics.evaluate")),
        "trace.overhead_pct": pct(tracer.overhead_s()),
    }
    return {
        name: (float(values[name]), unit)
        for name, unit, _better in LAYER_METRICS
    }


def format_layer_table(tracer: Tracer, wall_s: float, title: str) -> str:
    """The per-layer table printed after a traced run."""
    lines = [
        f"per-layer breakdown: {title} (traced wall {wall_s:.3f} s, "
        f"tracing overhead ~{100 * tracer.overhead_s() / wall_s:.2f}%)",
        f"  {'layer':<26}{'calls':>10}{'busy_s':>11}{'self_s':>11}"
        f"{'busy %':>9}",
    ]
    for name, kind in TABLE_LAYERS:
        if kind == "kernel":
            calls, busy, self_s = tracer.calls(name), tracer.busy(name), None
        else:
            calls = tracer.span_count(name)
            busy, self_s = tracer.busy(name), tracer.self_time(name)
        if not calls:
            continue
        self_text = "-" if self_s is None else f"{self_s:.4f}"
        lines.append(
            f"  {name:<26}{calls:>10}{busy:>11.4f}{self_text:>11}"
            f"{100 * busy / wall_s:>8.2f}%"
        )
    if tracer.missing:
        lines.append("  hooks not found: " + ", ".join(tracer.missing))
    return "\n".join(lines)
