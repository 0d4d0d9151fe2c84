"""Framework registration and name-based construction.

Since the unified-registry redesign this module is a thin shim: every
comparable system (SAFELOC itself included, so drivers can sweep
``for name in FRAMEWORK_NAMES: make_framework(name, ...)``) lives in
:data:`repro.registry.registry` under the ``frameworks`` namespace, and
:func:`make_framework` delegates to :meth:`Registry.create`.

Unknown kwargs raise with a did-you-mean suggestion.
"""

from __future__ import annotations

from repro.baselines.fedcc import make_fedcc
from repro.baselines.fedhil import make_fedhil
from repro.baselines.fedloc import make_fedloc
from repro.baselines.fedls import make_fedls
from repro.baselines.krum import make_krum
from repro.baselines.onlad import make_onlad
from repro.fl.interfaces import FrameworkSpec
from repro.registry import registry


def _make_safeloc(
    input_dim: int, num_classes: int, seed: int = 0, **kwargs
) -> FrameworkSpec:
    # imported lazily to keep baselines importable without the core package
    from repro.core.safeloc import make_safeloc

    return make_safeloc(input_dim, num_classes, seed=seed, **kwargs)


for _name, _factory, _paper, _doc, _extra in (
    ("safeloc", _make_safeloc, True,
     "SAFELOC: fused AE+classifier with saliency aggregation (this paper)",
     # forwarded through **kwargs: SafeLocModel + SaliencyAggregation knobs
     ("tau", "denoise_training_data", "mode", "tolerance", "power",
      "sharpness", "server_mixing", "adjustment")),
    ("onlad", make_onlad, True,
     "ONLAD: separate on-device detector AE + DNN, FedAvg [25]", ()),
    ("fedhil", make_fedhil, True,
     "FEDHIL: DNN + selective weight-tensor aggregation [9]", ()),
    ("fedcc", make_fedcc, True,
     "FEDCC: DNN + cluster-and-filter aggregation [23]", ()),
    ("fedls", make_fedls, True,
     "FEDLS: DNN + server-side latent-space anomaly filter [24]", ()),
    ("fedloc", make_fedloc, True,
     "FEDLOC: DNN + FedAvg, no poisoning defense [10]", ()),
    # beyond the paper's Fig. 6 comparison set
    ("krum", make_krum, False,
     "KRUM: MLP + Byzantine-robust single-LM selection [22]", ()),
):
    # replace=True gives the built-ins authority over their names even
    # if an entry-point plugin registered first.  Every built-in model
    # exposes a fold-batch program (SAFELOC/ONLAD composite, DNN
    # classifier), so client_engine="batched" stacks all of them —
    # a test probes the claim against each model's fold_batch_program().
    registry.add(
        "frameworks",
        _name,
        _factory,
        paper=_paper,
        doc=_doc,
        extra_kwargs=_extra,
        replace=True,
        supports_batched_clients=True,
    )

#: Fig. 6 / Table I comparison set, in the paper's ranking order
#: (fixed by the paper, not a registry query), plus KRUM.
COMPARISON_FRAMEWORKS = (
    "safeloc", "onlad", "fedhil", "fedcc", "fedls", "fedloc"
)
FRAMEWORK_NAMES = (*COMPARISON_FRAMEWORKS, "krum")


def make_framework(
    name: str,
    input_dim: int,
    num_classes: int,
    seed: int = 0,
    **kwargs,
) -> FrameworkSpec:
    """Build a framework bundle by name.

    Extra keyword arguments go to the framework factory (e.g. ``tau``
    and ``server_mixing`` for SAFELOC).  Kwargs no registered framework
    accepts raise :class:`~repro.registry.UnknownComponentKwarg` with a
    did-you-mean hint; kwargs only another framework accepts are
    filtered so sweeps can share one kwargs set.
    """
    return registry.create(
        "frameworks", name, input_dim, num_classes, seed=seed, **kwargs
    )
