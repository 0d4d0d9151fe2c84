"""Attack registration and name-based construction.

Since the unified-registry redesign this module is a thin shim: the
attacks live in :data:`repro.registry.registry` under the ``attacks``
namespace (metadata, strict kwarg validation), and
:func:`create_attack` delegates to :meth:`Registry.create`.

Unknown kwargs now **raise** with a did-you-mean suggestion unless they
are accepted by some other registered attack (drivers pass one uniform
kwargs set across the whole attack sweep, e.g. ``num_classes`` that only
label flipping consumes).
"""

from __future__ import annotations

from repro.attacks.base import Attack
from repro.attacks.clb import CleanLabelBackdoor
from repro.attacks.fgsm import FGSM
from repro.attacks.label_flip import LabelFlip
from repro.attacks.mim import MIM
from repro.attacks.pgd import PGD
from repro.attacks.variants import GaussianNoise, TargetedLabelFlip
from repro.registry import registry

for _name, _factory, _paper, _doc in (
    ("clb", CleanLabelBackdoor, True,
     "Clean-Label Backdoor: masked gradient perturbation, labels intact"),
    ("fgsm", FGSM, True,
     "FGSM: single-step sign-of-gradient fingerprint perturbation"),
    ("pgd", PGD, True,
     "PGD: iterative projected gradient fingerprint perturbation"),
    ("mim", MIM, True,
     "MIM: momentum-iterative gradient fingerprint perturbation"),
    ("label_flip", LabelFlip, True,
     "Label flipping: corrupts RP labels, fingerprints intact"),
    # extensions beyond the paper's five (ablations / controls)
    ("targeted_label_flip", TargetedLabelFlip, False,
     "Targeted label flipping: all poisoned labels to one RP"),
    ("gaussian_noise", GaussianNoise, False,
     "Gaussian noise: gradient-free perturbation control"),
):
    registry.add("attacks", _name, _factory, paper=_paper, doc=_doc)

#: the paper's §III.A attack set (fixed by the paper, not a registry query)
PAPER_ATTACKS = ("clb", "fgsm", "pgd", "mim", "label_flip")
ATTACK_NAMES = (*PAPER_ATTACKS, "targeted_label_flip", "gaussian_noise")
BACKDOOR_ATTACKS = ("clb", "fgsm", "pgd", "mim", "gaussian_noise")


def create_attack(name: str, epsilon: float, **kwargs) -> Attack:
    """Instantiate a registered attack by name.

    Extra keyword arguments are forwarded to the attack constructor
    (e.g. ``num_steps`` for PGD/MIM, ``num_classes`` for label
    flipping); arguments only *other* attacks accept are dropped so
    sweep drivers can pass one uniform kwargs set, and arguments **no**
    attack accepts raise :class:`~repro.registry.UnknownComponentKwarg`
    with a did-you-mean hint.
    """
    return registry.create("attacks", name, epsilon, **kwargs)


def is_backdoor(name: str) -> bool:
    """True for the gradient-based fingerprint-perturbation attacks."""
    registry.get("attacks", name)  # raises UnknownComponent with hint
    return name in BACKDOOR_ATTACKS
