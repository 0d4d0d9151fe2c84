"""Saliency-map based aggregation (§IV.B, eq. 6-9).

For each LM weight tensor the server computes the elementwise deviation
from the GM (eq. 6), converts it to a saliency in (0, 1] via the inverse
deviation method (eq. 7), applies the saliency to the LM tensor (eq. 8),
and folds the adjusted LMs into the GM (eq. 9).  Honest LMs (small
deviation) pass through nearly unchanged; poisoned LMs deviate strongly,
get low saliency, and lose influence.

Three documented refinements over the verbatim equations (DESIGN.md §2):

* **Relative deviation scale.**  Eq. 7's ``S = 1/(1+Δ)`` treats Δ as O(1),
  but real LM weight deviations after a local fine-tuning round are
  O(0.01) — the verbatim formula assigns every client S ≈ 1 and defends
  nothing.  The default ``mode="relative"`` measures each client's
  deviation *in units of the cross-client median deviation* for the same
  element: ``S = 1 / (1 + (Δ / (c·median))^p)``.  Honest clients hover at
  the median (S ≈ 0.94 with the defaults) while a poisoned LM's signature
  elements deviate several× the median and are crushed — the paper's
  "similar tensors are assigned high saliency values, and highly deviated
  tensors are assigned low values", made scale-free.  ``mode="absolute"``
  keeps the verbatim eq. 7 (with a ``sharpness`` gain) for ablations.
* **GM-anchored adjustment.**  Eq. 8 ``W_adj = S ∘ W_LM`` rescales toward
  zero, damping even perfectly honest weights of large magnitude; the
  default ``adjustment="blend"`` anchors at the GM:
  ``W_adj = W_GM + S ∘ (W_LM − W_GM)``.  ``adjustment="scale"`` is
  verbatim.
* **Convex server step.**  Eq. 9 ``W'_GM = W_GM + W_adj`` doubles the
  weight scale every round; the implementation uses
  ``W'_GM = (1−η)·W_GM + η·mean(W_adj)`` with ``server_mixing`` η.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.fl.aggregation import AggregationStrategy, ClientUpdate
from repro.fl.packed import PackedStates, _workspace, cohort_median_abs

ADJUSTMENTS = ("blend", "scale")
MODES = ("relative", "absolute")

_EPS = 1e-12


class SaliencyAggregation(AggregationStrategy):
    """SAFELOC's server-side aggregation (eq. 6-9).

    Args:
        server_mixing: η in ``W'_GM = (1−η)·W_GM + η·mean(W_adj)``.
        mode: ``"relative"`` (default, cohort-normalized saliency) or
            ``"absolute"`` (verbatim eq. 7).
        sharpness: Gain k for ``mode="absolute"``.
        tolerance / power: Shape parameters for ``mode="relative"``:
            ``S = 1 / (1 + (Δ / (tolerance·median))^power)``, where the
            median is the cross-client median deviation of the element.
        adjustment: ``"blend"`` (default) or ``"scale"`` (verbatim eq. 8).
    """

    name = "saliency"

    def __init__(
        self,
        server_mixing: float = 1.0,
        mode: str = "relative",
        sharpness: float = 1.0,
        tolerance: float = 1.2,
        power: float = 8.0,
        adjustment: str = "blend",
    ):
        if not 0.0 < server_mixing <= 1.0:
            raise ValueError(
                f"server_mixing must be in (0, 1], got {server_mixing}"
            )
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; choices: {MODES}")
        if adjustment not in ADJUSTMENTS:
            raise ValueError(
                f"unknown adjustment {adjustment!r}; choices: {ADJUSTMENTS}"
            )
        if sharpness <= 0 or tolerance <= 0 or power <= 0:
            raise ValueError("sharpness/tolerance/power must be positive")
        self.server_mixing = float(server_mixing)
        self.mode = mode
        self.sharpness = float(sharpness)
        self.tolerance = float(tolerance)
        self.power = float(power)
        self.adjustment = adjustment

    def _packed_saliency(self, delta: np.ndarray) -> np.ndarray:
        """Eq. 7 over the packed delta matrix, written into a new buffer.

        In relative mode the cross-client median is one
        :func:`cohort_median_abs`; when the power is an even power of two
        (the default ``p = 8``) the identity ``|Δ|^p = Δ^p`` lets the
        power term build by in-place repeated squaring of the scaled
        signed delta — no separate deviation matrix, no transcendental
        ``pow`` pass.
        """
        if self.mode == "absolute":
            term = np.abs(
                delta, out=_workspace("saliency-term", delta.shape, delta.dtype)
            )
            if self.sharpness != 1.0:
                np.multiply(term, self.sharpness, out=term)
        else:
            median = cohort_median_abs(delta)
            inv_scale = 1.0 / (self.tolerance * median + _EPS)
            power = self.power
            int_power = int(power) if power == int(power) else None
            if (
                int_power is not None
                and int_power >= 2
                and int_power % 2 == 0
                and int_power & (int_power - 1) == 0
            ):
                term = np.multiply(
                    delta,
                    inv_scale,
                    out=_workspace("saliency-term", delta.shape, delta.dtype),
                )
                # float32 compute: the squaring chain may saturate to inf,
                # which reciprocates to the correct saliency limit of 0
                with np.errstate(over="ignore"):
                    for _ in range(int_power.bit_length() - 1):
                        np.multiply(term, term, out=term)
            else:
                term = np.abs(
                    delta,
                    out=_workspace("saliency-term", delta.shape, delta.dtype),
                )
                np.multiply(term, inv_scale, out=term)
                with np.errstate(over="ignore"):
                    np.power(term, power, out=term)
        np.add(term, 1.0, out=term)
        np.reciprocal(term, out=term)
        return term

    def packed_aggregate(
        self,
        gm_vector: np.ndarray,
        packed: PackedStates,
        updates: Sequence[ClientUpdate],
    ) -> np.ndarray:
        """Eq. 6-9 as a handful of 2-D broadcasts over the packed cohort.

        Deviation (eq. 6), saliency (eq. 7 — one cross-client median plus
        one power expression in relative mode), adjustment (eq. 8) and the
        convex server step (eq. 9) each touch the ``(n, p)`` matrix once;
        no per-key loops, no list-of-dict intermediates.  The adjusted-LM
        mean folds into one ``einsum`` contraction, so the per-client
        adjusted states are never materialized.
        """
        matrix = packed.matrix
        n = packed.n_clients
        delta = np.subtract(
            matrix,
            gm_vector,
            out=_workspace("saliency-delta", matrix.shape, matrix.dtype),
        )
        saliency = self._packed_saliency(delta)
        other = matrix if self.adjustment == "scale" else delta
        if matrix.size < (1 << 16):
            # einsum's expression parsing dominates at tiny cohort sizes
            np.multiply(saliency, other, out=saliency)
            weighted = saliency.sum(axis=0)
        else:
            weighted = np.einsum("ij,ij->j", saliency, other)
        mean_adj = weighted / n
        if self.adjustment != "scale":
            mean_adj = gm_vector + mean_adj
        eta = self.server_mixing
        if eta == 1.0:
            return mean_adj
        return (1.0 - eta) * gm_vector + eta * mean_adj
