"""Textbook Adam (Kingma & Ba, 2015), one whole-tensor expression per
moment and per step — the reference :class:`repro.nn.Adam`'s tiled,
in-place step must reproduce bit for bit."""

from __future__ import annotations

import numpy as np


class ReferenceAdam:
    """Adam with bias correction and optional L2 weight decay."""

    def __init__(
        self,
        parameters,
        lr: float = 0.001,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(p.data) for p in self.parameters]
        self.v = [np.zeros_like(p.data) for p in self.parameters]
        self.t = 0

    def step(self) -> None:
        self.t += 1
        for i, param in enumerate(self.parameters):
            if not param.trainable:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * grad
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (
                grad * grad
            )
            m_hat = self.m[i] / (1.0 - self.beta1**self.t)
            v_hat = self.v[i] / (1.0 - self.beta2**self.t)
            param.data = param.data - self.lr * m_hat / (
                np.sqrt(v_hat) + self.eps
            )
