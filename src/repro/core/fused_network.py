"""The fused neural network of SAFELOC §IV.A.

One model, three roles: an encoder compresses the RSS fingerprint into a
62-dimensional latent space; a de-noising decoder reconstructs the
fingerprint from the latent (for poison detection via reconstruction error
and for de-noising flagged inputs); a classification head maps the latent
to RP logits.  Layer sizes follow §V.A exactly: encoder 128 → 89 → 62,
decoder 89 → 128 (+ the implied projection back to the input width so the
reconstruction lives in fingerprint space).

Per the paper, encoder gradients are frozen and propagated to the
corresponding decoder layers — implemented as transposed weight tying
(:class:`~repro.nn.layers.TiedLinear`): each decoder layer reuses its
encoder twin's weight matrix and trains only a bias.  This is what makes
the fused model smaller than every baseline (Table I).

The same object trains a whole cohort of clients: inside
:func:`~repro.nn.batched.fold_stack` its weights carry a leading fold
axis, every method below takes ``(n_folds, batch, features)`` stacks,
and each tie reads (and accumulates into) the stacked encoder weight.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn import Linear, Module, ReLU, Sequential, TiedLinear
from repro.utils.rng import spawn_rng

ENCODER_WIDTHS = (128, 89, 62)
DECODER_WIDTHS = (89, 128)


class FusedAutoencoderClassifier(Module):
    """Encoder + tied de-noising decoder + classification head.

    Args:
        input_dim: Fingerprint width (number of APs).
        num_classes: Number of reference points.
        seed: Weight-init seed.
        encoder_widths: Encoder layer widths (§V.A default ``(128, 89, 62)``;
            the last entry is the latent dimension).
    """

    def __init__(
        self,
        input_dim: int,
        num_classes: int,
        seed: int = 0,
        encoder_widths: Tuple[int, ...] = ENCODER_WIDTHS,
    ):
        super().__init__()
        if input_dim <= 0 or num_classes <= 0:
            raise ValueError("input_dim and num_classes must be positive")
        if len(encoder_widths) < 1:
            raise ValueError("need at least one encoder layer")
        self.input_dim = int(input_dim)
        self.num_classes = int(num_classes)
        self.encoder_widths = tuple(int(w) for w in encoder_widths)
        self.latent_dim = self.encoder_widths[-1]
        self.seed = int(seed)

        rng = spawn_rng(seed, "fused-network")
        encoder_layers = []
        self._encoder_linears = []
        prev = self.input_dim
        for width in self.encoder_widths:
            linear = Linear(prev, width, rng)
            self._encoder_linears.append(linear)
            encoder_layers.extend([linear, ReLU()])
            prev = width
        self.encoder = Sequential(*encoder_layers)

        # Decoder mirrors the encoder in reverse with tied (frozen) weights:
        # latent 62 → 89 → 128 → input_dim, ReLU between hidden layers and a
        # linear output so reconstructions live in fingerprint space.
        decoder_layers = []
        for idx, linear in enumerate(reversed(self._encoder_linears)):
            decoder_layers.append(TiedLinear(linear))
            if idx < len(self._encoder_linears) - 1:
                decoder_layers.append(ReLU())
        self.decoder = Sequential(*decoder_layers)

        self.classifier = Linear(self.latent_dim, self.num_classes, rng)

    # -- forward paths ------------------------------------------------------
    def encode(self, features: np.ndarray) -> np.ndarray:
        """Latent representation of a fingerprint batch."""
        return self.encoder.forward(features)

    def decode(self, latent: np.ndarray) -> np.ndarray:
        """Reconstruction from a latent batch."""
        return self.decoder.forward(latent)

    def reconstruct(self, features: np.ndarray) -> np.ndarray:
        """Encode then decode — the autoencoder branch."""
        return self.decode(self.encode(features))

    def classify_latent(self, latent: np.ndarray) -> np.ndarray:
        """RP logits from a latent batch."""
        return self.classifier.forward(latent)

    def forward(self, features: np.ndarray) -> np.ndarray:
        """Default forward = classification logits (no detection)."""
        return self.classify_latent(self.encode(features))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backward for the plain classification path (matches
        :meth:`forward`)."""
        grad_latent = self.classifier.backward(grad_output)
        return self.encoder.backward(grad_latent)

    # -- joint training step -------------------------------------------------
    def joint_backward(
        self,
        grad_reconstruction: np.ndarray,
        grad_logits: np.ndarray,
    ) -> np.ndarray:
        """Backpropagate both branches through the shared encoder.

        Must be preceded by one forward pass through
        :meth:`encode` → (:meth:`decode`, :meth:`classify_latent`) on the
        same batch so the layer caches line up.  Returns the gradient with
        respect to the input features.
        """
        grad_latent = self.decoder.backward(grad_reconstruction)
        grad_latent = grad_latent + self.classifier.backward(grad_logits)
        return self.encoder.backward(grad_latent)
