"""Tests for the fold-batched kernels (`repro.nn.batched`).

Three contracts:

* correctness — :class:`BatchedLinear`'s analytic gradients pass the
  central-difference check, fold by fold;
* isolation — fold ``k``'s output and gradients are unaffected by the
  other folds' data;
* equivalence — a batched training run reproduces ``n`` serial per-fold
  runs bit for bit at float64 (and within a pinned drift bound at
  float32), which is what FEDLS's detection rewrite stands on.
"""

import itertools

import numpy as np
import pytest

import repro.utils.rng as rng_module
from repro.data.datasets import FingerprintDataset, iterate_batches
from repro.nn import (
    Adam,
    BatchedAdam,
    BatchedLinear,
    BatchedMSELoss,
    BatchedSequential,
    BatchedSparseCrossEntropyLoss,
    Linear,
    MSELoss,
    ReLU,
    Sequential,
    SparseCrossEntropyLoss,
    compute_dtype,
    iterate_fold_batches,
)
from repro.nn.gradcheck import check_input_gradient, check_parameter_gradients
from repro.utils.rng import spawn_rng

F, B, DIN, DOUT = 3, 4, 5, 6  # folds, batch, in, out


def _rngs(n, seed=0):
    return [spawn_rng(seed, f"fold-{k}") for k in range(n)]


def _batched_net(n_folds, feat, hidden, rngs=None):
    rngs = rngs or _rngs(n_folds)
    return BatchedSequential(
        BatchedLinear(n_folds, feat, hidden, rngs),
        ReLU(),
        BatchedLinear(n_folds, hidden, feat, rngs),
    )


def _serial_net(feat, hidden, rng):
    return Sequential(Linear(feat, hidden, rng), ReLU(), Linear(hidden, feat, rng))


class TestBatchedLinear:
    def test_forward_matches_per_fold_linear(self):
        layer = BatchedLinear(F, DIN, DOUT, _rngs(F))
        x = np.random.default_rng(0).normal(size=(F, B, DIN))
        out = layer.forward(x)
        assert out.shape == (F, B, DOUT)
        for k in range(F):
            expected = x[k] @ layer.weight.data[k] + layer.bias.data[k]
            np.testing.assert_array_equal(out[k], expected)

    def test_gradcheck_parameters_and_input(self):
        layer = BatchedLinear(F, DIN, DOUT, _rngs(F))
        x = np.random.default_rng(1).normal(size=(F, B, DIN))
        target = np.random.default_rng(2).normal(size=(F, B, DOUT))
        loss = lambda out: float(((out - target) ** 2).sum())
        loss_grad = lambda out: 2.0 * (out - target)
        check_parameter_gradients(layer, x, loss, loss_grad)
        check_input_gradient(layer, x, loss, loss_grad)

    def test_single_sample_promotion(self):
        layer = BatchedLinear(F, DIN, DOUT, _rngs(F))
        x = np.random.default_rng(3).normal(size=(F, DIN))
        assert layer.forward(x).shape == (F, 1, DOUT)

    def test_from_linears_stacks_weights(self):
        singles = [Linear(DIN, DOUT, rng) for rng in _rngs(F, seed=9)]
        batched = BatchedLinear.from_linears(singles)
        x = np.random.default_rng(4).normal(size=(F, B, DIN))
        out = batched.forward(x)
        for k, single in enumerate(singles):
            np.testing.assert_array_equal(out[k], single.forward(x[k]))

    def test_from_linears_copies_exactly_without_init(self, monkeypatch):
        """Fold k holds an exact copy of source k's tensors, sharing no
        memory with it, and stacking runs no initializer: the global
        fallback stream is not drawn."""
        singles = [Linear(DIN, DOUT, rng) for rng in _rngs(F, seed=9)]
        counter = itertools.count()
        monkeypatch.setattr(rng_module, "_FALLBACK_COUNTER", counter)
        batched = BatchedLinear.from_linears(singles)
        assert next(counter) == 0
        assert (batched.n_folds, batched.in_features, batched.out_features) == (
            F, DIN, DOUT,
        )
        assert len(batched.parameters()) == 2
        for param in batched.parameters():
            assert param.grad.shape == param.data.shape
            assert not param.grad.any()
        for k, single in enumerate(singles):
            for name, param in single.named_parameters():
                stacked = getattr(batched, name).data
                np.testing.assert_array_equal(stacked[k], param.data)
                assert not np.shares_memory(stacked, param.data)

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchedLinear(0, DIN, DOUT)
        with pytest.raises(ValueError):
            BatchedLinear(F, 0, DOUT)
        with pytest.raises(ValueError):
            BatchedLinear(F, DIN, DOUT, _rngs(F - 1))
        layer = BatchedLinear(F, DIN, DOUT, _rngs(F))
        with pytest.raises(ValueError):
            layer.forward(np.zeros((F + 1, B, DIN)))
        with pytest.raises(ValueError):
            layer.forward(np.zeros((F, B, DIN + 2)))
        with pytest.raises(RuntimeError):
            BatchedLinear(F, DIN, DOUT, _rngs(F)).backward(np.zeros((F, B, DOUT)))


class TestFoldIndependence:
    def test_other_folds_data_cannot_leak(self):
        """Fold k's forward/backward ignore every other fold's input."""
        rng = np.random.default_rng(5)
        x = rng.normal(size=(F, B, DIN))
        perturbed = x.copy()
        perturbed[1:] += rng.normal(size=(F - 1, B, DIN)) * 10.0

        results = []
        for batch in (x, perturbed):
            net = _batched_net(F, DIN, 7)
            loss = BatchedMSELoss()
            loss(net.forward(batch), np.zeros((F, B, DIN)))
            net.backward(loss.backward())
            results.append(
                (
                    net.forward(batch)[0].copy(),
                    [p.grad[0].copy() for p in net.parameters()],
                )
            )
        np.testing.assert_array_equal(results[0][0], results[1][0])
        for g_a, g_b in zip(results[0][1], results[1][1]):
            np.testing.assert_array_equal(g_a, g_b)


class TestBatchedTrainingEquivalence:
    def _train_batched(self, x, epochs=25):
        net = _batched_net(F, DIN, 7)
        loss = BatchedMSELoss()
        optimizer = BatchedAdam(net.trainable_parameters(), lr=0.01)
        for _ in range(epochs):
            net.zero_grad()
            loss(net.forward(x), x)
            net.backward(loss.backward())
            optimizer.step()
        return net

    def _train_serial(self, x, epochs=25):
        nets = [_serial_net(DIN, 7, rng) for rng in _rngs(F)]
        for k, net in enumerate(nets):
            loss = MSELoss()
            optimizer = Adam(net.trainable_parameters(), lr=0.01)
            for _ in range(epochs):
                net.zero_grad()
                loss(net.forward(x[k]), x[k])
                net.backward(loss.backward())
                optimizer.step()
        return nets

    def test_bitwise_match_at_float64(self):
        """Same fold rngs + same data ⇒ identical trained weights."""
        x = np.random.default_rng(6).normal(size=(F, B, DIN))
        batched = self._train_batched(x)
        serial = self._train_serial(x)
        for k, net in enumerate(serial):
            fold = batched.unstack_fold(k)
            for (_, p_b), (_, p_s) in zip(
                fold.named_parameters(), net.named_parameters()
            ):
                np.testing.assert_array_equal(p_b.data, p_s.data)

    def test_float32_drift_pinned(self):
        """Half-width training stays within a small absolute drift."""
        x = np.random.default_rng(7).normal(size=(F, B, DIN))
        with compute_dtype(np.float32):
            batched = self._train_batched(x)
            serial = self._train_serial(x)
        worst = 0.0
        for k, net in enumerate(serial):
            fold = batched.unstack_fold(k)
            for (_, p_b), (_, p_s) in zip(
                fold.named_parameters(), net.named_parameters()
            ):
                worst = max(worst, float(np.abs(p_b.data - p_s.data).max()))
        assert worst <= 1e-5


class TestBatchedSequential:
    def test_rejects_inconsistent_folds(self):
        with pytest.raises(ValueError):
            BatchedSequential(
                BatchedLinear(2, DIN, DOUT, _rngs(2)),
                BatchedLinear(3, DOUT, DIN, _rngs(3)),
            )

    def test_unstack_fold_bounds(self):
        net = _batched_net(F, DIN, 7)
        with pytest.raises(IndexError):
            net.unstack_fold(F)
        with pytest.raises(IndexError):
            net.unstack_fold(-1)

    def test_unstack_fold_copies(self):
        net = _batched_net(F, DIN, 7)
        fold = net.unstack_fold(1)
        fold.layers[0].weight.data += 1.0
        assert not np.allclose(
            fold.layers[0].weight.data, net.layers[0].weight.data[1]
        )


class TestBatchedMSELoss:
    def test_gradient_matches_per_fold_mse(self):
        rng = np.random.default_rng(8)
        pred = rng.normal(size=(F, B, DIN))
        target = rng.normal(size=(F, B, DIN))
        batched = BatchedMSELoss()
        batched(pred, target)
        grad = batched.backward()
        for k in range(F):
            serial = MSELoss()
            serial(pred[k], target[k])
            np.testing.assert_array_equal(grad[k], serial.backward())
        np.testing.assert_allclose(
            batched.fold_losses,
            [float(((pred[k] - target[k]) ** 2).mean()) for k in range(F)],
        )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BatchedMSELoss()(np.zeros((F, B, DIN)), np.zeros((F, B, DIN + 1)))
        with pytest.raises(ValueError):
            BatchedMSELoss()(np.zeros((B, DIN)), np.zeros((B, DIN)))
        with pytest.raises(RuntimeError):
            BatchedMSELoss().backward()


class TestFromModules:
    """Stacking live per-fold networks and scattering weights back."""

    def _singles(self, seed=11):
        return [
            _serial_net(DIN, 7, rng) for rng in _rngs(F, seed=seed)
        ]

    def test_forward_matches_each_source_network(self):
        singles = self._singles()
        stacked = BatchedSequential.from_modules(singles)
        x = np.random.default_rng(0).normal(size=(F, B, DIN))
        out = stacked.forward(x)
        for k, single in enumerate(singles):
            np.testing.assert_array_equal(out[k], single.forward(x[k]))

    def test_weights_are_copies(self):
        singles = self._singles()
        stacked = BatchedSequential.from_modules(singles)
        stacked.layers[0].weight.data += 1.0
        x = np.random.default_rng(1).normal(size=(F, B, DIN))
        assert not np.allclose(
            stacked.forward(x)[0], singles[0].forward(x[0])
        )

    def test_scatter_fold_round_trips(self):
        singles = self._singles()
        stacked = BatchedSequential.from_modules(singles)
        stacked.layers[0].weight.data *= 1.5
        stacked.layers[0].bias.data += 0.25
        targets = self._singles(seed=99)  # different weights, same shape
        for k, target in enumerate(targets):
            stacked.scatter_fold(k, target)
            np.testing.assert_array_equal(
                target.layers[0].weight.data, stacked.layers[0].weight.data[k]
            )
            np.testing.assert_array_equal(
                target.layers[0].bias.data, stacked.layers[0].bias.data[k]
            )

    def test_validation(self):
        singles = self._singles()
        with pytest.raises(ValueError):
            BatchedSequential.from_modules([])
        with pytest.raises(TypeError):
            BatchedSequential.from_modules([singles[0], Linear(DIN, 7)])
        short = Sequential(Linear(DIN, 7, _rngs(1)[0]))
        with pytest.raises(ValueError):
            BatchedSequential.from_modules([singles[0], short])
        swapped = Sequential(
            Linear(DIN, 7, _rngs(1)[0]), Linear(7, DIN, _rngs(1)[0]), ReLU()
        )
        with pytest.raises(TypeError):
            BatchedSequential.from_modules([singles[0], swapped])
        stacked = BatchedSequential.from_modules(singles)
        with pytest.raises(IndexError):
            stacked.scatter_fold(F, singles[0])
        with pytest.raises(ValueError):
            stacked.scatter_fold(0, short)


class TestBatchedTiedLinear:
    """Fold-batched TiedLinear: transposed views of a stacked source."""

    HID = 7

    def _per_fold_pairs(self, seed=13):
        from repro.nn import TiedLinear

        pairs = []
        for rng in _rngs(F, seed=seed):
            enc = Linear(DIN, self.HID, rng)
            pairs.append((enc, TiedLinear(enc)))
        return pairs

    def _stacked_pair(self, pairs):
        from repro.nn.batched import BatchedTiedLinear

        source = BatchedLinear.from_linears([enc for enc, _ in pairs])
        tied = BatchedTiedLinear.from_tied([dec for _, dec in pairs], source)
        return source, tied

    def test_forward_matches_per_fold_tied(self):
        pairs = self._per_fold_pairs()
        source, tied = self._stacked_pair(pairs)
        x = np.random.default_rng(0).normal(size=(F, B, self.HID))
        out = tied.forward(x)
        assert out.shape == (F, B, DIN)
        for k, (_, dec) in enumerate(pairs):
            np.testing.assert_array_equal(out[k], dec.forward(x[k]))

    def test_gradients_match_per_fold_tied(self):
        """Bias grad and the tied weight grad flowing into the source
        must equal each serial fold's — the SAFELOC decoder contract."""
        pairs = self._per_fold_pairs()
        source, tied = self._stacked_pair(pairs)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(F, B, self.HID))
        grad_out = rng.normal(size=(F, B, DIN))
        tied.forward(x)
        grad_in = tied.backward(grad_out)
        for k, (enc, dec) in enumerate(pairs):
            dec.forward(x[k])
            expected_in = dec.backward(grad_out[k])
            np.testing.assert_array_equal(grad_in[k], expected_in)
            np.testing.assert_array_equal(
                source.weight.grad[k], enc.weight.grad
            )
            np.testing.assert_array_equal(tied.bias.grad[k], dec.bias.grad)

    def test_frozen_weight_view_trains_only_bias(self):
        from repro.nn import TiedLinear
        from repro.nn.batched import BatchedTiedLinear

        encs = [Linear(DIN, self.HID, rng) for rng in _rngs(F, seed=4)]
        ties = [TiedLinear(enc, train_weight=False) for enc in encs]
        source = BatchedLinear.from_linears(encs)
        tied = BatchedTiedLinear.from_tied(ties, source)
        rng = np.random.default_rng(2)
        tied.forward(rng.normal(size=(F, B, self.HID)))
        tied.backward(rng.normal(size=(F, B, DIN)))
        np.testing.assert_array_equal(
            source.weight.grad, np.zeros_like(source.weight.grad)
        )
        assert np.abs(tied.bias.grad).max() > 0

    def test_fold_independence(self):
        """Fold 0's gradients ignore every other fold's data."""
        results = []
        rng = np.random.default_rng(5)
        x = rng.normal(size=(F, B, self.HID))
        noisy = x.copy()
        noisy[1:] += 10.0
        grad_out = rng.normal(size=(F, B, DIN))
        for batch in (x, noisy):
            pairs = self._per_fold_pairs()
            source, tied = self._stacked_pair(pairs)
            tied.forward(batch)
            tied.backward(grad_out)
            results.append(
                (source.weight.grad[0].copy(), tied.bias.grad[0].copy())
            )
        np.testing.assert_array_equal(results[0][0], results[1][0])
        np.testing.assert_array_equal(results[0][1], results[1][1])

    def test_validation(self):
        from repro.nn import TiedLinear
        from repro.nn.batched import BatchedTiedLinear

        pairs = self._per_fold_pairs()
        source, _ = self._stacked_pair(pairs)
        with pytest.raises(TypeError):
            BatchedTiedLinear(Linear(DIN, self.HID))
        with pytest.raises(ValueError):
            BatchedTiedLinear.from_tied([], source)
        with pytest.raises(ValueError):  # fold count mismatch
            BatchedTiedLinear.from_tied(
                [dec for _, dec in pairs[:-1]], source
            )
        other = Linear(DIN + 1, self.HID, _rngs(1)[0])
        with pytest.raises(ValueError):  # shape does not mirror source
            BatchedTiedLinear.from_tied([TiedLinear(other)] * F, source)


class TestCompositeStacker:
    """Cross-stage stacking with preserved weight tying (SAFELOC shape)."""

    HID = 7

    def _composites(self, seed=21):
        """Per-fold (encoder, decoder) stages: decoder ties encoder."""
        from repro.nn import TiedLinear

        folds = []
        for rng in _rngs(F, seed=seed):
            enc_lin = Linear(DIN, self.HID, rng)
            encoder = Sequential(enc_lin, ReLU())
            decoder = Sequential(TiedLinear(enc_lin))
            folds.append((encoder, decoder))
        return folds

    def test_stacked_pipeline_matches_serial(self):
        from repro.nn.batched import CompositeStacker

        folds = self._composites()
        stacker = CompositeStacker()
        encoder = stacker.stack([enc for enc, _ in folds])
        decoder = stacker.stack([dec for _, dec in folds])
        x = np.random.default_rng(0).normal(size=(F, B, DIN))
        latent = encoder.forward(x)
        recon = decoder.forward(latent)
        for k, (enc, dec) in enumerate(folds):
            np.testing.assert_array_equal(
                recon[k], dec.forward(enc.forward(x[k]))
            )

    def test_tied_gradient_flows_into_stacked_encoder(self):
        from repro.nn.batched import CompositeStacker

        folds = self._composites()
        stacker = CompositeStacker()
        encoder = stacker.stack([enc for enc, _ in folds])
        decoder = stacker.stack([dec for _, dec in folds])
        rng = np.random.default_rng(1)
        x = rng.normal(size=(F, B, DIN))
        grad_out = rng.normal(size=(F, B, DIN))
        latent = encoder.forward(x)
        decoder.forward(latent)
        encoder.backward(decoder.backward(grad_out))
        for k, (enc, dec) in enumerate(folds):
            enc.zero_grad()
            dec.zero_grad()
            dec.forward(enc.forward(x[k]))
            enc.backward(dec.backward(grad_out[k]))
            np.testing.assert_array_equal(
                encoder.layers[0].weight.grad[k], enc.layers[0].weight.grad
            )

    def test_scatter_fold_copies_tied_bias_only(self):
        from repro.nn.batched import CompositeStacker

        folds = self._composites()
        stacker = CompositeStacker()
        stacker.stack([enc for enc, _ in folds])
        decoder = stacker.stack([dec for _, dec in folds])
        decoder.layers[0].bias.data += 0.5
        target_folds = self._composites(seed=99)
        for k, (_, dec) in enumerate(target_folds):
            decoder.scatter_fold(k, dec)
            np.testing.assert_array_equal(
                dec.layers[0].bias.data, decoder.layers[0].bias.data[k]
            )

    def test_tie_to_unstacked_source_rejected(self):
        from repro.nn.batched import CompositeStacker

        folds = self._composites()
        with pytest.raises(ValueError, match="stack the source stage"):
            CompositeStacker().stack([dec for _, dec in folds])

    def test_misordered_folds_rejected(self):
        """Decoders presented in a different fold order than their
        encoders must be caught — a silent mis-tie would train fold k's
        decoder against fold j's weights."""
        from repro.nn.batched import CompositeStacker

        folds = self._composites()
        stacker = CompositeStacker()
        stacker.stack([enc for enc, _ in folds])
        shuffled = [folds[1][1], folds[0][1], folds[2][1]]
        with pytest.raises(ValueError, match="same order"):
            stacker.stack(shuffled)

    def test_parametered_non_linear_layer_rejected(self):
        from repro.nn.batched import CompositeStacker
        from repro.nn.layers import Parameter

        class Odd(ReLU):
            def parameters(self):
                return [Parameter(np.zeros(2), "w")]

        stages = [Sequential(Odd()) for _ in range(F)]
        with pytest.raises(TypeError):
            CompositeStacker().stack(stages)


class TestBatchedSparseCrossEntropyLoss:
    C = 5

    def _stacks(self, seed=0):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(F, B, self.C))
        labels = rng.integers(0, self.C, size=(F, B))
        return logits, labels

    def test_loss_and_gradient_match_serial_per_fold(self):
        logits, labels = self._stacks()
        batched = BatchedSparseCrossEntropyLoss()
        total = batched(logits, labels)
        grad = batched.backward()
        fold_losses = []
        for k in range(F):
            serial = SparseCrossEntropyLoss()
            fold_losses.append(serial(logits[k], labels[k]))
            np.testing.assert_array_equal(grad[k], serial.backward())
        np.testing.assert_array_equal(batched.fold_losses, fold_losses)
        assert total == float(np.mean(batched.fold_losses))

    def test_validation(self):
        logits, labels = self._stacks()
        loss = BatchedSparseCrossEntropyLoss()
        with pytest.raises(ValueError):
            loss(logits[0], labels[0])  # missing fold axis
        with pytest.raises(ValueError):
            loss(logits, labels[:, :-1])  # shape mismatch
        with pytest.raises(ValueError):
            loss(logits, labels + self.C)  # labels out of range
        with pytest.raises(RuntimeError):
            BatchedSparseCrossEntropyLoss().backward()


class TestIterateFoldBatches:
    def test_each_fold_matches_serial_iterate_batches(self):
        """Fold k's batch sequence == iterate_batches on fold k's data."""
        rng = np.random.default_rng(21)
        n, feat, batch_size = 23, DIN, 7  # final partial batch included
        features = rng.normal(size=(F, n, feat))
        labels = rng.integers(0, 4, size=(F, n))
        batched = list(
            iterate_fold_batches(
                features, labels, batch_size, _rngs(F, seed=5)
            )
        )
        for k in range(F):
            dataset = FingerprintDataset(features[k], labels[k])
            serial = list(
                iterate_batches(
                    dataset, batch_size, _rngs(F, seed=5)[k]
                )
            )
            assert len(batched) == len(serial)
            for (bf, bl), (sf, sl) in zip(batched, serial):
                np.testing.assert_array_equal(bf[k], sf)
                np.testing.assert_array_equal(bl[k], sl)

    def test_with_index_yields_permutation_slices(self):
        """with_index=True also hands back the per-fold sample indices of
        each batch — what SAFELOC uses to slice its flagged-row masks —
        and the indexed gather reproduces the batch tensors exactly."""
        rng = np.random.default_rng(22)
        n, batch_size = 23, 7
        features = rng.normal(size=(F, n, DIN))
        labels = rng.integers(0, 4, size=(F, n))
        plain = list(
            iterate_fold_batches(features, labels, batch_size, _rngs(F, seed=6))
        )
        indexed = list(
            iterate_fold_batches(
                features, labels, batch_size, _rngs(F, seed=6),
                with_index=True,
            )
        )
        assert len(plain) == len(indexed)
        seen = [[] for _ in range(F)]
        for (pf, pl), (bf, bl, idx) in zip(plain, indexed):
            np.testing.assert_array_equal(pf, bf)
            np.testing.assert_array_equal(pl, bl)
            for k in range(F):
                np.testing.assert_array_equal(features[k][idx[k]], bf[k])
                np.testing.assert_array_equal(labels[k][idx[k]], bl[k])
                seen[k].extend(idx[k].tolist())
        for fold_seen in seen:  # one full permutation per fold per epoch
            assert sorted(fold_seen) == list(range(n))

    def test_validation(self):
        features = np.zeros((F, 10, DIN))
        labels = np.zeros((F, 10), dtype=int)
        with pytest.raises(ValueError):
            next(iterate_fold_batches(features, labels, 0, _rngs(F)))
        with pytest.raises(ValueError):
            next(iterate_fold_batches(features[0], labels[0], 4, _rngs(F)))
        with pytest.raises(ValueError):
            next(iterate_fold_batches(features, labels, 4, _rngs(F - 1)))


class TestBatchedAdam:
    def test_one_pass_per_stacked_tensor(self):
        """The fold-aware contract: 4·n serial parameter updates collapse
        to 4 stacked arrays, each stepped by Adam's tiled in-place pass
        (cache-sized slices, one sweep over the stack)."""
        net = _batched_net(F, DIN, 7)
        optimizer = BatchedAdam(net.trainable_parameters(), lr=0.01)
        assert len(optimizer.parameters) == 4  # 2 layers × (weight, bias)
        assert all(p.data.shape[0] == F for p in optimizer.parameters)
