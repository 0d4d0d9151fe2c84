"""Tests for fold stacks (`repro.nn.batched`) and the rank-generic layers.

Four contracts:

* correctness — a stacked :class:`Linear`'s analytic gradients pass the
  central-difference check, fold by fold;
* equivalence — a stacked ``Linear``/``TiedLinear`` call reproduces the
  per-fold 2-D calls bit for bit, and a stacked training run reproduces
  ``n`` serial per-fold runs bit for bit at float64 (within a pinned
  drift bound at float32), which is what every fold program stands on;
* isolation — fold ``k``'s output and gradients are unaffected by the
  other folds' data;
* bookkeeping — :func:`fold_stack` hands every module its own fold back,
  also when the block raises, touches nothing when the structures
  differ, draws no rng, and keeps ties on the stacked encoder.
"""

import itertools

import numpy as np
import pytest

import repro.utils.rng as rng_module
from repro.data.datasets import FingerprintDataset, iterate_batches
from reference.gradcheck import check_input_gradient, check_parameter_gradients
from repro.nn import (
    Adam,
    BatchedAdam,
    BatchedMSELoss,
    BatchedSparseCrossEntropyLoss,
    Linear,
    MSELoss,
    ReLU,
    Sequential,
    SparseCrossEntropyLoss,
    TiedLinear,
    compute_dtype,
    fold_stack,
    iterate_fold_batches,
)
from repro.utils.rng import spawn_rng

F, B, DIN, DOUT = 3, 4, 5, 6  # folds, batch, in, out
HID = 7
#: SAFELOC's encoder layers (building1's 203 APs → 128 → 89 → 62)
SAFELOC_SHAPES = [(203, 128), (128, 89), (89, 62)]


def _rngs(n, seed=0):
    return [spawn_rng(seed, f"fold-{k}") for k in range(n)]


def _serial_net(feat, hidden, rng):
    return Sequential(Linear(feat, hidden, rng), ReLU(), Linear(hidden, feat, rng))


def _serial_nets(n=F, seed=0, feat=DIN, hidden=HID):
    return [_serial_net(feat, hidden, rng) for rng in _rngs(n, seed)]


def _tied_pairs(seed=13, train_weight=True, n=F, din=DIN, dout=HID):
    """Per-fold ``Sequential(encoder, tied decoder)`` pairs."""
    pairs = []
    for rng in _rngs(n, seed):
        encoder = Linear(din, dout, rng)
        pairs.append(Sequential(encoder, TiedLinear(encoder, train_weight)))
    return pairs


def _state(module):
    return {name: p.data.copy() for name, p in module.named_parameters()}


class TestStackedLinear:
    def test_forward_matches_per_fold_linear(self):
        singles = [Linear(DIN, DOUT, rng) for rng in _rngs(F)]
        x = np.random.default_rng(0).normal(size=(F, B, DIN))
        with fold_stack(singles) as layer:
            out = layer.forward(x)
            assert out.shape == (F, B, DOUT)
            for k in range(F):
                expected = x[k] @ layer.weight.data[k] + layer.bias.data[k]
                np.testing.assert_array_equal(out[k], expected)

    def test_gradcheck_parameters_and_input(self):
        singles = [Linear(DIN, DOUT, rng) for rng in _rngs(F)]
        x = np.random.default_rng(1).normal(size=(F, B, DIN))
        target = np.random.default_rng(2).normal(size=(F, B, DOUT))
        loss = lambda out: float(((out - target) ** 2).sum())
        loss_grad = lambda out: 2.0 * (out - target)
        with fold_stack(singles) as layer:
            check_parameter_gradients(layer, x, loss, loss_grad)
            check_input_gradient(layer, x, loss, loss_grad)

    def test_rank_follows_the_weight(self):
        """A 2-D weight promotes one sample to a 1-row batch; a stacked
        weight takes only ``(n_folds, batch, in)`` stacks."""
        singles = [Linear(DIN, DOUT, rng) for rng in _rngs(F)]
        sample = np.random.default_rng(3).normal(size=DIN)
        assert singles[1].forward(sample).shape == (1, DOUT)
        with fold_stack(singles) as layer:
            with pytest.raises(ValueError, match="3-D weight takes 3-D"):
                layer.forward(np.zeros((F, DIN)))
            with pytest.raises(ValueError, match="3-D weight takes 3-D"):
                layer.forward(sample)

    def test_validation(self):
        with pytest.raises(ValueError):
            Linear(0, DOUT)
        with pytest.raises(ValueError):
            Linear(DIN, 0)
        singles = [Linear(DIN, DOUT, rng) for rng in _rngs(F)]
        with fold_stack(singles) as layer:
            with pytest.raises(RuntimeError):
                layer.backward(np.zeros((F, B, DOUT)))
            with pytest.raises(ValueError, match="folds"):
                layer.forward(np.zeros((F + 1, B, DIN)))
            with pytest.raises(ValueError, match="features"):
                layer.forward(np.zeros((F, B, DIN + 2)))


class TestStackedMatchesPerFold:
    """A stacked call is the per-fold 2-D calls, bit for bit."""

    @pytest.mark.parametrize("batch", [1, 7, 300])
    @pytest.mark.parametrize("shape", SAFELOC_SHAPES, ids=str)
    def test_linear(self, batch, shape):
        din, dout = shape
        singles = [Linear(din, dout, rng) for rng in _rngs(F, seed=31)]
        rng = np.random.default_rng(batch)
        for layer in singles:  # non-zero biases exercise the bias add
            layer.bias.data = rng.normal(size=dout)
        x = rng.normal(size=(F, batch, din))
        grad_out = rng.normal(size=(F, batch, dout))
        expected = []
        for k, layer in enumerate(singles):
            out = layer.forward(x[k])
            dx = layer.backward(grad_out[k])
            expected.append(
                (out, dx, layer.weight.grad.copy(), layer.bias.grad.copy())
            )
        with fold_stack(singles) as stacked:
            out = stacked.forward(x)
            dx = stacked.backward(grad_out)
            for k, (out_k, dx_k, dw_k, db_k) in enumerate(expected):
                np.testing.assert_array_equal(out[k], out_k)
                np.testing.assert_array_equal(dx[k], dx_k)
                np.testing.assert_array_equal(stacked.weight.grad[k], dw_k)
                np.testing.assert_array_equal(stacked.bias.grad[k], db_k)

    @pytest.mark.parametrize("batch", [1, 7, 300])
    @pytest.mark.parametrize("shape", SAFELOC_SHAPES, ids=str)
    def test_tied_linear(self, batch, shape):
        """The decoder direction: input is the encoder's output width,
        the weight gradient lands on the (stacked) encoder weight."""
        din, dout = shape
        pairs = _tied_pairs(seed=32, n=F, din=din, dout=dout)
        rng = np.random.default_rng(batch)
        for pair in pairs:
            pair[1].bias.data = rng.normal(size=din)
        x = rng.normal(size=(F, batch, dout))
        grad_out = rng.normal(size=(F, batch, din))
        expected = []
        for k, (encoder, tied) in enumerate(pairs):
            out = tied.forward(x[k])
            dx = tied.backward(grad_out[k])
            expected.append(
                (out, dx, encoder.weight.grad.copy(), tied.bias.grad.copy())
            )
        with fold_stack(pairs) as stacked:
            encoder, tied = stacked
            out = tied.forward(x)
            dx = tied.backward(grad_out)
            for k, (out_k, dx_k, dw_k, db_k) in enumerate(expected):
                np.testing.assert_array_equal(out[k], out_k)
                np.testing.assert_array_equal(dx[k], dx_k)
                np.testing.assert_array_equal(encoder.weight.grad[k], dw_k)
                np.testing.assert_array_equal(tied.bias.grad[k], db_k)


class TestFoldIndependence:
    def test_other_folds_data_cannot_leak(self):
        """Fold k's forward/backward ignore every other fold's input."""
        rng = np.random.default_rng(5)
        x = rng.normal(size=(F, B, DIN))
        perturbed = x.copy()
        perturbed[1:] += rng.normal(size=(F - 1, B, DIN)) * 10.0

        results = []
        for batch in (x, perturbed):
            with fold_stack(_serial_nets()) as net:
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
        nets = _serial_nets()
        with fold_stack(nets) as net:
            loss = BatchedMSELoss()
            optimizer = BatchedAdam(net.trainable_parameters(), lr=0.01)
            for _ in range(epochs):
                net.zero_grad()
                loss(net.forward(x), x)
                net.backward(loss.backward())
                optimizer.step()
        return nets

    def _train_serial(self, x, epochs=25):
        nets = _serial_nets()
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
        for fold, net in zip(batched, serial):
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
        for fold, net in zip(batched, serial):
            for (_, p_b), (_, p_s) in zip(
                fold.named_parameters(), net.named_parameters()
            ):
                worst = max(worst, float(np.abs(p_b.data - p_s.data).max()))
        assert worst <= 1e-5


class TestFoldStack:
    """Stacking live networks and handing every fold back."""

    def test_forward_matches_each_source_network(self):
        singles = _serial_nets(seed=11)
        x = np.random.default_rng(0).normal(size=(F, B, DIN))
        expected = [single.forward(x[k]) for k, single in enumerate(singles)]
        with fold_stack(singles) as stacked:
            assert stacked is singles[0]
            out = stacked.forward(x)
        for k, out_k in enumerate(expected):
            np.testing.assert_array_equal(out[k], out_k)

    def test_copies_exactly_without_init(self, monkeypatch):
        """Fold k holds an exact copy of module k's tensors, sharing no
        memory with it, with a zero gradient, and stacking runs no
        initializer: the global fallback stream is not drawn."""
        singles = _serial_nets(seed=9)
        states = [_state(single) for single in singles]
        counter = itertools.count()
        monkeypatch.setattr(rng_module, "_FALLBACK_COUNTER", counter)
        with fold_stack(singles) as stacked:
            assert next(counter) == 0
            assert len(stacked.parameters()) == 4
            for name, param in stacked.named_parameters():
                assert param.data.shape[0] == F
                assert param.grad.shape == param.data.shape
                assert not param.grad.any()
                for k, single in enumerate(singles):
                    np.testing.assert_array_equal(
                        param.data[k], states[k][name]
                    )
                    if k:
                        own = dict(single.named_parameters())[name]
                        assert not np.shares_memory(param.data, own.data)

    def test_exit_hands_each_fold_back(self):
        singles = _serial_nets(seed=11)
        with fold_stack(singles) as stacked:
            stacked.layers[0].weight.data *= 1.5
            stacked.layers[0].bias.data += 0.25
            trained = _state(stacked)
        for k, single in enumerate(singles):
            for name, param in single.named_parameters():
                np.testing.assert_array_equal(param.data, trained[name][k])
                assert param.data.shape == trained[name].shape[1:]
                assert param.data.flags.owndata  # a copy, not a view
                assert param.grad.shape == param.data.shape
                assert not param.grad.any()
            assert not any(
                np.shares_memory(param.data, other.data)
                for other_single in singles
                if other_single is not single
                for other in other_single.parameters()
            )

    def test_exit_restores_every_fold_when_the_block_raises(self):
        singles = _serial_nets(seed=12)
        states = [_state(single) for single in singles]
        x = np.random.default_rng(2).normal(size=(F, B, DIN))
        with pytest.raises(RuntimeError, match="mid-step"):
            with fold_stack(singles) as stacked:
                loss = BatchedMSELoss()
                loss(stacked.forward(x), x)
                stacked.backward(loss.backward())
                stacked.layers[2].bias.data += 1.0
                raise RuntimeError("mid-step")
        for k, single in enumerate(singles):
            for name, param in single.named_parameters():
                expected = states[k][name] + (1.0 if name == "2.bias" else 0)
                np.testing.assert_array_equal(param.data, expected)
                assert param.grad.shape == param.data.shape
                assert not param.grad.any()

    def test_one_module_stacked_n_times_keeps_the_last_fold(self):
        single = _serial_nets(n=1)[0]
        with fold_stack([single] * F) as stacked:
            stacked.layers[0].bias.data[:] = np.arange(F)[:, None]
        np.testing.assert_array_equal(
            single.layers[0].bias.data, np.full(HID, F - 1.0)
        )

    @pytest.mark.parametrize(
        "other",
        [
            lambda rng: Sequential(Linear(DIN, HID, rng)),  # fewer layers
            lambda rng: Sequential(  # same layers, other order
                Linear(DIN, HID, rng), Linear(HID, DIN, rng), ReLU()
            ),
            lambda rng: _serial_net(DIN, HID + 1, rng),  # other widths
        ],
        ids=["short", "reordered", "wider"],
    )
    def test_structure_mismatch_leaves_first_module_untouched(self, other):
        first = _serial_nets(n=1, seed=3)[0]
        before = [(p, p.data, p.grad) for p in first.parameters()]
        with pytest.raises(ValueError, match="does not match module 0"):
            with fold_stack([first, other(_rngs(1, seed=4)[0])]):
                pass  # pragma: no cover - the stack is never entered
        for param, data, grad in before:
            assert param.data is data
            assert param.grad is grad

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            with fold_stack([]):
                pass  # pragma: no cover - the stack is never entered


class TestStackedTiedLinear:
    """Ties inside a fold stack: the decoder reads the stacked encoder."""

    def test_frozen_weight_view_trains_only_bias(self):
        pairs = _tied_pairs(seed=4, train_weight=False)
        rng = np.random.default_rng(2)
        with fold_stack(pairs) as stacked:
            encoder, tied = stacked
            tied.forward(rng.normal(size=(F, B, HID)))
            tied.backward(rng.normal(size=(F, B, DIN)))
            assert not encoder.weight.grad.any()
            assert np.abs(tied.bias.grad).max() > 0

    def test_fold_independence(self):
        """Fold 0's gradients ignore every other fold's data."""
        results = []
        rng = np.random.default_rng(5)
        x = rng.normal(size=(F, B, HID))
        noisy = x.copy()
        noisy[1:] += 10.0
        grad_out = rng.normal(size=(F, B, DIN))
        for batch in (x, noisy):
            with fold_stack(_tied_pairs()) as stacked:
                encoder, tied = stacked
                tied.forward(batch)
                tied.backward(grad_out)
                results.append(
                    (encoder.weight.grad[0].copy(), tied.bias.grad[0].copy())
                )
        np.testing.assert_array_equal(results[0][0], results[1][0])
        np.testing.assert_array_equal(results[0][1], results[1][1])

    def test_validation(self):
        with pytest.raises(TypeError):
            TiedLinear(ReLU())
        with fold_stack(_tied_pairs()) as stacked:
            tied = stacked[1]
            with pytest.raises(ValueError, match="folds"):
                tied.forward(np.zeros((F - 1, B, HID)))
            with pytest.raises(ValueError, match="features"):
                tied.forward(np.zeros((F, B, HID + 1)))
            with pytest.raises(ValueError, match="3-D weight takes 3-D"):
                tied.forward(np.zeros((B, HID)))


class TestStackedComposite:
    """Encoder + tied-decoder stages stacked as one network (SAFELOC's
    shape): the tie holds by construction."""

    def _composites(self, seed=21):
        """Per-fold ``Sequential(encoder, decoder)``; decoder ties encoder."""
        folds = []
        for rng in _rngs(F, seed=seed):
            linear = Linear(DIN, HID, rng)
            folds.append(
                Sequential(
                    Sequential(linear, ReLU()), Sequential(TiedLinear(linear))
                )
            )
        return folds

    def test_stacked_pipeline_matches_serial(self):
        folds = self._composites()
        x = np.random.default_rng(0).normal(size=(F, B, DIN))
        expected = [fold.forward(x[k]) for k, fold in enumerate(folds)]
        with fold_stack(folds) as stacked:
            recon = stacked.forward(x)
        for k, recon_k in enumerate(expected):
            np.testing.assert_array_equal(recon[k], recon_k)

    def test_tied_gradient_flows_into_stacked_encoder(self):
        folds = self._composites()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(F, B, DIN))
        grad_out = rng.normal(size=(F, B, DIN))
        expected = []
        for k, fold in enumerate(folds):
            fold.forward(x[k])
            fold.backward(grad_out[k])
            encoder_weight = fold[0][0].weight
            expected.append(encoder_weight.grad.copy())
            # the tie alone, without the encoder path's own gradient
            fold.zero_grad()
            fold[1].forward(fold[0].forward(x[k]))
            fold[1].backward(grad_out[k])
            expected[-1] = (expected[-1], encoder_weight.grad.copy())
        with fold_stack(folds) as stacked:
            weight = stacked[0][0].weight
            assert stacked[1][0].source.weight is weight
            stacked[1].forward(stacked[0].forward(x))
            stacked[1].backward(grad_out)
            for k, (_, tie_only) in enumerate(expected):
                np.testing.assert_array_equal(weight.grad[k], tie_only)
            stacked.zero_grad()
            stacked.forward(x)
            stacked.backward(grad_out)
            for k, (both, _) in enumerate(expected):
                np.testing.assert_array_equal(weight.grad[k], both)

    def test_exit_restores_tied_bias_and_keeps_each_tie(self):
        folds = self._composites()
        with fold_stack(folds) as stacked:
            stacked[1][0].bias.data += 0.5
            stacked[0][0].weight.data *= 2.0
            trained_bias = stacked[1][0].bias.data.copy()
            trained_weight = stacked[0][0].weight.data.copy()
        for k, fold in enumerate(folds):
            encoder, tied = fold[0][0], fold[1][0]
            np.testing.assert_array_equal(tied.bias.data, trained_bias[k])
            np.testing.assert_array_equal(
                encoder.weight.data, trained_weight[k]
            )
            assert tied.source is encoder


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
        with fold_stack(_serial_nets()) as net:
            optimizer = BatchedAdam(net.trainable_parameters(), lr=0.01)
            assert len(optimizer.parameters) == 4  # 2 layers × (weight, bias)
            assert all(p.data.shape[0] == F for p in optimizer.parameters)
