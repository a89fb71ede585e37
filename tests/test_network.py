import hashlib
import json
import math
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from hebdot import network
from hebdot.network import (
    CHECKPOINT_MAGIC,
    HEAD_SIZES,
    Checkpoint,
    CorruptCheckpoint,
    ModelConfig,
    NonFiniteActivation,
    ShapeMismatch,
    VersionMismatch,
    compute_loss,
    effective_targets,
    flat_of,
    forward,
    gradient_check,
    init_params,
    layer0_tables,
    load_checkpoint,
    loss_and_grads,
    make_dropout_masks,
    make_synthetic_batch,
    masked_loss,
    param_layout,
    param_shapes,
    param_views,
    save_checkpoint,
)
from hebdot.codec import DAGESH_CAPABLE, NIQQUD_CAPABLE
from hebdot.corpus import (
    CATEGORIES, SPLITS, Vocabulary, encode_document, load_corpus, make_batches
)
from hebdot.dotter import Dotter
from hebdot.trainer import AdamState, adam_step
from conftest import checkpoint_fields
from network_oracle import reference_forward


def tiny_config(**kw):
    base = dict(vocab_size=10, embed_dim=8, hidden_dim=8, num_layers=2, dropout=0.0)
    base.update(kw)
    return ModelConfig(**base)


class TestConfig:
    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=0)
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=10, hidden_dim=0)
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=10, num_layers=0)
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=10, dropout=1.0)
        with pytest.raises(ValueError, match="hidden_dim"):
            ModelConfig(vocab_size=10, hidden_dim=8.0)
        with pytest.raises(ValueError, match="dropout"):
            ModelConfig(vocab_size=10, dropout=True)
        with pytest.raises(ValueError, match="num_layers"):
            ModelConfig(vocab_size=10, num_layers=True)


class TestInit:
    def test_shapes_and_dtype(self):
        config = tiny_config()
        params = init_params(config, seed=0)
        assert params["embedding"].shape == (10, 8)
        for i in range(2):
            in_dim = 8 if i == 0 else 16
            for d in ("fwd", "bwd"):
                assert params[f"lstm{i}_{d}_Wx"].shape == (in_dim, 32)
                assert params[f"lstm{i}_{d}_Wh"].shape == (8, 32)
                assert params[f"lstm{i}_{d}_b"].shape == (32,)
        assert params["proj_W"].shape == (16, 16)
        for name, k in HEAD_SIZES.items():
            assert params[f"head_{name}_W"].shape == (16, k)
            assert params[f"head_{name}_b"].shape == (k,)
        assert all(p.dtype == np.float32 for p in params.values())

    def test_forget_gate_bias_is_one(self):
        params = init_params(tiny_config(), seed=0)
        b = params["lstm0_fwd_b"]
        h = 8
        assert np.all(b[h : 2 * h] == 1.0)
        assert np.all(b[:h] == 0.0) and np.all(b[2 * h :] == 0.0)

    def test_seed_determinism(self):
        a = init_params(tiny_config(), seed=7)
        b = init_params(tiny_config(), seed=7)
        c = init_params(tiny_config(), seed=8)
        assert all(np.array_equal(a[k], b[k]) for k in a)
        assert any(not np.array_equal(a[k], c[k]) for k in a)

    def test_draws_in_blocks_equal_one_draw_per_array(self):
        # fan-ins of 100 and 80 rows take two blocks each
        config = ModelConfig(vocab_size=Vocabulary().size, embed_dim=100, hidden_dim=40)
        params = init_params(config, seed=4)
        rng = np.random.Generator(np.random.PCG64(4))
        for name, shape in param_shapes(config).items():
            if len(shape) == 2:
                limit = np.sqrt(6.0 / sum(shape))
                want = rng.uniform(-limit, limit, size=shape).astype(np.float32)
                assert params[name].tobytes() == want.tobytes(), name

    def test_init_holds_little_besides_the_weights(self):
        # numpy reports its buffers to tracemalloc; drawing a whole array at
        # once needs a float64 copy of it, 1.36x the weights here
        config = ModelConfig(vocab_size=Vocabulary().size, embed_dim=128, hidden_dim=128)
        tracemalloc.start()
        try:
            params = init_params(config, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.12 * flat_of(params).nbytes


def manual_lstm_step(x, h_prev, c_prev, Wx, Wh, b, H):
    """Plain-python cell evaluation, gate order i|f|g|o."""
    z = [
        sum(x[j] * Wx[j][k] for j in range(len(x)))
        + sum(h_prev[j] * Wh[j][k] for j in range(H))
        + b[k]
        for k in range(4 * H)
    ]
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    i = [sig(z[k]) for k in range(H)]
    f = [sig(z[H + k]) for k in range(H)]
    g = [math.tanh(z[2 * H + k]) for k in range(H)]
    o = [sig(z[3 * H + k]) for k in range(H)]
    c = [f[k] * c_prev[k] + i[k] * g[k] for k in range(H)]
    h = [o[k] * math.tanh(c[k]) for k in range(H)]
    return h, c


class TestFlipRows:
    """The backward direction's per-row time flip, in place, against the
    index it replaced: ``rev[t, b] = L_b - 1 - t`` for ``t < L_b``, else
    ``t``, read as ``x[rev, arange(B)]``."""

    LENGTHS = np.array([7, 1, 4, 7, 2], dtype=np.int32)  # full width, one letter, mixed

    @staticmethod
    def reference(x, lengths):
        t = np.arange(x.shape[0])[:, None]
        rev = np.where(t < lengths[None, :], lengths[None, :] - 1 - t, t)
        return x[rev, np.arange(x.shape[1])[None, :]]

    @pytest.mark.parametrize("shape, dtype", [((7, 5), np.int32), ((7, 5, 3), np.float32)])
    def test_matches_reversal_index(self, shape, dtype):
        x = np.random.default_rng(4).integers(0, 1000, size=shape).astype(dtype)
        before = x.copy()
        got = network._flip_rows(x, self.LENGTHS)
        assert got is x
        assert np.array_equal(x, self.reference(before, self.LENGTHS))
        live = np.arange(shape[0])[:, None] < self.LENGTHS[None, :]
        assert np.array_equal(x[~live], before[~live])  # padding stays in place
        assert np.array_equal(network._flip_rows(x, self.LENGTHS), before)

    def test_flips_a_strided_view(self):
        # the backward half of a layer's output gradient, read through a
        # batch-major array's transpose
        doc = np.random.default_rng(5).random((5, 7, 6)).astype(np.float32)
        want = doc.copy()
        want_half = self.reference(want.transpose(1, 0, 2)[:, :, 3:], self.LENGTHS)
        network._flip_rows(doc.transpose(1, 0, 2)[:, :, 3:], self.LENGTHS)
        assert np.array_equal(doc.transpose(1, 0, 2)[:, :, 3:], want_half)
        assert np.array_equal(doc[:, :, :3], want[:, :, :3])


class TestDropoutMasks:
    @pytest.mark.parametrize("hidden", [3, 5, 8])
    def test_packed_bits_are_the_bool_draws(self, hidden):
        # 2H = 6 and 10 leave the last byte of each packed row partial;
        # 9 and 17 rows are drawn 8 at a time, the last block ragged
        config = tiny_config(hidden_dim=hidden, dropout=0.3, num_layers=3)
        T, width = 9, 2 * hidden
        for B in (4, 9, 17):
            masks = make_dropout_masks(config, B, T, np.random.default_rng(12))
            again = make_dropout_masks(config, B, T, np.random.default_rng(12))
            assert [m.tobytes() for m in masks] == [m.tobytes() for m in again]
            rng = np.random.default_rng(12)
            assert len(masks) == 3
            for m in masks:
                assert m.dtype == np.uint8 and m.shape == (B, T, -(-width // 8))
                want = rng.random((B, T, width)) >= 0.3
                assert np.array_equal(np.unpackbits(m, axis=-1, count=width).view(bool), want)
                assert not np.unpackbits(m, axis=-1)[:, :, width:].any()  # pad bits

    def test_paper_size_draw_holds_little_besides_the_masks(self):
        # numpy reports its buffers to tracemalloc; a whole (64, 80, 800)
        # float64 draw is 32.8 MB, one block of 8 rows 4.1 MB
        config = ModelConfig(vocab_size=Vocabulary().size, embed_dim=400, hidden_dim=400)
        tracemalloc.start()
        try:
            masks = make_dropout_masks(config, 64, 80, np.random.default_rng(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = 8 * 80 * 800 * np.dtype(np.float64).itemsize
        assert peak <= sum(m.nbytes for m in masks) + 1.5 * block

    def test_no_dropout_gives_none(self):
        assert make_dropout_masks(tiny_config(), 4, 9, np.random.default_rng(0)) is None


class TestForward:
    def test_cell_matches_manual_oracle(self):
        # single layer, H=2, two rows of three and two steps, the second
        # padded, so the whole-sequence input projection and the per-row
        # reversal are both checked against the textbook cell
        config = ModelConfig(vocab_size=5, embed_dim=2, hidden_dim=2, num_layers=1, dropout=0.0)
        rng = np.random.default_rng(3)
        params = init_params(config, seed=3)
        for name in params:
            params[name] = rng.normal(0, 0.4, params[name].shape).astype(np.float32)
        ids = np.array([[1, 3, 4], [2, 4, 0]], dtype=np.int32)
        lengths = np.array([3, 2], dtype=np.int32)
        _, cache = forward(params, config, ids, lengths)

        p64 = {k: v.astype(np.float64) for k, v in params.items()}
        H = 2
        for row, n in enumerate(lengths):
            xs = [p64["embedding"][i] for i in ids[row, :n]]
            h, c = [0.0] * H, [0.0] * H
            fwd_h = []
            for x in xs:
                h, c = manual_lstm_step(
                    list(x), h, c, p64["lstm0_fwd_Wx"], p64["lstm0_fwd_Wh"], p64["lstm0_fwd_b"], H
                )
                fwd_h.append(h)
            h, c = [0.0] * H, [0.0] * H
            bwd_h = []
            for x in reversed(xs):
                h, c = manual_lstm_step(
                    list(x), h, c, p64["lstm0_bwd_Wx"], p64["lstm0_bwd_Wh"], p64["lstm0_bwd_b"], H
                )
                bwd_h.append(h)
            bwd_h.reverse()

            # one layer, no dropout: the features are that layer's output
            got = cache.feats[row, :n]  # (T, 2H), document order
            want = np.concatenate([np.array(fwd_h), np.array(bwd_h)], axis=1)
            assert np.allclose(got, want, atol=1e-6)

    def test_logit_shapes(self):
        config = tiny_config()
        params = init_params(config, seed=0)
        ids, lengths, _, _ = make_synthetic_batch(config, batch=3, width=7, seed=1)
        logits, _ = forward(params, config, ids, lengths)
        for name, k in HEAD_SIZES.items():
            assert logits[name].shape == (3, 7, k)
            assert logits[name].dtype == np.float32

    def test_float64_params_give_float64_logits(self):
        config = tiny_config()
        params = {k: v.astype(np.float64) for k, v in init_params(config, seed=0).items()}
        ids, lengths, _, _ = make_synthetic_batch(config, batch=2, width=5, seed=1)
        logits, _ = forward(params, config, ids, lengths)
        assert all(v.dtype == np.float64 for v in logits.values())

    def test_bitwise_deterministic(self):
        config = tiny_config(dropout=0.1)
        params = init_params(config, seed=0)
        ids, lengths, _, _ = make_synthetic_batch(config, batch=4, width=9, seed=2)
        rng = lambda: np.random.default_rng(99)
        masks1 = make_dropout_masks(config, 4, 9, rng())
        masks2 = make_dropout_masks(config, 4, 9, rng())
        a, _ = forward(params, config, ids, lengths, dropout_masks=masks1)
        b, _ = forward(params, config, ids, lengths, dropout_masks=masks2)
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_padding_independence(self):
        # same row padded to different widths must produce identical live logits
        config = tiny_config()
        params = init_params(config, seed=5)
        row = np.array([2, 4, 4, 7, 1], dtype=np.int32)
        narrow = row[None, :]
        wide = np.zeros((2, 11), dtype=np.int32)
        wide[0, :5] = row
        wide[1, :8] = 3
        lengths_n = np.array([5], dtype=np.int32)
        lengths_w = np.array([5, 8], dtype=np.int32)
        a, _ = forward(params, config, narrow, lengths_n)
        b, _ = forward(params, config, wide, lengths_w)
        for name in a:
            assert np.array_equal(a[name][0, :5], b[name][0, :5])

    def test_row_order_independence(self):
        config = tiny_config()
        params = init_params(config, seed=5)
        ids, lengths, _, _ = make_synthetic_batch(config, batch=3, width=6, seed=4)
        perm = np.array([2, 0, 1])
        a, _ = forward(params, config, ids, lengths)
        b, _ = forward(params, config, ids[perm], lengths[perm])
        for name in a:
            assert np.array_equal(a[name][perm], b[name])

    @pytest.mark.parametrize(
        "dim, batch, width",
        [(8, 5, 9), (16, 16, 40), (400, 3, 80)],
        ids=["False", "hidden16", "paper"],  # "False" is hidden 8: the id earlier runs report
    )
    def test_no_cache_forward_matches_cached(self, dim, batch, width):
        # both run one recurrence, with a rolling cell state; inference
        # drops each direction's gates, training caches them for the
        # backward pass.  The logits must not move by a bit
        config = ModelConfig(vocab_size=Vocabulary().size, embed_dim=dim, hidden_dim=dim)
        params = init_params(config, seed=6)
        ids, lengths, _, _ = make_synthetic_batch(config, batch, width, seed=7)
        lengths[-1] = 1  # mixed lengths, down to a single letter
        ids[-1, 1:] = 0
        masks = make_dropout_masks(config, batch, width, np.random.default_rng(8))
        for drop in (None, masks):
            cached, cache = forward(params, config, ids, lengths, dropout_masks=drop)
            bare, none = forward(params, config, ids, lengths, drop, keep_cache=False)
            assert cache is not None and none is None
            for name in cached:
                assert np.array_equal(cached[name], bare[name])

    def test_gathers_layer0_from_given_tables(self):
        # inference builds the tables once per model and passes them in;
        # they must be what each call would build, and what layer 0 reads
        config = tiny_config()
        params = init_params(config, seed=3)
        ids, lengths, _, _ = make_synthetic_batch(config, batch=3, width=6, seed=4)
        want, _ = forward(params, config, ids, lengths, keep_cache=False)
        tables = layer0_tables(params)
        params["embedding"][:] = np.nan  # layer 0's input lives in the tables alone
        got, _ = forward(params, config, ids, lengths, keep_cache=False, layer0=tables)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_reads_logits_from_given_fold(self):
        # a loaded model folds the projection into the heads once and passes
        # the fold in; it must be what each call would build, and all the
        # logits read of the projection and the heads
        config = tiny_config(vocab_size=Vocabulary().size)
        params = init_params(config, seed=3)
        heads = [f"head_{k}_{p}" for k in CATEGORIES for p in "Wb"]
        rng = np.random.default_rng(5)
        for name in ["proj_b", *heads]:  # init leaves the biases zero
            params[name][...] = rng.uniform(-1.0, 1.0, params[name].shape)
        ids, lengths, _, _ = make_synthetic_batch(config, batch=3, width=6, seed=4)
        want, _ = forward(params, config, ids, lengths, keep_cache=False)
        dotter = Dotter(Checkpoint(params, config, Vocabulary(), {}))
        for name in ["proj_W", "proj_b", *heads]:
            params[name][...] = np.nan
        got, _ = forward(
            params, config, ids, lengths, keep_cache=False,
            layer0=dotter.layer0, fold=dotter.fold,
        )
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_rejects_out_of_range_ids(self):
        config = tiny_config()
        params = init_params(config, seed=0)
        ids = np.array([[0, 10]], dtype=np.int32)  # vocab_size == 10
        with pytest.raises(ShapeMismatch):
            forward(params, config, ids, np.array([2], dtype=np.int32))

    def test_rejects_bad_lengths(self):
        config = tiny_config()
        params = init_params(config, seed=0)
        ids = np.array([[1, 2, 3]], dtype=np.int32)
        with pytest.raises(ShapeMismatch):
            forward(params, config, ids, np.array([4], dtype=np.int32))
        with pytest.raises(ShapeMismatch):
            forward(params, config, ids, np.array([0], dtype=np.int32))

    def test_nonfinite_activation_detected(self):
        config = tiny_config()
        params = init_params(config, seed=0)
        params["lstm0_fwd_Wx"][:] = np.nan
        ids, lengths, _, _ = make_synthetic_batch(config, batch=2, width=4, seed=0)
        with pytest.raises(NonFiniteActivation):
            forward(params, config, ids, lengths)

    @pytest.mark.parametrize("name", ["proj_W", "head_sin_b"])
    def test_nonfinite_logits_detected(self, name):
        config = tiny_config()
        params = init_params(config, seed=0)
        params[name].reshape(-1)[0] = np.nan
        ids, lengths, _, _ = make_synthetic_batch(config, batch=2, width=4, seed=0)
        with pytest.raises(NonFiniteActivation, match="logits"):
            forward(params, config, ids, lengths, keep_cache=False)


class TestNearPaperSize:
    def test_batching_moves_logits_only_by_rounding(self):
        # At hidden 128 a row's logits depend, in the last bits, on the batch
        # around it (BLAS blocking); the bound is about 100 float32 ulps at
        # unit scale, far below any label decision.
        config = ModelConfig(vocab_size=60, embed_dim=128, hidden_dim=128)
        params = init_params(config, seed=2)
        ids, lengths, _, _ = make_synthetic_batch(config, batch=16, width=40, seed=3)
        batched, _ = forward(params, config, ids, lengths)
        tol = 100 * np.finfo(np.float32).eps
        for r, n in enumerate(lengths):
            single, _ = forward(params, config, ids[r : r + 1, :n], lengths[r : r + 1])
            for name in single:
                assert np.allclose(single[name][0], batched[name][r, :n], rtol=0, atol=tol)


class TestAgainstReference:
    """``forward`` gathers layer 0 from tables of every vocabulary id; the
    reference multiplies every position's embedding row and writes the
    sigmoid its own way.  They agree to float32 rounding, far below any
    label decision; bitwise equality would depend on the BLAS build.  Single
    lines cover a one-letter batch, one repeated letter, a geresh and
    characters outside the alphabet; 16-row batches cover every bundled
    chunk."""

    LINES = ["שלום עולם, מה שלומך היום? הכל בסדר.", "ההה", "א", "בא", "ש׳ #@"]
    LINE_IDS = ["sentence", "repeated", "one-letter", "two-letters", "geresh-symbols"]

    @staticmethod
    def make_model(dim, seed):
        config = ModelConfig(vocab_size=Vocabulary().size, embed_dim=dim, hidden_dim=dim)
        return init_params(config, seed=seed), config

    @staticmethod
    def assert_matches_reference(params, config, ids, lengths):
        got, _ = forward(params, config, ids, lengths, keep_cache=False)
        want = reference_forward(params, config, ids, lengths)
        tol = 100 * np.finfo(np.float32).eps
        for r, n in enumerate(lengths):
            for name in got:
                a, b = got[name][r, :n], want[name][r, :n]
                assert np.allclose(a, b, rtol=0, atol=tol), (name, r, np.abs(a - b).max())
                assert np.array_equal(a.argmax(axis=1), b.argmax(axis=1))

    @pytest.mark.parametrize(
        "dim, batch", [(16, 16), (128, 16), (400, 4)], ids=["hidden16", "hidden128", "paper"]
    )
    def test_logits_match_reference(self, dim, batch):
        params, config = self.make_model(dim, 21)
        ids, lengths, _, _ = make_synthetic_batch(config, batch=batch, width=24, seed=22)
        ids[-1, : lengths[-1]] = 7  # a row of one repeated letter
        self.assert_matches_reference(params, config, ids, lengths)

    @pytest.mark.parametrize("line", LINES, ids=LINE_IDS)
    @pytest.mark.parametrize("dim", [16, 400], ids=["hidden16", "paper"])
    def test_line_matches_reference(self, dim, line):
        ids = Vocabulary().encode(line)[None, :]
        self.assert_matches_reference(*self.make_model(dim, 12), ids, np.array([ids.shape[1]]))

    def test_sixteen_row_batches_match_reference(self, bundled_corpus_root):
        vocab = Vocabulary()
        docs = [d for split in SPLITS for d in load_corpus(bundled_corpus_root, split)]
        chunks = encode_document(docs, vocab)
        chunks = chunks.take(np.argsort(chunks.lengths, kind="stable"))
        params, config = self.make_model(16, 12)
        for batch in make_batches(chunks, 16):
            self.assert_matches_reference(params, config, batch.letter_ids, batch.lengths)


class TestLoss:
    @pytest.mark.parametrize("dim", [8, 400], ids=["hidden8", "paper"])
    def test_masking_is_exact(self, dim):
        # golds at dead positions must have zero effect, bit for bit
        config = tiny_config(embed_dim=dim, hidden_dim=dim)
        params = init_params(config, seed=1)
        ids, lengths, golds, masks = make_synthetic_batch(config, batch=4, width=10, seed=6)
        loss_a, grads_a = loss_and_grads(params, config, ids, lengths, golds, masks)
        poked = {k: v.copy() for k, v in golds.items()}
        rng = np.random.default_rng(0)
        for name, k in HEAD_SIZES.items():
            dead = ~masks[name]
            poked[name][dead] = rng.integers(0, k, size=int(dead.sum()))
        loss_b, grads_b = loss_and_grads(params, config, ids, lengths, poked, masks)
        assert loss_a == loss_b
        for name in grads_a:
            assert np.array_equal(grads_a[name], grads_b[name])

    def test_zero_mask_means_zero_loss(self):
        config = tiny_config()
        params = init_params(config, seed=1)
        ids, lengths, golds, masks = make_synthetic_batch(config, batch=2, width=5, seed=0)
        dead = {k: np.zeros_like(v) for k, v in masks.items()}
        loss, grads = loss_and_grads(params, config, ids, lengths, golds, dead)
        assert loss == 0.0
        assert all(not g.any() for g in grads.values())

    def test_masked_loss_is_mean_over_live_decisions(self):
        # uniform logits: every live decision contributes exactly log K
        golds = {k: np.zeros((2, 3), dtype=np.int8) for k in HEAD_SIZES}
        masks = {k: np.zeros((2, 3), dtype=bool) for k in HEAD_SIZES}
        logits = {k: np.zeros((2, 3, n), dtype=np.float64) for k, n in HEAD_SIZES.items()}
        masks["niqqud"][0, 0] = True
        masks["dagesh"][0, 1] = True
        want = (math.log(12.0) + math.log(2.0)) / 2.0
        assert masked_loss(logits, golds, masks) == pytest.approx(want, rel=1e-12)

    def test_sin_gold_zero_excluded(self):
        # a shin position whose gold is NONE trains nothing on the sin head
        golds = {k: np.zeros((1, 1), dtype=np.int8) for k in HEAD_SIZES}
        masks = {k: np.zeros((1, 1), dtype=bool) for k in HEAD_SIZES}
        masks["sin"][0, 0] = True
        logits = {k: np.zeros((1, 1, n), dtype=np.float32) for k, n in HEAD_SIZES.items()}
        assert masked_loss(logits, golds, masks) == 0.0

    def test_effective_targets_shift_sin(self):
        golds = {
            "niqqud": np.array([[3]], dtype=np.int8),
            "dagesh": np.array([[1]], dtype=np.int8),
            "sin": np.array([[2]], dtype=np.int8),
        }
        masks = {k: np.ones((1, 1), dtype=bool) for k in HEAD_SIZES}
        targets = effective_targets(golds, masks)
        assert targets["sin"][0][0, 0] == 1 and targets["sin"][1][0, 0]
        assert targets["niqqud"][0][0, 0] == 3
        golds["sin"][0, 0] = 0
        targets = effective_targets(golds, masks)
        assert not targets["sin"][1][0, 0]

    def test_compute_loss_matches_pieces(self):
        config = tiny_config()
        params = init_params(config, seed=2)
        ids, lengths, golds, masks = make_synthetic_batch(config, batch=3, width=6, seed=3)
        logits, _ = forward(params, config, ids, lengths)
        want = masked_loss(logits, golds, masks)
        assert compute_loss(params, config, ids, lengths, golds, masks) == want
        assert loss_and_grads(params, config, ids, lengths, golds, masks)[0] == want


class TestGradients:
    def test_quick_gradcheck_plain(self):
        config = tiny_config()
        ids, lengths, golds, masks = make_synthetic_batch(config, batch=2, width=8, seed=0)
        report = gradient_check(
            config, ids, lengths, golds, masks, seed=0, samples_per_array=40
        )
        assert report.passed, report.max_rel_err

    def test_quick_gradcheck_with_dropout_replay(self):
        config = tiny_config(dropout=0.25)
        ids, lengths, golds, masks = make_synthetic_batch(config, batch=2, width=8, seed=2)
        drop = make_dropout_masks(config, 2, 8, np.random.default_rng(17))
        report = gradient_check(
            config,
            ids,
            lengths,
            golds,
            masks,
            seed=2,
            samples_per_array=40,
            dropout_masks=drop,
        )
        assert report.passed, report.max_rel_err

    def test_report_covers_every_array(self):
        config = tiny_config()
        ids, lengths, golds, masks = make_synthetic_batch(config, batch=2, width=6, seed=4)
        report = gradient_check(
            config, ids, lengths, golds, masks, seed=0, samples_per_array=5
        )
        params = init_params(config, seed=0)
        assert set(report.per_array) == set(params)
        assert report.samples == sum(min(5, p.size) for p in params.values())


class TestStepMemory:
    """``loss_and_grads`` frees each part of the forward cache once its
    last reader is done, works in place on buffers it owns, and leaves
    its inputs as they were."""

    @staticmethod
    def step_inputs():
        config = ModelConfig(vocab_size=Vocabulary().size, embed_dim=128, hidden_dim=128)
        params = init_params(config, seed=7)
        batch = make_synthetic_batch(config, batch=16, width=40, seed=8)
        drop = make_dropout_masks(config, 16, 40, np.random.default_rng(9))
        return params, config, batch, drop

    @staticmethod
    def cache_bytes(cache):
        """The gates of every direction, each upper layer's input and the
        top features."""
        n = sum(g.nbytes for per_layer in cache.gates for g in per_layer.values())
        return n + sum(u.nbytes for u in cache.inputs) + cache.feats.nbytes

    @pytest.mark.parametrize("case", [None], ids=["False"])  # the id earlier runs report
    def test_forward_holds_nothing_beyond_its_cache(self, case):
        # bounds are in units of one (B, T, 2H) array.  The cache is each
        # direction's gates (2 units each), layer 1's input and the top
        # features.  The forward peaks 10.60x here, flipping the top
        # layer's input in place for the backward direction's GEMM.  A
        # flipped copy of that input read 11.05x, and caching every step's
        # cell and hidden states too 14.30x, under a bound of 14.5x
        params, config, batch, drop = self.step_inputs()
        tracemalloc.start()
        try:
            _, cache = forward(params, config, *batch[:2], drop)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        unit = cache.feats.nbytes
        assert self.cache_bytes(cache) == 10 * unit
        assert peak <= 11.0 * unit, peak / unit

    @pytest.mark.parametrize("case", [None], ids=["False"])  # the id earlier runs report
    def test_peak_within_cache_multiple(self, case):
        # numpy reports its buffers to tracemalloc.  Freeing the cache as
        # the backward pass goes, rebuilding each direction's states there
        # into one buffer and flipping in place, a step peaks at 16.01
        # units of one (B, T, 2H) array here, of which the gradient buffer
        # is about 4.4.  Flipped copies and a separate hidden-state buffer
        # read 16.52, caching the states 19.52 under a bound of 22.4, and
        # holding the whole cache and a zeroed gradient per layer to the
        # end about twice that
        params, config, batch, drop = self.step_inputs()
        unit = batch[0].size * 2 * config.hidden_dim * 4  # float32
        tracemalloc.start()
        try:
            loss_and_grads(params, config, *batch, drop)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16.5 * unit, peak / unit

    def test_no_side_effects(self):
        params, config, batch, drop = self.step_inputs()
        params_before = flat_of(params).tobytes()
        drop_before = [m.tobytes() for m in drop]
        ids_before, lengths_before = batch[0].copy(), batch[1].copy()
        loss_a, grads_a = loss_and_grads(params, config, *batch, drop)
        loss_b, grads_b = loss_and_grads(params, config, *batch, drop)
        assert loss_a == loss_b
        assert flat_of(grads_a).tobytes() == flat_of(grads_b).tobytes()
        assert flat_of(params).tobytes() == params_before
        assert [m.tobytes() for m in drop] == drop_before
        # the backward direction flips copies of the ids, not the caller's
        assert np.array_equal(batch[0], ids_before)
        assert np.array_equal(batch[1], lengths_before)


class TestLetterSpaceGradients:
    """Layer 0 sums its gate gradients per vocabulary id, with a one-hot
    over the whole vocabulary, before the embedding and input-weight
    gradients; ids that no live position holds must get exactly zero
    embedding gradient.  Letter 5 occurs once, off the middle of its row, so
    the backward direction meets it at another time step than the forward
    one; id 0 pads the second row; ids 1, 4, 6 and 7 never occur."""

    IDS = np.array([[2, 3, 2, 5, 3, 2], [3, 2, 3, 0, 0, 0]], dtype=np.int32)
    LENGTHS = np.array([6, 3], dtype=np.int32)

    def batch(self):
        rng = np.random.default_rng(31)
        live = np.arange(6)[None, :] < self.LENGTHS[:, None]
        golds = {
            k: rng.integers(0, n, size=live.shape).astype(np.int8) for k, n in HEAD_SIZES.items()
        }
        golds["sin"] = rng.integers(1, 3, size=live.shape).astype(np.int8)
        masks = {k: live.copy() for k in HEAD_SIZES}
        for k in HEAD_SIZES:
            golds[k][~live] = 0
        return self.IDS, self.LENGTHS, golds, masks

    @pytest.mark.parametrize("layers", [1, 2, 3], ids=["1-False", "2-False", "3-False"])
    def test_gradcheck(self, layers):  # the ids earlier runs report
        config = ModelConfig(
            vocab_size=8, embed_dim=2, hidden_dim=3, num_layers=layers, dropout=0.0
        )
        batch = self.batch()
        # 24 samples cover every embedding and layer-0 input weight entry
        report = gradient_check(config, *batch, seed=layers, samples_per_array=24)
        assert report.passed, report.per_array
        params = init_params(config, seed=layers, dtype=np.float64)
        _, grads = loss_and_grads(params, config, *batch)
        g = grads["embedding"]
        assert np.all(g[[0, 1, 4, 6, 7]] == 0.0)  # padding and absent ids
        assert all(g[i].any() for i in (2, 3, 5))


class TestPaperSize:
    """Float64 gradients at the paper's dimensions (embed and hidden 400,
    two layers, dropout replayed) on a batch of 2 rows whose second is one
    letter long, so every direction's rebuilt states meet a row that ends at
    its first step.  Every coordinate of 7.1M parameters is out of reach, so
    a few sampled ones per array are checked, plus random directions through
    all of them at once."""

    @pytest.fixture(scope="class", params=[None], ids=["plain"])  # the id earlier runs report
    def setup(self):
        config = ModelConfig(vocab_size=Vocabulary().size, embed_dim=400, hidden_dim=400)
        ids, lengths, golds, masks = make_synthetic_batch(config, batch=2, width=12, seed=5)
        assert masks["niqqud"][-1, 0]  # the one-letter row has a live decision
        lengths[-1] = 1
        ids[-1, 1:] = 0
        for k in CATEGORIES:
            masks[k][-1, 1:] = False
            golds[k][-1, 1:] = 0
        drop = make_dropout_masks(config, 2, 12, np.random.default_rng(6))
        return config, (ids, lengths, golds, masks), drop

    def test_sampled_coordinates(self, setup):
        config, batch, drop = setup
        report = gradient_check(
            config, *batch, seed=3, samples_per_array=3, tolerance=1e-4, dropout_masks=drop
        )
        assert report.passed, report.per_array

    def test_random_directions(self, setup):
        config, (ids, lengths, golds, masks), drop = setup
        params = init_params(config, seed=3, dtype=np.float64)
        _, grads = loss_and_grads(params, config, ids, lengths, golds, masks, drop)
        flat, flat_grads = flat_of(params), flat_of(grads)
        spans, size = param_layout(config)
        in_arrays = np.zeros(size, bool)
        for span in spans.values():
            in_arrays[span] = True
        rng = np.random.default_rng(8)
        step = 1e-3
        for _ in range(3):
            # one unit vector through every parameter, zero on the padding
            direction = np.where(in_arrays, rng.standard_normal(size), 0.0)
            direction /= np.linalg.norm(direction)

            def loss_at(t):
                moved = param_views(config, flat + t * direction)
                return compute_loss(moved, config, ids, lengths, golds, masks, drop)

            analytic = float(flat_grads @ direction)
            numeric = (loss_at(step) - loss_at(-step)) / (2.0 * step)
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            assert rel <= 1e-4, (analytic, numeric, rel)


class TestSyntheticBatch:
    def test_contract(self):
        config = tiny_config()
        ids, lengths, golds, masks = make_synthetic_batch(config, batch=4, width=12, seed=9)
        assert ids.shape == (4, 12) and ids.dtype == np.int32
        assert lengths.max() == 12
        for name in HEAD_SIZES:
            assert golds[name].shape == (4, 12)
            for i in range(4):
                assert not masks[name][i, lengths[i] :].any()
        # sin golds must exercise the excluded-zero path
        assert (golds["sin"][masks["sin"]] == 0).any()


class TestCheckpoint:
    def _save(self, path, seed=11):
        vocab = Vocabulary()
        config = ModelConfig(vocab_size=vocab.size, embed_dim=12, hidden_dim=12)
        params = init_params(config, seed=seed)
        save_checkpoint(path, params, config, vocab, meta={"step": 3})
        return params, config, vocab

    def test_round_trip_bitwise(self, tmp_path):
        path = tmp_path / "m.nkdm"
        params, config, vocab = self._save(path)
        again = load_checkpoint(path)
        assert isinstance(again, Checkpoint)
        assert set(again.params) == set(params)
        for name in params:
            assert np.array_equal(again.params[name], params[name])
            assert again.params[name].dtype == np.float32
            again.params[name][...] = 0.0  # writable, and apart from the other arrays
        assert again.config == config
        assert again.vocab.alphabet == vocab.alphabet
        assert again.meta["step"] == 3
        (n,) = struct.unpack("<I", path.read_bytes()[8:12])
        header = json.loads(path.read_bytes()[12 : 12 + n])
        assert header["dagesh_capable"] == "".join(sorted(DAGESH_CAPABLE))
        assert header["niqqud_capable"] == "".join(sorted(NIQQUD_CAPABLE))

    def test_arrays_are_the_files_bytes(self, tmp_path):
        path = tmp_path / "m.nkdm"
        self._save(path)
        blob = path.read_bytes()
        stored = {
            field[: -len(" data")]: np.frombuffer(blob[start:end], dtype="<f4")
            for field, start, end in checkpoint_fields(blob)
            if field.endswith(" data")
        }
        again = load_checkpoint(path)
        assert again.params.keys() == stored.keys()
        for name, arr in again.params.items():
            assert arr.shape == param_shapes(again.config)[name]
            assert np.array_equal(arr.ravel(), stored[name])

    def test_load_holds_one_copy_of_the_weights(self, tmp_path):
        # numpy reports its buffers to tracemalloc; a loader that holds the
        # file's bytes and a copy of each array peaks at 2.0x the weights
        path = tmp_path / "m.nkdm"
        vocab = Vocabulary()
        config = ModelConfig(vocab_size=vocab.size, embed_dim=128, hidden_dim=128)
        params = init_params(config, seed=5)
        save_checkpoint(path, params, config, vocab)
        tracemalloc.start()
        try:
            again = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * sum(arr.nbytes for arr in params.values())
        for arr in again.params.values():
            assert arr.dtype == np.float32
            assert arr.flags.c_contiguous and arr.flags.aligned and arr.flags.writeable
            assert arr.ctypes.data % 16 == 0
        spans = sorted((a.ctypes.data, a.ctypes.data + a.nbytes) for a in again.params.values())
        assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("cut", [None, 0.5], ids=["whole", "truncated"])
    def test_load_from_a_pipe(self, tmp_path, cut):
        # a pipe's size reads 0, so the loader must not take it from fstat
        path = tmp_path / "m.nkdm"
        self._save(path)
        blob = path.read_bytes()
        if cut:
            blob = blob[: int(len(blob) * cut)]
        r, w = os.pipe()

        def feed():
            with os.fdopen(w, "wb") as f:
                f.write(blob)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            if cut:
                with pytest.raises(CorruptCheckpoint, match="truncated"):
                    load_checkpoint(f"/dev/fd/{r}")
                return
            piped = load_checkpoint(f"/dev/fd/{r}")
        finally:
            os.close(r)  # a writer still blocked gets EPIPE instead of hanging
            writer.join(timeout=30)
            assert not writer.is_alive()
        regular = load_checkpoint(path)
        assert piped.config == regular.config and piped.meta == regular.meta
        assert list(piped.params) == list(regular.params)
        for name, arr in regular.params.items():
            assert piped.params[name].dtype == arr.dtype
            assert piped.params[name].tobytes() == arr.tobytes(), name

    def test_save_is_reproducible(self, tmp_path):
        p1, p2 = tmp_path / "a.nkdm", tmp_path / "b.nkdm"
        self._save(p1)
        self._save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_format_is_pinned(self, tmp_path):
        # the bytes of a small seeded checkpoint, as the BytesIO writer made
        # them; a change to the layout, the header or the array order moves
        # the hash and breaks every checkpoint already written
        path = tmp_path / "m.nkdm"
        self._save(path)
        blob = path.read_bytes()
        assert hashlib.sha256(blob).hexdigest() == (
            "9f24f8f8c3b6e3cb6a66fd82d7de5558f55d4a00b967fbbe6b635bb3e106d4db"
        )
        # the same model as written while ``residual`` was a setting: the
        # header also held "residual": false, and nothing else differed
        (n,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12 : 12 + n])
        header["config"]["residual"] = False
        old = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")
        old_blob = blob[:8] + struct.pack("<I", len(old)) + old + blob[12 + n :]
        assert hashlib.sha256(old_blob).hexdigest() == (
            "897d2035d579b71e5792664ff330cbd5ee95b7c87c53a1d249b2125b5734dcfe"
        )

    @pytest.mark.parametrize("fail_at", ["write", "array-write", "fsync"])
    def test_failed_save_keeps_previous(self, tmp_path, monkeypatch, fail_at):
        path = tmp_path / "m.nkdm"
        params, _, _ = self._save(path, seed=11)
        before = path.read_bytes()

        class HalfWriter:
            """A file that passes ``good`` writes through, then takes half of
            the next one and fails."""

            def __init__(self, f, good):
                self.f = f
                self.good = good

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                if self.good:
                    self.good -= 1
                    return self.f.write(data)
                self.f.write(data[: len(data) // 2])
                self.f.flush()
                raise OSError(28, "No space left on device")

        if fail_at != "fsync":
            # the first write is the header; the tenth lies among the arrays
            good = 0 if fail_at == "write" else 9
            real_open = open
            monkeypatch.setattr(
                network,
                "open",
                lambda *a, **kw: HalfWriter(real_open(*a, **kw), good),
                raising=False,
            )
        else:

            def failing_fsync(fd):
                raise OSError(5, "Input/output error")

            monkeypatch.setattr(network.os, "fsync", failing_fsync)
        with pytest.raises(OSError):
            self._save(path, seed=12)
        monkeypatch.undo()
        assert path.read_bytes() == before
        again = load_checkpoint(path)
        for name in params:
            assert np.array_equal(again.params[name], params[name])
        assert [p.name for p in tmp_path.iterdir()] == ["m.nkdm"]

    def test_magic_enforced(self, tmp_path):
        path = tmp_path / "bad.nkdm"
        path.write_bytes(b"JUNK" + b"\x00" * 40)
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_version_enforced(self, tmp_path):
        path = tmp_path / "m.nkdm"
        self._save(path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # version field sits right after the magic
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "m.nkdm"
        self._save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_trailing_bytes_detected(self, tmp_path):
        path = tmp_path / "m.nkdm"
        self._save(path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_magic_constant(self):
        assert CHECKPOINT_MAGIC == b"NKDM"

    def test_param_shapes_describe_init(self):
        config = ModelConfig(vocab_size=Vocabulary().size, embed_dim=12, hidden_dim=8,
                             num_layers=3)
        params = init_params(config, seed=0)
        assert list(params) == list(param_shapes(config))
        assert {k: v.shape for k, v in params.items()} == param_shapes(config)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: p.pop("proj_b"),
            lambda p: p.update(extra=np.zeros(3, np.float32)),
            lambda p: p.update(proj_W=p["proj_W"][:, :-1]),
            lambda p: p.update(lstm1_bwd_b=p["lstm1_bwd_b"][None, :]),
        ],
        ids=["missing", "extra", "misshapen", "wrong-rank"],
    )
    def test_arrays_must_fit_the_config(self, tmp_path, edit):
        path = tmp_path / "m.nkdm"
        params, config, vocab = self._save(path)
        edit(params)
        save_checkpoint(path, params, config, vocab)
        with pytest.raises(CorruptCheckpoint, match="for the config"):
            load_checkpoint(path)

    def test_repeated_array_detected(self, tmp_path):
        path = tmp_path / "m.nkdm"
        self._save(path)
        blob = path.read_bytes()
        # rename "proj_b" to "proj_W": same length, so only the name moves
        at = blob.index(b"proj_b")
        path.write_bytes(blob[:at] + b"proj_W" + blob[at + 6 :])
        with pytest.raises(CorruptCheckpoint, match="repeated"):
            load_checkpoint(path)


class TestParamLayout:
    """Parameters, loaded weights and gradients are views of one buffer
    each, laid out by :func:`param_layout`."""

    # hidden 5: several arrays are not a multiple of 4 long, so padding shows
    CONFIG = ModelConfig(vocab_size=Vocabulary().size, embed_dim=6, hidden_dim=5)

    def views_and_padding(self, tmp_path):
        config = self.CONFIG
        params = init_params(config, seed=2)
        path = tmp_path / "m.nkdm"
        save_checkpoint(path, params, config, Vocabulary())
        loaded = load_checkpoint(path).params
        _, grads = loss_and_grads(params, config, *make_synthetic_batch(config, 3, 7, seed=1))
        spans, size = param_layout(config)
        padding = np.ones(size, bool)
        for span in spans.values():
            padding[span] = False
        assert padding.any()
        file_order = [
            field[: -len(" data")]
            for field, _, _ in checkpoint_fields(path.read_bytes())
            if field.endswith(" data")
        ]
        return params, loaded, grads, padding, file_order

    def test_one_layout_everywhere(self, tmp_path):
        params, loaded, grads, _, file_order = self.views_and_padding(tmp_path)
        offsets = []
        for views in (params, loaded, grads):
            flat = flat_of(views)
            assert flat.shape == (param_layout(self.CONFIG)[1],)
            assert flat.dtype == np.float32 and flat.ctypes.data % 16 == 0
            assert {k: v.shape for k, v in views.items()} == param_shapes(self.CONFIG)
            offsets.append({k: v.ctypes.data - flat.ctypes.data for k, v in views.items()})
        assert offsets[0] == offsets[1] == offsets[2]
        assert sorted(offsets[0], key=offsets[0].get) == file_order
        assert all(at % 16 == 0 for at in offsets[0].values())

    def test_padding_stays_zero(self, tmp_path):
        params, _, grads, padding, _ = self.views_and_padding(tmp_path)
        flat, flat_grads = flat_of(params), flat_of(grads)
        before = flat.copy()
        assert not flat[padding].any() and not flat_grads[padding].any()
        state = AdamState.init(flat)
        adam_step(flat, flat_grads, state, lr=1e-2)
        assert not np.array_equal(flat, before)
        for buffer in (flat, flat_grads, state.m, state.v):
            assert not buffer[padding].any()

    def test_loaded_padding_is_zero(self, tmp_path, monkeypatch):
        # the loader allocates with np.empty: fill that with NaN, so only
        # the loader's own zeroing can leave the padding at 0
        empty = np.empty

        def nan_empty(*args, **kwargs):
            out = empty(*args, **kwargs)
            if out.dtype.kind == "f":
                out.fill(np.nan)
            return out

        monkeypatch.setattr(network.np, "empty", nan_empty)
        _, loaded, _, padding, _ = self.views_and_padding(tmp_path)
        flat = flat_of(loaded)
        assert np.all(flat[padding] == 0.0)
        assert np.all(np.isfinite(flat))

    def test_separate_arrays_are_refused(self):
        params = init_params(self.CONFIG, seed=2)
        with pytest.raises(ValueError, match="one parameter buffer"):
            flat_of({k: v.copy() for k, v in params.items()})
        with pytest.raises(ValueError, match="one parameter buffer"):
            flat_of({**params, "proj_b": params["proj_b"].copy()})
