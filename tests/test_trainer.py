import math
import warnings

import numpy as np
import pytest

from hebdot.corpus import Batch, Vocabulary, encode_document, load_corpus, make_batches
from hebdot.network import (
    ModelConfig,
    NonFiniteLoss,
    flat_of,
    init_params,
    load_checkpoint,
    make_synthetic_batch,
)
import hebdot.trainer as trainer_mod
from hebdot.trainer import (
    AdamState,
    LRSchedule,
    TrainPlan,
    adam_step,
    overfit_probe,
    parse_config_file,
    train,
)

from conftest import doc_from_text


class TestLRSchedule:
    def test_anchors_exact(self):
        sched = LRSchedule(base_lr=3e-4, max_lr=3e-3, step_size_up=100)
        assert sched.lr_at(0) == 3e-4
        assert sched.lr_at(100) == 3e-3
        assert sched.lr_at(200) == 3e-4

    def test_periodic(self):
        sched = LRSchedule(base_lr=1e-4, max_lr=7e-3, step_size_up=37)
        for s in (0, 5, 36, 37, 38, 73, 74):
            assert sched.lr_at(s) == sched.lr_at(s + 74)
            assert sched.lr_at(s) == sched.lr_at(s + 5 * 74)

    def test_triangle_symmetry(self):
        sched = LRSchedule(base_lr=1e-4, max_lr=1e-2, step_size_up=50)
        for d in (1, 10, 25, 49):
            assert sched.lr_at(50 - d) == pytest.approx(sched.lr_at(50 + d), rel=1e-12)

    def test_monotone_on_ramp(self):
        sched = LRSchedule(base_lr=1e-4, max_lr=1e-2, step_size_up=20)
        ramp = [sched.lr_at(s) for s in range(21)]
        assert ramp == sorted(ramp)
        assert all(b > a for a, b in zip(ramp, ramp[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            LRSchedule(step_size_up=0)
        with pytest.raises(ValueError):
            LRSchedule(base_lr=1e-2, max_lr=1e-3)
        with pytest.raises(ValueError):
            LRSchedule(base_lr=0.0)
        with pytest.raises(ValueError):
            LRSchedule().lr_at(-1)
        with pytest.raises(ValueError, match="max_lr"):
            LRSchedule(max_lr=math.inf)


def per_array_adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam one array at a time, the reference the sliced flat update must
    match bit for bit; ``state`` holds dicts ``m`` and ``v`` and a step ``t``."""
    state["t"] += 1
    bc1 = 1.0 - beta1 ** state["t"]
    bc2 = 1.0 - beta2 ** state["t"]
    for name, p in params.items():
        g = grads[name]
        m = state["m"][name]
        v = state["v"][name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


class TestAdam:
    def test_constant_unit_gradient_moves_by_lr(self):
        # with g == 1 always, bias correction makes each update exactly
        # lr / (1 + eps), independent of the step number
        params = np.array([1.0], dtype=np.float64)
        grads = np.array([1.0], dtype=np.float64)
        state = AdamState.init(params)
        lr, eps = 0.01, 1e-8
        for k in range(1, 4):
            adam_step(params, grads, state, lr=lr)
            want = 1.0 - k * lr / (1.0 + eps)
            assert params[0] == pytest.approx(want, rel=1e-9)
        assert state.t == 3

    def test_descends_against_gradient_sign(self):
        params = np.array([0.0, 0.0], dtype=np.float32)
        grads = np.array([1.0, -1.0], dtype=np.float32)
        state = AdamState.init(params)
        adam_step(params, grads, state, lr=0.1)
        assert params[0] < 0 < params[1]

    def test_in_place_and_dtype_preserving(self):
        params = np.zeros(6, dtype=np.float32)
        view = params[2:4]
        state = AdamState.init(params)
        adam_step(params, np.ones(6, dtype=np.float32), state, lr=0.1)
        assert np.all(view < 0)  # the update landed in the buffer itself
        assert params.dtype == np.float32
        assert state.m.shape == state.v.shape == (6,)

    def test_two_runs_bitwise_equal(self):
        def run():
            rng = np.random.default_rng(5)
            params = rng.normal(size=16).astype(np.float32)
            state = AdamState.init(params)
            for i in range(10):
                g = rng.normal(size=16).astype(np.float32)
                adam_step(params, g, state, lr=0.003)
            return params

        assert np.array_equal(run(), run())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_slices_match_per_array_formula(self, dtype):
        # two slices and a few elements more, split into arrays whose
        # edges fall inside and across the slices
        n = 2 * trainer_mod._ADAM_SLICE + 5
        cuts = [0, 7, trainer_mod._ADAM_SLICE - 3, trainer_mod._ADAM_SLICE + 9, n - 2, n]
        spans = {i: slice(a, b) for i, (a, b) in enumerate(zip(cuts, cuts[1:]))}
        rng = np.random.default_rng(12)
        flat = rng.normal(size=n).astype(dtype)
        state = AdamState.init(flat)
        ref = {i: flat[s].copy() for i, s in spans.items()}
        ref_state = {
            "t": 0,
            "m": {i: np.zeros_like(p) for i, p in ref.items()},
            "v": {i: np.zeros_like(p) for i, p in ref.items()},
        }
        for step in range(4):
            grads = rng.normal(size=n).astype(dtype)
            grads[rng.random(n) < 0.1] = 0.0
            lr = 1e-3 * (step + 1)
            adam_step(flat, grads, state, lr=lr)
            per_array_adam_step(ref, {i: grads[s] for i, s in spans.items()}, ref_state, lr=lr)
        assert state.t == ref_state["t"] == 4
        assert flat.dtype == state.m.dtype == state.v.dtype == dtype
        for i, s in spans.items():
            assert flat[s].tobytes() == ref[i].tobytes(), i
            assert state.m[s].tobytes() == ref_state["m"][i].tobytes(), i
            assert state.v[s].tobytes() == ref_state["v"][i].tobytes(), i


class TestParseConfig:
    def test_types_and_comments(self, tmp_path):
        path = tmp_path / "train.conf"
        path.write_text(
            "# full line comment\n"
            "seed = 7\n"
            "base_lr = 3e-4\n"
            "dropout = true\n"
            "lr_policy = triangular2  # trailing comment\n"
            "\n"
            "modern_epochs=2\n",
            encoding="utf-8",
        )
        conf = parse_config_file(path)
        assert conf == {
            "seed": 7,
            "base_lr": 3e-4,
            "dropout": "true",  # stays text: no setting is a bool
            "lr_policy": "triangular2",
            "modern_epochs": 2,
        }
        assert isinstance(conf["seed"], int)
        assert isinstance(conf["base_lr"], float)

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("seed = 1\njust words\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2:"):
            parse_config_file(path)

    def test_empty_value_rejected(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("seed =\n", encoding="utf-8")
        with pytest.raises(ValueError):
            parse_config_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            parse_config_file(tmp_path / "nope.conf")


class TestPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainPlan(batch_size=0)
        with pytest.raises(ValueError):
            TrainPlan(modern_epochs=-1)
        with pytest.raises(ValueError):
            TrainPlan(checkpoint_every=-1)
        with pytest.raises(ValueError, match="seed"):
            TrainPlan(seed=1.5)
        with pytest.raises(ValueError, match="batch_size"):
            TrainPlan(batch_size=8.0)
        with pytest.raises(ValueError, match="base_lr"):
            TrainPlan(base_lr=0.1, max_lr=0.01)
        with pytest.raises(ValueError, match="max_lr"):
            TrainPlan(max_lr=math.inf)


TINY = dict(embed_dim=16, hidden_dim=16)


def tiny_train(root, out, **plan_kw):
    vocab = Vocabulary()
    config = ModelConfig(vocab_size=vocab.size, **TINY)
    defaults = dict(seed=3, premodern_epochs=1, modern_epochs=1, batch_size=32)
    defaults.update(plan_kw)
    return train(root, out, config=config, plan=TrainPlan(**defaults))


class TestTrain:
    def test_smoke_run(self, bundled_corpus_root, tmp_path):
        out = tmp_path / "model.nkdm"
        result = tiny_train(bundled_corpus_root, out)

        vocab = Vocabulary()
        chunks_pre = encode_document(load_corpus(bundled_corpus_root, "premodern"), vocab)
        chunks_mod = encode_document(load_corpus(bundled_corpus_root, "modern"), vocab)
        want_steps = -(-len(chunks_pre) // 32) - (-len(chunks_mod) // 32)
        assert result.steps == want_steps
        assert [e.step for e in result.history] == list(range(1, want_steps + 1))

        # phase boundary restarts the LR cycle at base_lr
        first_modern = next(e for e in result.history if e.split == "modern")
        assert first_modern.lr == TrainPlan().base_lr
        assert result.history[0].lr == TrainPlan().base_lr

        # one validation score per epoch, best checkpoint kept
        assert len(result.val_history) == 2
        assert result.best_path is not None and result.best_path.exists()
        assert result.best_wor == max(s for _, _, s in result.val_history)

        ckpt = load_checkpoint(out)
        assert ckpt.config.embed_dim == 16
        assert ckpt.meta["seed"] == 3
        assert ckpt.meta["step"] == want_steps
        assert ckpt.meta["final"] is True

        log_lines = (
            (tmp_path / "model.nkdm.log").read_text(encoding="utf-8").splitlines()
        )
        assert len(log_lines) == want_steps
        for i, line in enumerate(log_lines, start=1):
            step, lr, loss, split = line.split("\t")
            assert int(step) == i
            float(lr), float(loss)
            assert split in ("premodern", "modern")

    def test_two_runs_bitwise_identical(self, bundled_corpus_root, tmp_path):
        out1 = tmp_path / "a" / "m.nkdm"
        out2 = tmp_path / "b" / "m.nkdm"
        r1 = tiny_train(bundled_corpus_root, out1, seed=9)
        r2 = tiny_train(bundled_corpus_root, out2, seed=9)
        assert out1.read_bytes() == out2.read_bytes()
        assert [e.loss for e in r1.history] == [e.loss for e in r2.history]

    def test_seed_changes_trajectory(self, bundled_corpus_root, tmp_path):
        r1 = tiny_train(bundled_corpus_root, tmp_path / "a.nkdm", seed=1)
        r2 = tiny_train(bundled_corpus_root, tmp_path / "b.nkdm", seed=2)
        assert [e.loss for e in r1.history] != [e.loss for e in r2.history]

    def test_loss_trends_down(self, bundled_corpus_root, tmp_path):
        result = tiny_train(
            bundled_corpus_root,
            tmp_path / "m.nkdm",
            premodern_epochs=0,
            modern_epochs=8,
        )
        losses = [e.loss for e in result.history]
        q = max(1, len(losses) // 4)
        assert np.median(losses[-q:]) < np.median(losses[:q])

    def test_no_validation_split(self, bundled_corpus_root, tmp_path):
        root = tmp_path / "corpus"
        for split in ("premodern", "modern"):
            (root / split).mkdir(parents=True)
            src = sorted((bundled_corpus_root / split).rglob("*.txt"))[0]
            (root / split / src.name).write_bytes(src.read_bytes())
        result = tiny_train(root, tmp_path / "m.nkdm")
        assert result.val_history == []
        assert result.best_path is None

    def test_lr_cycle_runs_on_across_epochs(self, bundled_corpus_root, tmp_path):
        # a phase's second epoch takes up the cycle where the first left it
        result = tiny_train(
            bundled_corpus_root,
            tmp_path / "m.nkdm",
            premodern_epochs=0,
            modern_epochs=2,
            batch_size=16,
        )
        chunks = encode_document(load_corpus(bundled_corpus_root, "modern"), Vocabulary())
        per_epoch = -(-len(chunks) // 16)
        plan = TrainPlan()
        sched = LRSchedule(plan.base_lr, plan.max_lr, step_size_up=per_epoch)
        assert per_epoch > 1 and result.steps == 2 * per_epoch
        assert [e.lr for e in result.history] == [sched.lr_at(i) for i in range(result.steps)]

    def test_vocab_size_mismatch_rejected(self, bundled_corpus_root, tmp_path):
        config = ModelConfig(vocab_size=10, **TINY)
        with pytest.raises(ValueError, match="vocab"):
            train(bundled_corpus_root, tmp_path / "m.nkdm", config=config)

    def test_nonfinite_abort_keeps_last_snapshot(
        self, bundled_corpus_root, tmp_path, monkeypatch
    ):
        real = trainer_mod.loss_and_grads
        calls = {"n": 0}

        def poisoned(*args, **kw):
            calls["n"] += 1
            if calls["n"] > 2:
                raise NonFiniteLoss("loss is nan")
            return real(*args, **kw)

        monkeypatch.setattr(trainer_mod, "loss_and_grads", poisoned)
        out = tmp_path / "m.nkdm"
        with pytest.raises(NonFiniteLoss):
            tiny_train(
                bundled_corpus_root,
                out,
                premodern_epochs=0,
                modern_epochs=2,
                batch_size=16,
                checkpoint_every=1,
            )
        ckpt = load_checkpoint(out)  # snapshot from the last finished step
        assert ckpt.meta["step"] == 2


class TestProbe:
    def test_memorizes_small_sample(self, bundled_corpus_root):
        docs = load_corpus(bundled_corpus_root, "premodern")
        doc = doc_from_text(" ".join(d.text for d in docs[:2]), doc_id="probe")
        probe = overfit_probe(
            doc,
            embed_dim=32,
            hidden_dim=32,
            max_epochs=100,
            target=0.90,
            seed=0,
            batch_size=2,
        )
        assert probe.reached, probe.final_dec
        assert probe.epochs <= 100
        assert probe.final_dec >= 0.90
        assert probe.dec_history[-1] == probe.final_dec
        assert len(probe.loss_history) == probe.epochs
        assert probe.loss_history[-1] < probe.loss_history[0]

    def test_no_epochs_reaches_nothing(self):
        probe = overfit_probe(doc_from_text("שָׁלוֹם"), embed_dim=8, hidden_dim=8, max_epochs=0)
        assert probe.epochs == 0
        assert probe.final_dec == 0.0
        assert not probe.reached
        assert probe.dec_history == probe.loss_history == ()

    def test_document_without_decisions_scores_zero(self):
        doc = doc_from_text('... "!?" - 12, (ab).')  # no Hebrew letter
        probe = overfit_probe(doc, embed_dim=8, hidden_dim=8, max_epochs=2)
        assert probe.dec_history == (0.0, 0.0)
        assert probe.epochs == 2 and not probe.reached

    def test_epoch_without_steps_records_zero_loss(self):
        # blank text encodes to no chunks, so each epoch takes no step
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probe = overfit_probe(doc_from_text("   "), embed_dim=8, hidden_dim=8, max_epochs=2)
        assert probe.loss_history == probe.dec_history == (0.0, 0.0)


class TestPaperSize:
    def test_two_steps_bitwise_reproducible(self, bundled_corpus_root):
        # embed and hidden 400, two layers, dropout 0.1: two optimizer steps
        # on two batches of 4 bundled chunks of at most 24 letters, twice
        vocab = Vocabulary()
        config = ModelConfig(vocab_size=vocab.size, embed_dim=400, hidden_dim=400, dropout=0.1)
        doc = load_corpus(bundled_corpus_root, "modern")[0]
        chunks = encode_document([doc], vocab, max_len=24).take(slice(8))
        batches = make_batches(chunks, batch_size=4, seed=1)
        assert [b.size for b in batches] == [4, 4]
        assert all(b.letter_ids.shape[1] <= 24 for b in batches)

        def run():
            params = init_params(config, seed=7)
            adam = AdamState.init(flat_of(params))
            drop_rng = np.random.Generator(np.random.PCG64(8))
            losses = [
                trainer_mod._train_step(params, config, adam, b, drop_rng, lr=1e-3)
                for b in batches
            ]
            return params, adam, losses

        (p1, a1, l1), (p2, a2, l2) = run(), run()
        assert l1 == l2
        assert a1.t == a2.t == 2
        for name in p1:
            assert np.array_equal(p1[name], p2[name]), name
        assert np.array_equal(a1.m, a2.m)
        assert np.array_equal(a1.v, a2.v)
        assert not np.array_equal(p1["embedding"], init_params(config, seed=7)["embedding"])

    def test_loss_falls_every_step(self):
        # embed and hidden 400, two layers, dropout 0.1: five optimizer
        # steps on one fixed batch of 4 rows of at most 16 letters, fresh
        # dropout masks each step.  It read 1.459, 1.384, 1.280, 1.171, 1.100
        config = ModelConfig(vocab_size=Vocabulary().size, embed_dim=400, hidden_dim=400)
        ids, lengths, golds, masks = make_synthetic_batch(config, batch=4, width=16, seed=2)
        batch = Batch(ids, golds, masks, lengths, starts=np.zeros(4, np.int64))
        params = init_params(config, seed=7)
        adam = AdamState.init(flat_of(params))
        drop_rng = np.random.Generator(np.random.PCG64(8))
        losses = [
            trainer_mod._train_step(params, config, adam, batch, drop_rng, lr=1e-3)
            for _ in range(5)
        ]
        assert all(a > b for a, b in zip(losses, losses[1:])), losses
