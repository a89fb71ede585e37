"""Acceptance gate: one test per shipping criterion, one verdict line each.

Criteria that need the published corpus read its location from
HEBDOT_CORPUS_ROOT and otherwise fall back to the bundled sample corpus or
skip, stating which happened.  HEBDOT_RUN_SLOW=1 additionally enables the
long training run.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from hebdot.codec import parse, strip_diacritics
from hebdot.corpus import (
    Document,
    Vocabulary,
    chunk_spans,
    hebrew_token_count,
    load_corpus,
    split_stats,
)
from hebdot.dotter import Dotter, decode_labels
from hebdot.metrics import evaluate, score_document
from hebdot.network import (
    HEAD_SIZES,
    ModelConfig,
    gradient_check,
    load_checkpoint,
    make_dropout_masks,
    make_synthetic_batch,
    masked_loss,
)
from hebdot.trainer import LRSchedule, TrainPlan, overfit_probe, train

from conftest import micro_documents, oracle_scores
from test_metrics import random_dotted


def verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag}: {detail}"


def corpus_label() -> str:
    return "external corpus" if os.environ.get("HEBDOT_CORPUS_ROOT") else "bundled sample corpus"


class TestAcceptance:
    def test_c01_codec_round_trip_fixed_point(self, corpus_root):
        start = time.time()
        files = sorted(Path(corpus_root).rglob("*.txt"))
        assert files, f"no corpus files under {corpus_root}"
        violations = 0
        checked = 0
        for path in files:
            raw = path.read_text(encoding="utf-8")
            first = Document.from_text(path.stem, raw)
            once = first.text
            again = Document.from_text(path.stem, once)
            if again.text != once:
                violations += 1
            if again.letters != first.letters or any(
                not np.array_equal(again.labels[k], first.labels[k]) for k in again.labels
            ):
                violations += 1
            if strip_diacritics(once) != parse(strip_diacritics(raw))[0]:
                violations += 1
            checked += 1
        elapsed = time.time() - start
        verdict(
            "C1",
            violations == 0 and elapsed < 60.0,
            f"load-render fixed point and letter streams intact on "
            f"{checked} files of the {corpus_label()}, {violations} violations, "
            f"{elapsed:.1f}s",
        )

    def test_c02_gradient_check(self):
        start = time.time()
        config = ModelConfig(vocab_size=10, embed_dim=8, hidden_dim=8)
        batch, width = 2, 12
        ids, lengths, golds, masks = make_synthetic_batch(config, batch, width, seed=0)
        dropout_masks = make_dropout_masks(
            config, batch, width, np.random.Generator(np.random.PCG64(7))
        )
        report = gradient_check(
            config,
            ids,
            lengths,
            golds,
            masks,
            seed=0,
            step=1e-3,
            samples_per_array=500,
            tolerance=1e-4,
            dropout_masks=dropout_masks,
        )
        elapsed = time.time() - start
        verdict(
            "C2",
            report.passed and elapsed < 60.0,
            f"analytic vs central differences: {report.samples} sampled "
            f"coordinates across {len(report.per_array)} arrays, worst relative "
            f"error {report.max_rel_err:.2e} (tolerance 1e-4), {elapsed:.1f}s",
        )

    def test_c03_masking_blocks_dead_positions(self):
        rng = np.random.default_rng(42)
        batches = 1000
        for _ in range(batches):
            b = int(rng.integers(1, 5))
            t = int(rng.integers(1, 13))
            logits = {
                k: rng.normal(size=(b, t, n)).astype(np.float32)
                for k, n in HEAD_SIZES.items()
            }
            golds = {
                "niqqud": rng.integers(0, 12, (b, t)).astype(np.int8),
                "dagesh": rng.integers(0, 2, (b, t)).astype(np.int8),
                "sin": rng.integers(0, 3, (b, t)).astype(np.int8),
            }
            masks = {k: rng.random((b, t)) < 0.5 for k in HEAD_SIZES}
            before = masked_loss(logits, golds, masks)
            poked = {k: v.copy() for k, v in logits.items()}
            for k in HEAD_SIZES:
                dead = ~masks[k]
                poked[k][dead] = rng.normal(size=(int(dead.sum()), HEAD_SIZES[k])) * 100
            after = masked_loss(poked, golds, masks)
            assert after == before, "masked logits moved the loss"
            labels = decode_labels(poked, masks)
            for k in HEAD_SIZES:
                assert not labels[k][~masks[k]].any(), "masked position decoded non-null"
        verdict(
            "C3",
            True,
            f"{batches} random batches: randomized logits at masked positions "
            f"shifted the loss by exactly 0 and always decoded to the null label",
        )

    def test_c04_metrics_equal_independent_oracle(self):
        micro = micro_documents()
        assert len(micro) == 25
        for name, gold, pred in micro:
            scores = score_document(gold, pred)
            want = oracle_scores(gold, pred)
            for metric in ("dec", "cha", "wor", "voc"):
                got = scores.by_name(metric)
                assert (got.correct, got.total) == want[metric], (name, metric)
        by_name = {name: (g, p) for name, g, p in micro}
        s = score_document(*by_name["qamats_vs_patah"])
        assert (s.wor.correct, s.voc.correct) == (0, 1), "qamats≈patah must count for VOC"
        s = score_document(*by_name["sheva_vs_none"])
        assert (s.wor.correct, s.voc.correct) == (0, 1), "sheva≈null must count for VOC"
        s = score_document(*by_name["bet_dagesh_missing"])
        assert (s.wor.correct, s.voc.correct) == (0, 0), "bet dagesh must stay wrong for VOC"
        verdict(
            "C4",
            True,
            "DEC/CHA/WOR/VOC equal the brute-force oracle on all 25 micro "
            "documents, including the three pronunciation-equivalence cases",
        )

    def test_c05_voc_never_below_wor(self, bundled_corpus_root):
        from hebdot.codec import HEBREW_LETTERS
        from conftest import doc_from_text

        rng = np.random.default_rng(2026)
        alphabet = list(HEBREW_LETTERS)
        pairs = 500
        for _ in range(pairs):
            words = [
                "".join(rng.choice(alphabet, size=rng.integers(1, 7)))
                for _ in range(rng.integers(1, 6))
            ]
            letters = " ".join(words)
            gold = doc_from_text(random_dotted(rng, letters), doc_id="g")
            pred = doc_from_text(random_dotted(rng, letters), doc_id="g")
            s = score_document(gold, pred)
            assert s.voc.correct >= s.wor.correct, letters
        # evaluate() re-asserts the same invariant on every run it scores
        docs = load_corpus(bundled_corpus_root, "validation")
        evaluate(docs, docs)
        verdict(
            "C5",
            True,
            f"VOC ≥ WOR held on every document of {pairs} random pairs, and "
            f"evaluate() asserts it continuously",
        )

    def test_c06_overfit_probe(self, bundled_corpus_root):
        from conftest import doc_from_text

        start = time.time()
        texts = []
        tokens = 0
        for doc in load_corpus(bundled_corpus_root, "modern"):
            texts.append(doc.text)
            tokens += hebrew_token_count(doc.letters)
            if tokens >= 500:
                break
        assert tokens >= 500, "sample must reach 500 tokens"
        doc = doc_from_text(" ".join(texts), doc_id="probe")
        probe = overfit_probe(
            doc, embed_dim=64, hidden_dim=64, max_epochs=200, target=0.995, seed=0
        )
        elapsed = time.time() - start
        verdict(
            "C6",
            probe.reached and probe.epochs <= 200 and elapsed < 600.0,
            f"{tokens}-token sample memorized to DEC "
            f"{100.0 * probe.final_dec:.2f}% in {probe.epochs} epochs "
            f"(d=h=64), {elapsed:.0f}s of the 600s budget",
        )

    def test_c07_cyclical_lr_closed_form(self):
        sched = LRSchedule(base_lr=3e-4, max_lr=3e-3, step_size_up=100)
        anchors = (
            sched.lr_at(0) == 3e-4
            and sched.lr_at(100) == 3e-3
            and sched.lr_at(200) == 3e-4
        )
        periodic = True
        for sup in (1, 37, 100):
            s = LRSchedule(base_lr=3e-4, max_lr=3e-3, step_size_up=sup)
            period = 2 * sup
            for step in range(0, period):
                if s.lr_at(step) != s.lr_at(step + period):
                    periodic = False
            if s.lr_at(sup) != 3e-3 or s.lr_at(period) != 3e-4:
                periodic = False
        verdict(
            "C7",
            anchors and periodic,
            "triangle hits base/max/base exactly at cycle start/peak/end and "
            "repeats bitwise with period 2·step_size_up",
        )

    def test_c08_determinism(self, bundled_corpus_root, tmp_path):
        config = ModelConfig(vocab_size=Vocabulary().size, embed_dim=16, hidden_dim=16)
        plan = TrainPlan(seed=13, premodern_epochs=1, modern_epochs=1, batch_size=32)
        out1, out2 = tmp_path / "r1" / "m.nkdm", tmp_path / "r2" / "m.nkdm"
        train(bundled_corpus_root, out1, config=config, plan=plan)
        train(bundled_corpus_root, out2, config=config, plan=plan)
        identical_ckpt = out1.read_bytes() == out2.read_bytes()

        pool = " ".join(d.text for d in load_corpus(bundled_corpus_root, "modern"))
        letters = strip_diacritics(pool)
        while len(letters) < 10_000:
            letters += " " + letters
        letters = letters[:10_000].rstrip()

        dotter = Dotter.load(out1)
        whole = dotter.dot(letters)
        across_runs = Dotter.load(out1).dot(letters) == whole
        other_ckpt = Dotter.load(out2).dot(letters) == whole
        across_batch = all(
            Dotter.load(out1, batch_size=b).dot(letters) == whole for b in (1, 17, 64)
        )
        pieces = [letters[s:e] for s, e in chunk_spans(letters, 80)]
        split_out = "".join(dotter.dot(p) for p in pieces)
        across_splits = split_out == whole

        verdict(
            "C8",
            identical_ckpt and across_runs and other_ckpt and across_batch and across_splits,
            f"same-seed training runs byte-identical for one NumPy/BLAS build "
            f"at one BLAS thread count ({'yes' if identical_ckpt else 'NO'}); dotting a "
            f"{len(letters)}-char document is stable across runs, reloads, "
            f"batch sizes 1/17/64 and chunk-boundary splits "
            f"({len(pieces)} pieces)",
        )

    def test_c09_published_corpus_statistics(self):
        root = os.environ.get("HEBDOT_CORPUS_ROOT")
        if not root:
            pytest.skip(
                "[C9] SKIP - needs the published corpus; set HEBDOT_CORPUS_ROOT "
                "to its root (no network access in this environment)"
            )
        docs = load_corpus(Path(root), "modern")
        stats = split_stats(docs)
        want_docs, want_tokens = 413, 274_436
        tokens_ok = abs(stats.tokens - want_tokens) / want_tokens <= 0.01
        verdict(
            "C9",
            stats.documents == want_docs and tokens_ok,
            f"modern split: {stats.documents} documents (want {want_docs}), "
            f"{stats.tokens} Hebrew tokens (want {want_tokens} ±1%)",
        )

    def test_c10_full_training_recipe(self, tmp_path):
        root = os.environ.get("HEBDOT_CORPUS_ROOT")
        slow = os.environ.get("HEBDOT_RUN_SLOW") == "1"
        if not (root and slow):
            pytest.skip(
                "[C10] SKIP - optional long run; needs HEBDOT_CORPUS_ROOT and "
                "HEBDOT_RUN_SLOW=1 (hours of CPU)"
            )
        root = Path(root)
        config = ModelConfig(vocab_size=Vocabulary().size)
        result = train(root, tmp_path / "full.nkdm", config=config, plan=TrainPlan(seed=0))
        assert result.best_wor is not None
        wor_ok = result.best_wor >= 0.80

        # data-fraction trend: median held-out WOR error must not rise with
        # more modern training data
        modern = load_corpus(root, "modern")
        medians = []
        for frac in (0.25, 0.50, 0.75, 1.00):
            keep = modern[: max(1, int(len(modern) * frac))]
            sub = tmp_path / f"frac{int(frac * 100)}"
            (sub / "modern").mkdir(parents=True)
            for d in keep:
                (sub / "modern" / f"{d.id.replace('/', '_')}.txt").write_text(
                    d.text + "\n", encoding="utf-8"
                )
            for split in ("premodern", "validation"):
                (sub / split).symlink_to(root / split)
            scores = []
            for seed in (0, 1, 2):
                r = train(
                    sub,
                    tmp_path / f"m{frac}_{seed}.nkdm",
                    config=config,
                    plan=TrainPlan(seed=seed),
                )
                scores.append(1.0 - (r.best_wor or 0.0))
            medians.append(float(np.median(scores)))
        trend_ok = all(b <= a + 1e-12 for a, b in zip(medians, medians[1:]))
        verdict(
            "C10",
            wor_ok and trend_ok,
            f"full recipe best validation WOR {100.0 * result.best_wor:.2f}% "
            f"(need ≥80%); median WOR error by modern fraction {medians}",
        )
