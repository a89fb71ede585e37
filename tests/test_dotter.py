import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import hebdot
from hebdot import corpus, dotter as dotter_module
from hebdot.codec import Niqqud, parse, strip_diacritics
from hebdot.corpus import (
    CATEGORIES,
    SPLITS,
    Document,
    Vocabulary,
    encode_document,
    load_corpus,
    make_batches,
)
from hebdot.dotter import Dotter, decode_labels
from hebdot.network import Checkpoint, ModelConfig, forward, init_params, load_checkpoint
from hebdot.trainer import TrainPlan, train

from conftest import oracle_mark_problems


SAMPLES = [
    "שלום עולם",
    "בראשית ברא אלהים",
    "הוא אמר: שמש!",
    "צה״ל קיבל 3 מטוסים חדשים",
    " offices בתל־אביב יש",
    "שָׁלוֹם שכבר מנוקד",
]


class TestDecodeLabels:
    def test_argmax_and_mask(self):
        logits = {
            "niqqud": np.zeros((1, 3, 12), dtype=np.float32),
            "dagesh": np.zeros((1, 3, 2), dtype=np.float32),
            "sin": np.zeros((1, 3, 2), dtype=np.float32),
        }
        logits["niqqud"][0, 0, 9] = 5.0
        logits["niqqud"][0, 1, 2] = 5.0
        logits["dagesh"][0, 0, 1] = 1.0
        logits["sin"][0, 2, 1] = 1.0
        masks = {
            "niqqud": np.array([[True, False, True]]),
            "dagesh": np.array([[True, True, False]]),
            "sin": np.array([[False, False, True]]),
        }
        labels = decode_labels(logits, masks)
        assert labels["niqqud"][0].tolist() == [9, 0, 0]  # pos 1 masked off
        assert labels["dagesh"][0].tolist() == [1, 0, 0]
        assert labels["sin"][0].tolist() == [0, 0, 2]  # head 1 -> SIN_DOT
        assert all(v.dtype == np.int8 for v in labels.values())

    def test_uniform_logits_tie_to_lowest(self):
        logits = {
            "niqqud": np.zeros((1, 1, 12), dtype=np.float32),
            "dagesh": np.zeros((1, 1, 2), dtype=np.float32),
            "sin": np.zeros((1, 1, 2), dtype=np.float32),
        }
        masks = {k: np.ones((1, 1), dtype=bool) for k in logits}
        labels = decode_labels(logits, masks)
        assert labels["niqqud"][0, 0] == 0
        assert labels["dagesh"][0, 0] == 0
        assert labels["sin"][0, 0] == 1  # lowest sin label is SHIN_DOT


class TestDot:
    @pytest.mark.parametrize("text", SAMPLES)
    def test_letters_preserved(self, random_dotter, text):
        assert strip_diacritics(random_dotter.dot(text)) == strip_diacritics(text)

    @pytest.mark.parametrize("text", SAMPLES)
    def test_insensitive_to_input_marks(self, random_dotter, text):
        assert random_dotter.dot(text) == random_dotter.dot(strip_diacritics(text))

    @pytest.mark.parametrize("text", SAMPLES)
    def test_idempotent(self, random_dotter, text):
        once = random_dotter.dot(text)
        assert random_dotter.dot(once) == once

    @pytest.mark.parametrize("text", SAMPLES)
    def test_output_marks_are_legal(self, random_dotter, text):
        out = random_dotter.dot(text)
        assert oracle_mark_problems(out) == []
        letters, labels, _ = parse(out)
        # every shin carries exactly one of the two dots
        for ch, sin in zip(letters, labels["sin"].tolist()):
            assert (sin != 0) == (ch == "ש"), ch

    def test_non_hebrew_passthrough(self, random_dotter):
        assert random_dotter.dot("hello, world 123!") == "hello, world 123!"
        assert random_dotter.dot("") == ""
        assert random_dotter.dot("   ") == "   "

    def test_raw_layout_untouched(self, random_dotter):
        # spacing, newlines and foreign runs survive byte for byte
        text = "שלום,\n  עולם \t abc"
        out = random_dotter.dot(text)
        assert strip_diacritics(out) == text
        assert "\n" in out and "\t" in out

    def test_batch_size_invariance(self, random_checkpoint):
        text = " ".join(SAMPLES)
        outs = {
            Dotter.load(random_checkpoint, batch_size=b).dot(text) for b in (1, 7, 64)
        }
        assert len(outs) == 1

    def test_load_matches_in_memory(self, random_checkpoint):
        ckpt = load_checkpoint(random_checkpoint)
        text = "אור וחושך משמשים בערבוביה"
        assert Dotter(ckpt).dot(text) == Dotter.load(random_checkpoint).dot(text)

    def test_bad_batch_size(self, random_checkpoint):
        with pytest.raises(ValueError):
            Dotter.load(random_checkpoint, batch_size=0)


class TestKeepExisting:
    def test_input_marks_win(self, random_dotter):
        # force a mark the random model would not predict: qamats on the qof
        marked = "קָטן"
        out = random_dotter.dot(marked, keep_existing=True)
        letters, labels, _ = parse(out)
        assert letters[0] == "ק"
        assert labels["niqqud"][0] == Niqqud.QAMATS

    def test_unmarked_letters_still_predicted(self, random_dotter):
        marked = "קָטן"
        kept = parse(random_dotter.dot(marked, keep_existing=True))[1]
        fresh = parse(random_dotter.dot("קטן"))[1]
        # the letters the input left bare take the model's output
        for k in CATEGORIES:
            assert kept[k][1:].tolist() == fresh[k][1:].tolist(), k

    def test_illegal_input_mark_dropped(self, random_dotter):
        # dagesh on aleph cannot be kept
        out = random_dotter.dot("אַבּ".replace("ב", "א"), keep_existing=True)
        assert oracle_mark_problems(out) == []
        letters, labels, _ = parse(out)
        assert letters == "אא"
        assert not labels["dagesh"].any()

    @pytest.mark.parametrize("text", ["א ַ ב", "ַשלום", "שלום ַ"])
    def test_orphan_marks_ignored(self, random_dotter, text):
        # a mark on no letter is dropped, as without the flag
        assert random_dotter.dot(text, keep_existing=True) == random_dotter.dot(text)

    def test_orphan_mark_next_to_kept_mark(self, random_dotter):
        out = random_dotter.dot("קָ ַטן", keep_existing=True)
        letters, labels, _ = parse(out)
        assert letters == "ק טן"
        assert labels["niqqud"][0] == Niqqud.QAMATS

    def test_without_flag_marks_are_ignored(self, random_dotter):
        assert random_dotter.dot("קָטן") == random_dotter.dot("קטן")


class TestDocuments:
    def test_dot_document_contract(self, random_dotter, bundled_corpus_root):
        doc = load_corpus(bundled_corpus_root, "validation")[0]
        (out,) = random_dotter.label_documents([doc])
        assert out.id == doc.id
        assert out.letters == doc.letters
        assert strip_diacritics(out.text) == doc.letters

    def test_dot_stream(self, random_dotter):
        lines = ["שורה אחת", "שורה שתיים", "", "no hebrew", "קָטן\n"]
        assert list(random_dotter.dot_stream(lines)) == [
            random_dotter.dot(line) for line in lines
        ]
        assert list(random_dotter.dot_stream(lines, keep_existing=True)) == [
            random_dotter.dot(line, keep_existing=True) for line in lines
        ]


def top2_gap(logits, masks):
    """Smallest margin between the two best logits over the live decisions
    of one batch; inf when it has none."""
    gap = np.inf
    for k, m in masks.items():
        if m.any():
            top2 = np.sort(logits[k][m], axis=-1)[:, -2:]
            gap = min(gap, float((top2[:, 1] - top2[:, 0]).min()))
    return gap


@pytest.fixture
def packing(monkeypatch):
    """Records every batch the dotter forms and the smallest top-2 logit gap
    over the batches it decodes."""
    seen = SimpleNamespace(batches=[], gap=np.inf)

    def recording_make_batches(*args, **kwargs):
        batches = corpus.make_batches(*args, **kwargs)
        seen.batches += batches
        return batches

    def recording_decode_labels(logits, masks):
        seen.gap = min(seen.gap, top2_gap(logits, masks))
        return decode_labels(logits, masks)

    monkeypatch.setattr(dotter_module, "make_batches", recording_make_batches)
    monkeypatch.setattr(dotter_module, "decode_labels", recording_decode_labels)
    return seen


def bundled_docs(root):
    return [d for split in SPLITS for d in load_corpus(root, split)]


def assert_packed_matches_single_rows(ckpt, docs, packed, gap):
    """Packed labels equal each document labelled alone, one row a batch."""
    alone = Dotter(ckpt, batch_size=1)
    assert len(packed) == len(docs)
    for doc, got in zip(docs, packed):
        assert (got.id, got.letters) == (doc.id, doc.letters)
        want = alone.label_documents([doc])[0].labels
        for k in CATEGORIES:
            assert np.array_equal(got.labels[k], want[k]), (
                f"{doc.id} {k}: labels differ; smallest top-2 logit gap {gap:.3g}"
            )


class TestLabelDocuments:
    def test_matches_per_document(self, random_checkpoint, bundled_corpus_root, packing):
        ckpt = load_checkpoint(random_checkpoint)
        docs = bundled_docs(bundled_corpus_root)
        packed = Dotter(ckpt).label_documents(docs)
        assert_packed_matches_single_rows(ckpt, docs, packed, packing.gap)

    def test_chunks_packed_across_documents(
        self, random_checkpoint, bundled_corpus_root, packing
    ):
        ckpt = load_checkpoint(random_checkpoint)
        docs = bundled_docs(bundled_corpus_root)
        packed = Dotter(ckpt, batch_size=3).label_documents(docs)
        batches = list(packing.batches)
        assert all(b.size == 3 for b in batches[:-1])
        widths = np.concatenate([b.lengths for b in batches])
        assert np.all(np.diff(widths) >= 0)  # sorted by length
        # a row's document is the one whose letters its start falls in
        ends = np.cumsum([len(d.letters) for d in docs])
        doc_of = [np.searchsorted(ends, b.starts, side="right") for b in batches]
        holding = defaultdict(set)
        for i, rows in enumerate(doc_of):
            for doc in rows:
                holding[doc].add(i)
        assert any(len(held) > 1 for held in holding.values())
        assert any(len(set(rows)) > 1 for rows in doc_of)
        assert_packed_matches_single_rows(ckpt, docs, packed, packing.gap)

    def test_document_without_chunks(self, random_dotter, bundled_corpus_root):
        blank = {k: np.zeros(1, dtype=np.int8) for k in CATEGORIES}
        space = Document("space", " ", blank)
        doc = load_corpus(bundled_corpus_root, "test")[0]
        out = random_dotter.label_documents([space, doc, space])
        for got in (out[0], out[2]):
            assert got.letters == " "
            assert all(got.labels[k].tolist() == [0] for k in CATEGORIES)
        want = random_dotter.label_documents([doc])[0].labels
        assert all(np.array_equal(out[1].labels[k], want[k]) for k in CATEGORIES)
        assert random_dotter.label_documents([]) == []
        (alone,) = random_dotter.label_documents([space])
        assert alone.letters == " "
        assert all(alone.labels[k].tolist() == [0] for k in CATEGORIES)
        assert random_dotter.dot("") == ""
        assert random_dotter.dot(" ") == " "


class TestPaperSize:
    def test_dotting_changes_only_diacritics(self, bundled_corpus_root):
        vocab = Vocabulary()
        config = ModelConfig(
            vocab_size=vocab.size, embed_dim=400, hidden_dim=400, num_layers=2
        )
        ckpt = Checkpoint(
            params=init_params(config, seed=9), config=config, vocab=vocab, meta={}
        )
        dotter = Dotter(ckpt)
        lines = [
            line
            for path in sorted(bundled_corpus_root.rglob("*.txt"))
            for line in path.read_text(encoding="utf-8").splitlines(keepends=True)
        ]
        for keep in (False, True):
            for line in lines:
                out = dotter.dot(line, keep_existing=keep)
                assert strip_diacritics(out) == strip_diacritics(line), (keep, line)
                assert oracle_mark_problems(out) == [], (keep, line)


@pytest.fixture(scope="module")
def wide_checkpoint():
    """Untrained model at hidden 128, where BLAS blocking makes a row's
    logits depend slightly on the batch around it."""
    vocab = Vocabulary()
    config = ModelConfig(vocab_size=vocab.size, embed_dim=128, hidden_dim=128)
    return Checkpoint(
        params=init_params(config, seed=4), config=config, vocab=vocab, meta={}
    )


def smallest_top2_gap(ckpt, docs, batch_size):
    """Smallest margin between the two best logits over every live decision."""
    gap = np.inf
    for doc in docs:
        chunks = encode_document([doc], ckpt.vocab)
        for batch in make_batches(chunks, batch_size, seed=None):
            logits, _ = forward(ckpt.params, ckpt.config, batch.letter_ids, batch.lengths)
            gap = min(gap, top2_gap(logits, batch.masks))
    return gap


class TestNearPaperSize:
    def test_labels_invariant_to_batch_size(
        self, wide_checkpoint, bundled_corpus_root, record_property
    ):
        # Logits are not bitwise invariant to batching at this size, labels
        # are.  The smallest top-2 gap is reported, so a near-tie shows up
        # as a number next to a failure rather than as a flaky test.
        docs = [d for split in SPLITS for d in load_corpus(bundled_corpus_root, split)]
        gap = smallest_top2_gap(wide_checkpoint, docs, batch_size=64)
        record_property("min_top2_logit_gap", gap)
        print(f"smallest top-2 logit gap over {len(docs)} documents: {gap:.3g}")
        one, many = Dotter(wide_checkpoint, batch_size=1), Dotter(wide_checkpoint, batch_size=64)
        for doc in docs:
            a = one.label_documents([doc])[0].labels
            b = many.label_documents([doc])[0].labels
            for k in a:
                assert np.array_equal(a[k], b[k]), (
                    f"{doc.id} {k}: labels differ; smallest top-2 logit gap {gap:.3g}"
                )

    def test_packed_labels_match_per_document(
        self, wide_checkpoint, bundled_corpus_root, packing, record_property
    ):
        # The gap is taken over the packed batches, whose rows come from
        # several documents at once.
        docs = bundled_docs(bundled_corpus_root)
        packed = Dotter(wide_checkpoint).label_documents(docs)
        gap = packing.gap
        record_property("min_top2_logit_gap_packed", gap)
        print(f"smallest top-2 logit gap over packed batches: {gap:.3g}")
        assert_packed_matches_single_rows(wide_checkpoint, docs, packed, gap)


class TestBlasThreadCounts:
    def test_dot_and_eval_match_across_thread_counts(
        self, bundled_corpus_root, tmp_path, packing, record_property
    ):
        # Trained weights can differ in their last bits across BLAS thread
        # counts; dotting and eval with one model must not.  NumPy fixes the
        # count when it loads, so each run is its own process.
        model = tmp_path / "m.nkdm"
        config = ModelConfig(vocab_size=Vocabulary().size, embed_dim=16, hidden_dim=16)
        plan = TrainPlan(seed=3, premodern_epochs=0, modern_epochs=1, batch_size=16)
        train(bundled_corpus_root, model, config=config, plan=plan)
        text = tmp_path / "modern.txt"
        text.write_bytes(b"".join(
            p.read_bytes() for p in sorted((bundled_corpus_root / "modern").glob("*.txt"))
        ))
        src = str(Path(hebdot.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

        def hebdot_at(threads, *argv):
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(threads)}
            done = subprocess.run(
                [sys.executable, "-m", "hebdot.cli", *argv, "--model", str(model)],
                env=env, capture_output=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr.decode()
            return done.stdout

        outs = {
            threads: (
                hebdot_at(threads, "dot", str(text)),
                hebdot_at(threads, "eval", "--gold", str(bundled_corpus_root / "test"), "--counts"),
            )
            for threads in (1, 2)
        }
        # the same labelling in this process, for the smallest top-2 gap
        dotter = Dotter.load(model)
        dotter.label_documents(load_corpus(bundled_corpus_root, "test"))
        list(dotter.dot_stream(text.read_text(encoding="utf-8").splitlines(True)))
        record_property("min_top2_logit_gap", packing.gap)
        assert outs[1][0] == outs[2][0], f"dot differs; smallest top-2 logit gap {packing.gap:.3g}"
        assert outs[1][1] == outs[2][1], f"eval differs; smallest top-2 logit gap {packing.gap:.3g}"
