import logging

import numpy as np
import pytest

from hebdot.codec import DAGESH_CAPABLE, HEBREW_LETTERS, insert_marks
from hebdot.corpus import CATEGORIES, SPLITS, Document, load_corpus
from hebdot.metrics import (
    Counts,
    LetterStreamMismatch,
    evaluate,
    render_report,
    score_document,
)

from conftest import doc_from_text, micro_documents, oracle_scores


MICRO = micro_documents()
MICRO_BY_NAME = {name: (gold, pred) for name, gold, pred in MICRO}


class TestCounts:
    def test_add_and_ratio(self):
        c = Counts(3, 4) + Counts(1, 6)
        assert c == Counts(4, 10)
        assert c.ratio == 0.4

    def test_empty_ratio_raises(self):
        with pytest.raises(ZeroDivisionError):
            Counts(0, 0).ratio


class TestAlign:
    """Scoring pairs letters by position, so the streams must agree."""

    def test_divergence_position_reported(self):
        a = doc_from_text("אבג", doc_id="x")
        b = doc_from_text("אדג", doc_id="x")
        with pytest.raises(LetterStreamMismatch, match="position 1"):
            score_document(a, b)

    def test_length_mismatch_reported(self):
        a = doc_from_text("אבג", doc_id="x")
        b = doc_from_text("אב", doc_id="x")
        with pytest.raises(LetterStreamMismatch, match="<end>"):
            score_document(a, b)


class TestAgainstOracle:
    @pytest.mark.parametrize("name,gold,pred", MICRO, ids=[m[0] for m in MICRO])
    def test_all_four_metrics_exact(self, name, gold, pred):
        scores = score_document(gold, pred)
        want = oracle_scores(gold, pred)
        for metric in ("dec", "cha", "wor", "voc"):
            got = scores.by_name(metric)
            assert (got.correct, got.total) == want[metric], metric


class TestHandFrozen:
    def test_dec_identical_word(self):
        gold, pred = MICRO_BY_NAME["identical"]
        # shin 3 slots, lamed 2, vav 2, final mem 1
        assert score_document(gold, pred).dec == Counts(8, 8)

    def test_qamats_patah_same_pronunciation(self):
        s = score_document(*MICRO_BY_NAME["qamats_vs_patah"])
        assert s.wor == Counts(0, 1)
        assert s.voc == Counts(1, 1)

    def test_sheva_null_same_pronunciation(self):
        s = score_document(*MICRO_BY_NAME["sheva_vs_none"])
        assert s.wor == Counts(0, 1)
        assert s.voc == Counts(1, 1)

    def test_bet_dagesh_changes_pronunciation(self):
        s = score_document(*MICRO_BY_NAME["bet_dagesh_missing"])
        assert s.wor == Counts(0, 1)
        assert s.voc == Counts(0, 1)

    def test_tav_dagesh_does_not(self):
        s = score_document(*MICRO_BY_NAME["tav_dagesh_missing"])
        assert s.wor == Counts(0, 1)
        assert s.voc == Counts(1, 1)

    def test_sin_side_changes_pronunciation(self):
        s = score_document(*MICRO_BY_NAME["sin_vs_shin"])
        assert s.voc == Counts(0, 1)

    def test_maqaf_splits_tokens(self):
        s = score_document(*MICRO_BY_NAME["maqaf_two_tokens"])
        assert s.wor == Counts(1, 2)

    def test_acronym_is_one_token(self):
        s = score_document(*MICRO_BY_NAME["acronym"])
        assert s.wor == Counts(1, 1)

    def test_punct_only_has_nothing(self):
        s = score_document(*MICRO_BY_NAME["punct_only"])
        assert s.dec == Counts(0, 0)
        assert s.wor == Counts(0, 0)

    def test_everything_off_scores_zero(self):
        s = score_document(*MICRO_BY_NAME["everything_off"])
        assert s.dec == Counts(0, 8)
        assert s.cha == Counts(0, 4)
        assert s.wor == Counts(0, 1)
        assert s.voc == Counts(0, 1)


def random_marked(rng, letters: str) -> dict[str, np.ndarray]:
    """A random legal labelling of a letter stream: every Hebrew letter
    draws its dagesh if it can carry one, its dot if it is shin, and its
    niqqud; everything else stays bare."""
    rows = []
    for ch in letters:
        if ch not in HEBREW_LETTERS:
            rows.append((0, 0, 0))
            continue
        dagesh = int(rng.integers(0, 2)) if ch in DAGESH_CAPABLE else 0
        sin = int(rng.integers(0, 3)) if ch == "ש" else 0
        rows.append((int(rng.integers(0, 12)), dagesh, sin))
    columns = np.array(rows, np.int8).reshape(-1, len(CATEGORIES)).T
    return dict(zip(CATEGORIES, columns))


def random_dotted(rng, letters: str) -> str:
    """Dotted text of a random legal labelling of ``letters``."""
    return insert_marks(letters, range(1, len(letters) + 1), random_marked(rng, letters))


def relabelled(rng, doc: Document, share: float) -> Document:
    """Copy of ``doc`` whose letters take a random legal labelling with
    probability ``share`` each, and keep their own otherwise."""
    fresh = random_marked(rng, doc.letters)
    flip = rng.random(len(doc.letters)) < share
    labels = {k: np.where(flip, fresh[k], doc.labels[k]) for k in CATEGORIES}
    return Document(doc.id, doc.letters, labels)


class TestVocNeverBelowWor:
    def test_random_pairs(self, bundled_corpus_root):
        rng = np.random.default_rng(123)
        alphabet = list(HEBREW_LETTERS)
        pairs = []
        for trial in range(300):
            words = [
                "".join(rng.choice(alphabet, size=rng.integers(1, 6)))
                for _ in range(rng.integers(1, 5))
            ]
            letters = " ".join(words)
            gold = doc_from_text(random_dotted(rng, letters), doc_id="g")
            pred = doc_from_text(random_dotted(rng, letters), doc_id="g")
            pairs.append((letters, gold, pred))
        # whole documents: punctuation, digits, geresh acronyms and maqaf
        for split in SPLITS:
            for doc in load_corpus(bundled_corpus_root, split):
                for share in (0.02, 0.2, 1.0):
                    pairs.append((doc.id, doc, relabelled(rng, doc, share)))
        for name, gold, pred in pairs:
            s = score_document(gold, pred)
            assert s.voc.correct >= s.wor.correct, name
            assert s.voc.total == s.wor.total
            want = oracle_scores(gold, pred)
            for metric in ("dec", "cha", "wor", "voc"):
                got = s.by_name(metric)
                assert (got.correct, got.total) == want[metric], (name, metric)


class TestEvaluate:
    def test_pairs_by_id_any_order(self):
        golds = [MICRO_BY_NAME["identical"][0], MICRO_BY_NAME["everything_off"][0]]
        preds = [MICRO_BY_NAME["everything_off"][1], MICRO_BY_NAME["identical"][1]]
        report = evaluate(golds, preds)
        assert [s.doc_id for s in report.docs] == ["identical", "everything_off"]

    def test_missing_prediction_rejected(self):
        gold, pred = MICRO_BY_NAME["identical"]
        with pytest.raises(ValueError, match="everything_off"):
            evaluate([gold, MICRO_BY_NAME["everything_off"][0]], [pred])

    def test_no_decision_docs_skipped(self, caplog):
        golds = [MICRO_BY_NAME["identical"][0], MICRO_BY_NAME["punct_only"][0]]
        preds = [MICRO_BY_NAME["identical"][1], MICRO_BY_NAME["punct_only"][1]]
        with caplog.at_level(logging.WARNING):
            report = evaluate(golds, preds)
        assert report.skipped == ("punct_only",)
        assert [s.doc_id for s in report.docs] == ["identical"]
        assert any("no decisions" in r.message for r in caplog.records)

    def test_nothing_scorable_rejected(self):
        gold, pred = MICRO_BY_NAME["punct_only"]
        with pytest.raises(ValueError, match="no scorable"):
            evaluate([gold], [pred])
        with pytest.raises(ValueError, match="no scorable"):
            evaluate([], [])

    def test_macro_weighs_documents_equally(self):
        # doc A: 1 token right of 1; doc B: 1 of 2.  macro = (1.0 + 0.5) / 2
        golds = [MICRO_BY_NAME["identical"][0], MICRO_BY_NAME["two_tokens_one_bad"][0]]
        preds = [MICRO_BY_NAME["identical"][1], MICRO_BY_NAME["two_tokens_one_bad"][1]]
        report = evaluate(golds, preds)
        assert report.macro["wor"] == pytest.approx(0.75)

    def test_macro_matches_oracle_means(self):
        golds = [g for _, g, _ in MICRO]
        preds = [p for _, _, p in MICRO]
        report = evaluate(golds, preds)
        oracle = {}
        scorable = [
            (g, p) for g, p in zip(golds, preds) if oracle_scores(g, p)["dec"][1] > 0
        ]
        for metric in ("dec", "cha", "wor", "voc"):
            vals = []
            for g, p in scorable:
                c, t = oracle_scores(g, p)[metric]
                vals.append(c / t)
            oracle[metric] = sum(vals) / len(vals)
        for metric, want in oracle.items():
            assert report.macro[metric] == pytest.approx(want, rel=1e-12), metric


class TestRender:
    def _report(self):
        golds = [MICRO_BY_NAME["identical"][0], MICRO_BY_NAME["punct_only"][0]]
        preds = [MICRO_BY_NAME["identical"][1], MICRO_BY_NAME["punct_only"][1]]
        return evaluate(golds, preds)

    def test_plain_format(self):
        text = render_report(self._report())
        lines = text.splitlines()
        assert lines[0] == "doc_id\tdec\tcha\twor\tvoc"
        assert lines[1] == "identical\t100.00\t100.00\t100.00\t100.00"
        assert lines[2] == "MACRO\t100.00\t100.00\t100.00\t100.00"
        assert lines[3] == "# skipped punct_only: no decisions"

    def test_counts_mode(self):
        text = render_report(self._report(), counts=True)
        assert "100.00 (8/8)" in text.splitlines()[1]

    def test_partial_percentages(self):
        gold, pred = MICRO_BY_NAME["two_tokens_one_bad"]
        text = render_report(evaluate([gold], [pred]))
        row = text.splitlines()[1].split("\t")
        assert row[0] == "two_tokens_one_bad"
        assert row[3] == "50.00"
