import logging

import numpy as np
import pytest

from hebdot.codec import BKP_LETTERS, DAGESH_CAPABLE, HEBREW_LETTERS, insert_marks
from hebdot.corpus import (
    CATEGORIES, SPLITS, Document, decision_masks, letter_mask, load_corpus, token_spans
)
from hebdot.metrics import (
    _VOWEL_CLASS,
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
    def test_ratio(self):
        assert Counts(4, 10).ratio == 0.4

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


def per_document_scores(gold: Document, pred: Document) -> dict[str, tuple[int, int]]:
    """The four metrics of one pair by the per-document formula that scored
    each document on its own before scoring went to one pass: the oracle
    for the per-document totals the pass takes from running sums."""
    g, p = gold.labels, pred.labels
    masks = decision_masks(gold.letters)
    slots = sum(m.astype(np.intp) for m in masks.values())
    wrong = sum((masks[k] & (g[k] != p[k])).astype(np.intp) for k in masks)
    char_ok = wrong == 0
    bkp = letter_mask(gold.letters, BKP_LETTERS)
    same_sound = (
        (~masks["niqqud"] | (_VOWEL_CLASS[g["niqqud"]] == _VOWEL_CLASS[p["niqqud"]]))
        & (~masks["sin"] | (g["sin"] == p["sin"]))
        & (~bkp | ((g["dagesh"] != 0) == (p["dagesh"] != 0)))
    )
    has = slots > 0
    spans = token_spans(gold.letters)

    def tokens_ok(ok):
        bad_before = np.concatenate(([0], np.cumsum(~ok)))
        bad = bad_before[spans[:, 1]] - bad_before[spans[:, 0]]
        return int((bad == 0).sum()), len(spans)

    return {
        "dec": (int(slots.sum() - wrong.sum()), int(slots.sum())),
        "cha": (int((has & char_ok).sum()), int(has.sum())),
        "wor": tokens_ok(char_ok),
        "voc": tokens_ok(same_sound),
    }


class TestOnePass:
    """``evaluate`` scores all documents at once over their letters joined
    by a space; each document's counts must be those it gets alone."""

    # a geresh opens or closes a document, next to another's letters once
    # joined; one letter alone; a document with no decisions in between
    EDGES = ["א", "׳שלום", "צ׳", "ג׳ גדול", "שלום ג׳", "׳", "!?", "ב״ה", "צ׳ ׳צ"]

    def pairs(self, rng, root):
        docs = [doc_from_text(random_dotted(rng, t), doc_id=f"edge{i}")
                for i, t in enumerate(self.EDGES)]
        docs += [d for split in SPLITS for d in load_corpus(root, split)]
        docs += [Document(f"again/{d.id}", d.letters, d.labels) for d in docs]
        rng.shuffle(docs)
        return docs, [relabelled(rng, d, rng.choice([0.05, 0.5, 1.0])) for d in docs]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_document_formula(self, bundled_corpus_root, seed):
        golds, preds = self.pairs(np.random.default_rng(seed), bundled_corpus_root)
        report = evaluate(golds, preds)
        want = {g.id: per_document_scores(g, p) for g, p in zip(golds, preds)}
        assert report.skipped == tuple(i for i, w in want.items() if w["dec"][1] == 0)
        assert [s.doc_id for s in report.docs] == [
            i for i, w in want.items() if w["dec"][1] > 0
        ]
        for s in report.docs:
            for metric in ("dec", "cha", "wor", "voc"):
                got = s.by_name(metric)
                assert (got.correct, got.total) == want[s.doc_id][metric], (s.doc_id, metric)

    def test_edges_match_oracle(self):
        rng = np.random.default_rng(7)
        for text in self.EDGES:
            gold = doc_from_text(random_dotted(rng, text))
            pred = doc_from_text(random_dotted(rng, text))
            s = score_document(gold, pred)
            for metric, want in oracle_scores(gold, pred).items():
                got = s.by_name(metric)
                assert (got.correct, got.total) == want, (text, metric)

    def test_mismatch_names_its_document(self):
        golds = [doc_from_text("אבג", doc_id="a"), doc_from_text("אבג", doc_id="b")]
        preds = [golds[0], doc_from_text("אדג", doc_id="b")]
        with pytest.raises(LetterStreamMismatch, match="b: .*position 1"):
            evaluate(golds, preds)


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
