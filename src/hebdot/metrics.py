"""Accuracy metrics for dotted text, scored at four granularities.

DEC counts every single classification decision; CHA requires all decisions
on a character to agree; WOR requires every character of a token to agree;
VOC relaxes WOR to pronunciation, so marks that read identically (qamats
versus patah, sheva versus nothing) do not count as errors.

:func:`evaluate` computes all four for every document pair at once, in
one pass over their label arrays; :func:`score_document` is its case of
one pair.  Gold and prediction are compared strictly position by
position, which only makes sense when their letter streams are identical;
any divergence raises rather than producing a silently shifted score.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .codec import BKP_LETTERS, Niqqud
from .corpus import CATEGORIES, Document, decision_masks, letter_mask, token_spans

__all__ = [
    "LetterStreamMismatch",
    "Counts",
    "DocScores",
    "Report",
    "METRIC_NAMES",
    "score_document",
    "evaluate",
    "render_report",
]

log = logging.getLogger(__name__)

METRIC_NAMES = ("dec", "cha", "wor", "voc")


class LetterStreamMismatch(Exception):
    """Gold and prediction disagree on the undotted text itself."""


@dataclass(frozen=True)
class Counts:
    correct: int
    total: int

    @property
    def ratio(self) -> float:
        if self.total == 0:
            raise ZeroDivisionError("no decisions to score")
        return self.correct / self.total


def _check_letters(gold: Document, pred: Document) -> None:
    """Raise LetterStreamMismatch at the first position where they diverge."""
    a, b = gold.letters, pred.letters
    if a != b:
        limit = min(len(a), len(b))
        at = next((i for i in range(limit) if a[i] != b[i]), limit)
        ga = a[at] if at < len(a) else "<end>"
        pb = b[at] if at < len(b) else "<end>"
        raise LetterStreamMismatch(
            f"{gold.id}: letter streams diverge at position {at}: "
            f"gold {ga!r} vs prediction {pb!r}"
        )


@dataclass(frozen=True)
class DocScores:
    doc_id: str
    dec: Counts
    cha: Counts
    wor: Counts
    voc: Counts

    def by_name(self, name: str) -> Counts:
        return getattr(self, name)


# The vowel a reader hears for each niqqud label value, indexed by the
# value: 0 for none (no mark, sheva), then a, e, i, o and u as 1 to 5.
_VOWEL_CLASS = np.zeros(len(Niqqud), np.int8)
_VOWEL_CLASS[[Niqqud.PATAH, Niqqud.QAMATS, Niqqud.HATAF_PATAH]] = 1
_VOWEL_CLASS[[Niqqud.TSERE, Niqqud.SEGOL, Niqqud.HATAF_SEGOL]] = 2
_VOWEL_CLASS[Niqqud.HIRIQ] = 3
_VOWEL_CLASS[[Niqqud.HOLAM, Niqqud.HATAF_QAMATS]] = 4
_VOWEL_CLASS[Niqqud.QUBUTS] = 5


def _score_pairs(golds: list[Document], preds: list[Document]) -> list[DocScores]:
    """All four metrics of each document pair, in one pass over the golds'
    letters joined by a space, which is never a decision and never inside
    a token; a document's counts are differences of running sums at its
    bounds.  Decisions are the letters' :func:`~hebdot.corpus.decision_masks`;
    pronunciation compares the vowel class, the sin dot on shin and the
    dagesh on b/k/p."""
    for gold, pred in zip(golds, preds):
        _check_letters(gold, pred)
    letters = " ".join(gold.letters for gold in golds)
    sizes = np.array([len(gold.letters) for gold in golds], dtype=np.intp)
    begins = np.cumsum(sizes + 1) - sizes - 1  # where each document's letters sit
    ends = begins + sizes

    def joined(docs: list[Document], k: str) -> np.ndarray:
        out = np.zeros(len(letters), np.int8)
        for doc, at, end in zip(docs, begins, ends):
            out[at:end] = doc.labels[k]
        return out

    g = {k: joined(golds, k) for k in CATEGORIES}
    p = {k: joined(preds, k) for k in CATEGORIES}
    masks = decision_masks(letters)
    slots = sum(m.astype(np.intp) for m in masks.values())
    wrong = sum((masks[k] & (g[k] != p[k])).astype(np.intp) for k in masks)
    char_ok = wrong == 0
    bkp = letter_mask(letters, BKP_LETTERS)
    same_sound = (
        (~masks["niqqud"] | (_VOWEL_CLASS[g["niqqud"]] == _VOWEL_CLASS[p["niqqud"]]))
        & (~masks["sin"] | (g["sin"] == p["sin"]))
        & (~bkp | ((g["dagesh"] != 0) == (p["dagesh"] != 0)))
    )
    has = slots > 0
    spans = token_spans(letters)
    first, last = np.searchsorted(spans[:, 0], begins), np.searchsorted(spans[:, 0], ends)

    def per_doc(values: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The sum of ``values[a[i]:b[i]]`` for every i."""
        running = np.concatenate(([0], np.cumsum(values)))
        return running[b] - running[a]

    def tokens_ok(ok: np.ndarray) -> np.ndarray:
        bad = per_doc(~ok, spans[:, 0], spans[:, 1])
        return per_doc(bad == 0, first, last)

    n_slots, n_wrong = per_doc(slots, begins, ends), per_doc(wrong, begins, ends)
    n_cha, n_has = per_doc(has & char_ok, begins, ends), per_doc(has, begins, ends)
    n_wor, n_voc, n_tokens = tokens_ok(char_ok), tokens_ok(same_sound), last - first
    return [
        DocScores(
            doc_id=gold.id,
            dec=Counts(int(n_slots[i] - n_wrong[i]), int(n_slots[i])),
            cha=Counts(int(n_cha[i]), int(n_has[i])),
            wor=Counts(int(n_wor[i]), int(n_tokens[i])),
            voc=Counts(int(n_voc[i]), int(n_tokens[i])),
        )
        for i, gold in enumerate(golds)
    ]


def score_document(gold: Document, pred: Document) -> DocScores:
    """All four metrics of one document pair."""
    return _score_pairs([gold], [pred])[0]


@dataclass(frozen=True)
class Report:
    docs: tuple[DocScores, ...]
    macro: dict[str, float]
    skipped: tuple[str, ...]


def evaluate(golds: list[Document], preds: list[Document]) -> Report:
    """Score predictions against gold, macro-averaging over documents.

    Documents pair by id and every gold document must have a prediction;
    all pairs are scored in one pass.  Documents with no decisions at all
    sit outside the average and are reported as skipped.  The macro average
    weighs every document equally, whatever its size.
    """
    by_id = {p.id: p for p in preds}
    missing = [g.id for g in golds if g.id not in by_id]
    if missing:
        raise ValueError(f"no prediction for document(s): {', '.join(missing)}")

    scored: list[DocScores] = []
    skipped: list[str] = []
    for s in _score_pairs(golds, [by_id[g.id] for g in golds]):
        if s.dec.total == 0:
            skipped.append(s.doc_id)
            log.warning("%s: no decisions, excluded from the average", s.doc_id)
            continue
        if s.voc.correct < s.wor.correct:
            raise AssertionError(
                f"{s.doc_id}: VOC below WOR, the relaxation is broken"
            )
        scored.append(s)
    if not scored:
        raise ValueError("no scorable documents")

    macro = {
        name: sum(s.by_name(name).ratio for s in scored) / len(scored)
        for name in METRIC_NAMES
    }
    return Report(docs=tuple(scored), macro=macro, skipped=tuple(skipped))


def render_report(report: Report, counts: bool = False) -> str:
    """Tab-separated rows per document plus a MACRO line, percentages with
    two decimals; ``counts`` appends raw correct/total pairs."""
    lines = ["doc_id\tdec\tcha\twor\tvoc"]
    for s in report.docs:
        cells = [s.doc_id]
        for name in METRIC_NAMES:
            c = s.by_name(name)
            cell = f"{100.0 * c.ratio:.2f}"
            if counts:
                cell += f" ({c.correct}/{c.total})"
            cells.append(cell)
        lines.append("\t".join(cells))
    macro_cells = ["MACRO"] + [
        f"{100.0 * report.macro[name]:.2f}" for name in METRIC_NAMES
    ]
    lines.append("\t".join(macro_cells))
    for doc_id in report.skipped:
        lines.append(f"# skipped {doc_id}: no decisions")
    return "\n".join(lines)
