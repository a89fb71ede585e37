"""Accuracy metrics for dotted text, scored at four granularities.

DEC counts every single classification decision; CHA requires all decisions
on a character to agree; WOR requires every character of a token to agree;
VOC relaxes WOR to pronunciation, so marks that read identically (qamats
versus patah, sheva versus nothing) do not count as errors.

:func:`score_document` computes all four from the two documents' label
arrays at once.  Gold and prediction are compared strictly position by
position, which only makes sense when their letter streams are identical;
any divergence raises rather than producing a silently shifted score.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .codec import BKP_LETTERS, Niqqud
from .corpus import Document, decision_masks, letter_mask, token_spans

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

    def __add__(self, other: "Counts") -> "Counts":
        return Counts(self.correct + other.correct, self.total + other.total)

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


def _tokens_ok(spans: np.ndarray, char_ok: np.ndarray) -> Counts:
    """Tokens, as (n, 2) spans, whose every letter is ok, by a running count
    of bad letters."""
    bad_before = np.concatenate(([0], np.cumsum(~char_ok)))
    bad = bad_before[spans[:, 1]] - bad_before[spans[:, 0]]
    return Counts(int((bad == 0).sum()), len(spans))


def score_document(gold: Document, pred: Document) -> DocScores:
    """All four metrics of one document pair.  Decisions are the letters'
    :func:`~hebdot.corpus.decision_masks`; pronunciation compares the vowel
    class, the sin dot on shin and the dagesh on b/k/p."""
    _check_letters(gold, pred)
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
    return DocScores(
        doc_id=gold.id,
        dec=Counts(int(slots.sum() - wrong.sum()), int(slots.sum())),
        cha=Counts(int((has & char_ok).sum()), int(has.sum())),
        wor=_tokens_ok(spans, char_ok),
        voc=_tokens_ok(spans, same_sound),
    )


@dataclass(frozen=True)
class Report:
    docs: tuple[DocScores, ...]
    macro: dict[str, float]
    skipped: tuple[str, ...]


def evaluate(golds: list[Document], preds: list[Document]) -> Report:
    """Score predictions against gold, macro-averaging over documents.

    Documents pair by id and every gold document must have a prediction.
    Documents with no decisions at all sit outside the average and are
    reported as skipped.  The macro average weighs every document equally,
    whatever its size.
    """
    by_id = {p.id: p for p in preds}
    missing = [g.id for g in golds if g.id not in by_id]
    if missing:
        raise ValueError(f"no prediction for document(s): {', '.join(missing)}")

    scored: list[DocScores] = []
    skipped: list[str] = []
    for g in golds:
        s = score_document(g, by_id[g.id])
        if s.dec.total == 0:
            skipped.append(g.id)
            log.warning("%s: no decisions, excluded from the average", g.id)
            continue
        if s.voc.correct < s.wor.correct:
            raise AssertionError(
                f"{g.id}: VOC below WOR, the relaxation is broken"
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
