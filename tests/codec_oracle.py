"""Per-character reference implementations for :func:`hebdot.codec.parse`.

These are the walks that ``parse`` replaced, kept with their logic so
property tests can compare the single pass against them:
``normalize_mapped`` normalizes while recording which raw span produced
each output character, ``normalize`` keeps its text, ``decompose`` turns
normalized text into one ``(letter, niqqud, dagesh, sin)`` tuple per base
character, and ``drop_orphan_marks`` removes the marks that sit on no
Hebrew letter.  They classify through the public ``char_class``, not
through the table ``parse`` reads.
"""

from __future__ import annotations

from hebdot.codec import (
    _CHAR_TO_NIQQUD,
    _TYPOGRAPHIC_MAP,
    DIGIT_SYMBOL,
    LATIN_SYMBOL,
    SHIN_DOT_CHAR,
    CharClass,
    Dagesh,
    Niqqud,
    Sin,
    char_class,
)

_MARK_CLASSES = (
    CharClass.NIQQUD_MARK,
    CharClass.DAGESH_MARK,
    CharClass.SIN_SHIN_MARK,
    CharClass.DROPPED_MARK,
)


class LeadingMarkError(ValueError):
    """A combining mark appeared before any base character."""


def _candidate(ch: str) -> str | None:
    """Normalized form of one raw character, or None if it is removed."""
    cls = char_class(ch)
    if cls is CharClass.HEBREW_LETTER:
        return ch
    if cls in (CharClass.NIQQUD_MARK, CharClass.DAGESH_MARK, CharClass.SIN_SHIN_MARK):
        return ch
    if cls is CharClass.SPACE:
        return " "
    if cls is CharClass.PUNCT:
        return _TYPOGRAPHIC_MAP.get(ch, ch)
    if cls is CharClass.DIGIT:
        return DIGIT_SYMBOL
    if cls is CharClass.LATIN:
        return LATIN_SYMBOL
    return None  # DROPPED_MARK and OTHER


def normalize_mapped(
    raw: str,
) -> tuple[str, list[tuple[int, int]], list[tuple[int, int]]]:
    """Normalize and report where every output character came from.

    Returns ``(normalized, spans, removed)`` where ``spans[i]`` is the
    half-open raw span that produced output position ``i`` and ``removed``
    lists the raw spans deleted outright (ordered; together with ``spans``
    they cover the input exactly).
    """
    out: list[str] = []
    spans: list[tuple[int, int]] = []
    removed: list[tuple[int, int]] = []

    def remove(start: int, end: int) -> None:
        if removed and removed[-1][1] == start:
            removed[-1] = (removed[-1][0], end)
        else:
            removed.append((start, end))

    for i, ch in enumerate(raw):
        cand = _candidate(ch)
        if cand is None:
            remove(i, i + 1)
        elif cand == " ":
            if out and out[-1] != " ":
                out.append(" ")
                spans.append((i, i + 1))
            else:
                remove(i, i + 1)
        else:
            out.append(cand)
            spans.append((i, i + 1))

    while out and out[-1] == " ":
        out.pop()
        start, end = spans.pop()
        # re-merge with neighbours in positional order
        removed.append((start, end))
        removed.sort()
        merged: list[tuple[int, int]] = []
        for s, e in removed:
            if merged and merged[-1][1] >= s:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        removed = merged

    return "".join(out), spans, removed


def normalize(raw: str) -> str:
    """Reduce text to the model alphabet, keeping the label marks.

    Keeps Hebrew letters, their diacritic marks, single spaces and
    whitelisted punctuation; digits and Latin letters become one placeholder
    symbol each; everything else is removed.  Runs of whitespace collapse to
    one space and the result carries no leading/trailing space.
    """
    return normalize_mapped(raw)[0]


def decompose(dotted: str) -> list[tuple[str, int, int, int]]:
    """Split dotted text into one (letter, niqqud, dagesh, sin) per base
    character.

    Marks attach to the nearest preceding base character, whatever their
    order after it; duplicate marks of one category keep the last
    occurrence; folded codepoints (qamats qatan, holam haser for vav) are
    mapped to their label, and meteg/rafe/cantillation are dropped.
    Illegal combinations (a sin dot on bet, say) are kept.

    Raises LeadingMarkError if a combining mark precedes any base character.
    """
    chars: list[list] = []
    for i, ch in enumerate(dotted):
        cls = char_class(ch)
        if cls in _MARK_CLASSES:
            if not chars:
                raise LeadingMarkError(
                    f"combining mark U+{ord(ch):04X} at position {i} precedes any base character"
                )
            if cls is CharClass.DROPPED_MARK:
                continue
            last = chars[-1]
            if cls is CharClass.NIQQUD_MARK:
                last[1] = _CHAR_TO_NIQQUD[ch]
            elif cls is CharClass.DAGESH_MARK:
                last[2] = Dagesh.DAGESH
            else:
                last[3] = Sin.SHIN_DOT if ch == SHIN_DOT_CHAR else Sin.SIN_DOT
        else:
            chars.append([ch, Niqqud.NONE, Dagesh.NONE, Sin.NONE])
    return [tuple(c) for c in chars]


def drop_orphan_marks(text: str) -> str:
    """Remove the diacritics that do not sit on a Hebrew letter.

    A mark sits on the nearest preceding character that :func:`normalize`
    keeps, skipping other marks; a mark at the start or after a space,
    punctuation, a digit or a Latin letter is an orphan.  Everything else
    passes through, so :func:`decompose` of the normalized result never
    raises LeadingMarkError and yields the letters of the normalized,
    stripped text.
    """
    out = []
    on_letter = False
    for ch in text:
        cls = char_class(ch)
        if cls in _MARK_CLASSES:
            if not on_letter:
                continue
        elif cls is not CharClass.OTHER:  # OTHER is removed by normalize
            on_letter = cls is CharClass.HEBREW_LETTER
        out.append(ch)
    return "".join(out)
