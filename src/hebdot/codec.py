"""Character-level codec for dotted Hebrew text.

A text is a letter stream plus one int8 label array per category (a vowel
mark or niqqud, a dagesh/mappiq dot, the shin/sin dot).  :func:`parse` is
the one rule from raw text to that form: the normalized letters, their
labels and where each letter ends in the raw text.  :func:`insert_marks` is
the one rule back, putting each letter's marks after it.  Corpus loading,
dotting and rendering all go through the two.  ``parse`` classifies code
points through one lazily filled table, and :func:`strip_diacritics`
removes what that table calls a mark.
"""

from __future__ import annotations

import string
import unicodedata
from enum import Enum, IntEnum
from typing import Sequence

import numpy as np

__all__ = [
    "CharClass",
    "Niqqud",
    "Dagesh",
    "Sin",
    "HEBREW_LETTERS",
    "PUNCT_WHITELIST",
    "DIGIT_SYMBOL",
    "LATIN_SYMBOL",
    "DAGESH_CAPABLE",
    "NIQQUD_CAPABLE",
    "BKP_LETTERS",
    "CATEGORIES",
    "char_class",
    "parse",
    "marks_of",
    "insert_marks",
    "strip_diacritics",
]


# The 27 letter forms (22 letters + 5 finals), U+05D0..U+05EA.
HEBREW_LETTERS = "".join(chr(c) for c in range(0x05D0, 0x05EB))
_HEBREW_SET = frozenset(HEBREW_LETTERS)

GERESH = "׳"
GERSHAYIM = "״"
MAQAF = "־"

# Placeholder identities for digits and Latin letters in the normalized
# stream.  They are carved out of the ASCII punctuation whitelist so the
# normalized alphabet stays unambiguous: a literal '#'/'@' in the input is
# treated as a digit/Latin occurrence rather than as punctuation.
DIGIT_SYMBOL = "#"
LATIN_SYMBOL = "@"

_ASCII_PUNCT = frozenset(string.punctuation) - {DIGIT_SYMBOL, LATIN_SYMBOL}
_HEBREW_PUNCT = frozenset({GERESH, GERSHAYIM, MAQAF})

# Canonical ordering of the kept punctuation, used by the vocabulary.
PUNCT_WHITELIST = tuple(sorted(_ASCII_PUNCT | _HEBREW_PUNCT))

# Typographic quotes/dashes are punctuation, normalized to ASCII equivalents.
_TYPOGRAPHIC_MAP = {
    "‘": "'",
    "’": "'",
    "‚": "'",
    "‛": "'",
    "′": "'",
    "“": '"',
    "”": '"',
    "„": '"',
    "″": '"',
    "‐": "-",
    "‑": "-",
    "‒": "-",
    "–": "-",
    "—": "-",
    "―": "-",
}


class CharClass(Enum):
    """Partition of Unicode scalars as seen by the normalizer."""

    HEBREW_LETTER = "hebrew_letter"
    NIQQUD_MARK = "niqqud_mark"
    DAGESH_MARK = "dagesh_mark"
    SIN_SHIN_MARK = "sin_shin_mark"
    DROPPED_MARK = "dropped_mark"
    SPACE = "space"
    PUNCT = "punct"
    DIGIT = "digit"
    LATIN = "latin"
    OTHER = "other"


class Niqqud(IntEnum):
    """Vowel-mark labels.  Values double as label indices for the model."""

    NONE = 0
    SHEVA = 1
    HATAF_SEGOL = 2
    HATAF_PATAH = 3
    HATAF_QAMATS = 4
    HIRIQ = 5
    TSERE = 6
    SEGOL = 7
    PATAH = 8
    QAMATS = 9
    HOLAM = 10
    QUBUTS = 11


class Dagesh(IntEnum):
    NONE = 0
    DAGESH = 1


class Sin(IntEnum):
    NONE = 0
    SHIN_DOT = 1
    SIN_DOT = 2


_NIQQUD_CHARS = {
    Niqqud.SHEVA: "ְ",
    Niqqud.HATAF_SEGOL: "ֱ",
    Niqqud.HATAF_PATAH: "ֲ",
    Niqqud.HATAF_QAMATS: "ֳ",
    Niqqud.HIRIQ: "ִ",
    Niqqud.TSERE: "ֵ",
    Niqqud.SEGOL: "ֶ",
    Niqqud.PATAH: "ַ",
    Niqqud.QAMATS: "ָ",
    Niqqud.HOLAM: "ֹ",
    Niqqud.QUBUTS: "ֻ",
}

# Folds: qamats qatan and holam-haser-for-vav are encoding variants that never
# survive as labels; meteg, rafe and the cantillation range are outside the
# label space entirely.
_CHAR_TO_NIQQUD = {c: n for n, c in _NIQQUD_CHARS.items()}
_CHAR_TO_NIQQUD["ׇ"] = Niqqud.QAMATS
_CHAR_TO_NIQQUD["ֺ"] = Niqqud.HOLAM

DAGESH_CHAR = "ּ"
SHIN_DOT_CHAR = "ׁ"
SIN_DOT_CHAR = "ׂ"
_SIN_CHARS = {Sin.SHIN_DOT: SHIN_DOT_CHAR, Sin.SIN_DOT: SIN_DOT_CHAR}

_DROPPED_MARKS = frozenset({"ֽ", "ֿ", "ׄ", "ׅ"}) | frozenset(
    chr(c) for c in range(0x0591, 0x05B0)
)

SHIN = "ש"

# Letters that may carry a dagesh or mappiq.  The gutturals, resh and most
# finals never do; he takes a mappiq and final kaf appears with niqqud in
# suffixed forms, so both stay in.
DAGESH_CAPABLE = _HEBREW_SET - frozenset("אחערםןףץ")

# Every letter form may carry a vowel mark (finals do take sheva/qamats).
NIQQUD_CAPABLE = _HEBREW_SET

# Letters where a dagesh changes the pronounced consonant (b/v, k/kh, p/f).
BKP_LETTERS = frozenset("בכפ")


def char_class(ch: str) -> CharClass:
    """Classify a single character.  Total: every scalar gets one class."""
    if ch in _HEBREW_SET:
        return CharClass.HEBREW_LETTER
    if ch in _CHAR_TO_NIQQUD:
        return CharClass.NIQQUD_MARK
    if ch == DAGESH_CHAR:
        return CharClass.DAGESH_MARK
    if ch == SHIN_DOT_CHAR or ch == SIN_DOT_CHAR:
        return CharClass.SIN_SHIN_MARK
    if ch in _DROPPED_MARKS:
        return CharClass.DROPPED_MARK
    if ch.isspace():
        return CharClass.SPACE
    if ch in _ASCII_PUNCT or ch in _HEBREW_PUNCT or ch in _TYPOGRAPHIC_MAP:
        return CharClass.PUNCT
    if ch == DIGIT_SYMBOL or unicodedata.category(ch) == "Nd":
        return CharClass.DIGIT
    if ch == LATIN_SYMBOL or _is_latin_letter(ch):
        return CharClass.LATIN
    return CharClass.OTHER


def _is_latin_letter(ch: str) -> bool:
    cp = ord(ch)
    if 0x41 <= cp <= 0x5A or 0x61 <= cp <= 0x7A:
        return True
    # Latin-1 supplement and Extended-A/B letters count as Latin too.
    return 0xC0 <= cp <= 0x24F and unicodedata.category(ch).startswith("L")


# The label categories, in the order of marks_of's arguments and of the
# label arrays parse returns.
CATEGORIES = ("niqqud", "dagesh", "sin")

# What a code point is to the letter stream: a base character (value: its
# normalized form), a space, a label mark (value: category index, label), a
# dropped mark (meteg, rafe, cantillation) or anything else, which is removed.
_BASE, _SPACE, _MARK, _DROPPED, _REMOVED = range(5)


class _Table(dict):
    """Code point -> (kind, value), filled from char_class on first sight."""

    def __missing__(self, ch: str) -> tuple[int, object]:
        cls = char_class(ch)
        if cls is CharClass.HEBREW_LETTER:
            entry = (_BASE, ch)
        elif cls is CharClass.PUNCT:
            entry = (_BASE, _TYPOGRAPHIC_MAP.get(ch, ch))
        elif cls is CharClass.DIGIT:
            entry = (_BASE, DIGIT_SYMBOL)
        elif cls is CharClass.LATIN:
            entry = (_BASE, LATIN_SYMBOL)
        elif cls is CharClass.SPACE:
            entry = (_SPACE, None)
        elif cls is CharClass.NIQQUD_MARK:
            entry = (_MARK, (0, _CHAR_TO_NIQQUD[ch]))
        elif cls is CharClass.DAGESH_MARK:
            entry = (_MARK, (1, Dagesh.DAGESH))
        elif cls is CharClass.SIN_SHIN_MARK:
            entry = (_MARK, (2, Sin.SHIN_DOT if ch == SHIN_DOT_CHAR else Sin.SIN_DOT))
        elif cls is CharClass.DROPPED_MARK:
            entry = (_DROPPED, None)
        else:
            entry = (_REMOVED, None)
        self[ch] = entry
        return entry


_TABLE = _Table()


def parse(text: str) -> tuple[str, dict[str, np.ndarray], list[int]]:
    """Turn raw text into letters, labels and offsets in one pass.

    Returns ``(letters, labels, ends)``.  ``letters`` is the text in the
    model alphabet: Hebrew letters, single spaces and whitelisted
    punctuation, with digits and Latin letters as one placeholder symbol
    each; everything else is removed, and whitespace runs collapse to one
    space with none at either end.  ``labels`` maps each category of
    CATEGORIES to an int8 array with one codec label value per letter, and
    ``text[ends[i] - 1]`` is the raw character behind ``letters[i]``, so
    ``ends`` rises strictly and is the identity plus one on clean text.

    Marks never enter the letter stream or split a run of whitespace.  Each
    label mark attaches to the last kept character before it, whatever
    was removed in between; the last mark of a category wins, qamats qatan
    and holam haser fold into qamats and holam, and meteg, rafe and
    cantillation are dropped.  A mark with no kept character before it is
    dropped.  Marks a character cannot carry (any mark on a space, a dagesh
    on alef) stay in the labels for the caller to mask.
    """
    out: list[str] = []
    ends: list[int] = []
    marks: dict[tuple[int, int], int] = {}  # (category, position) -> label
    after_space = True  # whitespace at the start is not kept
    for end, ch in enumerate(text, 1):
        kind, value = _TABLE[ch]
        if kind == _BASE:
            out.append(value)
            ends.append(end)
            after_space = False
        elif kind == _SPACE:
            if not after_space:
                out.append(" ")
                ends.append(end)
                after_space = True
        elif kind == _MARK and out:
            marks[value[0], len(out) - 1] = value[1]
    labels = np.zeros((len(CATEGORIES), len(out)), np.int8)
    for at, label in marks.items():
        labels[at] = label
    if out and out[-1] == " ":  # a trailing space goes, with its marks
        out.pop()
        ends.pop()
        labels = labels[:, :-1]
    return "".join(out), dict(zip(CATEGORIES, labels)), ends


def marks_of(niqqud: int, dagesh: int, sin: int) -> str:
    """Marks for one letter's labels in canonical order: dagesh, sin dot, niqqud."""
    parts = []
    if dagesh != Dagesh.NONE:
        parts.append(DAGESH_CHAR)
    if sin != Sin.NONE:
        parts.append(_SIN_CHARS[sin])
    if niqqud != Niqqud.NONE:
        parts.append(_NIQQUD_CHARS[niqqud])
    return "".join(parts)




def insert_marks(
    text: str, ends: Sequence[int], labels: dict[str, np.ndarray]
) -> str:
    """Put each letter's marks into ``text`` just past the letter.

    ``ends[i]`` is the offset in ``text`` after the character behind letter
    ``i``, as :func:`parse` returns it, and ``labels`` holds one label array
    per category of CATEGORIES.  The marks come out in the order of
    :func:`marks_of`; every character of ``text`` passes through in place.
    """
    out: list[str] = []
    done = 0
    marks = map(marks_of, *(labels[k].tolist() for k in CATEGORIES))
    for end, mark in zip(ends, marks):
        if mark:
            out += (text[done:end], mark)
            done = end
    out.append(text[done:])
    return "".join(out)


# Every code point parse reads as a mark, label or dropped; the diacritics
# all sit in this range.
_STRIP_TABLE = {
    cp: None for cp in range(0x0591, 0x05C8) if _TABLE[chr(cp)][0] in (_MARK, _DROPPED)
}


def strip_diacritics(text: str) -> str:
    """Remove every diacritic codepoint; all other characters pass through."""
    return text.translate(_STRIP_TABLE)
