"""Reference implementations for the code-point tables of :mod:`hebdot.corpus`.

These are the versions the tables replaced, kept so property tests can
compare against them: ``letter_mask`` tests membership with ``np.isin``,
``encode`` looks each character up in a dict, and ``token_spans`` matches
the token regular expression.  They read code points with ``ord`` and share
no lookup table with the package.
"""

from __future__ import annotations

import re
from typing import Iterable

import numpy as np

from hebdot.codec import GERESH, GERSHAYIM, HEBREW_LETTERS
from hebdot.corpus import Vocabulary

# A token is a maximal run of Hebrew letters, allowing geresh, gershayim or
# their ASCII stand-ins between letters (acronyms and abbreviations).
_TOKEN_RE = re.compile(
    "[{heb}]+(?:[{join}][{heb}]+)*".format(
        heb=HEBREW_LETTERS, join=re.escape(GERESH + GERSHAYIM + "'\"")
    )
)


def letter_mask(letters: str, chars: Iterable[str]) -> np.ndarray:
    codes = np.array([ord(ch) for ch in letters], dtype=np.int64)
    return np.isin(codes, [ord(ch) for ch in chars])


def encode(vocab: Vocabulary, letters: str) -> np.ndarray:
    char_to_id = {ch: i + 2 for i, ch in enumerate(vocab.alphabet)}
    return np.fromiter(
        (char_to_id.get(ch, vocab.UNK) for ch in letters),
        dtype=np.int32,
        count=len(letters),
    )


def token_spans(letters: str) -> list[tuple[int, int]]:
    return [m.span() for m in _TOKEN_RE.finditer(letters)]
