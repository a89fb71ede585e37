"""Corpus loading, tokenization, chunking and batch assembly.

A corpus lives on disk as ``<root>/<split>/**/*.txt`` with splits
``premodern``, ``modern``, ``validation`` and ``test``.  Files are read as
UTF-8 and turned into letters and labels by :meth:`Document.from_text`,
which reads them with :func:`codec.parse`, the same rule ``hebdot dot``
applies; marks on no letter, and marks a letter cannot carry (noisy scans
have both), are removed with a warning.  Everything downstream works on
:class:`Document` values, so loading order and repairs are decided here,
once.  A document is columnar: its letter stream plus one int8 array of
codec label values per category; scoring slices those arrays, and
:func:`codec.insert_marks` renders them back into dotted text.
Letter masks, vocabulary ids and token spans are gathers from tables
indexed by code point, each built once.  Documents encode together into
flat :class:`Chunks`, and :func:`make_batches` gathers a batch from them
only when it is read.
"""

from __future__ import annotations

import logging
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from pathlib import Path

import numpy as np

from .codec import (
    CATEGORIES,
    DAGESH_CAPABLE,
    DIGIT_SYMBOL,
    GERESH,
    GERSHAYIM,
    HEBREW_LETTERS,
    LATIN_SYMBOL,
    NIQQUD_CAPABLE,
    PUNCT_WHITELIST,
    SHIN,
    _HEBREW_SET,
    insert_marks,
    parse,
    strip_diacritics,
)

__all__ = [
    "SPLITS",
    "Document",
    "EmptyCorpus",
    "Vocabulary",
    "Chunks",
    "Batch",
    "SplitStats",
    "load_file",
    "load_dir",
    "load_corpus",
    "hebrew_token_count",
    "token_spans",
    "chunk_spans",
    "letter_mask",
    "decision_masks",
    "encode_document",
    "make_batches",
    "split_stats",
]

log = logging.getLogger(__name__)

SPLITS = ("premodern", "modern", "validation", "test")

MAX_CHUNK_LEN = 80


class EmptyCorpus(Exception):
    """A corpus directory yielded no usable documents."""


@dataclass(frozen=True, eq=False)
class Document:
    """One loaded text: id (relative path without suffix), its letter
    stream, and ``labels``: per category of CATEGORIES an int8 array of
    codec label values, one per letter, shared and read-only.  ``text``
    renders the arrays as dotted text on first use."""

    id: str
    letters: str
    labels: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        n = len(self.letters)
        if any(self.labels[k].shape != (n,) for k in CATEGORIES):
            raise ValueError(f"{self.id}: label arrays must match the letters")

    @classmethod
    def from_text(cls, id: str, raw: str) -> "Document":
        """Document of raw dotted text: letters and labels as
        :func:`codec.parse` reads them.  Marks before the first kept
        character, and marks a character cannot carry, are removed with a
        warning."""
        letters, labels, ends = parse(raw)
        head = raw[: ends[0] - 1] if ends else raw
        lead = len(head) - len(strip_diacritics(head))
        if lead:
            log.warning("%s: dropped %d leading mark(s)", id, lead)
        legal = decision_masks(letters)
        illegal = {k: (labels[k] != 0) & ~legal[k] for k in CATEGORIES}
        bad = np.flatnonzero(np.any(list(illegal.values()), axis=0))
        if bad.size:
            at = int(bad[0])
            log.warning(
                "%s: repaired %d invalid mark placement(s), first at %d: %s on %r",
                id,
                bad.size,
                at,
                next(k for k in CATEGORIES if illegal[k][at]),
                letters[at],
            )
            labels = {k: np.where(legal[k], labels[k], np.int8(0)) for k in CATEGORIES}
        return cls(id, letters, labels)

    @cached_property
    def text(self) -> str:
        """The canonical dotted text: each letter, then its marks."""
        return insert_marks(self.letters, range(1, len(self.letters) + 1), self.labels)


def load_file(path: Path, doc_id: str) -> Document | None:
    """Load one text file with :meth:`Document.from_text`; None if nothing
    usable remains after normalizing."""
    doc = Document.from_text(doc_id, path.read_text(encoding="utf-8"))
    return doc if doc.letters else None


def load_dir(directory: Path) -> list[Document]:
    """Load every ``*.txt`` under a directory, sorted by relative path.

    Raises EmptyCorpus if the directory is missing or contributes nothing.
    """
    directory = Path(directory)
    docs: list[Document] = []
    if directory.is_dir():
        for path in sorted(directory.rglob("*.txt")):
            doc_id = path.relative_to(directory).with_suffix("").as_posix()
            doc = load_file(path, doc_id=doc_id)
            if doc is None:
                log.warning("%s: empty after normalization, skipped", path)
                continue
            docs.append(doc)
    if not docs:
        raise EmptyCorpus(f"no usable documents under {directory}")
    return docs


def load_corpus(root: Path, split: str) -> list[Document]:
    """Load one named split from a corpus root."""
    if split not in SPLITS:
        raise ValueError(f"unknown split {split!r}, expected one of {SPLITS}")
    return load_dir(Path(root) / split)


def hebrew_token_count(text: str) -> int:
    """Count Hebrew tokens in (normalized or plain-letter) text."""
    return len(token_spans(text))


_TOKEN_JOINERS = frozenset(GERESH + GERSHAYIM + "'\"")


def token_spans(letters: str) -> np.ndarray:
    """Half-open spans of every Hebrew token in a letter stream, as (n, 2)
    rows of start and end.  A token is a maximal run of Hebrew letters; a
    geresh, gershayim or their ASCII stand-in joins the letters on its two
    sides (acronyms and abbreviations)."""
    inside = letter_mask(letters, _HEBREW_SET)
    joins = letter_mask(letters, _TOKEN_JOINERS)
    inside[1:-1] |= joins[1:-1] & inside[:-2] & inside[2:]
    # a token starts and ends wherever ``inside`` flips
    edges = np.flatnonzero(np.diff(inside, prepend=False, append=False))
    return edges.reshape(-1, 2)


def chunk_spans(letters: str, max_len: int = MAX_CHUNK_LEN) -> list[tuple[int, int]]:
    """Partition a letter stream into model-sized windows.

    Greedy left to right: each chunk is as long as possible up to
    ``max_len``, ending at the last space inside the window so words stay
    whole; the boundary space belongs to the earlier chunk.  A single run
    longer than ``max_len`` with no space is split mid-run.
    """
    if max_len < 1:
        raise ValueError("max_len must be positive")
    spans: list[tuple[int, int]] = []
    start = 0
    n = len(letters)
    while start < n:
        if n - start <= max_len:
            spans.append((start, n))
            break
        window = letters[start : start + max_len]
        cut = window.rfind(" ")
        end = start + (cut + 1 if cut != -1 else max_len)
        spans.append((start, end))
        start = end
    return spans


class Vocabulary:
    """Fixed, closed character inventory for the encoder.

    Index 0 is padding and index 1 the out-of-alphabet fallback; letter i of
    ``alphabet``, the normalized alphabet in a deterministic order, has id
    i + 2, read through a table indexed by code point.  The inventory never
    depends on the training data, so checkpoints built anywhere agree.
    """

    PAD = 0
    UNK = 1

    def __init__(self) -> None:
        self._index(
            " " + "".join(PUNCT_WHITELIST) + DIGIT_SYMBOL + LATIN_SYMBOL + HEBREW_LETTERS
        )

    def _index(self, alphabet: str) -> None:
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("duplicate characters in vocabulary")
        self.alphabet = alphabet
        self._ids = _id_table(alphabet)

    @property
    def size(self) -> int:
        return len(self.alphabet) + 2

    def encode(self, letters: str) -> np.ndarray:
        return self._ids.take(_code_points(letters), mode="clip")

    def to_json(self) -> dict:
        return {"alphabet": self.alphabet}

    @classmethod
    def from_json(cls, data: dict) -> "Vocabulary":
        vocab = cls.__new__(cls)
        vocab._index(data["alphabet"])
        return vocab


def _code_points(text: str) -> np.ndarray:
    """The code point of every character, lone surrogates included."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")


@lru_cache(maxsize=16)
def _id_table(alphabet: str) -> np.ndarray:
    """Read-only vocabulary ids indexed by code point: letter i of
    ``alphabet`` has id i + 2, and every other code point has UNK, the last
    entry, one past the largest letter, standing for all larger ones."""
    codes = _code_points(alphabet)
    table = np.full(int(codes.max(initial=0)) + 2, Vocabulary.UNK, np.int32)
    table[codes] = np.arange(2, len(alphabet) + 2, dtype=np.int32)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=16)
def _char_table(chars: frozenset[str]) -> np.ndarray:
    """Read-only bool table indexed by code point, True at ``chars``; its
    last entry, one past the largest of them, is False for every larger
    code point."""
    codes = _code_points("".join(chars))
    table = np.zeros(int(codes.max(initial=0)) + 2, bool)
    table[codes] = True
    table.flags.writeable = False
    return table


def letter_mask(letters: str, chars: Iterable[str]) -> np.ndarray:
    """Bool array, True where the letter is one of ``chars``."""
    return _char_table(frozenset(chars)).take(_code_points(letters), mode="clip")


def decision_masks(letters: str) -> dict[str, np.ndarray]:
    """Per category, a bool array that is True exactly where the letter
    admits that decision: niqqud on the codec's ``NIQQUD_CAPABLE`` letters,
    dagesh on its ``DAGESH_CAPABLE`` ones, the shin/sin dot on shin alone."""
    return {
        "niqqud": letter_mask(letters, NIQQUD_CAPABLE),
        "dagesh": letter_mask(letters, DAGESH_CAPABLE),
        "sin": letter_mask(letters, SHIN),
    }


@dataclass(frozen=True, eq=False)
class Chunks:
    """Documents encoded end to end: ``ids``, ``golds`` and ``masks`` hold
    every letter's vocabulary id, codec label values per category and
    :func:`decision_masks`.  Chunk i, a model-sized window, is the
    ``lengths[i]`` letters from ``starts[i]``: a row, not an object."""

    ids: np.ndarray  # (N,) int32
    golds: dict[str, np.ndarray]  # category -> (N,) int8
    masks: dict[str, np.ndarray]  # category -> (N,) bool
    starts: np.ndarray  # (C,) int64
    lengths: np.ndarray  # (C,) int32

    def __len__(self) -> int:
        return len(self.starts)

    def take(self, rows) -> "Chunks":
        """The chunks at ``rows``, in that order, over the same letters."""
        return Chunks(
            self.ids, self.golds, self.masks, self.starts[rows], self.lengths[rows]
        )


def encode_document(
    docs: Sequence[Document], vocab: Vocabulary, max_len: int = MAX_CHUNK_LEN
) -> Chunks:
    """Chunk and encode documents into model inputs and training targets:
    their letters end to end, and the :func:`chunk_spans` windows of each
    document in order."""
    letters = "".join(doc.letters for doc in docs)
    offsets = accumulate((len(doc.letters) for doc in docs), initial=0)
    # The boundary space belongs to its window for partition purposes but
    # carries no decisions; keeping it out of the model input makes
    # predictions identical whether a document is fed whole or split at
    # chunk boundaries (the split piece would lose the space to
    # normalization anyway).
    spans = [
        (at + start, at + end - (doc.letters[end - 1] == " "))
        for doc, at in zip(docs, offsets)
        for start, end in chunk_spans(doc.letters, max_len)
    ]
    starts, ends = np.array(spans, dtype=np.int64).reshape(-1, 2).T
    kept = ends > starts
    empty = np.zeros(0, dtype=np.int8)  # np.concatenate refuses an empty list
    return Chunks(
        ids=vocab.encode(letters),
        golds={
            k: np.concatenate([empty, *(doc.labels[k] for doc in docs)])
            for k in CATEGORIES
        },
        masks=decision_masks(letters),
        starts=starts[kept],
        lengths=(ends - starts)[kept].astype(np.int32),
    )


@dataclass(frozen=True)
class Batch:
    """Right-padded stack of chunks.  Padding ids are 0 and every mask is
    False past each row's length, so padded positions never carry decisions."""

    letter_ids: np.ndarray  # (B, T) int32
    golds: dict[str, np.ndarray]  # category -> (B, T) int8
    masks: dict[str, np.ndarray]  # category -> (B, T) bool
    lengths: np.ndarray  # (B,) int32
    starts: np.ndarray  # (B,) int64, where each row starts in the Chunks

    @property
    def size(self) -> int:
        return int(self.letter_ids.shape[0])


@dataclass(frozen=True, eq=False)
class _Batches(Sequence):
    """Consecutive runs of ``batch_size`` chunks.  Batch i is gathered from
    the flat arrays each time it is read, so no list of batches is held."""

    chunks: Chunks
    batch_size: int

    def __len__(self) -> int:
        return -(-len(self.chunks) // self.batch_size)

    def __getitem__(self, i: int) -> Batch:
        i = range(len(self))[i]  # IndexError past the end
        rows = self.chunks.take(slice(i * self.batch_size, (i + 1) * self.batch_size))
        col = np.arange(rows.lengths.max())
        live = col < rows.lengths[:, None]
        at = rows.starts[:, None] + col  # clipped where a padded cell runs past the end
        return Batch(
            letter_ids=rows.ids.take(at, mode="clip") * live,
            golds={k: rows.golds[k].take(at, mode="clip") * live for k in CATEGORIES},
            masks={k: rows.masks[k].take(at, mode="clip") & live for k in CATEGORIES},
            lengths=rows.lengths,
            starts=rows.starts,
        )


def make_batches(
    chunks: Chunks, batch_size: int = 64, seed: int | None = None
) -> Sequence[Batch]:
    """Group chunks into batches, each built when it is read; a seed gives a
    deterministic shuffle, None keeps the input order (inference)."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if seed is not None:
        rng = np.random.Generator(np.random.PCG64(seed))
        chunks = chunks.take(rng.permutation(len(chunks)))
    return _Batches(chunks, batch_size)


@dataclass(frozen=True)
class SplitStats:
    documents: int
    tokens: int
    chars: int


def split_stats(docs: Iterable[Document]) -> SplitStats:
    """Document, Hebrew token and character counts."""
    n_docs = n_tokens = n_chars = 0
    for doc in docs:
        n_docs += 1
        n_tokens += hebrew_token_count(doc.letters)
        n_chars += len(doc.letters)
    return SplitStats(documents=n_docs, tokens=n_tokens, chars=n_chars)
