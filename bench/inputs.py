"""Seeded workload inputs, built from the bundled corpus in ``tests/data/corpus``.

Everything the program receives is written here from the seed alone: the
same seed gives byte-identical files.  The helpers that read the program's
output back (mark stripping, letter counting, per-letter decisions) live here
too and use only Unicode ranges, never ``hebdot`` itself, so a change to the
program cannot change how its output is judged.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

# Hebrew combining marks (general category Mn in U+0591-U+05C7): niqqud,
# dagesh, shin/sin dots, cantillation, meteg and rafe.  Maqaf, paseq, sof
# pasuq and nun hafukha are punctuation and stay.
_MARK_RE = re.compile("[\u0591-\u05bd\u05bf\u05c1\u05c2\u05c4\u05c5\u05c7]")
_DAGESH = "\u05bc"
_SHIN_DOTS = "\u05c1\u05c2"
_NIQQUD = {chr(cp) for cp in range(0x05B0, 0x05BC)} | {"\u05c7"}

CHUNK_LEN = 80  # the paper's chunk width, the program's default


def strip_marks(text: str) -> str:
    return _MARK_RE.sub("", text)


def letter_count(text: str) -> int:
    """Letters the model reads: characters left once marks are removed and
    whitespace runs collapse to one space, ends trimmed."""
    return len(" ".join(strip_marks(text).split()))


def is_hebrew_letter(ch: str) -> bool:
    return "\u05d0" <= ch <= "\u05ea"


def decisions(dotted: str) -> list[tuple[str, str, str]]:
    """Per Hebrew letter: its (niqqud, dagesh, shin dot) marks, '' for none."""
    out: list[list[str]] = []
    for ch in dotted:
        if is_hebrew_letter(ch):
            out.append(["", "", ""])
        elif out and _MARK_RE.match(ch):
            slot = 1 if ch == _DAGESH else 2 if ch in _SHIN_DOTS else 0
            if slot or ch in _NIQQUD:
                out[-1][slot] += ch
    return [tuple(d) for d in out]


def corpus_files(root: Path) -> list[Path]:
    files = sorted((root / "tests" / "data" / "corpus").rglob("*.txt"))
    if not files:
        raise FileNotFoundError("no bundled corpus under tests/data/corpus")
    return files


def dotted_sentences(root: Path) -> list[str]:
    """Every dotted bundled line that holds a Hebrew letter, in file order."""
    return [
        line
        for path in corpus_files(root)
        for line in path.read_text(encoding="utf-8").splitlines()
        if any(is_hebrew_letter(ch) for ch in line)
    ]


def sentence_pool(root: Path) -> list[str]:
    """The distinct bundled sentences with marks removed, in file order."""
    return list(dict.fromkeys(strip_marks(line) for line in dotted_sentences(root)))


def write_train_corpus(root: Path, dest: Path, seed: int, steps: int, batch: int) -> int:
    """A corpus tree whose modern split holds exactly ``steps * batch`` chunks.

    Each modern document is bundled sentences, drawn by the seed, packed
    up to ``CHUNK_LEN`` letters, so it is exactly one chunk and the chunks
    run close to full width whatever the seed.  Validation is the bundled
    split, copied.  Returns the number of training letters per epoch.
    """
    rng = random.Random(seed)
    pool = dotted_sentences(root)
    modern = dest / "modern"
    modern.mkdir(parents=True)
    letters = 0
    for k in range(steps * batch):
        lines: list[str] = []
        misses = 0
        while misses < 20:
            line = rng.choice(pool)
            if letter_count("\n".join(lines + [line])) > CHUNK_LEN:
                misses += 1
            else:
                lines.append(line)
        text = "\n".join(lines) + "\n"
        letters += letter_count(text)
        (modern / f"g{k:04d}.txt").write_text(text, encoding="utf-8")
    bundled = root / "tests" / "data" / "corpus" / "validation"
    (dest / "validation").mkdir()
    for path in sorted(bundled.rglob("*.txt")):
        (dest / "validation" / path.name).write_bytes(path.read_bytes())
    return letters


def write_gold_dir(root: Path, dest: Path, seed: int, copies: int) -> list[tuple[str, int]]:
    """``copies`` renamed copies of every bundled file, in an order drawn by
    the seed, so every seed scores the same text.

    Returns (document id, letters) per document in the order eval reports
    them.
    """
    rng = random.Random(seed)
    files = corpus_files(root) * copies
    rng.shuffle(files)
    dest.mkdir(parents=True)
    out = []
    for k, path in enumerate(files):
        text = path.read_text(encoding="utf-8")
        doc_id = f"d{k:03d}"
        (dest / f"{doc_id}.txt").write_text(text, encoding="utf-8")
        out.append((doc_id, letter_count(text)))
    return out


def write_lines(root: Path, dest: Path, seed: int, count: int) -> list[str]:
    """``count`` undotted sentences, one per line: the pool reshuffled by the
    seed on every pass, so each pass holds every sentence once."""
    rng = random.Random(seed)
    pool = sentence_pool(root)
    lines: list[str] = []
    while len(lines) < count:
        order = pool[:]
        rng.shuffle(order)
        lines.extend(order)
    lines = [line + "\n" for line in lines[:count]]
    dest.write_text("".join(lines), encoding="utf-8")
    return lines
