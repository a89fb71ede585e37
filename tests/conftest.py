"""Shared fixtures and the independent scoring oracle.

The oracle here recomputes every metric from its own literal tables and
naive loops, on purpose sharing no logic with the package; tests compare
the two routes.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import pytest

from hebdot.corpus import Document, Vocabulary
from hebdot.network import ModelConfig, init_params, save_checkpoint

BUNDLED_CORPUS = Path(__file__).parent / "data" / "corpus"


@pytest.fixture(scope="session")
def bundled_corpus_root() -> Path:
    return BUNDLED_CORPUS


@pytest.fixture(scope="session")
def corpus_root() -> Path:
    """External corpus when HEBDOT_CORPUS_ROOT is set, else the bundled one."""
    env = os.environ.get("HEBDOT_CORPUS_ROOT")
    return Path(env) if env else BUNDLED_CORPUS


def doc_from_text(text: str, doc_id: str = "doc") -> Document:
    """A test document read from dotted text by the rule loading uses."""
    return Document.from_text(doc_id, text)


def checkpoint_fields(blob: bytes) -> list[tuple[str, int, int]]:
    """``(field, start, end)`` for every field of a version-1 checkpoint, in
    file order, walked from the documented layout and not by the loader."""
    (n,) = struct.unpack_from("<I", blob, 8)
    fields = [("magic", 0, 4), ("version", 4, 8), ("header length", 8, 12),
              ("header", 12, 12 + n), ("array count", 12 + n, 16 + n)]
    (count,) = struct.unpack_from("<I", blob, 12 + n)
    pos = 16 + n
    for _ in range(count):
        (k,) = struct.unpack_from("<I", blob, pos)
        name = blob[pos + 4 : pos + 4 + k].decode("utf-8")
        (rank,) = struct.unpack_from("<I", blob, pos + 4 + k)
        dims = struct.unpack_from(f"<{rank}I", blob, pos + 8 + k)
        for field, size in (("name length", 4), ("name", k), ("rank", 4),
                            ("dims", 4 * rank), ("data", 4 * math.prod(dims))):
            fields.append((f"{name} {field}", pos, pos + size))
            pos += size
    assert pos == len(blob)
    return fields


@pytest.fixture(scope="session")
def random_checkpoint(tmp_path_factory) -> Path:
    """Untrained but fully wired model on disk; enough for plumbing tests."""
    vocab = Vocabulary()
    config = ModelConfig(vocab_size=vocab.size, embed_dim=16, hidden_dim=16)
    params = init_params(config, seed=11)
    path = tmp_path_factory.mktemp("ckpt") / "random.ckpt"
    save_checkpoint(path, params, config, vocab)
    return path


@pytest.fixture(scope="session")
def random_dotter(random_checkpoint):
    from hebdot.dotter import Dotter

    return Dotter.load(random_checkpoint)


# ---------------------------------------------------------------------------
# Independent oracle: own tables, naive loops, no hebdot internals.

ORACLE_HEBREW = frozenset(chr(c) for c in range(0x05D0, 0x05EB))
ORACLE_NO_DAGESH = frozenset("אחערםןףץ")
ORACLE_BKP = frozenset("בכפ")
ORACLE_JOINERS = frozenset({"׳", "״", "'", '"'})

# vowel grouping keyed by the integer label value
ORACLE_VOWEL_GROUP = {
    0: "null",  # no mark
    1: "null",  # sheva
    2: "e",  # hataf segol
    3: "a",  # hataf patah
    4: "o",  # hataf qamats
    5: "i",  # hiriq
    6: "e",  # tsere
    7: "e",  # segol
    8: "a",  # patah
    9: "a",  # qamats
    10: "o",  # holam
    11: "u",  # qubuts
}


def oracle_tokens(letters: str) -> list[tuple[int, int]]:
    spans = []
    i = 0
    n = len(letters)
    while i < n:
        if letters[i] not in ORACLE_HEBREW:
            i += 1
            continue
        j = i + 1
        while j < n:
            if letters[j] in ORACLE_HEBREW:
                j += 1
            elif (
                letters[j] in ORACLE_JOINERS
                and j + 1 < n
                and letters[j + 1] in ORACLE_HEBREW
            ):
                j += 2
            else:
                break
        spans.append((i, j))
        i = j
    return spans


def oracle_chars(doc: Document) -> list[tuple[str, int, int, int]]:
    """(letter, niqqud, dagesh, sin) per letter, read off the label arrays."""
    columns = (doc.labels[k].tolist() for k in ("niqqud", "dagesh", "sin"))
    return list(zip(doc.letters, *columns))


def oracle_char_decisions(g, p) -> list[bool]:
    letter = g[0]
    if letter not in ORACLE_HEBREW:
        return []
    outcomes = [g[1] == p[1]]
    if letter not in ORACLE_NO_DAGESH:
        outcomes.append(g[2] == p[2])
    if letter == "ש":
        outcomes.append(g[3] == p[3])
    return outcomes


def oracle_signature(c):
    letter, niqqud, dagesh, sin = c
    return (
        ORACLE_VOWEL_GROUP[niqqud],
        sin if letter == "ש" else None,
        (dagesh != 0) if letter in ORACLE_BKP else None,
    )


def oracle_scores(gold: Document, pred: Document) -> dict[str, tuple[int, int]]:
    assert gold.letters == pred.letters
    pairs = list(zip(oracle_chars(gold), oracle_chars(pred)))
    dec_c = dec_t = cha_c = cha_t = 0
    for g, p in pairs:
        outcomes = oracle_char_decisions(g, p)
        dec_t += len(outcomes)
        dec_c += sum(outcomes)
        if outcomes:
            cha_t += 1
            cha_c += int(all(outcomes))
    wor_c = voc_c = 0
    spans = oracle_tokens(gold.letters)
    for s, e in spans:
        ok_exact = True
        ok_voc = True
        for i in range(s, e):
            g, p = pairs[i]
            if not all(oracle_char_decisions(g, p)):
                ok_exact = False
            if g[0] in ORACLE_HEBREW and oracle_signature(g) != oracle_signature(p):
                ok_voc = False
        wor_c += int(ok_exact)
        voc_c += int(ok_voc)
    return {
        "dec": (dec_c, dec_t),
        "cha": (cha_c, cha_t),
        "wor": (wor_c, len(spans)),
        "voc": (voc_c, len(spans)),
    }


ORACLE_NIQQUD_MARKS = frozenset(chr(c) for c in range(0x05B0, 0x05BC)) | {"\u05c7"}
ORACLE_DAGESH_MARK = "\u05bc"
ORACLE_DOT_MARKS = frozenset("\u05c1\u05c2")  # shin dot, sin dot


def oracle_mark_problems(text: str) -> list[tuple[int, str]]:
    """(offset, mark) for every vowel mark, dagesh or shin/sin dot in
    ``text`` that does not follow, other such marks apart, a letter that can
    carry it: a vowel needs a Hebrew letter, a dagesh one outside the no-dagesh
    set, a shin or sin dot the shin."""
    problems = []
    base = None
    for i, ch in enumerate(text):
        if ch in ORACLE_NIQQUD_MARKS:
            ok = base in ORACLE_HEBREW
        elif ch == ORACLE_DAGESH_MARK:
            ok = base in ORACLE_HEBREW and base not in ORACLE_NO_DAGESH
        elif ch in ORACLE_DOT_MARKS:
            ok = base == "ש"
        else:
            base = ch
            continue
        if not ok:
            problems.append((i, ch))
    return problems


# 25 micro documents (gold, prediction), each letter stream ≤ 12 chars.
MICRO_CASES: list[tuple[str, str, str]] = [
    ("identical", "שָׁלוֹם", "שָׁלוֹם"),
    ("qamats_vs_patah", "קָטָן", "קַטַן"),
    ("sheva_vs_none", "בְּרִית", "בּרִית"),
    ("bet_dagesh_missing", "בַּיִת", "בַיִת"),
    ("tav_dagesh_missing", "תּוֹדָה", "תוֹדָה"),
    ("sin_vs_shin", "שָׂם", "שָׁם"),
    ("punct_only", "...", "..."),
    ("two_tokens_one_bad", "שָׁלוֹם לְךָ", "שָׁלוֹם לַךָ"),
    ("qubuts_vs_holam", "קֻם", "קֹם"),
    ("identical_hiriq", "אִם", "אִם"),
    ("tsere_vs_segol", "סֵפֶר", "סֶפֶר"),
    ("hataf_patah_vs_patah", "אֲנִי", "אַנִי"),
    ("hataf_segol_vs_tsere", "אֱמֶת", "אֵמֶת"),
    ("hataf_qamats_vs_holam", "חֳרִי", "חֹרִי"),
    ("qubuts_vs_none", "כֻּלָּם", "כּלָּם"),
    ("final_kaf_sheva", "הָלַךְ", "הָלַך"),
    ("mixed_non_hebrew", "אָב 12!", "אָב 12!"),
    ("digit_inside", "אָב 5", "אַב 5"),
    ("acronym", "צה״ל", "צה״ל"),
    ("maqaf_two_tokens", "יָד־בְּיָד", "יָד־בְּיַד"),
    ("sheva_vs_hiriq", "בְּלִי", "בִּלִי"),
    ("kaf_dagesh_missing", "כַּף", "כַף"),
    ("pe_dagesh_missing", "פַּח", "פַח"),
    ("identical_shin_word", "שֶׁקֶט", "שֶׁקֶט"),
    # gold: gimel qamats+dagesh, dalet bare, vav holam, lamed bare;
    # pred flips every one of the 8 decisions
    ("everything_off", "גָּדוֹל", "גֻדַּוּלְּ"),
]


def micro_documents() -> list[tuple[str, Document, Document]]:
    out = []
    for name, gold_text, pred_text in MICRO_CASES:
        gold = doc_from_text(gold_text, doc_id=name)
        pred = doc_from_text(pred_text, doc_id=name)
        assert gold.letters == pred.letters, name
        assert len(gold.letters) <= 12, name
        out.append((name, gold, pred))
    return out
