import logging
from enum import Enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hebdot.codec import (
    BKP_LETTERS,
    DAGESH_CAPABLE,
    HEBREW_LETTERS,
    PUNCT_WHITELIST,
    CharClass,
    Dagesh,
    Niqqud,
    Sin,
    char_class,
    insert_marks,
    parse,
    strip_diacritics,
)
from hebdot.corpus import CATEGORIES, Document, decision_masks
from hebdot.metrics import Counts, score_document

from codec_oracle import decompose, drop_orphan_marks, normalize, normalize_mapped
from conftest import ORACLE_VOWEL_GROUP, oracle_chars, oracle_scores

QAMATS = "ָ"
PATAH = "ַ"
SHEVA = "ְ"
DAGESH_CH = "ּ"
SHIN_DOT = "ׁ"
SIN_DOT = "ׂ"
METEG = "ֽ"
RAFE = "ֿ"
QAMATS_QATAN = "ׇ"
HOLAM_HASER_VAV = "ֺ"
HOLAM = "ֹ"


def labels_of(*rows):
    """Label arrays from one (niqqud, dagesh, sin) row per letter."""
    columns = np.array(rows, np.int8).reshape(-1, len(CATEGORIES)).T
    return dict(zip(CATEGORIES, columns))


def render(letters, labels):
    """Dotted text of a letter stream: each letter, then its marks."""
    return insert_marks(letters, range(1, len(letters) + 1), labels)


def from_text(text):
    return Document.from_text("doc", text)


class TestCharClass:
    def test_all_27_letters(self):
        assert len(HEBREW_LETTERS) == 27
        for ch in HEBREW_LETTERS:
            assert char_class(ch) is CharClass.HEBREW_LETTER

    @pytest.mark.parametrize(
        "ch",
        [SHEVA, QAMATS, PATAH, "ֱ", "ֲ", "ֳ", "ִ", "ֵ",
         "ֶ", "ֹ", "ֻ", QAMATS_QATAN, HOLAM_HASER_VAV],
    )
    def test_niqqud_marks(self, ch):
        assert char_class(ch) is CharClass.NIQQUD_MARK

    def test_dagesh_and_sin(self):
        assert char_class(DAGESH_CH) is CharClass.DAGESH_MARK
        assert char_class(SHIN_DOT) is CharClass.SIN_SHIN_MARK
        assert char_class(SIN_DOT) is CharClass.SIN_SHIN_MARK

    @pytest.mark.parametrize(
        "ch", [METEG, RAFE, "֑", "֡", "֯", "ׄ", "ׅ"]
    )
    def test_dropped_marks(self, ch):
        assert char_class(ch) is CharClass.DROPPED_MARK

    @pytest.mark.parametrize("ch", [" ", "\t", "\n", " ", " "])
    def test_space(self, ch):
        assert char_class(ch) is CharClass.SPACE

    @pytest.mark.parametrize(
        "ch", [".", ",", "!", "?", "(", "%", "׳", "״", "־", "“", "—"]
    )
    def test_punct(self, ch):
        assert char_class(ch) is CharClass.PUNCT

    def test_placeholders_carved_out_of_punct(self):
        assert char_class("#") is CharClass.DIGIT
        assert char_class("@") is CharClass.LATIN
        assert "#" not in PUNCT_WHITELIST
        assert "@" not in PUNCT_WHITELIST

    @pytest.mark.parametrize("ch", ["0", "7", "٣"])  # includes Arabic-Indic
    def test_digits(self, ch):
        assert char_class(ch) is CharClass.DIGIT

    @pytest.mark.parametrize("ch", ["a", "Z", "é", "ß"])
    def test_latin(self, ch):
        assert char_class(ch) is CharClass.LATIN

    @pytest.mark.parametrize("ch", ["д", "€", "׀", "׃", "中", "😀"])
    def test_other(self, ch):
        assert char_class(ch) is CharClass.OTHER

    @given(st.characters())
    def test_total(self, ch):
        assert char_class(ch) in CharClass


class TestNormalize:
    """The letter stream parse reads: the text in the model alphabet."""

    def test_whitespace_collapse_example(self):
        assert parse("שלום  עולם")[0] == "שלום עולם"

    def test_strip_ends_and_collapse(self):
        assert parse("  א \t\n ב  ")[0] == "א ב"

    def test_digit_and_latin_placeholders(self):
        assert parse("א 123 abc")[0] == "א ### @@@"

    def test_typographic_to_ascii(self):
        assert parse("“א” — ב")[0] == '"א" - ב'

    def test_other_removed(self):
        assert parse("א😀ב")[0] == "אב"

    def test_marks_kept(self):
        # the marks leave the letter stream for the labels, and come back
        word = "ש" + SHIN_DOT + QAMATS + "לו" + HOLAM + "ם"
        letters, labels, _ = parse(word)
        assert letters == "שלום"
        assert render(letters, labels) == word

    def test_empty(self):
        assert parse("")[0] == ""
        assert parse("   ")[0] == ""

    @given(st.text(max_size=80))
    @settings(max_examples=200)
    def test_idempotent(self, text):
        once = parse(text)[0]
        assert parse(once)[0] == once


class TestDecompose:
    """Document.from_text: one set of labels per letter of dotted text."""

    def test_reference_word(self):
        assert oracle_chars(from_text("שָׁלוֹם")) == [
            ("ש", Niqqud.QAMATS, Dagesh.NONE, Sin.SHIN_DOT),
            ("ל", Niqqud.NONE, Dagesh.NONE, Sin.NONE),
            ("ו", Niqqud.HOLAM, Dagesh.NONE, Sin.NONE),
            ("ם", Niqqud.NONE, Dagesh.NONE, Sin.NONE),
        ]

    def test_mark_order_does_not_matter(self):
        assert oracle_chars(from_text("ש" + QAMATS + SHIN_DOT)) == oracle_chars(
            from_text("ש" + SHIN_DOT + QAMATS)
        )

    def test_duplicate_mark_last_wins(self):
        assert oracle_chars(from_text("ב" + PATAH + QAMATS))[0][1] == Niqqud.QAMATS

    def test_folds(self):
        assert oracle_chars(from_text("א" + QAMATS_QATAN))[0][1] == Niqqud.QAMATS
        assert oracle_chars(from_text("ו" + HOLAM_HASER_VAV))[0][1] == Niqqud.HOLAM

    def test_dropped_marks_ignored(self):
        with_meteg = from_text("א" + QAMATS + METEG)
        assert oracle_chars(with_meteg) == oracle_chars(from_text("א" + QAMATS))
        assert oracle_chars(from_text("ב" + RAFE)) == oracle_chars(from_text("ב"))

    def test_empty(self):
        doc = from_text("")
        assert doc.letters == "" and oracle_chars(doc) == []
        assert all(doc.labels[k].shape == (0,) for k in CATEGORIES)

    def test_illegal_combo_representable(self, caplog):
        # parse keeps it for the caller to mask; loading repairs it
        assert parse("ב" + SIN_DOT)[1]["sin"].tolist() == [Sin.SIN_DOT]
        with caplog.at_level(logging.WARNING):
            assert oracle_chars(from_text("ב" + SIN_DOT)) == [("ב", 0, 0, 0)]
        assert any("repaired 1" in r.message for r in caplog.records)


class TestCompose:
    """insert_marks: label arrays back into dotted text."""

    def test_canonical_order(self):
        labels = labels_of((Niqqud.QAMATS, Dagesh.DAGESH, Sin.SHIN_DOT))
        assert render("ש", labels) == "ש" + DAGESH_CH + SHIN_DOT + QAMATS

    def test_marks_go_after_raw_letters(self):
        raw = "  שלום,\t😀עולם "
        letters, _, ends = parse(raw)
        patah = [Niqqud.PATAH if ch in HEBREW_LETTERS else 0 for ch in letters]
        labels = labels_of(*((n, 0, 0) for n in patah))
        want = "".join(ch + PATAH if ch in HEBREW_LETTERS else ch for ch in raw)
        assert insert_marks(raw, ends, labels) == want
        assert insert_marks(raw, ends, labels_of(*[(0, 0, 0)] * len(letters))) == raw

    # A document read from text never renders a mark its letter cannot carry.
    def test_invariant_violation_sin_on_bet(self):
        assert from_text("ב" + SIN_DOT).text == "ב"

    def test_invariant_violation_dagesh_on_alef(self):
        assert from_text("א" + DAGESH_CH).text == "א"

    def test_invariant_violation_marks_on_space(self):
        doc = from_text("א " + PATAH + " ב")
        assert (doc.letters, doc.text) == ("א ב", "א ב")


def _legal_row(letter, niqqud, dagesh, sin):
    if letter not in HEBREW_LETTERS:
        return (letter, 0, 0, 0)
    return (
        letter,
        niqqud,
        dagesh if letter in DAGESH_CAPABLE else Dagesh.NONE,
        sin if letter == "ש" else Sin.NONE,
    )


legal_rows = st.builds(
    _legal_row,
    st.sampled_from(HEBREW_LETTERS + ".,!?#@"),
    st.sampled_from(list(Niqqud)),
    st.sampled_from(list(Dagesh)),
    st.sampled_from(list(Sin)),
)


def _stream(words):
    """A normalized letter stream, the words between single spaces, as
    (letters, labels)."""
    rows = [r for i, w in enumerate(words) for r in ([(" ", 0, 0, 0)] if i else []) + w]
    return "".join(r[0] for r in rows), labels_of(*(r[1:] for r in rows))


labelled_streams = st.lists(
    st.lists(legal_rows, min_size=1, max_size=8), max_size=5
).map(_stream)


class TestRoundTrip:
    @given(labelled_streams)
    @settings(max_examples=300)
    def test_decompose_inverts_compose(self, stream):
        letters, labels = stream
        text = render(letters, labels)
        got_letters, got_labels, ends = parse(text)
        assert got_letters == letters
        # each end is just past its letter; on the bare stream, 1..n
        assert [text[e - 1] for e in ends] == list(letters)
        assert parse(letters)[2] == list(range(1, len(letters) + 1))
        for k in CATEGORIES:
            assert got_labels[k].tolist() == labels[k].tolist(), k

    @given(labelled_streams)
    def test_compose_fixed_point(self, stream):
        text = render(*stream)
        assert render(*parse(text)[:2]) == text

    @given(labelled_streams)
    def test_strip_leaves_letters(self, stream):
        letters, labels = stream
        assert strip_diacritics(render(letters, labels)) == letters


class TestStrip:
    def test_removes_all_mark_classes(self):
        text = "ש" + DAGESH_CH + SHIN_DOT + QAMATS + METEG + "ל"
        assert strip_diacritics(text) == "של"

    def test_preserves_everything_else(self):
        text = "abc 123 !؟ \n\t😀 ׳״־"
        assert strip_diacritics(text) == text

    @given(st.text(max_size=80))
    def test_idempotent(self, text):
        once = strip_diacritics(text)
        assert strip_diacritics(once) == once


class TestDropOrphanMarks:
    @pytest.mark.parametrize(
        "text, want",
        [
            (QAMATS + "של", "של"),  # leading mark
            ("א " + QAMATS + " ב", "א  ב"),  # mark after a space
            ("ab" + QAMATS + "1" + DAGESH_CH + "!" + METEG, "ab1!"),
            ("ש" + SHIN_DOT + QAMATS + METEG + "ל", "ש" + SHIN_DOT + QAMATS + METEG + "ל"),
            # a character normalize removes does not separate a mark from its letter
            ("ש😀" + QAMATS, "ש😀" + QAMATS),
        ],
    )
    def test_cases(self, text, want):
        assert drop_orphan_marks(text) == want

    @given(st.text(alphabet="אבש ,a1😀" + QAMATS + DAGESH_CH + SHIN_DOT + METEG, max_size=40))
    def test_decompose_matches_stripped_letters(self, text):
        chars = decompose(normalize(drop_orphan_marks(text)))
        assert "".join(c[0] for c in chars) == normalize(strip_diacritics(text))


# Every label, folded and dropped mark from sheva to qamats qatan, with the
# few punctuation and removed code points among them, plus one cantillation.
MARK_BLOCK = "".join(chr(c) for c in range(0x05B0, 0x05C8)) + "\u0591"

# Any string, drawn mostly from what parse must handle with care: marks in
# every position, duplicate marks, whitespace runs, an astral and a removed
# code point (U+200F), punctuation, digits and Latin.
marked_text = st.text(
    alphabet=st.one_of(
        st.sampled_from(list("אבשכר  \t\n.,a1\U0001f600\u200f")),
        st.sampled_from(list(MARK_BLOCK)),
        st.characters(),
    ),
    max_size=60,
)


def check_ends(text, letters, ends):
    """ends has one offset per letter, rising strictly inside the text, and
    each points just past the raw character that produced its letter."""
    assert len(ends) == len(letters)
    assert all(1 <= e <= len(text) for e in ends)
    assert all(a < b for a, b in zip(ends, ends[1:]))
    for letter, end in zip(letters, ends):
        raw = text[end - 1]
        if letter == " ":
            assert raw.isspace()
        else:
            assert normalize(raw) == letter


class TestParse:
    def test_reference_word(self):
        letters, labels, ends = parse("שָׁלוֹם")
        assert letters == "שלום"
        assert ends == [1, 4, 5, 7]  # just past each base character
        assert labels["niqqud"].tolist() == [Niqqud.QAMATS, 0, Niqqud.HOLAM, 0]
        assert labels["dagesh"].tolist() == [0, 0, 0, 0]
        assert labels["sin"].tolist() == [Sin.SHIN_DOT, 0, 0, 0]
        assert all(labels[k].dtype == np.int8 for k in CATEGORIES)

    def test_duplicate_mark_last_wins(self):
        assert parse("ב" + PATAH + QAMATS)[1]["niqqud"].tolist() == [Niqqud.QAMATS]
        assert parse("ב" + QAMATS + PATAH)[1]["niqqud"].tolist() == [Niqqud.PATAH]
        assert parse("ש" + SIN_DOT + SHIN_DOT)[1]["sin"].tolist() == [Sin.SHIN_DOT]

    def test_mark_order_does_not_matter(self):
        a = parse("ש" + QAMATS + DAGESH_CH + SHIN_DOT)[1]
        b = parse("ש" + SHIN_DOT + QAMATS + DAGESH_CH)[1]
        assert all(a[k].tolist() == b[k].tolist() for k in CATEGORIES)

    def test_folds(self):
        assert parse("א" + QAMATS_QATAN)[1]["niqqud"].tolist() == [Niqqud.QAMATS]
        assert parse("ו" + HOLAM_HASER_VAV)[1]["niqqud"].tolist() == [Niqqud.HOLAM]

    def test_dropped_marks(self):
        for text in ("א" + QAMATS + METEG, "א" + METEG + QAMATS, "א" + RAFE + QAMATS + "֑"):
            letters, labels, ends = parse(text)
            assert (letters, ends) == ("א", [1])
            assert labels["niqqud"].tolist() == [Niqqud.QAMATS]

    def test_marks_never_split_whitespace(self):
        # a leading mark, or one after leading whitespace, has no character
        assert parse(PATAH + " " + QAMATS + "שלום")[0] == "שלום"
        letters, labels, ends = parse("א " + QAMATS + " ב")
        assert (letters, ends) == ("א ב", [1, 2, 5])
        # the mark sits on the space, where no decision mask admits it
        assert labels["niqqud"].tolist() == [0, Niqqud.QAMATS, 0]
        assert parse("א " + QAMATS)[0] == "א"
        assert parse("א " + QAMATS + " ")[1]["niqqud"].tolist() == [0]

    def test_removed_characters_do_not_detach_marks(self):
        letters, labels, ends = parse("ש😀" + QAMATS)
        assert (letters, ends) == ("ש", [1])
        assert labels["niqqud"].tolist() == [Niqqud.QAMATS]

    def test_empty(self):
        for text in ("", "   ", QAMATS, " " + METEG + "😀 "):
            letters, labels, ends = parse(text)
            assert (letters, ends) == ("", [])
            assert all(labels[k].shape == (0,) for k in CATEGORIES)

    def test_identity_on_clean_text(self):
        raw = "שלום עולם"
        letters, labels, ends = parse(raw)
        assert letters == raw
        assert ends == list(range(1, len(raw) + 1))
        assert all(not labels[k].any() for k in CATEGORIES)

    def test_ends_on_messy_text(self):
        raw = "  שלום,   עולם—טוב  "
        letters, _, ends = parse(raw)
        assert letters == normalize(raw) == "שלום, עולם-טוב"
        assert ends == [3, 4, 5, 6, 7, 8, 11, 12, 13, 14, 15, 16, 17, 18]
        check_ends(raw, letters, ends)

    @given(marked_text)
    @settings(max_examples=300)
    def test_ends_cover_input(self, text):
        letters, labels, ends = parse(text)
        assert letters == normalize(strip_diacritics(text))
        assert all(labels[k].shape == (len(letters),) for k in CATEGORIES)
        check_ends(text, letters, ends)

    @given(marked_text)
    @settings(max_examples=300)
    def test_stripped_matches_oracle(self, text):
        stripped = strip_diacritics(text)
        letters, labels, ends = parse(stripped)
        norm, spans, _ = normalize_mapped(stripped)
        assert letters == norm
        assert ends == [end for _, end in spans]
        assert all(not labels[k].any() for k in CATEGORIES)

    @given(marked_text)
    @settings(max_examples=300)
    def test_labels_match_oracle(self, text):
        letters, labels, _ = parse(text)
        chars = decompose(normalize(drop_orphan_marks(text)))
        assert "".join(c[0] for c in chars) == letters
        legal = decision_masks(letters)
        for i, k in enumerate(CATEGORIES, 1):
            want = np.array([c[i] for c in chars], np.int8)
            assert np.array_equal(
                np.where(legal[k], labels[k], 0), np.where(legal[k], want, 0)
            ), k


class TestPredicates:
    """decision_masks is the one rule for which marks a letter can carry."""

    def test_dagesh_exclusions(self):
        assert not decision_masks("אחערםןףץ")["dagesh"].any()
        assert decision_masks("בגדהוזטיךכלמנספצקשת")["dagesh"].all()

    def test_final_kaf_takes_dagesh(self):
        assert decision_masks("ך")["dagesh"].tolist() == [True]

    def test_niqqud_all_letters(self):
        assert decision_masks(HEBREW_LETTERS)["niqqud"].all()
        assert decision_masks(" a")["niqqud"].tolist() == [False, False]

    def test_shin_only(self):
        assert decision_masks("שס")["sin"].tolist() == [True, False]


class VowelClass(Enum):
    """What a reader hears, as the oracle's vowel groups spell it."""

    A = "a"
    E = "e"
    I = "i"
    O = "o"
    U = "u"
    NULL = "null"


VOWELS = [
    (Niqqud.NONE, VowelClass.NULL),
    (Niqqud.SHEVA, VowelClass.NULL),
    (Niqqud.PATAH, VowelClass.A),
    (Niqqud.QAMATS, VowelClass.A),
    (Niqqud.HATAF_PATAH, VowelClass.A),
    (Niqqud.TSERE, VowelClass.E),
    (Niqqud.SEGOL, VowelClass.E),
    (Niqqud.HATAF_SEGOL, VowelClass.E),
    (Niqqud.HIRIQ, VowelClass.I),
    (Niqqud.HOLAM, VowelClass.O),
    (Niqqud.HATAF_QAMATS, VowelClass.O),
    (Niqqud.QUBUTS, VowelClass.U),
]


def one_letter(letter, niqqud=0, dagesh=0, sin=0):
    return Document("x", letter, labels_of((niqqud, dagesh, sin)))


def voc(gold, pred):
    """score_document's VOC for a pair, checked against the oracle."""
    s = score_document(gold, pred)
    want = oracle_scores(gold, pred)
    assert (s.voc.correct, s.voc.total) == want["voc"]
    assert (s.wor.correct, s.wor.total) == want["wor"]
    return s.voc


class TestVocalizationSignature:
    """VOC compares what a reader would pronounce: the vowel class, the
    sin dot on shin and the dagesh on b/k/p."""

    @pytest.mark.parametrize("niqqud,vowel", VOWELS)
    def test_vowel_classes(self, niqqud, vowel):
        assert ORACLE_VOWEL_GROUP[niqqud] == vowel.value
        gold = one_letter("ל", niqqud)
        for other, heard in VOWELS:
            assert voc(gold, one_letter("ל", other)) == Counts(int(heard is vowel), 1)

    def test_sin_only_on_shin(self):
        sin, shin = one_letter("ש", sin=Sin.SIN_DOT), one_letter("ש", sin=Sin.SHIN_DOT)
        assert voc(sin, shin) == Counts(0, 1)
        # a sin label off shin is no decision and no sound
        assert voc(one_letter("ל", sin=Sin.SIN_DOT), one_letter("ל")) == Counts(1, 1)

    def test_bkp_dagesh(self):
        for ch in BKP_LETTERS:
            assert voc(one_letter(ch, dagesh=Dagesh.DAGESH), one_letter(ch)) == Counts(0, 1)
        # dagesh elsewhere is not pronunciation-bearing
        assert voc(one_letter("ת", dagesh=Dagesh.DAGESH), one_letter("ת")) == Counts(1, 1)

    def test_sheva_equals_nothing(self):
        assert voc(one_letter("ל", Niqqud.SHEVA), one_letter("ל")) == Counts(1, 1)

    def test_qamats_equals_patah(self):
        qamats, patah = one_letter("ל", Niqqud.QAMATS), one_letter("ל", Niqqud.PATAH)
        assert voc(qamats, patah) == Counts(1, 1)


class TestValidateRepair:
    def test_positions_reported(self, caplog):
        with caplog.at_level(logging.WARNING):
            doc = from_text("ב" + SIN_DOT + "אר" + DAGESH_CH)
        assert oracle_chars(doc) == [("ב", 0, 0, 0), ("א", 0, 0, 0), ("ר", 0, 0, 0)]
        messages = [r.message for r in caplog.records]
        assert any(
            "repaired 2 invalid mark placement(s), first at 0: sin on 'ב'" in m
            for m in messages
        ), messages
