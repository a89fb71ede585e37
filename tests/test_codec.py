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
    InvariantViolation,
    LeadingMarkError,
    MarkedChar,
    Niqqud,
    Sin,
    VowelClass,
    can_dagesh,
    can_niqqud,
    char_class,
    compose,
    decompose,
    is_shin,
    normalize,
    parse,
    strip_diacritics,
    validate,
    vocalization_signature,
)
from hebdot.corpus import CATEGORIES, decision_masks

from codec_oracle import drop_orphan_marks, normalize_mapped

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
    def test_whitespace_collapse_example(self):
        assert normalize("שלום  עולם") == "שלום עולם"

    def test_strip_ends_and_collapse(self):
        assert normalize("  א \t\n ב  ") == "א ב"

    def test_digit_and_latin_placeholders(self):
        assert normalize("א 123 abc") == "א ### @@@"

    def test_typographic_to_ascii(self):
        assert normalize("“א” — ב") == '"א" - ב'

    def test_other_removed(self):
        assert normalize("א😀ב") == "אב"

    def test_marks_kept(self):
        word = compose(decompose("שָׁלוֹם"))
        assert normalize(word) == word

    def test_empty(self):
        assert normalize("") == ""
        assert normalize("   ") == ""

    @given(st.text(max_size=80))
    @settings(max_examples=200)
    def test_idempotent(self, text):
        once = normalize(text)
        assert normalize(once) == once


class TestDecompose:
    def test_reference_word(self):
        seq = decompose("שָׁלוֹם")
        assert [
            (c.letter, c.niqqud, c.dagesh, c.sin) for c in seq
        ] == [
            ("ש", Niqqud.QAMATS, Dagesh.NONE, Sin.SHIN_DOT),
            ("ל", Niqqud.NONE, Dagesh.NONE, Sin.NONE),
            ("ו", Niqqud.HOLAM, Dagesh.NONE, Sin.NONE),
            ("ם", Niqqud.NONE, Dagesh.NONE, Sin.NONE),
        ]

    def test_mark_order_does_not_matter(self):
        assert decompose("ש" + QAMATS + SHIN_DOT) == decompose("ש" + SHIN_DOT + QAMATS)

    def test_duplicate_mark_last_wins(self):
        seq = decompose("ב" + PATAH + QAMATS)
        assert seq[0].niqqud is Niqqud.QAMATS

    def test_folds(self):
        assert decompose("א" + QAMATS_QATAN)[0].niqqud is Niqqud.QAMATS
        assert decompose("ו" + HOLAM_HASER_VAV)[0].niqqud is Niqqud.HOLAM

    def test_dropped_marks_ignored(self):
        assert decompose("א" + QAMATS + METEG) == decompose("א" + QAMATS)
        assert decompose("ב" + RAFE) == decompose("ב")

    def test_leading_mark_raises(self):
        with pytest.raises(LeadingMarkError):
            decompose(QAMATS + "א")
        with pytest.raises(LeadingMarkError):
            decompose(METEG)

    def test_empty(self):
        assert decompose("") == []

    def test_illegal_combo_representable(self):
        # decompose accepts, validate reports
        seq = decompose("ב" + SIN_DOT)
        assert seq[0].sin is Sin.SIN_DOT
        problems = validate(seq)
        assert len(problems) == 1 and problems[0][0] == 0


class TestCompose:
    def test_canonical_order(self):
        mc = MarkedChar("ש", niqqud=Niqqud.QAMATS, dagesh=Dagesh.DAGESH, sin=Sin.SHIN_DOT)
        assert compose([mc]) == "ש" + DAGESH_CH + SHIN_DOT + QAMATS

    def test_invariant_violation_sin_on_bet(self):
        with pytest.raises(InvariantViolation):
            compose([MarkedChar("ב", sin=Sin.SIN_DOT)])

    def test_invariant_violation_dagesh_on_alef(self):
        with pytest.raises(InvariantViolation):
            compose([MarkedChar("א", dagesh=Dagesh.DAGESH)])

    def test_invariant_violation_marks_on_space(self):
        with pytest.raises(InvariantViolation):
            compose([MarkedChar(" ", niqqud=Niqqud.PATAH)])


def _valid_marked_char(letter, niqqud, dagesh, sin) -> MarkedChar:
    if letter not in HEBREW_LETTERS:
        return MarkedChar(letter)
    return MarkedChar(
        letter,
        niqqud=niqqud,
        dagesh=dagesh if letter in DAGESH_CAPABLE else Dagesh.NONE,
        sin=sin if letter == "ש" else Sin.NONE,
    )


valid_chars = st.builds(
    _valid_marked_char,
    st.sampled_from(HEBREW_LETTERS + " .,!?#@"),
    st.sampled_from(list(Niqqud)),
    st.sampled_from(list(Dagesh)),
    st.sampled_from(list(Sin)),
)


class TestRoundTrip:
    @given(st.lists(valid_chars, max_size=30))
    @settings(max_examples=300)
    def test_decompose_inverts_compose(self, seq):
        assert decompose(compose(seq)) == seq

    @given(st.lists(valid_chars, max_size=30))
    def test_compose_fixed_point(self, seq):
        text = compose(seq)
        assert compose(decompose(text)) == text

    @given(st.lists(valid_chars, max_size=30))
    def test_strip_leaves_letters(self, seq):
        assert strip_diacritics(compose(seq)) == "".join(c.letter for c in seq)


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
        assert "".join(c.letter for c in chars) == normalize(strip_diacritics(text))


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
        assert "".join(c.letter for c in chars) == letters
        legal = decision_masks(letters)
        for k in CATEGORIES:
            want = np.array([getattr(c, k) for c in chars], np.int8)
            assert np.array_equal(
                np.where(legal[k], labels[k], 0), np.where(legal[k], want, 0)
            ), k


class TestPredicates:
    def test_dagesh_exclusions(self):
        for ch in "אחערםןףץ":
            assert not can_dagesh(ch)
        for ch in "בגדהוזטיךכלמנספצקשת":
            assert can_dagesh(ch), ch

    def test_final_kaf_takes_dagesh(self):
        assert can_dagesh("ך")

    def test_niqqud_all_letters(self):
        assert all(can_niqqud(ch) for ch in HEBREW_LETTERS)
        assert not can_niqqud(" ")
        assert not can_niqqud("a")

    def test_shin_only(self):
        assert is_shin("ש")
        assert not is_shin("ס")

    def test_custom_capability_set(self):
        assert not can_dagesh("ב", capable=frozenset("ג"))
        assert can_dagesh("ג", capable=frozenset("ג"))


class TestVocalizationSignature:
    @pytest.mark.parametrize(
        "niqqud,vowel",
        [
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
        ],
    )
    def test_vowel_classes(self, niqqud, vowel):
        assert vocalization_signature(MarkedChar("א", niqqud=niqqud)).vowel is vowel

    def test_sin_only_on_shin(self):
        sig = vocalization_signature(MarkedChar("ש", sin=Sin.SIN_DOT))
        assert sig.sin is Sin.SIN_DOT
        assert vocalization_signature(MarkedChar("ל")).sin is None

    def test_bkp_dagesh(self):
        for ch in BKP_LETTERS:
            with_d = vocalization_signature(MarkedChar(ch, dagesh=Dagesh.DAGESH))
            without = vocalization_signature(MarkedChar(ch))
            assert with_d.bkp_dagesh is True and without.bkp_dagesh is False
        # dagesh elsewhere is not pronunciation-bearing
        assert vocalization_signature(MarkedChar("ת", dagesh=Dagesh.DAGESH)).bkp_dagesh is None

    def test_sheva_equals_nothing(self):
        a = vocalization_signature(MarkedChar("ל", niqqud=Niqqud.SHEVA))
        b = vocalization_signature(MarkedChar("ל"))
        assert a == b

    def test_qamats_equals_patah(self):
        a = vocalization_signature(MarkedChar("ל", niqqud=Niqqud.QAMATS))
        b = vocalization_signature(MarkedChar("ל", niqqud=Niqqud.PATAH))
        assert a == b

    def test_non_hebrew_raises(self):
        with pytest.raises(ValueError):
            vocalization_signature(MarkedChar("a"))


class TestValidateRepair:
    def test_positions_reported(self):
        seq = [
            MarkedChar("ב", sin=Sin.SIN_DOT),
            MarkedChar("א"),
            MarkedChar("ר", dagesh=Dagesh.DAGESH),
        ]
        problems = validate(seq)
        assert [p[0] for p in problems] == [0, 2]
