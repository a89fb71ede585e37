import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hebdot import codec
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
    drop_orphan_marks,
    is_shin,
    normalize,
    normalize_mapped,
    strip_diacritics,
    validate,
    vocalization_signature,
)

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

    @given(st.text(max_size=80))
    @settings(max_examples=200)
    def test_mapped_covers_input(self, text):
        norm, spans, removed = normalize_mapped(text)
        assert len(spans) == len(norm)
        covered = sorted(
            [p for s, e in spans for p in range(s, e)]
            + [p for s, e in removed for p in range(s, e)]
        )
        assert covered == list(range(len(text)))
        # spans ordered and non-overlapping
        flat = sorted(spans + removed)
        for (s1, e1), (s2, e2) in zip(flat, flat[1:]):
            assert e1 <= s2


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

    def test_repair_drops_only_bad_marks(self):
        seq = [
            MarkedChar("ר", niqqud=Niqqud.PATAH, dagesh=Dagesh.DAGESH),
            MarkedChar("a", niqqud=Niqqud.PATAH),
        ]
        fixed = codec.drop_invalid_marks(seq)
        assert fixed[0] == MarkedChar("ר", niqqud=Niqqud.PATAH)
        assert fixed[1] == MarkedChar("a")
        assert validate(fixed) == []
