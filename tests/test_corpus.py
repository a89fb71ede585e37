import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hebdot.codec import (
    _TYPOGRAPHIC_MAP,
    BKP_LETTERS,
    DAGESH_CAPABLE,
    GERESH,
    GERSHAYIM,
    NIQQUD_CAPABLE,
    SHIN,
    Niqqud,
    parse,
    strip_diacritics,
)
from hebdot.corpus import (
    CATEGORIES,
    MAX_CHUNK_LEN,
    SPLITS,
    Document,
    EmptyCorpus,
    Vocabulary,
    chunk_spans,
    encode_document,
    hebrew_token_count,
    letter_mask,
    load_corpus,
    load_dir,
    load_file,
    make_batches,
    split_stats,
    token_spans,
)

import corpus_oracle
from codec_oracle import normalize
from conftest import doc_from_text


class TestLoading:
    def test_bundled_splits_load(self, bundled_corpus_root):
        for split in SPLITS:
            docs = load_corpus(bundled_corpus_root, split)
            assert docs, split

    def test_ids_are_sorted_relative_paths(self, bundled_corpus_root):
        docs = load_corpus(bundled_corpus_root, "modern")
        ids = [d.id for d in docs]
        assert ids == sorted(ids)
        assert all(not i.endswith(".txt") for i in ids)

    def test_text_is_canonical(self, bundled_corpus_root):
        for d in load_corpus(bundled_corpus_root, "modern"):
            again = Document.from_text(d.id, d.text)
            assert again.text == d.text
            assert again.letters == d.letters
            for k in CATEGORIES:
                assert np.array_equal(again.labels[k], d.labels[k]), (d.id, k)

    def test_test_documents_load_like_files(self, tmp_path):
        # a mark after a space sits on no letter, and the space run stays one
        text = "א " + "ָ" + " ב"
        path = tmp_path / "doc.txt"
        path.write_bytes(text.encode("utf-8"))
        loaded = load_file(path, "doc")
        built = doc_from_text(text)
        assert built.letters == loaded.letters == "א ב"
        for k in CATEGORIES:
            assert built.labels[k].tolist() == loaded.labels[k].tolist() == [0, 0, 0]

    def test_unknown_split_rejected(self, bundled_corpus_root):
        with pytest.raises(ValueError):
            load_corpus(bundled_corpus_root, "dev")

    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(EmptyCorpus):
            load_dir(tmp_path)

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(EmptyCorpus):
            load_corpus(tmp_path, "modern")

    def test_empty_file_skipped(self, tmp_path, caplog):
        (tmp_path / "empty.txt").write_text("\n  \n", encoding="utf-8")
        (tmp_path / "ok.txt").write_text("שָׁלוֹם\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            docs = load_dir(tmp_path)
        assert [d.id for d in docs] == ["ok"]
        assert any("skipped" in r.message for r in caplog.records)

    def test_invalid_marks_repaired(self, tmp_path, caplog):
        # sin dot on bet cannot stand; load must drop it and log
        (tmp_path / "noisy.txt").write_text("בׂא", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            docs = load_dir(tmp_path)
        assert docs[0].text == "בא"
        assert any("repaired" in r.message for r in caplog.records)

    def test_leading_marks_dropped(self, tmp_path, caplog):
        (tmp_path / "lead.txt").write_text("ָשָׁלוֹם", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            docs = load_dir(tmp_path)
        assert docs[0].letters == "שלום"
        assert any("leading" in r.message for r in caplog.records)

    def test_repair_drops_only_bad_marks(self, tmp_path, caplog):
        # patah stays on resh, its dagesh goes; the patah on a Latin letter goes
        path = tmp_path / "noisy.txt"
        path.write_text("רַּ aַ", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            doc = load_file(path, "noisy")
        assert doc.letters == "ר @"
        assert doc.labels["niqqud"].tolist() == [Niqqud.PATAH, 0, 0]
        assert not doc.labels["dagesh"].any() and not doc.labels["sin"].any()
        assert any("repaired 2" in r.message for r in caplog.records)

    def test_marks_on_no_letter_dropped(self, tmp_path, caplog):
        # patah, space, qamats before the first letter; a mark between spaces
        path = tmp_path / "orphans.txt"
        path.write_text("ַ ָשלום " + "ָ" + " עולם " + "ָ", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            doc = load_file(path, "orphans")
        assert doc.letters == "שלום עולם"
        assert not any(doc.labels[k].any() for k in CATEGORIES)
        assert any("dropped 2 leading" in r.message for r in caplog.records)

    @given(
        st.text(
            # letters, whitespace, punctuation, Latin, a digit, an astral and a
            # removed code point, label marks, then meteg, rafe, cantillation
            alphabet="אבשכר \t\n.,!a1😀\u200f"
            + "\u05b7\u05b8\u05bc\u05c1\u05c2"
            + "\u05bd\u05bf\u0591",
            max_size=40,
        )
    )
    def test_letters_are_what_dot_sees(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("prop") / "doc.txt"
        path.write_bytes(text.encode("utf-8"))
        raw = path.read_text(encoding="utf-8")
        want = normalize(strip_diacritics(raw))
        doc = load_file(path, "doc")
        assert (doc.letters if doc else "") == want

    def test_nested_dirs(self, tmp_path):
        sub = tmp_path / "a" / "b"
        sub.mkdir(parents=True)
        (sub / "deep.txt").write_text("אָב", encoding="utf-8")
        docs = load_dir(tmp_path)
        assert docs[0].id == "a/b/deep"


class TestTokens:
    @pytest.mark.parametrize(
        "text,count",
        [
            ("שלום עולם", 2),
            ("שלום", 1),
            ("", 0),
            ("abc 123", 0),
            ("שלום.", 1),
            ("צה״ל", 1),
            ('צה"ל', 1),
            ("ג׳ירפה", 1),
            ("יש־לי", 2),  # maqaf separates
            ("א-ב", 2),  # ASCII hyphen separates
            ("ש׳", 1),  # trailing geresh is not part of the token
            ("של״ה של", 2),
        ],
    )
    def test_counts(self, text, count):
        assert hebrew_token_count(text) == count

    def test_spans_match_count(self):
        text = "שלום צה״ל עולם"
        spans = token_spans(text)
        assert len(spans) == hebrew_token_count(text) == 3
        assert [text[s:e] for s, e in spans] == ["שלום", "צה״ל", "עולם"]


class TestChunking:
    def test_short_text_single_chunk(self):
        assert chunk_spans("אב גד", 80) == [(0, 5)]

    def test_splits_at_last_space(self):
        # window of 4 over "אב אב": last space at 2, boundary space stays left
        assert chunk_spans("אב אב", 4) == [(0, 3), (3, 5)]

    def test_hard_split_long_run(self):
        assert chunk_spans("א" * 10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_empty(self):
        assert chunk_spans("", 80) == []

    def test_bad_max_len(self):
        with pytest.raises(ValueError):
            chunk_spans("אב", 0)

    @given(
        st.text(
            alphabet=st.sampled_from("אבג ש."),
            max_size=300,
        ),
        st.integers(min_value=1, max_value=90),
    )
    @settings(max_examples=200)
    def test_partition(self, text, max_len):
        spans = chunk_spans(text, max_len)
        assert "".join(text[s:e] for s, e in spans) == text
        assert all(e - s <= max_len for s, e in spans)
        assert all(e > s for s, e in spans)

    def test_default_limit_is_80(self):
        text = "א" * 200
        assert all(e - s <= MAX_CHUNK_LEN for s, e in chunk_spans(text))


class TestVocabulary:
    def test_size_and_special_ids(self):
        vocab = Vocabulary()
        assert vocab.PAD == 0 and vocab.UNK == 1
        assert vocab.size == 65
        assert vocab.encode(" ").tolist() == [2]

    def test_fixed_and_deterministic(self):
        assert Vocabulary().alphabet == Vocabulary().alphabet

    def test_unknown_maps_to_unk(self):
        vocab = Vocabulary()
        assert vocab.encode("ל")[0] > 1
        assert vocab.encode("€")[0] == vocab.UNK
        assert vocab.encode("a")[0] == vocab.UNK  # raw Latin never reaches encode

    def test_encode(self):
        vocab = Vocabulary()
        ids = vocab.encode("אב ")
        assert ids.dtype == np.int32
        alef, bet = (vocab.alphabet.index(ch) + 2 for ch in "אב")
        assert ids.tolist() == [alef, bet, 2]

    def test_json_round_trip(self):
        vocab = Vocabulary()
        again = Vocabulary.from_json(vocab.to_json())
        assert again.alphabet == vocab.alphabet
        assert again.size == vocab.size

    def test_normalized_alphabet_covered(self, bundled_corpus_root):
        vocab = Vocabulary()
        for split in SPLITS:
            for doc in load_corpus(bundled_corpus_root, split):
                ids = vocab.encode(doc.letters)
                assert (ids != vocab.UNK).all(), doc.id

    def test_duplicate_alphabet_rejected(self):
        alphabet = Vocabulary().to_json()["alphabet"]
        with pytest.raises(ValueError, match="duplicate"):
            Vocabulary.from_json({"alphabet": alphabet + "א"})


# Text for the code-point tables: the model alphabet, the Hebrew marks,
# typographic quotes, code points past every table (astral ones among them)
# and lone surrogates.
_ALPHABET = Vocabulary().to_json()["alphabet"]
table_text = st.text(
    alphabet=st.one_of(
        st.sampled_from(_ALPHABET),
        st.sampled_from([chr(c) for c in range(0x0591, 0x05C8)]),
        st.sampled_from(sorted(_TYPOGRAPHIC_MAP)),
        st.characters(min_codepoint=0x05F5),
        st.characters(min_codepoint=0x10000),
        st.integers(0xD800, 0xDFFF).map(chr),
    ),
    max_size=60,
)
char_sets = st.one_of(
    st.sampled_from(
        [DAGESH_CAPABLE, NIQQUD_CAPABLE, SHIN, BKP_LETTERS, GERESH + GERSHAYIM + "'\""]
    ),
    st.frozensets(st.one_of(st.sampled_from(_ALPHABET), st.characters()), max_size=5),
)


class TestCodePointTables:
    @given(table_text, char_sets)
    @example("", SHIN)
    @example("\ud800ש\U0001f600", frozenset())
    @settings(max_examples=300)
    def test_letter_mask_matches_isin(self, text, chars):
        got = letter_mask(text, chars)
        assert got.dtype == bool
        assert np.array_equal(got, corpus_oracle.letter_mask(text, chars))

    @given(table_text)
    @example("")
    @settings(max_examples=300)
    def test_encode_matches_lookup(self, text):
        vocab = Vocabulary()
        got = vocab.encode(text)
        assert got.dtype == np.int32
        assert np.array_equal(got, corpus_oracle.encode(vocab, text))

    @given(table_text)
    @settings(max_examples=100)
    def test_encode_with_astral_alphabet(self, text):
        vocab = Vocabulary.from_json({"alphabet": _ALPHABET + "\U0001f600"})
        assert np.array_equal(vocab.encode(text), corpus_oracle.encode(vocab, text))

    @given(table_text)
    @example("")
    @example("צה״ל ש׳ א''ב \"אב\" ג'ד'ה")
    @settings(max_examples=300)
    def test_token_spans_match_regex(self, text):
        spans = token_spans(text)
        assert [tuple(s) for s in spans.tolist()] == corpus_oracle.token_spans(text)
        assert hebrew_token_count(text) == len(spans)


class TestEncodeDocument:
    @staticmethod
    def _windows(chunks):
        """Each chunk as the slice of the encoded letters it covers."""
        return [slice(s, s + n) for s, n in zip(chunks.starts, chunks.lengths)]

    def test_masks_match_capability_predicates(self, bundled_corpus_root):
        docs = load_corpus(bundled_corpus_root, "modern")
        letters = "".join(d.letters for d in docs)
        chunks = encode_document(docs, Vocabulary())
        for at in self._windows(chunks):
            for i, ch in enumerate(letters[at], start=at.start):
                assert chunks.masks["niqqud"][i] == (ch in NIQQUD_CAPABLE)
                assert chunks.masks["dagesh"][i] == (ch in DAGESH_CAPABLE)
                assert chunks.masks["sin"][i] == (ch == "ש")

    def test_golds_match_chars(self, bundled_corpus_root):
        # the golds are the labels read back from the rendered text
        doc = load_corpus(bundled_corpus_root, "modern")[0]
        letters, labels, _ = parse(doc.text)
        assert letters == doc.letters
        chunks = encode_document([doc], Vocabulary())
        for at in self._windows(chunks):
            for i in range(at.start, at.stop):
                for k in CATEGORIES:
                    assert chunks.golds[k][i] == labels[k][i], k

    def test_windows_cover_all_decisions(self):
        # boundary spaces are trimmed from windows; letters never are
        doc = doc_from_text("אב גד הו" * 15, doc_id="x")
        covered = np.zeros(len(doc.letters), dtype=bool)
        for at in self._windows(encode_document([doc], Vocabulary(), max_len=10)):
            covered[at] = True
        uncovered = np.flatnonzero(~covered)
        assert all(doc.letters[i] == " " for i in uncovered)

    def test_chunk_lengths_bounded(self, bundled_corpus_root):
        docs = load_corpus(bundled_corpus_root, "premodern")
        lengths = encode_document(docs, Vocabulary()).lengths
        assert lengths.size and np.all((1 <= lengths) & (lengths <= MAX_CHUNK_LEN))

    def test_windows_stay_in_their_document(self, bundled_corpus_root):
        docs = load_corpus(bundled_corpus_root, "modern")
        chunks = encode_document(docs, Vocabulary())
        starts = np.cumsum([0] + [len(d.letters) for d in docs])
        doc_of = np.searchsorted(starts, chunks.starts, side="right") - 1
        last = chunks.starts + chunks.lengths - 1
        assert np.array_equal(np.searchsorted(starts, last, side="right") - 1, doc_of)
        for i, doc in enumerate(docs):
            want = encode_document([doc], Vocabulary())
            assert np.array_equal(chunks.starts[doc_of == i] - starts[i], want.starts)
            assert np.array_equal(chunks.lengths[doc_of == i], want.lengths)

    def test_memory_is_flat_arrays_only(self, bundled_corpus_root):
        # int32 ids, 3 int8 golds and 3 bool masks per letter; an int64
        # start and an int32 length per chunk; no Python object per chunk
        docs = [d for split in SPLITS for d in load_corpus(bundled_corpus_root, split)]
        chunks = encode_document(docs, Vocabulary())
        letters = sum(len(d.letters) for d in docs)
        arrays = []
        for value in vars(chunks).values():
            if isinstance(value, dict):
                assert sorted(value) == sorted(CATEGORIES)
                arrays += value.values()
            else:
                arrays.append(value)
        assert all(isinstance(a, np.ndarray) and a.dtype != object for a in arrays)
        assert all(a.base is None for a in arrays)  # nbytes is what each holds
        assert len(chunks.ids) == letters
        assert sum(a.nbytes for a in arrays) <= 10 * letters + 12 * len(chunks)


class TestBatches:
    def _chunks(self, bundled_corpus_root):
        return encode_document(load_corpus(bundled_corpus_root, "modern"), Vocabulary())

    @staticmethod
    def _keys(chunks):
        """Each chunk as (start, letter id bytes)."""
        return [
            (int(s), chunks.ids[s : s + n].tobytes())
            for s, n in zip(chunks.starts, chunks.lengths)
        ]

    @staticmethod
    def _rows(batches):
        """Each batch row as (start, letter id bytes of its length)."""
        return [
            (int(batch.starts[i]), batch.letter_ids[i, : batch.lengths[i]].tobytes())
            for batch in batches
            for i in range(batch.size)
        ]

    @staticmethod
    def _arrays(batch):
        return (
            batch.letter_ids,
            *batch.golds.values(),
            *batch.masks.values(),
            batch.lengths,
            batch.starts,
        )

    def test_partition_exact(self, bundled_corpus_root):
        chunks = self._chunks(bundled_corpus_root)
        batches = make_batches(chunks, batch_size=7, seed=5)
        assert sorted(self._rows(batches)) == sorted(self._keys(chunks))

    def test_shuffle_deterministic(self, bundled_corpus_root):
        chunks = self._chunks(bundled_corpus_root)
        a = make_batches(chunks, batch_size=8, seed=3)
        b = make_batches(chunks, batch_size=8, seed=3)
        for x, y in zip(a, b):
            assert np.array_equal(x.letter_ids, y.letter_ids)
            assert np.array_equal(x.starts, y.starts)

    def test_different_seeds_differ(self, bundled_corpus_root):
        chunks = self._chunks(bundled_corpus_root)
        a = make_batches(chunks, batch_size=8, seed=3)
        b = make_batches(chunks, batch_size=8, seed=4)
        assert self._rows(a) != self._rows(b)

    def test_none_seed_keeps_order(self, bundled_corpus_root):
        chunks = self._chunks(bundled_corpus_root)
        batches = make_batches(chunks, batch_size=5, seed=None)
        assert self._rows(batches) == self._keys(chunks)

    def test_padding_is_inert(self, bundled_corpus_root):
        chunks = self._chunks(bundled_corpus_root)
        for batch in make_batches(chunks, batch_size=6, seed=1):
            width = batch.letter_ids.shape[1]
            for i in range(batch.size):
                n = int(batch.lengths[i])
                assert np.all(batch.letter_ids[i, n:] == 0)
                for k in CATEGORIES:
                    assert not batch.masks[k][i, n:].any()
                    assert np.all(batch.golds[k][i, n:] == 0)
            assert width == int(batch.lengths.max())

    @pytest.mark.parametrize("batch_size, seed", [(7, 5), (16, None), (1, 3), (10**6, 0)])
    def test_sized_and_reiterable(self, bundled_corpus_root, batch_size, seed):
        # a sized sequence, read as often as asked: a traced run counts and
        # reads the batches before the training loop does
        chunks = self._chunks(bundled_corpus_root)
        batches = make_batches(chunks, batch_size, seed=seed)
        assert len(batches) == math.ceil(len(chunks) / batch_size)
        first, again = list(batches), list(batches)
        assert len(first) == len(again) == len(batches)
        for x, y in zip(first, again):
            for a, b in zip(self._arrays(x), self._arrays(y)):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        with pytest.raises(IndexError):
            batches[len(batches)]

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            make_batches(encode_document([], Vocabulary()), batch_size=0)


class TestStats:
    def test_counts_consistent(self, bundled_corpus_root):
        docs = load_corpus(bundled_corpus_root, "modern")
        stats = split_stats(docs)
        assert stats.documents == len(docs)
        assert stats.tokens == sum(hebrew_token_count(d.letters) for d in docs)
        assert stats.chars == sum(len(d.letters) for d in docs)
