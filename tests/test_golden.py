"""Golden values for loading and batching the bundled corpus.

The sha256 of every bundled document's letter stream (UTF-8) and of its
label bytes (the int8 arrays of CATEGORIES, concatenated in that order),
of the stdout of ``hebdot stats --corpus tests/data/corpus``, and of every
training batch of each split (its arrays' dtypes, shapes and bytes, in
batch order) at three batch sizes and shuffle seeds.  Loading and batching
are pure integer work, so these do not depend on BLAS or the platform.  The
values were taken from the per-character loader that ``codec.parse``
replaced; a codec change that moves any of them changes what the model
learns from and must say so.
"""

import hashlib

from hebdot.cli import main
from hebdot.corpus import (
    CATEGORIES, SPLITS, Vocabulary, encode_document, load_corpus, make_batches
)

GOLDEN_DOCUMENTS = {
    "premodern/opening": ("7fcb57079801fb67a684dede4337c9bec74bcafb29daeb6a4e04490171f5af2c", "294851182bc6476df3677c9da2a22c25f7f242ddcc42c19844058c1ebf60767f"),
    "premodern/scroll0": ("b56560952a038a1e92f33aa34e5044668fdc4da5390737259863731b7b9aac7d", "07bb6a8c877e0e309a20603165f84f6b7ca737b34892604dbeb74ad160aa3270"),
    "premodern/scroll1": ("b9ceabaa5659435032caed942c3e8a8784973f8098b1264b0f2dce4849d4fda6", "8973d9ab98bc3e917d3ffb6a24ce69a6042c48d13479b3e682398ce68b82bdb7"),
    "modern/doc00": ("28365ae350a0d2940f8afb390b437cb455f420010f87535c407476661d31f67d", "d6e67d2e9337f80ffb3cd0aff3e02e27d16a9c097e95112edf5d228245ec587b"),
    "modern/doc01": ("c1c8ada4f7481fcbe6eb0298e4d532a247b08fcc5552be4fb00e8d05c39e5b9f", "0011339e62694d622f1b10a636c564176757a54f3d5958295213e8cf75562541"),
    "modern/doc02": ("e071213ee0cd84a99fb30ab3a2251aa4c207df4f12d21b1697b78b5aa8e4231a", "118182380eddba5b2f66ecbad8e906356368c21628756343c034bc47f2d394ff"),
    "modern/doc03": ("f19bdcc625997bd04bc259bad44b9c48841a62e45589af857c7ac0ef17d78980", "77329e6b68f7da506fca1156de6878cc563e17ef9dcb48b5c860faa63338a489"),
    "modern/doc04": ("90f25c1b09c5d26d19f4ab5b8856b8e3d27a80853252713462438db2302b1130", "41aee88741f174e3586b7988aba6637a89e0437a7f1d91d2676023837012a88b"),
    "modern/doc05": ("7fe94af62ce36296429b74eb36997db8da7856b476d63b06bb6def0163845f69", "9ec9b9d76c88513297c9591053be737750dffe01703c72f7b48630465244d6d2"),
    "modern/doc06": ("6906eb4bf63fa0a24392edec43afd3abe5b401c8ebd683b87d4a4f3806371af8", "1580213df8d982197ffda6abd01001cb536dc1d87a245baf12104a2b361778b0"),
    "modern/doc07": ("1e11167678b75ceaff8243d0ed6702018824765c7956882f4bc13a9a42149ae9", "ec138970f906134b9eb674ccba26163ed446353636fc2f11b09cb48c581a7a02"),
    "modern/doc08": ("b1310e1e81310d63b2e66d104f31a3c34fd7cb55a6e35d3b85612625ff8560a3", "08d02e9bf27a36145af0be49577e3671b901b700169b62b5ba8cb003a8c962d5"),
    "modern/doc09": ("1888d7ae3c1af34a1bb901465b658a3764bfb78713c40b0f946ea6fdd1ed9d78", "1b0279b16671c668e058deff21afb21206d8a4eb1202e4d294c7696a0ad37649"),
    "modern/mixed_punct": ("c5444e905bc1c48e773acda3abba21d473826660f93a86542ab787494cada834", "7ca943df1a2404b98ad5866143c453b2297693973dff16940383ee82b4151ded"),
    "modern/short_lines": ("943ca46405377c53c218fbf83d3a9098d1eec269e7faabb7c4678fcd22c01ccb", "ee31d5e9c0f00f2f24fea689582458abbad93eba61e41f73e83c760bd58c12fb"),
    "validation/vdoc0": ("6d05f1b4e7dfe893a38214faaea704445f2cf375aebbb69d41b5b36541314cde", "bdbe4e183d44f5b688dd02307351d16a64b564d4f8ec0a40b0e5d1c4ef6a9a99"),
    "validation/vdoc1": ("ab9d056c9a15bece397606692dac2a6531258f47bc69938f7ee3e0c60dc3fed5", "d0dec8f3d01e85a13387159b2f32b01ab0620294e6d62649015376d926550da9"),
    "test/tdoc0": ("23f621154dcde16abdb05191a021db220d2ec84ebca71d33a5ff8c9fbb27ce9c", "12575f048dee6c73ca79006b170febd76357c6e39f0f9d17957230c402036747"),
    "test/tdoc1": ("83b7cde3767b0a7f22028fa34b1c4e27ea0f1bc63c56e2b7b15ec9430dc66f1c", "199a85d9730150707a686b959c630e1955a31034f24466906a825243af2858ee"),
}

GOLDEN_STATS = "c8c096ce43be0cb4ea0b69274f577e8264875ba34a509355b6a1cabffb6ff888"

# sha256 of every batch of each bundled split, by split/batch_size/seed
GOLDEN_BATCHES = {
    "premodern/64/0": "25e814fecb0f57fa21090cc40819f98b0b49e8a273e65c495c6b6c8c12260cc4",
    "premodern/7/5": "30454ce6c8101fef493c205897b20bbb82766b072902bf2698b82c9414fb0c7f",
    "premodern/16/None": "476809ac8015bc7c68267997ae8f5e35b48c5a6040bd3ed993e7d0185e0424e6",
    "modern/64/0": "b704f27255b4867ade9842f441ebee7980e3cc85482c857ef0d975940ec7d54c",
    "modern/7/5": "d4059422f76db7f5e4c56e5aa58d00ee258985575eb4cf584c94464cce750b54",
    "modern/16/None": "d4d3caaf0de9c8be29af9f09c3ada90da0af8cb3072f2e9a9910bbb237c0316d",
    "validation/64/0": "5d37d9ee6819a9f2d64cae01a15ebf2a11b931691f99fa9b074a125b1b6b0394",
    "validation/7/5": "4f3168ece77587adac280e3b6865c4658f2e864fae06521af6471183d137272d",
    "validation/16/None": "66bd773272f803043ba1569708d7259953c60a6dd1560cab55a98dd925107567",
    "test/64/0": "bc580992c5799831f46680725049fb005df665580186f14b47d4466598ccf9cb",
    "test/7/5": "b2154d7deb229c0c55339224618824e9c5fc74de8f5bfd4b58f90bfed3e3054f",
    "test/16/None": "21ad9640b8f67caac38bd13164d58101dea45a5102ea9065ee686f42e626274e",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_bundled_documents(bundled_corpus_root):
    got = {}
    for split in SPLITS:
        for doc in load_corpus(bundled_corpus_root, split):
            labels = b"".join(doc.labels[k].tobytes() for k in CATEGORIES)
            got[f"{split}/{doc.id}"] = (_sha(doc.letters.encode("utf-8")), _sha(labels))
    assert got == GOLDEN_DOCUMENTS


def test_stats_stdout(capsys, bundled_corpus_root):
    assert main(["stats", "--corpus", str(bundled_corpus_root)]) == 0
    assert _sha(capsys.readouterr().out.encode("utf-8")) == GOLDEN_STATS


BATCHINGS = ((64, 0), (7, 5), (16, None))  # (batch_size, seed)


def _split_chunks(root, split):
    return encode_document(load_corpus(root, split), Vocabulary())


def _batch_digest(batches) -> str:
    h = hashlib.sha256()
    for b in batches:
        arrays = (
            b.letter_ids,
            *(b.golds[k] for k in CATEGORIES),
            *(b.masks[k] for k in CATEGORIES),
            b.lengths,
        )
        for a in arrays:
            h.update(f"{a.dtype.str}{a.shape}".encode("ascii"))
            h.update(a.tobytes())
    return h.hexdigest()


def test_bundled_batches(bundled_corpus_root):
    got = {}
    for split in SPLITS:
        chunks = _split_chunks(bundled_corpus_root, split)
        for batch_size, seed in BATCHINGS:
            batches = make_batches(chunks, batch_size, seed=seed)
            got[f"{split}/{batch_size}/{seed}"] = _batch_digest(batches)
    assert got == GOLDEN_BATCHES
