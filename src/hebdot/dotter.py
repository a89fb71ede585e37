"""Inference: turn undotted text into dotted text with a trained model.

The raw input is never altered beyond diacritics: every non-mark codepoint
passes through byte for byte, existing marks are dropped, and predicted
marks are inserted after their letters.  :func:`codec.parse` reduces the
text to the model alphabet and gives the raw offset after each letter, and
:func:`codec.insert_marks` puts that letter's marks there.
:meth:`Dotter.label_documents` encodes loaded documents together, labels
them in shared, length-sorted batches and scatters each batch back into
one label array over all their letters.
"""

from __future__ import annotations

from itertools import accumulate, pairwise
from pathlib import Path
from typing import Sequence

import numpy as np

from .codec import _HEBREW_SET, insert_marks, parse, strip_diacritics
from .corpus import (
    CATEGORIES,
    Batch,
    Document,
    decision_masks,
    encode_document,
    make_batches,
)
from .network import (
    Checkpoint, ModelConfig, forward, head_fold, layer0_tables, load_checkpoint
)

__all__ = ["INFERENCE_BATCH_SIZE", "Dotter", "decode_labels"]


def decode_labels(
    logits: dict[str, np.ndarray], masks: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Argmax decode into codec label space.

    Positions outside a category's mask get the null label; the sin head's
    two-way argmax shifts up by one so 0 stays "no decision".  Ties resolve
    to the lower label index.
    """
    niq = logits["niqqud"].argmax(axis=-1).astype(np.int8)
    dag = logits["dagesh"].argmax(axis=-1).astype(np.int8)
    sin = (logits["sin"].argmax(axis=-1) + 1).astype(np.int8)
    return {
        "niqqud": np.where(masks["niqqud"], niq, np.int8(0)),
        "dagesh": np.where(masks["dagesh"], dag, np.int8(0)),
        "sin": np.where(masks["sin"], sin, np.int8(0)),
    }


# Rows per inference batch.  A 32-row forward holds twice a 16-row one's
# activations and takes half the recurrent steps over many chunks.
INFERENCE_BATCH_SIZE = 32


class Dotter:
    """Wraps a trained checkpoint for dotting strings and documents.  Layer
    0's input term of every vocabulary id and the projection folded into the
    heads are computed once, at construction, and every batch reads them."""

    def __init__(
        self, checkpoint: Checkpoint, batch_size: int = INFERENCE_BATCH_SIZE
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.params = checkpoint.params
        self.layer0 = layer0_tables(checkpoint.params)
        self.fold = head_fold(checkpoint.params)
        self.config: ModelConfig = checkpoint.config
        self.batch_size = batch_size

    @classmethod
    def load(
        cls, path: Path | str, batch_size: int = INFERENCE_BATCH_SIZE
    ) -> "Dotter":
        return cls(load_checkpoint(path), batch_size=batch_size)

    def label_documents(self, docs: Sequence[Document]) -> list[Document]:
        """Re-dot loaded documents, keeping their ids; for evaluation runs.

        The chunks of all documents are encoded together and stably sorted
        by length, so each batch holds rows of nearly equal width from any
        documents; labels do not depend on which rows share a batch.  Labels
        land in one flat array per category over all the letters, split per
        document at the end; letters outside every chunk keep the null label.
        """
        chunks = encode_document(docs)
        chunks = chunks.take(np.argsort(chunks.lengths, kind="stable"))
        labels = np.zeros((len(CATEGORIES), len(chunks.ids)), dtype=np.int8)
        for batch in make_batches(chunks, self.batch_size, seed=None):
            decoded = self._decode_batch(batch)
            at = batch.starts[:, None] + np.arange(batch.letter_ids.shape[1])
            for row, k in zip(labels, CATEGORIES):
                live = batch.masks[k]
                row[at[live]] = decoded[k][live]
        bounds = pairwise(accumulate((len(doc.letters) for doc in docs), initial=0))
        parts = (dict(zip(CATEGORIES, labels[:, a:b])) for a, b in bounds)
        return [
            Document(doc.id, doc.letters, part)
            for doc, part in zip(docs, parts)
        ]

    def _decode_batch(self, batch: Batch) -> dict[str, np.ndarray]:
        logits, _ = forward(
            self.params,
            self.config,
            batch.letter_ids,
            batch.lengths,
            keep_cache=False,
            layer0=self.layer0,
            fold=self.fold,
        )
        return decode_labels(logits, batch.masks)

    def dot(self, text: str, keep_existing: bool = False) -> str:
        """Dot a string.

        Existing diacritics are stripped before prediction, so dotting is
        insensitive to whatever marks the input carried; with
        ``keep_existing`` an input mark on a letter wins over the prediction
        in its own category, and marks on no letter are ignored.
        Characters outside the model alphabet (digits, Latin, anything
        else) are preserved untouched in place.
        """
        stripped = strip_diacritics(text)
        letters, _, ends = parse(stripped)
        if _HEBREW_SET.isdisjoint(letters):
            return stripped
        blank = {k: np.zeros(len(letters), dtype=np.int8) for k in CATEGORIES}
        doc = Document("<input>", letters, blank)
        labels = self.label_documents([doc])[0].labels
        if keep_existing:
            # parse(text) reads the same letters; an input mark wins in its
            # category wherever the codec's own decision masks admit it.
            have = parse(text)[1]
            legal = decision_masks(letters)
            labels = {
                k: np.where(
                    legal[k], np.where(have[k] != 0, have[k], labels[k]), np.int8(0)
                )
                for k in CATEGORIES
            }
        return insert_marks(stripped, ends, labels)
