"""Inference: per-document entity prediction with overlapping windows."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..corpus import Document, EntitySpan, TAGS, decode_bio, encode_corpus
from ..tokenizer import Vocabulary
from .checkpoint import Checkpoint
from .model import tag_logits


def _windows(n_pieces: int, budget: int, stride: int) -> list[tuple[int, int]]:
    if n_pieces <= budget:
        return [(0, n_pieces)]
    starts = list(range(0, n_pieces - budget + 1, stride))
    if starts[-1] + budget < n_pieces:
        starts.append(n_pieces - budget)
    return [(s, s + budget) for s in starts]


def predict(
    ckpt: Checkpoint, document: Document, vocab: Vocabulary
) -> list[EntitySpan]:
    """Predict entity spans for one document.

    Each sentence is tokenized and tagged by argmax over word-initial
    subwords, then decoded back to character spans. Sentences longer than the
    model's position budget are processed in overlapping windows (stride =
    half a window); each piece takes its tag from the window whose center is
    nearest. The vocabulary must be the one the checkpoint was trained with.
    """
    ckpt.check_vocab(vocab)
    budget = ckpt.config.max_positions - 2
    stride = max(1, budget // 2)
    spans: list[EntitySpan] = []
    for sent in encode_corpus([document], vocab):
        n = len(sent.ids)
        best_dist = [float("inf")] * n
        tag_of = [0] * n
        for ws, we in _windows(n, budget, stride):
            ids = np.array(
                [[vocab.cls_id] + sent.ids[ws:we] + [vocab.sep_id]], dtype=np.int64
            )
            mask = np.ones_like(ids, dtype=np.float64)
            logits = tag_logits(ckpt.params, ckpt.config, ids, mask)[0]
            window_tags = logits[1 : 1 + (we - ws)].argmax(-1)
            center = (ws + we - 1) / 2.0
            for p in range(ws, we):
                dist = abs(p - center)
                if dist < best_dist[p]:
                    best_dist[p] = dist
                    tag_of[p] = int(window_tags[p - ws])
        tags = [TAGS[t] for t in tag_of]
        for span in decode_bio(tags, sent.tokens):
            spans.append(EntitySpan(
                span.start_char + sent.offset, span.end_char + sent.offset, span.label
            ))
    spans.sort(key=lambda s: (s.start_char, s.end_char, s.label.value))
    return spans


def predict_corpus(
    ckpt: Checkpoint, docs: Sequence[Document], vocab: Vocabulary
) -> list[Document]:
    """Predicted copies of the input documents (same ids and text)."""
    return [
        Document(doc.doc_id, doc.text, predict(ckpt, doc, vocab)) for doc in docs
    ]
