"""Inference: entity spans for a corpus, with windows of equal length batched.

Each sentence is tagged by argmax over its subwords and decoded back to
character spans. A sentence longer than the model's position budget is cut
into overlapping windows (stride = half a window), and each piece takes its
tag from the window whose centre is nearest.

Windows of equal length, from any sentence of any document, are stacked into
one ``tag_logits`` call of at most ``BATCH_TOKENS`` positions. No row is
padded and the mask is all ones, so every row attends over exactly its own
positions, softmax sums keep their length, and each row's logits are the same
bits as a call with that row alone: batching changes the speed, not the spans.

Within one call each distinct sentence is tagged once. Sentences are keyed by
their ids, so sentences that differ only in case or spacing share one row.
The distinct sentences of the call are tagged together in one pass, and each
occurrence is decoded with its own tokens and offset. Since a row's logits do
not depend on the rows stacked with it, dropping repeated rows changes the
speed, not the spans. The memory held grows with the call's sentences; of
the forward's output only tag ids are kept, not logits, and nothing outlives
the call.

The ``tag_logits`` calls run through ``model._run_all``, on the calling thread
and the encoder's one pool, as many threads as the machine's load leaves
CPUs free, each with one BLAS thread (numpy and scipy release the GIL);
results are kept by window, so which thread runs a call cannot change a bit.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from ..corpus import Document, EntitySpan, decode_bio, encode_corpus
from ..tokenizer import Vocabulary
from . import model
from .checkpoint import Checkpoint
from .model import tag_logits

BATCH_TOKENS = 1024  # positions, [CLS] and [SEP] included, per tag_logits call


def _windows(n_pieces: int, budget: int, stride: int) -> list[tuple[int, int]]:
    if n_pieces <= budget:
        return [(0, n_pieces)]
    starts = list(range(0, n_pieces - budget + 1, stride))
    if starts[-1] + budget < n_pieces:
        starts.append(n_pieces - budget)
    return [(s, s + budget) for s in starts]


def _tag_rows(params, config, ids: np.ndarray) -> np.ndarray:
    """Tag ids for each row's pieces, [CLS] and [SEP] left out."""
    return tag_logits(params, config, ids, np.ones(ids.shape))[:, 1:-1].argmax(-1)


def _tag(
    ckpt: Checkpoint, vocab: Vocabulary, sents: list[tuple[int, ...]]
) -> list[list[int]]:
    """Tag ids per piece for each sentence's ids in ``sents``."""
    budget = ckpt.config.max_positions - 2
    stride = max(1, budget // 2)
    windows = [_windows(len(ids), budget, stride) for ids in sents]
    by_length: dict[int, list[tuple[int, int]]] = {}
    for i, sent_windows in enumerate(windows):
        for ws, we in sent_windows:
            by_length.setdefault(we - ws, []).append((i, ws))

    batches, calls = [], []
    for length, keys in by_length.items():
        rows = max(1, BATCH_TOKENS // (length + 2))
        for b in range(0, len(keys), rows):
            batch = keys[b : b + rows]
            ids = np.empty((len(batch), length + 2), dtype=np.int64)
            ids[:, 0] = vocab.cls_id
            ids[:, -1] = vocab.sep_id
            for row, (i, ws) in zip(ids, batch):
                row[1:-1] = sents[i][ws : ws + length]
            batches.append(batch)
            calls.append(partial(_tag_rows, ckpt.params, ckpt.config, ids))
    window_tags: dict[tuple[int, int], np.ndarray] = {}
    for batch, batch_tags in zip(batches, model._run_all(calls)):
        window_tags.update(zip(batch, batch_tags))

    tags = []
    for i, sent_windows in enumerate(windows):
        n = len(sents[i])
        best_dist = np.full(n, np.inf)
        tag_of = np.zeros(n, dtype=np.int64)
        for ws, we in sent_windows:
            dist = np.abs(np.arange(ws, we) - (ws + we - 1) / 2.0)
            closer = dist < best_dist[ws:we]
            best_dist[ws:we][closer] = dist[closer]
            tag_of[ws:we][closer] = window_tags[(i, ws)][closer]
        tags.append(tag_of.tolist())
    return tags


def predict(
    ckpt: Checkpoint, docs: Sequence[Document], vocab: Vocabulary
) -> list[list[EntitySpan]]:
    """Predict entity spans for each document, in span order.

    The vocabulary must be the one the checkpoint was trained with.
    """
    ckpt.check_vocab(vocab)
    sents = list(encode_corpus(docs, vocab))
    distinct = list(dict.fromkeys(tuple(sent.ids) for sent in sents))
    tags = dict(zip(distinct, _tag(ckpt, vocab, distinct)))
    spans: list[list[EntitySpan]] = [[] for _ in docs]
    for sent in sents:
        for span in decode_bio(tags[tuple(sent.ids)], sent.tokens):
            spans[sent.doc].append(EntitySpan(
                span.start_char + sent.offset, span.end_char + sent.offset, span.label,
            ))
    for doc_spans in spans:
        doc_spans.sort()
    return spans


def predict_corpus(
    ckpt: Checkpoint, docs: Sequence[Document], vocab: Vocabulary
) -> list[Document]:
    """Predicted copies of the input documents (same ids and text)."""
    return [
        Document(doc.doc_id, doc.text, doc_spans)
        for doc, doc_spans in zip(docs, predict(ckpt, docs, vocab))
    ]
