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

Within one call each distinct sentence is tagged once. Tag ids are kept by
sentence ids, so sentences that differ only in case or spacing share one row.
Sentences whose ids are not tagged yet wait until ``CHUNK_SENTENCES`` distinct
ones have gathered; their windows are then tagged together, and each waiting
occurrence is decoded with its own tokens and offset. Since a row's logits do
not depend on the rows stacked with it, dropping repeated rows changes the
speed, not the spans. The memory held grows with the number of distinct
sentences, not with the corpus, and nothing outlives the call.

A chunk's calls run on a pool of one thread per usable CPU, whatever the BLAS
thread count (numpy and scipy release the GIL); results are kept by window,
so call order cannot change a bit.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from ..corpus import Document, EncodedSentence, EntitySpan, decode_bio, encode_corpus
from ..tokenizer import Vocabulary
from . import model
from .checkpoint import Checkpoint
from .model import tag_logits

CHUNK_SENTENCES = 512  # distinct sentences tagged together
BATCH_TOKENS = 1024  # positions, [CLS] and [SEP] included, per tag_logits call


def _windows(n_pieces: int, budget: int, stride: int) -> list[tuple[int, int]]:
    if n_pieces <= budget:
        return [(0, n_pieces)]
    starts = list(range(0, n_pieces - budget + 1, stride))
    if starts[-1] + budget < n_pieces:
        starts.append(n_pieces - budget)
    return [(s, s + budget) for s in starts]


def _tag_chunk(
    ckpt: Checkpoint, vocab: Vocabulary, chunk: list[tuple[int, ...]],
    pool: ThreadPoolExecutor,
) -> list[list[int]]:
    """Tag ids per piece for each sentence's ids in ``chunk``."""
    budget = ckpt.config.max_positions - 2
    stride = max(1, budget // 2)
    windows = [_windows(len(ids), budget, stride) for ids in chunk]
    by_length: dict[int, list[tuple[int, int]]] = {}
    for i, sent_windows in enumerate(windows):
        for ws, we in sent_windows:
            by_length.setdefault(we - ws, []).append((i, ws))

    calls = []
    for length, keys in by_length.items():
        rows = max(1, BATCH_TOKENS // (length + 2))
        for b in range(0, len(keys), rows):
            batch = keys[b : b + rows]
            ids = np.empty((len(batch), length + 2), dtype=np.int64)
            ids[:, 0] = vocab.cls_id
            ids[:, -1] = vocab.sep_id
            for row, (i, ws) in zip(ids, batch):
                row[1:-1] = chunk[i][ws : ws + length]
            calls.append((batch, pool.submit(
                tag_logits, ckpt.params, ckpt.config, ids, np.ones(ids.shape))))
    window_tags: dict[tuple[int, int], np.ndarray] = {}
    for batch, call in calls:
        window_tags.update(zip(batch, call.result()[:, 1:-1].argmax(-1)))

    tags = []
    for i, sent_windows in enumerate(windows):
        n = len(chunk[i])
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
    """Predict entity spans for each document, sorted by (start, end, label).

    The vocabulary must be the one the checkpoint was trained with.
    """
    ckpt.check_vocab(vocab)
    spans: list[list[EntitySpan]] = [[] for _ in docs]
    tags: dict[tuple[int, ...], list[int]] = {}  # tag ids by sentence ids
    waiting: dict[tuple[int, ...], list[EncodedSentence]] = {}  # by ids not tagged yet

    def emit(sent: EncodedSentence, tag_ids: list[int]) -> None:
        for span in decode_bio(tag_ids, sent.tokens):
            spans[sent.doc].append(EntitySpan(
                span.start_char + sent.offset, span.end_char + sent.offset, span.label,
            ))

    def tag_waiting() -> None:
        for key, tag_ids in zip(waiting, _tag_chunk(ckpt, vocab, list(waiting), pool)):
            tags[key] = tag_ids
            for sent in waiting[key]:
                emit(sent, tag_ids)
        waiting.clear()

    pool = ThreadPoolExecutor(model._workers())
    try:
        for sent in encode_corpus(docs, vocab):
            key = tuple(sent.ids)
            if key in tags:
                emit(sent, tags[key])
                continue
            waiting.setdefault(key, []).append(sent)
            if len(waiting) == CHUNK_SENTENCES:
                tag_waiting()
        tag_waiting()
    finally:
        pool.shutdown(cancel_futures=True)
    for doc_spans in spans:
        doc_spans.sort(key=lambda s: (s.start_char, s.end_char, s.label.value))
    return spans


def predict_corpus(
    ckpt: Checkpoint, docs: Sequence[Document], vocab: Vocabulary
) -> list[Document]:
    """Predicted copies of the input documents (same ids and text)."""
    return [
        Document(doc.doc_id, doc.text, doc_spans)
        for doc, doc_spans in zip(docs, predict(ckpt, docs, vocab))
    ]
