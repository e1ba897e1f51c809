"""Masked-language-model pre-training and token-classification fine-tuning.

Both run one loop, ``_train``, in which a copy of the input checkpoint takes
one Adam step per batch; only their batch sources differ. ``_masked_batches``
masks sentences 80/10/10 for pre-training and ``masked_accuracy``;
``_tagged_batches`` reshuffles tagged sentences every epoch. Sampling and
masking come from one seeded generator, so a run is deterministic given its
seed. Adam's betas 0.9/0.999 and eps 1e-8 are fixed. Input checkpoints are
never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..corpus import Document, EntitySpan, IGNORE_ID, encode_bio, encode_corpus
from ..errors import ConfigurationError, TrainingError, ValidationError
from ..tokenizer import Vocabulary
from . import model
from .checkpoint import Checkpoint
from .model import forward_hidden, mlm_loss_and_grads, ner_loss_and_grads


@dataclass(frozen=True)
class TrainRecord:
    step: int
    loss: float
    accuracy: float


# Masked-LM corruption: a masked position becomes [MASK] with probability
# 0.8, a random non-special token with 0.1, and keeps its token otherwise.
# The second threshold is the sum 0.8 + 0.1 == 0.9000000000000001, not 0.9.
_REPLACE_MASK = 0.8
_REPLACE_RANDOM = 0.1

_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


def _check_mask_frac(mask_frac: float) -> None:
    if not 0.0 < mask_frac <= 1.0:
        raise ConfigurationError(f"mask_frac must be in (0, 1], got {mask_frac}")


class Adam:
    """Adam with bias correction over a flat parameter dict.

    Parameters and gradients each live in one flat buffer, laid out by
    ``model.zero_grads`` over the tensors in the dict's order: building the
    optimizer moves the dict's tensors into views of one buffer, and a step
    takes gradients made by ``zero_grads``. The moments are flat arrays in the
    same layout. A step updates contiguous shares of the buffers on the
    encoder's pool, each share its moments and then its parameters (an
    element's update does not depend on its share).
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.lr = lr
        views = model.zero_grads(params)
        for name, p in params.items():
            views[name][...] = p
        params.update(views)
        self.m = np.zeros_like(model._flat_buffer(params))
        self.v = np.zeros_like(self.m)
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        self.t += 1
        bc1 = 1.0 - _BETA1**self.t
        bc2 = 1.0 - _BETA2**self.t
        p, g = model._flat_buffer(params), model._flat_buffer(grads)

        def update(r: slice) -> None:
            # In place, in the operation order of
            #   m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
            #   p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps)
            m, v, gr = self.m[r], self.v[r], g[r]
            m *= _BETA1
            m += (1.0 - _BETA1) * gr
            v *= _BETA2
            gg = (1.0 - _BETA2) * gr
            gg *= gr
            v += gg
            u = np.divide(m, bc1)
            u *= self.lr
            den = np.divide(v, bc2, out=gg)
            np.sqrt(den, out=den)
            den += _EPS
            u /= den
            p[r] -= u

        model._run_all([partial(update, r) for r in model._row_shards(len(g))])


def _bracket(seq: Sequence[int], first: int, last: int, max_positions: int) -> list[int]:
    """``first`` + ``seq`` cut to fit ``max_positions`` + ``last``: one model row."""
    return [first, *seq[: max_positions - 2], last]


def _check_counts(batch_size: int, name: str, count: int) -> None:
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    if count < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {count}")


def _pad_batch(seqs: list[list[int]], pad_id: int) -> tuple[np.ndarray, np.ndarray]:
    b = len(seqs)
    s = max(len(q) for q in seqs)
    ids = np.full((b, s), pad_id, dtype=np.int64)
    mask = np.zeros((b, s), dtype=np.float64)
    for r, q in enumerate(seqs):
        ids[r, : len(q)] = q
        mask[r, : len(q)] = 1.0
    return ids, mask


def _masked_batches(
    corpus: Sequence[Document],
    vocab: Vocabulary,
    max_positions: int,
    mask_frac: float,
    rng: np.random.Generator,
    take: Callable[[int], Iterable[Sequence[int]]],
) -> Iterator[tuple[np.ndarray, ...]]:
    """Masked-LM batches ``(ids, mask, pos_b, pos_s, labels)`` of bracketed
    sentences. ``take(n)`` yields each batch's rows of the n-sentence pool;
    ``rng`` draws a batch's rows, then its masking.
    """
    pool = [
        _bracket(s.ids, vocab.cls_id, vocab.sep_id, max_positions)
        for s in encode_corpus(corpus, vocab)
    ]
    if not pool:
        raise ValidationError("corpus contains no sentences")
    special_set = set(vocab.special_ids)
    random_pool = np.array(
        [i for i in range(len(vocab)) if i not in special_set], dtype=np.int64
    )
    brackets = (vocab.cls_id, vocab.sep_id)
    for rows in take(len(pool)):
        seqs = [pool[int(i)] for i in rows]
        ids, mask = _pad_batch(seqs, vocab.pad_id)
        picks: list[tuple[int, int, int]] = []  # (row, position, original token)
        for r, seq in enumerate(seqs):
            cand = [p for p, tok in enumerate(seq) if tok not in brackets]
            if not cand:
                continue
            n_mask = max(1, int(round(mask_frac * len(cand))))
            chosen = rng.choice(len(cand), size=min(n_mask, len(cand)), replace=False)
            for ci in np.sort(chosen):
                p = cand[int(ci)]
                picks.append((r, p, seq[p]))
                u = rng.random()
                if u < _REPLACE_MASK:
                    ids[r, p] = vocab.mask_id
                elif u < _REPLACE_MASK + _REPLACE_RANDOM:
                    ids[r, p] = int(random_pool[rng.integers(len(random_pool))])
                # else: keep the original token as input
        pos_b, pos_s, labels = np.array(picks, dtype=np.int64).reshape(-1, 3).T
        yield ids, mask, pos_b, pos_s, labels


def _train(
    ckpt: Checkpoint,
    lr: float,
    batches: Iterable[tuple[np.ndarray, ...]],
    loss_fn: Callable,
    name: str,
    first_step: int,
) -> tuple[Checkpoint, list[TrainRecord]]:
    """A copy of ``ckpt`` takes one Adam step per batch, numbered from ``first_step``."""
    if not (math.isfinite(lr) and lr > 0):
        raise ConfigurationError(f"lr must be a positive finite number, got {lr}")
    out = ckpt.copy()
    adam = Adam(out.params, lr)
    records: list[TrainRecord] = []
    for step, batch in enumerate(batches, first_step):
        loss, acc, grads = loss_fn(out.params, out.config, *batch)
        if not math.isfinite(loss):
            raise TrainingError(f"non-finite {name} loss at step {step}")
        adam.step(out.params, grads)
        records.append(TrainRecord(step, loss, acc))
    return out, records


def pretrain_mlm(
    ckpt: Checkpoint,
    corpus: Sequence[Document],
    vocab: Vocabulary,
    steps: int,
    mask_frac: float = 0.15,
    lr: float = 1e-3,
    batch_size: int = 16,
    seed: int = 0,
) -> tuple[Checkpoint, list[TrainRecord]]:
    """Continue masked-LM training on a corpus; returns (checkpoint, trace).

    Cross entropy is computed only at masked positions. A non-finite loss
    aborts with a diagnostic naming the step.
    """
    _check_mask_frac(mask_frac)
    _check_counts(batch_size, "steps", steps)
    ckpt.check_vocab(vocab)
    rng = np.random.default_rng(seed)

    def draw(n: int) -> Iterator[np.ndarray]:
        for _ in range(steps):
            yield rng.choice(n, size=batch_size, replace=n < batch_size)

    batches = _masked_batches(
        corpus, vocab, ckpt.config.max_positions, mask_frac, rng, draw
    )
    # with no steps to run the corpus is never encoded, so it may be empty
    out, records = _train(
        ckpt, lr, batches if steps else (), mlm_loss_and_grads, "masked-LM",
        ckpt.step + 1,
    )
    out.step += len(records)
    return out, records


def masked_accuracy(
    ckpt: Checkpoint,
    corpus: Sequence[Document],
    vocab: Vocabulary,
    mask_frac: float = 0.15,
    seed: int = 0,
) -> float:
    """Masked-token accuracy of a trained model over freshly masked sentences."""
    _check_mask_frac(mask_frac)
    ckpt.check_vocab(vocab)
    batches = _masked_batches(
        corpus, vocab, ckpt.config.max_positions, mask_frac,
        np.random.default_rng(seed),
        lambda n: (range(n)[start : start + 32] for start in range(0, n, 32)),
    )
    total = 0
    correct = 0
    for ids, mask, pos_b, pos_s, labels in batches:
        h, _ = forward_hidden(ckpt.params, ckpt.config, ids, mask, keep_cache=False)
        logits = h[pos_b, pos_s] @ ckpt.params["tok_emb"].T + ckpt.params["mlm_bias"]
        correct += int((logits.argmax(-1) == labels).sum())
        total += len(labels)
    return correct / total if total else 0.0


@dataclass(frozen=True)
class FinetuneConfig:
    """Fine-tuning hyperparameters; sentences are cut to ``max_positions``."""

    batch_size: int = 32
    epochs: int = 10
    lr: float = 4e-3
    seed: int = 0


def _ner_examples(
    docs: Sequence[Document], vocab: Vocabulary, max_positions: int
) -> list[tuple[list[int], list[int]]]:
    """Per-sentence (ids, tag ids) rows; IGNORE_ID marks positions without loss."""
    examples: list[tuple[list[int], list[int]]] = []
    for sent in encode_corpus(docs, vocab):
        off, end = sent.offset, sent.offset + sent.length
        local = [
            EntitySpan(
                max(s.start_char - off, 0), min(s.end_char - off, sent.length), s.label
            )
            for s in docs[sent.doc].entities
            if s.start_char < end and s.end_char > off
        ]
        examples.append((
            _bracket(sent.ids, vocab.cls_id, vocab.sep_id, max_positions),
            _bracket(encode_bio(sent.tokens, local), IGNORE_ID, IGNORE_ID, max_positions),
        ))
    return examples


def _tagged_batches(
    examples: list[tuple[list[int], list[int]]], pad_id: int, hyper: FinetuneConfig
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``(ids, mask, tag_ids)`` batches, the examples reshuffled every epoch."""
    rng = np.random.default_rng(hyper.seed)
    for _ in range(hyper.epochs):
        order = rng.permutation(len(examples))
        for start in range(0, len(examples), hyper.batch_size):
            batch = [examples[int(i)] for i in order[start : start + hyper.batch_size]]
            ids, mask = _pad_batch([b[0] for b in batch], pad_id)
            tag_ids, _ = _pad_batch([b[1] for b in batch], IGNORE_ID)
            yield ids, mask, tag_ids


def finetune_ner(
    ckpt: Checkpoint,
    train_docs: Sequence[Document],
    vocab: Vocabulary,
    hyper: FinetuneConfig = FinetuneConfig(),
) -> tuple[Checkpoint, list[TrainRecord]]:
    """Fine-tune the tag head (and backbone) on BIO-encoded sentences.

    Loss is per-token cross entropy over the tag set with IGNORE positions
    excluded. The vocabulary must match the checkpoint's digest.
    """
    _check_counts(hyper.batch_size, "epochs", hyper.epochs)
    ckpt.check_vocab(vocab)
    examples = _ner_examples(train_docs, vocab, ckpt.config.max_positions)
    if not examples:
        raise ValidationError("no training sentences after encoding")
    batches = _tagged_batches(examples, vocab.pad_id, hyper)
    return _train(ckpt, hyper.lr, batches, ner_loss_and_grads, "tag", 1)


def format_trace(records: Sequence[TrainRecord]) -> str:
    lines = ["step,loss,accuracy"]
    lines.extend(f"{r.step},{r.loss:.6f},{r.accuracy:.6f}" for r in records)
    return "\n".join(lines) + "\n"
