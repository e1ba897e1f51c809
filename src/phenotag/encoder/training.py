"""Masked-language-model pre-training and token-classification fine-tuning.

Both loops are deterministic given their seed: batch sampling, masking
choices, and dropout all come from one seeded generator, and parameters are
updated by Adam. Input checkpoints are never mutated; training returns a new
checkpoint plus a per-step trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..corpus import (
    Document,
    EntitySpan,
    IGNORE_ID,
    IGNORE_TAG,
    TAG_TO_ID,
    encode_bio,
    encode_corpus,
)
from ..errors import ConfigurationError, TrainingError, ValidationError
from ..tokenizer import Vocabulary
from .checkpoint import Checkpoint
from .model import forward_hidden, mlm_loss_and_grads, ner_loss_and_grads


@dataclass(frozen=True)
class TrainRecord:
    step: int
    loss: float
    accuracy: float


@dataclass(frozen=True)
class MaskingConfig:
    """Masked-LM corruption recipe: fraction masked, then 80/10/10 handling."""

    mask_frac: float = 0.15
    replace_mask: float = 0.8
    replace_random: float = 0.1
    keep: float = 0.1

    def validate(self) -> None:
        if not 0.0 < self.mask_frac <= 1.0:
            raise ConfigurationError(
                f"mask_frac must be in (0, 1], got {self.mask_frac}"
            )
        parts = (self.replace_mask, self.replace_random, self.keep)
        if any(p < 0.0 for p in parts) or abs(sum(parts) - 1.0) > 1e-9:
            raise ConfigurationError(
                f"replacement fractions must be non-negative and sum to 1, "
                f"got {parts}"
            )


@dataclass(frozen=True)
class OptimizerConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


class Adam:
    """Adam with bias correction over a flat parameter dict."""

    def __init__(self, params: dict[str, np.ndarray], settings: OptimizerConfig):
        self.settings = settings
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        s = self.settings
        self.t += 1
        bc1 = 1.0 - s.beta1**self.t
        bc2 = 1.0 - s.beta2**self.t
        # In place, in the operation order of
        #   m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        #   p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps)
        for k, g in grads.items():
            m, v = self.m[k], self.v[k]
            m *= s.beta1
            m += (1.0 - s.beta1) * g
            v *= s.beta2
            gg = (1.0 - s.beta2) * g
            gg *= g
            v += gg
            upd = np.divide(m, bc1)
            upd *= s.lr
            den = np.divide(v, bc2, out=gg)
            np.sqrt(den, out=den)
            den += s.eps
            upd /= den
            params[k] -= upd


def _bracket(seq: Sequence[int], first: int, last: int, max_positions: int) -> list[int]:
    """``first`` + ``seq`` cut to fit ``max_positions`` + ``last``: one model row."""
    return [first, *seq[: max_positions - 2], last]


def _check_counts(batch_size: int, name: str, count: int) -> None:
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    if count < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {count}")


def _sentence_ids(
    corpus: Sequence[Document], vocab: Vocabulary, max_positions: int
) -> list[list[int]]:
    return [
        _bracket(s.ids, vocab.cls_id, vocab.sep_id, max_positions)
        for s in encode_corpus(corpus, vocab)
    ]


def _pad_batch(seqs: list[list[int]], pad_id: int) -> tuple[np.ndarray, np.ndarray]:
    b = len(seqs)
    s = max(len(q) for q in seqs)
    ids = np.full((b, s), pad_id, dtype=np.int64)
    mask = np.zeros((b, s), dtype=np.float64)
    for r, q in enumerate(seqs):
        ids[r, : len(q)] = q
        mask[r, : len(q)] = 1.0
    return ids, mask


def _apply_masking(
    seqs: list[list[int]],
    ids: np.ndarray,
    vocab: Vocabulary,
    masking: MaskingConfig,
    rng: np.random.Generator,
    random_pool: np.ndarray,
):
    """Corrupt `ids` in place; returns (pos_b, pos_s, labels) arrays."""
    pos_b: list[int] = []
    pos_s: list[int] = []
    labels: list[int] = []
    specials = (vocab.cls_id, vocab.sep_id)
    for r, seq in enumerate(seqs):
        cand = [p for p, tok in enumerate(seq) if tok not in specials]
        if not cand:
            continue
        n_mask = max(1, int(round(masking.mask_frac * len(cand))))
        chosen = rng.choice(len(cand), size=min(n_mask, len(cand)), replace=False)
        for ci in np.sort(chosen):
            p = cand[int(ci)]
            pos_b.append(r)
            pos_s.append(p)
            labels.append(seq[p])
            u = rng.random()
            if u < masking.replace_mask:
                ids[r, p] = vocab.mask_id
            elif u < masking.replace_mask + masking.replace_random:
                ids[r, p] = int(random_pool[rng.integers(len(random_pool))])
            # else: keep the original token as input
    return (
        np.asarray(pos_b, dtype=np.int64),
        np.asarray(pos_s, dtype=np.int64),
        np.asarray(labels, dtype=np.int64),
    )


def pretrain_mlm(
    ckpt: Checkpoint,
    corpus: Sequence[Document],
    vocab: Vocabulary,
    steps: int,
    masking: MaskingConfig = MaskingConfig(),
    optimizer: OptimizerConfig = OptimizerConfig(),
    batch_size: int = 16,
    seed: int | None = None,
) -> tuple[Checkpoint, list[TrainRecord]]:
    """Continue masked-LM training on a corpus; returns (checkpoint, trace).

    Cross entropy is computed only at masked positions. A non-finite loss
    aborts with a diagnostic naming the step.
    """
    masking.validate()
    _check_counts(batch_size, "steps", steps)
    ckpt.check_vocab(vocab)
    out = ckpt.copy()
    out.vocab_digest = vocab.digest()
    if steps == 0:
        return out, []
    pool = _sentence_ids(corpus, vocab, ckpt.config.max_positions)
    if not pool:
        raise ValidationError("pre-training corpus contains no sentences")
    rng = np.random.default_rng(seed if seed is not None else ckpt.config.seed)
    special_set = set(vocab.special_ids)
    random_pool = np.array(
        [i for i in range(len(vocab)) if i not in special_set], dtype=np.int64
    )
    adam = Adam(out.params, optimizer)
    records: list[TrainRecord] = []
    for local_step in range(steps):
        step = out.step + 1
        idx = rng.choice(len(pool), size=batch_size, replace=len(pool) < batch_size)
        seqs = [pool[int(i)] for i in idx]
        ids, mask = _pad_batch(seqs, vocab.pad_id)
        pos_b, pos_s, labels = _apply_masking(
            seqs, ids, vocab, masking, rng, random_pool
        )
        dropout_rng = rng if ckpt.config.dropout_rate > 0 else None
        loss, acc, grads = mlm_loss_and_grads(
            out.params, out.config, ids, mask, pos_b, pos_s, labels, dropout_rng
        )
        if not math.isfinite(loss):
            raise TrainingError(f"non-finite masked-LM loss at step {step}")
        adam.step(out.params, grads)
        out.step = step
        records.append(TrainRecord(step, loss, acc))
    return out, records


def masked_accuracy(
    ckpt: Checkpoint,
    corpus: Sequence[Document],
    vocab: Vocabulary,
    masking: MaskingConfig = MaskingConfig(),
    seed: int = 0,
) -> float:
    """Masked-token accuracy of a trained model over freshly masked sentences."""
    masking.validate()
    ckpt.check_vocab(vocab)
    pool = _sentence_ids(corpus, vocab, ckpt.config.max_positions)
    if not pool:
        raise ValidationError("corpus contains no sentences")
    rng = np.random.default_rng(seed)
    special_set = set(vocab.special_ids)
    random_pool = np.array(
        [i for i in range(len(vocab)) if i not in special_set], dtype=np.int64
    )
    total = 0
    correct = 0
    for start in range(0, len(pool), 32):
        seqs = pool[start : start + 32]
        ids, mask = _pad_batch(seqs, vocab.pad_id)
        pos_b, pos_s, labels = _apply_masking(
            seqs, ids, vocab, masking, rng, random_pool
        )
        h, _ = forward_hidden(ckpt.params, ckpt.config, ids, mask)
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
        tag_ids = [
            IGNORE_ID if t == IGNORE_TAG else TAG_TO_ID[t]
            for t in encode_bio(sent.tokens, local)
        ]
        examples.append((
            _bracket(sent.ids, vocab.cls_id, vocab.sep_id, max_positions),
            _bracket(tag_ids, IGNORE_ID, IGNORE_ID, max_positions),
        ))
    return examples


def finetune_ner(
    ckpt: Checkpoint,
    train_docs: Sequence[Document],
    vocab: Vocabulary,
    hyper: FinetuneConfig = FinetuneConfig(),
    optimizer: OptimizerConfig | None = None,
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
    opt = optimizer if optimizer is not None else OptimizerConfig(lr=hyper.lr)
    out = ckpt.copy()
    out.vocab_digest = vocab.digest()
    rng = np.random.default_rng(hyper.seed)
    adam = Adam(out.params, opt)
    records: list[TrainRecord] = []
    step = 0
    for _ in range(hyper.epochs):
        order = rng.permutation(len(examples))
        for start in range(0, len(examples), hyper.batch_size):
            batch = [examples[int(i)] for i in order[start : start + hyper.batch_size]]
            ids, mask = _pad_batch([b[0] for b in batch], vocab.pad_id)
            width = ids.shape[1]
            tag_ids = np.full((len(batch), width), -1, dtype=np.int64)
            for r, (_, tids) in enumerate(batch):
                tag_ids[r, : len(tids)] = tids
            dropout_rng = rng if ckpt.config.dropout_rate > 0 else None
            loss, acc, grads = ner_loss_and_grads(
                out.params, out.config, ids, mask, tag_ids, dropout_rng
            )
            if not math.isfinite(loss):
                raise TrainingError(f"non-finite tag loss at step {step + 1}")
            adam.step(out.params, grads)
            step += 1
            records.append(TrainRecord(step, loss, acc))
    return out, records


def format_trace(records: Sequence[TrainRecord]) -> str:
    lines = ["step,loss,accuracy"]
    lines.extend(f"{r.step},{r.loss:.6f},{r.accuracy:.6f}" for r in records)
    return "\n".join(lines) + "\n"
