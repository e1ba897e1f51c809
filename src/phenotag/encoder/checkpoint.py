"""Checkpoint container, embedding warm-start after vocabulary expansion, and
embedding export.

The on-disk format is a self-describing binary container: a JSON metadata
block (config, vocabulary digest, step count) followed by
named tensors stored as row-major little-endian float64.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..atomic import atomic_write
from ..errors import ConfigurationError, ParseError, ValidationError
from ..tokenizer import UNK, Vocabulary, wordpiece
from .config import ModelConfig
from .model import _param_shapes, init_params

_MAGIC = b"PHTCKPT1"


@dataclass
class Checkpoint:
    """Named parameter tensors plus training metadata."""

    params: dict[str, np.ndarray]
    config: ModelConfig
    vocab_digest: str
    step: int = 0

    def copy(self) -> "Checkpoint":
        return Checkpoint(
            params={k: v.copy() for k, v in self.params.items()},
            config=self.config,
            vocab_digest=self.vocab_digest,
            step=self.step,
        )

    def check_vocab(self, vocab: Vocabulary) -> None:
        """Reject a vocabulary other than the one this model was trained with;
        the one place that compares vocabulary digests."""
        if len(vocab) != self.config.vocab_size:
            raise ValidationError(
                f"vocabulary size {len(vocab)} != model vocab_size "
                f"{self.config.vocab_size}"
            )
        if self.vocab_digest != vocab.digest():
            raise ValidationError(
                "vocabulary digest mismatch: checkpoint was trained with a "
                "different vocabulary"
            )


def init_model(config: ModelConfig, vocab: Vocabulary) -> Checkpoint:
    """A fresh model for ``config``, seeded, bound to ``vocab`` by its digest."""
    if len(vocab) != config.vocab_size:
        raise ValidationError(
            f"config.vocab_size {config.vocab_size} != vocabulary size {len(vocab)}"
        )
    return Checkpoint(params=init_params(config), config=config, vocab_digest=vocab.digest())


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    meta = {
        "config": ckpt.config.to_dict(),
        "vocab_digest": ckpt.vocab_digest,
        "step": ckpt.step,
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    with atomic_write(path, binary=True) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(struct.pack("<I", len(ckpt.params)))
        for name in sorted(ckpt.params):
            arr = np.ascontiguousarray(ckpt.params[name], dtype="<f8")
            name_b = name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(arr.tobytes(order="C"))


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint.

    Raises:
        ParseError: naming the file, on a wrong magic, a short read, bad
            metadata, a tensor larger than the bytes left, trailing bytes, or
            a tensor name or shape other than the config's.
        ValidationError: if a tensor holds non-finite values.
    """
    buf = memoryview(Path(path).read_bytes())
    if buf[: len(_MAGIC)] != _MAGIC:
        raise ParseError(f"{path}: not a checkpoint file")
    pos = len(_MAGIC)

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        if n > len(buf) - pos:
            raise ParseError(
                f"{path}: truncated checkpoint: {what} needs {n} bytes at offset "
                f"{pos}, {len(buf) - pos} left"
            )
        pos += n
        return buf[pos - n : pos]

    def unpack(fmt: str, what: str) -> int:
        return struct.unpack(fmt, take(struct.calcsize(fmt), what))[0]

    meta_bytes = take(unpack("<I", "metadata length"), "metadata")
    try:
        meta = json.loads(bytes(meta_bytes).decode("utf-8"))
        config = ModelConfig.from_dict(meta["config"])
        config.validate()
        vocab_digest, step = str(meta["vocab_digest"]), int(meta["step"])
    except (ConfigurationError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"{path}: bad checkpoint metadata: {exc}") from None
    shapes = _param_shapes(config)
    params: dict[str, np.ndarray] = {}
    for _ in range(unpack("<I", "tensor count")):
        try:
            name = bytes(take(unpack("<H", "name length"), "tensor name")).decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(f"{path}: tensor name is not UTF-8") from None
        if name not in shapes:
            raise ParseError(f"{path}: unexpected tensor {name!r}")
        shape = tuple(
            unpack("<Q", f"shape of {name!r}")
            for _ in range(unpack("<B", f"ndim of {name!r}"))
        )
        if shape != shapes[name]:
            raise ParseError(
                f"{path}: tensor {name!r} has shape {shape}, its config needs {shapes[name]}"
            )
        data = take(math.prod(shape) * 8, f"tensor {name!r} of shape {shape}")
        params[name] = np.frombuffer(data, dtype="<f8").astype(np.float64).reshape(shape)
        if not np.isfinite(params[name]).all():
            raise ValidationError(f"tensor {name!r} contains non-finite values")
    if pos != len(buf):
        raise ParseError(f"{path}: {len(buf) - pos} trailing bytes after the last tensor")
    if len(params) != len(shapes):  # every name read is one of the config's
        raise ParseError(f"{path}: no tensor {min(shapes.keys() - params.keys())!r}")
    return Checkpoint(params=params, config=config, vocab_digest=vocab_digest, step=step)


def resize_for_vocab(
    ckpt: Checkpoint, old_vocab: Vocabulary, new_vocab: Vocabulary
) -> Checkpoint:
    """Re-initialize embedding rows of slots rewritten by a vocabulary expansion.

    The two vocabularies must have equal size (slot replacement, never
    append). Each rewritten slot gets the arithmetic mean of the embeddings
    of the new word's wordpiece decomposition under the old vocabulary
    (subword mean), falling back to a seeded random row when the
    decomposition is [UNK]. Every other tensor element is copied unchanged.
    """
    if len(old_vocab) != len(new_vocab):
        raise ValidationError(
            f"vocabulary sizes differ ({len(old_vocab)} vs {len(new_vocab)}); "
            "only slot replacement is supported"
        )
    ckpt.check_vocab(old_vocab)
    old_placeholders = set(old_vocab.placeholder_ids)
    changed = [
        i for i, (a, b) in enumerate(zip(old_vocab.tokens, new_vocab.tokens)) if a != b
    ]
    for i in changed:
        if i not in old_placeholders:
            raise ValidationError(
                f"token id {i} changed from {old_vocab.tokens[i]!r} to "
                f"{new_vocab.tokens[i]!r} but was not a placeholder slot"
            )
    out = ckpt.copy()
    out.vocab_digest = new_vocab.digest()
    emb = out.params["tok_emb"]
    for i in changed:
        pieces = wordpiece(new_vocab.tokens[i], old_vocab)
        if pieces != [UNK]:
            emb[i] = emb[[old_vocab.id_of(p) for p in pieces]].mean(axis=0)
        else:
            rng = np.random.default_rng([ckpt.config.seed, i])
            emb[i] = rng.normal(0.0, 0.02, emb.shape[1])
    return out


def export_embeddings(
    ckpt: Checkpoint, vocab: Vocabulary, tokens: list[str]
) -> tuple[np.ndarray, list[str]]:
    """Embedding rows for the given tokens, in input order.

    Whole-word vocabulary members yield their embedding row; anything else
    yields the mean of its wordpiece rows ([UNK]'s row if the decomposition
    fails). The vocabulary must be the one the checkpoint was trained with.
    """
    ckpt.check_vocab(vocab)
    emb = ckpt.params["tok_emb"]
    rows = []
    for token in tokens:
        word = token.lower()
        if word in vocab:
            rows.append(emb[vocab.id_of(word)])
        else:
            pieces = wordpiece(word, vocab)
            rows.append(emb[[vocab.id_of(p) for p in pieces]].mean(axis=0))
    if not rows:
        return np.zeros((0, emb.shape[1])), []
    return np.stack(rows), list(tokens)
