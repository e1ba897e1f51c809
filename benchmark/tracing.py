"""In-memory spans around calls into phenotag's public functions.

The tracer wraps module attributes from outside the program: every loaded
``phenotag`` module that binds a traced function gets the wrapper, so a call
is recorded whichever module it goes through. Spans stay in memory and are
written out once, when the benchmark ends.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

# (metric name, module, attribute); "Class.method" wraps a method on the class.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("tokenizer.tokenize", "phenotag.tokenizer", "tokenize"),
    ("corpus.split_sentences", "phenotag.corpus", "split_sentences"),
    ("corpus.encode_bio", "phenotag.corpus", "encode_bio"),
    ("corpus.load_corpus", "phenotag.corpus", "load_corpus"),
    ("corpus.save_corpus", "phenotag.corpus", "save_corpus"),
    ("vocab_expand.extract_candidates", "phenotag.vocab_expand", "extract_candidates"),
    ("vocab_expand.coverage", "phenotag.vocab_expand", "coverage"),
    ("encoder.model.forward_hidden", "phenotag.encoder.model", "forward_hidden"),
    ("encoder.model.backward_hidden", "phenotag.encoder.model", "backward_hidden"),
    ("encoder.model.mlm_loss_and_grads", "phenotag.encoder.model", "mlm_loss_and_grads"),
    ("encoder.model.ner_loss_and_grads", "phenotag.encoder.model", "ner_loss_and_grads"),
    ("encoder.model.tag_logits", "phenotag.encoder.model", "tag_logits"),
    ("encoder.training.adam_step", "phenotag.encoder.training", "Adam.step"),
    ("encoder.training.pretrain_mlm", "phenotag.encoder.training", "pretrain_mlm"),
    ("encoder.training.finetune_ner", "phenotag.encoder.training", "finetune_ner"),
    ("encoder.predict.predict", "phenotag.encoder.predict", "predict"),
    ("encoder.predict.predict_corpus", "phenotag.encoder.predict", "predict_corpus"),
    ("encoder.checkpoint.save_checkpoint", "phenotag.encoder.checkpoint", "save_checkpoint"),
    ("encoder.checkpoint.load_checkpoint", "phenotag.encoder.checkpoint", "load_checkpoint"),
    ("encoder.checkpoint.resize_for_vocab", "phenotag.encoder.checkpoint", "resize_for_vocab"),
    ("evaluation.score", "phenotag.evaluation", "score"),
    ("evaluation.categorize_errors", "phenotag.evaluation", "categorize_errors"),
    ("evaluation.aggregate_runs", "phenotag.evaluation", "aggregate_runs"),
    ("tsne.tsne", "phenotag.tsne", "tsne"),
    ("synthesis.generate_synthetic", "phenotag.synthesis", "generate_synthetic"),
)

# The twelve commands scripts/pipeline.sh invokes, by CLI name.
PIPELINE_COMMANDS: tuple[str, ...] = (
    "synth", "stats", "build-vocab", "coverage", "pretrain", "resize",
    "finetune", "predict", "evaluate", "aggregate", "errors", "tsne",
)

CLI_TARGETS: tuple[tuple[str, str, str], ...] = tuple(
    (f"cli.cmd.{cmd}", "phenotag.cli", "cmd_" + cmd.replace("-", "_"))
    for cmd in PIPELINE_COMMANDS
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _observe_tokenize(args, kwargs, result) -> dict[str, float]:
    text = _arg(args, kwargs, 0, "text")
    words = len(set(result.word_index))
    unk = sum(1 for p in result.pieces if p == "[UNK]")
    return {"chars": len(text), "pieces": len(result.pieces), "words": words, "unk": unk}


def _observe_forward(args, kwargs, result) -> dict[str, float]:
    mask = _arg(args, kwargs, 3, "mask")
    return {"real": float(mask.sum()), "padded": float(mask.size)}


def _observe_tag_logits(args, kwargs, result) -> dict[str, float]:
    return {"sequences": len(_arg(args, kwargs, 2, "ids"))}


def _observe_pretrain(args, kwargs, result) -> dict[str, float]:
    return {"steps": len(result[1])}


def _observe_finetune(args, kwargs, result) -> dict[str, float]:
    return {"epochs": _arg(args, kwargs, 3, "hyper").epochs}


def _observe_predict(args, kwargs, result) -> dict[str, float]:
    return {"docs": 1}


def _observe_predict_corpus(args, kwargs, result) -> dict[str, float]:
    return {"docs": len(_arg(args, kwargs, 1, "docs"))}


def _observe_save(args, kwargs, result) -> dict[str, float]:
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _observe_tsne(args, kwargs, result) -> dict[str, float]:
    return {"points": len(_arg(args, kwargs, 0, "embeddings"))}


OBSERVERS: dict[str, Callable] = {
    "tokenizer.tokenize": _observe_tokenize,
    "encoder.model.forward_hidden": _observe_forward,
    "encoder.model.tag_logits": _observe_tag_logits,
    "encoder.training.pretrain_mlm": _observe_pretrain,
    "encoder.training.finetune_ner": _observe_finetune,
    "encoder.predict.predict": _observe_predict,
    "encoder.predict.predict_corpus": _observe_predict_corpus,
    "encoder.checkpoint.save_checkpoint": _observe_save,
    "tsne.tsne": _observe_tsne,
}


class Tracer:
    """Records one span per wrapped call; nesting comes from a call stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.clock(), 0.0, parent)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if observe is not None:
                span.counts = observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


def install(tracer: Tracer, targets: Iterable[tuple[str, str, str]]) -> Callable[[], None]:
    """Wrap every binding of each target in loaded phenotag modules.

    Returns a function that puts the original objects back.
    """
    restore: list[tuple[object, str, object]] = []
    for name, module_name, attr in targets:
        owner, attr = _resolve(module_name, attr)
        original = owner.__dict__[attr]
        wrapped = tracer.wrap(name, original)
        holders = [owner] + [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "phenotag" or key.startswith("phenotag."))
        ]
        seen: set[int] = set()
        for holder in holders:
            if id(holder) in seen:
                continue
            seen.add(id(holder))
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)
                    restore.append((holder, key, original))

    def uninstall() -> None:
        for holder, key, original in reversed(restore):
            setattr(holder, key, original)

    return uninstall


# ---------------------------------------------------------------------------
# span arithmetic


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(i, [])
            if min(e, span.end) > max(s, span.start)
        ]
        out.append(span.duration - union_length(covered))
    return out


def has_ancestor(spans: list[Span], index: int, names: set[str]) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def dump(spans: list[Span], path: Path) -> None:
    path.write_text(
        json.dumps([[s.name, s.start, s.end, s.parent, s.counts] for s in spans]),
        encoding="utf-8",
    )


def load(path: Path) -> list[Span]:
    return [Span(*row) for row in json.loads(path.read_text(encoding="utf-8"))]
