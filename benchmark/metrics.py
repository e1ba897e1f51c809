"""Metric names, units and the arithmetic that turns samples into numbers."""

from __future__ import annotations

import re
import statistics
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from tracing import PIPELINE_COMMANDS, Span, has_ancestor, self_times

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

END_TO_END: tuple[tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("train_tokens_per_s", "token/s"),
    ("exact_macro_f1_base", "F1"),
    ("exact_macro_f1_expanded", "F1"),
)

PER_LAYER: tuple[tuple[str, str], ...] = (
    ("cli.import_s", "s"),
    ("cli.startup_s", "s"),
    *((f"cli.cmd.{cmd}_s", "s") for cmd in PIPELINE_COMMANDS),
    ("cli.invocations", "count"),
    ("tokenizer.tokenize.calls", "count"),
    ("tokenizer.tokenize_s", "s"),
    ("tokenizer.chars_per_s", "char/s"),
    ("tokenizer.pieces_per_word", "piece/word"),
    ("tokenizer.unk_rate", "share"),
    ("corpus.split_sentences.calls", "count"),
    ("corpus.encode_bio_s", "s"),
    ("corpus.io_s", "s"),
    ("vocab_expand.extract_candidates_s", "s"),
    ("vocab_expand.coverage_s", "s"),
    ("encoder.model.forward_hidden_s", "s"),
    ("encoder.model.forward_hidden.calls", "count"),
    ("encoder.model.backward_hidden_s", "s"),
    ("encoder.model.loss_heads_s", "s"),
    ("encoder.model.tag_logits_s", "s"),
    ("encoder.model.real_tokens", "count"),
    ("encoder.model.padded_tokens", "count"),
    ("encoder.model.pad_efficiency", "share"),
    ("encoder.training.adam_step_s", "s"),
    ("encoder.training.steps", "count"),
    ("encoder.training.pretrain_ms_per_step", "ms"),
    ("encoder.training.finetune_s_per_epoch", "s"),
    ("encoder.training.batch_prep_s", "s"),
    ("encoder.predict.predict_s", "s"),
    ("encoder.predict.forward_calls_per_doc", "call/doc"),
    ("encoder.predict.windows", "count"),
    ("encoder.checkpoint.save_s", "s"),
    ("encoder.checkpoint.load_s", "s"),
    ("encoder.checkpoint.resize_for_vocab_s", "s"),
    ("encoder.checkpoint.bytes_written", "B"),
    ("evaluation.score_s", "s"),
    ("evaluation.categorize_errors_s", "s"),
    ("evaluation.aggregate_runs_s", "s"),
    ("tsne.tsne_s", "s"),
    ("tsne.points", "count"),
    ("synthesis.generate_synthetic_s", "s"),
    ("bench.trace_overhead_s", "s"),
    ("bench.trace_overhead_share", "share"),
)


@dataclass(frozen=True)
class Metric:
    value: float
    unit: str
    n: int  # samples behind the value


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[Span], invocations: Iterable[dict] = ()
) -> dict[str, Metric]:
    """Per-layer numbers from the spans of one traced workload iteration.

    ``invocations`` holds the CLI shim's per-process records (traced pipeline
    only); they carry the import and start-up times measured before dispatch.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span.name].append(i)

    def calls(name: str) -> int:
        return len(by_name[name])

    def total(*names: str) -> float:
        return sum(spans[i].duration for n in names for i in by_name[n])

    def own(*names: str) -> float:
        return sum(selfs[i] for n in names for i in by_name[n])

    def count(name: str, key: str, under: set[str] | None = None) -> float:
        return sum(
            spans[i].counts.get(key, 0)
            for i in by_name[name]
            if under is None or has_ancestor(spans, i, under)
        )

    predict_family = {"encoder.predict.predict", "encoder.predict.predict_corpus"}
    outer_predict = [
        i for n in predict_family for i in by_name[n]
        if not has_ancestor(spans, i, predict_family)
    ]
    docs_predicted = sum(spans[i].counts.get("docs", 0) for i in outer_predict)
    forward_in_predict = sum(
        1 for i in by_name["encoder.model.forward_hidden"]
        if has_ancestor(spans, i, predict_family)
    )
    real = count("encoder.model.forward_hidden", "real")
    padded = count("encoder.model.forward_hidden", "padded")
    records = list(invocations)

    values: dict[str, tuple[float, int]] = {
        "cli.import_s": (
            median([r["import_s"] for r in records]) if records else 0.0, len(records)
        ),
        "cli.startup_s": (
            median([r["startup_s"] for r in records]) if records else 0.0, len(records)
        ),
        "cli.invocations": (len(records), len(records)),
        "tokenizer.tokenize.calls": (calls("tokenizer.tokenize"), 1),
        "tokenizer.tokenize_s": (total("tokenizer.tokenize"), calls("tokenizer.tokenize")),
        "tokenizer.chars_per_s": (
            ratio(count("tokenizer.tokenize", "chars"), total("tokenizer.tokenize")),
            calls("tokenizer.tokenize"),
        ),
        "tokenizer.pieces_per_word": (
            ratio(count("tokenizer.tokenize", "pieces"), count("tokenizer.tokenize", "words")),
            calls("tokenizer.tokenize"),
        ),
        "tokenizer.unk_rate": (
            ratio(count("tokenizer.tokenize", "unk"), count("tokenizer.tokenize", "pieces")),
            calls("tokenizer.tokenize"),
        ),
        "corpus.split_sentences.calls": (calls("corpus.split_sentences"), 1),
        "corpus.encode_bio_s": (total("corpus.encode_bio"), calls("corpus.encode_bio")),
        "corpus.io_s": (
            total("corpus.load_corpus", "corpus.save_corpus"),
            calls("corpus.load_corpus") + calls("corpus.save_corpus"),
        ),
        "vocab_expand.extract_candidates_s": (
            total("vocab_expand.extract_candidates"),
            calls("vocab_expand.extract_candidates"),
        ),
        "vocab_expand.coverage_s": (
            total("vocab_expand.coverage"), calls("vocab_expand.coverage")
        ),
        "encoder.model.forward_hidden_s": (
            total("encoder.model.forward_hidden"), calls("encoder.model.forward_hidden")
        ),
        "encoder.model.forward_hidden.calls": (calls("encoder.model.forward_hidden"), 1),
        "encoder.model.backward_hidden_s": (
            total("encoder.model.backward_hidden"), calls("encoder.model.backward_hidden")
        ),
        "encoder.model.loss_heads_s": (
            own("encoder.model.mlm_loss_and_grads", "encoder.model.ner_loss_and_grads"),
            calls("encoder.model.mlm_loss_and_grads")
            + calls("encoder.model.ner_loss_and_grads"),
        ),
        "encoder.model.tag_logits_s": (
            own("encoder.model.tag_logits"), calls("encoder.model.tag_logits")
        ),
        "encoder.model.real_tokens": (real, calls("encoder.model.forward_hidden")),
        "encoder.model.padded_tokens": (padded, calls("encoder.model.forward_hidden")),
        "encoder.model.pad_efficiency": (
            ratio(real, padded), calls("encoder.model.forward_hidden")
        ),
        "encoder.training.adam_step_s": (
            total("encoder.training.adam_step"), calls("encoder.training.adam_step")
        ),
        "encoder.training.steps": (calls("encoder.training.adam_step"), 1),
        "encoder.training.pretrain_ms_per_step": (
            1000.0 * ratio(
                total("encoder.training.pretrain_mlm"),
                count("encoder.training.pretrain_mlm", "steps"),
            ),
            int(count("encoder.training.pretrain_mlm", "steps")),
        ),
        "encoder.training.finetune_s_per_epoch": (
            ratio(
                total("encoder.training.finetune_ner"),
                count("encoder.training.finetune_ner", "epochs"),
            ),
            int(count("encoder.training.finetune_ner", "epochs")),
        ),
        "encoder.training.batch_prep_s": (
            own("encoder.training.pretrain_mlm", "encoder.training.finetune_ner"),
            calls("encoder.training.pretrain_mlm") + calls("encoder.training.finetune_ner"),
        ),
        "encoder.predict.predict_s": (
            sum(spans[i].duration for i in outer_predict), len(outer_predict)
        ),
        "encoder.predict.forward_calls_per_doc": (
            ratio(forward_in_predict, docs_predicted), int(docs_predicted)
        ),
        "encoder.predict.windows": (
            count("encoder.model.tag_logits", "sequences", predict_family), 1
        ),
        "encoder.checkpoint.save_s": (
            total("encoder.checkpoint.save_checkpoint"),
            calls("encoder.checkpoint.save_checkpoint"),
        ),
        "encoder.checkpoint.load_s": (
            total("encoder.checkpoint.load_checkpoint"),
            calls("encoder.checkpoint.load_checkpoint"),
        ),
        "encoder.checkpoint.resize_for_vocab_s": (
            total("encoder.checkpoint.resize_for_vocab"),
            calls("encoder.checkpoint.resize_for_vocab"),
        ),
        "encoder.checkpoint.bytes_written": (
            count("encoder.checkpoint.save_checkpoint", "bytes"),
            calls("encoder.checkpoint.save_checkpoint"),
        ),
        "evaluation.score_s": (total("evaluation.score"), calls("evaluation.score")),
        "evaluation.categorize_errors_s": (
            total("evaluation.categorize_errors"), calls("evaluation.categorize_errors")
        ),
        "evaluation.aggregate_runs_s": (
            total("evaluation.aggregate_runs"), calls("evaluation.aggregate_runs")
        ),
        "tsne.tsne_s": (total("tsne.tsne"), calls("tsne.tsne")),
        "tsne.points": (count("tsne.tsne", "points"), calls("tsne.tsne")),
        "synthesis.generate_synthetic_s": (
            total("synthesis.generate_synthetic"), calls("synthesis.generate_synthetic")
        ),
    }
    for cmd in PIPELINE_COMMANDS:
        name = f"cli.cmd.{cmd}"
        values[name + "_s"] = (total(name), calls(name))
    units = dict(PER_LAYER)
    return {
        name: Metric(float(value), units[name], n) for name, (value, n) in values.items()
    }
