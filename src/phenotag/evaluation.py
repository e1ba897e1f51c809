"""Entity-level evaluation: exact and lenient span matching, micro/macro F1,
multi-run confidence intervals, and an error taxonomy.

Matching is one-to-one and greedy: predictions sorted by (start, end) each
take the first unmatched gold span of the same label that qualifies (equal
boundaries for exact match, character overlap for lenient match), so one long
prediction can never consume several gold spans.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .corpus import Document, EntityLabel, EntitySpan, LABELS, pair_documents
from .errors import ValidationError

MODES = ("exact", "lenient")
#: Level of the Student-t intervals that ``aggregate_runs`` reports.
CONFIDENCE = 0.95


@dataclass(frozen=True)
class ClassMetrics:
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r else 0.0


@dataclass(frozen=True)
class MatchResult:
    """One document's matching for one mode."""

    pairs: list[tuple[EntitySpan, EntitySpan]]
    counts: dict[EntityLabel, ClassMetrics]


def _qualifies(gold: EntitySpan, pred: EntitySpan, mode: str) -> bool:
    if gold.label != pred.label:
        return False
    if mode == "exact":
        return gold.start_char == pred.start_char and gold.end_char == pred.end_char
    return pred.start_char < gold.end_char and gold.start_char < pred.end_char


def match_spans(
    gold: Sequence[EntitySpan], pred: Sequence[EntitySpan], mode: str
) -> MatchResult:
    """Greedy one-to-one matching of predictions against gold spans."""
    if mode not in MODES:
        raise ValidationError(f"unknown match mode {mode!r}")
    gold_sorted = sorted(gold)
    pred_sorted = sorted(pred)
    taken = [False] * len(gold_sorted)
    pairs: list[tuple[EntitySpan, EntitySpan]] = []
    matched_pred = [False] * len(pred_sorted)
    for pi, p in enumerate(pred_sorted):
        for gi, g in enumerate(gold_sorted):
            if taken[gi] or not _qualifies(g, p, mode):
                continue
            taken[gi] = True
            matched_pred[pi] = True
            pairs.append((g, p))
            break
    tp = Counter(g.label for g, _ in pairs)
    fp = Counter(p.label for p, m in zip(pred_sorted, matched_pred) if not m)
    fn = Counter(g.label for g, t in zip(gold_sorted, taken) if not t)
    counts = {label: ClassMetrics(tp[label], fp[label], fn[label]) for label in LABELS}
    return MatchResult(pairs, counts)


@dataclass(frozen=True)
class ModeReport:
    per_label: dict[EntityLabel, ClassMetrics]
    labels: tuple[EntityLabel, ...]

    @property
    def micro(self) -> ClassMetrics:
        return ClassMetrics(
            tp=sum(self.per_label[l].tp for l in self.labels),
            fp=sum(self.per_label[l].fp for l in self.labels),
            fn=sum(self.per_label[l].fn for l in self.labels),
        )

    @property
    def micro_f1(self) -> float:
        return self.micro.f1

    @property
    def macro_f1(self) -> float:
        return sum(self.per_label[l].f1 for l in self.labels) / len(self.labels)


@dataclass(frozen=True)
class MatchReport:
    """Per-class and aggregate counts and metrics for both match modes."""

    exact: ModeReport
    lenient: ModeReport

    def mode(self, name: str) -> ModeReport:
        if name == "exact":
            return self.exact
        if name == "lenient":
            return self.lenient
        raise ValidationError(f"unknown match mode {name!r}")

    def to_dict(self) -> dict:
        out: dict = {"labels": [l.value for l in self.exact.labels]}
        for mode in MODES:
            rep = self.mode(mode)
            out[mode] = {
                l.value: [rep.per_label[l].tp, rep.per_label[l].fp, rep.per_label[l].fn]
                for l in rep.labels
            }
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "MatchReport":
        """Inverse of ``to_dict``; a report read from a file is outside input.

        Raises:
            ValueError: no labels, a repeated label, or counts that are not
                three non-negative integers.
        """
        labels = tuple(EntityLabel(v) for v in d["labels"])
        if not labels or len(set(labels)) != len(labels):
            raise ValueError(f"labels must be distinct and non-empty: {d['labels']!r}")
        reports = {}
        for mode in MODES:
            per_label = {}
            for l in labels:
                counts = d[mode][l.value]
                if len(counts) != 3 or not all(type(c) is int and c >= 0 for c in counts):
                    raise ValueError(
                        f"{mode} {l.value}: counts must be three non-negative "
                        f"integers, not {counts!r}"
                    )
                per_label[l] = ClassMetrics(*counts)
            reports[mode] = ModeReport(per_label, labels)
        return cls(exact=reports["exact"], lenient=reports["lenient"])


def score(
    gold_docs: Sequence[Document],
    pred_docs: Sequence[Document],
    labels: Sequence[EntityLabel] = LABELS,
) -> MatchReport:
    """Corpus-level report: counts summed over documents, both match modes.

    Macro F1 averages over the configured label set (a label absent from the
    data contributes an F1 of 0); micro F1 comes from globally summed counts.
    Documents are paired by ``corpus.pair_documents``.
    """
    pairs = pair_documents(gold_docs, pred_docs)
    label_tuple = tuple(labels)
    reports: dict[str, ModeReport] = {}
    for mode in MODES:
        totals = {l: [0, 0, 0] for l in label_tuple}
        for gold_doc, pred_doc in pairs:
            result = match_spans(gold_doc.entities, pred_doc.entities, mode)
            for l in label_tuple:
                c = result.counts[l]
                totals[l][0] += c.tp
                totals[l][1] += c.fp
                totals[l][2] += c.fn
        reports[mode] = ModeReport(
            {l: ClassMetrics(*totals[l]) for l in label_tuple}, label_tuple
        )
    return MatchReport(exact=reports["exact"], lenient=reports["lenient"])


def format_match_report(report: MatchReport) -> str:
    """Table layout: one row per entity type plus macro/micro rows; exact
    values with lenient values in parentheses."""
    lines = ["entity_type\tprecision\trecall\tf1"]
    for label in report.exact.labels:
        e = report.exact.per_label[label]
        l = report.lenient.per_label[label]
        lines.append(
            f"{label.value}\t{e.precision:.3f} ({l.precision:.3f})"
            f"\t{e.recall:.3f} ({l.recall:.3f})"
            f"\t{e.f1:.3f} ({l.f1:.3f})"
        )
    lines.append(
        f"Macro average\t\t\t{report.exact.macro_f1:.3f} ({report.lenient.macro_f1:.3f})"
    )
    lines.append(
        f"Micro average\t\t\t{report.exact.micro_f1:.3f} ({report.lenient.micro_f1:.3f})"
    )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MetricStats:
    mean: float
    stdev: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None


@dataclass(frozen=True)
class RunAggregate:
    n_runs: int
    metrics: dict[str, MetricStats]


def aggregate_values(values: Sequence[float]) -> MetricStats:
    """Mean, sample stdev, and a Student-t interval at level ``CONFIDENCE``.

    ``stdtrit`` is the inverse Student-t CDF behind ``scipy.stats.t.ppf``,
    without the second of import that ``scipy.stats`` costs.
    """
    from scipy.special import stdtrit

    n = len(values)
    if n == 0:
        raise ValidationError("cannot aggregate an empty list")
    mean = sum(values) / n
    if n == 1:
        return MetricStats(mean=mean)
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    s = math.sqrt(var)
    t_crit = float(stdtrit(n - 1, 0.5 + CONFIDENCE / 2.0))
    half = t_crit * s / math.sqrt(n)
    return MetricStats(mean=mean, stdev=s, ci_low=mean - half, ci_high=mean + half)


def aggregate_runs(reports: Sequence[MatchReport]) -> RunAggregate:
    """Aggregate per-metric statistics over repeated runs.

    Covers macro/micro F1 and per-label F1 for both modes; with a single run
    only means are reported.
    """
    if not reports:
        raise ValidationError("cannot aggregate an empty list of reports")
    labels = reports[0].exact.labels
    if any(set(r.exact.labels) != set(labels) for r in reports):
        raise ValidationError("cannot aggregate reports over different label sets")
    metrics: dict[str, MetricStats] = {}
    for mode in MODES:
        metrics[f"{mode}.macro_f1"] = aggregate_values([r.mode(mode).macro_f1 for r in reports])
        metrics[f"{mode}.micro_f1"] = aggregate_values([r.mode(mode).micro_f1 for r in reports])
        for label in labels:
            metrics[f"{mode}.f1.{label.value}"] = aggregate_values(
                [r.mode(mode).per_label[label].f1 for r in reports]
            )
    return RunAggregate(len(reports), metrics)


def _agg_cell(agg: RunAggregate, key: str) -> str:
    st = agg.metrics[key]
    if st.ci_low is None:
        return f"{st.mean:.3f}"
    return f"{st.mean:.3f} [{st.ci_low:.3f}, {st.ci_high:.3f}]"


def format_aggregate_table(groups: Mapping[str, RunAggregate]) -> str:
    """Side-by-side aggregate table, one column per model/run group.

    Rows follow the usual layout: per-entity F1 (lenient in parentheses) for
    the reports' own labels, then macro and micro rows with confidence
    intervals.
    """
    if not groups:
        raise ValidationError("no aggregates to format")
    names = list(groups)
    first = groups[names[0]].metrics
    if any(set(groups[n].metrics) != set(first) for n in names):
        raise ValidationError("cannot tabulate groups over different label sets")
    labels = [k.removeprefix("exact.f1.") for k in first if k.startswith("exact.f1.")]
    lines = ["entity_type\t" + "\t".join(names)]
    for label in labels:
        cells = []
        for n in names:
            e = groups[n].metrics[f"exact.f1.{label}"]
            l = groups[n].metrics[f"lenient.f1.{label}"]
            cells.append(f"{e.mean:.3f} ({l.mean:.3f})")
        lines.append(label + "\t" + "\t".join(cells))
    for metric, title in (("macro_f1", "Macro average"), ("micro_f1", "Micro average")):
        cells = []
        for n in names:
            exact = _agg_cell(groups[n], f"exact.{metric}")
            lenient = _agg_cell(groups[n], f"lenient.{metric}")
            cells.append(f"{exact} ({lenient})")
        lines.append(title + "\t" + "\t".join(cells))
    lines.append(
        f"# n_runs={', '.join(str(groups[n].n_runs) for n in names)}; "
        f"confidence={CONFIDENCE}"
    )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ErrorCase:
    doc_id: str
    gold: EntitySpan | None
    pred: EntitySpan | None


@dataclass
class ErrorBreakdown:
    """Prediction errors partitioned into four categories.

    boundary_mismatch: lenient-matched pair whose boundaries differ;
    missing: gold span with no overlapping prediction of any label;
    type_confusion: gold span overlapped only by predictions of a different
    label (counted once per gold); spurious: prediction overlapping no gold.
    """

    boundary_mismatch: list[ErrorCase] = field(default_factory=list)
    missing: list[ErrorCase] = field(default_factory=list)
    type_confusion: list[ErrorCase] = field(default_factory=list)
    spurious: list[ErrorCase] = field(default_factory=list)

    @property
    def counts(self) -> dict[str, int]:
        return {
            "boundary_mismatch": len(self.boundary_mismatch),
            "missing": len(self.missing),
            "type_confusion": len(self.type_confusion),
            "spurious": len(self.spurious),
        }


def categorize_errors(
    gold_docs: Sequence[Document], pred_docs: Sequence[Document]
) -> ErrorBreakdown:
    """Assign every false negative and false positive to one error category.

    Documents are paired by ``corpus.pair_documents``.
    """
    out = ErrorBreakdown()
    for gold_doc, pred_doc in pair_documents(gold_docs, pred_docs):
        doc_id, gold, pred = gold_doc.doc_id, gold_doc.entities, pred_doc.entities
        result = match_spans(gold, pred, "lenient")
        matched_gold = {id(g) for g, _ in result.pairs}
        matched_pred = {id(p) for _, p in result.pairs}
        for g, p in result.pairs:
            if (g.start_char, g.end_char) != (p.start_char, p.end_char):
                out.boundary_mismatch.append(ErrorCase(doc_id, g, p))
        for g in gold:
            if id(g) in matched_gold:
                continue
            confused = [
                p for p in pred if p.overlaps(g) and p.label != g.label
            ]
            if confused:
                out.type_confusion.append(ErrorCase(doc_id, g, confused[0]))
            else:
                # no overlap at all, or a same-label one another gold consumed
                out.missing.append(ErrorCase(doc_id, g, None))
        for p in pred:
            if id(p) in matched_pred:
                continue
            if not any(p.overlaps(g) for g in gold):
                out.spurious.append(ErrorCase(doc_id, None, p))
    return out


def format_error_table(breakdown: ErrorBreakdown) -> str:
    lines = ["category\tcount"]
    for name, count in breakdown.counts.items():
        lines.append(f"{name}\t{count}")
    lines.append("")
    lines.append("category\tdoc_id\tgold\tpred")

    def fmt(span: EntitySpan | None) -> str:
        if span is None:
            return "-"
        return f"({span.start_char},{span.end_char},{span.label.value})"

    for name in ("boundary_mismatch", "missing", "type_confusion", "spurious"):
        for case in getattr(breakdown, name):
            lines.append(f"{name}\t{case.doc_id}\t{fmt(case.gold)}\t{fmt(case.pred)}")
    return "\n".join(lines) + "\n"
