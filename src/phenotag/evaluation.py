"""Entity-level evaluation: exact and lenient span matching, micro/macro F1,
multi-run confidence intervals, and an error taxonomy.

Matching is one-to-one and greedy: predictions sorted by (start, end) each
take the first unmatched gold span of the same label that qualifies (equal
boundaries for exact match, character overlap for lenient match), so one long
prediction can never consume several gold spans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Mapping, Sequence

from .corpus import Document, EntityLabel, EntitySpan, LABELS, pair_documents
from .errors import ValidationError

MODES = ("exact", "lenient")
#: Error categories, in the order the error table lists them.
CATEGORIES = ("boundary_mismatch", "missing", "type_confusion", "spurious", "split")
#: Level of the Student-t intervals that ``aggregate_runs`` reports.
CONFIDENCE = 0.95
# EntitySpan's own order as one C call per span, not Python-level comparisons;
# the label is a str Enum, so it orders by its value (``.value`` is a slower
# Python-level property)
_SPAN_ORDER = attrgetter("start_char", "end_char", "label")


@dataclass(frozen=True)
class ClassMetrics:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __add__(self, other: "ClassMetrics") -> "ClassMetrics":
        return ClassMetrics(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)

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
    """One document's matching for one mode: the (gold, prediction) pairs in
    prediction order, then the unmatched predictions (false positives) and
    the unmatched gold spans (false negatives), each sorted."""

    pairs: list[tuple[EntitySpan, EntitySpan]]
    unmatched_pred: list[EntitySpan]
    unmatched_gold: list[EntitySpan]

    def add_counts(self, counts: dict[EntityLabel, list[int]]) -> None:
        """Add this matching's [tp, fp, fn] to ``counts``, per label."""
        for g, _ in self.pairs:
            counts[g.label][0] += 1
        for p in self.unmatched_pred:
            counts[p.label][1] += 1
        for g in self.unmatched_gold:
            counts[g.label][2] += 1

    @property
    def counts(self) -> dict[EntityLabel, ClassMetrics]:
        counts = {label: [0, 0, 0] for label in LABELS}
        self.add_counts(counts)
        return {label: ClassMetrics(*c) for label, c in counts.items()}


def match_spans(
    gold: Sequence[EntitySpan], pred: Sequence[EntitySpan], mode: str
) -> MatchResult:
    """Greedy one-to-one matching of predictions against gold spans; the one
    matcher behind ``score`` and ``categorize_errors``."""
    if mode not in MODES:
        raise ValidationError(f"unknown match mode {mode!r}")
    exact = mode == "exact"
    gold_sorted = sorted(gold, key=_SPAN_ORDER)
    taken = [False] * len(gold_sorted)
    of_label: dict[EntityLabel, list[int]] = {}
    for gi, g in enumerate(gold_sorted):
        of_label.setdefault(g.label, []).append(gi)
    pairs: list[tuple[EntitySpan, EntitySpan]] = []
    unmatched: list[EntitySpan] = []
    for p in sorted(pred, key=_SPAN_ORDER):
        # a qualifying gold span starts at p's start (exact) or before its end
        stop = p.start_char + 1 if exact else p.end_char
        for gi in of_label.get(p.label, ()):
            g = gold_sorted[gi]
            if g.start_char >= stop:
                unmatched.append(p)  # gold is sorted: no later span qualifies
                break
            if not taken[gi] and (
                (g.start_char, g.end_char) == (p.start_char, p.end_char)
                if exact else p.start_char < g.end_char
            ):
                taken[gi] = True
                pairs.append((g, p))
                break
        else:
            unmatched.append(p)
    return MatchResult(pairs, unmatched, [g for g, t in zip(gold_sorted, taken) if not t])


@dataclass(frozen=True)
class ModeReport:
    """Counts per label; the report's labels are the keys, in order."""

    per_label: dict[EntityLabel, ClassMetrics]

    @property
    def micro_f1(self) -> float:
        return sum(self.per_label.values(), ClassMetrics()).f1

    @property
    def macro_f1(self) -> float:
        return sum(m.f1 for m in self.per_label.values()) / len(self.per_label)


@dataclass(frozen=True)
class MatchReport:
    """Per-class and aggregate counts and metrics for both match modes."""

    exact: ModeReport
    lenient: ModeReport

    def to_dict(self) -> dict:
        out: dict = {"labels": [l.value for l in self.exact.per_label]}
        for mode in MODES:
            out[mode] = {
                l.value: [c.tp, c.fp, c.fn] for l, c in getattr(self, mode).per_label.items()
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
            reports[mode] = ModeReport(per_label)
        return cls(**reports)


def score(
    gold_docs: Sequence[Document],
    pred_docs: Sequence[Document],
    labels: Sequence[EntityLabel] = LABELS,
) -> MatchReport:
    """Corpus-level report: each label's ``match_spans`` counts summed over
    documents, in both match modes.

    The counts are summed as integers straight from the matcher, so one
    ``ClassMetrics`` is built per label and mode, not per document. Macro F1
    averages over the given labels (a label absent from the data contributes
    an F1 of 0); micro F1 comes from the counts summed over them. Documents
    are paired by ``corpus.pair_documents``.
    """
    pairs = pair_documents(gold_docs, pred_docs)
    reports = {}
    for mode in MODES:
        counts = {label: [0, 0, 0] for label in LABELS}
        for g, p in pairs:
            match_spans(g.entities, p.entities, mode).add_counts(counts)
        reports[mode] = ModeReport({l: ClassMetrics(*counts[l]) for l in labels})
    return MatchReport(**reports)


def format_match_report(report: MatchReport) -> str:
    """Table layout: one row per entity type plus macro/micro rows; exact
    values with lenient values in parentheses."""
    lines = ["entity_type\tprecision\trecall\tf1"]
    for label, e in report.exact.per_label.items():
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
    without the second of import that ``scipy.stats`` costs; a single value
    has no interval and imports neither.
    """
    n = len(values)
    if n == 0:
        raise ValidationError("cannot aggregate an empty list")
    mean = sum(values) / n
    if n == 1:
        return MetricStats(mean=mean)
    from scipy.special import stdtrit

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
    labels = list(reports[0].exact.per_label)
    if any(set(r.exact.per_label) != set(labels) for r in reports):
        raise ValidationError("cannot aggregate reports over different label sets")
    metrics: dict[str, MetricStats] = {}
    for mode in MODES:
        runs = [getattr(r, mode) for r in reports]
        metrics[f"{mode}.macro_f1"] = aggregate_values([m.macro_f1 for m in runs])
        metrics[f"{mode}.micro_f1"] = aggregate_values([m.micro_f1 for m in runs])
        for label in labels:
            metrics[f"{mode}.f1.{label.value}"] = aggregate_values(
                [m.per_label[label].f1 for m in runs]
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
    """Prediction errors, one list per ``CATEGORIES`` name. A case names its
    gold span, its prediction, or both.

    Exact matches are removed first; the leftover gold spans (exact false
    negatives) and predictions (exact false positives) are then paired by
    lenient matching, and each leftover has one row:

    boundary_mismatch: a leftover gold span and a leftover prediction of its
    label that overlap, paired by lenient matching: one exact fp and one
    exact fn.

    Each other leftover gold span (an exact fn) is in one of two categories:
    type_confusion: a gold span that a prediction of another label overlaps,
    named with the first such prediction, even when a same-label prediction
    matched to another gold span also overlaps it;
    missing: any other gold span, overlapped by no prediction or only by
    same-label ones matched to other gold spans.

    Each other leftover prediction (an exact fp) is in one of three
    categories:
    spurious: a prediction that overlaps no gold span;
    split: a prediction that overlaps a gold span of its own label, named
    with the first such gold span, which another prediction matched (the
    fragments of a span predicted in pieces);
    type_confusion: a prediction that overlaps only gold spans of other
    labels, named with the first of them. When that gold span's own row
    names this prediction, that one row stands for both.
    """

    cases: dict[str, list[ErrorCase]] = field(
        default_factory=lambda: {name: [] for name in CATEGORIES}
    )

    @property
    def counts(self) -> dict[str, int]:
        return {name: len(cases) for name, cases in self.cases.items()}


def categorize_errors(
    gold_docs: Sequence[Document], pred_docs: Sequence[Document]
) -> ErrorBreakdown:
    """Sort the errors of exact matching into ``CATEGORIES`` (see
    ``ErrorBreakdown`` for which errors each holds).

    Documents are paired by ``corpus.pair_documents``.
    """
    out = ErrorBreakdown()
    for gold_doc, pred_doc in pair_documents(gold_docs, pred_docs):
        doc_id, gold, pred = gold_doc.doc_id, gold_doc.entities, pred_doc.entities
        exact = match_spans(gold, pred, "exact")
        leftover = match_spans(exact.unmatched_gold, exact.unmatched_pred, "lenient")
        for g, p in leftover.pairs:
            out.cases["boundary_mismatch"].append(ErrorCase(doc_id, g, p))
        confusions = set()
        for g in leftover.unmatched_gold:
            confused = next((p for p in pred if p.overlaps(g) and p.label != g.label), None)
            category = "missing" if confused is None else "type_confusion"
            out.cases[category].append(ErrorCase(doc_id, g, confused))
            confusions.add((g, confused))
        for p in leftover.unmatched_pred:
            # EntitySpan.overlaps inline, saving a method call per gold span:
            # an untrained model leaves tens of thousands of predictions here
            start, end = p.start_char, p.end_char
            overlapped = [g for g in gold if g.start_char < end and start < g.end_char]
            if not overlapped:
                out.cases["spurious"].append(ErrorCase(doc_id, None, p))
                continue
            # greedy matching would have taken such a gold span were it unmatched
            same = next((g for g in overlapped if g.label == p.label), None)
            if same is not None:
                out.cases["split"].append(ErrorCase(doc_id, same, p))
            elif (overlapped[0], p) not in confusions:
                out.cases["type_confusion"].append(ErrorCase(doc_id, overlapped[0], p))
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

    for name, cases in breakdown.cases.items():
        for case in cases:
            lines.append(f"{name}\t{case.doc_id}\t{fmt(case.gold)}\t{fmt(case.pred)}")
    return "\n".join(lines) + "\n"
