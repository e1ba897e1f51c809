import math
import random

import numpy as np
import pytest

from phenotag.corpus import Document, EntityLabel, EntitySpan, LABELS
from phenotag.errors import ValidationError
from phenotag.evaluation import (
    MatchReport,
    aggregate_runs,
    aggregate_values,
    categorize_errors,
    format_aggregate_table,
    format_error_table,
    format_match_report,
    match_spans,
    score,
)

TS = EntityLabel.TUMOR_SIZE
CG = EntityLabel.CANCER_GRADE
CS = EntityLabel.CANCER_STAGE
HRT = EntityLabel.HORMONE_RECEPTOR_TYPE


def docs_from(gold, pred, text_len=200):
    text = "x" * text_len
    return [Document("d0", text, list(gold))], [Document("d0", text, list(pred))]


class TestMatchSpans:
    def test_perfect_prediction(self):
        gold = [EntitySpan(0, 10, TS), EntitySpan(20, 25, CG)]
        for mode in ("exact", "lenient"):
            result = match_spans(gold, list(gold), mode)
            assert len(result.pairs) == 2
            assert result.counts[TS].tp == 1 and result.counts[CG].tp == 1
            assert all(c.fp == 0 and c.fn == 0 for c in result.counts.values())

    def test_boundary_shift_exact_vs_lenient(self):
        gold = [EntitySpan(0, 10, TS)]
        pred = [EntitySpan(0, 7, TS)]
        exact = match_spans(gold, pred, "exact")
        assert (exact.counts[TS].tp, exact.counts[TS].fp, exact.counts[TS].fn) == (0, 1, 1)
        lenient = match_spans(gold, pred, "lenient")
        assert (lenient.counts[TS].tp, lenient.counts[TS].fp, lenient.counts[TS].fn) == (1, 0, 0)

    def test_label_mismatch_never_matches(self):
        gold = [EntitySpan(0, 5, EntityLabel("HormoneReceptorType"))]
        pred = [EntitySpan(0, 5, EntityLabel("HormoneReceptorStatus"))]
        for mode in ("exact", "lenient"):
            result = match_spans(gold, pred, mode)
            assert not result.pairs

    def test_touching_spans_do_not_overlap(self):
        gold = [EntitySpan(0, 5, TS)]
        pred = [EntitySpan(5, 9, TS)]
        assert not match_spans(gold, pred, "lenient").pairs

    def test_one_to_one_long_prediction_takes_single_gold(self):
        gold = [EntitySpan(0, 5, TS), EntitySpan(6, 12, TS)]
        pred = [EntitySpan(0, 12, TS)]
        result = match_spans(gold, pred, "lenient")
        assert len(result.pairs) == 1
        assert result.counts[TS].fn == 1 and result.counts[TS].fp == 0

    def test_one_to_one_property_randomized(self):
        rng = random.Random(77)
        labels = list(LABELS)
        for _ in range(1000):
            def spans():
                out = []
                for _ in range(rng.randint(0, 8)):
                    start = rng.randint(0, 40)
                    out.append(
                        EntitySpan(start, start + rng.randint(1, 8), rng.choice(labels))
                    )
                return out

            gold, pred = spans(), spans()
            for mode in ("exact", "lenient"):
                result = match_spans(gold, pred, mode)
                used_gold = [id(g) for g, _ in result.pairs]
                used_pred = [id(p) for _, p in result.pairs]
                assert len(used_gold) == len(set(used_gold))
                assert len(used_pred) == len(set(used_pred))
                exact_tp = sum(c.tp for c in match_spans(gold, pred, "exact").counts.values())
                lenient_tp = sum(c.tp for c in match_spans(gold, pred, "lenient").counts.values())
                assert lenient_tp >= exact_tp


class TestScore:
    def test_macro_and_micro_half(self):
        # two classes: (TP=1, FP=0, FN=0) and (TP=0, FP=1, FN=1)
        gold = [EntitySpan(0, 5, TS), EntitySpan(10, 15, CG)]
        pred = [EntitySpan(0, 5, TS), EntitySpan(30, 35, CG)]
        gold_docs, pred_docs = docs_from(gold, pred)
        report = score(gold_docs, pred_docs, labels=(TS, CG))
        assert abs(report.exact.per_label[TS].f1 - 1.0) < 1e-12
        assert abs(report.exact.per_label[CG].f1 - 0.0) < 1e-12
        assert abs(report.exact.macro_f1 - 0.5) < 1e-12
        assert abs(report.exact.micro_f1 - 0.5) < 1e-12

    def test_empty_predictions(self):
        gold = [EntitySpan(0, 5, TS)]
        gold_docs, pred_docs = docs_from(gold, [])
        report = score(gold_docs, pred_docs)
        m = report.exact.per_label[TS]
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0

    def test_self_score_is_perfect(self, corpus200):
        subset = corpus200[:40]
        report = score(subset, subset)
        for mode in ("exact", "lenient"):
            rep = getattr(report, mode)
            assert rep.micro_f1 == 1.0
            for label in LABELS:
                if rep.per_label[label].tp:
                    assert rep.per_label[label].f1 == 1.0

    def test_macro_counts_absent_class_as_zero(self):
        gold = [EntitySpan(0, 5, TS)]
        gold_docs, pred_docs = docs_from(gold, gold)
        report = score(gold_docs, pred_docs)  # default: all 8 labels
        assert abs(report.exact.macro_f1 - 1.0 / 8.0) < 1e-12

    def test_doc_id_mismatch_lists_difference(self):
        a = [Document("a", "xx", [])]
        b = [Document("b", "xx", [])]
        with pytest.raises(ValidationError, match=r"\['a', 'b'\]"):
            score(a, b)

    def test_lenient_tp_at_least_exact_tp_randomized(self):
        rng = random.Random(123)
        labels = list(LABELS)
        for _ in range(200):
            def make(n):
                out = []
                for _ in range(n):
                    s = rng.randint(0, 60)
                    out.append(EntitySpan(s, s + rng.randint(1, 9), rng.choice(labels)))
                return out

            gold_docs, pred_docs = docs_from(make(rng.randint(0, 6)), make(rng.randint(0, 6)))
            report = score(gold_docs, pred_docs)
            for label in LABELS:
                assert (
                    report.lenient.per_label[label].tp >= report.exact.per_label[label].tp
                )
            assert 0.0 <= report.exact.micro_f1 <= 1.0
            assert 0.0 <= report.lenient.macro_f1 <= 1.0

    def test_report_serialization_round_trip(self, corpus200):
        report = score(corpus200[:10], corpus200[:10])
        back = MatchReport.from_dict(report.to_dict())
        assert back.exact.micro_f1 == report.exact.micro_f1
        assert back.lenient.per_label == report.lenient.per_label

    def test_table_layout(self, corpus200):
        table = format_match_report(score(corpus200[:10], corpus200[:10]))
        lines = table.strip().splitlines()
        assert len(lines) == 11  # header + 8 entities + macro + micro
        assert lines[-2].startswith("Macro average")
        assert lines[-1].startswith("Micro average")
        assert "(" in lines[1]  # lenient values parenthesized


class TestAggregate:
    def test_identical_reports_zero_width(self, corpus200):
        report = score(corpus200[:5], corpus200[:5])
        agg = aggregate_runs([report] * 10)
        st = agg.metrics["exact.micro_f1"]
        assert st.stdev == 0.0
        assert st.ci_low == st.mean == st.ci_high

    def test_hand_computed_two_values(self):
        st = aggregate_values([0.8, 0.9])
        assert st.mean == pytest.approx(0.85)
        assert st.stdev == pytest.approx(0.07071067811865477)
        half = 12.706204736174698 * st.stdev / math.sqrt(2)
        assert st.ci_high - st.mean == pytest.approx(half, rel=1e-9)
        assert st.ci_high - st.mean == pytest.approx(0.635, abs=1e-3)

    @pytest.mark.parametrize("df, t_crit", [
        (1, 12.706204736174694), (4, 2.7764451051977934), (9, 2.262157162798205),
    ])
    def test_critical_value_pinned_at_95(self, df, t_crit):
        # the exact floats scipy.stats.t.ppf(0.975, df) returns
        values = [0.5 + 0.01 * (i % 3) for i in range(df + 1)]
        st = aggregate_values(values)
        n = len(values)
        assert st.ci_high == st.mean + t_crit * st.stdev / math.sqrt(n)
        assert st.ci_low == st.mean - t_crit * st.stdev / math.sqrt(n)

    def test_single_run_mean_only(self, corpus200):
        report = score(corpus200[:5], corpus200[:5])
        agg = aggregate_runs([report])
        st = agg.metrics["exact.macro_f1"]
        assert st.stdev is None and st.ci_low is None

    def test_permutation_invariant(self, corpus200):
        r1 = score(corpus200[:5], corpus200[:5])
        r2 = score(corpus200[5:10], corpus200[5:10])
        r3 = score(corpus200[10:15], corpus200[10:15])
        a = aggregate_runs([r1, r2, r3])
        b = aggregate_runs([r3, r1, r2])
        assert a.metrics == b.metrics

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_runs([])

    def test_ci_brackets_mean(self):
        rng = random.Random(5)
        values = [0.8 + 0.05 * rng.random() for _ in range(10)]
        st = aggregate_values(values)
        assert st.ci_low <= st.mean <= st.ci_high

    def test_side_by_side_table(self, corpus200):
        r = score(corpus200[:5], corpus200[:5])
        agg = aggregate_runs([r, r])
        table = format_aggregate_table({"base": agg, "expanded": agg})
        lines = table.strip().splitlines()
        assert lines[0] == "entity_type\tbase\texpanded"
        assert any(line.startswith("Macro average") for line in lines)
        assert "[" in [l for l in lines if l.startswith("Macro")][0]


class TestErrorTaxonomy:
    def test_boundary_mismatch(self):
        text = "the tumor measures 2 cm in length and 1 cm in width"
        whole = text.index("2 cm")
        gold = [EntitySpan(whole, len(text), TS)]
        pred = [EntitySpan(whole, whole + len("2 cm in length"), TS)]
        gold_docs = [Document("d0", text, gold)]
        pred_docs = [Document("d0", text, pred)]
        breakdown = categorize_errors(gold_docs, pred_docs)
        assert breakdown.counts == {
            "boundary_mismatch": 1, "missing": 0, "type_confusion": 0, "spurious": 0,
            "split": 0,
        }

    def test_split(self):
        # one gold span predicted as three fragments: the first is matched,
        # each of the other two is a split row naming the gold span
        text = "the tumor measures 2 cm in length and 1 cm in width"
        whole = text.index("2 cm")
        fragments = [(whole, text.index(" and")), (text.index("1 cm"), text.index(" in w")),
                     (text.index("width"), len(text))]
        gold_docs = [Document("d0", text, [EntitySpan(whole, len(text), TS)])]
        pred_docs = [Document("d0", text, [EntitySpan(s, e, TS) for s, e in fragments])]
        table = format_error_table(categorize_errors(gold_docs, pred_docs))
        assert [text[s:e] for s, e in fragments] == ["2 cm in length", "1 cm", "width"]
        assert table.splitlines() == [
            "category\tcount",
            "boundary_mismatch\t1", "missing\t0", "type_confusion\t0", "spurious\t0",
            "split\t2",
            "",
            "category\tdoc_id\tgold\tpred",
            "boundary_mismatch\td0\t(19,51,TumorSize)\t(19,33,TumorSize)",
            "split\td0\t(19,51,TumorSize)\t(38,42,TumorSize)",
            "split\td0\t(19,51,TumorSize)\t(46,51,TumorSize)",
        ]

    def test_missing(self):
        text = "stage recorded as mx today"
        start = text.index("mx")
        gold_docs = [Document("d0", text, [EntitySpan(start, start + 2, CS)])]
        pred_docs = [Document("d0", text, [])]
        breakdown = categorize_errors(gold_docs, pred_docs)
        assert breakdown.counts["missing"] == 1
        assert breakdown.cases["missing"][0].gold.label == CS

    def test_type_confusion(self):
        text = "grade is 3 overall"
        pos = text.index("3")
        gold_docs = [Document("d0", text, [EntitySpan(pos, pos + 1, CG)])]
        pred_docs = [Document("d0", text, [EntitySpan(pos, pos + 1, CS)])]
        breakdown = categorize_errors(gold_docs, pred_docs)
        assert breakdown.counts["type_confusion"] == 1
        case = breakdown.cases["type_confusion"][0]
        assert case.gold.label == CG and case.pred.label == CS

    def test_type_confusion_of_each_prediction(self):
        # two predictions of another label cut one gold span: the gold span's
        # row names the first, and the second gets a row of its own
        text = "grade is 3 overall"
        gold_docs = [Document("d0", text, [EntitySpan(9, 18, CG)])]
        pred_docs = [Document("d0", text, [EntitySpan(9, 10, CS), EntitySpan(11, 18, CS)])]
        rows = format_error_table(categorize_errors(gold_docs, pred_docs)).splitlines()
        assert rows[rows.index("category\tdoc_id\tgold\tpred") + 1:] == [
            "type_confusion\td0\t(9,18,CancerGrade)\t(9,10,CancerStage)",
            "type_confusion\td0\t(9,18,CancerGrade)\t(11,18,CancerStage)",
        ]

    def test_spurious(self):
        gold_docs, pred_docs = docs_from([], [EntitySpan(3, 8, HRT)])
        breakdown = categorize_errors(gold_docs, pred_docs)
        assert breakdown.counts["spurious"] == 1

    def test_every_fn_categorized_once(self):
        rng = random.Random(9)
        labels = list(LABELS)
        for _ in range(300):
            def make(n):
                out = set()
                for _ in range(n):
                    s = rng.randint(0, 50)
                    out.add(EntitySpan(s, s + rng.randint(1, 7), rng.choice(labels)))
                return sorted(out)

            gold, pred = make(rng.randint(0, 5)), make(rng.randint(0, 5))
            gold_docs, pred_docs = docs_from(gold, pred)
            breakdown = categorize_errors(gold_docs, pred_docs)
            exact = score(gold_docs, pred_docs).exact
            total_exact_fn = sum(exact.per_label[l].fn for l in LABELS)
            # a false positive's type_confusion row may name a gold span that
            # was matched or has a row of its own
            paired = [case.gold for case in breakdown.cases["boundary_mismatch"]]
            unpaired = set(match_spans(gold, pred, "exact").unmatched_gold) - set(paired)
            named = paired + [case.gold for case in breakdown.cases["missing"]] + list(
                {case.gold for case in breakdown.cases["type_confusion"]} & unpaired)
            assert len(named) == len(set(named)) == total_exact_fn

    def test_an_exactly_predicted_span_has_no_row(self):
        # gold (0,5) and (4,9) of one label, the prediction (4,9): one row,
        # not a boundary_mismatch row and a missing row for (4,9)
        gold_docs, pred_docs = docs_from([EntitySpan(0, 5, TS), EntitySpan(4, 9, TS)],
                                         [EntitySpan(4, 9, TS)])
        rows = format_error_table(categorize_errors(gold_docs, pred_docs)).splitlines()
        assert rows[rows.index("category\tdoc_id\tgold\tpred") + 1:] == [
            "missing\td0\t(0,5,TumorSize)\t-",
        ]
