"""Compare a parent commit's runs with a change's runs by the claim rule.

Usage:

    python3 benchmark/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the result lines (the last stdout line of ``run.py``) of one
side, one per run; line i of both files forms pair i, so run the pairs
alternately and with the same seeds. For every end-to-end metric of the
checkout's BENCHMARK.json (one directory up) it prints both medians and
quartiles, the share of pairs the change wins, and a verdict:

- ``regression`` for a metric in ``EXACT`` if the two values of any pair
  differ; the rules below apply to the other metrics;
- ``gain``: the change wins at least nine tenths of the pairs (ties count for
  neither) and the medians differ by more than the parent's quartile spread;
  ``no-claim`` instead if the change's runs failed more operations in all
  than the parent's;
- ``unresolved``: the parent's own spread exceeds the metric's bound and not
  every change run reads better than every parent run;
- ``regression``: the change's median is worse than the parent's by more than
  the bound;
- ``within-bound`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Exact for a given seed, so a paired difference is a changed result, not noise.
EXACT = frozenset({"exact_macro_f1_base", "exact_macro_f1_expanded"})


def load_runs(path: Path) -> list[dict]:
    return [json.loads(l) for l in path.read_text(encoding="utf-8").splitlines() if l.strip()]


def verdict(
    parent: list[float], change: list[float], better: str, bound: float,
    exact: bool = False, more_failures: bool = False,
) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pairs = min(len(parent), len(change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    p_iqr = q3 - q1
    worse_by = -sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if exact and any(p != c for p, c in zip(parent, change)):
        outcome = "regression"
    elif pairs and wins >= 0.9 * pairs and sign * (c_med - p_med) > p_iqr:
        outcome = "no-claim" if more_failures else "gain"
    elif p_med and p_iqr / abs(p_med) > bound and not all_better:
        outcome = "unresolved"
    elif worse_by > bound:
        outcome = "regression"
    else:
        outcome = "within-bound"
    return {
        "parent_median": p_med, "parent_q1": q1, "parent_q3": q3,
        "change_median": c_med, "win_share": wins / pairs if pairs else 0.0,
        "pairs": pairs, "worse_by": worse_by, "verdict": outcome,
    }


def compare(bench: dict, parent: list[dict], change: list[dict]) -> dict[str, dict]:
    more_failures = sum(r["failed"] for r in change) > sum(r["failed"] for r in parent)
    out = {}
    for m in bench["end_to_end"]:
        name = m["name"]
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        out[name] = verdict(p, c, m["better"], m["bound"], name in EXACT, more_failures)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="claim rule over paired runs")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    parent, change = load_runs(args.parent), load_runs(args.change)
    if len(parent) != len(change) or len(parent) < 2:
        print("error: need the same number (>= 2) of parent and change runs", file=sys.stderr)
        return 2
    print(
        f"failed operations: parent {sum(r['failed'] for r in parent)}, "
        f"change {sum(r['failed'] for r in change)}"
    )
    for name, r in compare(bench, parent, change).items():
        print(
            f"{name:26s} parent {r['parent_median']:.6g} [{r['parent_q1']:.6g}, "
            f"{r['parent_q3']:.6g}]  change {r['change_median']:.6g}  "
            f"wins {r['win_share']:.0%} of {r['pairs']}  {r['verdict']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
