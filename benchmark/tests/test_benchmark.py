"""Self-tests of the benchmark: span arithmetic, names, seeds, coverage of
the wrapped functions, the claim rule, and failure outside a checkout.

Run with: python3 -m pytest benchmark/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import metrics
import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
ALL = {"pipeline-cli", "train", "infer-mixed"}

TINY = workloads.Sizes(
    corpus_docs=12, test_fraction=0.5, pretrain_steps=2, adapt_steps=1, finetune_epochs=1,
    infer_docs=6, tsne_iterations=30, setup_repeats=2,
    pipeline_docs=10, pipeline_pretrain_steps=2, pipeline_adapt_steps=1,
    cli_warmups=1,
)

# Workloads on which each wrapped function must record at least one call.
EXPECTED = {
    **{name: ALL for name, _, _ in tracing.TARGETS},
    "corpus.load_corpus": {"pipeline-cli"},
    "corpus.save_corpus": {"pipeline-cli"},
    "evaluation.categorize_errors": {"pipeline-cli", "infer-mixed"},
    "evaluation.aggregate_runs": {"pipeline-cli"},
    "tsne.tsne": {"pipeline-cli", "infer-mixed"},
    **{name: {"pipeline-cli"} for name, _, _ in tracing.CLI_TARGETS},
}


def test_self_time_on_hand_built_spans():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, None),
        S("a", 1.0, 4.0, 0),
        S("b", 3.0, 6.0, 0),  # overlaps a: the union counts once
        S("a.child", 1.5, 2.0, 1),
        S("late", 9.0, 12.0, 0),  # reaches past its parent: clipped
        S("second", 20.0, 21.0, None),
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 5 - 1, 2.5, 3.0, 0.5, 3.0, 1.0])
    assert tracing.union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert tracing.union_length([]) == 0.0


def test_tracer_nests_spans_with_an_injected_clock():
    ticks = iter([0.0, 1.0, 3.0, 7.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: "x")
    outer = tracer.wrap("outer", lambda: inner())
    assert outer() == "x"
    names = [(s.name, s.start, s.end, s.parent) for s in tracer.spans]
    assert names == [("outer", 0.0, 7.0, None), ("inner", 1.0, 3.0, 0)]
    assert tracing.self_times(tracer.spans) == [5.0, 2.0]


def test_metric_names_and_benchmark_json_agree():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    for entry in bench["end_to_end"] + bench["per_layer"] + bench["workloads"]:
        assert metrics.NAME_RE.fullmatch(entry["name"]) and len(entry["name"]) <= 64
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(metrics.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": bounds["setup_s"]} in bench["end_to_end"]


def test_install_wraps_every_binding_and_restores():
    import phenotag.cli  # noqa: F401
    import phenotag.encoder as enc

    # phenotag.encoder re-exports the function predict over its submodule's name
    model, predict, training, tok = (
        sys.modules[f"phenotag.{m}"]
        for m in ("encoder.model", "encoder.predict", "encoder.training", "tokenizer")
    )

    originals = {
        name: tracing._resolve(mod, attr)[0].__dict__[tracing._resolve(mod, attr)[1]]
        for name, mod, attr in tracing.TARGETS + tracing.CLI_TARGETS
    }
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, tracing.TARGETS + tracing.CLI_TARGETS)
    try:
        for key, mod in list(sys.modules.items()):
            if key == "phenotag" or key.startswith("phenotag."):
                leftover = [k for k, v in vars(mod).items() if any(v is o for o in originals.values())]
                assert not leftover, (key, leftover)
        for holder in (model, training, enc):
            assert holder.forward_hidden.__wrapped__ is originals["encoder.model.forward_hidden"]
        for holder in (tok, training, predict):
            assert holder.tokenize.__wrapped__ is originals["tokenizer.tokenize"]
        assert training.Adam.step.__wrapped__ is originals["encoder.training.adam_step"]
    finally:
        uninstall()
    assert model.forward_hidden is originals["encoder.model.forward_hidden"]
    assert training.Adam.__dict__["step"] is originals["encoder.training.adam_step"]


def test_seed_comes_from_the_command_line_and_is_recorded(capsys):
    with pytest.raises(SystemExit):
        run.parse_args(["--workload", "train", "--seconds", "1"])
    a = workloads.make_inputs(5, TINY, infer=True)
    b = workloads.make_inputs(5, TINY, infer=True)
    c = workloads.make_inputs(6, TINY, infer=True)
    assert [d.text for d in a.train + a.infer] == [d.text for d in b.train + b.infer]
    assert [d.text for d in a.train] != [d.text for d in c.train]

    assert run.main(["--workload", "train", "--seed", "4242", "--seconds", "0"], sizes=TINY) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in metrics.END_TO_END}
    report = json.loads((ROOT / ".phenobench" / "train-seed4242-trace0.json").read_text())
    assert report["seed"] == 4242 and report["machine"]["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", sorted(ALL))
def test_every_wrapped_function_records_a_call(workload, capsys):
    assert run.main(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", "1"], sizes=TINY) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"], result
    assert set(result["metrics"]) == {name for name, _ in metrics.PER_LAYER}
    report = json.loads((ROOT / ".phenobench" / f"{workload}-seed7-trace1.json").read_text())
    called = {row[0] for row in report["spans"]}
    missing = sorted(name for name, where in EXPECTED.items() if workload in where and name not in called)
    assert not missing


def test_claim_rule():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 9.9]
    faster = [p * 0.8 for p in parent]
    slower = [p * 1.3 for p in parent]
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(parent, faster, "lower", 0.1)["verdict"] == "gain"
    assert compare.verdict(parent, list(parent), "lower", 0.1)["verdict"] == "within-bound"
    assert compare.verdict(parent, slower, "lower", 0.1)["verdict"] == "regression"
    assert compare.verdict(noisy, [n * 1.05 for n in noisy], "lower", 0.1)["verdict"] == "unresolved"
    # one lost pair in ten still claims; two do not
    mixed = faster[:9] + [parent[9] * 1.01]
    assert compare.verdict(parent, mixed, "lower", 0.1)["verdict"] == "gain"
    mixed2 = faster[:8] + [parent[8] * 1.01, parent[9] * 1.01]
    assert compare.verdict(parent, mixed2, "lower", 0.1)["verdict"] != "gain"
    higher = compare.verdict([1.0, 1.1, 1.0, 0.9], [1.5, 1.6, 1.5, 1.4], "higher", 0.1)
    assert higher["verdict"] == "gain"
    # a gain does not count when the change fails more operations
    more = compare.verdict(parent, faster, "lower", 0.1, more_failures=True)
    assert more["verdict"] == "no-claim"
    # an exact metric regresses on any paired difference, even within the bound
    f1 = [0.93, 0.95, 0.90, 0.94]
    assert compare.verdict(f1, list(f1), "higher", 0.15, exact=True)["verdict"] == "within-bound"
    nudged = f1[:3] + [0.9401]
    assert compare.verdict(f1, nudged, "higher", 0.15, exact=True)["verdict"] == "regression"


def test_compare_counts_failures_and_exact_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"]]
    assert compare.EXACT <= set(names)

    def line(wall: float, f1: float, failed: int) -> dict:
        values = {name: 1.0 for name in names}
        values.update(wall_s=wall, exact_macro_f1_base=f1, exact_macro_f1_expanded=f1)
        return {"failed": failed, "metrics": {k: {"value": v} for k, v in values.items()}}

    parent = [line(10.0 + 0.1 * i, 0.9, 0) for i in range(6)]
    faster = [line(8.0 + 0.1 * i, 0.9, 0) for i in range(6)]
    assert compare.compare(bench, parent, faster)["wall_s"]["verdict"] == "gain"
    failing = faster[:5] + [line(8.5, 0.9, 1)]
    assert compare.compare(bench, parent, failing)["wall_s"]["verdict"] == "no-claim"
    drifted = faster[:5] + [line(8.5, 0.89, 0)]
    out = compare.compare(bench, parent, drifted)
    assert out["exact_macro_f1_base"]["verdict"] == "regression"
    assert out["wall_s"]["verdict"] == "gain"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
