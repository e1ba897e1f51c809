"""Run one phenotag benchmark workload and print its metrics.

Usage (from the root of a checkout):

    python3 benchmark/run.py --workload {pipeline-cli,train,infer-mixed} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports per-layer metrics from spans recorded around calls into each
phenotag module, plus the tracing overhead. The run imports this checkout's
``src/phenotag`` and nothing else. It prints a table (metric, value, unit,
sample count), then one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``. A full report, spans included, is written under
``.phenobench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"  # pinned for every workload and recorded; 1 <= nproc anywhere
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("pipeline-cli", "train", "infer-mixed")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def commit_hash(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_info(root: Path) -> dict:
    import numpy
    import scipy

    import phenotag

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "commit": commit_hash(root),
        "phenotag": phenotag.__file__,
    }


def main(argv: list[str] | None = None, sizes=None) -> int:
    """Run one workload; ``sizes`` (a ``workloads.Sizes``) shrinks it for tests."""
    args = parse_args(argv)
    if not (ROOT / "src" / "phenotag" / "__init__.py").is_file():
        print(f"error: no phenotag source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads, so the pin applies here too
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))

    import phenotag

    if not Path(phenotag.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: phenotag imported from {phenotag.__file__}", file=sys.stderr)
        return 2

    import workloads
    from metrics import PER_LAYER

    machine = machine_info(ROOT)
    out_dir = ROOT / ".phenobench"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = workloads.Context(
        root=ROOT, workdir=workdir, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), sizes=sizes or workloads.Sizes(),
    )
    started = time.perf_counter()
    try:
        rec = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        metrics = workloads.per_layer(rec, ctx)
        wanted = [name for name, _ in PER_LAYER]
    else:
        metrics = workloads.end_to_end(rec)
        wanted = [name for name, _ in workloads.END_TO_END]

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_s": time.perf_counter() - started,
        "machine": machine,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "problems": rec.problems,
        "iteration_walls": ctx.walls,
        "samples": rec.samples,
        "metrics": {k: vars(v) for k, v in metrics.items()},
        "spans": [[s.name, s.start, s.end, s.parent, s.counts] for s in rec.spans()],
    }
    report_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    failed_share = rec.failed / rec.attempted if rec.attempted else 1.0
    print(f"{'failed_share':40s} {failed_share:14.6g} {'share':10s} n={rec.attempted}")
    for name in wanted:
        if name in metrics:
            m = metrics[name]
            print(f"{name:40s} {m.value:14.6g} {m.unit:10s} n={m.n}")
    for problem in rec.problems:
        print("problem: " + problem, file=sys.stderr)
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"error: no samples for {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": rec.failed == 0 and rec.attempted > 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            name: {"value": metrics[name].value, "unit": metrics[name].unit}
            for name in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
