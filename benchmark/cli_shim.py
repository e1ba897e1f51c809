"""Stand-in for the python executable under scripts/pipeline.sh.

pipeline.sh runs ``$PHENOTAG_PY -m phenotag <command> ...``; the benchmark
sets PHENOTAG_PY to ``<python> cli_shim.py`` so that each invocation records
its own timings: ``total_s`` from the start of this file (the interpreter
is already up) to the command's exit, ``import_s`` for ``phenotag.cli``'s
import, and ``command_s`` from after the imports to the command's exit.
With PHENOBENCH_TRACE=1 the shim also wraps phenotag's public functions and
the CLI command functions, and writes the spans next to the invocation
record.

Environment: PHENOBENCH_ROOT (checkout root), PHENOBENCH_RECORDS (directory
for records), PHENOBENCH_TRACE (0 or 1).
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _exit_code(exc: SystemExit) -> int:
    if exc.code is None:
        return 0
    return exc.code if isinstance(exc.code, int) else 1


def main() -> int:
    argv = sys.argv[1:]
    if argv[:2] != ["-m", "phenotag"]:
        print("cli_shim: expected '-m phenotag <command> ...'", file=sys.stderr)
        return 2
    args = argv[2:]
    root = Path(os.environ["PHENOBENCH_ROOT"])
    records = Path(os.environ["PHENOBENCH_RECORDS"])
    traced = os.environ.get("PHENOBENCH_TRACE") == "1"
    record: dict = {"command": args[0] if args else "", "code": 1}
    tracer = None
    try:
        t_import = time.perf_counter()
        import phenotag.cli  # noqa: F401

        record["import_s"] = time.perf_counter() - t_import
        if not Path(phenotag.__file__).resolve().is_relative_to(root / "src"):
            print(f"cli_shim: phenotag imported from {phenotag.__file__}", file=sys.stderr)
            record["code"] = 2
            return 2
        if traced:
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer, tracing.TARGETS + tracing.CLI_TARGETS)
        sys.argv = [sys.argv[0], *args]
        t_main = time.perf_counter()
        try:
            runpy.run_module("phenotag", run_name="__main__", alter_sys=True)
            record["code"] = 0
        except SystemExit as exc:
            record["code"] = _exit_code(exc)
        record["command_s"] = time.perf_counter() - t_main
        if tracer is not None:
            dispatch = [s.start for s in tracer.spans if s.name.startswith("cli.cmd.")]
            parse_s = (dispatch[0] if dispatch else time.perf_counter()) - t_main
            record["startup_s"] = record["import_s"] + parse_s
        return record["code"]
    finally:
        record["total_s"] = time.perf_counter() - T0
        record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            spans_file = records / f"spans-{os.getpid()}-{time.time_ns()}.json"
            tracing.dump(tracer.spans, spans_file)
            record["spans"] = spans_file.name
        with open(records / "invocations.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    sys.exit(main())
