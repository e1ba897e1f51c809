"""scripts/pipeline.sh as a job graph: failures, determinism, no stray children.

Every run is small (10 documents, one seed, 2 pre-training steps), a few
seconds each.
"""

import hashlib
import os
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

import pytest

from conftest import child_env

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "pipeline.sh"
SMALL = {"PT_DOCS": "10", "PT_SEEDS": "0", "PT_PRETRAIN_STEPS": "2", "PT_ADAPT_STEPS": "2"}
MARKER = "PIPELINE_TEST_RUN"

needs_proc = pytest.mark.skipif(
    not Path("/proc/self/environ").exists(), reason="finds children through /proc"
)


def pipeline_env(run_id: str, **overrides: str | None) -> dict[str, str]:
    # the marker is inherited by every process the script starts
    return child_env(PHENOTAG_PY=sys.executable, PHENOTAG_OUT_ROOT=None,
                     **{**SMALL, MARKER: run_id, **overrides})


def run_pipeline(out: Path, **overrides: str | None):
    """Run the script until it exits; returns its result and any stray pids.

    Output goes to files, not pipes: with pipes, waiting for their end would
    also wait for any child that outlived the script.
    """
    run_id = uuid.uuid4().hex
    logs = out.parent / f"{run_id}.stdout", out.parent / f"{run_id}.stderr"
    try:
        with open(logs[0], "w") as stdout, open(logs[1], "w") as stderr:
            code = subprocess.run(["bash", str(SCRIPT), str(out)], stdout=stdout,
                                  stderr=stderr, env=pipeline_env(run_id, **overrides),
                                  timeout=600).returncode
    finally:
        stray = processes_of(run_id)
        kill(stray)
    proc = subprocess.CompletedProcess(
        SCRIPT, code, logs[0].read_text(), logs[1].read_text())
    return proc, stray


def processes_of(run_id: str) -> list[int]:
    """Pids of live processes whose environment carries this run's marker."""
    tag = f"{MARKER}={run_id}".encode()
    found = []
    for environ in Path("/proc").glob("[0-9]*/environ"):
        try:
            if tag in environ.read_bytes().split(b"\0"):
                found.append(int(environ.parent.name))
        except OSError:  # the process ended, or is not ours to read
            pass
    return found


def kill(pids: list[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def digests(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def test_script_parses():
    subprocess.run(["bash", "-n", str(SCRIPT)], check=True)


def test_failure_in_branch_fails_the_run(tmp_path):
    proc, stray = run_pipeline(tmp_path / "out", PT_SEEDS="x")  # finetune rejects it
    assert proc.returncode != 0
    assert "pipeline complete" not in proc.stdout
    assert "failed: base expanded" in proc.stderr
    assert stray == []


def test_failure_in_side_job_fails_the_run(tmp_path):
    out = tmp_path / "out"
    (out / "coverage.tsv").mkdir(parents=True)  # coverage cannot write its table
    proc, stray = run_pipeline(out)
    assert proc.returncode != 0
    assert "pipeline complete" not in proc.stdout
    assert "failed: side" in proc.stderr
    assert not (out / "results.tsv").exists()
    assert stray == []


@needs_proc
def test_two_runs_write_identical_files_and_leave_no_children(tmp_path):
    # The script exports one BLAS thread when the caller set no count, for
    # speed; the encoder holds numpy's OpenBLAS at one thread itself, so a
    # caller's two threads write the same bytes.
    out = tmp_path / "out"
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    runs = []
    for threads in (None, "2"):
        proc, stray = run_pipeline(out, **dict.fromkeys(blas, threads))
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "pipeline complete" in proc.stdout
        assert stray == []
        runs.append(digests(out))
        for path in out.iterdir():
            path.unlink()
    assert "results.tsv" in runs[0] and "embedding_coords.csv" in runs[0]
    assert not any(name.startswith(".") for name in runs[0])  # no temp files
    assert runs[0] == runs[1]


@needs_proc
def test_failed_pretrain_stops_the_side_job(tmp_path):
    proc, stray = run_pipeline(tmp_path / "out", PT_PRETRAIN_STEPS="x")
    assert proc.returncode != 0
    assert "pipeline complete" not in proc.stdout
    assert stray == []


@needs_proc
@pytest.mark.parametrize("interrupt", [False, True], ids=["term", "interrupt"])
def test_stopped_script_stops_every_child(tmp_path, interrupt):
    # TERM goes to the script alone; an interrupt (Ctrl-C at a terminal)
    # goes to its whole process group, so the script gets its own session
    out = tmp_path / "out"
    run_id = uuid.uuid4().hex
    env = pipeline_env(run_id, PT_ADAPT_STEPS="1000000")  # would run for hours
    proc = subprocess.Popen(["bash", str(SCRIPT), str(out)], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        deadline = time.monotonic() + 120
        while not (out / "model_resized.ckpt").exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        time.sleep(0.5)  # the adaptation run is under way
        if interrupt:
            os.killpg(proc.pid, signal.SIGINT)
        else:
            proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) != 0
    finally:
        proc.kill()
        stray = processes_of(run_id)
        kill(stray)
    assert stray == []
