"""The three workloads: pipeline-cli, train and infer-mixed.

Each is a closed loop with one client: an iteration starts when the previous
one has finished, and iterations continue while the next one is expected to
end inside the measuring window (at least ``min_iterations`` always run).
Inputs come only from the workload seed. Every call into phenotag goes
through a module attribute (``enc.pretrain_mlm``, ``pt.score``, ...), so the
tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import phenotag as pt
from phenotag import encoder as enc

import tracing
from metrics import END_TO_END, Metric, layer_metrics, median

now = time.perf_counter
BENCH_DIR = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, tests shrink them."""

    # 250 docs split 200/50: one base+expanded training pass takes ~12 s on a
    # 2-vCPU VM, so a run of ~30 s holds the pass and the repeat that checks it
    corpus_docs: int = 250
    test_fraction: float = 0.2  # the --test-fraction default of the CLI's split
    pretrain_steps: int = 40
    adapt_steps: int = 10
    # a second epoch lifted the held-out macro-F1 from ~0.55 to ~0.75 over
    # 5 seeds and narrowed its range; a third would cost another ~5 s a pass
    finetune_epochs: int = 2
    infer_docs: int = 800  # a pass of ~5 s spans several of a shared machine's speed swings
    tsne_iterations: int = 1000
    setup_repeats: int = 20
    # 18 CLI start-ups take ~22 s of the pipeline's ~39 s. Below 80 docs its
    # fine-tuning (10 epochs, the command's default) is too short to converge:
    # on 40 docs the base macro-F1 fell to ~0.33 and spread 0.33 across seeds
    pipeline_docs: int = 80
    pipeline_pretrain_steps: int = 40
    pipeline_adapt_steps: int = 10
    cli_warmups: int = 3


PRETRAIN_BATCH = 16  # pretrain_mlm's and the pretrain command's default
MAX_LEN = 128  # max_positions and the fine-tuning max_len default
CLI_FINETUNE_EPOCHS = 10  # the finetune command's default


class Recorder:
    """Samples, operation counts and, for a traced run, the tracer."""

    def __init__(self, traced: bool):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer = tracing.Tracer() if traced else None
        self.invocations: list[dict] = []  # traced CLI records
        self.extra_spans: list[tracing.Span] = []

    def add(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def op(self, count: int = 1) -> None:
        self.attempted += count

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    @contextmanager
    def tracing(self, on: bool):
        """Wrap phenotag's functions for the duration, if this run traces."""
        if not on or self.tracer is None:
            yield
            return
        uninstall = tracing.install(self.tracer, tracing.TARGETS)
        try:
            yield
        finally:
            uninstall()

    def spans(self) -> list[tracing.Span]:
        own = self.tracer.spans if self.tracer is not None else []
        return merge_spans([own, self.extra_spans])


def merge_spans(groups: list[list[tracing.Span]]) -> list[tracing.Span]:
    out: list[tracing.Span] = []
    for group in groups:
        offset = len(out)
        for s in group:
            parent = None if s.parent is None else s.parent + offset
            out.append(tracing.Span(s.name, s.start, s.end, parent, s.counts))
    return out


def closed_loop(
    rec: Recorder, seconds: float, min_iterations: int, body: Callable[[int], float]
) -> int:
    """Run ``body(i)`` (returns its duration) for the measuring window.

    An iteration that raises counts as one failed operation and ends the loop.
    """
    start = now()
    last = 0.0
    i = 0
    while i < min_iterations or (now() - start) + last <= seconds:
        try:
            last = body(i)
        except Exception:  # the loop is the boundary that reports failures
            rec.attempted += 1
            rec.failed += 1
            rec.problems.append(traceback.format_exc())
            break
        i += 1
    return i


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def peak_rss_mb(rusage_who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(rusage_who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# shared pieces: inputs, token counts, output checks


@dataclass
class Inputs:
    seed: int
    train: list
    test: list
    base: object
    expanded: object
    infer: list = field(default_factory=list)


def mix_sentences(docs: list) -> list:
    """Every other document gets "; " for ". ", merging its sentences.

    The substitution keeps the text length, so gold offsets still hold.
    """
    return [
        pt.Document(d.doc_id, d.text.replace(". ", "; "), list(d.entities))
        if i % 2 == 0
        else d
        for i, d in enumerate(docs)
    ]


def make_inputs(seed: int, sizes: Sizes, infer: bool) -> Inputs:
    docs = pt.generate_synthetic(seed, sizes.corpus_docs)
    train, test = pt.split_corpus(docs, sizes.test_fraction, seed)
    base = pt.default_vocabulary()
    expanded = pt.expand_frequency(base, pt.extract_candidates(train, base), 997)
    pt.coverage(base, docs)
    pt.coverage(expanded, docs)
    inputs = Inputs(seed, train, test, base, expanded)
    if infer:
        inputs.infer = mix_sentences(pt.generate_synthetic(seed + 1, sizes.infer_docs))
    return inputs


def sentence_lengths(docs, vocab) -> list[int]:
    """[CLS] + pieces + [SEP] per non-empty sentence, truncated as training does."""
    out = []
    for doc in docs:
        for sent, _ in pt.split_sentences(doc.text):
            n = len(pt.tokenize(sent, vocab))
            if n:
                out.append(min(n, MAX_LEN - 2) + 2)
    return out


def training_tokens(
    docs, base, expanded, pretrain_steps: int, adapt_steps: int, epochs: int
) -> float:
    """Real (non-pad) tokens one base+expanded training pass feeds the encoder.

    Fine-tuning sees every sentence once per epoch. Pre-training samples
    ``PRETRAIN_BATCH`` sentences per step, so its count is the expected one.
    The number depends only on the inputs, never on the implementation.
    """
    lb = sentence_lengths(docs, base)
    le = sentence_lengths(docs, expanded)
    mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
    return (
        PRETRAIN_BATCH * (pretrain_steps * mean(lb) + adapt_steps * mean(le))
        + epochs * (sum(lb) + sum(le))
    )


def spans_valid(pred_docs, gold_docs) -> bool:
    labels = set(pt.LABELS)
    for pred, gold in zip(pred_docs, gold_docs):
        if pred.doc_id != gold.doc_id or pred.text != gold.text:
            return False
        for s in pred.entities:
            if not (0 <= s.start_char < s.end_char <= len(pred.text)) or s.label not in labels:
                return False
    return len(pred_docs) == len(gold_docs)


def prediction_digest(pred_docs) -> str:
    h = hashlib.sha256()
    for d in pred_docs:
        for s in d.entities:
            h.update(f"{d.doc_id}\t{s.start_char}\t{s.end_char}\t{s.label.value}\n".encode())
    return h.hexdigest()


def annotated_tokens(docs) -> list[str]:
    """Unique words inside gold spans, as the tsne command collects them."""
    seen: dict[str, None] = {}
    for doc in docs:
        for span in doc.entities:
            for word, _, _ in pt.basic_tokenize(doc.span_text(span)):
                seen.setdefault(word, None)
    return sorted(seen)


def run_setup(rec: Recorder, seed: int, sizes: Sizes, infer: bool) -> Inputs:
    """Build the inputs ``setup_repeats`` times; the last one is traced."""
    inputs = None
    for r in range(sizes.setup_repeats):
        traced = r == sizes.setup_repeats - 1
        with rec.tracing(traced):
            t = now()
            inputs = make_inputs(seed, sizes, infer)
            if not traced or rec.tracer is None:
                rec.add("setup_s", now() - t)
    return inputs


# ---------------------------------------------------------------------------
# train: the paper's experiment, in process


@dataclass
class Trained:
    models: dict
    digests: dict
    train_s: float


def train_models(
    inputs: Inputs, sizes: Sizes, workdir: Path, rec: Recorder,
    evaluate: Callable[[str, object], None] | None = None,
) -> Trained:
    """Pretrain -> resize -> adapt -> fine-tune, for both vocabularies.

    ``evaluate(name, model)`` runs right after each fine-tuning, so the two
    evaluations of an iteration fall at different moments of the run.
    """
    seed = inputs.seed
    records = []
    train_s = 0.0
    rec.op(4)  # init, pretrain, resize, adapt
    ckpt = enc.init_model(enc.ModelConfig(vocab_size=len(inputs.base), seed=seed), inputs.base)
    t = now()
    pre, trace = enc.pretrain_mlm(ckpt, inputs.train, inputs.base, steps=sizes.pretrain_steps, seed=seed)
    train_s += now() - t
    records += trace
    resized = enc.resize_for_vocab(pre, inputs.base, inputs.expanded)
    t = now()
    adapted, trace = enc.pretrain_mlm(
        resized, inputs.train, inputs.expanded, steps=sizes.adapt_steps, seed=seed
    )
    train_s += now() - t
    records += trace
    models, digests = {}, {}
    for name, start, vocab in (("base", pre, inputs.base), ("expanded", adapted, inputs.expanded)):
        rec.op(3)  # fine-tune, save, load
        t = now()
        tuned, trace = enc.finetune_ner(
            start, inputs.train, vocab, enc.FinetuneConfig(epochs=sizes.finetune_epochs, seed=seed)
        )
        train_s += now() - t
        records += trace
        path = workdir / f"ner_{name}.ckpt"
        enc.save_checkpoint(tuned, path)
        digests[name] = sha256_file(path)
        models[name] = enc.load_checkpoint(path)
        if evaluate is not None:
            evaluate(name, models[name])
    rec.check(all(math.isfinite(r.loss) for r in records), "non-finite training loss")
    return Trained(models, digests, train_s)


def vocab_of(inputs: Inputs, name: str):
    return inputs.base if name == "base" else inputs.expanded


def held_out_evaluator(inputs: Inputs, rec: Recorder, outcome: dict):
    """``evaluate`` for train_models: exact macro-F1 on the held-out split.

    predict_corpus gets the whole split in one call, as the predict command
    gives it the whole corpus.
    """

    def evaluate(name: str, model) -> None:
        rec.op()
        preds = enc.predict_corpus(model, inputs.test, vocab_of(inputs, name))
        rec.check(spans_valid(preds, inputs.test), f"invalid span ({name})")
        rec.op()
        outcome[name] = pt.score(inputs.test, preds).exact.macro_f1

    return evaluate


def run_train(ctx: "Context") -> Recorder:
    rec = Recorder(ctx.trace)
    sizes = ctx.sizes
    inputs = run_setup(rec, ctx.seed, sizes, infer=False)
    tokens = training_tokens(
        inputs.train, inputs.base, inputs.expanded,
        sizes.pretrain_steps, sizes.adapt_steps, sizes.finetune_epochs,
    )
    first: dict = {}

    def iteration(i: int) -> float:
        traced = ctx.trace and i == 1
        outcome = {}
        evaluate = held_out_evaluator(inputs, rec, outcome)
        with rec.tracing(traced):
            t0 = now()
            trained = train_models(inputs, sizes, ctx.workdir, rec, evaluate)
            wall = now() - t0
        outcome["digests"] = trained.digests
        if not first:
            first.update(outcome)
        rec.check(outcome == first, f"iteration {i} differs from iteration 0: {outcome} != {first}")
        ctx.note_wall(rec, wall, traced)
        if not traced:
            rec.add("train_tokens_per_s", tokens / trained.train_s)
            rec.add("exact_macro_f1_base", outcome["base"])
            rec.add("exact_macro_f1_expanded", outcome["expanded"])
        return wall

    closed_loop(rec, ctx.seconds, ctx.min_iterations(2), iteration)
    return rec


# ---------------------------------------------------------------------------
# infer-mixed: forward-only prediction over long merged sentences


def run_infer(ctx: "Context") -> Recorder:
    rec = Recorder(ctx.trace)
    sizes = ctx.sizes
    inputs = run_setup(rec, ctx.seed, sizes, infer=True)
    tokens = training_tokens(
        inputs.train, inputs.base, inputs.expanded,
        sizes.pretrain_steps, sizes.adapt_steps, sizes.finetune_epochs,
    )
    held_out: dict = {}
    with rec.tracing(True):
        trained = train_models(
            inputs, sizes, ctx.workdir, rec,
            held_out_evaluator(inputs, rec, held_out),
        )
    rec.add("train_tokens_per_s", tokens / trained.train_s)
    # The paper's result, as on train. F1 on the merged-sentence corpus is only
    # checked to repeat across passes: the models are trained on far shorter
    # sentences, so it swings with the seed (0.55-0.69) more than any bound allows.
    rec.add("exact_macro_f1_base", held_out["base"])
    rec.add("exact_macro_f1_expanded", held_out["expanded"])
    words = annotated_tokens(inputs.infer)
    first: dict = {}

    def iteration(i: int) -> float:
        traced = ctx.trace and i == 1
        with rec.tracing(traced):
            t0 = now()
            outcome = {}
            for name, model in trained.models.items():
                rec.op(3)  # predict, score, categorize
                # the whole corpus in one call, as the predict command makes it
                preds = enc.predict_corpus(model, inputs.infer, vocab_of(inputs, name))
                rec.check(spans_valid(preds, inputs.infer), f"invalid span ({name})")
                outcome[name] = pt.score(inputs.infer, preds).exact.macro_f1
                pt.categorize_errors(inputs.infer, preds)
                outcome[name + ".digest"] = prediction_digest(preds)
            rec.op(2)
            matrix, _ = enc.export_embeddings(trained.models["expanded"], inputs.expanded, words)
            coords, _ = pt.tsne(matrix, iterations=sizes.tsne_iterations, seed=0)
            wall = now() - t0
        rec.check(
            coords.shape == (len(words), 2) and bool((abs(coords) < float("inf")).all()),
            "t-SNE coordinates are not finite",
        )
        if not first:
            first.update(outcome)
        rec.check(outcome == first, f"pass {i} differs from pass 0")
        ctx.note_wall(rec, wall, traced)
        return wall

    closed_loop(rec, ctx.seconds, ctx.min_iterations(2), iteration)
    return rec


# ---------------------------------------------------------------------------
# pipeline-cli: scripts/pipeline.sh at a reduced setting, one process per command


def run_process(cmd: list[str], env: dict, log: Path, timeout: float) -> int:
    """Run a command in its own session; kill the whole group on timeout."""
    with open(log, "ab") as fh:
        proc = subprocess.Popen(
            cmd, env=env, stdout=fh, stderr=subprocess.STDOUT, start_new_session=True
        )
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return -signal.SIGKILL


# synth, stats, 3x build-vocab, coverage, pretrain, resize, adapt, aggregate,
# errors, tsne, plus finetune/predict/evaluate per vocabulary for one seed
PIPELINE_INVOCATIONS = 18


def check_results_table(path: Path) -> bool:
    lines = [l for l in path.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    if not lines or lines[0].split("\t") != ["entity_type", "base", "expanded"]:
        return False
    names = [l.split("\t")[0] for l in lines[1:]]
    rows_ok = all(len(l.split("\t")) == 3 for l in lines[1:])
    return rows_ok and names == [l.value for l in pt.LABELS] + ["Macro average", "Micro average"]


def run_pipeline(ctx: "Context") -> Recorder:
    rec = Recorder(ctx.trace)
    sizes = ctx.sizes
    root = ctx.root
    shim = BENCH_DIR / "cli_shim.py"
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(root / "src"),
        PHENOTAG_PY=f"{sys.executable} {shim}",
        PT_DOCS=str(sizes.pipeline_docs),
        PT_PRETRAIN_STEPS=str(sizes.pipeline_pretrain_steps),
        PT_ADAPT_STEPS=str(sizes.pipeline_adapt_steps),
        PT_SEEDS=str(ctx.seed),  # the fine-tuning seed
        PHENOBENCH_ROOT=str(root),
    )
    env.pop("PHENOTAG_OUT_ROOT", None)
    log = ctx.workdir / "pipeline.log"

    def records_dir(tag: str) -> Path:
        path = ctx.workdir / tag
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    warm = records_dir("warmup")
    for _ in range(sizes.cli_warmups):
        t = now()
        code = run_process(
            [sys.executable, str(shim), "-m", "phenotag", "--version"],
            {**env, "PHENOBENCH_RECORDS": str(warm), "PHENOBENCH_TRACE": "0"}, log, 120,
        )
        rec.add("setup_s", now() - t)
        rec.check(code == 0, "phenotag --version failed")
    rss = [peak_rss_mb(resource.RUSAGE_CHILDREN)]

    def iteration(i: int) -> float:
        traced = ctx.trace and i == 1
        records = records_dir(f"records-{i}")
        out = records_dir(f"out-{i}")
        run_env = {**env, "PHENOBENCH_RECORDS": str(records), "PHENOBENCH_TRACE": str(int(traced))}
        t = now()
        code = run_process(["bash", str(root / "scripts" / "pipeline.sh"), str(out)], run_env, log, 170)
        wall = now() - t
        path = records / "invocations.jsonl"
        invs = [json.loads(l) for l in path.read_text().splitlines()] if path.exists() else []
        rec.op(PIPELINE_INVOCATIONS)
        rec.failed += sum(1 for r in invs if r["code"] != 0)
        rec.failed += max(0, PIPELINE_INVOCATIONS - len(invs))
        rec.check(code == 0, f"pipeline.sh exited with {code}")
        if code != 0:  # the work directory goes when the run ends: keep the log's tail
            rec.problems.extend(log.read_text(errors="replace").splitlines()[-20:])
            return wall
        rss.extend(r["maxrss_kb"] / 1024.0 for r in invs)
        rec.check(check_results_table(out / "results.tsv"), "results.tsv malformed")
        corpus = pt.load_corpus(out / "corpus.jsonl")
        coords = (out / "embedding_coords.csv").read_text().splitlines()[1:]
        rec.check(len(coords) == len(annotated_tokens(corpus)), "embedding_coords.csv rows")
        ctx.note_wall(rec, wall, traced)
        if traced:
            rec.invocations.extend(invs)
            rec.extra_spans = merge_spans(
                [tracing.load(records / r["spans"]) for r in invs if "spans" in r]
            )
            return wall
        train = pt.load_corpus(out / "corpus.train.jsonl")
        base = pt.load_vocab(out / "vocab_base.txt")
        freq = pt.load_vocab(out / "vocab_freq.txt")
        tokens = training_tokens(
            train, base, freq, sizes.pipeline_pretrain_steps, sizes.pipeline_adapt_steps,
            CLI_FINETUNE_EPOCHS,
        )
        training_s = 0.0
        for r in invs:
            if r["command"] in ("pretrain", "finetune"):
                training_s += r["command_s"]  # after the imports
        rec.add("train_tokens_per_s", tokens / training_s)
        for name in ("base", "expanded"):
            report = json.loads((out / f"report_{name}_{ctx.seed}.json").read_text())
            rec.add(f"exact_macro_f1_{name}", pt.MatchReport.from_dict(report).exact.macro_f1)
        return wall

    closed_loop(rec, ctx.seconds, ctx.min_iterations(1), iteration)
    rec.add("peak_rss_mb", max(rss))
    return rec


# ---------------------------------------------------------------------------


@dataclass
class Context:
    root: Path
    workdir: Path
    seed: int
    seconds: float
    trace: bool
    sizes: Sizes = Sizes()
    walls: dict = field(default_factory=lambda: {"traced": [], "untraced": []})

    def min_iterations(self, untraced: int) -> int:
        """A traced run traces iteration 1 and sets it against the untraced ones."""
        return 2 if self.trace else untraced

    def note_wall(self, rec: Recorder, wall: float, traced: bool) -> None:
        self.walls["traced" if traced else "untraced"].append(wall)
        if not traced:
            rec.add("wall_s", wall)


WORKLOADS: dict[str, Callable[[Context], Recorder]] = {
    "pipeline-cli": run_pipeline,
    "train": run_train,
    "infer-mixed": run_infer,
}


def end_to_end(rec: Recorder) -> dict[str, Metric]:
    out = {}
    for name, unit in END_TO_END:
        values = rec.samples.get(name)
        if name == "peak_rss_mb" and not values:
            values = [peak_rss_mb()]
        if values:
            out[name] = Metric(median(values), unit, len(values))
    return out


def per_layer(rec: Recorder, ctx: Context) -> dict[str, Metric]:
    out = layer_metrics(rec.spans(), rec.invocations)
    traced, untraced = ctx.walls["traced"], ctx.walls["untraced"]
    if traced and untraced:
        base = median(untraced)
        over = median(traced) - base
        out["bench.trace_overhead_s"] = Metric(over, "s", len(traced) + len(untraced))
        out["bench.trace_overhead_share"] = Metric(over / base, "share", len(traced) + len(untraced))
    return out
