"""Command-line surface wiring the pipeline end to end.

One executable with subcommands: synthesize data, build vocabularies, inspect
coverage, pre-train, resize embeddings after expansion, fine-tune, predict,
score, analyze errors, aggregate runs, project embeddings, and run the
gradient check. Every command is deterministic given its flags, writes its
artifacts under --out, and echoes its resolved configuration next to them.
Every file is written whole (see atomic.py), so a failed or killed command
leaves the previous file, never a part of a new one.

A command imports only what it runs: the model commands import the encoder
inside their function, so the other commands never load it or scipy.

Flags can also come from a plain key=value file via --config; explicit flags
win. The PHENOTAG_OUT_ROOT environment variable, when set, anchors relative
output paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .atomic import atomic_write, read_lines
from .basevocab import default_vocabulary
from .corpus import (
    cohen_kappa,
    corpus_stats,
    format_stats,
    load_corpus,
    pair_documents,
    save_corpus,
    split_corpus,
    token_labels,
)
from .errors import ParseError, PhenotagError
from .evaluation import (
    MatchReport,
    aggregate_runs,
    categorize_errors,
    format_aggregate_table,
    format_error_table,
    format_match_report,
    score,
)
from .synthesis import generate_synthetic
from .tokenizer import basic_tokenize, load_vocab, save_vocab, tokenize
from .tsne import tsne
from .vocab_expand import (
    coverage,
    default_curated_words,
    expand_curated,
    expand_frequency,
    extract_candidates,
    format_coverage_table,
    load_wordlist,
)


def _out_path(raw: str) -> Path:
    path = Path(raw)
    root = os.environ.get("PHENOTAG_OUT_ROOT")
    if root and not path.is_absolute():
        path = Path(root) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_text(path: Path, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text)


def _print_table(args: argparse.Namespace, table: str) -> None:
    """Print a command's table and, given --out, write the same text there."""
    print(table, end="")
    if args.out:
        _write_text(_out_path(args.out), table)


def _echo_config(args: argparse.Namespace, out: Path) -> None:
    skip = {"func", "config", "command"}
    resolved = {k: str(v) for k, v in vars(args).items() if k not in skip}
    _write_text(
        out.parent / (out.name + ".config.json"),
        json.dumps({"command": args.command, **resolved}, indent=2, sort_keys=True)
        + "\n",
    )


def _load_vocab_arg(spec: str):
    if spec == "default":
        return default_vocabulary()
    return load_vocab(spec)


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    corpus = generate_synthetic(args.seed, args.docs)
    out = _out_path(args.out)
    if args.test_fraction == 0:
        save_corpus(corpus, out)
        print(f"wrote {len(corpus)} documents to {out}")
        return 0
    train, test = split_corpus(corpus, args.test_fraction, args.seed)
    save_corpus(corpus, out)
    save_corpus(train, out.with_suffix(".train.jsonl"))
    save_corpus(test, out.with_suffix(".test.jsonl"))
    print(f"wrote {len(corpus)} documents ({len(train)} train / {len(test)} test) to {out}")
    return 0


def cmd_stats(args) -> int:
    _print_table(args, format_stats(corpus_stats(load_corpus(args.corpus))))
    return 0


def cmd_build_vocab(args) -> int:
    base = _load_vocab_arg(args.base)
    if args.mode == "base":
        vocab = base
    elif args.mode == "freq":
        if not args.corpus:
            raise PhenotagError("--corpus is required for frequency expansion")
        corpus = load_corpus(args.corpus)
        candidates = extract_candidates(corpus, base, args.min_count)
        vocab = expand_frequency(base, candidates, args.k)
    else:  # curated
        words = (
            default_curated_words()
            if args.wordlist == "default"
            else load_wordlist(args.wordlist)
        )
        vocab = expand_curated(base, words)
    out = _out_path(args.out)
    save_vocab(vocab, out)
    print(
        f"wrote vocabulary of {len(vocab)} tokens "
        f"({len(vocab.rewritten_ids)} slots rewritten) to {out}"
    )
    return 0


def _check_new_name(seen: dict, name: str, flag: str) -> None:
    """A table column per name: a repeated one would overwrite the first."""
    if name in seen:
        raise PhenotagError(f"{flag} name {name!r} given more than once")


def cmd_coverage(args) -> int:
    corpus = load_corpus(args.corpus)
    reports = {}
    for spec in args.vocab:
        name, _, path = spec.partition("=")
        if not path:
            name, path = Path(spec).stem, spec
        _check_new_name(reports, name, "--vocab")
        reports[name] = coverage(_load_vocab_arg(path), corpus)
    _print_table(args, format_coverage_table(reports))
    return 0


def cmd_tokenize(args) -> int:
    vocab = _load_vocab_arg(args.vocab)
    texts: list[str] = []
    if args.text is not None:
        texts.append(args.text)
    if args.corpus:
        texts.extend(d.text for d in load_corpus(args.corpus))
    if not texts:
        raise PhenotagError("nothing to tokenize: pass --text or --corpus")
    lines = ["piece\tstart\tend\tword\tcontinuation"]
    for text in texts:
        tk = tokenize(text, vocab)
        for piece, (s, e), w, cont in zip(
            tk.pieces, tk.offsets, tk.word_index, tk.is_continuation
        ):
            lines.append(f"{piece}\t{s}\t{e}\t{w}\t{int(cont)}")
        lines.append("")
    _print_table(args, "\n".join(lines).rstrip("\n") + "\n")
    return 0


def _model_config(args, vocab_size: int):
    from .encoder import ModelConfig

    return ModelConfig(
        vocab_size=vocab_size,
        n_layers=args.layers,
        d_model=args.d_model,
        n_heads=args.n_heads,
        d_ff=args.d_ff,
        max_positions=args.max_positions,
        seed=args.seed,
    )


def cmd_pretrain(args) -> int:
    from .encoder import init_model, load_checkpoint, pretrain_mlm

    vocab = _load_vocab_arg(args.vocab)
    corpus = load_corpus(args.corpus)
    if args.init_from:
        ckpt = load_checkpoint(args.init_from)
    else:
        ckpt = init_model(_model_config(args, len(vocab)), vocab)
    trained, records = pretrain_mlm(
        ckpt,
        corpus,
        vocab,
        steps=args.steps,
        mask_frac=args.mask_frac,
        lr=args.lr,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    return _finish_training(
        args, trained, records, f"pre-trained {args.steps}", "steps", "masked accuracy"
    )


def _finish_training(args, trained, records, done: str, unit: str, metric: str) -> int:
    """Save a trained checkpoint and its optional trace; print one summary line."""
    from .encoder import format_trace, save_checkpoint

    out = _out_path(args.out)
    save_checkpoint(trained, out)
    if args.trace:
        _write_text(_out_path(args.trace), format_trace(records))
    summary = f"no {unit} run"
    if records:
        summary = f"loss {records[-1].loss:.4f}, {metric} {records[-1].accuracy:.3f}"
    print(f"{done} {unit} ({summary}); checkpoint at {out}")
    return 0


def cmd_resize(args) -> int:
    from .encoder import load_checkpoint, resize_for_vocab, save_checkpoint

    ckpt = load_checkpoint(args.ckpt)
    old_vocab = _load_vocab_arg(args.old_vocab)
    new_vocab = _load_vocab_arg(args.new_vocab)
    resized = resize_for_vocab(ckpt, old_vocab, new_vocab)
    out = _out_path(args.out)
    save_checkpoint(resized, out)
    changed = sum(
        1 for a, b in zip(old_vocab.tokens, new_vocab.tokens) if a != b
    )
    print(f"re-initialized {changed} embedding rows (subword-mean); wrote {out}")
    return 0


def cmd_finetune(args) -> int:
    from .encoder import FinetuneConfig, finetune_ner, load_checkpoint

    vocab = _load_vocab_arg(args.vocab)
    corpus = load_corpus(args.corpus)
    ckpt = load_checkpoint(args.ckpt)
    hyper = FinetuneConfig(
        batch_size=args.batch_size,
        epochs=args.epochs,
        lr=args.lr,
        seed=args.seed,
    )
    tuned, records = finetune_ner(ckpt, corpus, vocab, hyper)
    return _finish_training(
        args, tuned, records, f"fine-tuned {args.epochs}", "epochs", "tag accuracy"
    )


def cmd_predict(args) -> int:
    from .encoder import load_checkpoint, predict_corpus

    vocab = _load_vocab_arg(args.vocab)
    docs = load_corpus(args.corpus)
    ckpt = load_checkpoint(args.ckpt)
    predicted = predict_corpus(ckpt, docs, vocab)
    out = _out_path(args.out)
    save_corpus(predicted, out)
    n_spans = sum(len(d.entities) for d in predicted)
    print(f"predicted {n_spans} spans over {len(docs)} documents; wrote {out}")
    return 0


def cmd_evaluate(args) -> int:
    # the JSON report is written to --out with its suffix replaced by .json
    if Path(args.out).suffix == ".json":
        raise PhenotagError(f"--out {args.out}: the table and the JSON report would share it")
    gold = load_corpus(args.gold)
    pred = load_corpus(args.pred)
    report = score(gold, pred)
    _print_table(args, format_match_report(report))
    _write_text(
        _out_path(args.out).with_suffix(".json"),
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
    )
    return 0


def cmd_errors(args) -> int:
    gold = load_corpus(args.gold)
    pred = load_corpus(args.pred)
    _print_table(args, format_error_table(categorize_errors(gold, pred)))
    return 0


def cmd_aggregate(args) -> int:
    groups = {}
    for spec in args.group:
        name, _, paths = spec.partition("=")
        if not paths:
            raise PhenotagError(
                f"--group must look like NAME=report1.json,report2.json: {spec!r}"
            )
        _check_new_name(groups, name, "--group")
        reports = []
        for p in paths.split(","):
            try:
                data = json.loads(Path(p).read_text(encoding="utf-8"))
                reports.append(MatchReport.from_dict(data))
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"{p}: not a match report: {exc!r}") from None
        groups[name] = aggregate_runs(reports)
    _print_table(args, format_aggregate_table(groups))
    return 0


def cmd_tsne(args) -> int:
    import csv

    from .encoder import export_embeddings, load_checkpoint

    vocab = _load_vocab_arg(args.vocab)
    corpus = load_corpus(args.corpus)
    ckpt = load_checkpoint(args.ckpt)
    token_label: dict[str, str] = {}
    for doc in corpus:
        for span in doc.entities:
            for word, _, _ in basic_tokenize(doc.span_text(span)):
                token_label.setdefault(word, span.label.value)
    tokens = sorted(token_label)
    if len(tokens) < 4:
        raise PhenotagError("need at least 4 unique annotated tokens for t-SNE")
    matrix, labels = export_embeddings(ckpt, vocab, tokens)
    coords, kl_trace = tsne(
        matrix,
        perplexity=args.perplexity,
        iterations=args.iterations,
        seed=args.seed,
    )
    out = _out_path(args.out)
    with atomic_write(out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["token", "label", "x", "y"])
        for token, (x, y) in zip(labels, coords):
            writer.writerow([token, token_label[token], f"{x:.6f}", f"{y:.6f}"])
    print(
        f"projected {len(tokens)} tokens (KL {kl_trace[0]:.3f} -> "
        f"{kl_trace[-1]:.3f}); wrote {out}"
    )
    return 0


def _labels_from_file(path: str) -> list[str]:
    if path.endswith(".jsonl"):
        docs = sorted(load_corpus(path), key=lambda d: d.doc_id)
        out: list[str] = []
        for doc in docs:
            out.extend(token_labels(doc))
        return out
    return [line.strip() for _, line in read_lines(path) if line.strip()]


def cmd_kappa(args) -> int:
    if args.a.endswith(".jsonl") and args.b.endswith(".jsonl"):
        pairs = pair_documents(load_corpus(args.a), load_corpus(args.b))
        labels_a = [label for doc, _ in pairs for label in token_labels(doc)]
        labels_b = [label for _, doc in pairs for label in token_labels(doc)]
    else:
        labels_a, labels_b = _labels_from_file(args.a), _labels_from_file(args.b)
    kappa = cohen_kappa(labels_a, labels_b)
    print(f"kappa\t{kappa:.4f}")
    if args.out:
        _write_text(_out_path(args.out), f"kappa\t{kappa:.6f}\n")
    return 0


def cmd_gradcheck(args) -> int:
    from .encoder import grad_check
    from .encoder.gradcheck import TOLERANCE

    result = grad_check(
        _model_config(args, args.vocab_size),
        coords_per_tensor=args.coords,
        seed=args.seed,
    )
    lines = [f"max_rel_error\t{result.max_rel_error:.3e}"]
    worst = sorted(result.per_tensor.items(), key=lambda kv: -kv[1])[:5]
    lines.extend(f"{name}\t{err:.3e}" for name, err in worst)
    _print_table(args, "\n".join(lines) + "\n")
    if result.max_rel_error > TOLERANCE:
        print(
            f"error: gradient check failed ({result.max_rel_error:.3e} > "
            f"{TOLERANCE:.1e})",
            file=sys.stderr,
        )
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phenotag",
        description="Clinical phenotype NER toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic annotated corpus")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--docs", type=int, default=200)
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("build-vocab", help="write base or expanded vocabulary")
    p.add_argument("--mode", choices=("base", "freq", "curated"), required=True)
    p.add_argument("--base", default="default", help="base vocabulary file")
    p.add_argument("--corpus", help="corpus to mine candidates from (freq mode)")
    p.add_argument("--k", type=int, default=997)
    p.add_argument("--min-count", type=int, default=5)
    p.add_argument("--wordlist", default="default", help="curated wordlist file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("coverage", help="annotated-token coverage per vocabulary")
    p.add_argument("--corpus", required=True)
    p.add_argument(
        "--vocab", action="append", required=True, metavar="NAME=PATH",
        help="vocabulary to report on (repeatable)",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("tokenize", help="show subword pieces with offsets")
    p.add_argument("--vocab", default="default")
    p.add_argument("--text")
    p.add_argument("--corpus")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("pretrain", help="masked-LM pre-training")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", default="default")
    p.add_argument("--init-from", help="continue from an existing checkpoint")
    p.add_argument("--steps", type=int, default=1500)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--mask-frac", type=float, default=0.15)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--d-model", type=int, default=64)
    p.add_argument("--n-heads", type=int, default=4)
    p.add_argument("--d-ff", type=int, default=256)
    p.add_argument("--max-positions", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("resize", help="warm-start embeddings for an expanded vocabulary")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--old-vocab", required=True)
    p.add_argument("--new-vocab", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_resize)

    p = sub.add_parser("finetune", help="token-classification fine-tuning")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", default="default")
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=4e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("predict", help="predict entity spans for a corpus")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--vocab", default="default")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="entity-level scoring of predictions")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("errors", help="error-category breakdown")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_errors)

    p = sub.add_parser("aggregate", help="aggregate repeated runs with CIs")
    p.add_argument(
        "--group", action="append", required=True, metavar="NAME=r1.json,r2.json",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("tsne", help="2-D projection of annotated-token embeddings")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--vocab", default="default")
    p.add_argument("--corpus", required=True)
    p.add_argument("--perplexity", type=float, default=10.0)
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tsne)

    p = sub.add_parser("kappa", help="inter-annotator agreement")
    p.add_argument("--a", required=True, help="label file or .jsonl corpus")
    p.add_argument("--b", required=True, help="label file or .jsonl corpus")
    p.add_argument("--out")
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("gradcheck", help="finite-difference gradient validation")
    p.add_argument("--vocab-size", type=int, default=32)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--d-model", type=int, default=16)
    p.add_argument("--n-heads", type=int, default=2)
    p.add_argument("--d-ff", type=int, default=32)
    p.add_argument("--max-positions", type=int, default=12)
    p.add_argument("--coords", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Expand --config FILE's key=value lines into --key value flags placed
    before explicit ones."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise PhenotagError("--config requires a file path")
    config_path = argv[i + 1]
    rest = argv[:i] + argv[i + 2 :]
    if not rest:
        raise PhenotagError("--config needs a command to apply to")
    injected: list[str] = []
    for _, raw in read_lines(config_path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise PhenotagError(f"{config_path}: malformed line {line!r}")
        injected.extend([f"--{key.strip()}", value.strip()])
    # command first, then file-provided flags, then explicit flags (which win)
    return rest[:1] + injected + rest[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
        code = args.func(args)
        if args.out:
            _echo_config(args, _out_path(args.out))
        return code
    except (PhenotagError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
