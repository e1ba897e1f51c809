import csv
import hashlib
import importlib
import itertools
import json
import subprocess
import sys

import pytest

from conftest import child_env, with_removed_settings
from phenotag.cli import main
from phenotag.corpus import Document, EntityLabel, EntitySpan, load_corpus, save_corpus
from phenotag.errors import ConfigurationError
from phenotag.tokenizer import load_vocab


def run(*argv):
    return main(list(argv))


def write_report(path, labels, count=1):
    """A match report file as evaluate writes it, the same counts per label."""
    counts = {label: [count, 0, 1] for label in labels}
    path.write_text(json.dumps({"labels": labels, "exact": counts, "lenient": counts}),
                    encoding="utf-8")
    return path


ALL_LABELS = [label.value for label in EntityLabel]


def edited_predictions(docs, first):
    """``docs`` with four errors made from document ``first`` on: drop one
    span, shift one end boundary, relabel one span, add one span."""
    out = [Document(d.doc_id, d.text, list(d.entities)) for d in docs]
    dropped, shifted, relabeled, added = out[first:first + 4]
    del dropped.entities[0]
    s = shifted.entities[0]
    shifted.entities[0] = EntitySpan(s.start_char, s.end_char - 1, s.label)
    s = relabeled.entities[0]
    labels = list(EntityLabel)
    relabeled.entities[0] = EntitySpan(
        s.start_char, s.end_char, labels[(labels.index(s.label) + 1) % len(labels)])
    added.entities.insert(0, EntitySpan(0, 3, labels[0]))
    return out


class TestSynth:
    def test_deterministic_byte_identical(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert run("synth", "--seed", "1", "--docs", "30", "--out", str(a)) == 0
        assert run("synth", "--seed", "1", "--docs", "30", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_split_files_written(self, tmp_path):
        out = tmp_path / "corpus.jsonl"
        run("synth", "--seed", "2", "--docs", "10", "--out", str(out))
        train = load_corpus(tmp_path / "corpus.train.jsonl")
        test = load_corpus(tmp_path / "corpus.test.jsonl")
        assert len(train) == 8 and len(test) == 2

    def test_config_echoed(self, tmp_path):
        out = tmp_path / "corpus.jsonl"
        run("synth", "--seed", "1", "--docs", "5", "--out", str(out))
        echo = json.loads((tmp_path / "corpus.jsonl.config.json").read_text())
        assert echo["command"] == "synth"
        assert echo["seed"] == "1"


class TestBuildVocabAndCoverage:
    def test_base_freq_curated(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        run("synth", "--seed", "1", "--docs", "40", "--test-fraction", "0",
            "--out", str(corpus))
        base = tmp_path / "base.txt"
        freq = tmp_path / "freq.txt"
        cur = tmp_path / "cur.txt"
        assert run("build-vocab", "--mode", "base", "--out", str(base)) == 0
        assert run("build-vocab", "--mode", "freq", "--corpus", str(corpus),
                   "--base", str(base), "--min-count", "2", "--out", str(freq)) == 0
        assert run("build-vocab", "--mode", "curated", "--base", str(base),
                   "--out", str(cur)) == 0
        vb, vf, vc = load_vocab(base), load_vocab(freq), load_vocab(cur)
        assert len(vb) == len(vf) == len(vc)
        assert "her2" not in vb and "her2" in vc
        assert run("coverage", "--corpus", str(corpus),
                   "--vocab", f"orig={base}", "--vocab", f"freq={freq}",
                   "--vocab", f"cur={cur}", "--out", str(tmp_path / "cov.tsv")) == 0
        table = (tmp_path / "cov.tsv").read_text()
        assert table.splitlines()[0].startswith("entity_type")
        assert "Total" in table

    def test_inputs_not_mutated(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        run("synth", "--seed", "3", "--docs", "10", "--test-fraction", "0",
            "--out", str(corpus))
        before = corpus.read_bytes()
        run("build-vocab", "--mode", "freq", "--corpus", str(corpus),
            "--min-count", "2", "--out", str(tmp_path / "v.txt"))
        assert corpus.read_bytes() == before


class TestEvaluateAndErrors:
    def test_self_evaluation_perfect(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        run("synth", "--seed", "4", "--docs", "10", "--test-fraction", "0",
            "--out", str(corpus))
        out = tmp_path / "report.tsv"
        assert run("evaluate", "--gold", str(corpus), "--pred", str(corpus),
                   "--out", str(out)) == 0
        text = out.read_text()
        assert "1.000 (1.000)" in text
        payload = json.loads(out.with_suffix(".json").read_text())
        assert "exact" in payload and "lenient" in payload
        table = capsys.readouterr().out
        assert "Micro average" in table

    def test_aggregate_table_shows_the_reports_labels(self, tmp_path, capsys):
        report = write_report(tmp_path / "r.json", ["TumorSize"])
        assert run("aggregate", "--group", f"g={report},{report}",
                   "--out", str(tmp_path / "a.tsv")) == 0
        rows = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()]
        assert rows[:4] == ["entity_type", "TumorSize", "Macro average", "Micro average"]

    def test_report_bytes_are_pinned(self, tmp_path):
        # pins taken from the scorer before it became a sum of per-document
        # counts: a refactor of the scorer must leave these files unchanged
        gold = tmp_path / "gold.jsonl"
        run("synth", "--seed", "4", "--docs", "10", "--test-fraction", "0",
            "--out", str(gold))
        reports = []
        for first in (0, 4):
            pred = tmp_path / f"pred{first}.jsonl"
            save_corpus(edited_predictions(load_corpus(gold), first), pred)
            assert run("evaluate", "--gold", str(gold), "--pred", str(pred),
                       "--out", str(tmp_path / f"r{first}.tsv")) == 0
            reports.append(tmp_path / f"r{first}.json")
        assert run("aggregate", "--group", f"a={reports[0]},{reports[1]}",
                   "--group", f"b={reports[1]}", "--out", str(tmp_path / "agg.tsv")) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("r0.tsv", "r0.json", "r4.json", "agg.tsv")}
        assert digests == {
            "r0.tsv": "c22e994f3958f5fb7f0de3f46dfefed94ecaf63018b52263c79457f559018606",
            "r0.json": "8f64f9648561cb85ed9a1ff9423913b409847aadf8fe5ecd0d5df8c7888281f9",
            "r4.json": "1e6b99ac54eacbe0fe495274732335eed8fcc6dc5727bb37a570d9d368c5c528",
            "agg.tsv": "8ee1ed53c8a912de76b458b81ddd0c3667fee19a30b933aeb31d0f10f9692b71",
        }

    def test_out_path_that_is_the_json_report_is_one_line_error(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        run("synth", "--seed", "4", "--docs", "4", "--test-fraction", "0",
            "--out", str(corpus))
        capsys.readouterr()
        out = tmp_path / "r.json"
        assert run("evaluate", "--gold", str(corpus), "--pred", str(corpus),
                   "--out", str(out)) == 1
        assert "--out" in one_line_error(capsys)
        assert not out.exists()

    def test_errors_command(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        run("synth", "--seed", "4", "--docs", "6", "--test-fraction", "0",
            "--out", str(corpus))
        out = tmp_path / "errors.tsv"
        assert run("errors", "--gold", str(corpus), "--pred", str(corpus),
                   "--out", str(out)) == 0
        assert "boundary_mismatch\t0" in out.read_text()


class TestKappa:
    def test_identical_corpora(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        run("synth", "--seed", "5", "--docs", "6", "--test-fraction", "0",
            "--out", str(corpus))
        assert run("kappa", "--a", str(corpus), "--b", str(corpus)) == 0
        assert "kappa\t1.0000" in capsys.readouterr().out

    def test_label_files(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("X\nX\nY\nY\n")
        b.write_text("X\nY\nY\nY\n")
        assert run("kappa", "--a", str(a), "--b", str(b)) == 0
        assert "kappa\t0.5000" in capsys.readouterr().out


ER = EntityLabel.HORMONE_RECEPTOR_TYPE


class TestDocumentPairing:
    """evaluate, errors and kappa score two annotations of one set of
    documents; anything else is a one-line error, not a silent score."""

    @pytest.mark.parametrize("command", ["evaluate", "errors"])
    def test_repeated_doc_id_is_one_line_error(self, tmp_path, capsys, command):
        # the second gold d1 and its her2 span were never scored
        gold, pred, out = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl", tmp_path / "r.tsv"
        save_corpus([Document("d1", "er positive", [EntitySpan(0, 2, ER)]),
                     Document("d1", "her2 negative", [EntitySpan(0, 4, ER)])], gold)
        save_corpus([Document("d1", "er positive", [EntitySpan(0, 2, ER)])], pred)
        assert run(command, "--gold", str(gold), "--pred", str(pred), "--out", str(out)) == 1
        assert "doc_id 'd1' occurs more than once" in one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "errors"])
    def test_other_text_under_one_doc_id_is_one_line_error(self, tmp_path, capsys,
                                                           command):
        gold, pred, out = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl", tmp_path / "r.tsv"
        save_corpus([Document("d1", "er positive", [EntitySpan(0, 2, ER)])], gold)
        save_corpus([Document("d1", "pr negative", [EntitySpan(0, 2, ER)])], pred)
        assert run(command, "--gold", str(gold), "--pred", str(pred), "--out", str(out)) == 1
        assert "doc 'd1': the two texts differ" in one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("docs_b, message", [
        ([Document("d2", "left breast", [])], r"doc_id mismatch: ['d1', 'd2']"),
        ([Document("d1", "left breast", [])], "doc 'd1': the two texts differ"),
    ], ids=["other-ids", "other-text"])
    def test_kappa_on_other_documents_is_one_line_error(self, tmp_path, capsys, docs_b,
                                                        message):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_corpus([Document("d1", "er positive", [EntitySpan(0, 2, ER)])], a)
        save_corpus(docs_b, b)
        assert run("kappa", "--a", str(a), "--b", str(b)) == 1
        assert message in one_line_error(capsys)


class TestExitCodes:
    def test_unknown_command_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "phenotag", "frobnicate"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_validation_failure_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert run("stats", "--corpus", str(missing)) == 1
        assert "error:" in capsys.readouterr().err

    def test_capacity_error_single_line(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        run("synth", "--seed", "1", "--docs", "5", "--test-fraction", "0",
            "--out", str(corpus))
        code = run("build-vocab", "--mode", "freq", "--corpus", str(corpus),
                   "--k", "1200", "--out", str(tmp_path / "v.txt"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "997" in err

    def test_directory_as_corpus_is_one_line_error(self, tmp_path, capsys):
        assert run("stats", "--corpus", str(tmp_path)) == 1
        assert str(tmp_path) in one_line_error(capsys)

    @pytest.mark.parametrize("content", ["{not json", "{}"] + [
        '{"labels": ["TumorSize"], "exact": {"TumorSize": [%s, 0, 1]}, '
        '"lenient": {"TumorSize": [1, 0, 1]}}' % count
        for count in ('"a"', "-1", "1.5", "true")
    ] + ['{"labels": [], "exact": {}, "lenient": {}}'], ids=[
        "{not json", "{}", "count-a", "count-minus-1", "count-1.5", "count-true",
        "no-labels",
    ])
    def test_bad_report_is_one_line_error(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_text(content, encoding="utf-8")
        code = run("aggregate", "--group", f"g={bad}", "--out", str(tmp_path / "a.tsv"))
        assert code == 1
        assert "bad.json: not a match report" in one_line_error(capsys)
        assert not (tmp_path / "a.tsv").exists()

    def test_repeated_vocab_name_is_one_line_error(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        run("synth", "--seed", "1", "--docs", "5", "--test-fraction", "0",
            "--out", str(corpus))
        for name in ("a", "b"):
            assert run("build-vocab", "--mode", "base", "--out",
                       str(tmp_path / f"{name}.txt")) == 0
        capsys.readouterr()
        out = tmp_path / "cov.tsv"
        code = run("coverage", "--corpus", str(corpus), "--vocab", f"x={tmp_path}/a.txt",
                   "--vocab", f"x={tmp_path}/b.txt", "--out", str(out))
        assert code == 1
        assert "--vocab name 'x' given more than once" in one_line_error(capsys)
        assert not out.exists()

    def test_repeated_group_name_is_one_line_error(self, tmp_path, capsys):
        report = write_report(tmp_path / "r.json", ["TumorSize"])
        out = tmp_path / "a.tsv"
        code = run("aggregate", "--group", f"a={report}", "--group", f"a={report}",
                   "--out", str(out))
        assert code == 1
        assert "--group name 'a' given more than once" in one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("groups", [
        ["g=full.json,size.json"], ["g=size.json,full.json"],
        ["a=full.json", "b=size.json"],
    ], ids=["full-first", "size-first", "two-groups"])
    def test_reports_over_different_labels_are_one_line_error(self, tmp_path, capsys,
                                                               groups):
        write_report(tmp_path / "full.json", ALL_LABELS)
        write_report(tmp_path / "size.json", ["TumorSize"])
        argv = ["aggregate"]
        for group in groups:
            name, _, files = group.partition("=")
            paths = ",".join(str(tmp_path / f) for f in files.split(","))
            argv += ["--group", f"{name}={paths}"]
        assert run(*argv, "--out", str(tmp_path / "a.tsv")) == 1
        assert "different label sets" in one_line_error(capsys)
        assert not (tmp_path / "a.tsv").exists()

    def test_span_offset_that_is_not_an_integer_is_one_line_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"doc_id": "a", "text": "left breast"}\n'
                       '{"doc_id": "b", "text": "left breast", "entities": '
                       '[{"start": 0.9, "end": "4", "label": "CancerLaterality"}]}\n',
                       encoding="utf-8")
        assert run("stats", "--corpus", str(bad)) == 1
        assert f"{bad}: line 2: span offset must be an integer" in one_line_error(capsys)

    @pytest.mark.parametrize("command, flag, value, name", [
        ("pretrain", "--batch-size", "0", "batch_size"),
        ("pretrain", "--batch-size", "-1", "batch_size"),
        ("pretrain", "--steps", "-3", "steps"),
        ("finetune", "--batch-size", "0", "batch_size"),
        ("finetune", "--epochs", "-1", "epochs"),
        ("pretrain", "--lr", "-1", "lr"),
        ("pretrain", "--lr", "nan", "lr"),
        ("pretrain", "--lr", "inf", "lr"),
        ("finetune", "--lr", "0", "lr"),
        ("finetune", "--lr", "nan", "lr"),
    ])
    def test_bad_training_count_is_one_line_error(self, tiny_model, tmp_path, capsys,
                                                  command, flag, value, name):
        out = tmp_path / "out.ckpt"
        source = (["--init-from"] if command == "pretrain" else ["--ckpt"])
        code = run(command, *source, str(tiny_model["ckpt"]),
                   "--corpus", tiny_model["train"], "--vocab", tiny_model["base"],
                   flag, value, "--out", str(out))
        assert code == 1
        assert f"{name} must be" in one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("steps", ["0", "1"])
    def test_max_positions_below_three_is_one_line_error(self, tiny_model, tmp_path,
                                                         capsys, steps):
        # two positions hold only [CLS] and [SEP]: no room for a word piece
        out = tmp_path / "m.ckpt"
        code = run("pretrain", "--corpus", tiny_model["train"], "--vocab", tiny_model["base"],
                   "--steps", steps, "--max-positions", "2", "--out", str(out))
        assert code == 1
        assert "max_positions must be >= 3" in one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("fraction", ["-0.5", "nan"])
    def test_test_fraction_outside_0_1_is_one_line_error(self, tmp_path, capsys, fraction):
        out = tmp_path / "c.jsonl"
        assert run("synth", "--docs", "5", "--test-fraction", fraction, "--out", str(out)) == 1
        assert "test_fraction must be in (0, 1)" in one_line_error(capsys)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("min_count", ["0", "-3"])
    def test_min_count_below_one_is_one_line_error(self, tmp_path, capsys, min_count):
        corpus = tmp_path / "c.jsonl"
        run("synth", "--seed", "1", "--docs", "5", "--test-fraction", "0",
            "--out", str(corpus))
        out = tmp_path / "v.txt"
        code = run("build-vocab", "--mode", "freq", "--corpus", str(corpus),
                   "--min-count", min_count, "--out", str(out))
        assert code == 1
        assert "min_count must be >= 1" in one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--perplexity", "-1"), ("--perplexity", "nan"), ("--perplexity", "0"),
        ("--iterations", "-3"),
    ])
    def test_bad_tsne_setting_is_one_line_error(self, tiny_model, tmp_path, capsys,
                                                flag, value):
        out = tmp_path / "coords.csv"
        settings = {"--perplexity": "2", "--iterations": "5", flag: value}
        code = run("tsne", "--ckpt", str(tiny_model["ckpt"]), "--vocab", tiny_model["base"],
                   "--corpus", tiny_model["corpus"], *itertools.chain(*settings.items()),
                   "--out", str(out))
        assert code == 1
        assert f"{flag[2:]} must be" in one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        "stats", "predict", "coverage", "build-vocab", "kappa", "--config",
    ])
    def test_file_that_is_not_utf8_is_one_line_error(self, tiny_model, tmp_path, capsys,
                                                     command):
        # a first line each reader accepts, then a byte no UTF-8 text holds
        first = {"stats": '{"doc_id": "a", "text": "ok"}',
                 "predict": '{"doc_id": "a", "text": "ok"}',
                 "coverage": "[PAD]", "build-vocab": "word", "kappa": "O",
                 "--config": "# settings"}[command]
        bad = tmp_path / "bad.txt"
        bad.write_bytes(first.encode() + b"\nsecond \xff line\n")
        out = tmp_path / "out.txt"
        argv = {
            "stats": ["stats", "--corpus", bad],
            "predict": ["predict", "--ckpt", tiny_model["ckpt"], "--vocab",
                        tiny_model["base"], "--corpus", bad, "--out", out],
            "coverage": ["coverage", "--corpus", tiny_model["corpus"], "--vocab", f"v={bad}"],
            "build-vocab": ["build-vocab", "--mode", "curated", "--wordlist", bad,
                            "--out", out],
            "kappa": ["kappa", "--a", bad, "--b", bad, "--out", out],
            "--config": ["--config", bad, "stats", "--corpus", tiny_model["corpus"]],
        }[command]
        assert run(*map(str, argv)) == 1
        assert f"{bad}: line 2: byte 0xff is not UTF-8" in one_line_error(capsys)
        assert not out.exists()


class TestOutputRoot:
    def test_env_var_anchors_relative_outputs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PHENOTAG_OUT_ROOT", str(tmp_path))
        run("synth", "--seed", "1", "--docs", "3", "--test-fraction", "0",
            "--out", "nested/c.jsonl")
        assert (tmp_path / "nested" / "c.jsonl").exists()


class TestConfigFile:
    def test_flags_win_over_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=9\ndocs=4\n")
        out = tmp_path / "c.jsonl"
        run("synth", "--config", str(cfg), "--seed", "1", "--out", str(out),
            "--test-fraction", "0")
        echo = json.loads((tmp_path / "c.jsonl.config.json").read_text())
        assert echo["seed"] == "1"      # explicit flag wins
        assert echo["docs"] == "4"      # config file fills the rest
        assert len(load_corpus(out)) == 4

    def test_line_for_a_removed_flag_is_a_usage_error(self, tmp_path, capsys):
        # every line becomes --key value, so a key no command takes fails in
        # argparse like the same flag typed on the command line
        cfg = tmp_path / "vocab.cfg"
        cfg.write_text("require-alpha=false\n")
        with pytest.raises(SystemExit) as exit_info:
            run("build-vocab", "--config", str(cfg), "--mode", "base",
                "--out", str(tmp_path / "v.txt"))
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --require-alpha false" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]


class TestTokenizeCommand:
    def test_pieces_printed(self, capsys):
        assert run("tokenize", "--text", "HER2 positive") == 0
        out = capsys.readouterr().out
        assert "her\t0\t3" in out
        assert "##2\t3\t4" in out


class TestModelCommandsRoundTrip:
    def test_tiny_pipeline(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        run("synth", "--seed", "6", "--docs", "12", "--out", str(corpus))
        train = str(tmp_path / "c.train.jsonl")
        test = str(tmp_path / "c.test.jsonl")
        base = tmp_path / "base.txt"
        freq = tmp_path / "freq.txt"
        run("build-vocab", "--mode", "base", "--out", str(base))
        run("build-vocab", "--mode", "freq", "--corpus", train, "--base", str(base),
            "--min-count", "2", "--out", str(freq))
        ck0 = tmp_path / "m0.ckpt"
        assert run("pretrain", "--corpus", train, "--vocab", str(base),
                   "--steps", "4", "--layers", "1", "--d-model", "16",
                   "--n-heads", "2", "--d-ff", "32", "--max-positions", "64",
                   "--trace", str(tmp_path / "trace.csv"), "--out", str(ck0)) == 0
        assert (tmp_path / "trace.csv").read_text().startswith("step,loss,accuracy")
        ck1 = tmp_path / "m1.ckpt"
        assert run("resize", "--ckpt", str(ck0), "--old-vocab", str(base),
                   "--new-vocab", str(freq), "--out", str(ck1)) == 0
        ck2 = tmp_path / "m2.ckpt"
        assert run("finetune", "--ckpt", str(ck1), "--corpus", train,
                   "--vocab", str(freq), "--epochs", "1", "--out", str(ck2)) == 0
        pred = tmp_path / "pred.jsonl"
        assert run("predict", "--ckpt", str(ck2), "--vocab", str(freq),
                   "--corpus", test, "--out", str(pred)) == 0
        report = tmp_path / "report.tsv"
        assert run("evaluate", "--gold", test, "--pred", str(pred),
                   "--out", str(report)) == 0
        agg = tmp_path / "agg.tsv"
        rj = str(report.with_suffix(".json"))
        assert run("aggregate", "--group", f"tiny={rj},{rj}", "--out", str(agg)) == 0
        assert "Macro average" in agg.read_text()
        coords = tmp_path / "coords.csv"
        assert run("tsne", "--ckpt", str(ck2), "--vocab", str(freq),
                   "--corpus", train, "--perplexity", "5", "--iterations", "40",
                   "--out", str(coords)) == 0
        header, first = coords.read_text().splitlines()[:2]
        assert header == "token,label,x,y"
        assert len(first.split(",")) == 4


class TestGradcheckCommand:
    def test_zero_layer_fast_pass(self, capsys):
        code = run("gradcheck", "--layers", "0", "--d-model", "8", "--n-heads", "1",
                   "--d-ff", "8", "--vocab-size", "24", "--max-positions", "8",
                   "--coords", "16")
        assert code == 0
        assert "max_rel_error" in capsys.readouterr().out


@pytest.fixture(scope="module")
def tiny_model(tmp_path_factory):
    """A 2-step pre-trained tiny model on the base vocabulary, plus a curated
    vocabulary of the same size that the model was not trained with."""
    root = tmp_path_factory.mktemp("tiny")
    corpus = root / "c.jsonl"
    run("synth", "--seed", "7", "--docs", "8", "--out", str(corpus))
    base, cur, ckpt = root / "base.txt", root / "cur.txt", root / "m.ckpt"
    run("build-vocab", "--mode", "base", "--out", str(base))
    run("build-vocab", "--mode", "curated", "--base", str(base), "--out", str(cur))
    assert run("pretrain", "--corpus", str(corpus), "--vocab", str(base),
               "--steps", "2", "--layers", "1", "--d-model", "16", "--n-heads", "2",
               "--d-ff", "32", "--max-positions", "64", "--out", str(ckpt)) == 0
    return {"corpus": str(corpus), "train": str(root / "c.train.jsonl"),
            "base": str(base), "cur": str(cur), "ckpt": ckpt}


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    return err


class TestModelCommandFailures:
    def test_finetune_zero_epochs(self, tiny_model, tmp_path, capsys):
        out = tmp_path / "ft.ckpt"
        assert run("finetune", "--ckpt", str(tiny_model["ckpt"]),
                   "--corpus", tiny_model["train"], "--vocab", tiny_model["base"],
                   "--epochs", "0", "--out", str(out)) == 0
        assert "fine-tuned 0 epochs (no epochs run)" in capsys.readouterr().out
        assert out.exists()

    def test_error_in_a_pooled_prediction_call_is_one_line_error(self, tiny_model,
                                                                 tmp_path, capsys,
                                                                 monkeypatch):
        module = importlib.import_module("phenotag.encoder.predict")
        real = module.tag_logits
        started = itertools.count()

        def failing(params, config, ids, mask):
            if next(started) == 1:
                raise ConfigurationError("second call failed")
            return real(params, config, ids, mask)

        monkeypatch.setattr(module, "tag_logits", failing)
        out = tmp_path / "pred.jsonl"
        assert run("predict", "--ckpt", str(tiny_model["ckpt"]), "--vocab",
                   tiny_model["base"], "--corpus", tiny_model["corpus"],
                   "--out", str(out)) == 1
        assert one_line_error(capsys) == "error: second call failed\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "tsne"])
    def test_other_vocabulary_is_one_line_error(self, tiny_model, tmp_path, capsys,
                                                command):
        out = tmp_path / "out"
        code = run(command, "--ckpt", str(tiny_model["ckpt"]),
                   "--vocab", tiny_model["cur"], "--corpus", tiny_model["corpus"],
                   "--out", str(out))
        assert code == 1
        assert "vocabulary digest mismatch" in one_line_error(capsys)
        assert not out.exists()

    def test_truncated_checkpoint_is_one_line_error(self, tiny_model, tmp_path,
                                                    capsys):
        bad = tmp_path / "cut.ckpt"
        bad.write_bytes(tiny_model["ckpt"].read_bytes()[:1000])
        code = run("predict", "--ckpt", str(bad), "--vocab", tiny_model["base"],
                   "--corpus", tiny_model["corpus"], "--out", str(tmp_path / "p.jsonl"))
        assert code == 1
        assert "cut.ckpt" in one_line_error(capsys)

    def test_checkpoint_with_another_tag_count_is_one_line_error(self, tiny_model,
                                                                 tmp_path, capsys):
        # a consistent 40-tag head used to reach decode_bio and end in an
        # IndexError traceback
        import dataclasses

        import numpy as np

        from phenotag.encoder import load_checkpoint, save_checkpoint

        ckpt = load_checkpoint(tiny_model["ckpt"])
        d = ckpt.config.d_model
        ckpt.config = dataclasses.replace(ckpt.config, n_tags=40)
        ckpt.params.update(ner_w=np.zeros((d, 40)), ner_b=np.linspace(0.0, 1.0, 40))
        save_checkpoint(ckpt, tmp_path / "tags40.ckpt")
        out = tmp_path / "p.jsonl"
        code = run("predict", "--ckpt", str(tmp_path / "tags40.ckpt"),
                   "--vocab", tiny_model["base"], "--corpus", tiny_model["corpus"],
                   "--out", str(out))
        assert code == 1
        assert "bad checkpoint metadata: n_tags must be 17: 40" in one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("tensor", ["pos_emb", "ner_b"])
    def test_checkpoint_tensor_that_does_not_match_its_config_is_one_line_error(
            self, tiny_model, tmp_path, capsys, tensor):
        from phenotag.encoder import load_checkpoint, save_checkpoint

        ckpt = load_checkpoint(tiny_model["ckpt"])
        if tensor == "pos_emb":
            ckpt.params["pos_emb"] = ckpt.params["pos_emb"][:4]
        else:
            del ckpt.params["ner_b"]
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(ckpt, bad)
        code = run("predict", "--ckpt", str(bad), "--vocab", tiny_model["base"],
                   "--corpus", tiny_model["corpus"], "--out", str(tmp_path / "p.jsonl"))
        assert code == 1
        err = one_line_error(capsys)
        assert "bad.ckpt: " in err and repr(tensor) in err
        assert not (tmp_path / "p.jsonl").exists()

    def test_checkpoint_with_removed_settings_is_one_line_error(self, tiny_model,
                                                                tmp_path, capsys):
        old = tmp_path / "old.ckpt"
        with_removed_settings(tiny_model["ckpt"], old)
        code = run("predict", "--ckpt", str(old), "--vocab", tiny_model["base"],
                   "--corpus", tiny_model["corpus"], "--out", str(tmp_path / "p.jsonl"))
        assert code == 1
        err = one_line_error(capsys)
        assert "old.ckpt: bad checkpoint metadata" in err and "dropout_rate" in err
        assert not (tmp_path / "p.jsonl").exists()

    def test_tsne_rows_parse_with_comma_and_quote_tokens(self, tiny_model, tmp_path):
        text = 'er positive, pr negative "weakly" noted.'
        span = EntitySpan(0, text.index(" noted"), EntityLabel.HORMONE_RECEPTOR_STATUS)
        corpus = tmp_path / "c.jsonl"
        save_corpus([Document("d0", text, [span])], corpus)
        coords = tmp_path / "coords.csv"
        assert run("tsne", "--ckpt", str(tiny_model["ckpt"]), "--vocab", tiny_model["base"],
                   "--corpus", str(corpus), "--perplexity", "1", "--iterations", "5",
                   "--out", str(coords)) == 0
        with open(coords, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["token", "label", "x", "y"]
        assert all(len(row) == 4 for row in rows), rows
        assert {",", '"'} <= {row[0] for row in rows[1:]}

    @pytest.mark.parametrize("value", ["0", "1.5"])
    def test_mask_frac_outside_unit_interval_is_one_line_error(self, tiny_model,
                                                               tmp_path, capsys, value):
        out = tmp_path / "out.ckpt"
        code = run("pretrain", "--init-from", str(tiny_model["ckpt"]),
                   "--corpus", tiny_model["train"], "--vocab", tiny_model["base"],
                   "--mask-frac", value, "--out", str(out))
        assert code == 1
        assert "mask_frac must be in (0, 1]" in one_line_error(capsys)
        assert not out.exists()


class TestStartupImports:
    """A command imports only what it runs."""

    def run_python(self, code: str) -> list[str]:
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=child_env(), check=True)
        return proc.stdout.split()

    def test_cli_import_loads_no_scipy_or_encoder(self):
        loaded = self.run_python(
            "import sys, phenotag.cli\n"
            "for m in ('scipy.stats', 'scipy.special', 'phenotag.encoder'):\n"
            "    print(m in sys.modules)"
        )
        assert loaded == ["False", "False", "False"]

    def test_version_loads_no_numpy(self):
        loaded = self.run_python(
            "import sys\n"
            "from phenotag.cli import main\n"
            "try:\n"
            "    main(['--version'])\n"
            "except SystemExit:\n"
            "    pass\n"
            "print('numpy' in sys.modules)"
        )
        assert loaded[-1] == "False"

    def test_resize_loads_no_scipy(self, tiny_model, tmp_path):
        # resize runs no forward pass, so no GELU needs scipy.special's ndtr
        argv = ["phenotag", "resize", "--ckpt", str(tiny_model["ckpt"]),
                "--old-vocab", tiny_model["base"], "--new-vocab", tiny_model["cur"],
                "--out", str(tmp_path / "resized.ckpt")]
        loaded = self.run_python(
            "import runpy, sys\n"
            f"sys.argv = {argv!r}\n"
            "try:\n"
            "    runpy.run_module('phenotag', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
            "print('scipy' in sys.modules)"
        )
        assert (tmp_path / "resized.ckpt").is_file()
        assert loaded[-1] == "False"

    def test_one_report_per_group_aggregate_loads_no_scipy(self, tmp_path):
        # one run has no interval, so no t critical value from scipy.special
        groups = [f"{name}={write_report(tmp_path / f'{name}.json', ALL_LABELS)}"
                  for name in ("base", "expanded")]
        argv = ["phenotag", "aggregate", "--group", groups[0], "--group", groups[1],
                "--out", str(tmp_path / "agg.tsv")]
        loaded = self.run_python(
            "import runpy, sys\n"
            f"sys.argv = {argv!r}\n"
            "try:\n"
            "    runpy.run_module('phenotag', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
            "print('scipy' in sys.modules)"
        )
        assert (tmp_path / "agg.tsv").is_file()
        assert loaded[-1] == "False"

    def test_data_commands_skip_encoder_and_scipy_stats(self, tmp_path):
        # aggregate's t critical value needs scipy.special, so numpy too
        loaded = self.run_python(
            "import sys\n"
            "from phenotag.cli import main\n"
            f"d = {str(tmp_path)!r}\n"
            "c = d + '/c.jsonl'\n"
            "for argv in (\n"
            "    ['synth', '--docs', '6', '--test-fraction', '0', '--out', c],\n"
            "    ['stats', '--corpus', c],\n"
            "    ['build-vocab', '--mode', 'base', '--out', d + '/v.txt'],\n"
            "    ['coverage', '--corpus', c, '--vocab', d + '/v.txt'],\n"
            "    ['evaluate', '--gold', c, '--pred', c, '--out', d + '/r.tsv'],\n"
            "    ['errors', '--gold', c, '--pred', c],\n"
            "):\n"
            "    assert main(argv) == 0, argv\n"
            "numpy = 'numpy' in sys.modules\n"
            "assert main(['aggregate', '--group', f'g={d}/r.json,{d}/r.json',\n"
            "             '--out', d + '/agg.tsv']) == 0\n"
            "print(numpy, 'phenotag.encoder' in sys.modules, 'scipy.stats' in sys.modules)"
        )
        assert loaded[-3:] == ["False", "False", "False"]
