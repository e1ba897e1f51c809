"""A write that fails partway leaves the previous file whole and no temp file."""

import dataclasses

import pytest

import phenotag.cli
from conftest import make_vocab, sized_vocab
from phenotag.cli import main
from phenotag.corpus import Document, save_corpus
from phenotag.encoder import ModelConfig, init_model, save_checkpoint
from phenotag.tokenizer import save_vocab

# a lone surrogate cannot be encoded as UTF-8, so writing it raises
UNENCODABLE = "\ud800"


def corpus_writer(ok: bool):
    docs = [Document("d0", "old document" if ok else "new document", [])]
    if not ok:
        docs.append(Document("d1", "bad " + UNENCODABLE, []))
    return lambda path: save_corpus(docs, path)


def vocab_writer(ok: bool):
    vocab = make_vocab("first", "second" if ok else "bad" + UNENCODABLE)
    return lambda path: save_vocab(vocab, path)


def checkpoint_writer(ok: bool):
    ckpt = init_model(ModelConfig(vocab_size=12, n_layers=1, d_model=8, n_heads=2,
                                  d_ff=16, max_positions=8), sized_vocab(12))
    if not ok:  # sorts after every real tensor, so those are written first
        ckpt = dataclasses.replace(ckpt, params={**ckpt.params, "zz": "not numbers"})
    return lambda path: save_checkpoint(ckpt, path)


@pytest.mark.parametrize(
    "writer, error",
    [(corpus_writer, UnicodeEncodeError), (vocab_writer, UnicodeEncodeError),
     (checkpoint_writer, ValueError)],
    ids=["save_corpus", "save_vocab", "save_checkpoint"],
)
def test_failed_save_keeps_previous_file(tmp_path, writer, error):
    path = tmp_path / "artifact"
    writer(ok=True)(path)
    before = path.read_bytes()
    with pytest.raises(error):
        writer(ok=False)(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_failed_cli_output_keeps_previous_file(tmp_path, monkeypatch):
    corpus, out = tmp_path / "c.jsonl", tmp_path / "stats.tsv"
    assert main(["synth", "--docs", "4", "--test-fraction", "0", "--out", str(corpus)]) == 0
    assert main(["stats", "--corpus", str(corpus), "--out", str(out)]) == 0
    files = sorted(p.name for p in tmp_path.iterdir())
    before = out.read_bytes()
    monkeypatch.setattr(phenotag.cli, "format_stats",
                        lambda stats: "metric\tvalue\n" + UNENCODABLE + "\n")
    with pytest.raises(UnicodeEncodeError):
        main(["stats", "--corpus", str(corpus), "--out", str(out)])
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == files
