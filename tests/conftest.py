import json
import os
from pathlib import Path

import pytest

import phenotag
from phenotag.basevocab import default_vocabulary
from phenotag.corpus import Document, EntitySpan, split_sentences
from phenotag.synthesis import generate_synthetic
from phenotag.tokenizer import SPECIAL_TOKENS, Vocabulary


@pytest.fixture(scope="session")
def base_vocab():
    return default_vocabulary()


@pytest.fixture(scope="session")
def corpus200():
    return generate_synthetic(seed=1, n_docs=200)


def child_env(**overrides: str | None) -> dict[str, str]:
    """Environment for a child process that runs this checkout's phenotag.

    The absolute `src` directory of the imported package goes first on
    PYTHONPATH, ahead of any existing entries, so a child started from any
    working directory imports the code under test whether or not phenotag
    is installed. A keyword sets that variable; a value of None removes it.
    """
    env = dict(os.environ)
    src = str(Path(phenotag.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    for name, value in overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def make_vocab(*tokens: str, placeholders: int = 0) -> Vocabulary:
    """Small hand-rolled vocabulary: specials, then the given tokens."""
    extra = tuple(f"[unused{i}]" for i in range(placeholders))
    return Vocabulary(SPECIAL_TOKENS + extra + tuple(tokens))


def sized_vocab(size: int) -> Vocabulary:
    """A vocabulary of exactly ``size`` tokens: specials, then w0, w1, ..."""
    return make_vocab(*(f"w{i}" for i in range(size - len(SPECIAL_TOKENS))))


def explode_sentences(docs, limit=None):
    """One document per sentence, entities shifted to sentence coordinates."""
    out = []
    for doc in docs:
        for sent, off in split_sentences(doc.text):
            ents = [
                EntitySpan(e.start_char - off, e.end_char - off, e.label)
                for e in doc.entities
                if off <= e.start_char and e.end_char <= off + len(sent)
            ]
            out.append(Document(f"sent-{len(out):04d}", sent, ents))
            if limit is not None and len(out) >= limit:
                return out
    return out


def edit_metadata(src: Path, dst: Path, edit) -> None:
    """Copy checkpoint ``src`` to ``dst`` with ``edit`` applied to its
    metadata dict; the tensors are copied unchanged."""
    data = Path(src).read_bytes()
    meta_len = int.from_bytes(data[8:12], "little")
    meta = json.loads(data[12 : 12 + meta_len])
    edit(meta)
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    rest = data[12 + meta_len :]
    Path(dst).write_bytes(data[:8] + len(blob).to_bytes(4, "little") + blob + rest)


def with_removed_settings(src: Path, dst: Path) -> None:
    """Copy checkpoint ``src`` to ``dst``, adding the ``config.dropout_rate``
    and ``optimizer`` metadata keys that checkpoints carried before those
    settings were removed."""
    def add_removed(meta: dict) -> None:
        meta["config"]["dropout_rate"] = 0.0
        meta["optimizer"] = "adam"

    edit_metadata(src, dst, add_removed)
