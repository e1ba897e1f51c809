"""Whole-file writes: a reader sees the old contents or the new, never a part."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


@contextmanager
def atomic_write(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Open a hidden temporary file beside ``path``; it replaces ``path`` on success.

    The body writes to the yielded handle (UTF-8 text unless ``binary``).
    When the body returns, the file is closed and renamed over ``path`` with
    ``os.replace``, which is atomic within a directory. When it raises, the
    temporary file is removed and ``path`` keeps its previous contents. A
    process killed mid-write leaves ``path`` intact and at most the temporary
    file. Nothing is fsynced: this guards against a failed process, not a
    power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb" if binary else "w",
                  encoding=None if binary else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
