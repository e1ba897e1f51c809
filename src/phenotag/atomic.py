"""File I/O: whole-file writes that a reader sees entirely or not at all, and
line reads that name the line of a byte that is not UTF-8."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

from .errors import ParseError


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


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (line number from 1, line) of a UTF-8 text file, read as text mode
    reads it (universal newlines, line ends kept).

    Raises:
        ParseError: naming the file and line of the first byte that is not UTF-8.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise ParseError(
                    f"{path}: line {lineno}: byte 0x{byte:02x} is not UTF-8"
                ) from None
            yield lineno, line
