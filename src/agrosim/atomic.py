"""All-or-nothing artifact writes."""

from __future__ import annotations

import contextlib
import os
from typing import IO, Iterator


@contextlib.contextmanager
def atomic_write(path: str) -> Iterator[IO[str]]:
    """Open a new text file beside ``path`` for writing; when the block ends
    normally, move it onto ``path`` with :func:`os.replace`.

    If the block raises, the temporary file is removed and whatever was at
    ``path`` before is left as it was, so a failed write never leaves a
    partial artifact.  Text is written as UTF-8 without newline translation.
    """
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
