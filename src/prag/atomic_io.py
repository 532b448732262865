"""Crash-safe artifact writes.

A checkpoint or report is written to a temporary file beside its target and
renamed over it with ``os.replace`` only once the write has finished, so a
reader (or a resumed run) sees either the previous file or the new one, never
a truncated mix. A write that raises removes its temporary file.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


@contextmanager
def open_atomic(path: str | Path) -> Iterator[IO[str]]:
    """Open a text stream that replaces ``path`` when the block exits cleanly."""
    path = Path(path)
    # Same directory, so the rename never crosses a file system.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
