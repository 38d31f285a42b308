"""Atomic file-writing helpers for result artifacts.

Campaign artifacts (metrics JSON, Chrome traces, benchmark records) used to
be written with a plain truncate-and-write: a crash or SIGKILL mid-write
left a torn, unparseable file *and* destroyed the previous good version.
These helpers write to a temporary file in the target directory, fsync it
and :func:`os.replace` it over the destination -- on POSIX the rename is
atomic, so readers only ever observe the old complete file or the new
complete file, never a torn intermediate.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union

__all__ = ["atomic_write_text"]


def atomic_write_text(
    path: Union[str, Path], text: str, *, encoding: str = "utf-8"
) -> Path:
    """Atomically replace ``path`` with ``text``; returns the path.

    The temporary file lives in the destination directory (``os.replace``
    across filesystems is not atomic) and is removed on any failure, so a
    crashed write leaves the previous file untouched and no debris behind.
    Parent directories are created as needed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path
