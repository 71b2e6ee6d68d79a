"""Every durable write of the store and the lease: an fsync, an atomic
replace (temp file, fsync, rename; each caller names its own temp file)
and a directory sync, which makes the renames into it survive a power
loss.  ``site`` names the call site for whoever counts fsyncs; it
changes nothing.  ``os.fsync`` and ``os.replace`` are read off ``os`` at
each call, so a stand-in installed there (a counter, a nominal-cost
fsync) sees every write."""

from __future__ import annotations

import os
from typing import IO, Union


def fsync(target: Union[int, IO], site: str) -> None:
    """fsync ``target``: a file descriptor or an open file."""
    os.fsync(target if isinstance(target, int) else target.fileno())


def replace(path: str, tmp_path: str, *chunks: bytes, site: str) -> None:
    """Write ``chunks`` to ``tmp_path``, fsync it, rename it over ``path``."""
    with open(tmp_path, "wb") as handle:
        handle.writelines(chunks)
        handle.flush()
        fsync(handle, site)
    os.replace(tmp_path, path)


def fsync_directory(directory: str, site: str) -> None:
    """fsync ``directory``: a rename into it is on disk only then."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        fsync(fd, site)
    finally:
        os.close(fd)


__all__ = ["fsync", "fsync_directory", "replace"]
