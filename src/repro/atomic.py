"""One atomic whole-file writer for the caches, status files and paper outputs."""

from __future__ import annotations

import contextlib
import os
import tempfile


def atomic_write(path: str, payload: bytes) -> None:
    """Replace ``path`` with ``payload``; readers see old or new bytes, never a mix.

    The bytes go to a temp file made in the destination directory
    (created if missing) and move into place with ``os.replace``, which
    is atomic on POSIX within one filesystem, so any number of
    concurrent writers — worker processes, or hosts sharing a mount —
    can race on one path. On any failure the temp file is unlinked
    before the exception propagates. There is no fsync, so what survives
    a crash of the whole host is up to the filesystem.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fp:
            fp.write(payload)
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise
