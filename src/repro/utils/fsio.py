"""Atomic filesystem writes for the service's persistent result cache.

Serialize to a temporary file in the destination directory, then
``os.replace`` it over the final name.  Readers therefore only ever observe
complete files — a concurrent load sees either the old content or the new
content, never a torn write — and an unwritable cache directory degrades to
"no cache" instead of an error.
"""

from __future__ import annotations

import os
import pathlib
import tempfile
from typing import Union

__all__ = ["atomic_write_bytes"]


def atomic_write_bytes(path: Union[str, pathlib.Path], data: bytes) -> bool:
    """Atomically write ``data`` to ``path`` (tmp file + ``os.replace``).

    Creates parent directories as needed.  Returns True on success and
    False when the directory is unwritable (caches treat that as a silent
    miss; the caller's in-memory result is still valid).
    """
    path = pathlib.Path(path)
    tmp_name = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
        return True
    except OSError:
        if tmp_name is not None and os.path.exists(tmp_name):
            try:
                os.unlink(tmp_name)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        return False
