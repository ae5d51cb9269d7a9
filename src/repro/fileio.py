"""Crash-safe file replacement shared by every durable writer.

The session result files, the checkpoints and the sweep cache entries
all use :func:`atomic_write`: a reader (or a restarted process) sees
either the old file or the new one, never a torn mix.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union

__all__ = ["atomic_write"]


def atomic_write(path: Union[str, Path], text: str) -> None:
    """Replace ``path`` with ``text`` via a temp file and ``os.replace``.

    The temp file lives in the target's directory (``os.replace`` is
    atomic only within one filesystem) and ends in ``.tmp``, so globs
    for the target's suffix never see it.  Any exception, a
    ``KeyboardInterrupt`` included, removes the temp file and leaves the
    previous ``path`` untouched.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
