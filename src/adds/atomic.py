"""Whole-file replacement of artifacts: a reader sees the old file or the new
one, never a part of either."""

import contextlib
import os
import uuid
from pathlib import Path


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Write ``path`` (mode "w" or "wb") through a temporary file beside it.

    A clean exit moves the temporary file over ``path`` with ``os.replace``;
    an exception deletes it and leaves ``path`` as it was. The temporary
    file is created like ``open`` creates one, so the result's permissions
    follow the umask.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with open(tmp, mode.replace("w", "x")) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
