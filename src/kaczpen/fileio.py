"""Small file helpers shared by the problem store and the CLI writers."""

from __future__ import annotations

import os
import tempfile


def _current_umask() -> int:
    # the umask can only be read by setting it; restore it at once
    mask = os.umask(0o077)
    os.umask(mask)
    return mask


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file and rename, so readers never
    observe a half-written file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp creates 0600; give the file the mode open() would have
        os.chmod(tmp, 0o666 & ~_current_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_float(v: float) -> str:
    """Render a float with 17 significant digits (round-trips float64)."""
    return f"{v:.17g}"
