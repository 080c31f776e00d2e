"""Small file helpers shared by the problem store and the CLI writers."""

from __future__ import annotations

import errno
import os
import tempfile


class TraceFormatError(Exception):
    """A trace CSV failed to parse; message names the offending line."""


def _current_umask() -> int:
    # the umask can only be read by setting it; restore it at once
    mask = os.umask(0o077)
    os.umask(mask)
    return mask


def check_output_path(path: str) -> None:
    """Raise the OSError, naming path, that atomic_write_text(path, ...)
    would raise when path is a directory or its directory does not exist,
    so that a run can refuse its output path before doing any work."""
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(directory):
        code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
    else:
        return
    raise OSError(code, os.strerror(code), path)


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file and rename, so readers never
    observe a half-written file.  An OSError names path, not the temp
    file, and leaves no temp file behind."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp creates 0600; give the file the mode open() would have
        os.chmod(tmp, 0o666 & ~_current_umask())
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror or str(exc), path) from None
        raise


def read_text(path: str, error: type[Exception], prefix: str = "") -> str:
    """Read a UTF-8 text file.  Bytes that do not decode raise
    ``error(prefix + "line N: ...")`` naming the line that holds them."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; count their lines as
        # str.splitlines does, as the parsers number lines that way
        lineno = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise error(
            f"{prefix}line {lineno}: not UTF-8 text "
            f"(byte 0x{data[exc.start]:02x}: {exc.reason})"
        ) from None


def format_float(v: float) -> str:
    """Render a float with 17 significant digits (round-trips float64)."""
    return f"{v:.17g}"
