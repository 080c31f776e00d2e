"""Atomic text writes: content, permissions and cleanup."""

import os
import stat

import pytest

from kaczpen.fileio import atomic_write_text


@pytest.fixture()
def umask_022():
    old = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(old)


def test_atomic_write_applies_umask(tmp_path, umask_022):
    path = tmp_path / "out.txt"
    atomic_write_text(str(path), "hello\n")
    assert path.read_text() == "hello\n"
    assert stat.S_IMODE(path.stat().st_mode) == 0o644


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path, umask_022):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    atomic_write_text(str(path), "new\n")
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize("target", ["missing/out.txt", "a-directory"])
def test_atomic_write_error_names_the_destination(tmp_path, target):
    """A write that fails, whether at the temp file or at the rename onto
    the destination, names the destination and leaves no temp file."""
    (tmp_path / "a-directory").mkdir()
    path = str(tmp_path / target)
    with pytest.raises(OSError) as err:
        atomic_write_text(path, "text\n")
    assert err.value.filename == path
    assert str(err.value).endswith(f": {path!r}")
    assert os.listdir(tmp_path) == ["a-directory"]
    assert os.listdir(tmp_path / "a-directory") == []
