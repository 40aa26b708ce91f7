"""Fixtures shared by the file-writer tests."""

import os

import pytest

OLD_BYTES = b"bytes of another file\n"


@pytest.fixture(params=["hardlink", "symlink"])
def linked_targets(request, tmp_path):
    """``make(*targets)`` turns each target path into a hard link or a
    symlink to a file of ``OLD_BYTES`` outside its directory and returns
    a check that a writer replaced every target with a new file and left
    every linked file alone."""

    def make(*targets):
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir(exist_ok=True)
        pairs = []
        for k, target in enumerate(targets):
            other = elsewhere / f"file{k}"
            other.write_bytes(OLD_BYTES)
            if request.param == "hardlink":
                os.link(other, target)
            else:
                target.symlink_to(other)
            pairs.append((target, other))

        def check():
            for target, other in pairs:
                assert other.read_bytes() == OLD_BYTES
                assert not target.is_symlink()
                assert target.stat().st_ino != other.stat().st_ino
                assert other.stat().st_nlink == 1

        return check

    return make
