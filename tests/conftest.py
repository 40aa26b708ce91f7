"""Fixtures shared across test modules: the session's one run of
``scripts/digests.py``, and the linked targets of the file-writer tests."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLD_BYTES = b"bytes of another file\n"


@pytest.fixture(scope="session")
def digest_run(tmp_path_factory):
    """One run of ``scripts/digests.py`` for the whole session, in its own
    process: ``line`` is the JSON line it printed and ``root`` the kept
    RUN_DIR holding every file of its fixture CLI run, among them the
    2000-step ``flow/checkpoint.swf`` and ``diffusion/checkpoint.swf``."""
    root = tmp_path_factory.mktemp("digest-run")
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "digests.py"),
         str(ROOT / "src"), str(root)],
        capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return SimpleNamespace(line=json.loads(run.stdout.splitlines()[-1]),
                           root=root)


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
