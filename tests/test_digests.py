"""The byte-identity line: every artefact ``scripts/digests.py`` digests
must keep the bytes recorded in ``tests/fixtures/digests.json``.

The line checked is the one of the session's single run of the script,
the ``digest_run`` fixture of ``tests/conftest.py``, which runs
``python3 scripts/digests.py SRC RUN_DIR`` in a subprocess and keeps
RUN_DIR; the acceptance checks load the fixture's checkpoints from there.
A change that moves bytes on purpose rewrites the file with
``python3 scripts/digests.py > tests/fixtures/digests.json`` and says why.
The script pins one BLAS thread itself; the digests depend on the BLAS
kernel, as acceptance check 10 does.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDED = ROOT / "tests" / "fixtures" / "digests.json"


def test_digests_match_the_recorded_line(digest_run):
    got = digest_run.line
    want = json.loads(RECORDED.read_text())
    moved = sorted(name for name in want.keys() & got.keys()
                   if got[name] != want[name])
    missing = sorted(want.keys() - got.keys())
    new = sorted(got.keys() - want.keys())
    assert not (moved or missing or new), (
        f"moved: {moved}; missing: {missing}; not recorded: {new}")


@pytest.mark.parametrize("leftover", ["file-inside", "file-itself"])
def test_script_refuses_a_run_dir_that_is_not_empty(tmp_path, leftover):
    # a leftover file would be digested under its own name, so the script
    # must stop before it trains or writes anything
    run_dir = tmp_path / "run"
    if leftover == "file-inside":
        run_dir.mkdir()
        (run_dir / "old.txt").write_text("left over\n")
    else:
        run_dir.write_text("left over\n")
    before = sorted(tmp_path.rglob("*"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "digests.py"),
         str(ROOT / "src"), str(run_dir)],
        capture_output=True, text=True, timeout=60)
    assert run.returncode != 0
    assert run.stdout == ""
    err = run.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith(f"{run_dir}: "), run.stderr
    assert sorted(tmp_path.rglob("*")) == before
