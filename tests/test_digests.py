"""The byte-identity line: every artefact ``scripts/digests.py`` digests
must keep the bytes recorded in ``tests/fixtures/digests.json``.

A change that moves bytes on purpose rewrites the file with
``python3 scripts/digests.py > tests/fixtures/digests.json`` and says why.
The script pins one BLAS thread itself; the digests depend on the BLAS
kernel, as acceptance check 10 does.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDED = ROOT / "tests" / "fixtures" / "digests.json"


def test_digests_match_the_recorded_line():
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "digests.py"),
         str(ROOT / "src")],
        capture_output=True, text=True, check=True)
    got = json.loads(run.stdout.splitlines()[-1])
    want = json.loads(RECORDED.read_text())
    moved = sorted(name for name in want.keys() & got.keys()
                   if got[name] != want[name])
    missing = sorted(want.keys() - got.keys())
    new = sorted(got.keys() - want.keys())
    assert not (moved or missing or new), (
        f"moved: {moved}; missing: {missing}; not recorded: {new}")
