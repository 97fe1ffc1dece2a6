"""The same output bytes on every supported Python.

``tests/same_bytes.py`` prints both evaluate reports on the synthetic data
and TF-IDF and BM25 rankings on a seeded base.  This test runs it under the
interpreter running the tests and under each interpreter named in the
``HYBRIDKM_EXTRA_PYTHONS`` environment variable (paths separated by
``os.pathsep``), and compares the outputs byte for byte.  It skips when the
variable is unset.  The script is stdlib only, so the extra interpreters
need no pytest.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent / "same_bytes.py"
DATA = Path(__file__).parent / "data" / "synthetic"


def extra_pythons() -> list[str]:
    return [p for p in os.environ.get("HYBRIDKM_EXTRA_PYTHONS", "").split(os.pathsep) if p]


def run_script(python: str) -> str:
    done = subprocess.run(
        [python, str(SCRIPT)], capture_output=True, text=True, encoding="utf-8", timeout=300
    )
    assert done.returncode == 0, f"{python}: {done.stderr}"
    return done.stdout


@pytest.mark.skipif(not extra_pythons(), reason="HYBRIDKM_EXTRA_PYTHONS not set")
def test_outputs_are_the_same_bytes_on_every_named_python():
    here = run_script(sys.executable)
    reports = json.loads(here)["reports"]
    for mode in ("delex", "lexical"):
        assert reports[mode] == (DATA / f"report_imperfect_{mode}.json").read_text(encoding="utf-8")
    for python in extra_pythons():
        assert run_script(python) == here, python
