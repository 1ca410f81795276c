"""Every artifact of the golden runs in ``tests/digests.py`` is byte-identical
to the digests recorded in ``tests/data/digests.json``.

After a change that moves artifact bytes on purpose, rewrite the file with
``python tests/digests.py --write`` and state in CHANGES.md which fields
moved and why.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent


def test_artifacts_match_golden_digests_one_blas_thread():
    golden = json.loads((HERE / "data" / "digests.json").read_text(encoding="utf-8"))
    if golden["numpy"] != np.__version__:
        pytest.skip(f"digests recorded under numpy {golden['numpy']}, "
                    f"this is {np.__version__}")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(HERE / "digests.py")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)["digests"]
    assert sorted(got) == sorted(golden["digests"])
    moved = [name for name in got if got[name] != golden["digests"][name]]
    assert not moved, f"artifacts whose bytes moved: {moved}"
