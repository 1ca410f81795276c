"""Every artifact of the golden runs in ``tests/digests.py`` is byte-identical
to the digests recorded in ``tests/data/digests.json``, with one BLAS thread,
again with numpy's AVX-512 loops switched off, and, all but the artifacts
``digests.BOUND_TO_BLAS_KERNEL`` names, under OpenBLAS's Haswell kernels.

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

from digests import BOUND_TO_BLAS_KERNEL, SEEDS

HERE = Path(__file__).resolve().parent
# numpy then dispatches its AVX2 loops, as on a CPU without AVX-512
AVX2_LOOPS = "AVX512_ICL AVX512_SPR X86_V4"


def _golden():
    golden = json.loads((HERE / "data" / "digests.json").read_text(encoding="utf-8"))
    if golden["numpy"] != np.__version__:
        pytest.skip(f"digests recorded under numpy {golden['numpy']}, "
                    f"this is {np.__version__}")
    return golden["digests"]


def _run(args, **env):
    proc = subprocess.run([sys.executable, *args], env=dict(os.environ, **env),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _assert_golden(golden, bound=(), **env):
    got = json.loads(_run([str(HERE / "digests.py")], OPENBLAS_NUM_THREADS="1",
                          **env))["digests"]
    assert sorted(got) == sorted(golden)
    moved = [name for name in got if got[name] != golden[name] and name not in bound]
    assert not moved, f"artifacts whose bytes moved: {moved}"


def _cpu_flags():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


def test_artifacts_match_golden_digests_one_blas_thread():
    _assert_golden(_golden())


def test_artifacts_match_golden_digests_under_numpy_avx2_loops():
    golden = _golden()
    code = ("import json, numpy as np; "
            "print(json.dumps(np.__config__.CONFIG['SIMD Extensions']['found']))")
    found = json.loads(_run(["-c", code], NPY_DISABLE_CPU_FEATURES=AVX2_LOOPS))
    assert not set(found) & set(AVX2_LOOPS.split()), found
    _assert_golden(golden, NPY_DISABLE_CPU_FEATURES=AVX2_LOOPS)


def test_artifacts_match_golden_digests_under_openblas_haswell_kernels():
    if not {"avx2", "fma"} <= _cpu_flags():
        pytest.skip("OpenBLAS's Haswell kernels need a CPU with AVX2 and FMA")
    golden = _golden()
    proc = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, OPENBLAS_CORETYPE="Haswell",
                                   OPENBLAS_VERBOSE="2"))
    assert "Core: Haswell" in proc.stdout + proc.stderr, proc.stdout + proc.stderr
    bound = {f"{config}/seed{seed}/{artifact}" for seed in SEEDS
             for config, artifact in (key.split("/") for key in BOUND_TO_BLAS_KERNEL)}
    assert bound <= set(golden)
    _assert_golden(golden, bound, OPENBLAS_CORETYPE="Haswell")
