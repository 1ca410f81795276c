"""Golden sha256 digests of every artifact of a few short runs.

    python tests/digests.py          # print the digests as JSON
    python tests/digests.py --write  # rewrite tests/data/digests.json

Five config shapes, each on seeds 0 and 1, at horizons short enough for a
few seconds in total: 1-D full splitting (SFBP) with a trajectory CSV, on a
unit grid and on a geometric grid whose steps grow to the cap of 1,
skew-box FBF with tracking, path CSV and checkpoint (its state reaches the
subnormal range, where a flipped sign of zero would show), forward-backward
(FB) on the segment with a geometric grid and the cos-inverse relaxation,
also tracked and checkpointed, and 64x64 TV deblurring with images and the
ISNR series. The seed picks ``x0`` of the canonical runs and the noise seed
of the deblurring run. BLAS reductions split across threads change the last
bits of some norms, so the digests are recorded with one OpenBLAS thread,
which is the default here when the environment sets none.

No digest depends on the SIMD loops numpy picks for the CPU: the deblurring
noise and blur taps are taken with scalar standard-library calls, and
``tests/test_digests.py`` requires every digest again under numpy's AVX2
loops. The eight artifacts in ``BOUND_TO_BLAS_KERNEL`` still depend on the
OpenBLAS kernel: under ``OPENBLAS_CORETYPE=Haswell`` the ``fbf-skew-track``
and ``tv-deblur-64`` trajectories and the ``sfbp-1d`` and ``sfbp-geometric``
reports move, and ``tests/test_digests.py`` requires every other digest
there. Some depend on glibc's libm variant: with
``GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA`` the ``fb-segment-track`` path
CSVs and the ``fbf-skew-track``, ``sfbp-1d`` and ``sfbp-geometric``
trajectories move.
"""

import hashlib
import json
import os
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data" / "digests.json"
SEEDS = (0, 1)
# "<config>/<artifact>", on every seed, whose bytes follow the OpenBLAS
# kernel, with the BLAS call that moves them
BOUND_TO_BLAS_KERNEL = {
    "fbf-skew-track/trajectory.csv": "operators.norm's ddot",
    "tv-deblur-64/trajectory.csv": "operators.norm's ddot",
    "sfbp-1d/report.json": "np.polyfit in schedules._tail_slope",
    "sfbp-geometric/report.json": "np.polyfit in schedules._tail_slope",
}


def _schedule(r, s, b, lambda_bar):
    return {"family": "polynomial", "r": r, "s": s, "b": b,
            "lambda_bar": lambda_bar, "gamma_bar": 1.0}


def _sfbp(rng):
    return {"instance": "sfbp-two-penalty", "mode": "SFBP",
            "schedule": _schedule(0.65, 0.6, 1000, 0.9),
            "grid": {"kind": "uniform", "h": 1.0, "T": 20000},
            "store_every": 10, "x0": [rng.uniform(-1.0, 1.0)],
            "outputs": {"trajectory_csv": True, "report_json": True}}


def _sfbp_geometric(rng):
    # h grows from 0.05 to the SFBP cap of exactly 1 at t ~ 950, so the run
    # takes fractional steps, unit steps and a final partial step
    return {"instance": "sfbp-two-penalty", "mode": "SFBP",
            "schedule": _schedule(0.65, 0.6, 1000, 0.9),
            "grid": {"kind": "geometric", "h0": 0.05, "ratio": 1.001,
                     "T": 5000},
            "store_every": 10, "x0": [rng.uniform(-1.0, 1.0)],
            "outputs": {"trajectory_csv": True, "report_json": True}}


def _skew(rng):
    return {"instance": "skew-box", "mode": "FBF",
            "schedule": _schedule(0.05, 0.25, 1, 0.9),
            "grid": {"kind": "uniform", "h": 1.0, "T": 10000},
            "safety_factor": 1.0, "store_every": 500,
            "x0": [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)],
            "outputs": {"trajectory_csv": True, "path_csv": True,
                        "tracking": True, "checkpoint": True,
                        "report_json": True}}


def _fb_segment(rng):
    return {"instance": "segment", "mode": "FB",
            "schedule": dict(_schedule(0.05, 0.25, 1, 0.9),
                             gamma_kind="cos-inverse"),
            "grid": {"kind": "geometric", "h0": 0.05, "ratio": 1.001,
                     "T": 2000},
            "store_every": 25,
            "x0": [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)],
            "outputs": {"trajectory_csv": True, "path_csv": True,
                        "tracking": True, "checkpoint": True,
                        "report_json": True}}


def _deblur(rng):
    return {"instance": {"deblur": {"image": "checkerboard", "size": 64,
                                    "kernel_size": 9, "sigma": 4.0,
                                    "noise_std": 1e-3}},
            "mode": "FBF",
            "schedule": _schedule(0.05, 0.25, 1, 0.9 / 8.0 ** 0.5),
            "grid": {"kind": "uniform", "h": 1.0, "T": 1e9},
            "store_every": 100, "max_steps": 500,
            "seed": rng.randrange(1 << 31),
            "outputs": {"trajectory_csv": True, "images": True,
                        "isnr_csv": True, "report_json": True}}


CONFIGS = {"sfbp-1d": _sfbp, "sfbp-geometric": _sfbp_geometric,
           "fbf-skew-track": _skew,
           "fb-segment-track": _fb_segment, "tv-deblur-64": _deblur}


def compute():
    """{"<config>/seed<N>/<artifact>": sha256} over every config and seed."""
    sys.path.insert(0, str(ROOT / "src"))
    from penaltyflow.config import parse_config
    from penaltyflow.runner import run_experiment

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, make in CONFIGS.items():
            for seed in SEEDS:
                out = Path(tmp, name, str(seed))
                cfg = parse_config(make(random.Random(f"{name}:{seed}")))
                report = run_experiment(cfg, str(out))
                if report.exit_code != 0:
                    raise SystemExit(f"{name} seed {seed}: {report.messages}")
                for path in sorted(out.iterdir()):
                    digests[f"{name}/seed{seed}/{path.name}"] = \
                        hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def main(argv):
    import numpy as np

    record = {"numpy": np.__version__,
              "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
              "digests": compute()}
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if argv == ["--write"]:
        if record["openblas_threads"] != "1":
            raise SystemExit("the golden digests are recorded with one BLAS thread")
        DATA.write_text(text, encoding="utf-8")
    elif argv:
        raise SystemExit(__doc__)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    main(sys.argv[1:])
