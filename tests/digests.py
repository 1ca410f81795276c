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
of the deblurring run.

No digest depends on the BLAS kernel or thread count, nor on the SIMD loops
numpy picks for the CPU: every reported norm is numpy's pairwise sum, the
schedules' tail slope is a closed form over Python floats, and the
deblurring noise and blur taps are taken with scalar standard-library calls.
``tests/test_digests.py`` requires every digest under OpenBLAS's Haswell
kernels, with two BLAS threads and under numpy's AVX2 loops. The eight in
``BOUND_TO_LIBM`` depend on glibc's libm variant: with
``GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA`` the ``fb-segment-track`` path
CSVs and the ``fbf-skew-track``, ``sfbp-1d`` and ``sfbp-geometric``
trajectories move, and ``tests/test_digests.py`` requires every other digest
there.
"""

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data" / "digests.json"
SEEDS = (0, 1)
# "<config>/<artifact>", on every seed, whose bytes follow glibc's libm
# variant, with the libm call that moves them
BOUND_TO_LIBM = {
    "fb-segment-track/path.csv": "pow in the polynomial schedule's eps",
    "fbf-skew-track/trajectory.csv": "pow in Schedule.at, through the march",
    "sfbp-1d/trajectory.csv": "pow in Schedule.at, through the march",
    "sfbp-geometric/trajectory.csv": "pow in Schedule.at, through the march",
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

    record = {"numpy": np.__version__, "digests": compute()}
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if argv == ["--write"]:
        DATA.write_text(text, encoding="utf-8")
    elif argv:
        raise SystemExit(__doc__)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main(sys.argv[1:])
