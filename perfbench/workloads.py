"""The four benchmark workloads: seeded configs and per-run output checks.

Each workload is one JSON config for ``python -m penaltyflow run``. The
benchmark seed sets the only free inputs: the starting point ``x0`` of the
canonical workloads and the noise seed of the deblurring workloads. Horizons
and budgets are fixed here so that every seed does the same amount of work.
"""

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

# 0.9 * min(mu, eta) for the deblurring instance: mu = 1, eta = 1/sqrt(8)
_DEBLUR_LAMBDA_BAR = 0.9 / math.sqrt(8.0)

TRAJECTORY_HEADER = "t,h,x_norm,gap_to_path,B1_norm,psi_sum,p_norm"
PATH_HEADER = "t,eps,beta,xbar_norm,B_norm,residual,iterations"
ISNR_HEADER = "step,t,isnr_db"


def _schedule(r, s, b, lambda_bar):
    return {"family": "polynomial", "r": r, "s": s, "b": b,
            "lambda_bar": lambda_bar, "gamma_bar": 1.0}


def _sfbp_config(rng):
    return {
        "instance": "sfbp-two-penalty", "mode": "SFBP",
        "schedule": _schedule(0.65, 0.6, 1000, 0.9),
        "grid": {"kind": "uniform", "h": 1.0, "T": 100000},
        "store_every": 10, "x0": [rng.uniform(-1.0, 1.0)],
        "outputs": {"trajectory_csv": True, "report_json": True},
    }


def _skew_config(rng):
    return {
        "instance": "skew-box", "mode": "FBF",
        "schedule": _schedule(0.05, 0.25, 1, 0.9),
        "grid": {"kind": "uniform", "h": 1.0, "T": 10000},
        "safety_factor": 1.0, "store_every": 500,
        "x0": [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)],
        "outputs": {"trajectory_csv": True, "path_csv": True, "tracking": True,
                    "checkpoint": True, "report_json": True},
    }


def _deblur_config(image, size, max_steps):
    def make(rng):
        return {
            "instance": {"deblur": {"image": image, "size": size,
                                    "kernel_size": 9, "sigma": 4.0,
                                    "noise_std": 1e-3}},
            "mode": "FBF",
            "schedule": _schedule(0.05, 0.25, 1, _DEBLUR_LAMBDA_BAR),
            "grid": {"kind": "uniform", "h": 1.0, "T": 1e9},
            "store_every": 250, "max_steps": max_steps,
            "seed": rng.randrange(1 << 31),
            "outputs": {"trajectory_csv": False, "images": True,
                        "isnr_csv": True, "report_json": True},
        }
    return make


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _header_is(path, header):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.readline().rstrip("\n") == header


class Checker:
    """Accuracy figures and pass/fail verdicts for one run's artifacts.

    The reference answers come from ``penaltyflow.oracle.active_set_solve``,
    which is independent of the integrators and is never timed.
    """

    def __init__(self, pf):
        self.pf = pf
        self._certs = {}

    def certificate(self, name):
        if name not in self._certs:
            self._certs[name] = self.pf.active_set_solve(
                self.pf.build_canonical(name))
        return self._certs[name]

    def check(self, workload, out_dir):
        """Returns (accuracy, problems): figures by name and failed checks."""
        try:
            return self._check(workload, out_dir)
        except (KeyError, TypeError, ValueError, OSError) as exc:
            # malformed artifacts fail the run; they must not stop the benchmark
            return {}, [f"unreadable artifacts: {exc!r}"]

    def _check(self, workload, out_dir):
        problems = []
        report_path = os.path.join(out_dir, "report.json")
        if not os.path.isfile(report_path):
            return {}, ["report.json missing"]
        report = json.loads(_read(report_path))
        m = report["metrics"]
        if report["exit_code"] != 0:
            problems.append(f"report exit_code {report['exit_code']}")
        for name in workload.artifacts:
            if not os.path.isfile(os.path.join(out_dir, name)):
                problems.append(f"{name} missing")
        if problems:
            return {}, problems
        acc = {"final_b1_norm": m["final_B1_norm"]}
        problems.extend(workload.check(self, out_dir, m, acc))
        for name, value in acc.items():
            op, bound = workload.bounds.get(name, (None, None))
            if not math.isfinite(value):
                problems.append(f"{name} is {value}")
            elif op == "<=" and not value <= bound or op == ">=" and not value >= bound:
                problems.append(f"{name} {value:.6g} not {op} {bound:g}")
        return acc, problems


def _check_sfbp(checker, out_dir, m, acc):
    cert = checker.certificate("sfbp-two-penalty")
    if cert.kind != "singleton" or any(cert.least_norm_point != 0.0):
        return [f"certified set of sfbp-two-penalty is not {{0}}: {cert.to_json()}"]
    # the certified set is {0}, so the distance is the ergodic average's norm
    acc["dist_to_solution"] = m["ergodic_average_norm"]
    if not _header_is(os.path.join(out_dir, "trajectory.csv"), TRAJECTORY_HEADER):
        return ["trajectory.csv header"]
    return []


def _check_skew(checker, out_dir, m, acc):
    cert = checker.certificate("skew-box")
    x = json.loads(_read(os.path.join(out_dir, "checkpoint.json")))["x"]
    acc["dist_to_solution"] = cert.distance_to(x)
    problems = []
    frac = m["tracking"]["inequality_nonpositive_fraction"]
    if frac < 0.99:
        problems.append(f"tracking inequality holds on {frac:.3f} < 0.99 of samples")
    if not _header_is(os.path.join(out_dir, "path.csv"), PATH_HEADER):
        problems.append("path.csv header")
    if not _header_is(os.path.join(out_dir, "trajectory.csv"), TRAJECTORY_HEADER):
        problems.append("trajectory.csv header")
    return problems


def _check_deblur(size):
    def check(checker, out_dir, m, acc):
        acc["final_isnr_db"] = m["final_isnr_db"]
        problems = []
        for name in ("degraded.pgm", "restored.pgm", "original.pgm"):
            img = checker.pf.read_pgm(os.path.join(out_dir, name))
            if img.shape != (size, size):
                problems.append(f"{name} has shape {img.shape}")
        if not _header_is(os.path.join(out_dir, "isnr.csv"), ISNR_HEADER):
            problems.append("isnr.csv header")
        return problems
    return check


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_config: Callable
    artifacts: tuple
    check: Callable
    bounds: dict  # accuracy figure -> ("<=" or ">=", bound)

    def config(self, seed):
        return self.make_config(random.Random(f"{self.name}:{seed}"))


WORKLOADS = (
    Workload(
        "sfbp-1d",
        "1-D SFBP, 1e5 steps: the dynamics loop's own Python work dominates; "
        "the only run of the combined resolvent",
        _sfbp_config, ("report.json", "trajectory.csv"), _check_sfbp,
        # the seed commit reaches ~1.1e-2 and ~3.0e-3 at T = 1e5
        {"dist_to_solution": ("<=", 2e-2), "final_b1_norm": ("<=", 1e-2)}),
    Workload(
        "fbf-skew-track",
        "skew-box FBF with the step cap binding every step, tracking and "
        "checkpoint: the only run of central_path and tracking_report",
        _skew_config,
        ("report.json", "trajectory.csv", "path.csv", "checkpoint.json"),
        _check_skew,
        # criterion 4 of the acceptance gate
        {"dist_to_solution": ("<=", 1e-2), "final_b1_norm": ("<=", 1e-2)}),
    Workload(
        "tv-deblur-64",
        "TV deblurring at 64x64 (12 288 unknowns): per-call numpy overhead "
        "of D, B1 and J_A dominates",
        _deblur_config("checkerboard", 64, 4000),
        ("report.json", "isnr.csv", "degraded.pgm", "restored.pgm",
         "original.pgm", "degraded.json"),
        _check_deblur(64),
        # criterion 8 of the acceptance gate asks for a positive ISNR
        {"final_isnr_db": (">=", 0.0)}),
    Workload(
        "tv-deblur-256",
        "TV deblurring at 256x256 (196 608 unknowns): blur matmuls, large "
        "vector updates and the recorder's memory dominate",
        _deblur_config("disk", 256, 200),
        ("report.json", "isnr.csv", "degraded.pgm", "restored.pgm",
         "original.pgm", "degraded.json"),
        _check_deblur(256),
        # the seed commit reaches about -8.3 dB after 200 steps; a run that
        # lands a dB below that has lost accuracy
        {"final_isnr_db": (">=", -9.5)}),
)

BY_NAME = {w.name: w for w in WORKLOADS}
