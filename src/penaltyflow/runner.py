"""Experiment execution: validate, integrate, diagnose, emit artifacts.

Exit codes: 0 success, 2 a failed schedule check, else the code the raised
error's type states (``errors.py``); a failed artifact write exits 1. Every
failure writes report.json, listing what was written before it, unless
report.json or out_dir itself cannot be written.
"""

import json
import math
import os
from dataclasses import dataclass, field
from itertools import repeat
from typing import List

import numpy as np

from .central_path import central_path
from .deblur import build_tv_deblur, isnr_series
from .dynamics import (IntegratorSpec, check_mode, ergodic_average,
                       integrate_fb, integrate_fbf, integrate_sfbp,
                       tracking_report)
from .errors import ConfigError, PenaltyflowError
from .imaging import make_test_image
from .instances import build_canonical
from .operators import as_vector, norm
from .pgmio import atomic_write_text, write_pgm
from .schedules import attouch_czarnecki_check, validate_schedule

TRAJECTORY_COLUMNS = ("t", "h", "x_norm", "gap_to_path", "B1_norm", "psi_sum",
                      "p_norm")
PATH_COLUMNS = ("t", "eps", "beta", "xbar_norm", "B_norm", "residual",
                "iterations")
ISNR_COLUMNS = ("step", "t", "isnr_db")


@dataclass
class ExitReport:
    exit_code: int
    messages: List[str] = field(default_factory=list)
    artifacts: List[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def to_json(self):
        return json.dumps({"exit_code": self.exit_code, "messages": self.messages,
                           "artifacts": sorted(os.path.basename(a) for a in self.artifacts),
                           "metrics": self.metrics}, indent=2, sort_keys=True)


def _field(x):
    """One CSV field: empty for None and a float NaN, else the round-trip repr."""
    if x is None or (isinstance(x, float) and x != x):
        return ""
    return repr(float(x))


def _csv_rows(*columns):
    """Rows of CSV fields, formatted lazily, one column iterable each."""
    return zip(*(map(_field, col) for col in columns))


def emit_csv(path, columns, rows):
    """Write a CSV with exactly the given header; ``rows`` yields string fields."""
    lines = [",".join(columns)]
    lines.extend(map(",".join, rows))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _finite(v):
    return v if (isinstance(v, float) and math.isfinite(v)) else None


def _prepare(cfg):
    """Every check made before integrating, for ``run`` and ``validate``:
    (prob, deblur_inst, sch, checks, spec, x0), with ``checks`` the schedule
    checks of report.json. A bad spec or x0 raises before any schedule check."""
    if isinstance(cfg.instance, str):
        prob, deblur_inst = build_canonical(cfg.instance), None
    else:
        db = cfg.instance["deblur"]
        deblur_inst = build_tv_deblur(make_test_image(db["image"], db["size"]),
                                      kernel_size=db["kernel_size"], sigma=db["sigma"],
                                      noise_std=db["noise_std"], seed=cfg.seed)
        prob = deblur_inst.problem
    # tracking and path.csv need the central path, solved for canonical
    # instances only; isnr.csv and images exist only for deblurring
    kind = "canonical" if deblur_inst is None else "deblur"
    for key in ("isnr_csv", "images") if deblur_inst is None else ("tracking", "path_csv"):
        if cfg.outputs[key]:
            raise ConfigError(f"not written for a {kind} instance", field=f"$.outputs.{key}")
    check_mode(cfg.mode, prob)
    sch = cfg.schedule_obj()
    spec = IntegratorSpec(grid=cfg.grid, safety_factor=cfg.safety_factor,
                          store_every=cfg.store_every, max_steps=cfg.max_steps)
    x0 = as_vector(prob.x0_default if cfg.x0 == "default" else cfg.x0, prob.dim)
    vrep = validate_schedule(sch, cfg.mode, (prob.d.eta, prob.b1.mu))
    checks = [{"name": c.name, "passed": bool(c.passed),
               "witness_value": _finite(c.witness_value),
               "witness_time": _finite(c.witness_time)}
              for c in vrep.checks]
    if cfg.mode == "SFBP":
        est, ok = attouch_czarnecki_check(sch)
        checks.append({"name": "attouch-czarnecki", "passed": bool(ok),
                       "witness_value": _finite(est), "witness_time": None})
    return prob, deblur_inst, sch, checks, spec, x0


def _trajectory_rows(traj, gaps):
    """The TRAJECTORY_COLUMNS rows of ``traj``, formatted lazily; ``gaps`` may be None."""
    empty = repeat(None)  # endless, so columns may share it; zip stops at times
    return _csv_rows(
        traj.times.tolist(), traj.step_sizes.tolist(), map(norm, traj.states),
        empty if gaps is None else gaps.tolist(), traj.b1_norms.tolist(),
        empty if traj.psi_sums is None else traj.psi_sums.tolist(),
        empty if traj.p_norms is None else traj.p_norms.tolist())


def _emit(report, out_dir, name, write, *args):
    """Write artifact ``name`` into ``out_dir`` as ``write(path, *args)``, then
    list it; an OSError becomes a PenaltyflowError naming ``name``."""
    path = os.path.join(out_dir, name)
    try:
        write(path, *args)
    except OSError as exc:
        raise PenaltyflowError(f"cannot write {name}: {exc.strerror}") from exc
    report.artifacts.append(path)


def run_experiment(cfg, out_dir):
    """Run one experiment per the config; returns an ExitReport. A package
    error on the way ends the run with its type's exit code and label; only
    an unwritable out_dir or report.json escapes, as OSError and
    PenaltyflowError."""
    os.makedirs(out_dir, exist_ok=True)
    report = ExitReport(exit_code=0)
    try:
        _run(report, cfg, out_dir)
    except PenaltyflowError as exc:
        report.exit_code = exc.exit_code
        report.messages.append(f"{exc.label}: {exc}")
    if cfg.outputs["report_json"]:
        _emit(report, out_dir, "report.json", atomic_write_text, report.to_json())
    return report


def _run(report, cfg, out_dir):
    """Everything before report.json; a failed schedule check sets exit code 2."""
    prob, deblur_inst, sch, checks, spec, x0 = _prepare(cfg)
    report.metrics["schedule_checks"] = checks
    failed = [c["name"] for c in checks if not c["passed"]]
    if failed:
        report.exit_code = 2
        report.messages.append("schedule validation failed: " + ", ".join(failed))
        return

    integrator = {"FB": integrate_fb, "FBF": integrate_fbf,
                  "SFBP": integrate_sfbp}[cfg.mode]
    traj = integrator(prob, sch, x0, spec)
    gaps = None
    if cfg.outputs["tracking"] or cfg.outputs["path_csv"]:
        path_points = central_path(prob, sch, traj.times, tol=1e-10)
        trep = tracking_report(prob, traj, path_points)
        gaps = trep.gaps
        report.metrics["tracking"] = {
            "final_gap": trep.final_gap,
            "burn_in_index": trep.burn_in_index,
            "inequality_nonpositive_fraction": trep.inequality_nonpositive_fraction,
        }

    report.metrics["mode"] = cfg.mode
    report.metrics["steps"] = traj.n_steps_total
    report.metrics["final_time"] = traj.final_time
    report.metrics["final_state_norm"] = norm(traj.final_state)
    report.metrics["final_B1_norm"] = float(traj.b1_norms[-1])
    if traj.psi_sums is not None:
        report.metrics["final_psi_sum"] = float(traj.psi_sums[-1])
    if cfg.mode == "SFBP":
        report.metrics["ergodic_average_norm"] = norm(ergodic_average(traj))

    if cfg.outputs["trajectory_csv"]:
        _emit(report, out_dir, "trajectory.csv", emit_csv, TRAJECTORY_COLUMNS,
              _trajectory_rows(traj, gaps))
    if cfg.outputs["path_csv"]:
        rows = (map(_field, (pt.t, pt.eps, pt.beta, norm(pt.xbar),
                             norm(prob.b1.eval(pt.xbar)), pt.residual, pt.iterations))
                for pt in path_points)
        _emit(report, out_dir, "path.csv", emit_csv, PATH_COLUMNS, rows)
    if cfg.outputs["isnr_csv"]:
        series = isnr_series(deblur_inst, traj)
        _emit(report, out_dir, "isnr.csv", emit_csv, ISNR_COLUMNS,
              _csv_rows(traj.step_indices, traj.times, series))
        report.metrics["final_isnr_db"] = float(series[-1])
    if cfg.outputs["images"]:
        _emit(report, out_dir, "degraded.pgm", write_pgm, deblur_inst.observed)
        _emit(report, out_dir, "restored.pgm", write_pgm,
              np.clip(deblur_inst.theta_of(traj.final_state), 0.0, 1.0))
        _emit(report, out_dir, "degraded.json", atomic_write_text,
              json.dumps(deblur_inst.metadata(), indent=2, sort_keys=True))
        _emit(report, out_dir, "original.pgm", write_pgm, deblur_inst.original)
    if cfg.outputs["checkpoint"]:
        _emit(report, out_dir, "checkpoint.json", atomic_write_text, json.dumps(
            {"t": traj.final_time, "x": [float(v) for v in traj.final_state]}))
