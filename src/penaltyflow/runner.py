"""Experiment execution: validate, integrate, diagnose, emit artifacts.

Exit codes: 0 success, 2 a failed schedule check, else the code the raised
error's type states (``errors.py``); every failure writes report.json.
"""

import json
import math
import os
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import List

import numpy as np

from .central_path import central_path
from .deblur import build_tv_deblur, isnr_series
from .dynamics import (IntegratorSpec, check_mode, ergodic_average,
                       integrate_fb, integrate_fbf, integrate_sfbp,
                       tracking_report)
from .errors import PenaltyflowError
from .imaging import make_test_image
from .instances import build_canonical
from .operators import as_vector
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


def _fmt(x):
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return repr(float(x))


def emit_csv(path, columns, rows):
    """Write a CSV with exactly the given header; floats via repr (round-trip)."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")
    return path


def _build_instance(cfg):
    if isinstance(cfg.instance, str):
        return build_canonical(cfg.instance), None
    db = cfg.instance["deblur"]
    inst = build_tv_deblur(make_test_image(db["image"], db["size"]),
                           kernel_size=db["kernel_size"], sigma=db["sigma"],
                           noise_std=db["noise_std"], seed=cfg.seed)
    return inst.problem, inst


def _finite(v):
    return v if (isinstance(v, float) and math.isfinite(v)) else None


def _prepare(cfg):
    """Every check made before integrating, for ``run`` and ``validate``:
    (prob, deblur_inst, sch, checks, spec, x0), with ``checks`` the schedule
    checks of report.json, and ``spec`` and ``x0`` None unless all passed."""
    prob, deblur_inst = _build_instance(cfg)
    check_mode(cfg.mode, prob)
    sch = cfg.schedule_obj()
    vrep = validate_schedule(sch, cfg.mode, (prob.d.eta, prob.b1.mu))
    checks = [{"name": c.name, "passed": bool(c.passed),
               "witness_value": _finite(c.witness_value),
               "witness_time": _finite(c.witness_time)}
              for c in vrep.checks]
    if cfg.mode == "SFBP":
        est, ok = attouch_czarnecki_check(sch)
        checks.append({"name": "attouch-czarnecki", "passed": bool(ok),
                       "witness_value": _finite(est), "witness_time": None})
    if not all(c["passed"] for c in checks):
        return prob, deblur_inst, sch, checks, None, None
    spec = IntegratorSpec(grid=cfg.grid, safety_factor=cfg.safety_factor,
                          cap_steps=cfg.cap_steps, store_every=cfg.store_every,
                          max_steps=cfg.max_steps)
    x0 = prob.x0_default if cfg.x0 == "default" else cfg.x0
    return prob, deblur_inst, sch, checks, spec, as_vector(x0, prob.dim)


def _trajectory_rows(traj, gaps):
    """The TRAJECTORY_COLUMNS rows of ``traj``, built lazily; ``gaps`` may be None."""
    n = traj.times.size
    norms = lambda vs: (math.sqrt(v.dot(v)) for v in vs)  # np.linalg.norm's 1-D path
    return zip(traj.times.tolist(), traj.step_sizes.tolist(), norms(traj.states),
               repeat(None, n) if gaps is None else gaps.tolist(), traj.b1_norms.tolist(),
               repeat(math.nan, n) if traj.psi_sums is None else traj.psi_sums.tolist(),
               repeat(None, n) if traj.aux_points is None else norms(traj.aux_points))


def _finish(report, cfg, out_dir):
    if cfg.outputs["report_json"]:
        p = os.path.join(out_dir, "report.json")
        atomic_write_text(p, report.to_json())
        report.artifacts.append(p)
    return report


def _fail(report, cfg, out_dir, exit_code, message):
    report.exit_code = exit_code
    report.messages.append(message)
    return _finish(report, cfg, out_dir)


def run_experiment(cfg, out_dir, seed_override=None):
    """Run one experiment per the config; returns an ExitReport. A package
    error on the way ends the run with its type's exit code and label."""
    os.makedirs(out_dir, exist_ok=True)
    if seed_override is not None:
        cfg = replace(cfg, seed=seed_override)
    report = ExitReport(exit_code=0)
    try:
        prob, deblur_inst, sch, checks, spec, x0 = _prepare(cfg)
        report.metrics["schedule_checks"] = checks
        if spec is None:
            failed = [c["name"] for c in checks if not c["passed"]]
            return _fail(report, cfg, out_dir, 2,
                         "schedule validation failed: " + ", ".join(failed))

        integrator = {"FB": integrate_fb, "FBF": integrate_fbf,
                      "SFBP": integrate_sfbp}[cfg.mode]
        want_tracking = cfg.outputs["tracking"] or cfg.outputs["path_csv"]
        path_points = None
        traj = integrator(prob, sch, x0, spec)
        if want_tracking and deblur_inst is None:
            path_points = central_path(prob, sch, traj.times, tol=1e-10)

        gaps = None
        if path_points is not None:
            gaps = np.array([float(np.linalg.norm(x - p.xbar))
                             for x, p in zip(traj.states, path_points)])
            trep = tracking_report(traj, path_points)
            report.metrics["tracking"] = {
                "final_gap": trep.final_gap,
                "burn_in_index": trep.burn_in_index,
                "inequality_nonpositive_fraction": trep.inequality_nonpositive_fraction,
            }

        report.metrics["mode"] = cfg.mode
        report.metrics["steps"] = traj.n_steps_total
        report.metrics["final_time"] = traj.final_time
        report.metrics["final_state_norm"] = float(np.linalg.norm(traj.final_state))
        report.metrics["final_B1_norm"] = float(traj.b1_norms[-1])
        if traj.psi_sums is not None:
            report.metrics["final_psi_sum"] = float(traj.psi_sums[-1])
        if cfg.mode == "SFBP":
            erg = ergodic_average(traj, sch)
            report.metrics["ergodic_average_norm"] = float(np.linalg.norm(erg))

        if cfg.outputs["trajectory_csv"]:
            p = emit_csv(os.path.join(out_dir, "trajectory.csv"),
                         TRAJECTORY_COLUMNS, _trajectory_rows(traj, gaps))
            report.artifacts.append(p)

        if cfg.outputs["path_csv"] and path_points is not None:
            rows = [(pt.t, pt.eps, pt.beta, float(np.linalg.norm(pt.xbar)),
                     float(np.linalg.norm(prob.b1.eval(pt.xbar))), pt.residual,
                     pt.iterations) for pt in path_points]
            p = emit_csv(os.path.join(out_dir, "path.csv"), PATH_COLUMNS, rows)
            report.artifacts.append(p)

        if deblur_inst is not None and cfg.outputs["isnr_csv"]:
            series = isnr_series(deblur_inst, traj)
            rows = zip(traj.step_indices, traj.times, series)
            p = emit_csv(os.path.join(out_dir, "isnr.csv"), ISNR_COLUMNS, rows)
            report.artifacts.append(p)
            report.metrics["final_isnr_db"] = float(series[-1])

        if deblur_inst is not None and cfg.outputs["images"]:
            pd = os.path.join(out_dir, "degraded.pgm")
            write_pgm(pd, deblur_inst.observed)
            pr = os.path.join(out_dir, "restored.pgm")
            write_pgm(pr, np.clip(deblur_inst.theta_of(traj.final_state), 0.0, 1.0))
            report.artifacts.extend([pd, pr])
            meta = os.path.join(out_dir, "degraded.json")
            atomic_write_text(meta, json.dumps(deblur_inst.metadata(),
                                               indent=2, sort_keys=True))
            report.artifacts.append(meta)
            if deblur_inst.original is not None:
                po = os.path.join(out_dir, "original.pgm")
                write_pgm(po, deblur_inst.original)
                report.artifacts.append(po)

        if cfg.outputs["checkpoint"]:
            p = os.path.join(out_dir, "checkpoint.json")
            atomic_write_text(p, json.dumps(
                {"t": traj.final_time, "x": [float(v) for v in traj.final_state]}))
            report.artifacts.append(p)
    except PenaltyflowError as exc:
        return _fail(report, cfg, out_dir, exc.exit_code, f"{exc.label}: {exc}")
    return _finish(report, cfg, out_dir)
