"""Run one config in process, as ``penaltyflow run`` does, and time its phases.

    python perfbench/traced.py CONFIG OUT_DIR RESULT_JSON [--trace]

Without ``--trace`` only the top-level phases are timed: package import,
config load and ``run_experiment``. With ``--trace`` the entry points of each
layer are wrapped first, from this file, without touching the package:

* the phase functions the runner module imports become spans
  (name, start, end, parent);
* the per-step callables the integrators receive (``D.eval``, ``B1.eval``,
  the resolvent oracle of ``A``, the combined resolvent, the schedule
  callables, and ``deblur``'s blur and gradient) are aggregated into a call
  count and a total time per enclosing span, so memory stays bounded however
  many steps a run takes.

The result file holds the spans, the aggregates and a few facts read off the
wrapped calls' arguments and results; ``layer_metrics`` turns it into the
per-layer metrics. The exit code is the run's own.
"""

import time

import contextlib
import dataclasses
import json
import os
import sys

_T0 = time.perf_counter()

SCHEDULE_FIELDS = ("eps", "beta", "lam", "gamma", "deps", "dbeta")


class Tracer:
    """Spans for phase-level calls, per-span aggregates for per-step calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []    # [name, start, end, parent index or -1]
        self.calls = {}    # span index -> {name: [count, total_s]}
        self.child_s = {}  # span index -> time covered by its direct children
        self.facts = {}
        self.current = -1  # innermost open span
        self.depth = 0     # counted calls open inside the current span

    def add_fact(self, name, value):
        self.facts[name] = self.facts.get(name, 0) + value

    @contextlib.contextmanager
    def phase(self, name):
        parent, depth = self.current, self.depth
        rec = [name, self.clock(), None, parent]
        self.current, self.depth = len(self.spans), 0
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = self.clock()
            self.current, self.depth = parent, depth
            if depth == 0:
                self.child_s[parent] = (self.child_s.get(parent, 0.0)
                                        + rec[2] - rec[1])

    def span(self, name, fn, after=None):
        """Wrap a phase-level function; ``after(result, args)`` runs once the
        span has closed."""
        def wrapper(*args, **kwargs):
            with self.phase(name):
                result = fn(*args, **kwargs)
            if after is not None:
                result = after(result, args)
            return result
        return wrapper

    def counted(self, name, fn):
        """Wrap a per-step callable: count and time it under the open span."""
        clock = self.clock
        calls, child_s = self.calls, self.child_s

        def wrapper(*args, **kwargs):
            span, depth = self.current, self.depth
            self.depth = depth + 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.depth = depth
                bucket = calls.get(span)
                if bucket is None:
                    bucket = calls[span] = {}
                entry = bucket.get(name)
                if entry is None:
                    entry = bucket[name] = [0, 0.0]
                entry[0] += 1
                entry[1] += dt
                if depth == 0:
                    child_s[span] = child_s.get(span, 0.0) + dt
        return wrapper

    def to_json(self):
        return {"spans": self.spans,
                "calls": {str(k): v for k, v in self.calls.items()},
                "child_s": {str(k): v for k, v in self.child_s.items()},
                "facts": self.facts}


def install(tracer):
    """Wrap each layer's entry points as the runner and integrators see them."""
    from penaltyflow import config, deblur, runner
    from penaltyflow.errors import ConvergenceFailure
    from penaltyflow.operators import MonotoneOperator
    from penaltyflow.problem import ProblemInstance

    counted = tracer.counted

    class TracedProblem(ProblemInstance):
        def shifted_resolvent_fn(self):
            return counted("problem.shifted_resolvent",
                           ProblemInstance.shifted_resolvent_fn(self))

    def traced_problem(prob):
        a = prob.a
        # the integrators call the oracle directly, so wrap the oracle itself
        a = MonotoneOperator(a.kind, counted("operators.resolvent", a._resolvent_fn),
                             eval_fn=a.eval, dim=a.dim, params=a.params)
        base = TracedProblem(**{f.name: getattr(prob, f.name)
                                for f in dataclasses.fields(prob)})
        return dataclasses.replace(
            base, a=a,
            d=dataclasses.replace(prob.d, eval=counted("problem.d", prob.d.eval)),
            b1=dataclasses.replace(prob.b1, eval=counted("problem.b1", prob.b1.eval)))

    def after_integrate(traj, args):
        tracer.add_fact("dynamics.steps", traj.n_steps_total)
        tracer.facts["dynamics.t_reached"] = traj.final_time
        tracer.add_fact("dynamics.recorder_bytes", sum(
            v.nbytes for v in vars(traj).values() if hasattr(v, "nbytes")))
        return traj

    def after_central_path(points, args):
        tracer.add_fact("central_path.points", len(points))
        tracer.add_fact("central_path.iterations",
                        sum(p.iterations for p in points))
        return points

    def counting_failures(fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except ConvergenceFailure:
                tracer.add_fact("central_path.failures", 1)
                raise
        return wrapper

    def after_text(result, args):
        tracer.add_fact("pgmio.bytes_written", len(args[1].encode("utf-8")))
        return result

    def after_pgm(result, args):
        tracer.add_fact("pgmio.bytes_written", os.path.getsize(args[0]))
        return result

    spans = {
        "integrate_fb": ("dynamics.integrate", after_integrate),
        "integrate_fbf": ("dynamics.integrate", after_integrate),
        "integrate_sfbp": ("dynamics.integrate", after_integrate),
        "ergodic_average": ("dynamics.ergodic_average", None),
        "tracking_report": ("dynamics.tracking_report", None),
        "build_canonical": ("instances.build_canonical",
                            lambda prob, args: traced_problem(prob)),
        "build_tv_deblur": ("deblur.build_tv_deblur",
                            lambda inst, args: dataclasses.replace(
                                inst, problem=traced_problem(inst.problem))),
        "isnr_series": ("deblur.isnr_series", None),
        "make_test_image": ("imaging.make_test_image", None),
        "validate_schedule": ("schedules.validate_schedule", None),
        "attouch_czarnecki_check": ("schedules.attouch_czarnecki_check", None),
        "emit_csv": ("runner.emit_csv", None),
        "atomic_write_text": ("pgmio.atomic_write_text", after_text),
        "write_pgm": ("pgmio.write_pgm", after_pgm),
    }
    for attr, (name, after) in spans.items():
        setattr(runner, attr, tracer.span(name, getattr(runner, attr), after))
    runner.central_path = counting_failures(tracer.span(
        "central_path.central_path", runner.central_path, after_central_path))

    deblur.gaussian_blur = counted("imaging.blur", deblur.gaussian_blur)
    deblur.discrete_gradient = counted("imaging.gradient", deblur.discrete_gradient)

    schedule_from_dict = config.schedule_from_dict

    def traced_schedule_from_dict(d):
        sch = schedule_from_dict(d)
        return dataclasses.replace(sch, **{
            f: counted("schedules.eval", getattr(sch, f)) for f in SCHEDULE_FIELDS})

    config.schedule_from_dict = traced_schedule_from_dict


def layer_metrics(result):
    """Per-layer metrics of one traced run, as {name: (value, unit)}."""
    spans = result["spans"]
    child_s = {int(k): v for k, v in result["child_s"].items()}
    facts = result["facts"]
    calls = {}
    for bucket in result["calls"].values():
        for name, (n, t) in bucket.items():
            c = calls.setdefault(name, [0, 0.0])
            c[0] += n
            c[1] += t

    def total(*names):
        return sum(s[2] - s[1] for s in spans if s[0] in names)

    def self_time(name):
        return sum(s[2] - s[1] - child_s.get(i, 0.0)
                   for i, s in enumerate(spans) if s[0] == name)

    out = {}

    def per_call(name):
        n, t = calls.get(name, (0, 0.0))
        out[name + "_calls"] = (n, "count")
        out[name + "_us"] = (1e6 * t / n if n else 0.0, "us")

    steps = facts.get("dynamics.steps", 0)
    integrate_s = total("dynamics.integrate")
    dyn_self = self_time("dynamics.integrate")
    out["dynamics.integrate_s"] = (integrate_s, "s")
    out["dynamics.self_s"] = (dyn_self, "s")
    out["dynamics.self_us_per_step"] = (1e6 * dyn_self / steps if steps else 0.0, "us")
    out["dynamics.steps"] = (steps, "count")
    out["dynamics.steps_per_s"] = (steps / integrate_s if integrate_s else 0.0, "1/s")
    out["dynamics.t_reached"] = (facts.get("dynamics.t_reached", 0.0), "1")
    out["dynamics.recorder_mb"] = (facts.get("dynamics.recorder_bytes", 0) / 1e6, "MB")
    out["dynamics.tracking_ms"] = (1e3 * total("dynamics.tracking_report"), "ms")
    out["dynamics.ergodic_ms"] = (1e3 * total("dynamics.ergodic_average"), "ms")
    n, t = calls.get("schedules.eval", (0, 0.0))
    out["schedules.calls"] = (n, "count")
    out["schedules.eval_s"] = (t, "s")
    out["schedules.validate_ms"] = (1e3 * total("schedules.validate_schedule",
                                                "schedules.attouch_czarnecki_check"), "ms")
    out["config.load_ms"] = (1e3 * total("config.load"), "ms")
    out["deblur.build_ms"] = (1e3 * total("deblur.build_tv_deblur"), "ms")
    out["package.import_s"] = (total("package.import"), "s")
    for name in ("problem.d", "problem.b1", "problem.shifted_resolvent",
                 "operators.resolvent", "imaging.blur", "imaging.gradient"):
        per_call(name)
    out["deblur.isnr_series_ms"] = (1e3 * total("deblur.isnr_series"), "ms")
    out["central_path.points"] = (facts.get("central_path.points", 0), "count")
    out["central_path.iterations"] = (facts.get("central_path.iterations", 0), "count")
    out["central_path.solve_ms"] = (1e3 * total("central_path.central_path"), "ms")
    out["central_path.failures"] = (facts.get("central_path.failures", 0), "count")
    out["runner.run_s"] = (total("runner.run_experiment"), "s")
    out["runner.self_s"] = (self_time("runner.run_experiment"), "s")
    out["runner.emit_csv_ms"] = (1e3 * total("runner.emit_csv"), "ms")
    out["pgmio.write_ms"] = (1e3 * total("pgmio.atomic_write_text", "pgmio.write_pgm"), "ms")
    out["pgmio.bytes_written"] = (facts.get("pgmio.bytes_written", 0), "bytes")
    top = sum(s[2] - s[1] for s in spans if s[3] == -1)
    out["trace.wall_s"] = (result["wall_s"], "s")
    out["trace.unaccounted_s"] = (result["wall_s"] - top, "s")
    return out


def main(argv):
    config_path, out_dir, result_path = argv[:3]
    tracer = Tracer()
    with tracer.phase("package.import"):
        import penaltyflow  # noqa: F401  (the import is what is timed)
        from penaltyflow.config import load_config
        from penaltyflow.runner import run_experiment
    if "--trace" in argv[3:]:
        with tracer.phase("trace.install"):
            install(tracer)
    with tracer.phase("config.load"):
        cfg = load_config(config_path)
    with tracer.phase("runner.run_experiment"):
        report = run_experiment(cfg, out_dir)
    wall_s = time.perf_counter() - _T0
    result = dict(tracer.to_json(), wall_s=wall_s, exit_code=report.exit_code)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
