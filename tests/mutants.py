"""Textual mutants of penaltyflow, each run against the tests that should kill it.

    python tests/mutants.py             # every mutant
    python tests/mutants.py NAME ...    # the named ones
    python tests/mutants.py --list      # names and files only

Each mutant replaces one exact snippet of one file under src/penaltyflow in a
temporary copy of src/, tests/, README.md and pyproject.toml, and runs
``pytest -x`` on SUBSET there. It is killed when pytest fails and survives when
it passes; a snippet that no longer occurs once in its file is reported as
stale, so that a rewrite of the program shows up here instead of silently
testing nothing. A surviving mutant takes about 30 s on two cores. pytest does
not collect this file, and it uses the standard library only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SUBSET = ["tests/test_dynamics.py", "tests/test_operators.py", "tests/test_schedules.py",
          "tests/test_cli.py", "tests/test_instances.py", "tests/test_digests.py",
          "tests/test_central_path.py", "tests/test_imaging.py", "tests/test_oracle.py"]

# (name, file under src/penaltyflow, snippet, replacement)
MUTANTS = [
    # the march
    ("check-every-128", "dynamics.py",
     "if k % 64 == 0 or k + 1 == n:", "if k % 128 == 0 or k + 1 == n:"),
    ("last-step-strict", "dynamics.py",
     "if t + h >= t_end or", "if t + h > t_end or"),
    ("t-end-1e-9", "dynamics.py", "t_end = T - 1e-12", "t_end = T - 1e-9"),
    ("hidden-budget", "dynamics.py",
     "max_steps = spec.max_steps", "max_steps = spec.max_steps or 1000"),
    ("collapse-h-lt-0", "dynamics.py", "if h <= 0:", "if h < 0:"),
    ("check-state-no-isfinite", "dynamics.py",
     "if not math.isfinite(nx) or nx > _BLOWUP:", "if nx > _BLOWUP:"),
    ("blowup-1e13", "dynamics.py", "_BLOWUP = 1e12", "_BLOWUP = 1e13"),
    ("unit-step-skips-h", "dynamics.py",
     "x = x + dx if h == 1.0 else x + zh * dx", "x = x + dx"),
    ("final-dx-unchecked", "dynamics.py",
     'require_finite(dx, "final step")', "pass"),
    ("sample-skips-last", "dynamics.py",
     "if k % every == 0 or n is not None:", "if k % every == 0:"),
    # the step caps and step maps
    ("cap-no-safety", "dynamics.py",
     "_cap(mode, prob, spec.safety_factor)", "_cap(mode, prob, 1.0)"),
    ("fbf-cap-lam", "dynamics.py",
     "safety / (2.0 + 2.0 * lam *", "safety / (2.0 + lam *"),
    ("fb-cap-no-gam", "dynamics.py",
     "safety / (gam * (2.0 + lam * lips(eps, bet)))",
     "safety / (2.0 + lam * lips(eps, bet))"),
    ("fb-cap-assoc", "dynamics.py",
     "(gam * (2.0 + lam * lips(eps, bet)))",
     "(gam * 2.0 + gam * (lam * lips(eps, bet)))"),
    ("sfbp-cap-0.999", "dynamics.py",
     "            return 1.0\n", "            return 0.999\n"),
    ("fb-gam-distributed", "dynamics.py",
     "return gam * (res(lam, x - lam * v) - x), None",
     "return gam * res(lam, x - lam * v) - gam * x, None"),
    ("fbf-neg-lam", "dynamics.py",
     "np.subtract(v, vp, out=vp)\n            vp *= lam",
     "np.subtract(vp, v, out=vp)\n            vp *= -lam"),
    ("psi-at-state", "dynamics.py",
     "js = np.frombuffer(js).reshape", "js = np.frombuffer(xs).reshape"),
    # what the recorder keeps and what tracking recomputes from it
    ("p-norm-of-x", "dynamics.py", "norm(y) if fbf else 0.0", "norm(x) if fbf else 0.0"),
    # the recorder keeps one more vector per sample, here the step dx
    ("recorder-extra-slot", "dynamics.py",
     "            xs += x.tobytes()\n",
     "            xs += x.tobytes()\n            js += dx.tobytes()\n"),
    ("tracking-eps-for-beta", "dynamics.py",
     "traj.lam, traj.eps, traj.beta, traj.gamma)", "traj.lam, traj.eps, traj.eps, traj.gamma)"),
    ("tracking-lips-no-beta", "dynamics.py",
     "prob.lipschitz_bound(traj.eps, traj.beta)", "prob.lipschitz_bound(traj.eps, 0.0)"),
    ("tracking-sfbp-relaxed", "dynamics.py",
     'relax = gam if traj.mode == "FB" else 1.0', "relax = gam"),
    ("final-gap-from-theta", "dynamics.py",
     "gaps[j] = norm(diff)", "gaps[j] = math.sqrt(2.0 * theta[j])"),
    ("tracking-match-tolerant", "dynamics.py",
     "off = traj.times[idx] != p_times",
     "off = np.abs(traj.times[idx] - p_times) > 1e-9 * np.maximum(1.0, np.abs(p_times))"),
    ("ratio-inf-accepted", "dynamics.py",
     '"grid ratio", g.ratio, ">=", 1, "<", math.inf)', '"grid ratio", g.ratio, ">=", 1)'),
    # operators and problem data
    ("norm-strict-tiny", "operators.py", "if s >= _TINY:", "if s > _TINY:"),
    ("norm-no-rescale", "operators.py",
     "    w = v / m\n    return m * math.sqrt(w.dot(w))",
     "    return math.sqrt(s)"),
    ("clamp-drops-lower", "operators.py",
     "    return lambda x: x.clip(lo, hi)\n", "    return lambda x: np.minimum(x, hi)\n"),
    ("lipschitz-no-eps", "problem.py",
     "return 1.0 / self.d.eta + eps + beta / self.b1.mu",
     "return 1.0 / self.d.eta + beta / self.b1.mu"),
    ("potentials-one-way", "problem.py",
     "if (self.psi1 is not None) != has_b2 or (self.psi2 is not None) != has_b2:",
     "if has_b2 and (self.psi1 is None or self.psi2 is None):"),
    ("shifted-lam-only", "problem.py",
     "return lambda lam, beta, x: fn(lam * beta, x)",
     "return lambda lam, beta, x: fn(lam, x)"),
    ("feasible-box-drops-b2", "problem.py",
     'boxes.append((b2.params["lo"], b2.params["hi"]))', "pass"),
    ("certificate-lam-cycle", "operators.py",
     "lam = lams[(k // 3) % 3]", "lam = lams[k % 3]"),
    ("box-dim-unchecked", "operators.py",
     "if dim is not None and dim != n:", "if False:"),
    ("instance-dim-unchecked", "problem.py",
     "if op is not None and op.dim is not None and op.dim != self.dim:", "if False:"),
    ("dim-rule-takes-float", "operators.py",
     'require_int("dim", dim, 1)', 'require_range("dim", dim, ">=", 1)'),
    ("deblur-clip-to-2", "deblur.py",
     "np.clip(theta, 0.0, 1.0, out=box)", "np.clip(theta, 0.0, 2.0, out=box)"),
    ("deblur-uv-swapped", "deblur.py",
     "out=(disc_u, disc_v)", "out=(disc_v, disc_u)"),
    # the noise and the blur taps, which fix the deblurring digests
    ("noise-u1-may-be-zero", "deblur.py",
     "u1 = [1.0 - rng.random() for", "u1 = [rng.random() for"),
    ("noise-halves-swapped", "deblur.py",
     "z = [ri * math.cos(2.0 * math.pi * b) for ri, b in zip(r, u2)]\n"
     "    z += [ri * math.sin(2.0 * math.pi * b) for ri, b in zip(r, u2)]",
     "z = [ri * math.sin(2.0 * math.pi * b) for ri, b in zip(r, u2)]\n"
     "    z += [ri * math.cos(2.0 * math.pi * b) for ri, b in zip(r, u2)]"),
    ("kernel-sigma-positive-only", "imaging.py",
     'require_range("sigma", sigma, ">=", 1e-150, "<=", 1e150)',
     'require_range("sigma", sigma, ">", 0)'),
    ("kernel-exponent-sign", "imaging.py",
     "math.exp(-float(i * i)", "math.exp(float(i * i)"),
    ("taps-unnormalized", "imaging.py", "return g / g.sum()", "return g"),
    ("blur-taps-even", "imaging.py",
     "if kernel.ndim != 1 or kernel.size % 2 == 0:", "if kernel.ndim != 1:"),
    # schedules
    ("samples-grid-array", "schedules.py",
     "np.array([fn(t) for t in times.tolist()], dtype=float)",
     "np.broadcast_to(np.asarray(fn(times), dtype=float), times.shape)"),
    ("fused-lam-rewritten", "schedules.py",
     "return lambda_bar / (bt + lambda_bar * et), et, bt, gamma(t)",
     "return lambda_bar / bt / (1 + lambda_bar * et / bt), et, bt, gamma(t)"),
    ("route-ignores-family", "schedules.py",
     'if sch.family == "polynomial":\n        checks = _exponent_checks',
     'if "r" in sch.params:\n        checks = _exponent_checks'),
    ("fb-band-closed", "schedules.py", "r + s < 0.5, r + s", "r + s <= 0.5, r + s"),
    ("fbf-band-fb", "schedules.py",
     "r + s < 1.0 / 3.0, r + s", "r + s < 0.5, r + s"),
    ("sfbp-s-open", "schedules.py", "0.5 < s <= 1.0, s", "0.5 < s < 1.0, s"),
    ("step-bound-tail-1e6", "schedules.py", "tail = GRID >= 1e7", "tail = GRID >= 1e6"),
    ("attouch-closed", "schedules.py",
     'passed = sch.params["s"] * _RHO_STAR > 1.0',
     'passed = sch.params["s"] * _RHO_STAR >= 1.0'),
    # the central path and its checks
    ("least-norm-first-point", "central_path.py",
     "_diagonal_points(prob, 1e-4)[-1].xbar", "_diagonal_points(prob, 1e-4)[0].xbar"),
    ("fd-forward-pair", "central_path.py",
     "np.linalg.norm(hi - lo)", "np.linalg.norm(hi - mid)"),
    ("times-finite-unchecked", "central_path.py",
     "if not np.all(np.isfinite(times)):", "if False:"),
    # the oracle
    ("oracle-skips-degenerate-face", "oracle.py",
     "raise UnsupportedInstanceError(\n"
     '                        "a face where D is degenerate but not constant is not enumerated")',
     "continue"),
    # the argument rules
    ("tol-guard-passes-nan", "errors.py",
     '">": (operator.gt, "(")', '">": (lambda a, b: not a <= b, "(")'),
    ("int-rule-takes-bool", "errors.py",
     "if isinstance(value, bool) or not isinstance(value, (int, np.integer)):",
     "if not isinstance(value, (int, np.integer)):"),
    ("mu-passes-nan", "problem.py", 'require_range("mu", self.mu, ">", 0)',
     'self.mu != self.mu or require_range("mu", self.mu, ">", 0)'),
    # the runner
    ("outputs-unchecked", "runner.py", "        if cfg.outputs[key]:\n",
     "        if False:\n"),
    ("path-tol-1e-6", "runner.py", "traj.times, tol=1e-10)", "traj.times, tol=1e-6)"),
    ("pgm-any-maxval", "pgmio.py", "if maxval != 255:", "if False:"),
    ("artifact-mode-0600", "pgmio.py", "fd = os.open(tmp, flags, 0o666)",
     "fd = os.open(tmp, flags, 0o600)"),
    ("report-first-b1", "runner.py",
     'float(traj.b1_norms[-1])', 'float(traj.b1_norms[0])'),
    # the one artifact writer
    ("emit-unlisted", "runner.py", "    report.artifacts.append(path)\n", "    pass\n"),
    ("report-write-drops-verdict", "runner.py",
     "report.exit_code = report.exit_code or exc.exit_code",
     "report.exit_code = exc.exit_code"),
    ("emit-oserror-escapes", "runner.py",
     "    try:\n        write(path, *args)\n    except OSError as exc:\n"
     '        raise PenaltyflowError(f"cannot write {name}: {exc.strerror}") from exc\n',
     "    write(path, *args)\n"),
]


def _copy_tree(dest):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    for name in ("README.md", "pyproject.toml"):
        shutil.copy2(ROOT / name, dest / name)


def run(name, path, old, new):
    """'killed', 'survived' or 'stale', the seconds pytest took and the
    first failing test."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        dest = Path(tmp)
        _copy_tree(dest)
        target = dest / "src" / "penaltyflow" / path
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return "stale", 0.0, ""
        target.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p",
                               "no:cacheprovider", *SUBSET], cwd=dest, env=env,
                              capture_output=True, text=True)
        seconds = time.perf_counter() - start
        if proc.returncode == 0:
            return "survived", seconds, ""
        failed = [line.split()[1] for line in proc.stdout.splitlines()
                  if line.startswith("FAILED ")]
        return "killed", seconds, failed[0] if failed else f"exit {proc.returncode}"


def main(argv):
    if argv == ["--list"]:
        for name, path, _, _ in MUTANTS:
            print(f"{name:28s} {path}")
        return 0
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    counts = {"killed": 0, "survived": 0, "stale": 0}
    for name, path, old, new in chosen:
        verdict, seconds, by = run(name, path, old, new)
        counts[verdict] += 1
        print(f"{verdict:8s} {name:28s} {path:13s} {seconds:6.1f} s  {by}", flush=True)
    scored = counts["killed"] + counts["survived"]
    print(f"score {counts['killed']}/{scored} killed; {counts['stale']} stale")
    return 1 if counts["stale"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
