"""Textual mutants of penaltyflow, each run against the tests that should kill it.

    python tests/mutants.py             # every mutant
    python tests/mutants.py NAME ...    # the named ones
    python tests/mutants.py --list      # names and files only

Each mutant replaces one exact snippet of one file under src/penaltyflow in a
temporary copy of src/, tests/, README.md and pyproject.toml, and runs its
known killer there: the first test of SUBSET that failed on it when SUBSET
was last run in full, or the next one where that first one is a hypothesis
test that does not fail on every run. When the killer passes, ``pytest -x``
runs on SUBSET as well. The mutant is killed when pytest fails and survives when it
passes; a snippet that no longer occurs once in its file is reported as
stale, so that a rewrite of the program shows up here instead of silently
testing nothing. A mutant its killer kills takes a few seconds, and one that
survives about 30 s on two cores. Each line printed names the first failing
test; a ``*`` marks one that is not the mutant's known killer, which should
then take its place. pytest does not collect this file, and it uses the
standard library only.
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

# (name, file under src/penaltyflow, snippet, replacement, known killer)
MUTANTS = [
    # the march
    ("check-every-128", "dynamics.py",
     "if k % 64 == 0 or k + 1 == n:", "if k % 128 == 0 or k + 1 == n:",
     "tests/test_dynamics.py::TestForwardBackward::test_blowup_raises_divergence"),
    ("last-step-strict", "dynamics.py",
     "if t + h >= t_end or", "if t + h > t_end or",
     "tests/test_dynamics.py::TestFullSplitting::test_two_penalty_decay_small_horizon"),
    ("t-end-1e-9", "dynamics.py", "t_end = T - 1e-12", "t_end = T - 1e-9",
     "tests/test_dynamics.py::TestSpecAndStorage::test_step_ending_just_short_of_T_is_taken"),
    ("hidden-budget", "dynamics.py",
     "max_steps = spec.max_steps", "max_steps = spec.max_steps or 1000",
     "tests/test_dynamics.py::test_march_equals_reference"),
    ("collapse-h-lt-0", "dynamics.py", "if h <= 0:", "if h < 0:",
     "tests/test_dynamics.py::TestRunGuards::test_infinite_beta_collapses_the_step[integrate_fb-scalar]"),
    ("check-state-no-isfinite", "dynamics.py",
     "if not math.isfinite(nx) or nx > _BLOWUP:", "if nx > _BLOWUP:",
     "tests/test_dynamics.py::TestRunGuards::test_nan_state_mid_run_diverges"),
    ("blowup-1e13", "dynamics.py", "_BLOWUP = 1e12", "_BLOWUP = 1e13",
     "tests/test_dynamics.py::TestForwardBackward::test_blowup_raises_divergence"),
    ("unit-step-skips-h", "dynamics.py",
     "x = x + dx if h == 1.0 else x + zh * dx", "x = x + dx",
     "tests/test_dynamics.py::test_march_equals_reference"),
    ("final-dx-unchecked", "dynamics.py",
     'require_finite(dx, "final step")', "pass",
     "tests/test_dynamics.py::TestNonFiniteFinalStep::test_nan_on_the_final_call[integrate_fb-scalar]"),
    ("sample-skips-last", "dynamics.py",
     "if k % every == 0 or n is not None:", "if k % every == 0:",
     "tests/test_dynamics.py::test_march_equals_reference"),
    # the step caps and step maps
    ("cap-no-safety", "dynamics.py",
     "_cap(mode, prob, spec.safety_factor)", "_cap(mode, prob, 1.0)",
     "tests/test_dynamics.py::test_march_equals_reference"),
    ("fbf-cap-lam", "dynamics.py",
     "safety / (2.0 + 2.0 * lam *", "safety / (2.0 + lam *",
     "tests/test_dynamics.py::test_march_equals_reference"),
    ("fb-cap-no-gam", "dynamics.py",
     "safety / (gam * (2.0 + lam * lips(eps, bet)))",
     "safety / (2.0 + lam * lips(eps, bet))",
     "tests/test_dynamics.py::test_march_equals_reference"),
    ("fb-cap-assoc", "dynamics.py",
     "(gam * (2.0 + lam * lips(eps, bet)))",
     "(gam * 2.0 + gam * (lam * lips(eps, bet)))",
     "tests/test_dynamics.py::test_march_equals_reference"),
    ("sfbp-cap-0.999", "dynamics.py",
     "            return 1.0\n", "            return 0.999\n",
     "tests/test_dynamics.py::test_march_equals_reference"),
    ("fb-gam-distributed", "dynamics.py",
     "return gam * (res(lam, x - lam * v) - x), None",
     "return gam * res(lam, x - lam * v) - gam * x, None",
     "tests/test_dynamics.py::test_march_equals_reference"),
    # differs from the step only in the sign of a zero coordinate of dx, which
    # x + h*dx never shows; the direct step-map case on "signed-zero" sees it
    ("fbf-neg-lam", "dynamics.py",
     "mul(sub(v, vp, vp), lam, vp)", "mul(sub(vp, v, vp), -lam, vp)",
     "tests/test_dynamics.py::test_step_map_writes_into_no_input_and_returns_reference_step[FBF-signed-zero]"),
    # p may be the array the oracle was handed ("own-argument")
    ("fbf-reuses-oracle-input", "dynamics.py",
     "add(vp, mul(bet, b_eval(p), dx), vp)", "add(vp, mul(bet, b_eval(p), q), vp)",
     "tests/test_dynamics.py::test_march_equals_reference"),
    ("psi-at-state", "dynamics.py",
     "js = np.frombuffer(js).reshape", "js = np.frombuffer(xs).reshape",
     "tests/test_dynamics.py::TestSpecAndStorage::test_step_ending_just_short_of_T_is_taken"),
    # what the recorder keeps and what tracking recomputes from it
    ("p-norm-of-x", "dynamics.py", "norm(y) if fbf else 0.0", "norm(x) if fbf else 0.0",
     "tests/test_dynamics.py::test_march_equals_reference"),
    # the recorder keeps one more vector per sample, here the step dx
    ("recorder-extra-slot", "dynamics.py",
     "            xs += x.tobytes()\n",
     "            xs += x.tobytes()\n            js += dx.tobytes()\n",
     "tests/test_dynamics.py::test_march_equals_reference"),
    ("tracking-eps-for-beta", "dynamics.py",
     "traj.lam, traj.eps, traj.beta, traj.gamma)", "traj.lam, traj.eps, traj.eps, traj.gamma)",
     "tests/test_dynamics.py::TestTracking::test_recomputed_step_equals_stored_vector_formula"),
    ("tracking-lips-no-beta", "dynamics.py",
     "prob.lipschitz_bound(traj.eps, traj.beta)", "prob.lipschitz_bound(traj.eps, 0.0)",
     "tests/test_dynamics.py::TestTracking::test_recomputed_step_equals_stored_vector_formula"),
    ("tracking-sfbp-relaxed", "dynamics.py",
     'relax = gam if traj.mode == "FB" else 1.0', "relax = gam",
     "tests/test_dynamics.py::TestTracking::test_sfbp_inequality_reads_no_gamma"),
    ("final-gap-from-theta", "dynamics.py",
     "gaps[j] = norm(diff)", "gaps[j] = math.sqrt(2.0 * theta[j])",
     "tests/test_dynamics.py::TestTracking::test_recomputed_step_equals_stored_vector_formula"),
    ("tracking-match-tolerant", "dynamics.py",
     "off = traj.times[idx] != p_times",
     "off = np.abs(traj.times[idx] - p_times) > 1e-9 * np.maximum(1.0, np.abs(p_times))",
     "tests/test_dynamics.py::TestTracking::test_grid_mismatch_rejected"),
    ("ratio-inf-accepted", "dynamics.py",
     '"grid ratio", self.ratio, ">=", 1, "<", math.inf)', '"grid ratio", self.ratio, ">=", 1)',
     "tests/test_dynamics.py::TestSpecAndStorage::test_invalid_field_named_with_its_value[ratio]"),
    ("t-inf-accepted", "dynamics.py",
     '"grid T", self.T, ">", 1e-12, "<", math.inf)', '"grid T", self.T, ">", 1e-12)',
     "tests/test_dynamics.py::TestSpecAndStorage::test_invalid_field_named_with_its_value[T]"),
    ("h-never-grows", "dynamics.py",
     "t, k, h_req = t + h, k + 1, h_req * ratio", "t, k, h_req = t + h, k + 1, h_req",
     "tests/test_dynamics.py::test_march_equals_reference"),
    # the config's grid table
    ("uniform-ratio-not-1", "config.py",
     'return {"ratio": 1.0, **', 'return {"ratio": 1.0001, **',
     "tests/test_cli.py::TestConfigParsing::test_grid_gives_the_spec_its_steps[default]"),
    # operators and problem data
    ("norm-strict-tiny", "operators.py", "if s >= _TINY:", "if s > _TINY:",
     "tests/test_operators.py::TestVectors::test_norm_keeps_the_dot_bits_at_the_smallest_normal"),
    ("norm-no-rescale", "operators.py",
     "    w = v / m\n    return m * math.sqrt(w.dot(w))",
     "    return math.sqrt(s)",
     "tests/test_operators.py::TestVectors::test_norm_of_a_subnormal_vector"),
    ("clamp-drops-lower", "operators.py",
     "    return lambda x: x.clip(lo, hi)\n", "    return lambda x: np.minimum(x, hi)\n",
     "tests/test_dynamics.py::TestExactStationarity::test_path_point_is_exact_fixed_point_of_both_steps"),
    ("lipschitz-no-eps", "problem.py",
     "return 1.0 / self.d.eta + eps + beta / self.b1.mu",
     "return 1.0 / self.d.eta + beta / self.b1.mu",
     "tests/test_dynamics.py::TestSoundness::test_fbf_leaves_the_path_while_lam_l_exceeds_1"),
    ("potentials-one-way", "problem.py",
     "if (self.psi1 is not None) != has_b2 or (self.psi2 is not None) != has_b2:",
     "if has_b2 and (self.psi1 is None or self.psi2 is None):",
     "tests/test_instances.py::TestCanonicalInstances::test_potentials_come_with_b2_and_only_with_it[psi1-without-B2]"),
    ("shifted-lam-only", "problem.py",
     "return lambda lam, beta, x: fn(lam * beta, x)",
     "return lambda lam, beta, x: fn(lam, x)",
     "tests/test_instances.py::TestCanonicalInstances::test_combined_resolvent_pairs[a4-b24-x4-expected4]"),
    ("feasible-box-drops-b2", "problem.py",
     'boxes.append((b2.params["lo"], b2.params["hi"]))', "pass",
     "tests/test_instances.py::TestCanonicalInstances::test_feasible_box_intersects_every_box"),
    ("certificate-lam-cycle", "operators.py",
     "lam = lams[(k // 3) % 3]", "lam = lams[k % 3]",
     "tests/test_operators.py::TestCertificatesAndCalculus::test_resolvent_certificate_pairs_each_radius_with_each_lam"),
    ("box-dim-unchecked", "operators.py",
     "if dim is not None and dim != n:", "if False:",
     "tests/test_operators.py::test_argument_rules_name_the_argument_and_value[box-dim-2-of-3]"),
    ("instance-dim-unchecked", "problem.py",
     "if op is not None and op.dim is not None and op.dim != self.dim:", "if False:",
     "tests/test_operators.py::test_argument_rules_name_the_argument_and_value[instance-a-dim-3-of-1]"),
    ("dim-rule-takes-float", "operators.py",
     'require_int("dim", dim, 1)', 'require_range("dim", dim, ">=", 1)',
     "tests/test_operators.py::test_argument_rules_name_the_argument_and_value[zero-dim-2.5]"),
    ("deblur-clip-to-2", "deblur.py",
     "np.clip(theta, 0.0, 1.0, out=box)", "np.clip(theta, 0.0, 2.0, out=box)",
     "tests/test_operators.py::TestProjections::test_pair_ball_and_deblur_resolvents_bytewise"),
    ("deblur-uv-swapped", "deblur.py",
     "out=(disc_u, disc_v)", "out=(disc_v, disc_u)",
     "tests/test_operators.py::TestProjections::test_pair_ball_and_deblur_resolvents_bytewise"),
    # the noise and the blur taps, which fix the deblurring digests
    ("noise-u1-may-be-zero", "deblur.py",
     "u1 = [1.0 - rng.random() for", "u1 = [rng.random() for",
     "tests/test_digests.py::test_artifacts_match_golden_digests_one_blas_thread"),
    ("noise-halves-swapped", "deblur.py",
     "z = [ri * math.cos(2.0 * math.pi * b) for ri, b in zip(r, u2)]\n"
     "    z += [ri * math.sin(2.0 * math.pi * b) for ri, b in zip(r, u2)]",
     "z = [ri * math.sin(2.0 * math.pi * b) for ri, b in zip(r, u2)]\n"
     "    z += [ri * math.cos(2.0 * math.pi * b) for ri, b in zip(r, u2)]",
     "tests/test_digests.py::test_artifacts_match_golden_digests_one_blas_thread"),
    ("kernel-sigma-positive-only", "imaging.py",
     'require_range("sigma", sigma, ">=", 1e-150, "<=", 1e150)',
     'require_range("sigma", sigma, ">", 0)',
     "tests/test_operators.py::test_argument_rules_name_the_argument_and_value[sigma]"),
    ("kernel-exponent-sign", "imaging.py",
     "math.exp(-float(i * i)", "math.exp(float(i * i)",
     "tests/test_digests.py::test_artifacts_match_golden_digests_one_blas_thread"),
    ("taps-unnormalized", "imaging.py", "return g / g.sum()", "return g",
     "tests/test_dynamics.py::TestForwardBackwardForward::test_step_writes_into_no_input_or_operator_output[deblur-8]"),
    ("blur-taps-even", "imaging.py",
     "if kernel.ndim != 1 or kernel.size % 2 == 0:", "if kernel.ndim != 1:",
     "tests/test_imaging.py::TestGaussianBlur::test_shape_errors"),
    # schedules
    ("samples-grid-array", "schedules.py",
     "np.array([fn(t) for t in times.tolist()], dtype=float)",
     "np.broadcast_to(np.asarray(fn(times), dtype=float), times.shape)",
     "tests/test_dynamics.py::TestSoundness::test_accepted_schedule_ends_near_the_path"),
    ("fused-lam-rewritten", "schedules.py",
     "return lambda_bar / (bt + lambda_bar * et), et, bt, gamma(t)",
     "return lambda_bar / bt / (1 + lambda_bar * et / bt), et, bt, gamma(t)",
     "tests/test_schedules.py::TestAt::test_polynomial_fused"),
    ("route-ignores-family", "schedules.py",
     'if sch.family == "polynomial":\n        checks = _exponent_checks',
     'if "r" in sch.params:\n        checks = _exponent_checks',
     "tests/test_schedules.py::TestOneEvaluation::test_check_names_in_order[FB-True]"),
    ("fb-band-closed", "schedules.py", "r + s < 0.5, r + s", "r + s <= 0.5, r + s",
     "tests/test_schedules.py::TestValidators::test_exponent_and_numeric_agree_on_subgrid"),
    ("fbf-band-fb", "schedules.py",
     "r + s < 1.0 / 3.0, r + s", "r + s < 0.5, r + s",
     "tests/test_schedules.py::TestValidators::test_fbf_reference_verdict_fails_with_named_check"),
    ("sfbp-s-open", "schedules.py", "0.5 < s <= 1.0, s", "0.5 < s < 1.0, s",
     "tests/test_schedules.py::TestValidators::test_sfbp_checks"),
    ("step-bound-tail-1e6", "schedules.py", "tail = GRID >= 1e7", "tail = GRID >= 1e6",
     "tests/test_digests.py::test_artifacts_match_golden_digests_one_blas_thread"),
    ("attouch-closed", "schedules.py",
     'passed = sch.params["s"] * _RHO_STAR > 1.0',
     'passed = sch.params["s"] * _RHO_STAR >= 1.0',
     "tests/test_schedules.py::TestAttouchCzarnecki::test_polynomial_exact_rule"),
    # the central path and its checks
    ("least-norm-first-point", "central_path.py",
     "_diagonal_points(prob, 1e-4)[-1].xbar", "_diagonal_points(prob, 1e-4)[0].xbar",
     "tests/test_central_path.py::TestLeastNorm::test_matches_oracle[scalar-expected0]"),
    ("fd-forward-pair", "central_path.py",
     "np.linalg.norm(hi - lo)", "np.linalg.norm(hi - mid)",
     "tests/test_central_path.py::TestRegularity::test_derivative_bound_on_scalar"),
    ("times-finite-unchecked", "central_path.py",
     "if not np.all(np.isfinite(times)):", "if False:",
     "tests/test_central_path.py::test_nan_is_a_parameter_error[inf-time]"),
    # the oracle
    ("oracle-skips-degenerate-face", "oracle.py",
     "raise UnsupportedInstanceError(\n"
     '                        "a face where D is degenerate but not constant is not enumerated")',
     "continue",
     "tests/test_oracle.py::TestActiveSetSolve::test_degenerate_face_rejected"),
    # the argument rules
    ("tol-guard-passes-nan", "errors.py",
     '">": (operator.gt, "(")', '">": (lambda a, b: not a <= b, "(")',
     "tests/test_dynamics.py::TestSpecAndStorage::test_invalid_spec_rejected"),
    ("int-rule-takes-bool", "errors.py",
     "if isinstance(value, bool) or not isinstance(value, (int, np.integer)):",
     "if not isinstance(value, (int, np.integer)):",
     "tests/test_dynamics.py::TestSpecAndStorage::test_store_every_must_be_an_integer[True]"),
    ("mu-passes-nan", "problem.py", 'require_range("mu", self.mu, ">", 0)',
     'self.mu != self.mu or require_range("mu", self.mu, ">", 0)',
     "tests/test_operators.py::test_argument_rules_name_the_argument_and_value[mu]"),
    # the runner
    ("outputs-unchecked", "runner.py", "        if cfg.outputs[key]:\n",
     "        if False:\n",
     "tests/test_cli.py::TestCliCommands::test_validate_runs_the_run_preflight[deblur-tracking]"),
    ("path-tol-1e-6", "runner.py", "traj.times, tol=1e-10)", "traj.times, tol=1e-6)",
     "tests/test_cli.py::TestRunExperiment::test_minimal_scalar_run"),
    ("pgm-any-maxval", "pgmio.py", "if maxval != 255:", "if False:",
     "tests/test_cli.py::TestPgmRoundTrip::test_header_other_than_write_pgm_rejected[maxval-65535]"),
    ("artifact-mode-0600", "pgmio.py", "fd = os.open(tmp, flags, 0o666)",
     "fd = os.open(tmp, flags, 0o600)",
     "tests/test_cli.py::TestPgmRoundTrip::test_new_file_mode_follows_umask[022]"),
    ("report-first-b1", "runner.py",
     'float(traj.b1_norms[-1])', 'float(traj.b1_norms[0])',
     "tests/test_digests.py::test_artifacts_match_golden_digests_one_blas_thread"),
    # the one artifact writer
    ("emit-unlisted", "runner.py", "    report.artifacts.append(path)\n", "    pass\n",
     "tests/test_cli.py::TestRunExperiment::test_step_vectors_kept_for_the_outputs_that_read_them[outputs2-True]"),
    ("report-write-drops-verdict", "runner.py",
     "report.exit_code = report.exit_code or exc.exit_code",
     "report.exit_code = exc.exit_code",
     "tests/test_cli.py::TestCliCommands::test_unwritable_report_keeps_the_verdict[schedule]"),
    ("emit-oserror-escapes", "runner.py",
     "    try:\n        write(path, *args)\n    except OSError as exc:\n"
     '        raise PenaltyflowError(f"cannot write {name}: {exc.strerror}") from exc\n',
     "    write(path, *args)\n",
     "tests/test_cli.py::TestCliCommands::test_failed_artifact_write_writes_report[trajectory]"),
]


# the copy's conftest.py: hypothesis reports the first failing example it
# finds without shrinking it, which took up to two minutes, since only the
# verdict and the failing test are read
CONFTEST = """from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate,
                                             Phase.target])
settings.load_profile("mutants")
"""


def _copy_tree(dest):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    for name in ("README.md", "pyproject.toml"):
        shutil.copy2(ROOT / name, dest / name)
    (dest / "conftest.py").write_text(CONFTEST, encoding="utf-8")


def _pytest(dest, env, targets):
    """The exit code of ``pytest -x`` on ``targets`` in ``dest``, and its
    first failing test."""
    proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p",
                           "no:cacheprovider", *targets], cwd=dest, env=env,
                          capture_output=True, text=True)
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")]
    return proc.returncode, failed[0] if failed else f"exit {proc.returncode}"


def run(name, path, old, new, killer):
    """'killed', 'survived' or 'stale', the seconds pytest took and the
    first failing test. Only a failure of the killer itself (exit code 1)
    kills without SUBSET; a killer that passes or cannot be collected falls
    back to it."""
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
        code, by = _pytest(dest, env, [killer])
        if code != 1:
            code, by = _pytest(dest, env, SUBSET)
        seconds = time.perf_counter() - start
        if code == 0:
            return "survived", seconds, ""
        return "killed", seconds, by


def main(argv):
    if argv == ["--list"]:
        for name, path, *_ in MUTANTS:
            print(f"{name:28s} {path}")
        return 0
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    counts = {"killed": 0, "survived": 0, "stale": 0}
    for name, path, old, new, killer in chosen:
        verdict, seconds, by = run(name, path, old, new, killer)
        counts[verdict] += 1
        mark = "*" if by and by != killer else ""
        print(f"{verdict:8s} {name:28s} {path:13s} {seconds:6.1f} s  {by}{mark}", flush=True)
    scored = counts["killed"] + counts["survived"]
    print(f"score {counts['killed']}/{scored} killed; {counts['stale']} stale")
    return 1 if counts["stale"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
