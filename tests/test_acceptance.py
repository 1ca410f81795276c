"""Acceptance gate: one numbered check per criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them).

Criterion 3 carries one expected failure: with the pinned schedule
(r=0.1, s=0.2, b=1) the scalar instance's regularization path sits at
2/(1 + eps(T) + beta(T)) ~= 0.2595 at T=1e4, far above the 5e-2 target,
which is only reached near t=1e8. The check is kept at its stated tolerance
and marked strict-xfail rather than weakened.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import penaltyflow as pf


def report(num, label, ok, detail):
    print(f"ACCEPTANCE {num} [{label}]: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------- criterion 1
@pytest.mark.parametrize("name", ["scalar", "segment", "shifted-segment"])
def test_criterion_1_funnel_convergence(name):
    prob = pf.build_canonical(name)
    cert = pf.active_set_solve(prob)
    t0 = time.perf_counter()
    sol = pf.least_norm_solution(prob)
    elapsed = time.perf_counter() - t0
    err = float(np.linalg.norm(sol - cert.least_norm_point))
    ok = err <= 1e-3 and elapsed < 1.0
    assert report(1, f"funnel convergence, {name}", ok,
                  f"error {err:.2e} (<=1e-3), {elapsed * 1e3:.0f} ms (<1 s)")


# ---------------------------------------------------------------- criterion 2
@pytest.mark.parametrize("name", ["scalar", "segment", "shifted-segment",
                                  "skew-box"])
def test_criterion_2_solution_map_regularity(name):
    prob = pf.build_canonical(name)
    rng = np.random.default_rng(20)
    violations = 0
    for _ in range(100):
        s1 = (rng.uniform(0.1, 1.0), rng.uniform(1.0, 10.0))
        s2 = (rng.uniform(0.1, 1.0), rng.uniform(1.0, 10.0))
        rep = pf.path_regularity_check(prob, s1, s2)
        if not (rep.passed_sharp and rep.passed_ell):
            violations += 1
    sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
    bad_fd = 0
    for t in np.logspace(0.0, 5.0, 50):
        rep = pf.path_derivative_check(prob, sch, float(t))
        if not rep.passed:
            bad_fd += 1
    ok = violations == 0 and bad_fd == 0
    assert report(2, f"solution-map regularity, {name}", ok,
                  f"{violations} bound violations /100 pairs, "
                  f"{bad_fd} derivative violations /50 times")


# ---------------------------------------------------------------- criterion 3
def _fb_run(name):
    prob = pf.build_canonical(name)
    lam_bar = 0.9 * min(prob.b1.mu, prob.d.eta)
    sch = pf.polynomial_schedule(0.1, 0.2, 1.0, lam_bar, 1.0)
    assert pf.validate_schedule(sch, "FB", (prob.d.eta, prob.b1.mu)).overall
    x0 = np.array([2.0, 2.0]) if prob.dim == 2 else np.zeros(1)
    spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=1e4), store_every=100)
    t0 = time.perf_counter()
    traj = pf.integrate_fb(prob, sch, x0, spec)
    elapsed = time.perf_counter() - t0
    pts = pf.central_path(prob, sch, traj.times[::20], tol=1e-12)
    trep = pf.tracking_report(prob, traj, pts)
    cert = pf.active_set_solve(prob)
    dist = cert.distance_to(traj.final_state)
    lnp_dist = float(np.linalg.norm(traj.final_state - cert.least_norm_point))
    return elapsed, trep, dist, lnp_dist


@pytest.mark.parametrize("name", ["scalar", "segment"])
def test_criterion_3_fb_tracking(name):
    elapsed, trep, _, _ = _fb_run(name)
    n = trep.theta.size
    ok = elapsed < 10.0 and trep.burn_in_index <= n // 2
    assert report(3, f"FB tracking, {name}", ok,
                  f"theta nonincreasing after burn-in index "
                  f"{trep.burn_in_index}/{n}, {elapsed:.1f} s (<10 s)")


def test_criterion_3_fb_distance_segment():
    _, _, _, lnp = _fb_run("segment")
    ok = lnp <= 5e-2
    assert report(3, "FB final distance, segment", ok,
                  f"|x(T) - least-norm| = {lnp:.2e} (<=5e-2)")


@pytest.mark.xfail(strict=True, reason=(
    "with schedule (r=0.1, s=0.2, b=1) the regularization path value "
    "2/(1+eps(T)+beta(T)) is ~0.2595 at T=1e4, so the 5e-2 target is not "
    "reachable at this horizon (it needs t ~ 1e8); kept at the stated "
    "tolerance instead of weakening the check"))
def test_criterion_3_fb_distance_scalar():
    _, _, _, lnp = _fb_run("scalar")
    report(3, "FB final distance, scalar", lnp <= 5e-2,
           f"|x(T) - least-norm| = {lnp:.4f} vs target 5e-2 "
           f"(path value at T=1e4 is 0.2595)")
    assert lnp <= 5e-2


# ---------------------------------------------------------------- criterion 4
def test_criterion_4_fbf_noncocoercive():
    prob = pf.build_canonical("skew-box")
    sch = pf.polynomial_schedule(0.05, 0.25, 1.0, 0.9, 1.0)
    assert pf.validate_schedule(sch, "FBF", (prob.d.eta, prob.b1.mu)).overall
    spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=1e5),
                             safety_factor=1.0, store_every=500)
    traj = pf.integrate_fbf(prob, sch, np.array([1.0, 1.0]), spec)
    final_norm = float(np.linalg.norm(traj.final_state))
    pts = pf.central_path(prob, sch, traj.times[1::8], tol=1e-12)
    trep = pf.tracking_report(prob, traj, pts)

    with pytest.raises(pf.PreconditionError):
        pf.integrate_fb(prob, sch, np.array([1.0, 1.0]),
                        pf.IntegratorSpec(grid=pf.UniformGrid(h=0.1, T=1.0)))
    cert = pf.verify_certificate(prob.d, "cocoercive", modulus=1.0,
                                 samples=300, seed=0, dim=2)

    ok = (final_norm <= 1e-2 and trep.inequality_nonpositive_fraction >= 0.99
          and not cert.passed)
    assert report(4, "FBF non-cocoercive", ok,
                  f"|x(T)| = {final_norm:.2e} (<=1e-2), inequality residual "
                  f"nonpositive at {100 * trep.inequality_nonpositive_fraction:.1f}% "
                  f"of steps (>=99%), FB rejected + certificate fails")


# ---------------------------------------------------------------- criterion 5
def test_criterion_5_full_splitting():
    prob = pf.build_canonical("sfbp-two-penalty")
    sch = pf.polynomial_schedule(0.65, 0.6, 1000.0, 0.9, 1.0)
    assert pf.validate_schedule(sch, "SFBP", (prob.d.eta, prob.b1.mu)).overall
    est, ac_ok = pf.attouch_czarnecki_check(sch)
    assert ac_ok and math.isfinite(est)
    t0 = time.perf_counter()
    spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=1e6), store_every=10)
    traj = pf.integrate_sfbp(prob, sch, np.zeros(1), spec)
    erg = pf.ergodic_average(traj)
    elapsed = time.perf_counter() - t0
    cert = pf.active_set_solve(prob)
    b1_final = float(traj.b1_norms[-1])
    psi_final = float(traj.psi_sums[-1])
    erg_dist = cert.distance_to(erg)
    ok = (b1_final <= 1e-3 and psi_final <= 1e-3 and erg_dist <= 1e-2
          and elapsed < 30.0)
    assert report(5, "full splitting", ok,
                  f"|B1(x(T))| = {b1_final:.2e} (<=1e-3), penalty sum "
                  f"{psi_final:.2e} (<=1e-3), ergodic distance {erg_dist:.2e} "
                  f"(<=1e-2), {elapsed:.1f} s (<30 s)")


# ---------------------------------------------------------------- criterion 6
def test_criterion_6_validator_agreement():
    vals = [0.5 * i / 21.0 for i in range(1, 21)]
    disagreements = []
    for mode in ("FB", "FBF"):
        for r in vals:
            for s in vals:
                sch = pf.polynomial_schedule(r, s, 1.0, 0.9, 1.0)
                exact = pf.validate_schedule(sch, mode, (1.0, 1.0)).overall
                numeric = pf.validate_schedule(dataclasses.replace(sch, family="custom"),
                                               mode, (1.0, 1.0)).overall
                if exact != numeric:
                    disagreements.append((mode, r, s, exact, numeric))
    examples_ok = (
        pf.validate_schedule(pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0),
                             "FB", (1.0, 1.0)).overall is True
        and pf.validate_schedule(pf.polynomial_schedule(0.2, 0.2, 1.0, 0.9, 1.0),
                                 "FBF", (1.0, 1.0)).overall is False
        and "r+s<1/3" in pf.validate_schedule(
            pf.polynomial_schedule(0.2, 0.2, 1.0, 0.9, 1.0),
            "FBF", (1.0, 1.0)).failed_names()
        and pf.validate_schedule(pf.polynomial_schedule(0.05, 0.25, 1.0, 0.9, 1.0),
                                 "FBF", (1.0, 1.0)).overall is True)
    ok = not disagreements and examples_ok
    assert report(6, "schedule validators", ok,
                  f"{len(disagreements)} disagreements on the 20x20 grid "
                  f"(want 0), reference verdicts reproduced: {examples_ok}"), \
        disagreements[:5]


# ---------------------------------------------------------------- criterion 7
def test_criterion_7_operator_calculus():
    descriptors = {
        "zero": pf.zero_op(2),
        "box": pf.box_normal_cone(np.array([-1.0, 0.0]), np.array([1.0, 2.0])),
        "l1": pf.l1_subgradient(0.7, dim=2),
        "affine": pf.affine_op(np.array([[1.0, 0.5], [-0.5, 2.0]]),
                               np.array([0.3, -0.2])),
        "inverse": pf.inverse_op(pf.l1_subgradient(0.7, dim=2)),
    }
    worst_firm = 0.0
    worst_cont = 0.0
    worst_moreau = 0.0
    rng = np.random.default_rng(70)
    for name, op in descriptors.items():
        rep = pf.verify_certificate(op, "firmly-nonexpansive-resolvent",
                                    samples=1000, seed=7)
        worst_firm = max(worst_firm, rep.worst_violation)
        for _ in range(100):
            x = rng.standard_normal(2) * 4
            lam, alpha = rng.uniform(0.05, 4.0, size=2)
            lhs = np.linalg.norm(op.resolvent(lam, x) - op.resolvent(alpha, x))
            rhs = abs(lam - alpha) * np.linalg.norm(pf.yosida_eval(op, lam, x))
            worst_cont = max(worst_cont,
                             (lhs - rhs) / (1.0 + np.linalg.norm(x)))
        if name in ("box", "l1", "affine"):
            inv = pf.inverse_op(op)
            for _ in range(100):
                x = rng.standard_normal(2) * 3
                lam = rng.uniform(0.1, 5.0)
                gap = np.linalg.norm(inv.resolvent(lam, x)
                                     + lam * op.resolvent(1.0 / lam, x / lam) - x)
                worst_moreau = max(worst_moreau, gap / (1.0 + np.linalg.norm(x)))
    worst_adj = 0.0
    k = pf.gaussian_kernel(9, 4.0)
    for _ in range(100):
        x = rng.standard_normal((12, 12))
        y = rng.standard_normal((12, 12))
        u = rng.standard_normal((12, 12))
        v = rng.standard_normal((12, 12))
        lu, lv = pf.discrete_gradient(x)
        g1 = abs((np.vdot(lu, u) + np.vdot(lv, v))
                 - np.vdot(x, pf.discrete_gradient((u, v), adjoint=True)))
        g2 = abs(np.vdot(pf.gaussian_blur(x, k), y)
                 - np.vdot(x, pf.gaussian_blur(y, k, adjoint=True)))
        scale = 1.0 + np.linalg.norm(x) * (np.linalg.norm(y) + np.linalg.norm(u)
                                           + np.linalg.norm(v))
        worst_adj = max(worst_adj, max(g1, g2) / scale)
    norms = {s: pf.gradient_norm_estimate(s) for s in (8, 16, 32, 64)}
    ok = (worst_firm <= 1e-10 and worst_cont <= 1e-10
          and worst_moreau <= 1e-10 and worst_adj <= 1e-10
          and all(v <= 8.0 + 1e-6 for v in norms.values()))
    assert report(7, "operator calculus", ok,
                  f"firm {worst_firm:.1e}, continuity {worst_cont:.1e}, "
                  f"inversion identity {worst_moreau:.1e}, adjoints "
                  f"{worst_adj:.1e} (all <=1e-10), grad norms "
                  f"{max(norms.values()):.4f} (<=8+1e-6)")


# ---------------------------------------------------------------- criterion 8
def test_criterion_8_deblurring_pipeline():
    t0 = time.perf_counter()
    orig = pf.make_test_image("checkerboard", 64)
    inst = pf.build_tv_deblur(orig, kernel_size=9, sigma=4.0, noise_std=1e-3,
                              seed=7)
    prob = inst.problem
    lam_bar = 0.9 * min(prob.b1.mu, prob.d.eta)
    sch = pf.polynomial_schedule(0.05, 0.25, 1.0, lam_bar, 1.0)
    assert pf.validate_schedule(sch, "FBF", (prob.d.eta, prob.b1.mu)).overall
    spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=1e9),
                             store_every=250, max_steps=50000)
    traj = pf.integrate_fbf(prob, sch, inst.x0, spec)
    series = pf.isnr_series(inst, traj)
    half = series[series.size // 2:]
    isnr_ok = (series[-1] > 0.0 and np.all(np.diff(half) > -1e-6)
               and series[-1] > half[0])

    # identity-kernel control: the data-fit solution set is the original
    # image itself; a large time offset starts the penalty at beta = 1e3
    inst_id = pf.build_tv_deblur(orig, kernel_size=1, sigma=1.0,
                                 noise_std=0.0, seed=0)
    prob_id = inst_id.problem
    sch_id = pf.polynomial_schedule(0.05, 0.25, 1e12,
                                    0.9 * min(prob_id.b1.mu, prob_id.d.eta), 1.0)
    assert pf.validate_schedule(sch_id, "FBF", (prob_id.d.eta, prob_id.b1.mu)).overall
    spec_id = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=1e9),
                                safety_factor=1.0, store_every=1000,
                                max_steps=20000)
    traj_id = pf.integrate_fbf(prob_id, sch_id, inst_id.x0, spec_id)
    control_err = float(np.max(np.abs(inst_id.theta_of(traj_id.final_state)
                                      - orig)))
    elapsed = time.perf_counter() - t0
    ok = isnr_ok and control_err <= 1e-2 and elapsed < 60.0
    assert report(8, "deblurring pipeline", ok,
                  f"final ISNR {series[-1]:.2f} dB (>0), increasing over last "
                  f"half (min diff {np.diff(half).min():.1e}), identity control "
                  f"error {control_err:.2e} (<=1e-2), {elapsed:.1f} s (<60 s)")


# ---------------------------------------------------------------- criterion 9
def test_criterion_9_determinism_and_oracle_agreement(tmp_path):
    import json

    from penaltyflow.config import parse_config
    from penaltyflow.runner import run_experiment

    cfg_dict = {
        "instance": "scalar", "mode": "FB",
        "schedule": {"family": "polynomial", "r": 0.1, "s": 0.2, "b": 1,
                     "lambda_bar": 0.9, "gamma_bar": 1.0},
        "grid": {"kind": "uniform", "h": 1.0, "T": 500.0},
        "store_every": 20,
        "outputs": {"trajectory_csv": True, "path_csv": True,
                    "report_json": True, "tracking": True},
        "seed": 3,
    }
    outs = []
    for tag in ("a", "b"):
        cfg = parse_config(json.loads(json.dumps(cfg_dict)))
        rep = run_experiment(cfg, str(tmp_path / tag))
        assert rep.exit_code == 0
        outs.append(tag)
    identical = all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        for f in ("trajectory.csv", "path.csv", "report.json"))

    worst = 0.0
    for name in pf.CANONICAL_NAMES:
        prob = pf.build_canonical(name)
        cert = pf.active_set_solve(prob)
        ref = pf.high_precision_reference(prob)
        worst = max(worst, cert.distance_to(ref))
    ok = identical and worst <= 1e-9
    assert report(9, "determinism + oracle agreement", ok,
                  f"artifacts byte-identical: {identical}, worst oracle "
                  f"disagreement {worst:.1e} (<=1e-9)")
