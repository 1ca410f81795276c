import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import penaltyflow as pf
from penaltyflow.dynamics import Trajectory, check_mode
from penaltyflow.errors import (DivergenceError, ParameterError,
                                PreconditionError)
from penaltyflow.problem import LipschitzOperator, PenaltyOperator, ProblemInstance

INF = math.inf


def trivial_problem(dim=1):
    """A = 0, D = 0, B = 0: every point is stationary for every field."""
    d = LipschitzOperator(eval=lambda x: np.zeros_like(x), eta=INF, cocoercive=True)
    b1 = PenaltyOperator(eval=lambda x: np.zeros_like(x), mu=INF,
                         projector=lambda x: x,
                         zero_set_box=(np.full(dim, -INF), np.full(dim, INF)))
    return ProblemInstance(a=pf.zero_op(dim), d=d, b1=b1, dim=dim, name="trivial")


def projection_sfbp_problem():
    """A = 0, second potential = indicator of (-inf, 0], D = 0, B1 = 0."""
    d = LipschitzOperator(eval=lambda x: np.zeros_like(x), eta=INF, cocoercive=True)
    b1 = PenaltyOperator(eval=lambda x: np.zeros_like(x), mu=INF,
                         projector=lambda x: x,
                         zero_set_box=(np.array([-INF]), np.array([INF])))
    b2 = pf.box_normal_cone(np.array([-INF]), np.array([0.0]), dim=1)
    return ProblemInstance(a=pf.zero_op(1), d=d, b1=b1, b2=b2, dim=1,
                           psi1=lambda x: 0.0,
                           psi2=lambda x: 0.0 if np.all(x <= 1e-9) else INF,
                           name="projection-sfbp")


def manual_trajectory(times, states, lam):
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    n = times.size
    ones = np.ones(n)
    return Trajectory(mode="SFBP", times=times, states=states,
                      step_sizes=np.diff(times, prepend=0.0),
                      xdots=np.zeros_like(states), b1_norms=np.zeros(n),
                      psi_sums=None, aux_points=None,
                      lam=np.asarray(lam, dtype=float), eps=ones, beta=ones,
                      gamma=ones, lips=ones, n_steps_total=n,
                      step_indices=np.arange(n))


class TestForwardBackward:
    def test_linear_recursion_exact(self):
        prob = trivial_problem()
        sch = pf.constant_schedule(eps=0.1, beta=0.0, lam=0.1, gamma=1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=100.0),
                                 cap_steps=False)
        traj = pf.integrate_fb(prob, sch, np.array([1.0]), spec)
        assert traj.n_steps_total == 100
        assert traj.final_state[0] == pytest.approx(0.99 ** 100, rel=1e-12)

    def test_origin_is_stationary(self):
        prob = trivial_problem(2)
        sch = pf.constant_schedule(eps=0.3, beta=0.0, lam=0.2, gamma=1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=0.5, T=20.0),
                                 cap_steps=False)
        traj = pf.integrate_fb(prob, sch, np.zeros(2), spec)
        assert np.all(traj.states == 0.0)

    def test_scalar_reaches_funnel_point(self):
        # oracle: the funnel point 2 / (1 + eps + beta) evaluated at T
        prob = pf.build_canonical("scalar")
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=1e4),
                                 store_every=200)
        traj = pf.integrate_fb(prob, sch, np.zeros(1), spec)
        T = traj.final_time
        target = 2.0 / (1.0 + sch.eps(T) + sch.beta(T))
        assert abs(traj.final_state[0] - target) <= 2e-3

    def test_noncocoercive_rejected_at_precondition(self):
        prob = pf.build_canonical("skew-box")
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=0.1, T=1.0))
        with pytest.raises(PreconditionError):
            pf.integrate_fb(prob, sch, np.zeros(2), spec)

    def test_two_penalty_instance_rejected(self):
        prob = pf.build_canonical("sfbp-two-penalty")
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=0.1, T=1.0))
        with pytest.raises(PreconditionError):
            pf.integrate_fb(prob, sch, np.zeros(1), spec)

    def test_blowup_raises_divergence(self):
        prob = pf.build_canonical("scalar")
        sch = pf.constant_schedule(eps=1.0, beta=1.0, lam=10.0, gamma=1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=1e4),
                                 cap_steps=False)
        with pytest.raises(DivergenceError) as exc:
            pf.integrate_fb(prob, sch, np.array([1.0]), spec)
        assert exc.value.step_index is not None

    def test_step_map_lipschitz_bound(self):
        prob = pf.build_canonical("scalar")
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        rng = np.random.default_rng(4)
        for t in (0.0, 5.0, 100.0):
            lam, eps, bet, gam = (float(f(t)) for f in
                                  (sch.lam, sch.eps, sch.beta, sch.gamma))
            lips = prob.lipschitz_bound(eps, bet)
            h = 0.1

            def step(x):
                v = prob.vfield(eps, bet, x)
                p = prob.a.resolvent(lam, x - lam * v)
                return x + h * gam * (p - x)

            for _ in range(50):
                x, y = rng.standard_normal((2, 1)) * 5
                bound = (1.0 + gam * h * (2.0 + lam * lips)) * np.linalg.norm(x - y)
                assert np.linalg.norm(step(x) - step(y)) <= bound + 1e-12

    def test_grid_refinement_first_order(self):
        prob = pf.build_canonical("scalar")
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        finals = []
        for h in (0.2, 0.1, 0.05):
            spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=h, T=50.0),
                                     cap_steps=False, store_every=1000)
            finals.append(pf.integrate_fb(prob, sch, np.array([3.0]), spec)
                          .final_state[0])
        e1 = abs(finals[0] - finals[1])
        e2 = abs(finals[1] - finals[2])
        order = math.log2(e1 / e2)
        assert 0.8 <= order <= 1.2


class TestForwardBackwardForward:
    def test_linear_recursion_exact(self):
        prob = trivial_problem()
        sch = pf.constant_schedule(eps=0.2, beta=0.0, lam=0.5, gamma=1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=10.0),
                                 cap_steps=False)
        traj = pf.integrate_fbf(prob, sch, np.array([1.0]), spec)
        # lam*eps = 0.1: X+ = (1 - 0.1*(1 - 0.1)) X = 0.91 X
        assert traj.final_state[0] == pytest.approx(0.91 ** 10, rel=1e-12)

    def test_skew_box_converges(self):
        prob = pf.build_canonical("skew-box")
        sch = pf.polynomial_schedule(0.05, 0.25, 1.0, 0.9, 1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=1e4),
                                 safety_factor=1.0, store_every=100)
        traj = pf.integrate_fbf(prob, sch, np.array([1.0, 1.0]), spec)
        assert np.linalg.norm(traj.final_state) <= 1e-3

    def test_skew_box_stationary_origin(self):
        prob = pf.build_canonical("skew-box")
        sch = pf.polynomial_schedule(0.05, 0.25, 1.0, 0.9, 1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=0.5, T=100.0),
                                 store_every=10)
        traj = pf.integrate_fbf(prob, sch, np.zeros(2), spec)
        assert np.linalg.norm(traj.final_state) <= 1e-12

    def test_aux_points_stored(self):
        prob = pf.build_canonical("skew-box")
        sch = pf.polynomial_schedule(0.05, 0.25, 1.0, 0.9, 1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=0.5, T=10.0))
        traj = pf.integrate_fbf(prob, sch, np.array([0.5, 0.5]), spec)
        assert traj.aux_points is not None
        assert traj.aux_points.shape == traj.states.shape


class TestFullSplitting:
    def test_projection_recursion_matches_reference(self):
        prob = projection_sfbp_problem()
        lam, eps, h = 0.3, 0.5, 0.5
        sch = pf.constant_schedule(eps=eps, beta=1.0, lam=lam, gamma=1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=h, T=5.0),
                                 cap_steps=False)
        for x0 in (3.0, -1.0):
            traj = pf.integrate_sfbp(prob, sch, np.array([x0]), spec)
            x = x0
            for _ in range(traj.n_steps_total):
                x = (1.0 - h) * x + h * min(x * (1.0 - lam * eps), 0.0)
            assert traj.final_state[0] == pytest.approx(x, rel=1e-12, abs=1e-15)

    def test_negative_start_is_linear_decay(self):
        prob = projection_sfbp_problem()
        lam, eps, h = 0.3, 0.5, 0.25
        sch = pf.constant_schedule(eps=eps, beta=1.0, lam=lam, gamma=1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=h, T=4.0),
                                 cap_steps=False)
        traj = pf.integrate_sfbp(prob, sch, np.array([-1.0]), spec)
        factor = (1.0 - h * lam * eps) ** traj.n_steps_total
        assert traj.final_state[0] == pytest.approx(-factor, rel=1e-12)

    def test_feasible_stationary_start(self):
        # the full field vanishes at 0 for the D = 0 variant: exact fixed point
        prob0 = projection_sfbp_problem()
        sch = pf.polynomial_schedule(0.65, 0.6, 1000.0, 0.9, 1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=100.0))
        traj = pf.integrate_sfbp(prob0, sch, np.zeros(1), spec)
        assert np.all(traj.states == 0.0)
        # a feasible start away from the origin keeps the penalties at zero
        traj2 = pf.integrate_sfbp(prob0, sch, np.array([-2.0]), spec)
        assert traj2.final_state[0] <= 0.0
        assert traj2.psi_sums is not None and np.all(traj2.psi_sums == 0.0)

    def test_missing_second_penalty_rejected(self):
        prob = pf.build_canonical("scalar")
        sch = pf.polynomial_schedule(0.65, 0.6, 1000.0, 0.9, 1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=10.0))
        with pytest.raises(PreconditionError):
            pf.integrate_sfbp(prob, sch, np.zeros(1), spec)

    def test_two_penalty_decay_small_horizon(self):
        prob = pf.build_canonical("sfbp-two-penalty")
        sch = pf.polynomial_schedule(0.65, 0.6, 1000.0, 0.9, 1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=2e4),
                                 store_every=5)
        traj = pf.integrate_sfbp(prob, sch, np.zeros(1), spec)
        erg = pf.ergodic_average(traj, sch)
        cert = pf.active_set_solve(prob)
        assert cert.distance_to(erg) <= 0.1
        assert traj.b1_norms[-1] <= 0.01
        assert traj.psi_sums[-1] <= 1e-3


def _fb_reference(prob, x, h, lam, eps, bet, gam):
    p = prob.a.resolvent(lam, x - lam * prob.vfield(eps, bet, x))
    return (1.0 - gam * h) * x + gam * h * p


def _fbf_reference(prob, x, h, lam, eps, bet, gam):
    p = prob.a.resolvent(lam, x - lam * prob.vfield(eps, bet, x))
    return x + h * (p - x + lam * (prob.vfield(eps, bet, x) - prob.vfield(eps, bet, p)))


def _sfbp_reference(prob, x, h, lam, eps, bet, gam):
    j = prob.resolvent_shifted(lam, bet, x - lam * prob.vfield(eps, bet, x))
    return (1.0 - h) * x + h * j


class TestSchemesMatchDocstringRecursion:
    """Each flow, uncapped under a constant schedule, is the module docstring's
    recursion written out by hand."""

    @pytest.mark.parametrize("integrate, instance, reference", [
        (pf.integrate_fb, "scalar", _fb_reference),
        (pf.integrate_fbf, "skew-box", _fbf_reference),
        (pf.integrate_sfbp, "sfbp-two-penalty", _sfbp_reference),
    ])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), h=st.floats(0.05, 1.0), lam=st.floats(0.01, 0.5),
           eps=st.floats(0.0, 1.0))
    def test_states_follow_recursion(self, integrate, instance, reference,
                                     data, h, lam, eps):
        prob = pf.build_canonical(instance)
        x0 = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=prob.dim,
                                         max_size=prob.dim)))
        bet, gam = 1.0, 0.8
        sch = pf.constant_schedule(eps=eps, beta=bet, lam=lam, gamma=gam)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=h, T=5.0), cap_steps=False)
        traj = integrate(prob, sch, x0, spec)
        assert traj.n_steps_total == traj.times.size - 1
        x = x0
        for k in range(traj.n_steps_total):
            np.testing.assert_allclose(traj.states[k], x, rtol=1e-14, atol=1e-14)
            x = reference(prob, x, traj.step_sizes[k], lam, eps, bet, gam)
        np.testing.assert_allclose(traj.final_state, x, rtol=1e-14, atol=1e-14)


_MODES = {"FB": (pf.integrate_fb, "scalar", (0.1, 0.2, 1.0)),
          "FBF": (pf.integrate_fbf, "skew-box", (0.05, 0.25, 1.0)),
          "SFBP": (pf.integrate_sfbp, "sfbp-two-penalty", (0.65, 0.6, 1000.0))}


def reference_grid(mode, prob, sch, spec):
    """Times and steps by the two-pass algorithm the marching loop replaced:
    a grid pass that sizes each step from a scalar schedule evaluation."""
    g = spec.grid
    if isinstance(g, pf.UniformGrid):
        h_req = lambda t, h=g.h: h
    else:
        state = {"h": g.h0}

        def h_req(t, state=state, ratio=g.ratio):
            h = state["h"]
            state["h"] = h * ratio
            return h

    def cap(t):
        if mode == "SFBP":
            return 1.0
        lam, eps, bet, gam = (float(f(t)) for f in
                              (sch.lam, sch.eps, sch.beta, sch.gamma))
        lips = prob.lipschitz_bound(eps, bet)
        if mode == "FB":
            if not spec.cap_steps:
                return 1.0 / gam
            return min(1.0 / gam, spec.safety_factor / (gam * (2.0 + lam * lips)))
        if not spec.cap_steps:
            return math.inf
        return spec.safety_factor / (2.0 + 2.0 * lam * lips)

    max_steps = spec.max_steps if spec.max_steps is not None else 50_000_000
    ts, hs, t = [0.0], [], 0.0
    while t < g.T - 1e-12 and len(hs) < max_steps:
        h = min(h_req(t), cap(t), g.T - t)
        hs.append(h)
        t += h
        ts.append(t)
    return np.asarray(ts), np.asarray(hs)


def _allowed(mode, prob):
    try:
        check_mode(mode, prob)
    except PreconditionError:
        return False
    return True


def counting_schedule(sch):
    """``sch`` with its fused ``at`` (``_at``) and eps, beta, lam and gamma
    recording every argument."""
    calls = {name: [] for name in ("_at", "eps", "beta", "lam", "gamma")}

    def wrap(fn, seen):
        def f(t):
            seen.append(t)
            return fn(t)
        return f

    return dataclasses.replace(sch, **{name: wrap(getattr(sch, name), seen)
                                       for name, seen in calls.items()}), calls


class TestGridAndScheduleEvaluation:
    @pytest.mark.parametrize("mode", list(_MODES))
    @settings(max_examples=25, deadline=None)
    @given(geometric=st.booleans(), h=st.floats(0.05, 2.0),
           ratio=st.floats(1.0, 1.3), T=st.floats(0.5, 40.0),
           cap_steps=st.booleans(), safety=st.floats(0.1, 1.0),
           max_steps=st.none() | st.integers(1, 40),
           cos_gamma=st.booleans())
    def test_grid_matches_two_pass_reference(self, mode, geometric, h, ratio, T,
                                             cap_steps, safety, max_steps,
                                             cos_gamma):
        integrate, name, (r, s, b) = _MODES[mode]
        prob = pf.build_canonical(name)
        sch = pf.polynomial_schedule(r, s, b, 0.9, 1.0,
                                     "cos-inverse" if cos_gamma else "constant")
        grid = (pf.GeometricGrid(h0=h, ratio=ratio, T=T) if geometric
                else pf.UniformGrid(h=h, T=T))
        kw = {} if mode == "SFBP" else {"safety_factor": safety}
        spec = pf.IntegratorSpec(grid=grid, cap_steps=cap_steps,
                                 max_steps=max_steps, **kw)
        traj = integrate(prob, sch, np.full(prob.dim, 0.5), spec)
        times, hs = reference_grid(mode, prob, sch, spec)
        n = hs.size
        assert traj.n_steps_total == n
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.step_sizes, np.append(hs, hs[-1]))
        assert np.array_equal(traj.step_indices, np.arange(n + 1))

    @pytest.mark.parametrize("mode", list(_MODES))
    def test_schedule_evaluated_once_per_sample_time(self, mode):
        integrate, name, (r, s, b) = _MODES[mode]
        prob = pf.build_canonical(name)
        sch, calls = counting_schedule(pf.polynomial_schedule(r, s, b, 0.9, 1.0))
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=0.7, T=20.0))
        traj = integrate(prob, sch, np.full(prob.dim, 0.5), spec)
        seen = calls.pop("_at")
        assert len(seen) == traj.n_steps_total + 1
        assert all(np.ndim(t) == 0 for t in seen)
        assert np.array_equal(seen, traj.times)
        for field, seen in calls.items():
            assert seen == [], field

    @pytest.mark.parametrize("name, mode", [
        (name, mode) for name in pf.CANONICAL_NAMES for mode in _MODES
        if _allowed(mode, pf.build_canonical(name))])
    @pytest.mark.parametrize("cos_gamma", [False, True])
    def test_fused_schedule_matches_field_calls(self, name, mode, cos_gamma):
        integrate, _, (r, s, b) = _MODES[mode]
        prob = pf.build_canonical(name)
        sch = pf.polynomial_schedule(r, s, b, 0.9, 1.0,
                                     "cos-inverse" if cos_gamma else "constant")
        spec = pf.IntegratorSpec(grid=pf.GeometricGrid(h0=0.3, ratio=1.01, T=60.0),
                                 store_every=3)
        x0 = np.full(prob.dim, 0.5)
        fused = integrate(prob, sch, x0, spec)
        fields = integrate(prob, dataclasses.replace(sch, _at=None), x0, spec)
        for f in dataclasses.fields(Trajectory):
            a, b = getattr(fused, f.name), getattr(fields, f.name)
            assert (a is None and b is None) or np.array_equal(a, b), f.name


class TestErgodicAverage:
    def test_constant_trajectory(self):
        t = np.linspace(0.0, 1.0, 11)
        traj = manual_trajectory(t, np.full(11, 2.5), np.ones(11))
        assert pf.ergodic_average(traj, None)[0] == pytest.approx(2.5)

    def test_linear_state_uniform_weight(self):
        t = np.linspace(0.0, 1.0, 101)
        traj = manual_trajectory(t, t, np.ones(101))
        assert pf.ergodic_average(traj, None)[0] == pytest.approx(0.5, abs=1e-12)

    def test_linear_state_linear_weight(self):
        t = np.linspace(0.0, 1.0, 2001)
        traj = manual_trajectory(t, t, t)
        assert pf.ergodic_average(traj, None)[0] == pytest.approx(2.0 / 3.0,
                                                                  abs=1e-5)


class TestTracking:
    def test_identical_trajectory_has_zero_theta(self):
        prob = pf.build_canonical("scalar")
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        times = np.array([0.0, 1.0, 2.0, 4.0])
        pts = pf.central_path(prob, sch, times, tol=1e-13)
        states = np.stack([p.xbar for p in pts])
        traj = manual_trajectory(times, states, np.ones(4))
        traj.mode = "FB"
        rep = pf.tracking_report(traj, pts)
        assert np.all(rep.theta <= 1e-20)
        assert rep.final_gap <= 1e-10
        assert rep.burn_in_index == 0

    def test_fb_run_tracks_path(self):
        prob = pf.build_canonical("scalar")
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=1e3),
                                 store_every=20)
        traj = pf.integrate_fb(prob, sch, np.zeros(1), spec)
        sub = traj.times[::10]
        pts = pf.central_path(prob, sch, sub, tol=1e-12)
        rep = pf.tracking_report(traj, pts)
        assert rep.final_gap <= 1.25e-3
        assert rep.burn_in_index <= len(sub) // 2

    def test_fbf_inequality_residuals_nonpositive(self):
        prob = pf.build_canonical("skew-box")
        sch = pf.polynomial_schedule(0.05, 0.25, 1.0, 0.9, 1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=0.5, T=500.0),
                                 store_every=5)
        traj = pf.integrate_fbf(prob, sch, np.array([1.0, 1.0]), spec)
        pts = pf.central_path(prob, sch, traj.times[1::7], tol=1e-12)
        rep = pf.tracking_report(traj, pts)
        assert rep.inequality_nonpositive_fraction >= 0.99

    def test_grid_mismatch_rejected(self):
        prob = pf.build_canonical("scalar")
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=10.0))
        traj = pf.integrate_fb(prob, sch, np.zeros(1), spec)
        pts = pf.central_path(prob, sch, [0.123456], tol=1e-10)
        with pytest.raises(ParameterError):
            pf.tracking_report(traj, pts)


class TestSpecAndStorage:
    def test_max_steps_budget(self):
        prob = pf.build_canonical("scalar")
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=1e9),
                                 max_steps=100)
        traj = pf.integrate_fb(prob, sch, np.zeros(1), spec)
        assert traj.n_steps_total == 100

    def test_store_every_keeps_final(self):
        prob = pf.build_canonical("scalar")
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=100.0),
                                 store_every=7)
        full = pf.integrate_fb(prob, sch, np.zeros(1),
                               pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=100.0)))
        thin = pf.integrate_fb(prob, sch, np.zeros(1), spec)
        assert thin.final_time == full.final_time
        assert thin.final_state[0] == full.final_state[0]
        assert thin.times.size < full.times.size
        # every 7th step, then the state before the last step and the final one
        n = thin.n_steps_total
        assert list(thin.step_indices) == sorted({*range(0, n, 7), n - 1, n})
        assert np.array_equal(thin.times, full.times[thin.step_indices])
        assert np.array_equal(thin.states, full.states[thin.step_indices])

    @pytest.mark.parametrize("every", [1, 7])
    def test_recorder_grows_past_uncapped_estimate(self, every):
        # the cap (about 0.26) takes about 4*T/h steps, more than the buffers
        # sized from the uncapped count T/h hold
        prob = pf.build_canonical("skew-box")
        sch = pf.polynomial_schedule(0.05, 0.25, 1.0, 0.9, 1.0)
        grid = pf.UniformGrid(h=1.0, T=100.0)
        x0 = np.array([1.0, -0.5])
        full = pf.integrate_fbf(prob, sch, x0, pf.IntegratorSpec(grid=grid))
        thin = pf.integrate_fbf(prob, sch, x0,
                                pf.IntegratorSpec(grid=grid, store_every=every))
        n = thin.n_steps_total
        assert n == full.n_steps_total and n > 3 * 100
        picks = sorted({*range(0, n, every), n - 1, n})
        assert list(thin.step_indices) == picks
        assert np.array_equal(full.step_indices, np.arange(n + 1))
        for name in ("times", "states", "step_sizes", "xdots", "aux_points",
                     "b1_norms", "lam", "eps", "beta", "gamma", "lips"):
            assert np.array_equal(getattr(thin, name),
                                  getattr(full, name)[picks]), name

    def test_invalid_spec_rejected(self):
        with pytest.raises(ParameterError):
            pf.IntegratorSpec(grid=pf.UniformGrid(h=0.0, T=1.0))
        with pytest.raises(ParameterError):
            pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=1.0), safety_factor=0.0)
        with pytest.raises(ParameterError):
            pf.IntegratorSpec(grid="nope")
        for grid in (pf.UniformGrid(h=math.nan, T=1.0), pf.UniformGrid(h=1.0, T=math.nan),
                     pf.GeometricGrid(h0=math.nan, ratio=1.1, T=1.0),
                     pf.GeometricGrid(h0=0.1, ratio=math.nan, T=1.0)):
            with pytest.raises(ParameterError):
                pf.IntegratorSpec(grid=grid)
        for max_steps in (0, -3):
            with pytest.raises(ParameterError, match="max_steps"):
                pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=1.0), max_steps=max_steps)

    def test_geometric_grid_grows(self):
        prob = pf.build_canonical("scalar")
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        spec = pf.IntegratorSpec(grid=pf.GeometricGrid(h0=0.01, ratio=1.5, T=10.0),
                                 cap_steps=False)
        traj = pf.integrate_fb(prob, sch, np.zeros(1), spec)
        hs = traj.step_sizes[:-2]
        assert np.all(np.diff(hs[:5]) > 0)


class TestExactStationarity:
    def test_path_point_is_exact_fixed_point_of_both_steps(self):
        # the shifted-segment path point (1, 0) is clamp-exact at any (eps, beta)
        prob = pf.build_canonical("shifted-segment")
        xbar = np.array([1.0, 0.0])
        for t, sch in ((0.0, pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)),
                       (37.0, pf.polynomial_schedule(0.3, 0.4, 2.0, 0.5, 0.7))):
            lam, eps, bet, gam = (float(f(t)) for f in
                                  (sch.lam, sch.eps, sch.beta, sch.gamma))
            v = prob.vfield(eps, bet, xbar)
            p = prob.a.resolvent(lam, xbar - lam * v)
            assert np.array_equal(p, xbar)  # FB step fixed exactly
            vp = prob.vfield(eps, bet, p)
            fbf_dx = p - xbar + lam * (v - vp)
            assert np.array_equal(fbf_dx, np.zeros(2))  # FBF step fixed exactly

    def test_unsupported_descriptor_pair_rejected(self):
        from penaltyflow.problem import (LipschitzOperator, PenaltyOperator,
                                         ProblemInstance)
        d = LipschitzOperator(eval=lambda x: np.zeros_like(x), eta=INF,
                              cocoercive=True)
        b1 = PenaltyOperator(eval=lambda x: np.zeros_like(x), mu=INF)
        prob = ProblemInstance(a=pf.l1_subgradient(1.0, dim=1), d=d, b1=b1,
                               b2=pf.box_normal_cone(np.array([-INF]),
                                                     np.array([0.0]), dim=1),
                               psi1=lambda x: 0.0, psi2=lambda x: 0.0, dim=1)
        sch = pf.constant_schedule(eps=0.5, beta=1.0, lam=0.3)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=0.5, T=2.0))
        with pytest.raises(PreconditionError):
            pf.integrate_sfbp(prob, sch, np.zeros(1), spec)
