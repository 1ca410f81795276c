import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import penaltyflow as pf
from penaltyflow import config, runner
from penaltyflow.dynamics import Trajectory, check_mode
from penaltyflow.errors import (ConvergenceFailure, DivergenceError,
                                ParameterError, PreconditionError)
from penaltyflow.operators import norm
from penaltyflow.problem import LipschitzOperator, PenaltyOperator, ProblemInstance
from reference_march import reference_march, reference_steps

INF = math.inf


def trivial_problem(dim=1):
    """A = 0, D = 0, B = 0: every point is stationary for every field."""
    d = LipschitzOperator(eval=lambda x: np.zeros_like(x), eta=INF, cocoercive=True)
    b1 = PenaltyOperator(eval=lambda x: np.zeros_like(x), mu=INF,
                         zero_set_box=(np.full(dim, -INF), np.full(dim, INF)))
    return ProblemInstance(a=pf.zero_op(dim), d=d, b1=b1, dim=dim, name="trivial")


def projection_sfbp_problem(dim=1):
    """A = 0, second potential = indicator of (-inf, 0]^dim, D = 0, B1 = 0."""
    d = LipschitzOperator(eval=lambda x: np.zeros_like(x), eta=INF, cocoercive=True)
    b1 = PenaltyOperator(eval=lambda x: np.zeros_like(x), mu=INF,
                         zero_set_box=(np.full(dim, -INF), np.full(dim, INF)))
    b2 = pf.box_normal_cone(np.full(dim, -INF), np.zeros(dim), dim=dim)
    return ProblemInstance(a=pf.zero_op(dim), d=d, b1=b1, b2=b2, dim=dim,
                           psi1=lambda x: np.zeros(x.shape[:-1]),
                           psi2=lambda x: np.where(np.all(x <= 1e-9, axis=-1), 0.0, INF),
                           name="projection-sfbp")


def read_only_problem(prob):
    """``prob`` with D, B1 and the oracle of A returning read-only arrays."""
    def ro(fn):
        def wrapped(*args):
            y = fn(*args)
            y.setflags(write=False)
            return y
        return wrapped

    a = pf.MonotoneOperator(prob.a.kind, ro(prob.a._resolvent_fn), dim=prob.a.dim,
                            params=prob.a.params)
    return dataclasses.replace(prob, a=a,
                               d=dataclasses.replace(prob.d, eval=ro(prob.d.eval)),
                               b1=dataclasses.replace(prob.b1, eval=ro(prob.b1.eval)))


def assert_same_trajectory(got, want):
    """Every Trajectory field of ``got`` has the dtype, shape and bytes of ``want``'s."""
    for f in dataclasses.fields(Trajectory):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
        else:
            assert a is None if b is None else a == b, f.name


def manual_trajectory(times, states, lam):
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    n = times.size
    ones = np.ones(n)
    return Trajectory(mode="SFBP", times=times, states=states,
                      step_sizes=np.diff(times, prepend=0.0), b1_norms=np.zeros(n),
                      psi_sums=None, p_norms=None,
                      lam=np.asarray(lam, dtype=float), eps=ones, beta=ones,
                      gamma=ones, n_steps_total=n,
                      step_indices=np.arange(n))


def _allowed(mode, prob):
    try:
        check_mode(mode, prob)
    except PreconditionError:
        return False
    return True


def _instance(name):
    """A canonical instance, a 4x4 deblur instance, or "signed-zero": D = 1 and A
    the normal cone of the box [-0.0, 1], where at x = +0 the FBF step has
    p = -0.0 and V(p) == V(x), so dx = -0.0 + lam*(+0.0) must be +0.0."""
    if name == "deblur-4":
        return pf.build_tv_deblur(pf.make_test_image("checkerboard", 4), 3, 1.0).problem
    if name != "signed-zero":
        return pf.build_canonical(name)
    d = LipschitzOperator(eval=lambda x: np.ones_like(x), eta=INF)
    b1 = PenaltyOperator(eval=lambda x: np.zeros_like(x), mu=INF)
    return ProblemInstance(a=pf.box_normal_cone(-0.0, 1.0), d=d, b1=b1, dim=3, name=name)


# each mode's integrator, and an instance and (r, s, b) of a schedule it accepts
_MODES = {"FB": (pf.integrate_fb, "scalar", (0.1, 0.2, 1.0)),
          "FBF": (pf.integrate_fbf, "skew-box", (0.05, 0.25, 1.0)),
          "SFBP": (pf.integrate_sfbp, "sfbp-two-penalty", (0.65, 0.6, 1000.0))}
# every (instance, mode) pair that check_mode allows
_CASES = [(name, mode) for name in (*pf.CANONICAL_NAMES, "deblur-4", "signed-zero")
          for mode in _MODES if _allowed(mode, _instance(name))]
_T = st.floats(0.5, 30.0)
_EPS_OR_BETA = st.just(0.0) | st.floats(0.0, 2.0)  # eps and beta exactly 0.0 among the draws
_SCHEDULES = st.builds(
    pf.polynomial_schedule, r=st.floats(0.01, 0.99), s=st.floats(0.01, 1.5),
    b=st.floats(1.0, 100.0), lambda_bar=st.floats(0.05, 2.0), gamma_bar=st.floats(0.05, 1.0),
    gamma_kind=st.sampled_from(["constant", "cos-inverse"])) | st.builds(
    pf.constant_schedule, eps=_EPS_OR_BETA, beta=_EPS_OR_BETA, lam=st.floats(0.01, 1.0),
    gamma=st.floats(0.05, 1.0))
_GRIDS = (st.builds(pf.UniformGrid, h=st.sampled_from([1.0, 0.37]) | st.floats(0.01, 2.0), T=_T)
          | st.builds(pf.GeometricGrid, h0=st.floats(0.01, 1.0), ratio=st.floats(1.0, 1.3), T=_T))
_SPECS = st.builds(pf.IntegratorSpec, grid=_GRIDS, safety_factor=st.floats(0.1, 1.0),
                   store_every=st.integers(1, 6), max_steps=st.none() | st.integers(1, 60))
# x0 repeats these entries to the instance's dimension
_ENTRIES = st.lists(st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310]) | st.floats(-3.0, 3.0),
                    min_size=1, max_size=6)


@settings(max_examples=250, deadline=None)
@given(case=st.sampled_from(_CASES), sch=_SCHEDULES, spec=_SPECS, entries=_ENTRIES)
# a capped FB run of 1 161 steps, so that a rewrite that rounds differently
# on only some steps still moves a bit
@example(case=("scalar", "FB"), sch=pf.polynomial_schedule(0.1, 0.2, gamma_bar=0.9),
         spec=pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=200.0)), entries=[0.5])
def test_march_equals_reference(case, sch, spec, entries):
    """Every integrator returns the reference march's Trajectory byte for byte."""
    name, mode = case
    prob = _instance(name)
    x0 = np.resize(entries, prob.dim)
    try:
        traj = _MODES[mode][0](prob, sch, x0, spec)
    except DivergenceError:
        assume(False)
    assert_same_trajectory(traj, reference_march(mode, prob, sch, x0, spec))


class TestForwardBackward:
    def test_linear_recursion_exact(self):
        prob = trivial_problem()
        sch = pf.constant_schedule(eps=0.1, beta=0.0, lam=0.1, gamma=1.0)
        # h = 0.25 is under the cap 1/(2 + lam*eps) = 0.4975
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=0.25, T=25.0), safety_factor=1.0)
        traj = pf.integrate_fb(prob, sch, np.array([1.0]), spec)
        # J = (1 - lam*eps) X: X+ = (1 - h*0.01) X
        assert traj.n_steps_total == 100
        assert traj.final_state[0] == pytest.approx(0.9975 ** 100, rel=1e-12)

    def test_origin_is_stationary(self):
        prob = trivial_problem(2)
        sch = pf.constant_schedule(eps=0.3, beta=0.0, lam=0.2, gamma=1.0)
        # h = 0.25 is under the cap 1/(2 + lam*eps) = 0.485
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=0.25, T=20.0), safety_factor=1.0)
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
        # D 100 times steeper than its declared eta = 1: the cap 1/32 it
        # sizes steps from leaves X+ = X - h*lam*V(X) about -30 X
        prob = pf.build_canonical("scalar")
        prob = dataclasses.replace(prob, d=dataclasses.replace(
            prob.d, eval=lambda x: 100.0 * (x - 2.0)))
        sch = pf.constant_schedule(eps=1.0, beta=1.0, lam=10.0, gamma=1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=1e4), safety_factor=1.0)
        with pytest.raises(DivergenceError, match=r"^state norm .* exceeded 1e\+12 "
                                                  r"at step 64$") as exc:
            pf.integrate_fb(prob, sch, np.array([1.0]), spec)
        assert exc.value.step_index == 64 and math.isfinite(exc.value.norm)

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
        # lam*(1 + eps + beta) <= 1.43, so every h is under the cap 1/3.43
        for h in (0.2, 0.1, 0.05):
            spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=h, T=50.0),
                                     safety_factor=1.0, store_every=1000)
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
        # h = 0.25 is under the cap 1/(2 + 2*lam*eps) = 0.4545
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=0.25, T=10.0), safety_factor=1.0)
        traj = pf.integrate_fbf(prob, sch, np.array([1.0]), spec)
        # lam*eps = 0.1: X+ = (1 - h*0.1*(1 - 0.1)) X = 0.9775 X
        assert traj.n_steps_total == 40
        assert traj.final_state[0] == pytest.approx(0.9775 ** 40, rel=1e-12)

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
        # FBF records |p| of the step's point p at every sample
        prob = pf.build_canonical("skew-box")
        sch = pf.polynomial_schedule(0.05, 0.25, 1.0, 0.9, 1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=0.5, T=10.0))
        traj = pf.integrate_fbf(prob, sch, np.array([0.5, 0.5]), spec)
        assert traj.p_norms.shape == traj.times.shape
        assert np.all(traj.p_norms > 0.0)

    @pytest.mark.parametrize("build", [
        lambda: pf.build_canonical("skew-box"),
        lambda: pf.build_tv_deblur(pf.make_test_image("checkerboard", 8)).problem,
    ], ids=["skew-box", "deblur-8"])
    def test_step_writes_into_no_input_or_operator_output(self, build):
        prob = build()
        ro = read_only_problem(prob)
        sch = pf.polynomial_schedule(0.05, 0.25, 1.0, 0.9 / math.sqrt(8.0), 1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=1e9), max_steps=60,
                                 store_every=7)
        x0 = np.linspace(-0.5, 1.5, prob.dim)
        want = pf.integrate_fbf(prob, sch, x0, spec)
        x0.setflags(write=False)
        assert_same_trajectory(pf.integrate_fbf(ro, sch, x0, spec), want)

    def test_step_keeps_sign_of_zero(self):
        prob, x0 = _instance("signed-zero"), np.array([0.0, -0.0, 1.0])
        sch = pf.constant_schedule(eps=0.0, beta=0.0, lam=0.5)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=3.0))
        traj = pf.integrate_fbf(prob, sch, x0, spec)
        assert_same_trajectory(traj, reference_march("FBF", prob, sch, x0, spec))


class TestStepMapsTakeZeroDimValues:
    """The marching loop hands the step maps and oracles 0-d float64 values."""

    def test_fast_oracle_gets_zero_dim_lam(self):
        prob = pf.build_canonical("skew-box")
        fn, seen = prob.a._resolvent_fn, []

        def spy(lam, x):
            seen.append((type(lam), np.shape(lam), np.result_type(lam)))
            return fn(lam, x)

        a = pf.MonotoneOperator(prob.a.kind, spy, dim=prob.a.dim, params=prob.a.params)
        sch = pf.polynomial_schedule(0.05, 0.25, 1.0, 0.9, 1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=50.0))
        traj = pf.integrate_fbf(dataclasses.replace(prob, a=a), sch,
                                np.array([0.5, -0.5]), spec)
        # one call per step and one for the final sample, all with a 0-d lam
        assert len(seen) == traj.n_steps_total + 1
        assert set(seen) == {(np.ndarray, (), np.dtype(np.float64))}


def _nan_after(fn, n):
    """``fn``, and the list of its calls, returning NaN from call n + 1 on."""
    calls = []

    def wrapped(*args):
        calls.append(None)
        y = fn(*args)
        return y if len(calls) <= n else np.full_like(y, np.nan)
    return wrapped, calls


class TestNonFiniteFinalStep:
    """The march checks the final sample's dx once; an oracle that turns
    non-finite on that last call ends the run in ConvergenceFailure."""

    @pytest.mark.parametrize("integrate, instance", [
        (pf.integrate_fb, "scalar"), (pf.integrate_fbf, "skew-box"),
        (pf.integrate_sfbp, "sfbp-two-penalty")])
    def test_nan_on_the_final_call(self, integrate, instance):
        prob, n = pf.build_canonical(instance), 10
        if prob.b2 is not None:
            # with A = 0 the combined resolvent is B2's oracle at lam*beta
            oracle, calls = _nan_after(prob.b2._resolvent_fn, n)
            prob = dataclasses.replace(
                prob, b2=pf.MonotoneOperator("custom", oracle, dim=1))
        else:
            oracle, calls = _nan_after(prob.a._resolvent_fn, n)
            prob = dataclasses.replace(prob, a=pf.MonotoneOperator(
                prob.a.kind, oracle, dim=prob.a.dim, params=prob.a.params))
        sch = pf.constant_schedule(eps=0.1, beta=1.0, lam=0.5, gamma=1.0)
        # h = 0.125 is under the FB cap 1/3.05 and the FBF cap 1/4.1
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=0.125, T=0.125 * n),
                                 safety_factor=1.0)
        with pytest.raises(ConvergenceFailure, match="final step"):
            integrate(prob, sch, np.full(prob.dim, 0.5), spec)
        assert len(calls) == n + 1


def nan_state_problem():
    """skew-box whose oracle of A returns NaN from its fifth call on: the state
    turns NaN at step 4 and the check every 64 steps stops the run."""
    prob = pf.build_canonical("skew-box")
    oracle, _ = _nan_after(prob.a._resolvent_fn, 4)
    return dataclasses.replace(prob, a=pf.MonotoneOperator(
        prob.a.kind, oracle, dim=prob.a.dim, params=prob.a.params))


class TestRunGuards:
    def test_nan_state_mid_run_diverges(self):
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=0.5, T=100.0))
        with pytest.raises(DivergenceError, match="^state is not finite at step 64$") as exc:
            pf.integrate_fbf(nan_state_problem(), pf.polynomial_schedule(0.05, 0.25),
                             np.ones(2), spec)
        assert exc.value.step_index == 64

    def test_nan_state_mid_run_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "build_canonical", lambda name: nan_state_problem())
        cfg = config.parse_config({
            "instance": "skew-box", "mode": "FBF", "x0": [1.0, 1.0],
            "schedule": {"family": "polynomial", "r": 0.05, "s": 0.25},
            "grid": {"kind": "uniform", "h": 0.5, "T": 100.0}})
        assert runner.run_experiment(cfg, str(tmp_path)).exit_code == 3
        report = json.loads((tmp_path / "report.json").read_text())
        assert (report["exit_code"], report["messages"]) == (
            3, ["integration diverged: state is not finite at step 64"])

    @pytest.mark.parametrize("integrate, instance", [
        (pf.integrate_fb, "scalar"), (pf.integrate_fbf, "skew-box")])
    def test_infinite_beta_collapses_the_step(self, integrate, instance):
        prob = pf.build_canonical(instance)
        sch = pf.constant_schedule(eps=0.0, beta=INF, lam=1.0)  # a Lipschitz cap of 0
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=10.0), max_steps=5)
        with pytest.raises(ParameterError, match="step size collapsed to zero"):
            integrate(prob, sch, np.full(prob.dim, 0.5), spec)


class TestFullSplitting:
    def test_projection_recursion_matches_reference(self):
        prob = projection_sfbp_problem()
        lam, eps, h = 0.3, 0.5, 0.5
        sch = pf.constant_schedule(eps=eps, beta=1.0, lam=lam, gamma=1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=h, T=5.0))
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
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=h, T=4.0))
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
        erg = pf.ergodic_average(traj)
        cert = pf.active_set_solve(prob)
        assert cert.distance_to(erg) <= 0.1
        assert traj.b1_norms[-1] <= 0.01
        assert traj.psi_sums[-1] <= 1e-3

    def test_potentials_must_map_a_stack_to_one_value_per_point(self):
        # psi1/psi2 are called once, on the (n, d) stack of sampled points
        prob = dataclasses.replace(projection_sfbp_problem(), psi1=lambda x: 0.0,
                                   psi2=lambda x: 0.0 if np.all(x <= 1e-9) else INF)
        sch = pf.constant_schedule(eps=0.5, beta=1.0, lam=0.3)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=0.5, T=2.0))
        with pytest.raises(ParameterError, match=r"on a \(5, 1\) stack must have "
                                                 r"shape \(5,\), got \(\)"):
            pf.integrate_sfbp(prob, sch, np.zeros(1), spec)


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

class TestErgodicAverage:
    def test_constant_trajectory(self):
        t = np.linspace(0.0, 1.0, 11)
        traj = manual_trajectory(t, np.full(11, 2.5), np.ones(11))
        assert pf.ergodic_average(traj)[0] == pytest.approx(2.5)

    def test_linear_state_uniform_weight(self):
        t = np.linspace(0.0, 1.0, 101)
        traj = manual_trajectory(t, t, np.ones(101))
        assert pf.ergodic_average(traj)[0] == pytest.approx(0.5, abs=1e-12)

    def test_linear_state_linear_weight(self):
        t = np.linspace(0.0, 1.0, 2001)
        traj = manual_trajectory(t, t, t)
        assert pf.ergodic_average(traj)[0] == pytest.approx(2.0 / 3.0, abs=1e-5)


# every canonical (instance, mode) pair that check_mode allows
_CANONICAL_CASES = [case for case in _CASES if case[0] in pf.CANONICAL_NAMES]


def stored_vector_tracking(prob, traj, dxs, ps, sel, xbar):
    """tracking_report's theta and residuals at the samples ``sel``, from
    stored step directions ``dxs`` and FBF points ``ps``."""
    lips = prob.lipschitz_bound(traj.eps, traj.beta)
    theta, residuals = [], []
    for i in sel:
        x, xdot = traj.states[i], dxs[i]
        diff = x - xbar
        theta.append(0.5 * float(diff @ diff))
        lam, eps, gam = traj.lam[i], traj.eps[i], traj.gamma[i]
        if traj.mode == "FBF":
            rhs = ((lam * lips[i] - 1.0) * float(np.sum((x - ps[i]) ** 2))
                   - lam * eps * float(np.sum((ps[i] - xbar) ** 2)))
            residuals.append(float(diff @ xdot) - rhs)
        else:
            relax = gam if traj.mode == "FB" else 1.0  # SFBP takes no relaxation
            rhs = relax * lam * eps * (lam * eps - 2.0) * float(diff @ diff)
            residuals.append(2.0 * float(xdot @ diff) - rhs)
    return np.array(theta), np.array(residuals)


class TestTracking:
    def test_identical_trajectory_has_zero_theta(self):
        prob = pf.build_canonical("scalar")
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        times = np.array([0.0, 1.0, 2.0, 4.0])
        pts = pf.central_path(prob, sch, times, tol=1e-13)
        states = np.stack([p.xbar for p in pts])
        traj = manual_trajectory(times, states, np.ones(4))
        traj.mode = "FB"
        rep = pf.tracking_report(prob, traj, pts)
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
        rep = pf.tracking_report(prob, traj, pts)
        assert rep.final_gap <= 1.25e-3
        assert rep.burn_in_index <= len(sub) // 2

    def test_fbf_inequality_residuals_nonpositive(self):
        prob = pf.build_canonical("skew-box")
        sch = pf.polynomial_schedule(0.05, 0.25, 1.0, 0.9, 1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=0.5, T=500.0),
                                 store_every=5)
        traj = pf.integrate_fbf(prob, sch, np.array([1.0, 1.0]), spec)
        pts = pf.central_path(prob, sch, traj.times[1::7], tol=1e-12)
        rep = pf.tracking_report(prob, traj, pts)
        assert rep.inequality_nonpositive_fraction >= 0.99

    def test_sfbp_inequality_reads_no_gamma(self):
        # the SFBP step takes no relaxation: runs that differ only in
        # gamma_bar march alike and give one report
        prob = pf.build_canonical("sfbp-two-penalty")
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=2000.0), store_every=10)
        reports = []
        for gamma_bar in (1.0, 0.5):
            sch = pf.polynomial_schedule(0.65, 0.6, 1000.0, 0.9, gamma_bar)
            traj = pf.integrate_sfbp(prob, sch, np.array([0.5]), spec)
            pts = pf.central_path(prob, sch, traj.times[1::10], tol=1e-12)
            reports.append((traj.states.tobytes(), pf.tracking_report(prob, traj, pts)))
        (states_1, rep_1), (states_half, rep_half) = reports
        assert states_1 == states_half
        for field in ("times", "theta", "gaps", "inequality_residuals"):
            assert getattr(rep_1, field).tobytes() == getattr(rep_half, field).tobytes()
        assert rep_1.burn_in_index == rep_half.burn_in_index
        assert rep_1.inequality_nonpositive_fraction == rep_half.inequality_nonpositive_fraction

    def test_grid_mismatch_rejected(self):
        prob = pf.build_canonical("scalar")
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=10.0))
        traj = pf.integrate_fb(prob, sch, np.zeros(1), spec)
        pts = pf.central_path(prob, sch, [0.123456], tol=1e-10)
        with pytest.raises(ParameterError):
            pf.tracking_report(prob, traj, pts)
        # a path time one ulp off a stored time is off the grid too
        for way in (-math.inf, math.inf):
            off = float(np.nextafter(traj.times[3], way))
            pts = pf.central_path(prob, sch, [off], tol=1e-10)
            with pytest.raises(ParameterError, match="not on the trajectory grid"):
                pf.tracking_report(prob, traj, pts)

    @settings(max_examples=100, deadline=None)
    @given(case=st.sampled_from(_CANONICAL_CASES), sch=_SCHEDULES, spec=_SPECS,
           entries=_ENTRIES, xbar_entries=_ENTRIES, start=st.integers(0, 3),
           stride=st.integers(1, 4))
    def test_recomputed_step_equals_stored_vector_formula(self, case, sch, spec, entries,
                                                          xbar_entries, start, stride):
        """theta and the residuals equal, byte for byte, the formula on the
        reference march's own dx and p at each sample of a full (start 0,
        stride 1) or subgrid path; xbar need not be on the central path."""
        name, mode = case
        prob = pf.build_canonical(name)
        x0 = np.resize(entries, prob.dim)
        try:
            traj = _MODES[mode][0](prob, sch, x0, spec)
        except DivergenceError:
            assume(False)
        ref, dxs, ps = reference_steps(mode, prob, sch, x0, spec)
        sel = np.arange(traj.times.size)[start::stride]
        assume(sel.size > 0)
        xbar = np.resize(xbar_entries, prob.dim)
        pts = [pf.CentralPathPoint(0.0, 0.0, xbar, 0.0, 0, t=t) for t in traj.times[sel]]
        rep = pf.tracking_report(prob, traj, pts)
        theta, residuals = stored_vector_tracking(prob, ref, dxs, ps, sel, xbar)
        assert rep.theta.tobytes() == theta.tobytes()
        assert rep.inequality_residuals.tobytes() == residuals.tobytes()
        gaps = np.array([norm(ref.states[i] - xbar) for i in sel])
        assert rep.gaps.tobytes() == gaps.tobytes() and rep.final_gap == gaps[-1]


@st.composite
def accepted_schedules(draw, mode, prob):
    """A polynomial schedule inside ``mode``'s exponent band, with lambda_bar
    under the step bound the validator checks. lambda_bar takes at least half
    its range and gamma_bar at least 1/2: a run that starts on the path lags
    it by about 1/(gamma*lam*L) times the path's speed, and with a tenth of
    either the lag at T = 1e3 exceeds the 1e-3 the soundness test allows."""
    u, v = (draw(st.floats(0.02, 0.98)) for _ in range(2))
    w = draw(st.floats(0.5, 0.98))
    b, mu = draw(st.floats(1.0, 1000.0)), prob.b1.mu
    if mode == "SFBP":  # 1/2 < s < r < 1 and lam*beta < 2*mu
        s = 0.5 + 0.5 * u
        r, lambda_bar = s + (1.0 - s) * v, 2.0 * mu * w
    else:  # 0 < r < s and r + s < 1/2 (FB) or 1/3 (FBF)
        band = 0.5 if mode == "FB" else 1.0 / 3.0
        s = band * u
        r = min(s, band - s) * v
        # lam*(1/eta + eps + beta/mu) < 1 for t >= 1e7 holds for every
        # lambda_bar < mu*beta/(mu/eta + beta) at t = 1e7
        bt = (1e7 + b) ** s
        lambda_bar = w * mu * bt / (mu / prob.d.eta + bt)
    return pf.polynomial_schedule(r, s, b, lambda_bar, draw(st.floats(0.5, 1.0)),
                                  draw(st.sampled_from(["constant", "cos-inverse"])))


def max_lam_l(prob, sch, T):
    """The largest lam*L over 64 times in [0, T]."""
    return max(float(sch.lam(t)) * prob.lipschitz_bound(float(sch.eps(t)), float(sch.beta(t)))
               for t in np.linspace(0.0, T, 64))


class TestSoundness:
    T = 1000.0  # at most about 4 000 steps a run, 3 s for the 50 examples

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_accepted_schedule_ends_near_the_path(self, data):
        """From any x0 in [-5, 5]^d, a run under an accepted schedule stays
        bounded and ends no farther from the central path than it started,
        up to 1e-3. The validator bounds FBF's lam*L only for t >= 1e7 and
        SFBP's lam*beta only at t = 1e8, so FBF draws whose lam*L reaches 1 on
        [0, T] and SFBP draws whose lam*L reaches 2 are discarded: there the
        unit step is expansive, and the run can leave the path or lag it (see
        the next two tests)."""
        name, mode = data.draw(st.sampled_from(_CANONICAL_CASES))
        prob = pf.build_canonical(name)
        sch = data.draw(accepted_schedules(mode, prob))
        assert pf.validate_schedule(sch, mode, (prob.d.eta, prob.b1.mu)).overall
        assert mode != "SFBP" or pf.attouch_czarnecki_check(sch)[1]
        x0 = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=prob.dim,
                                         max_size=prob.dim)))
        bound = {"FBF": 1.0, "SFBP": 2.0}.get(mode)
        assume(bound is None or max_lam_l(prob, sch, self.T) < bound)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=self.T), safety_factor=1.0,
                                 store_every=1000)
        traj = _MODES[mode][0](prob, sch, x0, spec)
        start, end = pf.central_path(prob, sch, [0.0, traj.final_time])
        assert np.isfinite(traj.final_state).all()
        assert norm(traj.final_state - end.xbar) <= norm(x0 - start.xbar) + 1e-3

    @pytest.mark.xfail(raises=DivergenceError, strict=True,
                       reason="validate_schedule bounds lam*L < 1 only for t >= 1e7")
    def test_fbf_leaves_the_path_while_lam_l_exceeds_1(self):
        """An accepted scalar FBF schedule whose lam*L falls from 1.24 at t = 0
        to 1.10 at t = 500 and below 1 only near t = 1e5. While lam*L > 1 the
        path point repels: from x0 = 0.7 the run diverges at step 3136, and
        from x0 = 0 it ends at -0.133, against 0.608 on the path."""
        prob, x0 = pf.build_canonical("scalar"), np.array([0.7])
        sch = pf.polynomial_schedule(0.07, 0.08, 1.0, 0.7)
        assert pf.validate_schedule(sch, "FBF", (prob.d.eta, prob.b1.mu)).overall
        assert max_lam_l(prob, sch, 500.0) > 1.0
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=500.0))
        traj = pf.integrate_fbf(prob, sch, x0, spec)
        start, end = pf.central_path(prob, sch, [0.0, traj.final_time])
        assert norm(traj.final_state - end.xbar) <= norm(x0 - start.xbar) + 1e-3

    @pytest.mark.xfail(raises=AssertionError, strict=True,
                       reason="validate_schedule reads SFBP's lam*beta < 2*mu at t = 1e8 alone")
    def test_sfbp_lags_the_path_while_lam_l_exceeds_2(self):
        """An accepted SFBP schedule whose lam*L peaks at 2.30 near t = 16 and
        falls below 2 only near t = 700. While lam*L > 2 the unit step
        x+ = J(x - lam*V(x)) is expansive: from x0 = 1, on the path, the run
        ends 6.0e-3 from it at T = 1e3 (2e-5 with lambda_bar 1.92)."""
        prob, x0 = pf.build_canonical("sfbp-two-penalty"), np.array([1.0])
        sch = pf.polynomial_schedule(0.765625, 0.53125, 1.0, 1.9375, 1.0)
        assert pf.validate_schedule(sch, "SFBP", (prob.d.eta, prob.b1.mu)).overall
        assert pf.attouch_czarnecki_check(sch)[1]
        assert max_lam_l(prob, sch, 1e3) > 2.0
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=1e3), store_every=1000)
        traj = pf.integrate_sfbp(prob, sch, x0, spec)
        start, end = pf.central_path(prob, sch, [0.0, traj.final_time])
        assert norm(traj.final_state - end.xbar) <= norm(x0 - start.xbar) + 1e-3


class TestSpecAndStorage:
    def test_max_steps_budget(self):
        prob = pf.build_canonical("scalar")
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=1e9),
                                 max_steps=100)
        traj = pf.integrate_fb(prob, sch, np.zeros(1), spec)
        assert traj.n_steps_total == 100

    def test_store_every_keeps_final(self):
        prob, sch = pf.build_canonical("scalar"), pf.polynomial_schedule(0.1, 0.2)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=100.0), store_every=7)
        thin = pf.integrate_fb(prob, sch, np.zeros(1), spec)
        # every 7th step, then the state before the last step and the final one
        n = thin.n_steps_total
        assert list(thin.step_indices) == sorted({*range(0, n, 7), n - 1, n})
        assert_same_trajectory(thin, reference_march("FB", prob, sch, np.zeros(1), spec))

    @pytest.mark.parametrize("every", [1, 7])
    def test_recorder_grows_past_uncapped_estimate(self, every):
        # with max_steps unset nothing bounds the samples in advance; the
        # binding cap takes about 8*T/h steps, so each run stores about
        # 4 500, which the recorder's buffers take as they grow
        prob, sch = pf.build_canonical("skew-box"), pf.polynomial_schedule(0.05, 0.25)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=550.0 * every),
                                 store_every=every)
        x0 = np.array([1.0, -0.5])
        traj = pf.integrate_fbf(prob, sch, x0, spec)
        assert traj.times.size > 4096
        assert_same_trajectory(traj, reference_march("FBF", prob, sch, x0, spec))

    def test_step_ending_just_short_of_T_is_taken(self):
        # three unit steps end 5e-10 short of T, more than the 1e-12 the march
        # stops short of, so a fourth step of about 5e-10 lands on T exactly
        prob = pf.build_canonical("sfbp-two-penalty")
        sch = pf.polynomial_schedule(0.65, 0.6, 1000.0, 0.9, 1.0)
        T = 3.0 + 5e-10
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=T))
        traj = pf.integrate_sfbp(prob, sch, np.zeros(1), spec)
        assert traj.n_steps_total == 4 and traj.final_time == T
        assert 4.9e-10 < traj.step_sizes[-1] < 5.1e-10
        assert_same_trajectory(traj, reference_march("SFBP", prob, sch, np.zeros(1), spec))

    @pytest.mark.parametrize("mode", list(_MODES))
    def test_lean_recorder_holds_no_step_vectors(self, mode):
        """The recorder holds one state slot per stored sample, and SFBP one
        more for j, but no step vector: from 1 000 to 3 000 steps, each
        stored, the march's peak allocation grows by 1 slot of dimension 256
        (2 for SFBP) and the scalar rows per stored sample, under half a slot."""
        dim = 256
        prob = projection_sfbp_problem(dim) if mode == "SFBP" else trivial_problem(dim)
        sch = pf.constant_schedule(eps=0.1, beta=0.0, lam=0.1, gamma=1.0)
        peaks = []
        for steps in (1000, 3000):
            spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=1e9), max_steps=steps)
            tracemalloc.start()
            try:
                _MODES[mode][0](prob, sch, np.full(dim, -0.5), spec)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        slots = 2 if mode == "SFBP" else 1
        per_sample = (peaks[1] - peaks[0]) / 2000 / (8 * dim)
        assert slots <= per_sample < slots + 0.5, per_sample

    def test_unbounded_march_starts_with_small_buffers(self):
        """With max_steps unset the recorder holds what it stored and no
        more, whatever the dimension: a 64x64 deblurring march (12 288
        unknowns, 423 steps, 4 samples) peaks at a few MB, where buffers
        sized for 4 096 samples would reserve 403 MB."""
        inst = pf.build_tv_deblur(pf.make_test_image("checkerboard", 64))
        sch = pf.polynomial_schedule(0.05, 0.25, 1.0, 0.9 / 8.0 ** 0.5)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=60.0), store_every=250)
        tracemalloc.start()
        try:
            traj = pf.integrate_fbf(inst.problem, sch, inst.x0, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (traj.n_steps_total, traj.times.size) == (423, 4)
        assert peak < 5e6, peak

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

    @pytest.mark.parametrize("kwargs, message", [
        (dict(grid=pf.UniformGrid(h=-1.0, T=1.0)), "grid h must be > 0, got -1.0"),
        (dict(grid=pf.UniformGrid(h=1.0, T=0.0)), "grid T must be > 1e-12, got 0.0"),
        (dict(grid=pf.GeometricGrid(h0=0.0, ratio=1.1, T=1.0)),
         "grid h0 must be > 0, got 0.0"),
        (dict(grid=pf.GeometricGrid(h0=0.1, ratio=0.5, T=1.0)),
         "grid ratio must be finite and >= 1, got 0.5"),
        (dict(grid=pf.GeometricGrid(h0=0.1, ratio=INF, T=10.0)),
         "grid ratio must be finite and >= 1, got inf"),
        (dict(grid=pf.GeometricGrid(h0=0.1, ratio=1.1, T=1e-13)),
         "grid T must be > 1e-12, got 1e-13"),
        (dict(safety_factor=1.5), "safety_factor must be in (0, 1], got 1.5"),
        (dict(store_every=0), "store_every must be >= 1, got 0"),
        (dict(max_steps=-3), "max_steps must be >= 1, got -3"),
    ], ids=["h", "T", "h0", "ratio", "ratio-inf", "geometric-T", "safety_factor", "store_every",
            "max_steps"])
    def test_invalid_field_named_with_its_value(self, kwargs, message):
        with pytest.raises(ParameterError) as exc:
            pf.IntegratorSpec(**{"grid": pf.UniformGrid(h=1.0, T=1.0), **kwargs})
        assert str(exc.value) == message

    @pytest.mark.parametrize("value", [2.5, 1e9, 2.0, True, "2", np.float64(3.0)])
    def test_store_every_must_be_an_integer(self, value):
        # 2.5 and 1e9 used to end in a raw TypeError from the recorder's np.empty
        with pytest.raises(ParameterError) as exc:
            pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=1.0), store_every=value)
        assert str(exc.value) == f"store_every must be an integer, got {value!r}"
        assert pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=1.0),
                                 store_every=np.int64(2)).store_every == 2

    @pytest.mark.parametrize("value", [2.5, 60.0, False, "60", np.float64(60.0)])
    def test_max_steps_must_be_an_integer(self, value):
        # max_steps=2.5 used to be ignored: a scalar FB run took all 329 steps
        with pytest.raises(ParameterError) as exc:
            pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=50.0), max_steps=value)
        assert str(exc.value) == f"max_steps must be an integer, got {value!r}"
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=50.0),
                                 max_steps=np.int32(3))
        traj = pf.integrate_fb(pf.build_canonical("scalar"),
                               pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0),
                               np.zeros(1), spec)
        assert traj.n_steps_total == 3

    def test_geometric_grid_grows(self):
        prob = pf.build_canonical("scalar")
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        # the first five steps, 0.01 to 0.051, are under the cap 0.5/3.43
        spec = pf.IntegratorSpec(grid=pf.GeometricGrid(h0=0.01, ratio=1.5, T=10.0))
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
        d = LipschitzOperator(eval=lambda x: np.zeros_like(x), eta=INF,
                              cocoercive=True)
        b1 = PenaltyOperator(eval=lambda x: np.zeros_like(x), mu=INF)
        prob = ProblemInstance(a=pf.l1_subgradient(1.0, dim=1), d=d, b1=b1,
                               b2=pf.box_normal_cone(np.array([-INF]),
                                                     np.array([0.0]), dim=1),
                               psi1=lambda x: np.zeros(x.shape[:-1]),
                               psi2=lambda x: np.zeros(x.shape[:-1]), dim=1)
        sch = pf.constant_schedule(eps=0.5, beta=1.0, lam=0.3)
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=0.5, T=2.0))
        with pytest.raises(PreconditionError):
            pf.integrate_sfbp(prob, sch, np.zeros(1), spec)
