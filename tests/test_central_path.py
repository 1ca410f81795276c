import importlib
import math
import re
import time

import numpy as np
import pytest

import penaltyflow as pf
from penaltyflow.central_path import _diagonal_points
from penaltyflow.errors import ConvergenceFailure, ParameterError


def scalar_funnel(eps, beta):
    # closed form for the scalar instance: the positive root of
    # (1 + eps + beta) x = 2
    return 2.0 / (1.0 + eps + beta)


class TestSolveAuxiliary:
    def test_scalar_closed_forms(self):
        prob = pf.build_canonical("scalar")
        pt = pf.solve_auxiliary(prob, 1.0, 1.0, tol=1e-12)
        assert pt.xbar[0] == pytest.approx(2.0 / 3.0, abs=1e-10)
        pt = pf.solve_auxiliary(prob, 0.5, 1e-14, tol=1e-13)
        assert pt.xbar[0] == pytest.approx(4.0 / 3.0, abs=1e-10)
        pt = pf.solve_auxiliary(prob, 1.0, 7.0, tol=1e-12)
        assert pt.xbar[0] == pytest.approx(2.0 / 9.0, abs=1e-10)

    def test_residual_below_tol_on_success(self):
        prob = pf.build_canonical("scalar")
        pt = pf.solve_auxiliary(prob, 0.3, 2.0, tol=1e-9)
        assert pt.residual <= 1e-9

    def test_eps_must_be_positive(self):
        with pytest.raises(ParameterError):
            pf.solve_auxiliary(pf.build_canonical("scalar"), 0.0, 1.0)

    @pytest.mark.parametrize("max_iter", [0, -3, 0.5, 2.0, True, None])
    def test_max_iter_must_be_a_positive_integer(self, max_iter):
        # 0, -3 and 0.5 ran no iteration and raised UnboundLocalError
        says = rf"^max_iter must be (an integer|>= 1), got {re.escape(repr(max_iter))}$"
        with pytest.raises(ParameterError, match=says):
            pf.solve_auxiliary(pf.build_canonical("scalar"), 1.0, 1.0, max_iter=max_iter)

    def test_max_iter_takes_numpy_integers(self):
        pt = pf.solve_auxiliary(pf.build_canonical("scalar"), 1.0, 1.0, max_iter=np.int64(500))
        assert pt.iterations <= 500

    def test_max_iter_failure_carries_residual(self):
        prob = pf.build_canonical("scalar")
        with pytest.raises(ConvergenceFailure) as exc:
            pf.solve_auxiliary(prob, 0.01, 50.0, tol=1e-14, max_iter=3,
                               x0=np.array([5.0]))
        assert exc.value.residual is not None and exc.value.residual > 0

    def test_contraction_rate_bound(self):
        # per-iteration residual ratio <= sqrt(1 - 2 lam eps + (lam L)^2) + 1e-6
        prob = pf.build_canonical("scalar")
        for eps, beta in ((1.0, 1.0), (0.1, 10.0), (0.5, 3.0)):
            # the residual of iteration k is the one a max_iter=k solve fails with
            hist = []
            while True:
                try:
                    pt = pf.solve_auxiliary(prob, eps, beta, tol=1e-12,
                                            max_iter=len(hist) + 1, x0=np.array([5.0]))
                except ConvergenceFailure as exc:
                    hist.append(exc.residual)
                    continue
                hist.append(pt.residual)
                break
            lips = prob.lipschitz_bound(eps, beta)
            lam = 0.9 / lips
            bound = math.sqrt(max(1.0 - 2 * lam * eps + (lam * lips) ** 2, 0.0))
            for a, b in zip(hist[:-1], hist[1:]):
                if a > 1e-13:
                    assert b / a <= bound + 1e-6

    def test_skew_instance_center(self):
        prob = pf.build_canonical("skew-box")
        pt = pf.solve_auxiliary(prob, 0.5, 2.0, tol=1e-12)
        assert np.linalg.norm(pt.xbar) <= 1e-11


class TestCentralPath:
    def test_single_time_point(self):
        prob = pf.build_canonical("scalar")
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        pts = pf.central_path(prob, sch, [0.0], tol=1e-12)
        assert pts[0].xbar[0] == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert pts[0].t == 0.0

    def test_norm_decreasing_along_grid(self):
        prob = pf.build_canonical("scalar")
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        pts = pf.central_path(prob, sch, [0.0, 1e3, 1e6], tol=1e-12)
        norms = [np.linalg.norm(p.xbar) for p in pts]
        assert norms[0] > norms[1] > norms[2]
        for p, t in zip(pts, [0.0, 1e3, 1e6]):
            assert p.xbar[0] == pytest.approx(
                scalar_funnel(sch.eps(t), sch.beta(t)), abs=1e-9)

    def test_segment_points_bounded_by_r(self):
        prob = pf.build_canonical("segment")
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        cert = pf.active_set_solve(prob)
        r = np.linalg.norm(cert.least_norm_point)
        pts = pf.central_path(prob, sch, np.logspace(0, 4, 7), tol=1e-12)
        for p in pts:
            assert np.linalg.norm(p.xbar) <= r + 1e-9

    def test_failed_solve_names_its_time(self, monkeypatch):
        # the package's central_path attribute is the function; patch the module
        module = importlib.import_module("penaltyflow.central_path")
        solve, calls = module.solve_auxiliary, []

        def second_fails(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise ConvergenceFailure("stalled", residual=0.25)
            return solve(*args, **kwargs)

        monkeypatch.setattr(module, "solve_auxiliary", second_fails)
        prob = pf.build_canonical("scalar")
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        with pytest.raises(ConvergenceFailure) as exc:
            pf.central_path(prob, sch, [0.0, 1e3, 1e6])
        assert str(exc.value) == "central path solve failed at t=1000: stalled"
        assert exc.value.residual == 0.25

    def test_times_must_increase(self):
        prob = pf.build_canonical("scalar")
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        with pytest.raises(ParameterError):
            pf.central_path(prob, sch, [1.0, 0.5])


class TestLeastNorm:
    @pytest.mark.parametrize("name,expected", [
        ("scalar", [0.0]),
        ("segment", [0.0, 0.0]),
        ("shifted-segment", [1.0, 0.0]),
    ])
    def test_matches_oracle(self, name, expected):
        prob = pf.build_canonical(name)
        sol = pf.least_norm_solution(prob)
        assert np.linalg.norm(sol - np.array(expected)) <= 1e-3

    def test_penalty_vanishes_along_diagonal(self):
        prob = pf.build_canonical("scalar")
        pts = _diagonal_points(prob, 4e-5)
        b_norms = [np.linalg.norm(prob.b1.eval(p.xbar)) for p in pts]
        assert b_norms[-1] <= 1e-4
        assert b_norms[-1] < b_norms[0]

    def test_funnel_norm_bound_on_tail(self):
        prob = pf.build_canonical("shifted-segment")
        r = np.linalg.norm(pf.least_norm_solution(prob))
        for p in _diagonal_points(prob, 1e-4)[-3:]:
            assert np.linalg.norm(p.xbar) <= r + 1e-4


class TestRegularity:
    def test_scalar_example_pair(self):
        prob = pf.build_canonical("scalar")
        rep = pf.path_regularity_check(prob, (1.0, 1.0), (1.0, 2.0))
        assert rep.lhs == pytest.approx(abs(scalar_funnel(1, 2) - scalar_funnel(1, 1)),
                                        abs=1e-9)
        assert rep.lhs == pytest.approx(1.0 / 6.0, abs=1e-9)
        assert rep.ell_used >= 2.0 / 3.0 - 1e-9
        assert rep.passed_sharp and rep.passed_ell

    def test_identical_pairs(self):
        prob = pf.build_canonical("scalar")
        rep = pf.path_regularity_check(prob, (0.7, 3.0), (0.7, 3.0))
        assert rep.lhs <= 1e-10 and rep.passed_sharp and rep.passed_ell

    def test_segment_random_pairs(self):
        prob = pf.build_canonical("segment")
        rng = np.random.default_rng(0)
        for _ in range(100):
            s1 = (rng.uniform(0.1, 1.0), rng.uniform(1.0, 10.0))
            s2 = (rng.uniform(0.1, 1.0), rng.uniform(1.0, 10.0))
            rep = pf.path_regularity_check(prob, s1, s2)
            assert rep.passed_sharp and rep.passed_ell

    def test_positive_parameters_required(self):
        prob = pf.build_canonical("scalar")
        with pytest.raises(ParameterError):
            pf.path_regularity_check(prob, (0.0, 1.0), (1.0, 1.0))

    def test_derivative_bound_on_scalar(self):
        prob = pf.build_canonical("scalar")
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        for t in np.logspace(0, 4, 9):
            rep = pf.path_derivative_check(prob, sch, float(t))
            assert rep.passed, f"t={t}: fd={rep.fd_norm} bound={rep.bound}"
            # the path speed |d/dt 2/(1 + eps + beta)| in closed form
            speed = (2.0 * abs(sch.deps(t) + sch.dbeta(t))
                     / (1.0 + sch.eps(t) + sch.beta(t)) ** 2)
            assert rep.fd_norm == pytest.approx(speed, rel=1e-6)


_NAN = float("nan")
_SCH = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)


@pytest.mark.parametrize("call", [
    lambda prob: pf.solve_auxiliary(prob, _NAN, 1.0),
    lambda prob: pf.solve_auxiliary(prob, 0.5, _NAN),
    lambda prob: pf.solve_auxiliary(prob, 0.5, 1.0, tol=_NAN),
    lambda prob: pf.path_regularity_check(prob, (_NAN, 1.0), (1.0, 1.0)),
    lambda prob: pf.path_regularity_check(prob, (1.0, _NAN), (1.0, 1.0)),
    lambda prob: pf.path_regularity_check(prob, (1.0, 1.0), (_NAN, 1.0)),
    lambda prob: pf.path_regularity_check(prob, (1.0, 1.0), (1.0, _NAN)),
    lambda prob: pf.path_derivative_check(prob, _SCH, _NAN),
    lambda prob: pf.central_path(prob, _SCH, [_NAN]),
    lambda prob: pf.central_path(prob, _SCH, [1.0, _NAN]),
    lambda prob: pf.central_path(prob, _SCH, [_NAN, 1.0]),
    lambda prob: pf.central_path(prob, pf.constant_schedule(0.5, 1.0, 0.1),
                                 [1.0, math.inf]),
], ids=["eps", "beta", "tol", "e1", "b1", "e2", "b2", "t",
        "time", "last-time", "first-time", "inf-time"])
def test_nan_is_a_parameter_error(call):
    prob = pf.build_canonical("scalar")
    start = time.perf_counter()
    with pytest.raises(ParameterError):
        call(prob)
    assert time.perf_counter() - start < 0.1
