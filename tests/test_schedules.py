import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import penaltyflow as pf
from penaltyflow.errors import ParameterError
from penaltyflow.schedules import GRID, MODES, Schedule

FIELDS = ("eps", "beta", "lam", "gamma", "deps", "dbeta")


def on_grid(fn):
    """``fn`` called at each GRID time, as the validator calls it."""
    return np.array([fn(t) for t in GRID.tolist()])


def power_schedule(lam_exp, beta_exp, eps_exp=-0.5, scale_lam=1.0):
    """Custom schedule with independent power laws (for validator tests)."""
    return Schedule(
        eps=lambda t: (1.0 + t) ** eps_exp,
        beta=lambda t: (1.0 + t) ** beta_exp,
        lam=lambda t: scale_lam * (1.0 + t) ** lam_exp,
        gamma=lambda t: 1.0,
        deps=lambda t: eps_exp * (1.0 + t) ** (eps_exp - 1.0),
        dbeta=lambda t: beta_exp * (1.0 + t) ** (beta_exp - 1.0),
        family="custom")


class TestPolynomialFamily:
    def test_values_at_zero(self):
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        assert sch.eps(0.0) == pytest.approx(1.0)
        assert sch.beta(0.0) == pytest.approx(1.0)
        assert sch.lam(0.0) == pytest.approx(0.9 / 1.9)
        assert sch.gamma(0.0) == pytest.approx(1.0)

    def test_derivative_at_zero(self):
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        assert sch.deps(0.0) == pytest.approx(-0.1)
        assert sch.dbeta(0.0) == pytest.approx(0.2)

    def test_offset_b(self):
        sch = pf.polynomial_schedule(0.25, 0.2, 4.0, 1.0, 1.0)
        assert sch.eps(0.0) == pytest.approx(4.0 ** -0.25)
        assert sch.eps(0.0) == pytest.approx(0.70711, abs=1e-5)

    def test_derivatives_match_finite_differences(self):
        sch = pf.polynomial_schedule(0.3, 0.4, 2.0, 0.5, 0.8)
        for t in (0.0, 1.0, 17.3, 1e4):
            h = 1e-6 * (1.0 + t)
            fd = (sch.eps(t + h) - sch.eps(t - h)) / (2 * h)
            assert fd == pytest.approx(sch.deps(t), rel=1e-6)
            fd = (sch.beta(t + h) - sch.beta(t - h)) / (2 * h)
            assert fd == pytest.approx(sch.dbeta(t), rel=1e-6)

    @pytest.mark.parametrize("bad", [
        dict(r=0.0, s=0.2), dict(r=1.0, s=0.2), dict(r=0.1, s=0.0),
        dict(r=0.1, s=0.2, b=0.5), dict(r=0.1, s=0.2, lambda_bar=0.0),
        dict(r=0.1, s=0.2, gamma_bar=1.5),
    ])
    def test_parameter_errors(self, bad):
        with pytest.raises(ParameterError):
            pf.polynomial_schedule(**bad)

    def test_cos_inverse_gamma_positive(self):
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0,
                                     gamma_kind="cos-inverse")
        for t in (0.0, 0.5, 1.0, 10.0, 1e6):
            g = sch.gamma(t)
            assert type(g) is float and 0.0 < g <= 1.0
        assert float(sch.gamma(0.2)) == pytest.approx(math.cos(1.0))

    def test_monotonicity_on_grid(self):
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        eps = on_grid(sch.eps)
        beta = on_grid(sch.beta)
        assert np.all(np.diff(eps) < 0) and np.all(np.diff(beta) > 0)


class TestConstantCallables:
    @pytest.mark.parametrize("sch, value", [
        (pf.constant_schedule(eps=0.3, beta=2, lam=0.5, gamma=1), None),
        (pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 0.7), 0.7),
    ])
    def test_scalar_calls(self, sch, value):
        if value is None:
            fields = {f: sch.params.get(f, 0.0) for f in FIELDS}
        else:
            fields = {"gamma": value}
        for name, c in fields.items():
            fn = getattr(sch, name)
            for s in (0.0, 3, 12.5, 1e8):
                assert type(fn(s)) is float and fn(s) == c, name

    @pytest.mark.parametrize("t", [math.inf, np.float64(math.inf), -math.inf])
    def test_constant_at_infinity(self, t):
        """The constant as a float, not NaN, and without a RuntimeWarning."""
        const = pf.constant_schedule(eps=0.3, beta=2.0, lam=0.5, gamma=0.7)
        poly = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values = [const.eps(t), const.beta(t), const.lam(t), const.gamma(t),
                      const.deps(t), const.dbeta(t), poly.gamma(t), poly.at(t)[3]]
        for got, c in zip(values, (0.3, 2.0, 0.5, 0.7, 0.0, 0.0, 0.7, 0.7)):
            assert type(got) is float and got == c


def _bits(values):
    return [float(v).hex() for v in values]


class TestAt:
    """``at(t)`` is bitwise ``(lam(t), eps(t), beta(t), gamma(t))``."""

    @settings(max_examples=200, deadline=None)
    @given(r=st.floats(1e-3, 0.999), s=st.floats(1e-3, 4.0),
           b=st.floats(1.0, 1e4), lambda_bar=st.floats(1e-3, 1e3),
           cos_gamma=st.booleans(),
           t=st.floats(0.0, 1e9) | st.integers(0, 10**9))
    def test_polynomial_fused(self, r, s, b, lambda_bar, cos_gamma, t):
        sch = pf.polynomial_schedule(r, s, b, lambda_bar, 0.9,
                                     "cos-inverse" if cos_gamma else "constant")
        assert sch._at is not None
        fields = (sch.lam(t), sch.eps(t), sch.beta(t), sch.gamma(t))
        got = sch.at(t)
        assert [type(v) for v in got] == [type(v) for v in fields]
        assert _bits(got) == _bits(fields)
        # the formulas of the docstring, in the association the code rounds in
        eps, beta = (t + b) ** (-r), (t + b) ** s
        assert _bits(got[:3]) == _bits((lambda_bar / (beta + lambda_bar * eps), eps, beta))

    @settings(max_examples=50, deadline=None)
    @given(t=st.floats(0.0, 1e9))
    def test_fallback(self, t):
        for sch in (pf.constant_schedule(eps=0.3, beta=2.0, lam=0.5, gamma=0.7),
                    power_schedule(lam_exp=-0.6, beta_exp=0.55)):
            assert sch._at is None
            want = (sch.lam(t), sch.eps(t), sch.beta(t), sch.gamma(t))
            assert _bits(sch.at(t)) == _bits(want)

    def test_fused_closure_is_not_compared(self):
        sch = pf.polynomial_schedule(0.1, 0.2)
        assert dataclasses.replace(sch, _at=None) == sch
        assert "_at" not in repr(sch)


class TestValidators:
    def test_fb_reference_verdict_passes(self):
        rep = pf.validate_schedule(pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0),
                                   "FB", (1.0, 1.0))
        assert rep.overall
        assert {"r+s<1/2", "r<s"} <= {c.name for c in rep.checks}

    def test_fbf_reference_verdict_fails_with_named_check(self):
        rep = pf.validate_schedule(pf.polynomial_schedule(0.2, 0.2, 1.0, 0.9, 1.0),
                                   "FBF", (1.0, 1.0))
        assert not rep.overall
        assert "r+s<1/3" in rep.failed_names()

    def test_fbf_reference_verdict_passes(self):
        rep = pf.validate_schedule(pf.polynomial_schedule(0.05, 0.25, 1.0, 0.9, 1.0),
                                   "FBF", (1.0, 1.0))
        assert rep.overall

    def test_overall_is_conjunction(self):
        rep = pf.validate_schedule(pf.polynomial_schedule(0.2, 0.2, 1.0, 0.9, 1.0),
                                   "FBF", (1.0, 1.0))
        assert rep.overall == all(c.passed for c in rep.checks)

    def test_sfbp_checks(self):
        good = pf.polynomial_schedule(0.65, 0.6, 1000.0, 0.9, 1.0)
        assert pf.validate_schedule(good, "SFBP", (1.0, 1.0)).overall
        bad = pf.polynomial_schedule(0.4, 0.6, 1.0, 0.9, 1.0)
        rep = pf.validate_schedule(bad, "SFBP", (1.0, 1.0))
        assert not rep.overall and "1/2<r<1" in rep.failed_names()
        # s = 1 is inside the band, r > s is then impossible
        edge = pf.polynomial_schedule(0.99, 1.0, 1.0, 0.9, 1.0)
        assert pf.validate_schedule(edge, "SFBP", (1.0, 1.0)).failed_names() == ["r>s"]

    def test_exponent_and_numeric_agree_on_subgrid(self):
        # the full 20x20 sweep runs in the acceptance suite
        vals = [0.5 * i / 21.0 for i in (2, 7, 11, 14, 19)]
        for mode in ("FB", "FBF"):
            for r in vals:
                for s in vals:
                    sch = pf.polynomial_schedule(r, s, 1.0, 0.9, 1.0)
                    exact = pf.validate_schedule(sch, mode, (1.0, 1.0)).overall
                    numeric = pf.validate_schedule(dataclasses.replace(sch, family="custom"),
                                                   mode, (1.0, 1.0)).overall
                    assert exact == numeric, (mode, r, s)

    # Per mode, the boundaries of the numeric slope rules: a*r + b*s = o, where
    # the rule's fitted slope is c*(a*r + b*s - o) and declares a verdict only
    # outside the deadband, so the band around the boundary is |.| < deadband/c.
    BOUNDARIES = {
        "FB": [(1, 0, 0, 1), (0, 1, 0, 1), (-1, 1, 0, 1), (1, 1, 0.5, 2), (1, 1, 1, 1)],
        "FBF": [(1, 0, 0, 1), (0, 1, 0, 1), (-1, 1, 0, 1), (1, 1, 0.5, 2),
                (1, 1, 1 / 3, 3)],
        "SFBP": [(1, 0, 0, 1), (0, 1, 0, 1), (1, -1, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1),
                 (0, 1, 0.5, 2), (1, 0, 0.5, 2)],
    }

    @settings(max_examples=1000, deadline=None)
    @given(mode=st.sampled_from(["FB", "FBF", "SFBP"]),
           r=st.floats(0.01, 0.99, exclude_min=True, exclude_max=True),
           s=st.floats(0.01, 1.2, exclude_min=True, exclude_max=True),
           log_b=st.floats(0.0, 3.0), log_lambda_bar=st.floats(math.log10(0.03),
                                                               math.log10(2.0)),
           cos_gamma=st.booleans())
    def test_exponent_and_numeric_agree_outside_band(self, mode, r, s, log_b,
                                                     log_lambda_bar, cos_gamma):
        from penaltyflow.schedules import _SLOPE_DEADBAND
        sch = pf.polynomial_schedule(r, s, 10.0 ** log_b, 10.0 ** log_lambda_bar, 1.0,
                                     "cos-inverse" if cos_gamma else "constant")
        exact = pf.validate_schedule(sch, mode, (1.0, 1.0)).overall
        numeric = pf.validate_schedule(dataclasses.replace(sch, family="custom"),
                                       mode, (1.0, 1.0)).overall
        nearest = min(abs(a * r + b * s - o) * c
                      for a, b, o, c in self.BOUNDARIES[mode]) / _SLOPE_DEADBAND
        if nearest >= 1.5:
            assert numeric == exact, (mode, r, s, nearest)
        else:
            # inside the band the numeric rules may only be stricter
            assert exact or not numeric, (mode, r, s, nearest)

    def test_lambda_bound_holds_on_grid_when_check_passes(self):
        # with a large offset the bound holds from t=0, not just on the tail
        sch = pf.polynomial_schedule(0.1, 0.2, 1e6, 0.9, 1.0)
        rep = pf.validate_schedule(sch, "FB", (1.0, 1.0))
        check = {c.name: c for c in rep.checks}["lambda-step-bound"]
        assert check.passed
        lam = on_grid(sch.lam)
        lips = 1.0 + on_grid(sch.eps) + on_grid(sch.beta)
        assert np.all(lam * lips < 1.0)

    def test_eps_beta_growth_matches_exponents(self):
        for r, s in ((0.1, 0.3), (0.3, 0.1), (0.2, 0.2)):
            sch = pf.polynomial_schedule(r, s, 1.0, 0.9, 1.0)
            prod = on_grid(sch.eps) * on_grid(sch.beta)
            if s > r:
                assert prod[-1] > prod[0]
            elif s < r:
                assert prod[-1] < prod[0]
            else:
                assert prod[-1] == pytest.approx(prod[0])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ParameterError):
            pf.validate_schedule(pf.polynomial_schedule(0.1, 0.2), "XX", (1.0, 1.0))


class TestOneEvaluation:
    NAMES = {
        ("FB", False): ["r+s<1/2", "r<s", "lambda-step-bound"],
        ("FB", True): ["eps->0", "beta->inf", "eps*beta->inf", "tikhonov-scale-limit",
                       "penalty-scale-limit", "decay-integral-divergence",
                       "lambda-step-bound"],
        ("FBF", False): ["r+s<1/3", "r<s", "r+s>0", "lambda-step-bound"],
        ("FBF", True): ["eps->0", "beta->inf", "eps*beta->inf",
                        "decay-integral-divergence", "tikhonov-scale-limit",
                        "penalty-scale-limit", "lambda-step-bound"],
        ("SFBP", False): ["1/2<r<1", "1/2<s<=1", "r>s", "lam*beta<2*mu"],
        ("SFBP", True): ["eps->0", "beta->inf", "lam->0", "lam/eps->inf",
                         "liminf-lam*beta>0", "lam-not-integrable", "eps-not-integrable",
                         "lam-square-integrable", "eps-square-integrable",
                         "lam*beta<2*mu"],
    }

    @pytest.mark.parametrize("mode, numeric", list(NAMES))
    def test_each_field_called_once_on_grid(self, mode, numeric):
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        calls = {name: [] for name in FIELDS}

        def wrap(fn, seen):
            def f(t):
                seen.append(t)
                return fn(t)
            return f

        counted = dataclasses.replace(sch, **{name: wrap(getattr(sch, name), seen)
                                              for name, seen in calls.items()},
                                      family="custom" if numeric else sch.family)
        pf.validate_schedule(counted, mode, (1.0, 1.0))
        for name, seen in calls.items():
            # once per GRID time, in order, each time a float
            assert [type(t) for t in seen] == [float] * GRID.size, name
            assert seen == GRID.tolist(), name

    @pytest.mark.parametrize("mode, numeric", list(NAMES))
    def test_check_names_in_order(self, mode, numeric):
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        if numeric:
            sch = dataclasses.replace(sch, family="custom")
        rep = pf.validate_schedule(sch, mode, (1.0, 1.0))
        assert [c.name for c in rep.checks] == self.NAMES[mode, numeric]

    def test_grid_is_read_only(self):
        # every validation reads the one GRID array: a write would move the
        # grid of every later validation in the process
        before = GRID.copy()
        with pytest.raises(ValueError, match="read-only"):
            GRID[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            np.add(GRID, 1.0, out=GRID)
        assert np.array_equal(GRID, before) and GRID[0] == 100.0


def float_only(sch):
    """``sch`` without its fused ``at``, whose every field raises unless it
    is called with one float."""
    def guard(name, fn):
        def f(t):
            if not isinstance(t, float):
                raise TypeError(f"{name} called with {type(t).__name__}")
            return fn(t)
        return f

    return dataclasses.replace(sch, _at=None,
                               **{name: guard(name, getattr(sch, name)) for name in FIELDS})


class TestFloatCalls:
    """Every schedule call the package makes passes one float time."""

    @pytest.mark.parametrize("gamma_kind", ["constant", "cos-inverse"])
    def test_every_caller_passes_a_float(self, gamma_kind):
        base = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 0.8, gamma_kind)
        sch = float_only(base)
        for family in ("polynomial", "custom"):
            for mode in MODES:
                want = pf.validate_schedule(dataclasses.replace(base, family=family),
                                            mode, (1.0, 1.0))
                got = pf.validate_schedule(dataclasses.replace(sch, family=family),
                                           mode, (1.0, 1.0))
                assert got == want, (family, mode)
            assert (pf.attouch_czarnecki_check(dataclasses.replace(sch, family=family))
                    == pf.attouch_czarnecki_check(dataclasses.replace(base, family=family)))
        prob = pf.build_canonical("scalar")
        spec = pf.IntegratorSpec(grid=pf.UniformGrid(h=1.0, T=200.0), store_every=20)
        traj = pf.integrate_fb(prob, sch, np.zeros(1), spec)
        ref = pf.integrate_fb(prob, base, np.zeros(1), spec)
        assert traj.states.tobytes() == ref.states.tobytes()
        rep = pf.tracking_report(prob, traj, pf.central_path(prob, sch, traj.times, tol=1e-12))
        want = pf.tracking_report(prob, ref, pf.central_path(prob, base, ref.times, tol=1e-12))
        assert rep.gaps.tobytes() == want.gaps.tobytes()


class TestAttouchCzarnecki:
    def test_integrable_power_pair(self):
        sch = power_schedule(lam_exp=-0.8, beta_exp=0.5)
        est, ok = pf.attouch_czarnecki_check(sch)
        assert ok and math.isfinite(est)

    def test_divergent_power_pair(self):
        sch = power_schedule(lam_exp=-0.3, beta_exp=0.5)
        est, ok = pf.attouch_czarnecki_check(sch)
        assert not ok and est == math.inf

    def test_constant_lambda_fast_beta(self):
        sch = power_schedule(lam_exp=0.0, beta_exp=2.0)
        est, ok = pf.attouch_czarnecki_check(sch)
        assert ok and math.isfinite(est)

    def test_polynomial_exact_rule(self):
        ok_sch = pf.polynomial_schedule(0.65, 0.6, 1.0, 0.9, 1.0)
        assert pf.attouch_czarnecki_check(ok_sch)[1]
        bad_sch = pf.polynomial_schedule(0.3, 0.4, 1.0, 0.9, 1.0)
        assert not pf.attouch_czarnecki_check(bad_sch)[1]
        # s * rho* = 1: lam * beta^(1 - rho*) ~ 1/t is not integrable
        edge_sch = pf.polynomial_schedule(0.75, 0.5, 1.0, 0.9, 1.0)
        assert not pf.attouch_czarnecki_check(edge_sch)[1]


class TestSerialization:
    """A config's "schedule" object builds bitwise the schedule that
    polynomial_schedule builds from the same numbers."""

    @staticmethod
    def assert_same_values(a, b):
        for t in (0.0, 0.5, 3.0, 1e5):
            for f in FIELDS:
                assert _bits([getattr(a, f)(t)]) == _bits([getattr(b, f)(t)]), (f, t)
            assert _bits(a.at(t)) == _bits(b.at(t)), t

    def test_round_trip(self):
        from penaltyflow.config import schedule_from_dict
        sch = schedule_from_dict({"family": "polynomial", "r": 0.1, "s": 0.2,
                                  "b": 2, "lambda_bar": 0.7})
        self.assert_same_values(sch, pf.polynomial_schedule(0.1, 0.2, 2.0, 0.7, 1.0))
        assert sch.params["gamma_kind"] == "constant"

    def test_round_trip_keeps_gamma_kind(self):
        from penaltyflow.config import schedule_from_dict
        sch = schedule_from_dict({"family": "polynomial", "r": 0.1, "s": 0.2,
                                  "gamma_bar": 0.8, "gamma_kind": "cos-inverse"})
        self.assert_same_values(sch, pf.polynomial_schedule(
            0.1, 0.2, gamma_bar=0.8, gamma_kind="cos-inverse"))
