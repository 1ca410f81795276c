import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import penaltyflow as pf
from penaltyflow.errors import ParameterError
from penaltyflow.schedules import GRID, Schedule

FIELDS = ("eps", "beta", "lam", "gamma", "deps", "dbeta")


def power_schedule(lam_exp, beta_exp, eps_exp=-0.5, scale_lam=1.0):
    """Custom schedule with independent power laws (for validator tests)."""
    return Schedule(
        eps=lambda t: (1.0 + t) ** eps_exp,
        beta=lambda t: (1.0 + t) ** beta_exp,
        lam=lambda t: scale_lam * (1.0 + t) ** lam_exp,
        gamma=lambda t: np.ones_like(np.asarray(t, dtype=float)) if np.ndim(t) else 1.0,
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
            g = float(sch.gamma(t))
            assert 0.0 < g <= 1.0
        assert float(sch.gamma(0.2)) == pytest.approx(math.cos(1.0))

    def test_monotonicity_on_grid(self):
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        eps = sch.eps(GRID)
        beta = sch.beta(GRID)
        assert np.all(np.diff(eps) < 0) and np.all(np.diff(beta) > 0)


class TestConstantCallables:
    @pytest.mark.parametrize("sch, value", [
        (pf.constant_schedule(eps=0.3, beta=2, lam=0.5, gamma=1), None),
        (pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 0.7), 0.7),
    ])
    def test_scalar_and_array_calls(self, sch, value):
        if value is None:
            fields = {f: sch.params.get(f, 0.0) for f in
                      ("eps", "beta", "lam", "gamma", "deps", "dbeta")}
        else:
            fields = {"gamma": value}
        t = np.array([[0.0, 1.5], [1e3, 7.0], [2.0, 1e8]])
        for name, c in fields.items():
            fn = getattr(sch, name)
            for s in (0.0, 3, 12.5):
                assert type(fn(s)) is float and fn(s) == c, name
            out = fn(t)
            assert out.shape == t.shape and out.dtype == float, name
            assert np.array_equal(out, np.full(t.shape, float(c))), name


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

    def test_exponent_and_numeric_agree_on_subgrid(self):
        # the full 20x20 sweep runs in the acceptance suite
        vals = [0.5 * i / 21.0 for i in (2, 7, 11, 14, 19)]
        for mode in ("FB", "FBF"):
            for r in vals:
                for s in vals:
                    sch = pf.polynomial_schedule(r, s, 1.0, 0.9, 1.0)
                    exact = pf.validate_schedule(sch, mode, (1.0, 1.0)).overall
                    numeric = pf.validate_schedule(sch, mode, (1.0, 1.0),
                                                   force_numeric=True).overall
                    assert exact == numeric, (mode, r, s)

    def test_lambda_bound_holds_on_grid_when_check_passes(self):
        # with a large offset the bound holds from t=0, not just on the tail
        sch = pf.polynomial_schedule(0.1, 0.2, 1e6, 0.9, 1.0)
        rep = pf.validate_schedule(sch, "FB", (1.0, 1.0))
        check = {c.name: c for c in rep.checks}["lambda-step-bound"]
        assert check.passed
        lam = sch.lam(GRID)
        lips = 1.0 + sch.eps(GRID) + sch.beta(GRID)
        assert np.all(lam * lips < 1.0)

    def test_eps_beta_growth_matches_exponents(self):
        for r, s in ((0.1, 0.3), (0.3, 0.1), (0.2, 0.2)):
            sch = pf.polynomial_schedule(r, s, 1.0, 0.9, 1.0)
            prod = sch.eps(GRID) * sch.beta(GRID)
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
                                              for name, seen in calls.items()})
        pf.validate_schedule(counted, mode, (1.0, 1.0), force_numeric=numeric)
        for name, seen in calls.items():
            assert len(seen) == 1, name
            assert np.array_equal(seen[0], GRID), name

    @pytest.mark.parametrize("mode, numeric", list(NAMES))
    def test_check_names_in_order(self, mode, numeric):
        rep = pf.validate_schedule(pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0),
                                   mode, (1.0, 1.0), force_numeric=numeric)
        assert [c.name for c in rep.checks] == self.NAMES[mode, numeric]

    @pytest.mark.parametrize("mode", ["FB", "FBF", "SFBP"])
    def test_scalar_result_is_broadcast(self, mode):
        sch = power_schedule(lam_exp=-0.6, beta_exp=0.55)
        flat = dataclasses.replace(sch, gamma=lambda t: 1.0)
        assert type(flat.gamma(GRID)) is float
        assert (pf.validate_schedule(flat, mode, (1.0, 1.0))
                == pf.validate_schedule(sch, mode, (1.0, 1.0)))


class TestAttouchCzarnecki:
    def test_integrable_power_pair(self):
        sch = power_schedule(lam_exp=-0.8, beta_exp=0.5)
        est, ok = pf.attouch_czarnecki_check(sch, rho_star=2.0, horizon=1e6)
        assert ok and math.isfinite(est)

    def test_divergent_power_pair(self):
        sch = power_schedule(lam_exp=-0.3, beta_exp=0.5)
        est, ok = pf.attouch_czarnecki_check(sch, rho_star=2.0, horizon=1e6)
        assert not ok and est == math.inf

    def test_constant_lambda_fast_beta(self):
        sch = power_schedule(lam_exp=0.0, beta_exp=2.0)
        est, ok = pf.attouch_czarnecki_check(sch, rho_star=2.0, horizon=1e6)
        assert ok and math.isfinite(est)

    def test_polynomial_exact_rule(self):
        ok_sch = pf.polynomial_schedule(0.65, 0.6, 1.0, 0.9, 1.0)
        assert pf.attouch_czarnecki_check(ok_sch)[1]
        bad_sch = pf.polynomial_schedule(0.3, 0.4, 1.0, 0.9, 1.0)
        assert not pf.attouch_czarnecki_check(bad_sch)[1]

    def test_horizon_precondition(self):
        with pytest.raises(ParameterError):
            pf.attouch_czarnecki_check(power_schedule(-0.8, 0.5), horizon=1e3)


class TestSerialization:
    def test_round_trip(self):
        from penaltyflow.config import schedule_from_dict, schedule_to_dict
        sch = pf.polynomial_schedule(0.1, 0.2, 1.0, 0.9, 1.0)
        d = schedule_to_dict(sch)
        assert d == {"family": "polynomial", "r": 0.1, "s": 0.2, "b": 1.0,
                     "lambda_bar": 0.9, "gamma_bar": 1.0}
        sch2 = schedule_from_dict(d)
        for t in (0.0, 3.0, 1e5):
            assert sch2.eps(t) == sch.eps(t)
            assert sch2.lam(t) == sch.lam(t)

    def test_round_trip_keeps_gamma_kind(self):
        from penaltyflow.config import schedule_from_dict
        sch = pf.polynomial_schedule(0.1, 0.2, gamma_kind="cos-inverse")
        sch2 = schedule_from_dict(sch.to_dict())
        for t in (0.5, 3.0, 1e5):
            assert sch2.gamma(t) == sch.gamma(t)

    def test_custom_not_serializable(self):
        with pytest.raises(ParameterError):
            pf.constant_schedule(1.0, 1.0, 0.1).to_dict()
