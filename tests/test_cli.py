import contextlib
import copy
import dataclasses
import inspect
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import penaltyflow as pf
from penaltyflow import config, errors, runner
from penaltyflow.cli import main
from penaltyflow.config import load_config, parse_config
from penaltyflow.errors import (ConfigError, ConvergenceFailure, FormatError,
                                ParameterError, PenaltyflowError)
from penaltyflow.pgmio import atomic_write_bytes
from penaltyflow.runner import (ISNR_COLUMNS, PATH_COLUMNS,
                                TRAJECTORY_COLUMNS, run_experiment)


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "instance": "scalar",
        "mode": "FB",
        "schedule": {"family": "polynomial", "r": 0.1, "s": 0.2, "b": 1,
                     "lambda_bar": 0.9, "gamma_bar": 1.0},
        "grid": {"kind": "uniform", "h": 1.0, "T": 1e3},
        "store_every": 50,
        "outputs": {"trajectory_csv": True, "report_json": True,
                    "tracking": True, "path_csv": True},
        "seed": 0,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# valid values where the table's type alone does not make one
VALID = {
    "$.mode": st.sampled_from(("FB", "FBF", "SFBP")),
    "$.max_steps": st.none() | st.integers(1, 10**6),
    "$.schedule.family": st.just("polynomial"),
    "$.schedule.r": st.floats(0.01, 0.99),
    "$.schedule.s": st.floats(0.01, 2.0),
    "$.schedule.b": st.floats(1.0, 100.0) | st.integers(1, 100),
    "$.schedule.lambda_bar": st.floats(0.01, 2.0),
    "$.schedule.gamma_bar": st.floats(0.01, 1.0),
    "$.schedule.gamma_kind": st.sampled_from(("constant", "cos-inverse")),
    "$.instance.deblur.image": st.sampled_from(("checkerboard", "disk", "ramp")),
}
BY_TYPE = {bool: st.booleans(),
           int: st.integers(1, 10**6) | st.integers(1, 1000).map(float),
           float: st.floats(1e-3, 1e3) | st.integers(1, 1000)}
# values of another JSON type than the leaf's (null is dropped where allowed)
WRONG = {bool: ["no", [1], 0, None], int: ["3", [1], True, 2.5, None],
         float: ["0.5", [1], True, None], str: [[1], True, 3, None]}


def draw_object(draw, table, where, leaves):
    obj = {}
    for key, (kind, default) in table.items():
        if default is not config._REQUIRED and draw(st.booleans()):
            continue
        path = f"{where}.{key}"
        if isinstance(kind, dict):
            obj[key] = draw_object(draw, kind, path, leaves)
        else:
            obj[key] = draw(VALID.get(path, BY_TYPE.get(kind)))
            leaves.append((obj, key, path, kind, default))
    return obj


@st.composite
def valid_configs(draw):
    """A config drawn from the schema tables, with every leaf as
    (container, key, path, type, default)."""
    leaves = []
    top = {k: v for k, v in config._TOP.items() if v[0] is not object}
    cfg = draw_object(draw, top, "$", leaves)
    if cfg["mode"] == "SFBP" and "safety_factor" in cfg:
        del cfg["safety_factor"]
        leaves = [leaf for leaf in leaves if leaf[2] != "$.safety_factor"]
    if draw(st.booleans()):
        cfg["instance"] = {"deblur": draw_object(
            draw, config._DEBLUR, "$.instance.deblur", leaves)}
    else:
        cfg["instance"] = draw(st.sampled_from(pf.CANONICAL_NAMES))
        leaves.append((cfg, "instance", "$.instance", str, config._REQUIRED))
    kind = draw(st.sampled_from(sorted(config._GRIDS)))
    grid = cfg["grid"] = {"kind": kind}
    leaves.append((grid, "kind", "$.grid.kind", str, config._REQUIRED))
    for key in config._GRIDS[kind]:
        grid[key] = draw(BY_TYPE[float])
        leaves.append((grid, key, f"$.grid.{key}", float, config._REQUIRED))
    if draw(st.booleans()):
        x0 = cfg["x0"] = draw(st.lists(BY_TYPE[float], min_size=1, max_size=3))
        leaves.extend((x0, i, f"$.x0[{i}]", float, config._REQUIRED)
                      for i in range(len(x0)))
    return cfg, leaves


SMALL_DEBLUR = {"instance": {"deblur": {"size": 8}}, "mode": "FBF",
                "schedule": {"family": "polynomial", "r": 0.05, "s": 0.25,
                             "b": 1, "lambda_bar": 0.3, "gamma_bar": 1.0},
                "max_steps": 5}
# an FBF schedule that fails validation (r + s = 0.4 is not below 1/3)
FAILING_FBF = {"mode": "FBF",
               "schedule": {"family": "polynomial", "r": 0.2, "s": 0.2, "b": 1,
                            "lambda_bar": 0.9, "gamma_bar": 1.0}}


# every exception type the package defines, so that a new one is covered too
ERROR_TYPES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__]

# (instance, its dimension, a mode it runs in, a mode it cannot take)
PAIRINGS = [("scalar", 1, "FB", "SFBP"), ("segment", 2, "FBF", "SFBP"),
            ("shifted-segment", 2, "FB", "SFBP"), ("skew-box", 2, "FBF", "FB"),
            ("sfbp-two-penalty", 1, "SFBP", "FBF"),
            ({"deblur": {"size": 4, "kernel_size": 3}}, 48, "FBF", "SFBP")]
# (r, s, b) that pass or fail the exponent conditions of each mode
EXPONENTS = {"FB": ([(0.1, 0.2, 1), (0.05, 0.25, 1)], [(0.2, 0.2, 1), (0.65, 0.6, 1000)]),
             "SFBP": ([(0.65, 0.6, 1000)], [(0.05, 0.25, 1), (0.2, 0.2, 1)])}
EXPONENTS["FBF"] = EXPONENTS["FB"]


@st.composite
def small_configs(draw):
    """A config with a horizon of a few steps. Each field drawn into
    ``faults`` takes a value that fails a check made before integration."""
    inst, dim, mode, wrong_mode = draw(st.sampled_from(PAIRINGS))
    faults = draw(st.sets(st.sampled_from(
        ("mode", "schedule", "h", "T", "store_every", "max_steps",
         "safety_factor", "x0")), max_size=2))

    def pick(name, good, bad):
        return draw(st.sampled_from(bad if name in faults else good))

    r, s, b = pick("schedule", *EXPONENTS[mode])
    cfg = {"instance": inst, "mode": pick("mode", [mode], [wrong_mode]),
           "schedule": {"family": "polynomial", "r": r, "s": s, "b": b,
                        "lambda_bar": 0.3},
           "grid": {"kind": "uniform", "h": pick("h", [0.5, 2], [-1, 0]),
                    "T": pick("T", [1, 3], [-1, 0, 1e-13])},
           "store_every": pick("store_every", [1, 2], [0, -1]),
           "max_steps": pick("max_steps", [None, 1, 4], [0, -3]),
           "x0": pick("x0", ["default", [0.5] * dim], [[], [0.5] * (dim + 1)])}
    if mode != "SFBP" or "safety_factor" in faults:  # SFBP takes none
        cfg["safety_factor"] = pick("safety_factor", [0.5, 1], [0, 2])
    return cfg


class TestPgmRoundTrip:
    def test_bytes_identical(self, tmp_path):
        img = pf.make_test_image("checkerboard", 8)
        p1 = tmp_path / "a.pgm"
        pf.write_pgm(p1, img)
        back = pf.read_pgm(p1)
        p2 = tmp_path / "b.pgm"
        pf.write_pgm(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_quantized(self, tmp_path):
        img = np.array([[0.0, 1.0], [0.5, 0.25]])
        p = tmp_path / "q.pgm"
        pf.write_pgm(p, img)
        back = pf.read_pgm(p)
        assert np.allclose(back * 255.0, np.rint(img * 255.0))

    def test_ascii_pgm_rejected(self, tmp_path):
        p = tmp_path / "ascii.pgm"
        p.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(FormatError):
            pf.read_pgm(p)

    def test_garbage_rejected(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"JUNK")
        with pytest.raises(FormatError):
            pf.read_pgm(p)

    def test_truncated_raster_rejected(self, tmp_path):
        p = tmp_path / "short.pgm"
        p.write_bytes(b"P5\n4 4\n255\nab")
        with pytest.raises(FormatError):
            pf.read_pgm(p)

    @pytest.mark.parametrize("blob", [b"P5\n-2 -2\n255\nabcd", b"P5\n0 5\n255\n"])
    def test_empty_or_negative_size_rejected(self, tmp_path, blob):
        p = tmp_path / "size.pgm"
        p.write_bytes(blob)
        with pytest.raises(FormatError, match="at least 1x1"):
            pf.read_pgm(p)

    @pytest.mark.parametrize("blob, message", [
        (b"P5\n# made by hand\n2 2\n255\nabcd", "malformed or truncated PGM header"),
        (b"P5\n2  2\n255\nabcd", "malformed or truncated PGM header"),
        (b"P5\n2 2\n255", "malformed or truncated PGM header"),
        (b"P5\n2 2\n65535\nabcdefgh", "unsupported PGM maxval 65535 (need 255)"),
    ], ids=["comment", "two-spaces", "no-raster", "maxval-65535"])
    def test_header_other_than_write_pgm_rejected(self, tmp_path, blob, message):
        # the header must be exactly P5, width, height and 255, each followed
        # by one whitespace byte
        p = tmp_path / "header.pgm"
        p.write_bytes(blob)
        with pytest.raises(FormatError) as exc:
            pf.read_pgm(p)
        assert str(exc.value) == message

    def test_nan_pixel_rejected(self, tmp_path):
        p = tmp_path / "nan.pgm"
        with pytest.raises(ParameterError, match=r"\[0, 1\]"):
            pf.write_pgm(p, np.array([[0.5, np.nan]]))
        assert not p.exists()

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
    def test_new_file_mode_follows_umask(self, tmp_path, umask):
        # a plain open() gives 0o666 less the umask; a mkstemp file kept 0o600
        old = os.umask(umask)
        try:
            pf.write_pgm(tmp_path / "m.pgm", np.zeros((2, 2)))
        finally:
            os.umask(old)
        assert (tmp_path / "m.pgm").stat().st_mode & 0o777 == 0o666 & ~umask
        assert [f.name for f in tmp_path.iterdir()] == ["m.pgm"]

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        # str is not bytes: the write fails after the temp file is made
        target = tmp_path / "a.bin"
        atomic_write_bytes(target, b"old")
        with pytest.raises(TypeError):
            atomic_write_bytes(target, "new")
        assert target.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["a.bin"]


class TestConfigParsing:
    def test_json_error_carries_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"instance": "scalar",\n  "mode": FB}\n')
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        assert "line 2" in str(exc.value)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError) as exc:
            parse_config({"instance": "scalar", "mode": "XX",
                          "schedule": {"family": "polynomial", "r": 0.1, "s": 0.2}})
        assert "mode" in str(exc.value)

    def test_unknown_output_flag(self):
        with pytest.raises(ConfigError):
            parse_config({"instance": "scalar", "mode": "FB",
                          "schedule": {"family": "polynomial", "r": 0.1, "s": 0.2},
                          "outputs": {"plots": True}})

    def test_unknown_top_level_key_named(self):
        for key in ("store_evry", "safty_factor"):
            with pytest.raises(ConfigError) as exc:
                parse_config({"instance": "scalar", "mode": "FB",
                              "schedule": {"family": "polynomial", "r": 0.1, "s": 0.2},
                              key: 5})
            assert exc.value.field == f"$.{key}"

    def test_safety_factor_rejected_for_sfbp(self):
        base = {"instance": "sfbp-two-penalty", "mode": "SFBP",
                "schedule": {"family": "polynomial", "r": 0.65, "s": 0.6, "b": 1000}}
        with pytest.raises(ConfigError) as exc:
            parse_config(dict(base, safety_factor=0.1))
        assert exc.value.field == "$.safety_factor"
        assert parse_config(base).mode == "SFBP"

    @pytest.mark.parametrize("key, value, field", [
        ("store_every", "abc", "$.store_every"),
        ("store_every", True, "$.store_every"),
        ("store_every", 2.5, "$.store_every"),
        ("max_steps", "x", "$.max_steps"),
        ("seed", [1], "$.seed"),
        ("safety_factor", "half", "$.safety_factor"),
        ("cap_steps", False, "$.cap_steps"),  # unknown: FB and FBF steps are always capped
        ("max_steps", True, "$.max_steps"),
        ("x0", ["a"], "$.x0[0]"),
        ("x0", [False], "$.x0[0]"),
        ("grid", [1], "$.grid"),
        ("outputs", [1], "$.outputs"),
        ("grid", {"kind": "uniform", "h": True, "T": 1e3}, "$.grid.h"),
        ("grid", {"kind": "uniform", "h": 0.2, "T": 1e3, "h0": 0.1}, "$.grid.h0"),
        ("outputs", {"checkpoint": "no"}, "$.outputs.checkpoint"),
        ("schedule", {"family": "polynomial", "r": [1], "s": 0.2}, "$.schedule.r"),
        ("schedule", {"family": "polynomial", "r": 0.1, "s": 0.2, "gama_bar": 1.0},
         "$.schedule.gama_bar"),
        ("instance", {"deblur": {"size": "big"}}, "$.instance.deblur.size"),
        ("instance", {"deblur": {"size": 8.5}}, "$.instance.deblur.size"),
        ("instance", {"deblur": {"sizee": 8}}, "$.instance.deblur.sizee"),
        ("grid", {"kind": "uniform", "h": math.nan, "T": 10}, "$.grid.h"),
        ("grid", {"kind": "uniform", "h": 0.2, "T": math.inf}, "$.grid.T"),
        ("grid", {"kind": "geometric", "h0": 0.1, "ratio": -math.inf, "T": 10},
         "$.grid.ratio"),
        ("safety_factor", math.nan, "$.safety_factor"),
        ("x0", [1.0, math.inf], "$.x0[1]"),
        ("schedule", {"family": "polynomial", "r": math.nan, "s": 0.2}, "$.schedule.r"),
        ("instance", {"deblur": {"noise_std": math.nan}}, "$.instance.deblur.noise_std"),
        ("x0", "origin", "$.x0"),
        ("schedule", {"family": "polynomial", "s": 0.2}, "$.schedule.r"),
    ])
    def test_mistyped_scalar_named(self, tmp_path, key, value, field):
        base = {"instance": "scalar", "mode": "FB",
                "schedule": {"family": "polynomial", "r": 0.1, "s": 0.2}}
        with pytest.raises(ConfigError) as exc:
            parse_config(dict(base, **{key: value}))
        assert exc.value.field == field
        path = write_config(tmp_path, **{key: value})
        assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 1

    def test_input_left_unchanged(self):
        data = {"instance": {"deblur": {"size": 16}}, "mode": "FBF",
                "schedule": {"family": "polynomial", "r": 0.05, "s": 0.25},
                "grid": {"kind": "geometric", "h0": 0.1, "ratio": 1.01, "T": 10},
                "outputs": {"images": True}}
        before = copy.deepcopy(data)
        cfg = parse_config(data)
        assert data == before
        assert cfg.instance["deblur"]["kernel_size"] == 9
        assert cfg.grid == {"h": 0.1, "ratio": 1.01, "T": 10.0}

    @pytest.mark.parametrize("grid, spec", [
        ({}, pf.IntegratorSpec(h=0.2, T=1e3)),
        ({"grid": {"kind": "uniform", "h": 0.5, "T": 40}}, pf.IntegratorSpec(h=0.5, T=40.0)),
        ({"grid": {"kind": "geometric", "h0": 0.01, "ratio": 1.001, "T": 1e4}},
         pf.IntegratorSpec(h=0.01, T=1e4, ratio=1.001))], ids=["default", "uniform", "geometric"])
    def test_grid_gives_the_spec_its_steps(self, grid, spec):
        # a uniform grid requests the same step throughout: ratio exactly 1
        cfg = parse_config({"instance": "scalar", "mode": "FB",
                            "schedule": {"family": "polynomial", "r": 0.1, "s": 0.2}, **grid})
        assert runner._prepare(cfg)[4] == spec

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mistyped_leaf_named(self, data):
        cfg, leaves = data.draw(valid_configs())
        before = copy.deepcopy(cfg)
        parse_config(cfg)
        assert cfg == before
        obj, key, path, kind, default = data.draw(st.sampled_from(leaves))
        obj[key] = data.draw(st.sampled_from(
            [w for w in WRONG[kind] if w is not None or default is not None]))
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert exc.value.field == path

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_missing_required_leaf_named(self, data):
        cfg, leaves = data.draw(valid_configs())
        obj, key, path, _, _ = data.draw(st.sampled_from(
            [leaf for leaf in leaves
             if leaf[4] is config._REQUIRED and isinstance(leaf[0], dict)]))
        del obj[key]
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert exc.value.field == path
        if path != "$.grid.kind":  # read first, to pick the grid's fields
            assert str(exc.value) == f"{path}: missing required field"

    def test_integral_float_counts(self):
        cfg = parse_config({"instance": "scalar", "mode": "FB",
                            "schedule": {"family": "polynomial", "r": 0.1, "s": 0.2},
                            "max_steps": 5e4, "store_every": 2.0, "seed": 3,
                            "x0": [1]})
        assert (cfg.max_steps, cfg.store_every, cfg.seed) == (50000, 2, 3)
        assert type(cfg.max_steps) is int and cfg.x0 == [1.0]


def reference_fmt(x):
    """Reference for ``runner._field``: the per-value formatter it replaced."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return repr(float(x))


def reference_csv_bytes(columns, rows):
    """The CSV bytes of a header and rows of values, formatted value by value."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(reference_fmt(v) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def per_row_trajectory_rows(traj, gaps):
    """Reference for ``runner._trajectory_rows``: one eager tuple per sample."""
    rows = []
    for i in range(traj.times.size):
        rows.append((traj.times[i], traj.step_sizes[i],
                     math.sqrt(np.add.reduce(traj.states[i] * traj.states[i])),
                     None if gaps is None else gaps[i],
                     traj.b1_norms[i],
                     math.nan if traj.psi_sums is None else traj.psi_sums[i],
                     None if traj.p_norms is None else traj.p_norms[i]))
    return rows


class TestTrajectoryRows:
    # FBF sets p_norms, SFBP sets psi_sums, FB sets neither
    @pytest.mark.parametrize("name, mode, r, s, b", [
        ("scalar", "FB", 0.1, 0.2, 1.0), ("skew-box", "FBF", 0.05, 0.25, 1.0),
        ("sfbp-two-penalty", "SFBP", 0.65, 0.6, 1000.0)])
    @pytest.mark.parametrize("with_gaps", [False, True])
    def test_same_csv_bytes_as_per_row_reference(self, tmp_path, name, mode, r, s,
                                                  b, with_gaps):
        prob = pf.build_canonical(name)
        integrate = {"FB": pf.integrate_fb, "FBF": pf.integrate_fbf,
                     "SFBP": pf.integrate_sfbp}[mode]
        traj = integrate(prob, pf.polynomial_schedule(r, s, b), np.full(prob.dim, 0.7),
                         pf.IntegratorSpec(h=0.5, T=40.0, store_every=3))
        gaps = None
        if with_gaps:
            gaps = np.random.default_rng(0).random(traj.times.size)
            gaps[1] = math.nan
        new = tmp_path / "new.csv"
        runner.emit_csv(new, TRAJECTORY_COLUMNS, runner._trajectory_rows(traj, gaps))
        assert new.read_bytes() == reference_csv_bytes(
            TRAJECTORY_COLUMNS, per_row_trajectory_rows(traj, gaps))

    @given(st.lists(st.one_of(
        st.none(), st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                         2.2250738585072014e-308, np.float64(-0.0), np.float64(math.nan),
                         np.float64(1e-310), np.float64(-7.25), np.int64(0),
                         np.int64(-3), np.int64(2**53 + 1)]),
        st.floats(allow_nan=False).map(np.float64),
        st.integers(-2**63, 2**63 - 1).map(np.int64)), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_fields_equal_the_per_value_formatter(self, values):
        assert [runner._field(v) for v in values] == [reference_fmt(v) for v in values]
        # two columns, each formatted by its own map, give the per-row fields
        rows = list(runner._csv_rows(values, values[::-1]))
        assert rows == [(reference_fmt(a), reference_fmt(b))
                        for a, b in zip(values, values[::-1])]


class TestRunExperiment:
    def test_minimal_scalar_run(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        rep = run_experiment(cfg, str(tmp_path / "out"))
        assert rep.exit_code == 0
        traj_csv = tmp_path / "out" / "trajectory.csv"
        lines = traj_csv.read_text().splitlines()
        assert lines[0] == ",".join(TRAJECTORY_COLUMNS)
        final_gap = float(lines[-1].split(",")[3])
        assert final_gap <= 0.05
        path_csv = tmp_path / "out" / "path.csv"
        header, *rows = path_csv.read_text().splitlines()
        assert header == ",".join(PATH_COLUMNS)
        # the scalar path moves, so each point is a fresh solve to tol 1e-10
        residual = PATH_COLUMNS.index("residual")
        assert max(float(row.split(",")[residual]) for row in rows) <= 1e-10

    def test_schedule_failure_exit_2_names_check(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path, mode="FBF", instance="skew-box",
            schedule={"family": "polynomial", "r": 0.2, "s": 0.2, "b": 1,
                      "lambda_bar": 0.9, "gamma_bar": 1.0}))
        rep = run_experiment(cfg, str(tmp_path / "out"))
        assert rep.exit_code == 2
        assert any("r+s<1/3" in m for m in rep.messages)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        failed = [c["name"] for c in report["metrics"]["schedule_checks"]
                  if not c["passed"]]
        assert "r+s<1/3" in failed

    def test_incompatible_mode_precondition(self, tmp_path):
        cfg = load_config(write_config(tmp_path, instance="skew-box", mode="FB"))
        rep = run_experiment(cfg, str(tmp_path / "out"))
        assert rep.exit_code == 4
        assert rep.messages == ["precondition error: FB mode needs a cocoercive "
                                "smooth part; instance 'skew-box' is not"]
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["exit_code"] == 4 and report["messages"] == rep.messages

    def test_divergence_exit_3(self, tmp_path, monkeypatch):
        # a D 1000 times steeper than its declared eta = 1 defeats the step cap
        prob = pf.build_canonical("scalar")
        steep = dataclasses.replace(prob, d=dataclasses.replace(
            prob.d, eval=lambda x: 1000.0 * (x - 2.0)))
        monkeypatch.setattr(runner, "build_canonical", lambda name: steep)
        cfg = parse_config({
            "instance": "scalar", "mode": "FB",
            "schedule": {"family": "polynomial", "r": 0.1, "s": 0.2},
            "grid": {"kind": "uniform", "h": 1.0, "T": 1e5},
            "outputs": {"trajectory_csv": False},
        })
        rep = run_experiment(cfg, str(tmp_path / "out3"))
        assert rep.exit_code == 3
        assert len(rep.messages) == 1
        assert re.fullmatch(r"integration diverged: state norm \S+ exceeded 1e\+12 "
                            r"at step 64", rep.messages[0])
        report = json.loads((tmp_path / "out3" / "report.json").read_text())
        assert report["exit_code"] == 3 and report["messages"] == rep.messages

    def test_deblur_pipeline_artifacts(self, tmp_path):
        cfg = parse_config({
            "instance": {"deblur": {"image": "checkerboard", "size": 32,
                                    "kernel_size": 9, "sigma": 4.0,
                                    "noise_std": 1e-3}},
            "mode": "FBF",
            "schedule": {"family": "polynomial", "r": 0.05, "s": 0.25, "b": 1,
                         "lambda_bar": 0.31819805153394637, "gamma_bar": 1.0},
            "grid": {"kind": "uniform", "h": 1.0, "T": 1e9},
            "max_steps": 500,
            "store_every": 50,
            "outputs": {"trajectory_csv": True, "report_json": True,
                        "images": True, "isnr_csv": True, "checkpoint": True},
            "seed": 5,
        })
        out = tmp_path / "deblur"
        rep = run_experiment(cfg, str(out))
        assert rep.exit_code == 0
        for name in ("degraded.pgm", "restored.pgm", "original.pgm",
                     "degraded.json", "isnr.csv", "trajectory.csv",
                     "checkpoint.json"):
            assert (out / name).exists(), name
        meta = json.loads((out / "degraded.json").read_text())
        assert meta["kernel_size"] == 9 and meta["sigma"] == 4.0
        assert meta["seed"] == 5 and "clipped_count" in meta
        isnr_lines = (out / "isnr.csv").read_text().splitlines()
        assert isnr_lines[0] == ",".join(ISNR_COLUMNS)
        # every 50th step, then the state before the last step and the final one
        steps = [float(line.split(",")[0]) for line in isnr_lines[1:]]
        assert steps == [float(k) for k in range(0, 500, 50)] + [499.0, 500.0]
        ckpt = json.loads((out / "checkpoint.json").read_text())
        assert set(ckpt) == {"t", "x"} and len(ckpt["x"]) == 3 * 32 * 32

    # keep: some output reads step quantities (trajectory.csv's p_norm, or
    # tracking, which path.csv runs too); the march stores no step vector
    # either way, so the spec is the same and the readers get theirs
    @pytest.mark.parametrize("outputs, keep", [
        ({"trajectory_csv": False}, False),
        ({"trajectory_csv": False, "checkpoint": True, "report_json": False}, False),
        ({}, True),  # trajectory_csv is on by default
        ({"trajectory_csv": False, "tracking": True}, True),
        ({"trajectory_csv": False, "path_csv": True}, True)])
    def test_step_vectors_kept_for_the_outputs_that_read_them(self, tmp_path, outputs,
                                                              keep):
        cfg = load_config(write_config(tmp_path, instance="skew-box", mode="FBF",
                                       store_every=200, outputs=outputs))
        spec = runner._prepare(cfg)[4]
        assert [f.name for f in dataclasses.fields(spec)] == [
            "h", "T", "ratio", "safety_factor", "store_every", "max_steps"]
        out = tmp_path / "out"
        report = run_experiment(cfg, str(out))
        assert report.exit_code == 0
        written = {os.path.basename(p) for p in report.artifacts}
        tracked = "tracking" in report.metrics
        assert (tracked or "trajectory.csv" in written) is keep
        assert tracked is (cfg.outputs["tracking"] or cfg.outputs["path_csv"])
        if tracked:
            assert 0.0 <= report.metrics["tracking"]["final_gap"] < math.inf
        if cfg.outputs["trajectory_csv"]:
            # every FBF sample has its p_norm
            header, *rows = (out / "trajectory.csv").read_text().splitlines()
            p_norm = header.split(",").index("p_norm")
            assert rows and all(row.split(",")[p_norm] for row in rows)

    def test_final_gap_is_the_last_gap_to_path(self, tmp_path):
        # x(T) and xbar(T) end about 1e-322 apart, where theta = |x - xbar|^2 / 2
        # underflows to 0.0; final_gap used to be sqrt(2*theta) = 0.0
        cfg = load_config(write_config(
            tmp_path, instance="skew-box", mode="FBF",
            schedule={"family": "polynomial", "r": 0.05, "s": 0.25, "b": 1,
                      "lambda_bar": 0.9, "gamma_bar": 1.0},
            grid={"kind": "uniform", "h": 1.0, "T": 1e4}, safety_factor=1.0,
            store_every=500, x0=[-0.13130619395851073, -0.5998709521145049]))
        out = tmp_path / "out"
        assert run_experiment(cfg, str(out)).exit_code == 0
        report = json.loads((out / "report.json").read_text())
        last = (out / "trajectory.csv").read_text().splitlines()[-1].split(",")
        gap = float(last[TRAJECTORY_COLUMNS.index("gap_to_path")])
        assert 0.0 < gap < 1e-300
        assert report["metrics"]["tracking"]["final_gap"] == gap

    @pytest.mark.parametrize("overrides", [
        dict(instance="skew-box", mode="FBF", store_every=200,
             outputs={"trajectory_csv": True, "path_csv": True, "tracking": True,
                      "checkpoint": True}),
        dict(SMALL_DEBLUR, outputs={"images": True, "isnr_csv": True,
                                    "trajectory_csv": True, "checkpoint": True}),
        dict(store_every=200, outputs={"report_json": False})],
        ids=["skew-box", "deblur", "no-report"])
    def test_report_lists_exactly_what_was_written(self, tmp_path, overrides):
        cfg, out = load_config(write_config(tmp_path, **overrides)), tmp_path / "out"
        rep = run_experiment(cfg, str(out))
        assert rep.exit_code == 0
        written = set(os.listdir(out))
        assert {os.path.basename(p) for p in rep.artifacts} == written
        if cfg.outputs["report_json"]:
            listed = json.loads((out / "report.json").read_text())["artifacts"]
            assert set(listed) == written - {"report.json"}
        else:
            assert "report.json" not in written

    def test_determinism_byte_identical(self, tmp_path):
        path = write_config(tmp_path, store_every=100)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["run", path, "--out-dir", str(out1)]) == 0
        assert main(["run", path, "--out-dir", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == \
            (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == \
            (out2 / "report.json").read_bytes()


class TestCliCommands:
    def test_run_exit_codes(self, tmp_path):
        ok = write_config(tmp_path, name="ok.json", store_every=200,
                          outputs={"trajectory_csv": True})
        assert main(["run", ok, "--out-dir", str(tmp_path / "o1")]) == 0
        bad = write_config(
            tmp_path, name="bad.json", mode="FBF", instance="skew-box",
            schedule={"family": "polynomial", "r": 0.2, "s": 0.2, "b": 1,
                      "lambda_bar": 0.9, "gamma_bar": 1.0})
        assert main(["run", bad, "--out-dir", str(tmp_path / "o2")]) == 2

    def test_precondition_exit_code(self, tmp_path):
        p = write_config(tmp_path, name="pre.json", instance="skew-box", mode="FB")
        assert main(["run", p, "--out-dir", str(tmp_path / "o3")]) == 4

    def test_parse_error_exit_code(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{ nope")
        assert main(["run", str(p), "--out-dir", str(tmp_path / "o4")]) == 1

    def test_convergence_failure_writes_report(self, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise ConvergenceFailure("central path solve failed at t=1")

        monkeypatch.setattr(runner, "central_path", failing)
        out = tmp_path / "o5"
        assert main(["run", write_config(tmp_path), "--out-dir", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["exit_code"] == 1
        assert any("convergence failure" in m and "central path" in m
                   for m in report["messages"])

    @pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
    def test_error_type_states_exit_code(self, tmp_path, capsys, monkeypatch, cls):
        assert issubclass(cls, PenaltyflowError)
        assert cls.exit_code not in (0, 2)  # success and the schedule verdict

        def failing(*args, **kwargs):
            raise cls("raised during the run")

        monkeypatch.setattr(runner, "central_path", failing)
        out = tmp_path / "o"
        code = main(["run", write_config(tmp_path), "--out-dir", str(out)])
        assert code == cls.exit_code
        report = json.loads((out / "report.json").read_text())
        assert report["exit_code"] == cls.exit_code
        assert report["messages"][-1] == f"{cls.label}: raised during the run"
        assert report["messages"][-1] in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["missing-config", "config-is-dir",
                                      "out-dir-is-file", "non-utf8"])
    def test_io_error_exit_1(self, tmp_path, capsys, case):
        cfg = write_config(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"instance": "scalar", "mode": "FB\xff"}')
        argv = {"missing-config": ["validate", str(tmp_path / "missing.json")],
                "config-is-dir": ["run", str(tmp_path)],
                "out-dir-is-file": ["run", cfg, "--out-dir", cfg],
                "non-utf8": ["validate", str(bad)]}[case]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if case == "non-utf8":
            assert err == "error: $: not UTF-8: byte 0xff at offset 34\n"

    # each write fails on a directory in its file's place; isnr.csv and
    # trajectory.csv are written before the images
    @pytest.mark.parametrize("name, overrides, before", [
        ("trajectory.csv", {}, set()),
        ("degraded.pgm", dict(SMALL_DEBLUR, outputs={"images": True, "isnr_csv": True}),
         {"isnr.csv", "trajectory.csv"})], ids=["trajectory", "degraded"])
    def test_failed_artifact_write_writes_report(self, tmp_path, capsys, name,
                                                 overrides, before):
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        assert main(["run", write_config(tmp_path, **overrides), "--out-dir", str(out)]) == 1
        message = f"error: cannot write {name}: Is a directory"
        assert message in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["exit_code"] == 1 and report["messages"] == [message]
        assert set(report["artifacts"]) == before
        assert set(os.listdir(out)) == before | {name, "report.json"}

    def test_unwritable_report_prints_the_reason(self, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "report.json").mkdir(parents=True)
        assert main(["run", write_config(tmp_path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: cannot write report.json: Is a directory\n"
        assert set(os.listdir(out)) == {"trajectory.csv", "path.csv", "report.json"}

    @pytest.mark.parametrize("overrides, code, verdict", [
        (FAILING_FBF, 2, "schedule validation failed: r+s<1/3, r<s"),
        ({"instance": "skew-box", "mode": "FB"}, 4, "precondition error: FB mode needs a "
         "cocoercive smooth part; instance 'skew-box' is not"),
    ], ids=["schedule", "precondition"])
    def test_unwritable_report_keeps_the_verdict(self, tmp_path, capsys, overrides, code,
                                                 verdict):
        # the run's own verdict and exit code stand; the failed write is one more message
        out = tmp_path / "o"
        (out / "report.json").mkdir(parents=True)
        assert main(["run", write_config(tmp_path, **overrides), "--out-dir", str(out)]) == code
        printed = capsys.readouterr()
        assert printed.err == f"{verdict}\nerror: cannot write report.json: Is a directory\n"
        assert printed.out == f"exit code {code}; artifacts: none\n"

    def test_undefined_isnr_writes_report(self, tmp_path, capsys):
        # a 1x1 kernel and no noise leave the observed image equal to the original
        p = write_config(tmp_path, **dict(
            SMALL_DEBLUR, outputs={"isnr_csv": True},
            instance={"deblur": {"size": 8, "kernel_size": 1, "noise_std": 0.0}}))
        out = tmp_path / "o"
        assert main(["run", p, "--out-dir", str(out)]) == 1
        message = "error: degraded equals original; ISNR undefined"
        assert message in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["exit_code"] == 1 and report["messages"] == [message]

    def test_validate_command(self, tmp_path):
        ok = write_config(tmp_path, name="v1.json")
        assert main(["validate", ok]) == 0
        bad = write_config(tmp_path, name="v2.json", **FAILING_FBF)
        assert main(["validate", bad]) == 2

    @pytest.mark.parametrize("instance, mode", [("skew-box", "FB"),
                                                ("scalar", "SFBP")])
    def test_validate_precondition_exit_code(self, tmp_path, instance, mode):
        p = write_config(tmp_path, instance=instance, mode=mode)
        assert main(["validate", p]) == 4
        assert main(["run", p, "--out-dir", str(tmp_path / "o")]) == 4

    @pytest.mark.parametrize("overrides, says", [
        ({"grid": {"kind": "uniform", "h": -1, "T": 1e3}},
         "grid h must be > 0, got -1.0"),
        # a geometric grid's h0 is the spec's first requested step h
        ({"grid": {"kind": "geometric", "h0": 0, "ratio": 1.1, "T": 1e3}},
         "grid h must be > 0, got 0.0"),
        ({"grid": {"kind": "geometric", "h0": 0.1, "ratio": 0.5, "T": 1e3}},
         "grid ratio must be finite and >= 1, got 0.5"),
        ({"safety_factor": 2}, "safety_factor"),
        ({"store_every": 0}, "store_every"),
        ({"max_steps": 0}, "max_steps"),
        ({"max_steps": -3}, "max_steps"),
        ({"x0": [1.0, 2.0]}, "dimension 2, expected 1"),
        ({"grid": {"kind": "uniform", "h": math.nan, "T": 1e3}}, "$.grid.h"),
        (dict(SMALL_DEBLUR, seed=-1), "seed must be >= 0, got -1"),
        (dict(SMALL_DEBLUR, instance={"deblur": {"size": 8, "noise_std": -0.5}}),
         "noise_std must be >= 0, got -0.5"),
        ({"schedule": {"family": "polynomial", "r": 2, "s": 0.2}},
         "$.schedule: r must be in (0, 1), got 2.0"),
        (dict(SMALL_DEBLUR, outputs={"path_csv": True, "tracking": True}),
         "error: $.outputs.tracking: not written for a deblur instance"),
        ({"outputs": {"isnr_csv": True, "images": True}},
         "error: $.outputs.isnr_csv: not written for a canonical instance"),
        # a bad spec or x0 exits 1 even when the schedule fails as well
        (dict(FAILING_FBF, grid={"kind": "uniform", "h": -1, "T": 1e3}),
         "grid h must be > 0, got -1.0"),
        (dict(FAILING_FBF, x0=[1.0, 2.0]), "dimension 2, expected 1"),
        ({"schedule": {"family": "power", "r": 0.1, "s": 0.2}},
         "error: $.schedule.family: only the polynomial family is JSON-constructible"),
        # a 1x1 kernel ignores sigma, which is checked all the same
        (dict(SMALL_DEBLUR, instance={"deblur": {"size": 8, "kernel_size": 1,
                                                 "sigma": -5}}),
         "error: sigma must be in [1e-150, 1e+150], got -5.0"),
        # 2*sigma**2 underflowed to 0 and overflowed to inf, raw tracebacks
        (dict(SMALL_DEBLUR, instance={"deblur": {"size": 8, "sigma": 1e-200}}),
         "error: sigma must be in [1e-150, 1e+150], got 1e-200"),
        (dict(SMALL_DEBLUR, instance={"deblur": {"size": 8, "sigma": 1e200}}),
         "error: sigma must be in [1e-150, 1e+150], got 1e+200"),
    ], ids=["h", "h0", "ratio", "safety", "store", "max0", "max-3", "x0", "h-nan", "seed",
            "noise", "schedule-range", "deblur-tracking", "canonical-isnr",
            "h-and-failing-schedule", "x0-and-failing-schedule", "family",
            "sigma-kernel-1", "sigma-1e-200", "sigma-1e200"])
    def test_validate_runs_the_run_preflight(self, tmp_path, capsys, overrides,
                                             says):
        p = write_config(tmp_path, **overrides)
        assert main(["validate", p]) == 1
        assert says in capsys.readouterr().err
        out = tmp_path / "o"
        assert main(["run", p, "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert says in err
        if says == "$.grid.h":  # a config that does not parse writes no report
            assert not (out / "report.json").exists()
            return
        report = json.loads((out / "report.json").read_text())
        assert report["exit_code"] == 1
        assert report["messages"][-1] == err.rstrip("\n")

    def test_negative_seed_override_exit_1(self, tmp_path, capsys):
        p = write_config(tmp_path, **SMALL_DEBLUR, seed=-1)
        out = tmp_path / "o"
        assert main(["run", p, "--out-dir", str(out)]) == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["exit_code"] == 1
        assert report["messages"][-1].endswith("seed must be >= 0, got -1")

    @settings(max_examples=80, deadline=None)
    @given(cfg=small_configs())
    def test_validate_exits_where_run_stops(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            p, out = Path(tmp) / "c.json", Path(tmp) / "out"
            p.write_text(json.dumps(cfg))
            code = main(["run", str(p), "--out-dir", str(out)])
            report = out / "report.json"
            integrated = (report.exists()
                          and "steps" in json.loads(report.read_text())["metrics"])
            assert main(["validate", str(p)]) == (0 if integrated else code)

    @settings(max_examples=60, deadline=None)
    @given(cfg=small_configs())
    def test_run_exit_code_is_reported(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            p, out = Path(tmp) / "c.json", Path(tmp) / "out"
            p.write_text(json.dumps(cfg))
            try:
                load_config(p)
            except ConfigError:
                assume(False)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["run", str(p), "--out-dir", str(out)])
            report = json.loads((out / "report.json").read_text())
        assert report["exit_code"] == code
        if code:
            assert report["messages"][-1] in err.getvalue()
        else:
            assert report["messages"] == []

    def test_readme_example_config(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```json\n", 1)[1].split("```", 1)[0]
        parse_config(json.loads(block))
        p = tmp_path / "readme.json"
        p.write_text(block)
        assert main(["validate", str(p)]) == 0

    def test_oracle_command(self, capsys):
        assert main(["oracle", "segment"]) == 0
        out = capsys.readouterr().out
        assert "least_norm_point" in out

    def test_seed_override_changes_noise(self, tmp_path):
        cfg = {
            "instance": {"deblur": {"image": "disk", "size": 16,
                                    "kernel_size": 3, "sigma": 1.0,
                                    "noise_std": 1e-2}},
            "mode": "FBF",
            "schedule": {"family": "polynomial", "r": 0.05, "s": 0.25, "b": 1,
                         "lambda_bar": 0.3, "gamma_bar": 1.0},
            "grid": {"kind": "uniform", "h": 1.0, "T": 1e9},
            "max_steps": 20,
            "outputs": {"trajectory_csv": False, "report_json": False,
                        "images": True},
        }
        for seed in (1, 2):
            p = tmp_path / f"noise{seed}.json"
            p.write_text(json.dumps(dict(cfg, seed=seed)))
            main(["run", str(p), "--out-dir", str(tmp_path / f"n{seed}")])
        a = (tmp_path / "n1" / "degraded.pgm").read_bytes()
        b = (tmp_path / "n2" / "degraded.pgm").read_bytes()
        assert a != b
