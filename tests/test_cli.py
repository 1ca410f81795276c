import contextlib
import copy
import dataclasses
import inspect
import io
import json
import math
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
                                PenaltyflowError)
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
    for f in dataclasses.fields(config._GRIDS[kind]):
        grid[f.name] = draw(BY_TYPE[float])
        leaves.append((grid, f.name, f"$.grid.{f.name}", float,
                       config._REQUIRED))
    if draw(st.booleans()):
        x0 = cfg["x0"] = draw(st.lists(BY_TYPE[float], min_size=1, max_size=3))
        leaves.extend((x0, i, f"$.x0[{i}]", float, config._REQUIRED)
                      for i in range(len(x0)))
    return cfg, leaves


SMALL_DEBLUR = {"instance": {"deblur": {"size": 8}}, "mode": "FBF",
                "schedule": {"family": "polynomial", "r": 0.05, "s": 0.25,
                             "b": 1, "lambda_bar": 0.3, "gamma_bar": 1.0},
                "max_steps": 5}


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
        assert parse_config(dict(base, cap_steps=False)).cap_steps is False

    @pytest.mark.parametrize("key, value, field", [
        ("store_every", "abc", "$.store_every"),
        ("store_every", True, "$.store_every"),
        ("store_every", 2.5, "$.store_every"),
        ("max_steps", "x", "$.max_steps"),
        ("seed", [1], "$.seed"),
        ("safety_factor", "half", "$.safety_factor"),
        ("cap_steps", "no", "$.cap_steps"),
        ("cap_steps", 0, "$.cap_steps"),
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
        assert cfg.grid == pf.GeometricGrid(0.1, 1.01, 10.0)

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

    def test_integral_float_counts(self):
        cfg = parse_config({"instance": "scalar", "mode": "FB",
                            "schedule": {"family": "polynomial", "r": 0.1, "s": 0.2},
                            "max_steps": 5e4, "store_every": 2.0, "seed": 3,
                            "x0": [1]})
        assert (cfg.max_steps, cfg.store_every, cfg.seed) == (50000, 2, 3)
        assert type(cfg.max_steps) is int and cfg.x0 == [1.0]


def per_row_trajectory_rows(traj, gaps):
    """Reference for ``runner._trajectory_rows``: one eager tuple per sample."""
    rows = []
    for i in range(traj.times.size):
        rows.append((traj.times[i], traj.step_sizes[i],
                     float(np.linalg.norm(traj.states[i])),
                     None if gaps is None else gaps[i],
                     traj.b1_norms[i],
                     math.nan if traj.psi_sums is None else traj.psi_sums[i],
                     None if traj.aux_points is None
                     else float(np.linalg.norm(traj.aux_points[i]))))
    return rows


class TestTrajectoryRows:
    # FBF sets aux_points, SFBP sets psi_sums, FB sets neither
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
                         pf.IntegratorSpec(grid=pf.UniformGrid(h=0.5, T=40.0),
                                           store_every=3))
        gaps = None
        if with_gaps:
            gaps = np.random.default_rng(0).random(traj.times.size)
            gaps[1] = math.nan
        new = runner.emit_csv(tmp_path / "new.csv", TRAJECTORY_COLUMNS,
                              runner._trajectory_rows(traj, gaps))
        old = runner.emit_csv(tmp_path / "old.csv", TRAJECTORY_COLUMNS,
                              per_row_trajectory_rows(traj, gaps))
        assert Path(new).read_bytes() == Path(old).read_bytes()


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
        assert path_csv.read_text().splitlines()[0] == ",".join(PATH_COLUMNS)

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

    def test_divergence_exit_3(self, tmp_path):
        # FBF without cocoercivity tolerates huge uncapped steps badly
        cfg = parse_config({
            "instance": "skew-box", "mode": "FBF",
            "schedule": {"family": "polynomial", "r": 0.05, "s": 0.25,
                         "b": 1, "lambda_bar": 0.9, "gamma_bar": 1.0},
            "grid": {"kind": "uniform", "h": 40.0, "T": 1e5},
            "cap_steps": False,
            "x0": [1.0, 1.0],
            "outputs": {"trajectory_csv": False, "path_csv": False,
                        "tracking": False},
        })
        rep = run_experiment(cfg, str(tmp_path / "out3"))
        assert rep.exit_code == 3
        assert any("diverged" in m for m in rep.messages)

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

    def test_seed_override_leaves_config(self, tmp_path):
        cfg = load_config(write_config(tmp_path, store_every=200,
                                       outputs={"trajectory_csv": False}))
        rep = run_experiment(cfg, str(tmp_path / "out"), seed_override=7)
        assert rep.exit_code == 0 and cfg.seed == 0

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
        bad = write_config(
            tmp_path, name="v2.json", mode="FBF",
            schedule={"family": "polynomial", "r": 0.2, "s": 0.2, "b": 1,
                      "lambda_bar": 0.9, "gamma_bar": 1.0})
        assert main(["validate", bad]) == 2

    @pytest.mark.parametrize("instance, mode", [("skew-box", "FB"),
                                                ("scalar", "SFBP")])
    def test_validate_precondition_exit_code(self, tmp_path, instance, mode):
        p = write_config(tmp_path, instance=instance, mode=mode)
        assert main(["validate", p]) == 4
        assert main(["run", p, "--out-dir", str(tmp_path / "o")]) == 4

    @pytest.mark.parametrize("overrides, says", [
        ({"grid": {"kind": "uniform", "h": -1, "T": 1e3}}, "h > 0"),
        ({"safety_factor": 2}, "safety_factor"),
        ({"store_every": 0}, "store_every"),
        ({"max_steps": 0}, "max_steps"),
        ({"max_steps": -3}, "max_steps"),
        ({"x0": [1.0, 2.0]}, "dimension 2, expected 1"),
        ({"grid": {"kind": "uniform", "h": math.nan, "T": 1e3}}, "$.grid.h"),
        (dict(SMALL_DEBLUR, seed=-1), "seed -1"),
        (dict(SMALL_DEBLUR, instance={"deblur": {"size": 8, "noise_std": -0.5}}),
         "noise_std -0.5"),
        ({"schedule": {"family": "polynomial", "r": 2, "s": 0.2}},
         "$.schedule: r must lie in (0, 1)"),
    ], ids=["h", "safety", "store", "max0", "max-3", "x0", "h-nan", "seed",
            "noise", "schedule-range"])
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
        p = write_config(tmp_path, **SMALL_DEBLUR)
        assert main(["run", p, "--out-dir", str(tmp_path / "o"),
                     "--seed-override", "-1"]) == 1
        assert "seed -1" in capsys.readouterr().err

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
            "seed": 1,
        }
        p = tmp_path / "noise.json"
        p.write_text(json.dumps(cfg))
        main(["run", str(p), "--out-dir", str(tmp_path / "n1")])
        main(["run", str(p), "--out-dir", str(tmp_path / "n2"),
              "--seed-override", "2"])
        a = (tmp_path / "n1" / "degraded.pgm").read_bytes()
        b = (tmp_path / "n2" / "degraded.pgm").read_bytes()
        assert a != b
