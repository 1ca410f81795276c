"""Experiment configuration: JSON schema, parsing and validation.

Schema (all fields except "instance", "mode" and "schedule" optional; any
other top-level key is rejected, and so is "safety_factor" with "SFBP", whose
only step bound h <= 1 it would not scale; "store_every", "max_steps" and
"seed" must be integers (5e4 counts, true does not), "cap_steps" a bool and
"safety_factor" and the "x0" entries numbers):

{
  "instance": "scalar" | {"deblur": {"image": "checkerboard", "size": 32,
                                      "kernel_size": 9, "sigma": 4.0,
                                      "noise_std": 0.001}},
  "mode": "FB" | "FBF" | "SFBP",
  "schedule": {"family": "polynomial", "r": 0.1, "s": 0.2, "b": 1,
               "lambda_bar": 0.9, "gamma_bar": 1.0},
  "grid": {"kind": "uniform", "h": 0.2, "T": 1e4}
          | {"kind": "geometric", "h0": 0.01, "ratio": 1.001, "T": 1e4},
  "safety_factor": 0.5,
  "cap_steps": true,
  "store_every": 1,
  "max_steps": null,
  "x0": "default" | [..numbers..],
  "seed": 0,
  "outputs": {"trajectory_csv": true, "path_csv": false, "report_json": true,
              "images": false, "checkpoint": false, "isnr_csv": false,
              "tracking": false}
}
"""

import json
from dataclasses import dataclass, field, fields
from typing import Optional

from .errors import ConfigError
from .schedules import Schedule, polynomial_schedule

_MODES = ("FB", "FBF", "SFBP")

_DEFAULT_OUTPUTS = {"trajectory_csv": True, "path_csv": False,
                    "report_json": True, "images": False, "checkpoint": False,
                    "isnr_csv": False, "tracking": False}


@dataclass
class ExperimentConfig:
    instance: object
    mode: str
    schedule: dict
    grid: dict
    safety_factor: float = 0.5
    cap_steps: bool = True
    store_every: int = 1
    max_steps: Optional[int] = None
    x0: object = "default"
    seed: int = 0
    outputs: dict = field(default_factory=lambda: dict(_DEFAULT_OUTPUTS))

    def schedule_obj(self):
        return schedule_from_dict(self.schedule)


_FIELDS = {f.name for f in fields(ExperimentConfig)}


def schedule_from_dict(d):
    if not isinstance(d, dict):
        raise ConfigError("must be an object", field="schedule")
    if d.get("family") != "polynomial":
        raise ConfigError("only the polynomial family is JSON-constructible",
                          field="schedule.family")
    try:
        return polynomial_schedule(float(d["r"]), float(d["s"]),
                                   float(d.get("b", 1.0)),
                                   float(d.get("lambda_bar", 0.9)),
                                   float(d.get("gamma_bar", 1.0)),
                                   d.get("gamma_kind", "constant"))
    except KeyError as exc:
        raise ConfigError(f"missing key {exc}", field="schedule") from exc
    except ValueError as exc:
        raise ConfigError(str(exc), field="schedule") from exc


def schedule_to_dict(sch: Schedule):
    return sch.to_dict()


def _require(d, key, types, where):
    if key not in d:
        raise ConfigError("missing required field", field=f"{where}.{key}")
    v = d[key]
    if not isinstance(v, types):
        raise ConfigError(f"expected {types}, got {type(v).__name__}",
                          field=f"{where}.{key}")
    return v


def _typed(v, kind, field):
    """``v`` as ``kind`` (int, float or bool), else ConfigError naming ``field``.
    Numbers exclude bools; an int also takes an integral float (5e4)."""
    ok = isinstance(v, bool) if kind is bool else (
        isinstance(v, (int, float)) and not isinstance(v, bool)
        and (kind is float or isinstance(v, int) or v.is_integer()))
    if not ok:
        raise ConfigError(f"expected {kind.__name__}, got {v!r}", field=field)
    return kind(v)


def parse_config(data):
    """Validate a decoded JSON object into an ExperimentConfig."""
    if not isinstance(data, dict):
        raise ConfigError("top level must be an object", field="$")
    for key in data:
        if key not in _FIELDS:
            raise ConfigError("unknown field", field=f"$.{key}")
    instance = _require(data, "instance", (str, dict), "$")
    if isinstance(instance, dict):
        if set(instance.keys()) != {"deblur"}:
            raise ConfigError("instance object must have the single key 'deblur'",
                              field="$.instance")
        db = instance["deblur"]
        if not isinstance(db, dict):
            raise ConfigError("must be an object", field="$.instance.deblur")
        db.setdefault("image", "checkerboard")
        db.setdefault("size", 32)
        db.setdefault("kernel_size", 9)
        db.setdefault("sigma", 4.0)
        db.setdefault("noise_std", 1e-3)
    mode = _require(data, "mode", str, "$")
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}", field="$.mode")
    if mode == "SFBP" and "safety_factor" in data:
        raise ConfigError("SFBP steps are bounded only by h <= 1, which "
                          "safety_factor does not scale", field="$.safety_factor")
    schedule = _require(data, "schedule", dict, "$")
    schedule_from_dict(schedule)  # validates now, rebuilt by the runner
    grid = data.get("grid", {"kind": "uniform", "h": 0.2, "T": 1e3})
    kind = grid.get("kind")
    if kind == "uniform":
        for k in ("h", "T"):
            _require(grid, k, (int, float), "$.grid")
    elif kind == "geometric":
        for k in ("h0", "ratio", "T"):
            _require(grid, k, (int, float), "$.grid")
    else:
        raise ConfigError("grid.kind must be 'uniform' or 'geometric'",
                          field="$.grid.kind")
    outputs = dict(_DEFAULT_OUTPUTS)
    outputs.update(data.get("outputs", {}))
    unknown = set(outputs) - set(_DEFAULT_OUTPUTS)
    if unknown:
        raise ConfigError(f"unknown output flags {sorted(unknown)}", field="$.outputs")
    x0 = data.get("x0", "default")
    if x0 != "default":
        if not isinstance(x0, list):
            raise ConfigError("x0 must be 'default' or a list of numbers", field="$.x0")
        x0 = [_typed(v, float, f"$.x0[{i}]") for i, v in enumerate(x0)]
    max_steps = data.get("max_steps")
    return ExperimentConfig(
        instance=instance, mode=mode, schedule=schedule, grid=grid,
        safety_factor=_typed(data.get("safety_factor", 0.5), float, "$.safety_factor"),
        cap_steps=_typed(data.get("cap_steps", True), bool, "$.cap_steps"),
        store_every=_typed(data.get("store_every", 1), int, "$.store_every"),
        max_steps=None if max_steps is None else _typed(max_steps, int, "$.max_steps"),
        x0=x0, seed=_typed(data.get("seed", 0), int, "$.seed"), outputs=outputs)


def load_config(path):
    """Read and validate a JSON config file.

    JSON syntax errors surface with line/column; schema errors carry the
    offending field path.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"JSON parse error at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}", field="$") from exc
    return parse_config(data)
