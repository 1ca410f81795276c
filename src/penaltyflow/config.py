"""Experiment configuration: JSON schema, parsing and validation.

Schema ("instance", "mode" and "schedule" required, and in "schedule" the
keys "family", "r" and "s"; every other key takes the default shown):

{
  "instance": "scalar" | {"deblur": {"image": "checkerboard", "size": 32,
                                      "kernel_size": 9, "sigma": 4.0,
                                      "noise_std": 0.001}},
  "mode": "FB" | "FBF" | "SFBP",
  "schedule": {"family": "polynomial", "r": 0.1, "s": 0.2, "b": 1,
               "lambda_bar": 0.9, "gamma_bar": 1.0,
               "gamma_kind": "constant" | "cos-inverse"},
  "grid": {"kind": "uniform", "h": 0.2, "T": 1e3}
          | {"kind": "geometric", "h0": 0.01, "ratio": 1.001, "T": 1e4},
  "safety_factor": 0.5,
  "store_every": 1,
  "max_steps": null,
  "x0": "default" | [..numbers..],
  "seed": 0,
  "outputs": {"trajectory_csv": true, "path_csv": false, "report_json": true,
              "images": false, "checkpoint": false, "isnr_csv": false,
              "tracking": false}
}

Every object is checked against its table below: unknown keys are rejected
and every value typed (integers take an integral float such as 5e4, not a
bool; numbers are never bools or strings, and never NaN or Infinity, which
Python's json module would otherwise accept; null only for "max_steps"), and
a grid takes the fields of the dataclass its "kind" names. The schedule's
family and ranges (such as r in (0, 1)) are checked where the runner's
preflight builds it, so that a bad schedule writes report.json; so are the
outputs an instance kind cannot write ("tracking" and "path_csv" need a
canonical instance, "isnr_csv" and "images" a deblur one). "safety_factor" is
rejected with "SFBP", whose only step bound h <= 1 it would not scale. Errors
name their path, such as $.grid.h or $.instance.deblur.size.
"""

import json
import math
from dataclasses import dataclass, fields
from typing import Optional

from .dynamics import GeometricGrid, UniformGrid
from .errors import ConfigError, ParameterError
from .schedules import MODES, polynomial_schedule

_GRIDS = {"uniform": UniformGrid, "geometric": GeometricGrid}

_REQUIRED = object()  # the default of a key that must be given

# Tables: key -> (type, default). A dict type is a nested table; type object
# passes the value through for parse_config to check.
_SCHEDULE = {"family": (str, _REQUIRED), "r": (float, _REQUIRED),
             "s": (float, _REQUIRED), "b": (float, 1.0),
             "lambda_bar": (float, 0.9), "gamma_bar": (float, 1.0),
             "gamma_kind": (str, "constant")}
_DEBLUR = {"image": (str, "checkerboard"), "size": (int, 32),
           "kernel_size": (int, 9), "sigma": (float, 4.0),
           "noise_std": (float, 1e-3)}
_OUTPUTS = {"trajectory_csv": (bool, True), "path_csv": (bool, False),
            "report_json": (bool, True), "images": (bool, False),
            "checkpoint": (bool, False), "isnr_csv": (bool, False),
            "tracking": (bool, False)}
_TOP = {"instance": (object, _REQUIRED), "mode": (str, _REQUIRED),
        "schedule": (_SCHEDULE, _REQUIRED),
        "grid": (object, {"kind": "uniform", "h": 0.2, "T": 1e3}),
        "safety_factor": (float, 0.5), "store_every": (int, 1),
        "max_steps": (int, None),
        "x0": (object, "default"), "seed": (int, 0),
        "outputs": (_OUTPUTS, {})}


@dataclass
class ExperimentConfig:
    """A checked config: ``grid`` is a UniformGrid or GeometricGrid, ``schedule``
    and ``outputs`` are typed dicts, ``instance`` a name or {"deblur": {...}}."""

    instance: object
    mode: str
    schedule: dict
    grid: object
    safety_factor: float
    store_every: int
    max_steps: Optional[int]
    x0: object
    seed: int
    outputs: dict

    def schedule_obj(self):
        return schedule_from_dict(self.schedule)


def schedule_from_dict(d):
    """The polynomial Schedule a JSON "schedule" object describes."""
    p = _section(d, _SCHEDULE, "$.schedule")
    if p.pop("family") != "polynomial":
        raise ConfigError("only the polynomial family is JSON-constructible",
                          field="$.schedule.family")
    try:
        return polynomial_schedule(**p)
    except ParameterError as exc:
        raise ConfigError(str(exc), field="$.schedule") from exc


def _typed(v, kind, field):
    """``v`` as ``kind`` (int, float, bool or str), else ConfigError naming
    ``field``. Numbers exclude bools and NaN/Infinity; an int also takes an
    integral float (5e4)."""
    ok = isinstance(v, kind) if kind in (bool, str) else (
        isinstance(v, (int, float)) and not isinstance(v, bool)
        and (kind is float or isinstance(v, int) or v.is_integer()))
    if not ok:
        raise ConfigError(f"expected {kind.__name__}, got {v!r}", field=field)
    if isinstance(v, float) and not math.isfinite(v):
        raise ConfigError(f"must be finite, got {v!r}", field=field)
    return kind(v)


def _section(d, table, where):
    """A new dict holding object ``d`` checked against ``table``, every value
    typed and every missing key set to its default. ``where`` is the path of
    ``d``; errors name ``where.key``."""
    if not isinstance(d, dict):
        raise ConfigError("must be an object", field=where)
    for key in d:
        if key not in table:
            raise ConfigError("unknown field", field=f"{where}.{key}")
    out = {}
    for key, (kind, default) in table.items():
        path, v = f"{where}.{key}", d.get(key, default)
        if v is _REQUIRED:
            raise ConfigError("missing required field", field=path)
        if isinstance(kind, dict):
            v = _section(v, kind, path)
        elif kind is not object and not (v is None and default is None):
            v = _typed(v, kind, path)
        out[key] = v
    return out


def _grid(d):
    """The grid ``d`` describes; its numbers are the dataclass fields of its kind."""
    # a non-object d is rejected by _section below
    kind = d.get("kind") if isinstance(d, dict) else "uniform"
    cls = _GRIDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"must be one of {tuple(_GRIDS)}", field="$.grid.kind")
    names = [f.name for f in fields(cls)]
    g = _section(d, {"kind": (str, _REQUIRED), **{n: (float, _REQUIRED) for n in names}},
                 "$.grid")
    return cls(*(g[n] for n in names))


def parse_config(data):
    """Validate a decoded JSON object into an ExperimentConfig; ``data`` is not
    modified."""
    top = _section(data, _TOP, "$")
    if isinstance(top["instance"], dict):
        top["instance"] = _section(top["instance"], {"deblur": (_DEBLUR, _REQUIRED)},
                                   "$.instance")
    elif not isinstance(top["instance"], str):
        raise ConfigError("must be a name or an object", field="$.instance")
    if top["mode"] not in MODES:
        raise ConfigError(f"mode must be one of {MODES}", field="$.mode")
    if top["mode"] == "SFBP" and "safety_factor" in data:
        raise ConfigError("SFBP steps are bounded only by h <= 1, which "
                          "safety_factor does not scale", field="$.safety_factor")
    top["grid"] = _grid(top["grid"])
    x0 = top["x0"]
    if x0 != "default":
        if not isinstance(x0, list):
            raise ConfigError("x0 must be 'default' or a list of numbers", field="$.x0")
        top["x0"] = [_typed(v, float, f"$.x0[{i}]") for i, v in enumerate(x0)]
    return ExperimentConfig(**top)


def load_config(path):
    """Read and validate a JSON config file.

    JSON syntax errors surface with line/column, bytes that are not UTF-8
    with their offset; schema errors carry the offending field path.
    """
    try:
        with open(path, "rb") as fh:
            data = json.loads(fh.read().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not UTF-8: byte 0x{exc.object[exc.start]:02x} at offset "
                          f"{exc.start}", field="$") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"JSON parse error at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}", field="$") from exc
    return parse_config(data)
