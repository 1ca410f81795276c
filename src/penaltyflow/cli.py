"""Command-line interface: run / validate / oracle."""

import argparse
import json
import sys

from .config import load_config
from .errors import PenaltyflowError
from .instances import CANONICAL_NAMES, build_canonical
from .oracle import active_set_solve, high_precision_reference
from .runner import _prepare, run_experiment


def _cmd_run(args):
    cfg = load_config(args.config)
    report = run_experiment(cfg, args.out_dir)
    for msg in report.messages:
        print(msg, file=sys.stderr)
    print(f"exit code {report.exit_code}; artifacts: "
          + ", ".join(report.artifacts or ["none"]))
    return report.exit_code


def _cmd_validate(args):
    checks = _prepare(load_config(args.config))[3]
    for c in checks:
        print(f"  {'ok  ' if c['passed'] else 'FAIL'} {c['name']}: "
              f"{c['witness_value']} @ t={c['witness_time']}")
    return 0 if all(c["passed"] for c in checks) else 2


def _cmd_oracle(args):
    prob = build_canonical(args.instance)
    cert = active_set_solve(prob)
    ref = high_precision_reference(prob)
    print(cert.to_json())
    print(json.dumps({"reference_point": [float(v) for v in ref],
                      "distance_to_certified_set": cert.distance_to(ref)}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="penaltyflow",
        description="Penalty-regulated Tikhonov splitting dynamics for "
                    "constrained variational inequalities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--out-dir", default=".")
    p_run.set_defaults(fn=_cmd_run)

    p_val = sub.add_parser("validate", help="check a config as run does before integrating")
    p_val.add_argument("config")
    p_val.set_defaults(fn=_cmd_validate)

    p_or = sub.add_parser("oracle", help="print the certified solution set of "
                                         "a canonical instance")
    p_or.add_argument("instance", choices=CANONICAL_NAMES)
    p_or.set_defaults(fn=_cmd_oracle)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PenaltyflowError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
