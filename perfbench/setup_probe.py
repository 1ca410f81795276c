"""Make the public calls ``penaltyflow run`` makes before integrating.

    python perfbench/setup_probe.py CONFIG

Imports the package, loads the config, builds the instance and validates the
schedule (plus the Attouch-Czarnecki check for SFBP), then exits: 0 when the
schedule passes, 2 when it does not. The benchmark times this process from
spawn to exit as ``setup_s``.
"""

import sys


def main(config_path):
    import penaltyflow as pf
    from penaltyflow.config import load_config

    cfg = load_config(config_path)
    if isinstance(cfg.instance, str):
        prob = pf.build_canonical(cfg.instance)
    else:
        db = cfg.instance["deblur"]
        prob = pf.build_tv_deblur(
            pf.make_test_image(db["image"], int(db["size"])),
            kernel_size=int(db["kernel_size"]), sigma=float(db["sigma"]),
            noise_std=float(db["noise_std"]), seed=cfg.seed).problem
    sch = cfg.schedule_obj()
    ok = pf.validate_schedule(sch, cfg.mode, (prob.d.eta, prob.b1.mu)).overall
    if cfg.mode == "SFBP":
        ok = ok and pf.attouch_czarnecki_check(sch)[1]
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
