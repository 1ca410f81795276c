"""Benchmark of ``penaltyflow run`` on four workloads.

    python3 perfbench/run.py                                  # every workload
    python3 perfbench/run.py --workload sfbp-1d --seed 3 --seconds 35
    python3 perfbench/run.py --workload tv-deblur-64 --trace 1

Each sample spawns a fresh interpreter on a config generated from ``--seed``.
Untraced (``--trace 0``), a round of samples is, per workload, two set-up
probes (``setup_s``) and one ``python -m penaltyflow run`` (``wall_s``,
``peak_rss_mb``). Traced (``--trace 1``), a round is one untraced and one
traced in-process run (``perfbench/traced.py``), whose difference is the
tracing overhead. Rounds visit the workloads in turn and repeat until
``--seconds`` have passed, at least a minimum number of times; one untimed
warm-up round comes first. Every run's artifacts are checked. The last line
of standard output is the result as JSON; the lines before it are the
report. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import traced
from workloads import BY_NAME, Checker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 100.0
MIN_ROUNDS = 3
# a set-up probe is short, so it takes more of them to reach a steady median
SETUPS_PER_ROUND = 2
MIN_TRACED_ROUNDS = 2
# the traced run's phase spans must cover its wall time up to the tracing
# overhead; this floor absorbs the overhead's own timing noise
UNACCOUNTED_FLOOR_S = 1e-3

# The host's speed drifts by up to 2x over tens of seconds (other tenants on
# the same cores). A fixed pure-Python probe, timed in this process before
# and after every sample, measures that speed; each sampled time is scaled
# by PROBE_NOMINAL_S / probe, the probe's median on an idle 2-core Xeon host,
# so reported times read as seconds on that idle host.
PROBE_NOMINAL_S = 5.5e-3
PROBE_LOOP = 100_000

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
ACCURACY = {"dist_to_solution": "1", "final_b1_norm": "1", "final_isnr_db": "dB"}


def child_env():
    """Environment of every child: this checkout's sources, bytecode cached
    inside the checkout, and a fixed BLAS thread count."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(cmd, log_path, env):
    """Run ``cmd`` to exit; returns (exit code, wall s, peak RSS MB, timed out)."""
    timed_out = threading.Event()
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)

        def kill():
            # os.kill, not proc.kill: Popen would reap the child first and
            # leave nothing for wait4 to collect
            timed_out.set()
            os.kill(proc.pid, signal.SIGKILL)

        killer = threading.Timer(CHILD_TIMEOUT_S, kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6, timed_out.is_set()


def probe_once():
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i
    return time.perf_counter() - t0


class HostSpeed:
    """Scale factor to the idle host's speed, from probes around each sample."""

    def __init__(self):
        self.probes = []
        self.last = self.probe()

    def probe(self):
        t = statistics.median(probe_once() for _ in range(5))
        self.probes.append(t)
        return t

    def factor(self):
        """Call right after a sample; averages the probes on either side."""
        now = self.probe()
        factor = PROBE_NOMINAL_S / (0.5 * (self.last + now))
        self.last = now
        return factor


def digests(out_dir):
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Bench:
    """Samples, checks and verdicts of one workload within one invocation."""

    def __init__(self, workload, seed, env, checker, host):
        self.w = workload
        self.host = host
        self.seed = seed
        self.env = env
        self.checker = checker
        self.dir = WORK / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(workload.config(seed), indent=2,
                                          sort_keys=True) + "\n")
        self.samples = {name: [] for name in END_TO_END}
        self.raw = {"wall_s": [], "setup_s": []}
        self.untraced_walls = []
        self.layers = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.accuracy = None
        self.accuracy_repeats = True
        self.digests = None
        self.digests_repeat = True
        self.timed_out = False

    def _run(self, kind, cmd):
        """Returns (succeeded, wall time, wall time scaled to the host, RSS)."""
        self.attempted += 1
        code, wall, rss, timed_out = spawn(cmd, self.dir / f"{kind}.log", self.env)
        scaled = wall * self.host.factor()
        self.timed_out |= timed_out
        if timed_out:
            self.problems.append(f"{kind}: timed out after {CHILD_TIMEOUT_S:g} s")
        elif code != 0:
            log = (self.dir / f"{kind}.log").read_text(errors="replace")
            self.problems.append(f"{kind}: exit code {code}: {log.strip()[-300:]}")
        ok = code == 0 and not timed_out
        self.failed += not ok
        return ok, wall, scaled, rss

    def _check_outputs(self, out_dir):
        acc, problems = self.checker.check(self.w, str(out_dir))
        if problems:
            self.problems.append(f"{out_dir.name}: " + "; ".join(problems))
            self.failed += 1
            return False
        if self.accuracy is None:
            self.accuracy = acc
        elif acc != self.accuracy:
            self.accuracy_repeats = False
            self.problems.append(f"{out_dir.name}: accuracy differs from the "
                                 f"first run: {acc} != {self.accuracy}")
            self.failed += 1
            return False
        dig = digests(out_dir)
        if self.digests is None:
            self.digests = dig
        elif dig != self.digests:
            self.digests_repeat = False  # reported, not gated
        return True

    def setup_sample(self, timed=True):
        ok, wall, scaled, _ = self._run("setup", [sys.executable,
                                                  str(HERE / "setup_probe.py"),
                                                  str(self.config)])
        if ok and timed:
            self.raw["setup_s"].append(wall)
            self.samples["setup_s"].append(scaled)

    def cli_sample(self, timed=True):
        out = self.dir / "cli"
        shutil.rmtree(out, ignore_errors=True)
        ok, wall, scaled, rss = self._run("cli", [sys.executable, "-m", "penaltyflow",
                                                  "run", str(self.config),
                                                  "--out-dir", str(out)])
        if ok and self._check_outputs(out) and timed:
            self.raw["wall_s"].append(wall)
            self.samples["wall_s"].append(scaled)
            self.samples["peak_rss_mb"].append(rss)

    def traced_sample(self, trace, timed=True):
        kind = "traced" if trace else "untraced"
        out = self.dir / kind
        shutil.rmtree(out, ignore_errors=True)
        result_path = self.dir / f"{kind}.json"
        cmd = [sys.executable, str(HERE / "traced.py"), str(self.config), str(out),
               str(result_path)] + (["--trace"] if trace else [])
        ok = self._run(kind, cmd)[0]
        if not (ok and self._check_outputs(out)) or not timed:
            return
        result = json.loads(result_path.read_text())
        if trace:
            self.layers.append(traced.layer_metrics(result))
        else:
            self.untraced_walls.append(result["wall_s"])

    def end_to_end(self):
        return {name: (statistics.median(v), END_TO_END[name])
                for name, v in self.samples.items() if v}

    def per_layer(self):
        """Medians of the timed metrics; exact-repeat metrics must agree."""
        if not self.layers or not self.untraced_walls:
            return {}
        out = {}
        for name, (_, unit) in self.layers[0].items():
            values = [run[name][0] for run in self.layers]
            if unit in ("count", "bytes"):
                if len(set(values)) != 1:
                    self.problems.append(f"{name} differs across traced runs: {values}")
                out[name] = (values[0], unit)
            else:
                out[name] = (statistics.median(values), unit)
        overhead = out["trace.wall_s"][0] - statistics.median(self.untraced_walls)
        out["trace.overhead_s"] = (overhead, "s")
        for run in self.layers:
            gap = abs(run["trace.unaccounted_s"][0])
            if gap > max(overhead, 0.0) + UNACCOUNTED_FLOOR_S:
                self.problems.append(f"phase spans miss {gap:.4f} s of the traced "
                                     f"wall time, more than the overhead {overhead:.4f} s")
        return out

    def report_lines(self, metrics):
        lines = [f"== {self.w.name} (seed {self.seed}): {self.w.why}"]
        for name, (value, unit) in metrics.items():
            line = f"  {name:30s} {value:>14.6g} {unit}"
            samples = self.samples.get(name)
            if samples:
                lo, hi = quartiles(samples)
                line += f"   median of {len(samples)}, quartiles {lo:.4g} .. {hi:.4g}"
            if self.raw.get(name):
                line += f"; unscaled median {statistics.median(self.raw[name]):.4g}"
            lines.append(line)
        lines.append(f"  {'failed_runs':30s} {self.failed / self.attempted:>14.6g} share"
                     f"   {self.failed} of {self.attempted} runs")
        for name, unit in ACCURACY.items():
            if self.accuracy is None or name not in self.accuracy:
                lines.append(f"  {name:30s} {'n/a':>14s} {unit}")
                continue
            op, bound = self.w.bounds.get(name, (None, None))
            note = "" if op is None else f"   bound {op} {bound:g}"
            same = "identical" if self.accuracy_repeats else "DIFFERS"
            lines.append(f"  {name:30s} {self.accuracy[name]:>14.6g} {unit}{note}; "
                         f"{same} across runs")
        if self.digests:
            same = "identical" if self.digests_repeat else "NOT identical"
            lines.append(f"  artifacts ({same} across runs):")
            lines.extend(f"    sha256 {d}  {name}" for name, d in self.digests.items())
        lines.extend(f"  FAILED {p}" for p in self.problems)
        return lines


def machine_facts():
    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
             "python": platform.python_version(), "blas_threads": BLAS_THREADS}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                 if line.startswith("model name")), "?")
    except OSError:
        facts["cpu"] = "?"
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches.append("L{}{} {}".format(
                (index / "level").read_text().strip(),
                {"Data": "d", "Instruction": "i"}.get((index / "type").read_text().strip(), ""),
                (index / "size").read_text().strip()))
        except OSError:
            pass
    facts["caches"] = ", ".join(caches) or "?"
    import numpy
    import scipy
    facts["numpy"] = numpy.__version__
    facts["scipy"] = scipy.__version__
    return facts


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   help="a workload name, a comma-separated list, or 'all' "
                        f"({', '.join(BY_NAME)})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0,
                   help="how long to keep sampling after the warm-up round")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = list(BY_NAME) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in BY_NAME]
    if unknown:
        p.error(f"unknown workload(s) {unknown}; choose from {list(BY_NAME)}")
    args.workloads = [BY_NAME[n] for n in names]
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "penaltyflow" / "__init__.py").is_file():
        print(f"error: no penaltyflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import penaltyflow
    if Path(penaltyflow.__file__).resolve().parent != SRC / "penaltyflow":
        print(f"error: imported penaltyflow from {penaltyflow.__file__}", file=sys.stderr)
        return 2

    print("# machine: " + json.dumps(machine_facts(), sort_keys=True))
    # one CPU for this process and every child, so that the host probe
    # measures the core the samples ran on
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"# not pinned to one CPU: {exc}")
    env = child_env()
    checker = Checker(penaltyflow)
    host = HostSpeed()
    benches = [Bench(w, args.seed, env, checker, host) for w in args.workloads]

    # untimed warm-up round: fills the bytecode and page caches
    for b in benches:
        if args.trace:
            b.traced_sample(False, timed=False)
        else:
            b.setup_sample(timed=False)
            b.cli_sample(timed=False)
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    min_rounds = MIN_TRACED_ROUNDS if args.trace else MIN_ROUNDS
    while (rounds < min_rounds or time.perf_counter() < deadline) \
            and not any(b.timed_out for b in benches):
        for b in benches:
            if args.trace:
                # alternate which side goes first so that drift hits both
                for trace in ((False, True) if rounds % 2 == 0 else (True, False)):
                    b.traced_sample(trace)
            else:
                for _ in range(SETUPS_PER_ROUND):
                    b.setup_sample()
                b.cli_sample()
        rounds += 1

    e2e_names, layer_names = declared_metrics()
    wanted = layer_names if args.trace else e2e_names
    metrics = {}
    for b in benches:
        got = b.per_layer() if args.trace else b.end_to_end()
        missing = [n for n in wanted if n not in got]
        if missing:
            b.problems.append(f"no value for {missing}")
        for line in b.report_lines(got):
            print(line)
        prefix = f"{b.w.name}." if len(benches) > 1 else ""
        metrics.update({prefix + n: {"value": got[n][0], "unit": got[n][1]}
                        for n in wanted if n in got})
    lo, hi = quartiles(host.probes)
    print(f"# host probe: median {1e3 * statistics.median(host.probes):.3f} ms over "
          f"{len(host.probes)} probes, quartiles {1e3 * lo:.3f} .. {1e3 * hi:.3f} ms, "
          f"nominal {1e3 * PROBE_NOMINAL_S:g} ms")
    attempted = sum(b.attempted for b in benches)
    failed = sum(b.failed for b in benches)
    correct = not any(b.problems for b in benches)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
