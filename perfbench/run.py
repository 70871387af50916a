"""qrngsim benchmark: fixed-seed workloads through ``qrngsim.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--smoke] [--seconds S]

Each repetition runs the workload's CLI commands one after the other (a
closed loop with one client) in a fresh interpreter, so set-up time and
peak RSS are that repetition's own.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` alternates untraced and traced
repetitions, adds one tracemalloc pass, and reports the per-layer metrics.
Every repetition must reproduce the output digests of the first one, and
of perfbench/golden.json at the default seeds, and pass its workload's
result check.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import spans
from workloads import DEFAULT_SEEDS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")

MIN_REPS = 3          # untraced repetitions per --trace 0 run, at least
MIN_TRACE_REPS = 2    # untraced and traced repetitions per --trace 1 run
SETUP_PROBES = 3      # set-up probes opening a --trace 0 run;
                      # one more follows each repetition
# A fresh interpreter's bare numpy import: most of the work of importing
# qrngsim.cli, none of it the program's own, so it tracks the host's speed.
REFERENCE_IMPORT = "import numpy, time; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
SETUP_NOMINAL_S = 0.2    # reference import time that setup_s is scaled to
SETUP_EXPONENT = 0.75    # how strongly setup_s follows the reference (setup_time)
RUN_LIMIT_S = 170.0   # no repetition may push a run past this
PROBE_NOMINAL_S = 0.1    # memory-latency probe time that wall_s is scaled to
PROBE_EXPONENT = 0.5     # how strongly wall_s follows the probe (rep_wall)


class SetupError(Exception):
    """The checkout cannot run the benchmark (no program source, bad spec)."""


def load_spec(root: str = ROOT) -> dict:
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {path}: {exc}") from exc


def check_checkout(root: str = ROOT) -> None:
    if not os.path.isfile(os.path.join(root, "src", "qrngsim", "cli.py")):
        raise SetupError(f"no qrngsim source under {root}/src; run from a checkout")


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ----------------------------------------------------------------- provenance

def _git_commit(root: str):
    if not os.path.exists(os.path.join(root, ".git")):   # not a clone's own root
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(workload: str, seed: int, golden: dict) -> dict:
    numpy_version = importlib.metadata.version("numpy")
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": _git_commit(ROOT),
        "golden_numpy": golden.get("numpy"),
        # numpy does not promise stable Generator streams across versions
        "numpy_matches_golden": golden.get("numpy") == numpy_version,
    }


def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- repetitions

class Runner:
    """Runs repetitions of one workload plan in fresh worker interpreters."""

    def __init__(self, work: str, plan, expected_digests=None):
        self.work = work
        self.plan = plan
        self.expected = expected_digests   # golden digests, or None
        self.first_digests = None
        self.started = monotonic()
        self.count = 0
        self.failures: list = []
        self.attempted = 0
        self.failed = 0
        self.plan_path = os.path.join(work, "plan.json")
        with open(self.plan_path, "w") as fh:
            json.dump([[argv, list(allowed)] for argv, allowed in plan.ops], fh)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

    def elapsed(self) -> float:
        return monotonic() - self.started

    def spawn(self, mode: str, rep_dir: str, run_id: str) -> dict:
        """Start a worker, wait for it, return its JSON with setup_s added."""
        timeout = max(10.0, RUN_LIMIT_S - self.elapsed())
        t0 = monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), self.plan_path,
             rep_dir, mode, run_id],
            env=self.env, capture_output=True, text=True, timeout=timeout,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker ({mode}) exited {proc.returncode}:\n"
                               f"{proc.stderr[-2000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        module = os.path.realpath(out["module"])
        if not module.startswith(os.path.realpath(os.path.join(ROOT, "src")) + os.sep):
            raise SetupError(f"qrngsim imported from {module}, not this checkout")
        out["setup_s"] = out["imported"] - t0
        return out

    def probe_setup(self) -> tuple:
        """Set-up time of qrngsim, and of a bare numpy import just before it."""
        t0 = monotonic()
        proc = subprocess.run([sys.executable, "-c", REFERENCE_IMPORT], env=self.env,
                              capture_output=True, text=True, timeout=60, check=True)
        reference = float(proc.stdout) - t0
        return self.spawn("setup", self.work, "setup")["setup_s"], reference

    def rep(self, mode: str):
        """One repetition: run, digest outputs, check results, clean up.

        Returns the worker's JSON, or None if the worker itself failed.
        """
        self.count += 1
        rep_dir = os.path.join(self.work, f"rep-{self.count}")
        os.makedirs(rep_dir)
        n_ops = len(self.plan.ops)
        self.attempted += n_ops
        try:
            out = self.spawn(mode, rep_dir, f"rep-{self.count}-{mode}")
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            self.failed += n_ops
            self.failures.append(f"rep {self.count} ({mode}): worker failed: {exc}")
            return None
        problems = [f"op {i} ({self.plan.ops[i][0][0]}): exit {r['code']}"
                    f" {(r['error'] or '').strip()[-300:]}"
                    for i, r in enumerate(out["ops"]) if not r["ok"]]
        if not problems:
            try:
                digests = {name: sha256(os.path.join(rep_dir, name))
                           for name in self.plan.outputs}
                problems += gate_digests(digests, self.first_digests, self.expected)
                problems += self.plan.check(rep_dir, out["ops"])
            except (OSError, KeyError, IndexError, ValueError) as exc:
                problems.append(f"outputs missing or malformed: {exc!r}")
            else:
                if self.first_digests is None:
                    self.first_digests = digests
        shutil.rmtree(rep_dir)
        if problems:
            # a gate or check miss fails every operation of the repetition
            self.failed += n_ops
            self.failures += [f"rep {self.count} ({mode}): {p}" for p in problems]
        return out


def gate_digests(digests: dict, first, expected) -> list:
    """Output gate: digests must equal the first repetition's and the golden."""
    problems = []
    for name, value in digests.items():
        if first is not None and first.get(name) != value:
            problems.append(f"{name}: digest differs from the first repetition")
        if expected is not None and expected.get(name) != value:
            problems.append(f"{name}: digest differs from golden.json")
    return problems


def rep_wall(rep: dict) -> float:
    """Wall time of one repetition, corrected for the host's speed drift.

    On a shared host, the same repetition's wall time drifts by tens of
    percent over seconds to minutes with the load of other tenants.  The
    worker times a memory-latency probe right after each repetition, and
    the wall time is scaled by (nominal / probe) ** PROBE_EXPONENT.  The
    probe swings further than the workloads do, so the exponent is below 1;
    results/README.md gives the spreads it was chosen from.
    """
    return rep["wall_s"] * (PROBE_NOMINAL_S / rep["probe_s"]) ** PROBE_EXPONENT


def setup_time(setup_s: float, reference_s: float) -> float:
    """One set-up probe, corrected for the host's speed drift.

    The import is scaled by (nominal / reference) ** SETUP_EXPONENT, where
    the reference is a bare numpy import timed just before it.  The import
    of qrngsim.cli follows the host's speed less than the bare numpy import
    does, so the exponent is below 1; results/README.md gives the spreads
    it was chosen from.
    """
    return setup_s * (SETUP_NOMINAL_S / reference_s) ** SETUP_EXPONENT


def median(values):
    return statistics.median(values) if values else 0.0


# ------------------------------------------------------------------- metrics

def end_to_end(runner: Runner, seconds: float) -> tuple:
    runner.probe_setup()               # untimed: fills bytecode and file caches
    probes = [runner.probe_setup() for _ in range(SETUP_PROBES)]
    reps, longest = [], 0.0
    while len(reps) < MIN_REPS or runner.elapsed() + longest <= seconds:
        t0 = monotonic()
        reps.append(runner.rep("plain"))
        probes.append(runner.probe_setup())   # spread through the run
        longest = max(longest, monotonic() - t0)
    reps = [r for r in reps if r]
    setups = [s for s, _ in probes]
    references = [ref for _, ref in probes]
    walls = [r["wall_s"] for r in reps]
    rss = [r["maxrss_kb"] / 1024.0 for r in reps]
    metrics = {
        "setup_s": median([setup_time(s, ref) for s, ref in probes]),
        "wall_s": median([rep_wall(r) for r in reps]),
        "peak_rss_mb": median(rss),
    }
    detail = {"setup_s_samples": setups, "setup_reference_s_samples": references,
              "wall_s_samples": walls, "probe_s_samples": [r["probe_s"] for r in reps],
              "peak_rss_mb_samples": rss}
    return metrics, detail


def per_layer(runner: Runner, seconds: float, spec_names) -> tuple:
    plain, traced, longest = [], [], 0.0
    while len(traced) < MIN_TRACE_REPS or runner.elapsed() + longest <= seconds:
        t0 = monotonic()
        plain.append(runner.rep("plain"))
        traced.append(runner.rep("trace"))
        longest = max(longest, monotonic() - t0)
    memory = runner.rep("memory") or {"peaks": {}}
    # tracing cost: traced minus untraced wall within each back-to-back pair
    overheads = [rep_wall(t) - rep_wall(p) for p, t in zip(plain, traced) if p and t]
    plain = [r for r in plain if r]
    traced = [r for r in traced if r] or [{"wall_s": 0.0, "spans": [], "counts": {}}]

    plain_wall = median([r["wall_s"] for r in plain])
    traced_wall = median([r["wall_s"] for r in traced])
    selfs = [spans.self_times(r["spans"]) for r in traced]
    names = {n for s in selfs for n in s} | {
        n[: -len(".self_s")] for n in spec_names if n.endswith(".self_s")}
    self_s = {n: median([s.get(n, 0.0) for s in selfs]) for n in names}
    unattributed = median([r["wall_s"] - spans.root_time(r["spans"]) for r in traced])
    c = traced[0]["counts"]
    metrics = {f"{n}.self_s": v for n, v in self_s.items()}
    metrics.update({
        "timetag.clicks": c.get("timetag.clicks", 0),
        "timetag.coincidences": c.get("timetag.coincidences", 0),
        "timetag.multi_click_clusters": c.get("timetag.multi_click_clusters", 0),
        "timetag.unpaired_ratio": _ratio(c.get("timetag.unpaired", 0),
                                         c.get("timetag.events_in", 0)),
        "optics.calls": c.get("optics.calls", 0),
        "bitpipe.records": c.get("bitpipe.records", 0),
        "bitpipe.error_records": c.get("bitpipe.error_records", 0),
        "bitpipe.vn_yield": _ratio(c.get("bitpipe.vn_out", 0), c.get("bitpipe.vn_in", 0)),
        "bitpipe.bytes_written": c.get("bitpipe.bytes_written", 0),
        "bitpipe.bytes_read": c.get("bitpipe.bytes_read", 0),
        "statskit.bits_tested": c.get("statskit.bits_tested", 0),
        "manifest.bytes_hashed": c.get("manifest.bytes_hashed", 0),
        "sim_s_per_host_s": _ratio(runner.plan.sim_seconds, plain_wall),
        "tested_bits_per_s": _ratio(c.get("statskit.bits_tested", 0), plain_wall),
        "wall_raw_s": plain_wall,
        "host.mem_probe_s": median([r["probe_s"] for r in plain]),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": median(overheads),
        "trace.unattributed_s": unattributed,
    })
    for name in spans.MEMORY_TARGETS:
        metrics[f"{name}.peak_mb"] = memory["peaks"].get(name, 0) / 1e6
    shares = sorted(((n, v, _ratio(v, traced_wall)) for n, v in self_s.items() if v),
                    key=lambda row: -row[1])
    shares.append(("(unattributed)", unattributed, _ratio(unattributed, traced_wall)))
    detail = {"plain_wall_s_samples": [r["wall_s"] for r in plain],
              "traced_wall_s_samples": [r["wall_s"] for r in traced],
              "trace_overhead_s_samples": overheads,
              "counts": c, "blocking_share": shares,
              "spans": traced[-1]["spans"]}
    return metrics, detail


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def select(metrics: dict, entries: list) -> dict:
    """Exactly the metrics BENCHMARK.json names, each with its unit."""
    missing = [e["name"] for e in entries if e["name"] not in metrics]
    if missing:
        raise SetupError(f"metrics not computed: {missing}")
    return {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in entries}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, spec=None) -> dict:
    spec = spec or load_spec()
    check_checkout()
    golden = load_golden()
    plan = WORKLOADS[name](seed, smoke)
    expected = None
    if not smoke and seed == DEFAULT_SEEDS[name]:
        expected = golden["digests"].get(name)
    prov = provenance(name, seed, golden)
    if not prov["numpy_matches_golden"]:
        expected = None
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        runner = Runner(work, plan, expected)
        if trace:
            metrics, detail = per_layer(
                runner, seconds, [e["name"] for e in spec["per_layer"]])
            metrics["fail_ratio"] = _ratio(runner.failed, runner.attempted)
            selected = select(metrics, spec["per_layer"])
        else:
            metrics, detail = end_to_end(runner, seconds)
            selected = select(metrics, spec["end_to_end"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail.update({
        "provenance": prov,
        "repetitions": runner.count,
        "digests": runner.first_digests,
        "golden_checked": expected is not None,
        "failures": runner.failures,
    })
    return {
        "result": {
            "correct": runner.failed == 0 and runner.first_digests is not None,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": selected,
        },
        "detail": detail,
    }


# ---------------------------------------------------------------------- output

def print_report(name: str, out: dict) -> None:
    detail, result = out["detail"], out["result"]
    print(f"provenance: {json.dumps(detail['provenance'], sort_keys=True)}")
    if not detail["provenance"]["numpy_matches_golden"]:
        print(f"warning: numpy {detail['provenance']['numpy']} differs from "
              f"{detail['provenance']['golden_numpy']}, which recorded golden.json; "
              "golden digests not compared")
    print(f"workload {name}: {detail['repetitions']} repetitions, "
          f"{result['attempted']} operations, {result['failed']} failed, "
          f"golden digests {'checked' if detail['golden_checked'] else 'not checked'}")
    for failure in detail["failures"]:
        print(f"  FAILED {failure}")
    samples = detail.get("wall_s_samples", detail.get("traced_wall_s_samples", []))
    print(f"  medians over n={len(samples)} repetitions")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<40} {entry['value']:>16.6g} {entry['unit']}")
    if "blocking_share" in detail:
        print("  blocking share of traced wall time (self time / wall):")
        for span, self_s, share in detail["blocking_share"]:
            print(f"    {span:<36} {self_s:>10.4f} s {100 * share:>6.2f} %")


def record_golden(out: dict, name: str) -> None:
    golden = load_golden()
    golden["numpy"] = out["detail"]["provenance"]["numpy"]
    golden["digests"][name] = out["detail"]["digests"]
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for checking the benchmark itself")
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced and traced")
    parser.add_argument("--save", help="write the full result and detail as JSON")
    parser.add_argument("--record-golden", action="store_true",
                        help="store this run's digests in golden.json")
    args = parser.parse_args(argv)
    # a terminated run still stops its worker and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not args.all and not args.workload:
        parser.error("give --workload NAME or --all")
    if args.record_golden and (args.smoke or args.seed is not None):
        parser.error("--record-golden records the default seeds at full size")
    try:
        spec = load_spec()
        check_checkout()
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        names = list(WORKLOADS) if args.all else [args.workload]
        runs = []
        for name in names:
            seed = DEFAULT_SEEDS[name] if args.seed is None else args.seed
            for trace in ((0, 1) if args.all else (args.trace,)):
                out = run_workload(name, seed, seconds, bool(trace),
                                   args.smoke, spec)
                print_report(name, out)
                runs.append((name, out))
                if args.record_golden and not trace:
                    record_golden(out, name)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.save:
        with open(args.save, "w") as fh:
            json.dump([out for _, out in runs], fh, indent=1)
    if len(runs) == 1:
        final = runs[0][1]["result"]
    else:
        results = [(name, out["result"]) for name, out in runs]
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{name}.{metric}": entry for name, r in results
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
