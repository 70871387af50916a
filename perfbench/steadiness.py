"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b] [--out FILE]
                                    [--compare EARLIER_FILE]

Runs ``run.py --trace 0`` once per workload and seed, then reports, per
metric, the median of the runs and the spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median.  Every spread must stay within a third of the metric's bound.
With ``--compare``, each median must also lie within the bound of the earlier
set's, in either direction, since either set may end up as the parent.

Each run's samples are kept.  From the same runs, ``setup_s`` and ``wall_s``
are also summarised uncorrected and with exponent 1 in place of
``run.SETUP_EXPONENT`` and ``run.PROBE_EXPONENT``, to show what each
host-speed correction buys on each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

from run import PROBE_NOMINAL_S, SETUP_NOMINAL_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SAMPLES = ("setup_s_samples", "setup_reference_s_samples", "wall_s_samples",
           "probe_s_samples", "peak_rss_mb_samples")


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    save = os.path.join(work, "run.json")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
             "--save", save],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if not os.path.exists(save):
            sys.exit(f"{workload} seed {seed}: run failed\n"
                     f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(save) as fh:
            detail = json.load(fh)[0]["detail"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not result["correct"]:
        print(f"{workload} seed {seed}: run failed\n{proc.stdout[-2000:]}")
    run = {"seed": seed, "result": result}
    run.update({k: detail[k] for k in SAMPLES})
    return run


def setup_median(run: dict, exponent: float) -> float:
    return statistics.median(
        s * (SETUP_NOMINAL_S / ref) ** exponent
        for s, ref in zip(run["setup_s_samples"], run["setup_reference_s_samples"]))


def wall_median(run: dict, exponent: float) -> float:
    return statistics.median(
        w * (PROBE_NOMINAL_S / p) ** exponent
        for w, p in zip(run["wall_s_samples"], run["probe_s_samples"]))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", help="write every run and the summary as JSON")
    parser.add_argument("--compare", help="an earlier --out file of the same code")
    args = parser.parse_args(argv)
    # a terminated set still removes the work directory of its current run
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    earlier = None
    if args.compare:
        with open(args.compare) as fh:
            earlier = json.load(fh)["workloads"]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, spec["run_seconds"]) for seed in seeds]
        steady &= all(r["result"]["correct"] for r in runs)
        summary = {}
        for metric, bound in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            s, med = spread(values), statistics.median(values)
            ok = s < bound / 3
            summary[metric] = {"median": med, "spread": s, "bound": bound,
                               "within_third_of_bound": ok}
            line = (f"{workload:<18} {metric:<12} median {med:>10.5g}"
                    f"  spread {100 * s:6.2f} %  bound {100 * bound:.0f} %"
                    f"{'' if ok else '  TOO WIDE'}")
            if earlier is not None:
                before = earlier[workload]["summary"][metric]["median"]
                change = med / before - 1.0
                agrees = abs(change) <= bound
                summary[metric]["change_vs_earlier"] = change
                ok &= agrees
                line += f"  vs earlier {100 * change:+6.2f} %{'' if agrees else '  DISAGREES'}"
            steady &= ok
            print(line, flush=True)
        diagnostics = {
            "setup_s_raw": lambda r: setup_median(r, 0.0),
            "setup_s_exponent_1": lambda r: setup_median(r, 1.0),
            "wall_s_raw": lambda r: wall_median(r, 0.0),
            "wall_s_exponent_1": lambda r: wall_median(r, 1.0),
        }
        for key, of_run in diagnostics.items():
            values = [of_run(r) for r in runs]
            summary[key] = {"median": statistics.median(values),
                            "spread": spread(values)}
            print(f"{workload:<18} {key:<17} median {summary[key]['median']:>10.5g}"
                  f"  spread {100 * summary[key]['spread']:6.2f} %", flush=True)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
