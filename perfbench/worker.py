"""One benchmark repetition in a fresh interpreter.

Usage: worker.py PLAN_JSON REP_DIR MODE RUN_ID

MODE is ``setup`` (exit right after the import), ``plain`` (untraced),
``trace`` (spans and counters) or ``memory`` (tracemalloc peaks).  The
CLOCK_MONOTONIC reading taken when ``import qrngsim.cli`` returns lets the
parent, which read the same system-wide clock before starting this process,
measure set-up time from a fresh interpreter.  After the repetition it
times a memory-latency probe, which ``run.rep_wall`` uses to correct
the wall time.  Prints one JSON line.
"""

import time

import qrngsim.cli

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402

CHASE_SLOTS = 1 << 24     # 128 MB of int64, far beyond this process's cache share
CHASE_STEPS = 400_000
# i -> (A * i + C) mod 2**24 is one cycle through every slot (Hull-Dobell:
# C odd, A - 1 divisible by 4) whose steps have no fixed stride to prefetch.
CHASE_A, CHASE_C = 1_664_525, 1_013_904_223


def memory_latency_probe() -> float:
    """Seconds for a dependent pseudo-random walk through a 128 MB cycle.

    Each step waits on a main-memory load, so the time follows the host's
    memory latency, which drifts with load from other tenants.
    """
    successor = np.arange(CHASE_SLOTS, dtype=np.int64)
    successor *= CHASE_A
    successor += CHASE_C
    successor &= CHASE_SLOTS - 1
    start = time.perf_counter()
    i = 0
    for _ in range(CHASE_STEPS):
        i = int(successor[i])
    return time.perf_counter() - start


def run_op(argv, allowed, tracer):
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            code = qrngsim.cli.main(argv)
    except Exception:
        return {"code": None, "ok": False, "error": traceback.format_exc()}
    stderr = err.getvalue()
    ok = code in allowed and "Traceback" not in stderr
    return {"code": code, "ok": ok, "error": None if ok else stderr}


def main(plan_path, rep_dir, mode, run_id):
    result = {"imported": IMPORTED, "module": qrngsim.cli.__file__}
    if mode != "setup":
        with open(plan_path) as fh:
            ops = json.load(fh)
        os.chdir(rep_dir)
        tracer = spans.Tracer(run_id) if mode == "trace" else None
        peaks: dict = {}
        if mode == "trace":
            installed = spans.timing_installed(tracer)
        elif mode == "memory":
            installed = spans.memory_installed(peaks)
        else:
            installed = contextlib.nullcontext()
        with installed:
            start = time.perf_counter()
            ops_out = [run_op(argv, allowed, tracer) for argv, allowed in ops]
            result["wall_s"] = time.perf_counter() - start
        result["ops"] = ops_out
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # after the peak-RSS reading, which the probe's buffer would inflate
        result["probe_s"] = memory_latency_probe()
        if tracer:
            result["spans"] = tracer.spans
            result["counts"] = dict(tracer.counts)
        result["peaks"] = peaks
    print(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:5])
