"""The benchmark workloads: CLI argv, outputs and result checks.

Each workload is a fixed list of ``qrngsim`` command lines run one after the
other (a closed loop with one client).  Sizes are scaled so that one
repetition takes two to three seconds on a 2-vCPU host, which lets a run
of 30 seconds take the median of six to nine repetitions.  ``smoke=True``
shrinks every workload to a fraction of a second while keeping its shape.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

# Exit codes the CLI documents: 0 ok, 1 randomness-test FAIL verdict.
OK = (0,)
OK_OR_TEST_FAIL = (0, 1)

MANIFEST_SUFFIX = ".manifest.json"


@dataclass
class Plan:
    """Everything one repetition runs, and how to judge what it left behind."""

    ops: list                      # [(argv, allowed exit codes)]
    outputs: list                  # output files (relative to the rep dir) to digest
    sim_seconds: float = 0.0       # simulated generator seconds per repetition
    check: object = None           # check(rep_dir, op_results) -> [failure messages]


# ---------------------------------------------------------- generate_pipeline

# The full production run (acceptance criterion 5c) is 4,700 s and must give
# at least 1.09 M unbiased bits; a quarter of it keeps every stage and writer
# in the path at about 2.5 s per repetition, with the bit floor scaled to match.
GEN_FULL_DURATION = 4700.0
GEN_FULL_MIN_UNBIASED = 1_090_000


def generate_pipeline(seed: int, smoke: bool = False) -> Plan:
    duration = 20.0 if smoke else 1175.0
    min_unbiased = GEN_FULL_MIN_UNBIASED * duration / GEN_FULL_DURATION
    threshold = 500
    ops = [
        (["generate", "--clock", "500000", "--pair-rate", "2000",
          "--duration", repr(duration), "--monitor-threshold", str(threshold),
          "--format", "ascii", "--seed", str(seed), "--out", "raw.bits"], OK),
        (["unbias", "raw.bits", "--out", "unbiased.bits"], OK),
        (["test", "unbiased.bits"], OK_OR_TEST_FAIL),
    ]

    def check(rep_dir, results):
        failures = []
        meta = _manifest(rep_dir, "raw.bits")["metadata"]
        if meta["cross_arm_count"] > threshold:
            failures.append(f"monitor alarm: {meta['cross_arm_count']} cross-arm")
        unbiased = _manifest(rep_dir, "unbiased.bits")["metadata"]["output_bits"]
        if unbiased < min_unbiased:
            failures.append(f"{unbiased} unbiased bits < {min_unbiased:.0f}")
        report = _report(rep_dir, "unbiased.bits.report.json")
        if report["n_bits"] != unbiased:
            failures.append("test did not cover every unbiased bit")
        failures += _verdict_matches_exit(report, results[2]["code"])
        return failures

    return Plan(
        ops=ops,
        outputs=["raw.bits", "raw.bits.errors.csv", "unbiased.bits",
                 "unbiased.bits.report.json"],
        sim_seconds=duration,
        check=check,
    )


# -------------------------------------------------------------- scan_highflux

# 2 MHz pair flux (2e6 pairs per 1 s point) at 0.4 of the point length; five
# points span the 222 fs dip so the three-parameter fit is constrained.
SCAN_STEPS = 5


def scan_highflux(seed: int, smoke: bool = False) -> Plan:
    point_duration = 0.01 if smoke else 0.4
    pairs = 2e6 * point_duration
    ceiling = 1.0
    ops = [
        (["scan-delay", "--from", "-600", "--to", "600", "--steps", str(SCAN_STEPS),
          "--pairs-per-point", repr(pairs), "--point-duration", repr(point_duration),
          "--visibility-ceiling", repr(ceiling), "--seed", str(seed),
          "--out", "scan.csv"], OK),
    ]

    def check(rep_dir, results):
        vis = _manifest(rep_dir, "scan.csv")["metadata"]["fitted_visibility"]
        if abs(vis - ceiling) > 0.05:
            return [f"fitted visibility {vis:.4f} not within 0.05 of {ceiling}"]
        return []

    return Plan(ops=ops, outputs=["scan.csv"],
                sim_seconds=SCAN_STEPS * point_duration, check=check)


# ------------------------------------------------------------------- ber_long

# 9,500 s lies past INT64_MAX // 1000 ps (about 9,223 s), so clock-period
# indexing takes its Python-integer path.  A 1 kHz rate at 50 kHz and 5 kHz
# clocks is scaled down by four at equal lambda = R / f.
BER_DURATION = 9500.0


def ber_long(seed: int, smoke: bool = False) -> Plan:
    rate = 1.0 if smoke else 250.0
    freqs = (rate * 50.0, rate * 5.0)  # lambda = R / f of 0.02 and 0.2
    ops = [
        (["ber-scan", "--rate", repr(rate),
          "--freqs", ",".join(repr(f) for f in freqs),
          "--duration", repr(BER_DURATION), "--seed", str(seed),
          "--out", "ber.csv"], OK),
    ]

    def check(rep_dir, results):
        failures = []
        with open(os.path.join(rep_dir, "ber.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != len(freqs):
            return [f"ber.csv has {len(rows)} rows, expected {len(freqs)}"]
        for row in rows:
            lam = rate / float(row["frequency_hz"])
            exact = exact_occupancy_ber(lam)
            emp, sigma = float(row["empirical_ber"]), float(row["sigma"])
            if not abs(emp - exact) <= 4.0 * sigma:
                failures.append(
                    f"f={row['frequency_hz']}: empirical {emp:.6f} vs exact "
                    f"{exact:.6f} beyond 4 sigma ({sigma:.2e})")
        return failures

    return Plan(ops=ops, outputs=["ber.csv"],
                sim_seconds=BER_DURATION * len(freqs), check=check)


def exact_occupancy_ber(lam: float) -> float:
    """P(two or more events | at least one) for Poisson occupancy lambda."""
    e = math.exp(-lam)
    return (1.0 - e - lam * e) / (1.0 - e)


# ------------------------------------------------------------------- registry

WORKLOADS = {
    "generate_pipeline": generate_pipeline,
    "scan_highflux": scan_highflux,
    "ber_long": ber_long,
}

DEFAULT_SEEDS = {
    "generate_pipeline": 502,
    "scan_highflux": 7,
    "ber_long": 3,
}


def _manifest(rep_dir, output):
    with open(os.path.join(rep_dir, output + MANIFEST_SUFFIX)) as fh:
        return json.load(fh)


def _report(rep_dir, name):
    with open(os.path.join(rep_dir, name)) as fh:
        return json.load(fh)


def _verdict_matches_exit(report, code):
    expected = 0 if report["overall_pass"] else 1
    if code != expected:
        return [f"exit code {code} disagrees with overall_pass="
                f"{report['overall_pass']}"]
    return []
