"""Acceptance suite: one test per release criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they print.  Every tolerance is fixed here; seeds are pinned so each
criterion is a deterministic check of a property that holds for typical
seeds.
"""

import math
import time

import numpy as np
from scipy import stats

from qrngsim import bitpipe, statskit, timetag
from qrngsim.bitpipe import BitStream, ClockConfig
from qrngsim.cli import EXIT_ALARM, EXIT_OK, main, run_generation
from qrngsim.manifest import RunManifest, sha256_file
from qrngsim.optics import DetectorBank, InterferometerConfig
from qrngsim.statskit import run_suite
from qrngsim.timetag import PairLabel, SourceConfig, TimingConfig

from oracles import bit_array, poisson_error_fraction

TAU_C = 222.0
IDEAL = InterferometerConfig()
BANK = DetectorBank()
TIMING = TimingConfig()


def verdict(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_entangled_state_statistics():
    """>= 1e6 ideal pairs on the dip: no cross-arm pairs, balanced labels."""
    start = time.perf_counter()
    source = SourceConfig(pair_rate_hz=10.0, duration_s=100_500.0, seed=101)
    events = timetag.simulate(source, IDEAL, BANK, TIMING)
    n_pairs = int(np.random.default_rng(101).poisson(10.0 * 100_500.0))
    coinc = timetag.coincidence_filter(events, TIMING)
    counts = timetag.label_counts(coinc.labels)
    cross = int(counts[list(timetag.CROSS_ARM_LABELS)].sum())
    n12, n34 = counts[PairLabel.D1D2], counts[PairLabel.D3D4]
    bound = 4.0 * math.sqrt(n12 + n34)
    elapsed = time.perf_counter() - start
    ok = n_pairs >= 1_000_000 and cross == 0 and abs(n12 - n34) < bound and elapsed < 30.0
    verdict(
        1,
        "entangled-state statistics",
        ok,
        f"pairs={n_pairs} cross_arm={cross} |D1D2-D3D4|={abs(n12 - n34)} "
        f"(<{bound:.0f}) runtime={elapsed:.1f}s",
    )
    assert n_pairs >= 1_000_000
    assert cross == 0
    assert abs(n12 - n34) < bound
    assert elapsed < 30.0


def test_criterion_2_bunching_peak_ratio():
    """Same-arm coincidence rate doubles on the dip versus far delay."""
    start = time.perf_counter()
    source = SourceConfig(pair_rate_hz=2500.0, duration_s=100.0, seed=201)
    counts = timetag.scan_delay([0.0, 10.0 * TAU_C], source, IDEAL, BANK, TIMING)
    peak, base = counts[:, PairLabel.D1D2].tolist()
    ratio = peak / base
    sigma = ratio * math.sqrt(1.0 / peak + 1.0 / base)
    elapsed = time.perf_counter() - start
    ok = abs(ratio - 2.0) < 3.0 * sigma and elapsed < 60.0
    verdict(
        2,
        "bunching peak ratio",
        ok,
        f"ratio={ratio:.4f} (2.0 +/- {3 * sigma:.4f}) runtime={elapsed:.1f}s",
    )
    assert abs(ratio - 2.0) < 3.0 * sigma
    assert elapsed < 60.0


def test_criterion_3_ber_model_versus_clock_frequency():
    """Empirical BER against the first-order model R/(2f) at six clock rates.

    The recorder counts one error symbol per multi-coincidence period, so
    for a Poisson stream its expected error fraction is the exact
    occupancy law (1-(1+L)e^-L)/(1-e^-L) with L = R/f.  R/(2f) = L/2 is
    that law's first-order term and lies 0 to L^2/12 above it, which is
    the accuracy ``ber_model`` documents.  At a 2000 s integration the
    statistical resolution is a few 1e-4 while the truncation reaches
    3.7e-2 at L = 0.668, so the model is held to 3 sigma plus L^2/12 and
    the simulator to 3 sigma of the exact law.  Where the truncation is
    below the run's resolution this is the plain 3-sigma check.
    """
    start = time.perf_counter()
    rate = 668.0
    duration = 2000.0
    rows = []
    for i, f in enumerate((1000.0, 2000.0, 5000.0, 10_000.0, 20_000.0, 50_000.0)):
        stream = timetag.synthetic_coincidences(rate, duration, seed=timetag.point_seed(3, i))
        records = bitpipe.extract_bits(stream, ClockConfig(f))
        emp = bitpipe.empirical_ber(records)
        model = bitpipe.ber_model(rate, ClockConfig(f))
        lam = rate / f
        exact = poisson_error_fraction(lam)
        sigma = math.sqrt(emp * (1.0 - emp) / len(records))
        rows.append((f, model, exact, emp, sigma, lam * lam / 12.0))
    elapsed = time.perf_counter() - start

    all_within_model = all(
        abs(emp - model) < 3 * sigma + trunc for _, model, _, emp, sigma, trunc in rows
    )
    all_within_exact = all(abs(emp - exact) < 3 * sigma for _, _, exact, emp, sigma, _ in rows)
    detail = " ".join(
        f"[f={f:.0f}: model={model:.5f} exact={exact:.5f} emp={emp:.5f} "
        f"dev={(emp - model) / sigma:+.1f}s L^2/12={trunc / sigma:.1f}s]"
        for f, model, exact, emp, sigma, trunc in rows
    )
    ok = all_within_model and all_within_exact and elapsed < 120.0
    verdict(3, "BER versus clock frequency", ok,
            detail + f" exact-law agreement={all_within_exact} runtime={elapsed:.1f}s")
    assert all_within_exact, "simulator drifted from the exact occupancy law"
    assert elapsed < 120.0
    assert all_within_model, (
        "empirical BER is outside 3 sigma + (R/f)^2/12 of R/(2f); the model "
        "is the first-order term of the exact law (1-(1+L)e^-L)/(1-e^-L), "
        "L = R/f, and lies 0 to L^2/12 above it"
    )


def test_criterion_4_unbiasing_yield_and_balance():
    """Von Neumann on a 1,090,000-bit stream with ones fraction 0.60198."""
    rng = np.random.default_rng(401)
    bits = BitStream((rng.random(1_090_000) < 0.60198).astype(np.uint8))
    start = time.perf_counter()
    unbiased = bitpipe.von_neumann(bits)
    elapsed = time.perf_counter() - start
    observed_yield = unbiased.n / bits.n
    p_hat, _ = bitpipe.bias_estimate(unbiased)
    balance_bound = 4.0 * math.sqrt(0.25 / unbiased.n)
    ok = (
        abs(observed_yield - 0.2396) < 0.002
        and abs(p_hat - 0.5) < balance_bound
        and elapsed < 1.0
    )
    verdict(
        4,
        "von Neumann unbiasing",
        ok,
        f"yield={observed_yield:.4f} (0.2396 +/- 0.002) "
        f"|p-0.5|={abs(p_hat - 0.5):.5f} (<{balance_bound:.5f}) "
        f"runtime={elapsed * 1000:.0f}ms",
    )
    assert abs(observed_yield - 0.2396) < 0.002
    assert abs(p_hat - 0.5) < balance_bound
    assert elapsed < 1.0


def test_criterion_5a_worked_p_values_match_oracles():
    """Small worked inputs reproduce oracle P-values to 6 significant figures."""
    freq = statskit.frequency_test(bit_array("11010")).p_values[0]
    runs = statskit.runs_test(bit_array("1001101011")).p_values[0]
    block = statskit.block_frequency_test(bit_array("0110011010"), m=3).p_values[0]
    spectral = statskit.spectral_test(bit_array("10" * 500))
    checks = [
        ("frequency", freq, 0.654721, 5e-7),
        ("runs", runs, 0.147232, 5e-7),
        ("block_frequency", block, 0.801252, 5e-7),
        # brute-force DFT oracle value for the alternating sequence
        ("spectral", spectral.p_values[0], 4.0236721907e-13, 4.1e-22),
    ]
    ok = all(abs(got - want) < tol for _, got, want, tol in checks)
    verdict(
        5,
        "worked P-values (part a)",
        ok,
        " ".join(f"{name}={got:.6g}" for name, got, _, _ in checks),
    )
    for name, got, want, tol in checks:
        assert abs(got - want) < tol, name


def test_criterion_5b_p_value_uniformity():
    """Each test's P-values over 500 fair 1e5-bit sequences look uniform."""
    start = time.perf_counter()
    streams: dict = {}
    for seq_seed in np.random.SeedSequence(1).spawn(500):
        bits = np.random.default_rng(seq_seed).integers(0, 2, 100_000, dtype=np.uint8)
        report = run_suite(bits)
        for t in report.tests:
            if not t.applicable:
                continue
            for j, p in enumerate(t.p_values):
                streams.setdefault(f"{t.name}[{j}]", []).append(p)
    results = {
        name: stats.kstest(ps, "uniform").pvalue for name, ps in streams.items()
    }
    elapsed = time.perf_counter() - start
    ok = all(p > 0.01 for p in results.values())
    verdict(
        5,
        "P-value uniformity (part b)",
        ok,
        " ".join(f"{name}:KSp={p:.3f}" for name, p in results.items())
        + f" runtime={elapsed:.0f}s",
    )
    assert len(streams) == 10  # 8 tests, two of them double-valued
    for name, p in results.items():
        assert p > 0.01, f"{name} P-values reject uniformity"


def test_criterion_5c_full_pipeline_megabit_sequences():
    """Three generate->unbias megabit sequences pass every test at 0.01."""
    start = time.perf_counter()
    summaries = []
    all_pass = True
    for seed in (502, 504, 505):
        source = SourceConfig(pair_rate_hz=2000.0, duration_s=4700.0, seed=seed)
        bits, _, _ = run_generation(
            source, IDEAL, BANK, TIMING, ClockConfig(500_000.0),
            monitor_threshold=500,  # accidental-overlap allowance at this rate
        )
        unbiased = bitpipe.von_neumann(bits)
        assert unbiased.n >= 1_090_000
        trimmed = unbiased.bits[:1_090_000]
        report = run_suite(trimmed, sequence_id=f"seed-{seed}")
        worst = min(p for t in report.tests if t.applicable for p in t.p_values)
        summaries.append(f"[seed {seed}: n={len(trimmed)} worst_p={worst:.4f} "
                         f"pass={report.overall_pass}]")
        all_pass = all_pass and report.overall_pass
    elapsed = time.perf_counter() - start
    ok = all_pass and elapsed < 600.0
    verdict(5, "pipeline megabit sequences (part c)", ok,
            " ".join(summaries) + f" runtime={elapsed:.0f}s")
    assert all_pass
    assert elapsed < 600.0


def test_criterion_6_purity_monitor_protocol(tmp_path):
    """Detuned runs abort with the alarm exit code; on-dip runs stay clean."""
    start = time.perf_counter()
    detuned = main([
        "generate", "--clock", "500000", "--duration", "5",
        "--pair-rate", "1336", "--seed", "11", "--delay", str(3 * TAU_C),
        "--out", str(tmp_path / "detuned.txt"),
    ])
    clean_out = tmp_path / "clean.txt"
    clean = main([
        "generate", "--clock", "500000", "--duration", "10",
        "--pair-rate", "668", "--seed", "601", "--out", str(clean_out),
    ])
    manifest = RunManifest.load(str(clean_out) + ".manifest.json")
    cross = manifest.metadata["cross_arm_count"]
    elapsed = time.perf_counter() - start
    ok = detuned == EXIT_ALARM and clean == EXIT_OK and cross == 0 and elapsed < 30.0
    verdict(
        6,
        "purity monitor protocol",
        ok,
        f"detuned_exit={detuned} clean_exit={clean} cross_arm={cross} "
        f"runtime={elapsed:.1f}s",
    )
    assert detuned == EXIT_ALARM
    assert clean == EXIT_OK
    assert cross == 0
    assert elapsed < 30.0


def test_criterion_7_manifest_determinism(tmp_path):
    """Replaying a manifest reproduces every output digest."""
    out = tmp_path / "bits.txt"
    assert main([
        "generate", "--clock", "500000", "--duration", "15",
        "--pair-rate", "1336", "--seed", "71", "--out", str(out),
    ]) == EXIT_OK
    manifest_path = str(out) + ".manifest.json"
    recorded = {o["name"]: o["sha256"] for o in RunManifest.load(manifest_path).outputs}

    rerun_dir = tmp_path / "replay"
    assert main(["rerun", "--manifest", manifest_path,
                 "--outdir", str(rerun_dir)]) == EXIT_OK
    digests_match = (
        sha256_file(rerun_dir / "bits.txt") == recorded["bits"]
        and sha256_file(rerun_dir / "bits.txt.errors.csv") == recorded["error_log"]
    )

    scan_out = tmp_path / "scan.csv"
    assert main([
        "scan-delay", "--from", "-500", "--to", "500", "--steps", "5",
        "--pairs-per-point", "1e4", "--seed", "72", "--out", str(scan_out),
    ]) == EXIT_OK
    scan_manifest = str(scan_out) + ".manifest.json"
    scan_recorded = {o["name"]: o["sha256"]
                     for o in RunManifest.load(scan_manifest).outputs}
    scan_dir = tmp_path / "scan-replay"
    assert main(["rerun", "--manifest", scan_manifest,
                 "--outdir", str(scan_dir)]) == EXIT_OK
    scan_match = sha256_file(scan_dir / "scan.csv") == scan_recorded["scan_csv"]

    ok = digests_match and scan_match
    verdict(7, "manifest determinism", ok,
            f"generate_digests_match={digests_match} scan_digest_match={scan_match}")
    assert digests_match
    assert scan_match
