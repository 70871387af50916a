"""Core subset of the NIST SP 800-22 randomness tests.

Eight tests are implemented: frequency, block frequency, runs, longest
run of ones, cumulative sums (both directions), approximate entropy,
serial, and the discrete Fourier (spectral) test.  Statistic and P-value
formulas, block-size tables and windowing conventions follow NIST SP
800-22 rev. 1a; overlapping pattern counts wrap around exactly where that
document says they do (approximate entropy, serial) and nowhere else.

A report carries ``applicable=False`` instead of a fake P-value whenever
a test's length preconditions fail, so "not testable" never masquerades
as "tested and failed".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .special import erfc, igamc, normal_cdf


class EmptyStream(ValueError):
    pass


class InvalidBlockLength(ValueError):
    pass


class SequenceTooShort(ValueError):
    pass


class InvalidPatternLength(ValueError):
    pass


def as_bit_array(bits: np.ndarray) -> np.ndarray:
    """Check that ``bits`` is a one-dimensional uint8 array of 0s and 1s."""
    if not isinstance(bits, np.ndarray) or bits.dtype != np.uint8 or bits.ndim != 1:
        raise ValueError("bits must be a one-dimensional uint8 array")
    if len(bits) and bits.max() > 1:
        raise ValueError("bits must be 0 or 1")
    return bits


@dataclass(frozen=True)
class TestReport:
    test_name: str
    p_values: tuple
    statistic: float
    passed: bool
    applicable: bool

    def as_dict(self) -> dict:
        return {
            "name": self.test_name,
            "p_values": list(self.p_values),
            "statistic": self.statistic,
            "passed": self.passed,
            "applicable": self.applicable,
        }


@dataclass(frozen=True)
class SuiteConfig:
    """Suite significance level and per-test block parameters."""

    alpha: float = 0.01
    block_frequency_m: int = 128
    approx_entropy_m: int = 2
    serial_m: Optional[int] = None  # None: scale with sequence length

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        # a length its test cannot use would only mark that test not applicable
        for name, least in (("block_frequency_m", 1), ("approx_entropy_m", 1), ("serial_m", 2)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")


@dataclass
class SuiteReport:
    sequence_id: str
    n_bits: int
    alpha: float
    tests: list = field(default_factory=list)
    overall_pass: bool = True

    @property
    def n_applicable(self) -> int:
        return sum(t.applicable for t in self.tests)

    def as_dict(self) -> dict:
        return {
            "sequence_id": self.sequence_id,
            "n_bits": self.n_bits,
            "alpha": self.alpha,
            "tests": [t.as_dict() for t in self.tests],
            "overall_pass": self.overall_pass,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)


def _report(name, p_values, statistic, alpha, applicable=True) -> TestReport:
    p_values = tuple(float(p) for p in p_values)
    passed = bool(p_values) and min(p_values) >= alpha
    return TestReport(
        test_name=name,
        p_values=p_values,
        statistic=float(statistic),
        passed=passed,
        applicable=applicable,
    )


def frequency_test(bits, alpha: float = 0.01) -> TestReport:
    """Monobit balance: P = erfc(|S| / sqrt(2 n)) with S = sum(2 b - 1)."""
    b = as_bit_array(bits)
    n = len(b)
    if n == 0:
        raise EmptyStream("frequency test needs at least one bit")
    s = 2 * int(b.sum()) - n
    p = erfc(abs(s) / math.sqrt(2.0 * n))
    return _report("frequency", (p,), abs(s) / math.sqrt(n), alpha, applicable=n >= 100)


def block_frequency_test(bits, m: int = 128, alpha: float = 0.01) -> TestReport:
    """Per-block one-fraction chi-square; trailing partial block dropped."""
    b = as_bit_array(bits)
    n = len(b)
    if m < 1:
        raise InvalidBlockLength(f"block length must be >= 1, got {m}")
    n_blocks = n // m
    if n_blocks < 1:
        raise InvalidBlockLength(f"sequence of {n} bits has no complete {m}-bit block")
    pi = b[: n_blocks * m].reshape(n_blocks, m).mean(axis=1)
    chi2 = 4.0 * m * float(((pi - 0.5) ** 2).sum())
    p = igamc(n_blocks / 2.0, chi2 / 2.0)
    return _report("block_frequency", (p,), chi2, alpha, applicable=n >= 100)


def runs_test(bits, alpha: float = 0.01) -> TestReport:
    """Total number of runs against its expectation for the observed bias.

    The frequency pre-test |pi - 1/2| >= 2/sqrt(n) marks the report not
    applicable (rather than forging P = 0): the runs statistic is
    meaningless once the balance hypothesis already failed.  A constant
    sequence is marked the same way: below 16 bits the pre-test cannot
    fire, and at pi = 0 or 1 the statistic's denominator is zero.
    """
    b = as_bit_array(bits)
    n = len(b)
    if n == 0:
        raise EmptyStream("runs test needs at least one bit")
    pi = int(b.sum()) / n
    if pi in (0.0, 1.0) or abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return TestReport("runs", (), pi, passed=False, applicable=False)
    v = 1 + int(np.count_nonzero(b[1:] != b[:-1]))
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    p = erfc(num / den)
    return _report("runs", (p,), float(v), alpha, applicable=n >= 100)


# Longest-run-of-ones block tables from NIST SP 800-22 rev. 1a (section
# 2.4): (min n, block length M, category edges, category probabilities).
_LONGEST_RUN_TABLE = (
    (
        750_000,
        10_000,
        (10, 11, 12, 13, 14, 15, 16),
        (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727),
    ),
    (
        6_272,
        128,
        (4, 5, 6, 7, 8, 9),
        (0.1174035788, 0.242955959, 0.249363483, 0.17517706, 0.102701071, 0.112398847),
    ),
    (
        128,
        8,
        (1, 2, 3, 4),
        (0.21484375, 0.3671875, 0.23046875, 0.1875),
    ),
)


def longest_run_test(bits, alpha: float = 0.01) -> TestReport:
    """Longest run of ones per block, binned against reference categories."""
    b = as_bit_array(bits)
    n = len(b)
    if n < 128:
        raise SequenceTooShort(f"longest-run test needs >= 128 bits, got {n}")
    for min_n, m, edges, pis in _LONGEST_RUN_TABLE:
        if n >= min_n:
            break
    n_blocks = n // m
    blocks = b[: n_blocks * m].reshape(n_blocks, m)
    run = np.zeros(n_blocks, dtype=np.int64)
    best = np.zeros(n_blocks, dtype=np.int64)
    for j in range(m):
        run = (run + 1) * blocks[:, j]
        np.maximum(best, run, out=best)
    k = len(edges) - 1
    categories = np.clip(np.searchsorted(edges, best), 0, k)
    # searchsorted maps best <= edges[0] to 0, best >= edges[-1] to k
    nu = np.bincount(categories, minlength=k + 1).astype(float)
    expected = n_blocks * np.asarray(pis)
    chi2 = float(((nu - expected) ** 2 / expected).sum())
    p = igamc(k / 2.0, chi2 / 2.0)
    return _report("longest_run", (p,), chi2, alpha)


def _cusum_p_value(z: int, n: int) -> float:
    # two-sided range-of-partial-sums distribution, SP 800-22 section 2.13
    sqrt_n = math.sqrt(n)
    q = n // z
    total = 1.0
    lo = -((q - 1) // 4)
    hi = (q - 1) // 4
    for k in range(lo, hi + 1):
        total -= normal_cdf((4 * k + 1) * z / sqrt_n) - normal_cdf((4 * k - 1) * z / sqrt_n)
    lo = -((q + 3) // 4)
    for k in range(lo, hi + 1):
        total += normal_cdf((4 * k + 3) * z / sqrt_n) - normal_cdf((4 * k + 1) * z / sqrt_n)
    return min(max(total, 0.0), 1.0)


def cusum_test(bits, mode: str = "forward", alpha: float = 0.01) -> TestReport:
    """Maximum excursion of the +/-1 random walk (forward or reversed)."""
    b = as_bit_array(bits)
    n = len(b)
    if n == 0:
        raise EmptyStream("cumulative sums test needs at least one bit")
    if mode not in ("forward", "backward"):
        raise ValueError(f"mode must be 'forward' or 'backward', got {mode!r}")
    x = 2 * b.astype(np.int64) - 1
    if mode == "backward":
        x = x[::-1]
    z = int(np.abs(np.cumsum(x)).max())
    p = _cusum_p_value(z, n)
    return _report(f"cumulative_sums_{mode}", (p,), float(z), alpha, applicable=n >= 100)


def _overlapping_pattern_counts(b: np.ndarray, m: int) -> np.ndarray:
    """Counts of all 2^m overlapping m-bit windows with wraparound."""
    n = len(b)
    ext = np.resize(b, n + m - 1)  # repeats b, so windows longer than n wrap again
    codes = np.zeros(n, dtype=np.int64)
    for j in range(m):
        codes = (codes << 1) | ext[j : j + n]
    return np.bincount(codes, minlength=2**m)


def approx_entropy_test(bits, m: int = 2, alpha: float = 0.01) -> TestReport:
    """Approximate entropy of overlapping m- vs (m+1)-bit patterns."""
    b = as_bit_array(bits)
    n = len(b)
    if m < 1:
        raise InvalidPatternLength(f"pattern length must be >= 1, got {m}")
    if n == 0:
        raise EmptyStream("approximate entropy test needs at least one bit")

    def phi(mm: int) -> float:
        counts = _overlapping_pattern_counts(b, mm)
        counts = counts[counts > 0].astype(float)
        freq = counts / n
        return float((freq * np.log(freq)).sum())

    apen = phi(m) - phi(m + 1)
    chi2 = 2.0 * n * (math.log(2.0) - apen)
    p = igamc(2 ** (m - 1), chi2 / 2.0)
    applicable = n >= 100 and n > 2 ** (m + 1)
    return _report("approximate_entropy", (p,), chi2, alpha, applicable=applicable)


def default_serial_m(n: int) -> int:
    """Pattern length 16 at the megabit scale, shrinking with n below it."""
    if n < 2:
        return 2
    return max(2, min(16, int(math.floor(math.log2(n))) - 3))


def serial_test(bits, m: Optional[int] = None, alpha: float = 0.01) -> TestReport:
    """Overlapping m-bit pattern uniformity (psi-square differences)."""
    b = as_bit_array(bits)
    n = len(b)
    if n == 0:
        raise EmptyStream("serial test needs at least one bit")
    if m is None:
        m = default_serial_m(n)
    if m < 2:
        raise InvalidPatternLength(f"serial test needs pattern length >= 2, got {m}")

    # The windows wrap, so the (m-1)-bit windows are exactly the m-bit
    # windows' prefixes: summing adjacent pattern counts shortens them by
    # one bit, in integers, without another pass over the bits.
    counts = _overlapping_pattern_counts(b, m)
    psi2 = []
    for mm in (m, m - 1, m - 2):
        c = counts.astype(float)
        psi2.append(float((c * c).sum() * (2**mm) / n - n) if mm > 0 else 0.0)
        counts = counts[0::2] + counts[1::2]

    # Both differences are >= 0 in exact arithmetic; rounding can leave
    # them a few ulps below zero, where igamc is 1 as in NIST's cephes.
    d1 = max(psi2[0] - psi2[1], 0.0)
    d2 = max(psi2[0] - 2.0 * psi2[1] + psi2[2], 0.0)
    p1 = igamc(2 ** (m - 2), d1 / 2.0)
    p2 = igamc(2 ** (m - 3), d2 / 2.0)
    applicable = n >= 100 and m <= int(math.floor(math.log2(n))) - 2
    return _report("serial", (p1, p2), d1, alpha, applicable=applicable)


def spectral_test(bits, alpha: float = 0.01) -> TestReport:
    """Discrete Fourier peak-count test against the 95 % threshold."""
    b = as_bit_array(bits)
    n = len(b)
    if n < 2:
        raise SequenceTooShort(f"spectral test needs >= 2 bits, got {n}")
    x = 2.0 * b.astype(np.float64) - 1.0
    magnitudes = np.abs(np.fft.rfft(x))[: n // 2]
    threshold = math.sqrt(n * math.log(1.0 / 0.05))
    n1 = int(np.count_nonzero(magnitudes < threshold))
    n0 = 0.95 * n / 2.0
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    p = erfc(abs(d) / math.sqrt(2.0))
    return _report("spectral", (p,), d, alpha, applicable=n >= 1000)


_PRECONDITION_ERRORS = (
    EmptyStream,
    InvalidBlockLength,
    SequenceTooShort,
    InvalidPatternLength,
)


def run_suite(bits, config: Optional[SuiteConfig] = None, sequence_id: str = "") -> SuiteReport:
    """Run the battery in canonical order and aggregate the verdict.

    The cumulative-sums report folds both scan directions into one entry
    (p_values = (forward, backward), statistic = forward excursion).
    Tests whose length preconditions cannot even be evaluated appear as
    non-applicable reports with no P-values.  ``overall_pass`` is the
    conjunction over applicable tests only, and false when no test
    applies (``n_applicable`` is 0, as below 100 bits).
    """
    if config is None:
        config = SuiteConfig()
    b = as_bit_array(bits)
    alpha = config.alpha

    def cusum_both(bb, a):
        fwd = cusum_test(bb, "forward", a)
        bwd = cusum_test(bb, "backward", a)
        return TestReport(
            test_name="cumulative_sums",
            p_values=fwd.p_values + bwd.p_values,
            statistic=fwd.statistic,
            passed=fwd.passed and bwd.passed,
            applicable=fwd.applicable and bwd.applicable,
        )

    battery = (
        ("frequency", lambda bb, a: frequency_test(bb, a)),
        ("block_frequency", lambda bb, a: block_frequency_test(bb, config.block_frequency_m, a)),
        ("runs", lambda bb, a: runs_test(bb, a)),
        ("longest_run", lambda bb, a: longest_run_test(bb, a)),
        ("cumulative_sums", cusum_both),
        ("approximate_entropy", lambda bb, a: approx_entropy_test(bb, config.approx_entropy_m, a)),
        ("serial", lambda bb, a: serial_test(bb, config.serial_m, a)),
        ("spectral", lambda bb, a: spectral_test(bb, a)),
    )

    report = SuiteReport(sequence_id=sequence_id, n_bits=len(b), alpha=alpha)
    for name, runner in battery:
        try:
            result = runner(b, alpha)
        except _PRECONDITION_ERRORS:
            result = TestReport(name, (), 0.0, passed=False, applicable=False)
        report.tests.append(result)
    report.overall_pass = report.n_applicable > 0 and all(
        t.passed for t in report.tests if t.applicable
    )
    return report
