"""Core subset of the NIST SP 800-22 randomness tests.

Eight tests are implemented: frequency, block frequency, runs, longest
run of ones, cumulative sums (both directions), approximate entropy,
serial, and the discrete Fourier (spectral) test.  Statistic and P-value
formulas, block-size tables and windowing conventions follow NIST SP
800-22 rev. 1a; overlapping pattern counts wrap around exactly where that
document says they do (approximate entropy, serial) and nowhere else.

A report carries ``applicable=False`` instead of a fake P-value whenever
a test's length preconditions fail, so "not testable" never masquerades
as "tested and failed".  A sequence too short to compute a test at all
gets a blank report (no P-values, statistic 0) from the test itself, and
so does a pattern length too long for the sequence (serial's m above
floor(log2 n) - 2, approximate entropy's 2^(m+1) at or above n), whose
2^m-entry table would outgrow the bits it counts; a parameter no test
can use raises ValueError.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .special import erfc, igamc, normal_cdf

# the battery's defaults: significance level, block frequency's block
# length and approximate entropy's pattern length
ALPHA = 0.01
BLOCK_M = 128
APEN_M = 2


def as_bit_array(bits: np.ndarray) -> np.ndarray:
    """Check that ``bits`` is a one-dimensional uint8 array of 0s and 1s."""
    if not isinstance(bits, np.ndarray) or bits.dtype != np.uint8 or bits.ndim != 1:
        raise ValueError("bits must be a one-dimensional uint8 array")
    if len(bits) and bits.max() > 1:
        raise ValueError("bits must be 0 or 1")
    return bits


@dataclass(frozen=True)
class TestReport:
    name: str
    p_values: tuple
    statistic: float
    passed: bool
    applicable: bool


@dataclass
class SuiteReport:
    sequence_id: str
    n_bits: int
    alpha: float
    tests: list

    @property
    def n_applicable(self) -> int:
        return sum(t.applicable for t in self.tests)

    @property
    def overall_pass(self) -> bool:
        """All applicable tests passed, and at least one applied."""
        return self.n_applicable > 0 and all(t.passed for t in self.tests if t.applicable)

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "overall_pass": self.overall_pass}, indent=2)


def _report(name, p_values, statistic, alpha, applicable=True) -> TestReport:
    p_values = tuple(float(p) for p in p_values)
    passed = bool(p_values) and min(p_values) >= alpha
    return TestReport(
        name=name,
        p_values=p_values,
        statistic=float(statistic),
        passed=passed,
        applicable=applicable,
    )


def _too_short(name) -> TestReport:
    """The blank report of a test the sequence is too short to compute."""
    return TestReport(name, (), 0.0, passed=False, applicable=False)


def frequency_test(bits, alpha: float = ALPHA) -> TestReport:
    """Monobit balance: P = erfc(|S| / sqrt(2 n)) with S = sum(2 b - 1)."""
    b = as_bit_array(bits)
    n = len(b)
    if n == 0:
        return _too_short("frequency")
    s = 2 * int(b.sum()) - n
    p = erfc(abs(s) / math.sqrt(2.0 * n))
    return _report("frequency", (p,), abs(s) / math.sqrt(n), alpha, applicable=n >= 100)


def block_frequency_test(bits, m: int = BLOCK_M, alpha: float = ALPHA) -> TestReport:
    """Per-block one-fraction chi-square; trailing partial block dropped."""
    b = as_bit_array(bits)
    n = len(b)
    if m < 1:
        raise ValueError(f"block length must be >= 1, got {m}")
    n_blocks = n // m
    if n_blocks < 1:
        return _too_short("block_frequency")
    pi = b[: n_blocks * m].reshape(n_blocks, m).mean(axis=1)
    chi2 = 4.0 * m * float(((pi - 0.5) ** 2).sum())
    p = igamc(n_blocks / 2.0, chi2 / 2.0)
    return _report("block_frequency", (p,), chi2, alpha, applicable=n >= 100)


def runs_test(bits, alpha: float = ALPHA) -> TestReport:
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
        return _too_short("runs")
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


def longest_run_test(bits, alpha: float = ALPHA) -> TestReport:
    """Longest run of ones per block, binned against reference categories."""
    b = as_bit_array(bits)
    n = len(b)
    if n < 128:
        return _too_short("longest_run")
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


def cusum_test(bits, alpha: float = ALPHA) -> TestReport:
    """Maximum excursions of the +/-1 random walk, forward and backward.

    p_values are (forward, backward); the statistic is the forward
    excursion.  One walk S_1..S_n serves both directions: the reversed
    walk's partial sums are S_n - S_i for i = 0..n-1, with S_0 = 0.
    """
    b = as_bit_array(bits)
    n = len(b)
    if n == 0:
        return _too_short("cumulative_sums")
    walk = np.cumsum(b.view(np.int8) * 2 - 1, dtype=np.int64)
    lo = int(walk[:-1].min(initial=0))
    hi = int(walk[:-1].max(initial=0))
    end = int(walk[-1])
    forward = max(hi, -lo, abs(end))
    backward = max(end - lo, hi - end)
    p_values = (_cusum_p_value(forward, n), _cusum_p_value(backward, n))
    return _report("cumulative_sums", p_values, forward, alpha, applicable=n >= 100)


def _overlapping_pattern_counts(b: np.ndarray, m: int) -> np.ndarray:
    """Counts of all 2^m overlapping m-bit windows with wraparound."""
    n = len(b)
    ext = np.resize(b, n + m - 1)  # repeats b, so windows longer than n wrap again
    codes = np.zeros(n, dtype=np.int64)
    for j in range(m):
        codes = (codes << 1) | ext[j : j + n]
    return np.bincount(codes, minlength=2**m)


def _fold(counts: np.ndarray) -> np.ndarray:
    """The counts of the windows one bit shorter.  The windows wrap, so a
    window's first m - 1 bits are the shorter window at the same start:
    summing adjacent pattern counts, in integers, replaces another pass
    over the bits."""
    return counts[0::2] + counts[1::2]


def approx_entropy_test(bits, m: int = APEN_M, alpha: float = ALPHA) -> TestReport:
    """Approximate entropy of overlapping m- vs (m+1)-bit patterns."""
    b = as_bit_array(bits)
    n = len(b)
    if m < 1:
        raise ValueError(f"pattern length must be >= 1, got {m}")
    if n <= 2 ** (m + 1):
        return _too_short("approximate_entropy")
    p, chi2 = _approx_entropy(b, m)
    return _report("approximate_entropy", (p,), chi2, alpha, applicable=n >= 100)


def _approx_entropy(b: np.ndarray, m: int):
    """(P-value, chi-square) of approximate entropy at pattern length m,
    under no length rule."""
    n = len(b)

    def phi(counts) -> float:
        freq = counts[counts > 0] / n
        return float((freq * np.log(freq)).sum())

    longer = _overlapping_pattern_counts(b, m + 1)
    apen = phi(_fold(longer)) - phi(longer)
    chi2 = 2.0 * n * (math.log(2.0) - apen)
    return igamc(2 ** (m - 1), chi2 / 2.0), chi2


def default_serial_m(n: int) -> int:
    """Pattern length 16 at the megabit scale, shrinking with n below it."""
    if n < 2:
        return 2
    return max(2, min(16, int(math.floor(math.log2(n))) - 3))


def serial_test(bits, m: Optional[int] = None, alpha: float = ALPHA) -> TestReport:
    """Overlapping m-bit pattern uniformity (psi-square differences)."""
    b = as_bit_array(bits)
    n = len(b)
    if m is None:
        m = default_serial_m(n)
    if m < 2:
        raise ValueError(f"serial pattern length must be >= 2, got {m}")
    if m > n.bit_length() - 3:  # m > floor(log2 n) - 2, n = 0 included
        return _too_short("serial")
    p1, p2, d1 = _serial(b, m)
    return _report("serial", (p1, p2), d1, alpha, applicable=n >= 100)


def _serial(b: np.ndarray, m: int):
    """(P-value 1, P-value 2, del psi^2) of the serial test at pattern
    length m, under no length rule."""
    n = len(b)
    counts = _overlapping_pattern_counts(b, m)
    psi2 = []
    for mm in (m, m - 1, m - 2):
        c = counts.astype(float)
        psi2.append(float((c * c).sum() * (2**mm) / n - n) if mm > 0 else 0.0)
        counts = _fold(counts)

    # Both differences are >= 0 in exact arithmetic; rounding can leave
    # them a few ulps below zero, where igamc is 1 as in NIST's cephes.
    d1 = max(psi2[0] - psi2[1], 0.0)
    d2 = max(psi2[0] - 2.0 * psi2[1] + psi2[2], 0.0)
    return igamc(2 ** (m - 2), d1 / 2.0), igamc(2 ** (m - 3), d2 / 2.0), d1


def spectral_test(bits, alpha: float = ALPHA) -> TestReport:
    """Discrete Fourier peak-count test against the 95 % threshold."""
    b = as_bit_array(bits)
    n = len(b)
    if n < 2:
        return _too_short("spectral")
    x = 2.0 * b.astype(np.float64) - 1.0
    magnitudes = np.abs(np.fft.rfft(x))[: n // 2]
    threshold = math.sqrt(n * math.log(1.0 / 0.05))
    n1 = int(np.count_nonzero(magnitudes < threshold))
    n0 = 0.95 * n / 2.0
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    p = erfc(abs(d) / math.sqrt(2.0))
    return _report("spectral", (p,), d, alpha, applicable=n >= 1000)


def run_suite(bits, alpha: float = ALPHA, block_m: int = BLOCK_M, apen_m: int = APEN_M,
              serial_m: Optional[int] = None, sequence_id: str = "") -> SuiteReport:
    """Run the battery in canonical order and aggregate the verdict.

    ``alpha`` must lie in (0, 1), and each test refuses a length it can
    never use.  The cumulative-sums report carries both scan directions
    (p_values = (forward, backward), statistic = forward excursion).  A
    test the sequence is too short for, or whose pattern length is too
    long for it, reports itself not applicable, with no P-values.
    ``overall_pass`` is the conjunction over applicable tests only, and
    false when no test applies (``n_applicable`` is 0, as below 100 bits).
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    b = as_bit_array(bits)
    return SuiteReport(sequence_id=sequence_id, n_bits=len(b), alpha=alpha, tests=[
        frequency_test(b, alpha),
        block_frequency_test(b, block_m, alpha),
        runs_test(b, alpha),
        longest_run_test(b, alpha),
        cusum_test(b, alpha),
        approx_entropy_test(b, apen_m, alpha),
        serial_test(b, serial_m, alpha),
        spectral_test(b, alpha),
    ])
