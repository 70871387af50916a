"""SP 800-22 battery against closed-form and brute-force oracles."""

import itertools
import json
import math

import numpy as np
import pytest

from qrngsim.bitpipe import BitStream
from qrngsim.statskit import (
    approx_entropy_test,
    as_bit_array,
    block_frequency_test,
    cusum_test,
    default_serial_m,
    frequency_test,
    longest_run_test,
    run_suite,
    runs_test,
    serial_test,
    spectral_test,
)
from qrngsim.statskit.special import igamc
from qrngsim.statskit.sp800_22 import (
    _approx_entropy,
    _fold,
    _overlapping_pattern_counts,
    _serial,
)

from oracles import (
    bit_array,
    cusum_pvalue_reference,
    direct_dft_magnitudes,
    erfc_quadrature,
    igamc_quadrature,
    longest_run_reference,
    wrapped_pattern_counts,
)


def fair_bits(n, seed):
    return np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8)


def assert_too_short(report, name):
    """The blank report of a test the sequence is too short to compute."""
    assert report.name == name
    assert report.p_values == ()
    assert report.statistic == 0.0
    assert not report.passed
    assert not report.applicable


class TestFrequency:
    def test_worked_example(self):
        report = frequency_test(bit_array("11010"))
        assert report.p_values[0] == pytest.approx(0.654721, abs=5e-7)
        assert report.p_values[0] == pytest.approx(
            erfc_quadrature(1.0 / math.sqrt(10.0)), rel=1e-12
        )
        assert not report.applicable  # n < 100

    def test_alternating_is_perfectly_balanced(self):
        report = frequency_test(bit_array("10" * 200))
        assert report.p_values[0] == 1.0
        assert report.applicable and report.passed

    def test_all_zeros_fails(self):
        report = frequency_test(bit_array("0" * 100))
        want = erfc_quadrature(100.0 / math.sqrt(200.0))
        assert report.p_values[0] == pytest.approx(want, rel=1e-9, abs=1e-30)
        assert report.p_values[0] < 2e-23
        assert not report.passed

    def test_empty_is_not_applicable(self):
        assert_too_short(frequency_test(bit_array("")), "frequency")


class TestBlockFrequency:
    def test_worked_example(self):
        report = block_frequency_test(bit_array("0110011010"), m=3)
        assert report.statistic == pytest.approx(1.0)
        assert report.p_values[0] == pytest.approx(0.801252, abs=5e-7)
        assert report.p_values[0] == pytest.approx(igamc_quadrature(1.5, 0.5), rel=1e-10)

    def test_perfectly_balanced_blocks(self):
        report = block_frequency_test(bit_array("0101" * 64), m=4)
        assert report.statistic == 0.0
        assert report.p_values[0] == 1.0

    def test_all_ones_example(self):
        report = block_frequency_test(bit_array("1" * 12), m=3)
        assert report.statistic == pytest.approx(12.0)
        assert report.p_values[0] == pytest.approx(0.017351, abs=5e-7)
        assert report.p_values[0] == pytest.approx(7.0 * math.exp(-6.0), rel=1e-10)

    def test_invalid_block_length(self):
        with pytest.raises(ValueError):
            block_frequency_test(bit_array("0101"), m=0)
        # no whole block: too short, not a bad parameter
        assert_too_short(block_frequency_test(bit_array("0101"), m=10), "block_frequency")


class TestRuns:
    def test_worked_example(self):
        report = runs_test(bit_array("1001101011"))
        assert report.statistic == 7.0
        assert report.p_values[0] == pytest.approx(0.147232, abs=5e-7)

    def test_constant_sequence_not_applicable(self):
        report = runs_test(bit_array("1" * 256))
        assert not report.applicable
        assert report.p_values == ()

    # below 16 bits the frequency pre-test cannot fire, and pi = 0 or 1
    # would divide by zero
    @pytest.mark.parametrize("bits", ["0", "1", "0" * 15, "1" * 15])
    def test_short_constant_sequence_not_applicable(self, bits):
        report = runs_test(bit_array(bits))
        assert not report.applicable
        assert report.p_values == ()

    def test_alternating_fails(self):
        report = runs_test(bit_array("10" * 50))
        want = erfc_quadrature(50.0 / (2.0 * math.sqrt(200.0) * 0.25))
        assert report.p_values[0] == pytest.approx(want, rel=1e-9, abs=1e-40)
        assert report.p_values[0] < 1e-21
        assert not report.passed


class TestLongestRun:
    def test_too_short(self):
        assert_too_short(longest_run_test(bit_array("1" * 127)), "longest_run")

    def test_all_zeros_matches_brute_force(self):
        report = longest_run_test(bit_array("0" * 128))
        want = longest_run_reference(
            "0" * 128, 8, (1, 2, 3, 4), (0.21484375, 0.3671875, 0.23046875, 0.1875)
        )
        assert report.p_values[0] == pytest.approx(want, rel=1e-9)
        assert not report.passed

    def test_all_ones_lands_in_top_category_and_fails(self):
        report = longest_run_test(bit_array("1" * 128))
        want = longest_run_reference(
            "1" * 128, 8, (1, 2, 3, 4), (0.21484375, 0.3671875, 0.23046875, 0.1875)
        )
        assert report.p_values[0] == pytest.approx(want, rel=1e-9)
        assert report.p_values[0] < 0.01

    def test_block_order_invariance(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, 1024, dtype=np.uint8)
        base = longest_run_test(bits).p_values[0]
        blocks = bits.reshape(-1, 8)
        shuffled = blocks[rng.permutation(len(blocks))].ravel()
        assert longest_run_test(shuffled).p_values[0] == pytest.approx(base, rel=1e-12)

    def test_random_input_against_brute_force(self):
        bits = fair_bits(4096, seed=9)
        text = "".join(str(b) for b in bits)
        report = longest_run_test(bits)
        want = longest_run_reference(
            text,
            8,
            (1, 2, 3, 4),
            (0.21484375, 0.3671875, 0.23046875, 0.1875),
        )
        assert report.p_values[0] == pytest.approx(want, rel=1e-9)


class TestCusum:
    def test_alternating_is_near_one(self):
        report = cusum_test(bit_array("10" * 5000))
        assert report.statistic == 1.0
        assert report.p_values == pytest.approx((1.0, 1.0), abs=1e-9)

    def test_constant_fails_hard(self):
        report = cusum_test(bit_array("1" * 100))
        want = cusum_pvalue_reference(100, 100)
        assert report.p_values == pytest.approx((want, want), rel=1e-8, abs=1e-30)
        assert max(report.p_values) < 1e-20

    def test_palindrome_modes_agree(self):
        text = "0110011001100110"[::-1] + "0110011001100110"  # its own reversal
        assert text == text[::-1]
        fwd, bwd = cusum_test(bit_array(text)).p_values
        assert fwd == pytest.approx(bwd, rel=1e-14)

    def test_formula_against_quadrature_phi(self):
        bits = fair_bits(2000, seed=3)
        report = cusum_test(bits)
        z = int(report.statistic)
        assert report.p_values[0] == pytest.approx(
            cusum_pvalue_reference(z, 2000), rel=1e-9
        )

    # the backward scan of b is the forward scan of b reversed
    @pytest.mark.parametrize("n, bias", [(1, 0.5), (2, 0.0), (37, 1.0), (999, 0.5), (4096, 0.7)])
    def test_reversal_swaps_directions(self, n, bias):
        bits = (np.random.default_rng(n).random(n) < bias).astype(np.uint8)
        report = cusum_test(bits)
        assert cusum_test(bits[::-1].copy()).p_values == report.p_values[::-1]
        # each direction's excursion, walked in Python integers
        excursions = [max(abs(s) for s in itertools.accumulate(2 * bit - 1 for bit in walk))
                      for walk in (bits.tolist(), bits[::-1].tolist())]
        assert report.statistic == excursions[0]
        for got, z in zip(report.p_values, excursions):
            assert got == pytest.approx(cusum_pvalue_reference(z, n), rel=1e-9, abs=1e-30)


class TestApproxEntropy:
    def test_pattern_counts_sum_to_n(self):
        bits = fair_bits(999, seed=11)
        for m in (1, 2, 3, 7):
            assert _overlapping_pattern_counts(bits, m).sum() == 999

    def test_pattern_counts_match_wrapped_window_oracle(self):
        # for the short sequences m passes n, so the windows wrap many times
        for n in range(1, 40):
            bits = fair_bits(n, seed=n)
            for m in range(1, 20):
                counts = _overlapping_pattern_counts(bits, m)
                assert len(counts) == 2**m
                got = {int(c): int(counts[c]) for c in np.flatnonzero(counts)}
                assert got == wrapped_pattern_counts(bits.tolist(), m), (n, m)

    # approximate entropy counts the (m+1)-bit windows and folds them to m
    @pytest.mark.parametrize("n, m", [(9, 2), (40, 1), (40, 4), (1001, 7)])
    def test_folded_counts_match_wrapped_window_oracle(self, n, m):
        bits = fair_bits(n, seed=n + m)
        longer = _overlapping_pattern_counts(bits, m + 1)
        for counts, mm in ((longer, m + 1), (_fold(longer), m)):
            assert len(counts) == 2**mm
            got = {int(c): int(counts[c]) for c in np.flatnonzero(counts)}
            assert got == wrapped_pattern_counts(bits.tolist(), mm), (n, mm)

    def test_constant_sequence_fails(self):
        n = 200
        report = approx_entropy_test(bit_array("1" * n), m=2)
        assert report.statistic == pytest.approx(2.0 * n * math.log(2.0), rel=1e-12)
        want = igamc_quadrature(2.0, n * math.log(2.0))
        assert report.p_values[0] == pytest.approx(want, rel=1e-8, abs=1e-70)
        assert not report.passed

    def test_alternating_m1_is_deterministic(self):
        # balanced single bits, fully determined two-bit patterns
        report = approx_entropy_test(bit_array("10" * 100), m=1)
        assert report.statistic == pytest.approx(2.0 * 200 * math.log(2.0), rel=1e-12)
        assert report.p_values[0] < 1e-50

    def test_invalid_pattern_length(self):
        with pytest.raises(ValueError):
            approx_entropy_test(bit_array("0101"), m=0)


class TestSerial:
    def test_m2_reduces_to_frequency_statistic(self):
        bits = fair_bits(4000, seed=21)
        counts1 = _overlapping_pattern_counts(bits, 1).astype(float)
        psi1 = float((counts1**2).sum() * 2.0 / 4000 - 4000)
        s = 2.0 * counts1[1] - 4000
        assert psi1 == pytest.approx(s * s / 4000, rel=1e-9)

    def test_constant_sequence_fails(self):
        report = serial_test(bit_array("1" * 200), m=3)
        assert report.statistic == pytest.approx(800.0)
        assert max(report.p_values) < 1e-80
        assert not report.passed

    def test_worked_constant_values(self):
        report = serial_test(bit_array("1" * 200), m=3)
        assert report.p_values[0] == pytest.approx(
            igamc_quadrature(2.0, 400.0), rel=1e-6, abs=1e-180
        )
        assert report.p_values[1] == pytest.approx(
            igamc_quadrature(1.0, 200.0), rel=1e-6, abs=1e-95
        )

    # n below m wraps the windows more than once; (5, 7) and (70000, 16)
    # have m above floor(log2 n) - 2, so serial_test reports them blank
    @pytest.mark.parametrize("n, m", [(4000, 2), (4000, 3), (999, 5), (70_000, 16), (5, 7)])
    def test_matches_separately_counted_patterns(self, n, m):
        # the m-bit counts, shortened by summing neighbours, against the m-1
        # and m-2 bit counts built from the bits
        bits = fair_bits(n, seed=n + m)
        counts = _overlapping_pattern_counts(bits, m)
        for mm in (m - 1, m - 2):
            counts = _fold(counts)
            assert np.array_equal(counts, _overlapping_pattern_counts(bits, mm))
        report = serial_test(bits, m=m)
        if m > math.floor(math.log2(n)) - 2:
            assert_too_short(report, "serial")
            return

        def psi2(mm):
            if mm == 0:
                return 0.0
            counts = _overlapping_pattern_counts(bits, mm).astype(float)
            return float((counts * counts).sum() * (2**mm) / n - n)

        d1 = psi2(m) - psi2(m - 1)
        d2 = psi2(m) - 2.0 * psi2(m - 1) + psi2(m - 2)
        assert report.statistic == d1
        assert report.p_values == (igamc(2 ** (m - 2), d1 / 2.0), igamc(2 ** (m - 3), d2 / 2.0))

    # second psi-square differences that are 0 in exact arithmetic but come
    # out -3.6e-15 in floating point
    @pytest.mark.parametrize("bits", ["101010000011010110000011",
                                      "1101000110111001100101110011"])
    def test_rounding_negative_difference_gives_p_one(self, bits):
        report = serial_test(bit_array(bits))
        assert report.p_values[1] == 1.0
        assert report.p_values[0] == igamc(2 ** (default_serial_m(len(bits)) - 2),
                                           report.statistic / 2.0)

    def test_default_pattern_length_scales(self):
        assert default_serial_m(10**6) == 16
        assert default_serial_m(10**5) == 13
        assert default_serial_m(1000) == 6
        assert default_serial_m(10) == 2

    def test_invalid_pattern_length(self):
        with pytest.raises(ValueError):
            serial_test(bit_array("0101"), m=1)

    # a pattern length past floor(log2 n) - 2 (serial) or with 2^(m+1) at or
    # above n (approximate entropy) gives the blank report before any
    # 2^m-entry table is built, so m = 40 costs no memory
    @pytest.mark.parametrize("n, serial_m, apen_m", [
        (1000, 8, 9), (1000, 20, 20), (1000, 40, 40), (16, 3, 3), (10**5, 40, 40),
    ])
    def test_pattern_length_too_long_is_blank(self, n, serial_m, apen_m):
        bits = fair_bits(n, seed=n)
        assert_too_short(serial_test(bits, m=serial_m), "serial")
        assert_too_short(approx_entropy_test(bits, m=apen_m), "approximate_entropy")
        # one bit shorter fits
        assert serial_test(bits, m=n.bit_length() - 3).p_values
        assert approx_entropy_test(bits, m=(n - 1).bit_length() - 2).p_values


class TestSpectral:
    def test_alternating_fails_with_known_statistic(self):
        report = spectral_test(bit_array("10" * 500))
        assert report.statistic == pytest.approx(7.2547625011, rel=1e-9)
        assert report.p_values[0] == pytest.approx(4.0236721907e-13, rel=1e-8)
        assert not report.passed

    def test_against_direct_dft(self):
        bits = fair_bits(512, seed=33)
        x = 2.0 * bits - 1.0
        mags = direct_dft_magnitudes(x)[:256]
        threshold = math.sqrt(512 * math.log(1.0 / 0.05))
        n1 = int((mags < threshold).sum())
        d = (n1 - 0.475 * 512) / math.sqrt(512 * 0.95 * 0.05 / 4.0)
        want = erfc_quadrature(abs(d) / math.sqrt(2.0))
        report = spectral_test(bits)
        assert report.statistic == pytest.approx(d, rel=1e-12)
        assert report.p_values[0] == pytest.approx(want, rel=1e-10)

    def test_complement_invariance(self):
        bits = fair_bits(2048, seed=4)
        a = spectral_test(bits).p_values[0]
        b = spectral_test(1 - bits).p_values[0]
        assert a == pytest.approx(b, rel=1e-12)

    def test_too_short(self):
        assert_too_short(spectral_test(bit_array("1")), "spectral")


class TestComplementSymmetry:
    @pytest.mark.parametrize(
        "runner",
        [
            lambda b: frequency_test(b),
            lambda b: runs_test(b),
            lambda b: approx_entropy_test(b, m=2),
            lambda b: serial_test(b, m=5),
            lambda b: spectral_test(b),
        ],
        ids=["frequency", "runs", "approx_entropy", "serial", "spectral"],
    )
    def test_p_values_invariant_under_complement(self, runner):
        bits = fair_bits(4096, seed=17)
        a = runner(bits)
        b = runner(1 - bits)
        assert a.p_values == pytest.approx(b.p_values, rel=1e-10)


class TestSensitivity:
    def test_constant_fails_frequency_runs_apen(self):
        bits = bit_array("0" * 2048)
        assert not frequency_test(bits).passed
        assert not runs_test(bits).applicable
        assert not approx_entropy_test(bits).passed

    def test_periodic_fails_spectral_and_serial(self):
        bits = bit_array("10" * 2048)
        assert not spectral_test(bits).passed
        assert not serial_test(bits, m=4).passed

    def test_blockwise_skew_fails_block_frequency(self):
        bits = bit_array(("1" * 128 + "0" * 128) * 16)
        assert not block_frequency_test(bits, m=128).passed


# the first 100 bits of pi's binary expansion, the standard's epsilon in
# its section 2.x.8 examples, and the 128-bit epsilon of section 2.4.8
EPSILON_PI = ("1100100100001111110110101010001000100001011010001100001000110100"
              "110001001100011001100010100010111000")
EPSILON_LONGEST_RUN = ("1100110000010101011011000100110011100000000000100100110101010001"
                       "0001001111010110100000001101011111001100111001101101100010110010")


class TestWorkedExamples:
    def test_epsilon_pi_is_pi(self):
        # floor(pi * 2^98) by Machin's formula in integers, 40 guard bits
        def arctan_inverse(x, one):
            total, term, k, sign = 0, one // x, 1, 1
            while term:
                total += sign * (term // k)
                term //= x * x
                k, sign = k + 2, -sign
            return total

        one = 1 << (98 + 40)
        pi = (16 * arctan_inverse(5, one) - 4 * arctan_inverse(239, one)) >> 40
        assert f"{pi:b}" == EPSILON_PI

    # SP 800-22 Rev. 1a's worked examples; spectral's are pinned below
    @pytest.mark.parametrize("test, epsilon, p_values", [
        (frequency_test, EPSILON_PI, [0.109599]),
        (lambda bits: block_frequency_test(bits, m=10), EPSILON_PI, [0.706438]),
        (runs_test, EPSILON_PI, [0.500798]),
        (longest_run_test, EPSILON_LONGEST_RUN, [0.180609]),
        (cusum_test, EPSILON_PI, [0.219194, 0.114866]),
        (cusum_test, "1011010111", [0.411659, 0.411659]),
        (lambda bits: approx_entropy_test(bits, m=2), EPSILON_PI, [0.235301]),
    ], ids=["frequency", "block_frequency", "runs", "longest_run", "cusum-pi",
            "cusum-10-bits", "approximate_entropy"])
    def test_standard_example(self, test, epsilon, p_values):
        assert test(bit_array(epsilon)).p_values == pytest.approx(p_values, abs=5e-7)

    # The spectral examples, with the peak count N1 taken from the O(n^2)
    # DFT below T = sqrt(ln(1/0.05) n), and P from that N1.  The counts
    # recalled from the standard's text, N1 = 4 and 46, are out of this T's
    # reach, so spectral_test is not bent toward them: the five
    # magnitudes of 1001010011 (0, 2, 4.47, 2, 4.47) all lie below T = 5.47,
    # and for epsilon_pi N1 = 46 would need T in (16.43, 16.81], where this
    # T is 17.31 and the older sqrt(3 n) is 17.32.
    @pytest.mark.parametrize("epsilon, n1, p_value", [
        ("1001010011", 5, 0.468160),
        (EPSILON_PI, 48, 0.646355),
    ], ids=["spectral-10-bits", "spectral-pi"])
    def test_spectral_example(self, epsilon, n1, p_value):
        bits = bit_array(epsilon)
        n = len(bits)
        magnitudes = direct_dft_magnitudes(2.0 * bits - 1.0)[: n // 2]
        assert np.count_nonzero(magnitudes < math.sqrt(math.log(1.0 / 0.05) * n)) == n1
        d = (n1 - 0.95 * n / 2.0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
        assert math.erfc(abs(d) / math.sqrt(2.0)) == pytest.approx(p_value, abs=5e-7)
        assert spectral_test(bits).p_values == pytest.approx([p_value], abs=5e-7)

    # two 10-bit examples sit below the tests' length rules (n <= 2^(m+1)
    # and m > floor(log2 n) - 2), so they check the arithmetic that each
    # test runs once its rule passes, and the rules still blank them
    @pytest.mark.parametrize("test, statistic, epsilon, p_values", [
        (approx_entropy_test, lambda bits, m: _approx_entropy(bits, m)[:1],
         "0100110101", [0.261961]),
        (serial_test, lambda bits, m: _serial(bits, m)[:2], "0011011101", [0.808792, 0.670320]),
    ], ids=["approximate_entropy-10-bits", "serial-10-bits"])
    def test_standard_example_below_the_length_rule(self, test, statistic, epsilon, p_values):
        bits = bit_array(epsilon)
        assert not test(bits, m=3).p_values
        assert statistic(bits, 3) == pytest.approx(p_values, abs=5e-7)


class TestSuiteRunner:
    def test_canonical_order_and_overall_pass(self):
        report = run_suite(fair_bits(20000, seed=2))
        names = [t.name for t in report.tests]
        assert names == [
            "frequency",
            "block_frequency",
            "runs",
            "longest_run",
            "cumulative_sums",
            "approximate_entropy",
            "serial",
            "spectral",
        ]
        assert report.overall_pass
        assert report.n_bits == 20000

    def test_biased_stream_fails_frequency(self):
        rng = np.random.default_rng(8)
        bits = (rng.random(100_000) < 0.6).astype(np.uint8)
        report = run_suite(bits)
        by_name = {t.name: t for t in report.tests}
        assert not by_name["frequency"].passed
        assert not report.overall_pass

    def test_cumulative_sums_carries_both_directions(self):
        report = run_suite(fair_bits(5000, seed=13))
        by_name = {t.name: t for t in report.tests}
        assert len(by_name["cumulative_sums"].p_values) == 2
        assert len(by_name["serial"].p_values) == 2

    def test_short_input_marks_tests_not_applicable_without_crashing(self):
        report = run_suite(bit_array("1010011"))
        by_name = {t.name: t for t in report.tests}
        assert not by_name["longest_run"].applicable
        assert by_name["longest_run"].p_values == ()
        assert not by_name["block_frequency"].applicable

    # every test the sequence is too short to compute reports itself blank
    @pytest.mark.parametrize("n, names", [
        (0, ["frequency", "block_frequency", "runs", "longest_run", "cumulative_sums",
             "approximate_entropy", "serial", "spectral"]),
        (1, ["block_frequency", "longest_run", "approximate_entropy", "serial", "spectral"]),
        (99, ["block_frequency", "longest_run"]),
        (127, ["block_frequency", "longest_run"]),
    ])
    def test_too_short_reports_are_blank(self, n, names):
        by_name = {t.name: t for t in run_suite(fair_bits(n, seed=n)).tests}
        for name in names:
            assert_too_short(by_name[name], name)

    # a suite on which no test applies is not a pass; from 100 bits the
    # frequency test applies whatever the configuration
    @pytest.mark.parametrize("n", [0, 1, 99])
    def test_no_applicable_test_is_no_pass(self, n):
        report = run_suite(fair_bits(n, seed=n))
        assert report.n_applicable == 0
        assert not report.overall_pass

    def test_hundred_bits_are_tested(self):
        report = run_suite(fair_bits(100, seed=100))
        applicable = [t for t in report.tests if t.applicable]
        assert report.n_applicable == len(applicable) > 0
        assert applicable[0].name == "frequency"
        assert report.overall_pass == all(t.passed for t in applicable)

    def test_fuzz_corpus_p_values_stay_in_range(self):
        rng = np.random.default_rng(123)
        for _ in range(60):
            n = int(rng.integers(1, 10_000))
            bias = rng.uniform(0.05, 0.95)
            bits = (rng.random(n) < bias).astype(np.uint8)
            report = run_suite(bits)
            for t in report.tests:
                for p in t.p_values:
                    assert 0.0 <= p <= 1.0

    def test_json_schema_and_key_order(self):
        report = run_suite(fair_bits(4096, seed=1), sequence_id="seq-a")
        payload = json.loads(report.to_json())
        assert list(payload) == [
            "sequence_id",
            "n_bits",
            "alpha",
            "tests",
            "overall_pass",
        ]
        assert list(payload["tests"][0]) == [
            "name",
            "p_values",
            "statistic",
            "passed",
            "applicable",
        ]
        # byte-stable serialization
        again = run_suite(fair_bits(4096, seed=1), sequence_id="seq-a")
        assert report.to_json() == again.to_json()

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="alpha must lie in"):
            run_suite(fair_bits(100, seed=1), alpha=0.0)

    # each length goes to its own test, which refuses it; the ids name the
    # lengths in full
    @pytest.mark.parametrize("field, value", [
        ("block_frequency_m", 0), ("block_frequency_m", -5), ("approx_entropy_m", 0),
        ("serial_m", 1), ("serial_m", 0),
    ])
    def test_lengths_no_test_can_use_are_refused(self, field, value):
        keyword = {"block_frequency_m": "block_m", "approx_entropy_m": "apen_m",
                   "serial_m": "serial_m"}[field]
        bits = fair_bits(1000, seed=5)
        with pytest.raises(ValueError, match="length must be >= "):
            run_suite(bits, **{keyword: value})
        run_suite(bits, block_m=1, apen_m=1, serial_m=2)

    def test_alpha_plumbing_at_half(self):
        # at alpha = 0.5 on fair input, about half of all P-values sit
        # below the bar, so pass flags must track the configured level
        p_values = []
        for seed in range(40):
            report = run_suite(fair_bits(20_000, seed=1000 + seed), alpha=0.5)
            for t in report.tests:
                if t.applicable:
                    p_values.extend(t.p_values)
                    assert t.passed == (min(t.p_values) >= 0.5)
        below = sum(p < 0.5 for p in p_values) / len(p_values)
        assert abs(below - 0.5) < 4.0 * math.sqrt(0.25 / len(p_values))

    def test_as_bit_array_passes_a_bit_array_through(self):
        bits = bit_array("10011")
        assert as_bit_array(bits) is bits

    # text, lists, other dtypes and shapes are the caller's to convert
    @pytest.mark.parametrize(
        "bad",
        ["10011", [1, 0, 0, 1, 1], np.array([1, 0, 1], dtype=np.int64),
         np.array([True, False]), np.zeros((2, 2), dtype=np.uint8),
         np.array([0, 2], dtype=np.uint8)],
        ids=["str", "list", "int64", "bool", "2-D", "digit-2"],
    )
    def test_as_bit_array_refuses_anything_but_flat_uint8_bits(self, bad):
        for check in (as_bit_array, BitStream):
            with pytest.raises(ValueError):
                check(bad)
