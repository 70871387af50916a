"""Closed-form interferometer model against amplitude-level oracles."""

import math

import pytest

from qrngsim.optics import (
    Detector,
    DetectorBank,
    InterferometerConfig,
    OutputDistribution,
    click_distribution,
    output_distribution,
    visibility,
)

from oracles import (
    amplitude_two_photon_probs,
    classical_two_photon_probs,
    enumerate_click_probs,
    wavepacket_overlap,
)

TAU_C = 222.0


def ideal(delay=0.0, v0=1.0, tau_c=TAU_C):
    return InterferometerConfig(
        delay_fs=delay, coherence_time_fs=tau_c, visibility_ceiling=v0
    )


class TestConfigValidation:
    def test_rejects_nonpositive_coherence_time(self):
        with pytest.raises(ValueError):
            InterferometerConfig(coherence_time_fs=0.0)

    def test_rejects_out_of_range_ceiling(self):
        with pytest.raises(ValueError):
            InterferometerConfig(visibility_ceiling=-0.1)

    def test_bank_validation(self):
        with pytest.raises(ValueError):
            DetectorBank(efficiency=1.5)
        with pytest.raises(ValueError):
            DetectorBank(dark_rate_hz=-1.0)

    def test_output_distribution_must_normalize(self):
        with pytest.raises(ValueError):
            OutputDistribution(p20=0.5, p02=0.5, p11=0.5)


class TestVisibility:
    def test_zero_delay_is_unity(self):
        assert visibility(ideal(0.0)) == 1.0

    def test_gaussian_tail_vanishes(self):
        assert visibility(ideal(10.0 * TAU_C)) < 1e-43

    def test_one_coherence_time_matches_overlap_integral(self):
        # independent oracle: squared wavepacket overlap at offset tau_c
        oracle = wavepacket_overlap(TAU_C, TAU_C) ** 2
        v = visibility(ideal(TAU_C))
        assert v == pytest.approx(oracle, abs=1e-10)
        assert v == pytest.approx(0.367879, abs=5e-7)

    def test_ceiling_scales_visibility(self):
        assert visibility(ideal(0.0, v0=0.9)) == pytest.approx(0.9)


class TestOutputDistribution:
    def test_perfect_interference_suppresses_cross_arm(self):
        dist = output_distribution(ideal(0.0))
        assert (dist.p20, dist.p02, dist.p11) == (0.5, 0.5, 0.0)

    def test_distinguishable_limit_matches_classical_enumeration(self):
        oracle = classical_two_photon_probs()
        dist = output_distribution(ideal(40.0 * TAU_C))
        assert dist.p20 == pytest.approx(oracle[0], abs=1e-12)
        assert dist.p02 == pytest.approx(oracle[1], abs=1e-12)
        assert dist.p11 == pytest.approx(oracle[2], abs=1e-12)

    def test_offset_by_coherence_time_matches_amplitude_oracle(self):
        oracle = amplitude_two_photon_probs(TAU_C, TAU_C)
        dist = output_distribution(ideal(TAU_C))
        assert dist.p11 == pytest.approx(oracle[2], abs=1e-9)
        assert dist.p11 == pytest.approx(0.316060, abs=5e-7)
        assert dist.p20 == pytest.approx(0.341970, abs=5e-7)

    @pytest.mark.parametrize("delay", [0.0, 50.0, 150.0, 400.0, 2000.0])
    @pytest.mark.parametrize("v0", [0.5, 0.9, 1.0])
    def test_normalization_and_symmetry(self, delay, v0):
        dist = output_distribution(ideal(delay, v0=v0))
        assert abs(dist.p20 + dist.p02 + dist.p11 - 1.0) <= 1e-12
        assert dist.p20 == dist.p02

    def test_p11_monotone_in_visibility(self):
        delays = [0.0, 50.0, 100.0, 200.0, 400.0, 900.0]
        dists = [output_distribution(ideal(d)) for d in delays]
        p11s = [d.p11 for d in dists]
        bunched = [d.p20 + d.p02 for d in dists]
        assert p11s == sorted(p11s)  # growing delay: V falls, p11 rises
        assert bunched == sorted(bunched, reverse=True)


def prob(cd, *detectors):
    """Probability of the pattern firing exactly ``detectors``; 0 if absent."""
    return cd.get(frozenset(detectors), 0.0)


class TestClickDistribution:
    def test_perfect_state_pattern_probabilities(self):
        dist = OutputDistribution(0.5, 0.5, 0.0)
        cd = click_distribution(dist, DetectorBank(efficiency=1.0))
        assert prob(cd, Detector.D1, Detector.D2) == pytest.approx(0.25)
        assert prob(cd, Detector.D3, Detector.D4) == pytest.approx(0.25)
        for det in Detector:
            assert prob(cd, det) == pytest.approx(0.125)
        for d_a in (Detector.D1, Detector.D2):
            for d_b in (Detector.D3, Detector.D4):
                assert prob(cd, d_a, d_b) == 0.0

    def test_mixed_state_cross_patterns(self):
        dist = OutputDistribution(0.25, 0.25, 0.5)
        cd = click_distribution(dist, DetectorBank(efficiency=1.0))
        for d_a in (Detector.D1, Detector.D2):
            for d_b in (Detector.D3, Detector.D4):
                assert prob(cd, d_a, d_b) == pytest.approx(0.125)

    def test_zero_efficiency_never_clicks(self):
        dist = OutputDistribution(0.25, 0.25, 0.5)
        cd = click_distribution(dist, DetectorBank(efficiency=0.0))
        assert prob(cd) == pytest.approx(1.0)

    @pytest.mark.parametrize("eta", [0.05, 0.3, 0.6, 0.85, 1.0])
    @pytest.mark.parametrize("delay", [0.0, 100.0, 250.0, 600.0])
    def test_matches_exhaustive_enumeration(self, eta, delay):
        dist = output_distribution(ideal(delay))
        oracle = enumerate_click_probs(dist.p20, dist.p02, dist.p11, eta)
        cd = click_distribution(dist, DetectorBank(efficiency=eta))
        patterns = set(oracle) | {frozenset(int(d) for d in p) for p in cd}
        for pattern in patterns:
            want = oracle.get(pattern, 0.0)
            got = prob(cd, *pattern)
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("target_v", [0.25, 0.5, 0.75, 1.0])
    def test_amplitude_oracle_equivalence(self, target_v):
        # pick the delay whose squared overlap equals the target visibility
        delay = TAU_C * math.sqrt(-math.log(target_v)) if target_v < 1.0 else 0.0
        p20, p02, p11 = amplitude_two_photon_probs(delay, TAU_C)
        for eta in (0.4, 1.0):
            oracle = enumerate_click_probs(p20, p02, p11, eta)
            cd = click_distribution(
                output_distribution(ideal(delay)), DetectorBank(efficiency=eta)
            )
            for pattern, want in oracle.items():
                got = prob(cd, *pattern)
                assert got == pytest.approx(want, abs=1e-9)

    def test_distinguishable_oracle_equivalence(self):
        p20, p02, p11 = classical_two_photon_probs()
        oracle = enumerate_click_probs(p20, p02, p11, 0.7)
        cd = click_distribution(
            output_distribution(ideal(7.0 * TAU_C)), DetectorBank(efficiency=0.7)
        )
        for pattern, want in oracle.items():
            got = prob(cd, *pattern)
            assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("eta", [0.2, 0.7, 1.0])
    @pytest.mark.parametrize("delay", [0.0, 123.0, 456.0])
    @pytest.mark.parametrize("v0", [0.8, 1.0])
    def test_normalization_grid(self, eta, delay, v0):
        cd = click_distribution(
            output_distribution(ideal(delay, v0=v0)), DetectorBank(efficiency=eta)
        )
        assert abs(sum(cd.values()) - 1.0) <= 1e-12

    def test_within_arm_label_exchange_symmetry(self):
        cd = click_distribution(
            output_distribution(ideal(137.0)), DetectorBank(efficiency=0.63)
        )
        swap = {
            Detector.D1: Detector.D2,
            Detector.D2: Detector.D1,
            Detector.D3: Detector.D4,
            Detector.D4: Detector.D3,
        }
        for pattern in cd:
            mirrored = frozenset(swap[d] for d in pattern)
            assert cd[pattern] == pytest.approx(cd[mirrored], abs=1e-15)

    # simulate numbers the patterns in this order, so every golden digest
    # depends on it: by size, then detector indices
    SINGLES = [(), (0,), (1,), (2,), (3,)]
    BUNCHED = SINGLES + [(0, 1), (2, 3)]
    MIXED = SINGLES + [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    @pytest.mark.parametrize(
        "delay, eta, order",
        [
            (0.0, 1.0, BUNCHED),   # V = 1: no cross-arm pattern
            (150.0, 1.0, MIXED),   # V < 1
            (0.0, 0.6, BUNCHED),   # eta < 1, V = 1
            (150.0, 0.6, MIXED),   # eta < 1, V < 1
        ],
    )
    def test_iteration_order_is_size_then_detector_indices(self, delay, eta, order):
        cd = click_distribution(
            output_distribution(ideal(delay)), DetectorBank(efficiency=eta)
        )
        assert [tuple(sorted(int(d) for d in p)) for p in cd] == order

    # OutputDistribution checks itself; bypass that to reach the checks on
    # the click patterns: a sum past 1, and a negative pattern at sum 1
    @pytest.mark.parametrize(
        "p20, p02, p11, message",
        [(0.5, 0.5, 0.5, "sum to"), (-0.5, 0.5, 1.0, "negative")],
    )
    def test_rejects_patterns_that_are_not_a_distribution(self, p20, p02, p11, message):
        dist = object.__new__(OutputDistribution)
        for name, value in (("p20", p20), ("p02", p02), ("p11", p11)):
            object.__setattr__(dist, name, value)
        with pytest.raises(ValueError, match=message):
            click_distribution(dist, DetectorBank())
