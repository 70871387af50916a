"""Monte Carlo event chain: emission, pairing, monitoring, scanning."""

import hashlib
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from qrngsim.optics import (
    Detector,
    DetectorBank,
    InterferometerConfig,
    click_distribution,
    output_distribution,
)
from qrngsim.timetag import (
    CROSS_ARM_LABELS,
    MAX_DURATION_PS,
    MAX_JITTER_SIGMA_PS,
    EventStream,
    MonitorAlarm,
    PairLabel,
    SourceConfig,
    TimingConfig,
    _dead_time_filter,
    coincidence_filter,
    draw_patterns,
    fan_out,
    fit_dip_visibility,
    label_counts,
    point_seed,
    purity_monitor,
    scan_delay,
    scan_workers,
    simulate,
    synthetic_coincidences,
    write_events_csv,
    write_scan_csv,
)

from oracles import (
    curve_fit_dip,
    reference_dead_time_keep,
    reference_events_csv,
    reference_greedy_pairs,
    reference_simulate,
)

INT64_MAX = np.iinfo(np.int64).max

IDEAL = InterferometerConfig()
BANK = DetectorBank()
NO_NOISE = TimingConfig(jitter_sigma_ps=0.0, dead_time_ns=0.0)


def events(*pairs):
    return EventStream(np.array([t for _, t in pairs], dtype=np.int64),
                       np.array([d for d, _ in pairs], dtype=np.int8))


def labels_at(stream):
    """(label, time) per coincidence, as plain Python values."""
    return list(zip(map(PairLabel, stream.labels.tolist()), stream.times_ps.tolist()))


class TestConfigs:
    def test_source_validation(self):
        with pytest.raises(ValueError, match="pair_rate_hz must be >= 0"):
            SourceConfig(pair_rate_hz=-1.0, duration_s=1.0)
        with pytest.raises(ValueError, match="duration_s must be > 0"):
            SourceConfig(pair_rate_hz=1.0, duration_s=0.0)

    def test_duration_cap(self):
        # INT64_MAX // 2 ps (about 4.6e6 s) leaves int64 headroom for the
        # jitter tail and the dead time; a run must also last 1 ps
        assert MAX_DURATION_PS == INT64_MAX // 2 == 4_611_686_018_427_387_903
        SourceConfig(pair_rate_hz=0.0, duration_s=4_611_686.0)
        SourceConfig(pair_rate_hz=0.0, duration_s=1e-12)
        for duration_s in (4_611_687.0, 1e7, 4e-13):
            with pytest.raises(ValueError, match="duration_s must lie in"):
                SourceConfig(pair_rate_hz=0.0, duration_s=duration_s)
            with pytest.raises(ValueError, match="duration_s must lie in"):
                synthetic_coincidences(0.0, duration_s)

    def test_timing_validation(self):
        with pytest.raises(ValueError):
            TimingConfig(coincidence_window_ns=0.0)
        with pytest.raises(ValueError):
            TimingConfig(jitter_sigma_ps=-1.0)
        for field in ("jitter_sigma_ps", "dead_time_ns", "coincidence_window_ns"):
            for value in (math.inf, -math.inf, math.nan):
                with pytest.raises(ValueError, match=field):
                    TimingConfig(**{field: value})

    def test_jitter_cap(self):
        # one second, far inside the int64 headroom of the duration cap
        assert MAX_JITTER_SIGMA_PS == 1e12
        assert 50 * MAX_JITTER_SIGMA_PS < INT64_MAX - MAX_DURATION_PS
        TimingConfig(jitter_sigma_ps=MAX_JITTER_SIGMA_PS)
        for sigma in (1.000001e12, 1e30):
            with pytest.raises(ValueError, match="jitter_sigma_ps"):
                TimingConfig(jitter_sigma_ps=sigma)

    def test_window_quantization(self):
        assert TimingConfig(coincidence_window_ns=3.0).window_ps == 3000
        assert TimingConfig(dead_time_ns=50.0).dead_time_ps == 50_000

    def test_window_rounding_to_zero_ps_rejected(self):
        # the window is used in whole ps; 0.5 ps rounds to 0 as well
        for window_ns in (0.0004, 0.0005, 1e-300):
            with pytest.raises(ValueError, match="coincidence_window_ns"):
                TimingConfig(coincidence_window_ns=window_ns)
        assert TimingConfig(coincidence_window_ns=0.001).window_ps == 1

    def test_values_past_the_float_range_in_ps_rejected(self):
        # finite in ns, infinite once multiplied to ps
        for field in ("coincidence_window_ns", "dead_time_ns"):
            with pytest.raises(ValueError, match=field):
                TimingConfig(**{field: 1e306})
        assert TimingConfig(dead_time_ns=1e300).dead_time_ps == round(1e303)


class TestSimulate:
    def test_silent_source_produces_nothing(self):
        src = SourceConfig(pair_rate_hz=0.0, duration_s=1.0, seed=1)
        assert len(simulate(src, IDEAL, BANK, NO_NOISE)) == 0

    def test_deterministic_replay(self):
        src = SourceConfig(pair_rate_hz=2000.0, duration_s=5.0, seed=42)
        a = simulate(src, IDEAL, BANK, TimingConfig())
        b = simulate(src, IDEAL, BANK, TimingConfig())
        assert a.times_ps.tobytes() == b.times_ps.tobytes()
        assert a.detectors.tobytes() == b.detectors.tobytes()

    def test_seed_changes_stream(self):
        src_a = SourceConfig(pair_rate_hz=2000.0, duration_s=5.0, seed=42)
        src_b = SourceConfig(pair_rate_hz=2000.0, duration_s=5.0, seed=43)
        a = simulate(src_a, IDEAL, BANK, TimingConfig())
        b = simulate(src_b, IDEAL, BANK, TimingConfig())
        assert a.times_ps.tobytes() != b.times_ps.tobytes()

    def test_mean_click_budget_per_pair(self):
        # perfect state: 2 clicks for bunched-split outcomes (1/2 total),
        # 1 click when the bunch lands on one detector -> 1.5 clicks/pair
        src = SourceConfig(pair_rate_hz=1000.0, duration_s=100.0, seed=7)
        stream = simulate(src, IDEAL, BANK, NO_NOISE)
        expect = 150_000.0
        assert abs(len(stream) - expect) < 3.0 * math.sqrt(expect)

    def test_output_is_time_sorted_and_in_range(self):
        src = SourceConfig(pair_rate_hz=5000.0, duration_s=2.0, seed=3)
        stream = simulate(src, IDEAL, BANK, TimingConfig())
        assert np.all(np.diff(stream.times_ps) >= 0)
        assert stream.times_ps[0] >= 0
        assert stream.times_ps[-1] < 2 * 10**12

    def test_equal_times_keep_detector_order(self):
        # without jitter both clicks of a two-click pattern fall on the same
        # picosecond, so the merge must order each tie by detector
        src = SourceConfig(pair_rate_hz=5000.0, duration_s=2.0, seed=9)
        stream = simulate(src, IDEAL, BANK, NO_NOISE)
        tied = np.flatnonzero(np.diff(stream.times_ps) == 0)
        assert len(tied) > 1000
        assert np.all(stream.detectors[tied] != stream.detectors[tied + 1])
        order = np.lexsort((stream.detectors, stream.times_ps))
        assert np.array_equal(order, np.arange(len(stream)))

    def test_key_merge_past_2_61_ps(self):
        # Over about 4.6e6 s, half the clicks lie at or past 2^61 ps, where
        # a signed (t << 2) | d key would wrap negative.
        duration_s = 4.6e6
        src = SourceConfig(pair_rate_hz=1e-3, duration_s=duration_s, seed=21)
        stream = simulate(src, IDEAL, DetectorBank(dark_rate_hz=1e-4), NO_NOISE)
        times, dets = stream.times_ps, stream.detectors
        assert len(stream) > 5000
        order = np.lexsort((dets, times))
        assert np.array_equal(order, np.arange(len(stream)))
        tied = np.flatnonzero(np.diff(times) == 0)
        assert len(tied) > 1000
        assert np.all(dets[tied] < dets[tied + 1])
        assert times[0] >= 0
        assert times[-1] < round(duration_s * 1e12)
        past = np.count_nonzero(times >= 2**61)
        # 2^61 ps is 49.9 % of the run
        assert past > 0.45 * len(stream)
        assert np.count_nonzero(times[tied] >= 2**61) > 500

    def test_peak_memory_is_below_two_and_a_half_times_the_output(self):
        # 600,987 clicks; the output's times and detectors are 9 bytes a
        # click.  A short run first keeps one-off allocations (numpy's
        # first calls) out of the measurement.
        simulate(SourceConfig(pair_rate_hz=2000.0, duration_s=1.0, seed=1),
                 IDEAL, BANK, TimingConfig())
        src = SourceConfig(pair_rate_hz=2000.0, duration_s=200.0, seed=5)
        tracemalloc.start()
        try:
            stream = simulate(src, IDEAL, BANK, TimingConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(stream) == 600_987
        assert peak < 2.5 * (stream.times_ps.nbytes + stream.detectors.nbytes)

    def test_dead_time_enforced_per_detector(self):
        src = SourceConfig(pair_rate_hz=0.0, duration_s=0.01, seed=11)
        bank = DetectorBank(efficiency=1.0, dark_rate_hz=2_000_000.0)
        timing = TimingConfig(jitter_sigma_ps=0.0, dead_time_ns=200.0)
        stream = simulate(src, IDEAL, bank, timing)
        for det in range(4):
            t = stream.times_ps[stream.detectors == det]
            assert np.all(np.diff(t) > timing.dead_time_ps)

    def test_kept_rate_is_non_paralyzable(self):
        # 10 MHz darks behind 200 ns: r tau = 2, so each detector keeps
        # r / (1 + r tau) = 3.33 MHz (a paralyzable one, r e^-r tau = 1.35 MHz)
        src = SourceConfig(pair_rate_hz=0.0, duration_s=0.01, seed=12)
        bank = DetectorBank(efficiency=1.0, dark_rate_hz=10_000_000.0)
        timing = TimingConfig(jitter_sigma_ps=0.0, dead_time_ns=200.0)
        stream = simulate(src, IDEAL, bank, timing)
        expect = 1e7 / (1.0 + 1e7 * 200e-9) * src.duration_s
        counts = np.bincount(stream.detectors, minlength=4)
        assert np.all(np.abs(counts - expect) < 4.0 * math.sqrt(expect))

    def test_dark_gaps_are_exponential(self):
        # single dark-count stream at 1 MHz: inter-event gaps ~ Exp(rate)
        src = SourceConfig(pair_rate_hz=0.0, duration_s=0.1, seed=5)
        bank = DetectorBank(efficiency=1.0, dark_rate_hz=1_000_000.0)
        stream = simulate(src, IDEAL, bank, NO_NOISE)
        gaps = np.diff(stream.times_ps[stream.detectors == 0]) / 1e12
        assert len(gaps) >= 100_000 - 1
        result = stats.kstest(gaps, "expon", args=(0.0, 1e-6))
        assert result.pvalue > 0.01


@st.composite
def small_runs(draw):
    """(source, interferometer, bank, timing) of a run a scalar oracle can
    follow: up to 1,500 pairs and 400 darks per detector.  A 1e6 ps jitter
    on a 1e-6 s run throws clicks outside [0, T), and any jitter on a 1 ps
    run lands clicks on both of its edges, 0 and 1 ps; a dead time of 50 ns
    or 10 us on the longer runs forms chains; delays off the dip fire the
    cross-arm patterns, and efficiencies below 1 the single clicks."""
    duration_s = draw(st.sampled_from([1e-12, 1e-6, 1e-4, 1e-2]))
    pairs = draw(st.integers(0, 1500))
    darks = draw(st.sampled_from([0, 1, 40, 400]))
    source = SourceConfig(
        pair_rate_hz=pairs / duration_s, duration_s=duration_s,
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    interf = InterferometerConfig(delay_fs=draw(st.sampled_from([0.0, 0.1, 60.0, 150.0, 1e4])))
    bank = DetectorBank(
        efficiency=draw(st.sampled_from([1.0, 0.8, 0.3])), dark_rate_hz=darks / duration_s
    )
    timing = TimingConfig(
        jitter_sigma_ps=draw(st.sampled_from([0.0, 300.0, 1e6])),
        dead_time_ns=draw(st.sampled_from([0.0, 50.0, 1e4])),
    )
    return source, interf, bank, timing


class TestSimulateOracle:
    """``simulate`` against ``reference_simulate``, its rule followed one
    click at a time with the same draws: a byte change in the click layer
    fails here by name, not only in the end-to-end digests."""

    @settings(max_examples=150, deadline=None)
    @given(run=small_runs())
    @example(run=(SourceConfig(1.5e15, 1e-12, seed=4), IDEAL, BANK,
                  TimingConfig(jitter_sigma_ps=3.0, dead_time_ns=0.0)))
    @example(run=(SourceConfig(1.5e9, 1e-6, seed=1), IDEAL, BANK,
                  TimingConfig(jitter_sigma_ps=1e6, dead_time_ns=50.0)))
    @example(run=(SourceConfig(1.5e5, 1e-2, seed=2), InterferometerConfig(delay_fs=1e4),
                  DetectorBank(efficiency=0.8, dark_rate_hz=4e4),
                  TimingConfig(jitter_sigma_ps=300.0, dead_time_ns=1e4)))
    @example(run=(SourceConfig(1.5e7, 1e-4, seed=3), IDEAL, DetectorBank(dark_rate_hz=4e6),
                  TimingConfig(jitter_sigma_ps=0.0, dead_time_ns=50.0)))
    def test_matches_scalar_oracle(self, run):
        source, interf, bank, timing = run
        got = simulate(source, interf, bank, timing)
        clicks = click_distribution(output_distribution(interf), bank)
        times, dets = reference_simulate(
            source.pair_rate_hz, source.duration_s, source.seed,
            list(clicks), list(clicks.values()),
            timing.jitter_sigma_ps, bank.dark_rate_hz, timing.dead_time_ps,
        )
        assert got.times_ps.tolist() == times.tolist()
        assert got.detectors.tolist() == dets.tolist()

    def test_examples_reach_the_edges(self):
        # the first two examples lose clicks outside [0, T), the first of
        # them right at both edges; about 1,500 pairs would give 2,250
        # clicks.  Before dead time, the third holds chains, two or more
        # short gaps in a row, on every detector.
        edges = simulate(SourceConfig(1.5e15, 1e-12, seed=4), IDEAL, BANK,
                         TimingConfig(jitter_sigma_ps=3.0, dead_time_ns=0.0))
        assert 100 < len(edges) < 1500
        assert set(edges.times_ps.tolist()) == {0}
        wide = simulate(SourceConfig(1.5e9, 1e-6, seed=1), IDEAL, BANK,
                        TimingConfig(jitter_sigma_ps=1e6, dead_time_ns=0.0))
        assert len(wide) < 1500
        every = simulate(SourceConfig(1.5e5, 1e-2, seed=2), InterferometerConfig(delay_fs=1e4),
                         DetectorBank(efficiency=0.8, dark_rate_hz=4e4),
                         TimingConfig(jitter_sigma_ps=300.0, dead_time_ns=0.0))
        for det in range(4):
            short = np.diff(every.times_ps[every.detectors == det]) <= 10_000_000
            assert np.count_nonzero(short[1:] & short[:-1]) > 50


@st.composite
def pattern_weights(draw):
    """1 to 11 normalised weights, some of them zero, first, last or inside."""
    k = draw(st.integers(1, 11))
    weights = draw(st.lists(st.floats(0.001, 1.0), min_size=k, max_size=k))
    zeros = draw(st.sets(st.integers(0, k - 1), max_size=k - 1))
    w = np.array([0.0 if i in zeros else x for i, x in enumerate(weights)])
    return w / w.sum()


class TestDrawPatterns:
    """``draw_patterns`` against the ``Generator.choice`` call it replaces:
    a numpy release that changes ``choice`` fails here by name."""

    @settings(max_examples=200, deadline=None)
    @given(w=pattern_weights(), n=st.integers(0, 5000), seed=st.integers(0, 2**32 - 1))
    @example(w=np.array([0.0, 0.5, 0.5]), n=5000, seed=1)
    @example(w=np.array([0.5, 0.5, 0.0]), n=5000, seed=2)
    @example(w=np.array([0.25, 0.0, 0.0, 0.75]), n=5000, seed=3)
    @example(w=np.array([1.0]), n=100, seed=4)
    @example(w=np.array([0.0, 1.0, 0.0]), n=0, seed=5)
    def test_matches_generator_choice(self, w, n, seed):
        ours = np.random.default_rng(seed)
        numpys = np.random.default_rng(seed)
        got = draw_patterns(ours, w, n)
        assert got.dtype == np.uint8
        assert np.array_equal(got, numpys.choice(len(w), size=n, p=w))
        assert ours.random() == numpys.random()

    @pytest.mark.parametrize("delay_fs", [0.0, 150.0, 1e4])
    @pytest.mark.parametrize("efficiency", [1.0, 0.6, 0.0])
    def test_matches_generator_choice_on_click_patterns(self, delay_fs, efficiency):
        clicks = click_distribution(
            output_distribution(InterferometerConfig(delay_fs=delay_fs)),
            DetectorBank(efficiency=efficiency),
        )
        weights = list(clicks.values())
        ours = np.random.default_rng(31)
        numpys = np.random.default_rng(31)
        got = draw_patterns(ours, weights, 20_000)
        assert np.array_equal(got, numpys.choice(len(weights), size=20_000, p=np.asarray(weights)))
        assert ours.random() == numpys.random()


@st.composite
def dead_time_streams(draw):
    """Sorted int64 clicks and a dead time: equal timestamps, gaps at and
    around dead_ps, long chains of short gaps, and runs ending within
    dead_ps of INT64_MAX."""
    dead_ps = draw(st.one_of(st.sampled_from([0, 1, 2, 50_000]), st.integers(0, 10**9)))
    gap = st.one_of(
        st.just(0), st.just(dead_ps), st.just(dead_ps + 1),
        st.integers(0, dead_ps), st.integers(0, 3 * dead_ps + 3),
    )
    gaps = draw(st.lists(gap, max_size=300))
    times = np.cumsum(gaps, dtype=np.int64)
    if len(times) and draw(st.booleans()):
        times += INT64_MAX - draw(st.integers(0, dead_ps)) - times[-1]
    return times, dead_ps


class TestStreamCanary:
    """The other Generator draws simulate and synthetic_coincidences make.

    NEP 19 keeps bit-generator streams stable across numpy releases but not
    the distribution methods on top of them; ``draw_patterns`` owns the
    pattern draw, and these digests pin the rest at fixed seeds and sizes.
    A numpy that moves one fails here under the draw's name, not only as a
    golden-digest mismatch.
    """

    DRAWS = {
        # scalar pair and dark counts: the small-mean and the PTRS regimes
        "poisson": (
            lambda rng: rng.poisson([0.0, 0.3, 4.0, 40.0, 2.35e6], size=(200, 5)),
            "756e2e84e83f2e257f2ef29d5119062810cefa306d94f1ef0ac483731edd14d5",
        ),
        # pair, dark and synthetic times: below 2^32 ps, above, and 9,500 s
        "integers_int64": (
            lambda rng: np.concatenate([
                rng.integers(0, hi, size=500, dtype=np.int64)
                for hi in (10**9, 10**10, 9_500 * 10**12)
            ]),
            "265f4bc90e8d88eba5607e6a9ce82b9fdacf5bdc7a91c40f10e475f25b755487",
        ),
        # synthetic_coincidences' label choice
        "integers_labels": (
            lambda rng: rng.integers(0, 2, size=1000),
            "58a8527388392c1e471662bf1c07449cd6128028bb1784f81f5b691dfadecd7c",
        ),
        # jitter
        "normal": (
            lambda rng: rng.normal(0.0, 300.0, size=1000),
            "acb77f95c9bf60caf5304b03ab86e829769df38e633280347a37880e03c74ae2",
        ),
        # the uniforms draw_patterns compares with the pattern cdf
        "random": (
            lambda rng: rng.random(1000),
            "fe7411b50ce2e1df6fa35d26467dd97ace22e41d8905d5d948ede8e0faebaf15",
        ),
    }

    @pytest.mark.parametrize("name", list(DRAWS))
    def test_draw_stream_is_pinned(self, name):
        draw, want = self.DRAWS[name]
        arr = np.asarray(draw(np.random.default_rng(2024)))
        got = hashlib.sha256(arr.astype(arr.dtype.newbyteorder("<")).tobytes()).hexdigest()
        assert got == want, f"numpy {np.__version__} moved the {name} stream"


class TestDeadTimeFilter:
    @settings(max_examples=400, deadline=None)
    @given(dead_time_streams())
    def test_matches_scalar_oracle(self, stream):
        times, dead_ps = stream
        keep = _dead_time_filter(times, dead_ps)
        assert keep.tolist() == reference_dead_time_keep(times.tolist(), dead_ps)

    @pytest.mark.parametrize("at_int64_max", [False, True])
    def test_long_chain(self, at_int64_max):
        # 20,001 clicks a quarter dead time apart form one chain; the click
        # exactly one dead time after a kept one is dropped, so every fifth
        # is kept, the last one included (at INT64_MAX when shifted)
        dead_ps = 50_000
        times = np.arange(20_001, dtype=np.int64) * 12_500
        if at_int64_max:
            times += INT64_MAX - times[-1]
        keep = _dead_time_filter(times, dead_ps)
        assert keep.tolist() == reference_dead_time_keep(times.tolist(), dead_ps)
        assert np.flatnonzero(keep).tolist() == list(range(0, 20_001, 5))

    def test_simultaneous_clicks(self):
        times = np.array([5, 5, 5, 7, 7], dtype=np.int64)
        assert _dead_time_filter(times, 0).tolist() == [True] * 5
        assert _dead_time_filter(times, 1).tolist() == [True, False, False, True, False]


@st.composite
def clustered_streams(draw):
    """Clusters of one to six clicks (gaps within a cluster at most one
    window, between clusters more), with clusters of three or more at
    either end when drawn.  Returns times, detectors, the window and the
    number of clusters of three or more clicks."""
    window_ps = draw(st.sampled_from([1, 7, 3000]))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=40))
    if draw(st.booleans()):
        sizes[0] = max(sizes[0], 3)
    if draw(st.booleans()):
        sizes[-1] = max(sizes[-1], 3)
    times = []
    t = draw(st.integers(0, 10**6))
    for k, size in enumerate(sizes):
        if k:
            t += window_ps + 1 + draw(st.integers(0, 2 * window_ps))
        for c in range(size):
            if c:
                t += draw(st.sampled_from([0, window_ps, draw(st.integers(0, window_ps))]))
            times.append(t)
    dets = draw(st.lists(st.integers(0, 3), min_size=len(times), max_size=len(times)))
    n_big = sum(size >= 3 for size in sizes)
    return (np.array(times, dtype=np.int64), np.array(dets, dtype=np.int8),
            window_ps, n_big)


class TestCoincidenceFilter:
    def test_pairs_within_window(self):
        stream = coincidence_filter(
            events((Detector.D1, 0), (Detector.D2, 2000)), TimingConfig()
        )
        assert labels_at(stream) == [(PairLabel.D1D2, 0)]

    def test_no_pair_outside_window(self):
        stream = coincidence_filter(
            events((Detector.D1, 0), (Detector.D2, 5000)), TimingConfig()
        )
        assert len(stream) == 0
        assert stream.n_unpaired == 2

    def test_greedy_takes_earliest_and_leaves_remainder(self):
        stream = coincidence_filter(
            events((Detector.D1, 0), (Detector.D2, 1000), (Detector.D2, 2000)),
            TimingConfig(),
        )
        assert labels_at(stream) == [(PairLabel.D1D2, 0)]
        assert stream.n_unpaired == 1
        assert stream.n_multi_click_clusters == 1

    def test_same_detector_never_pairs(self):
        stream = coincidence_filter(
            events((Detector.D3, 0), (Detector.D3, 500)), TimingConfig()
        )
        assert len(stream) == 0

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="detection events must be time-sorted"):
            coincidence_filter(
                events((Detector.D1, 100), (Detector.D2, 0)), TimingConfig()
            )

    def test_cross_arm_labeling(self):
        stream = coincidence_filter(
            events((Detector.D4, 10), (Detector.D1, 400)), TimingConfig()
        )
        assert [label for label, _ in labels_at(stream)] == [PairLabel.D1D4]

    @pytest.mark.parametrize("trial", range(25))
    def test_matches_reference_greedy_on_dense_streams(self, trial):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(2, 40))
        times = np.sort(rng.integers(0, 12_000, n)).astype(np.int64)
        dets = rng.integers(0, 4, n).astype(np.int8)
        timing = TimingConfig(coincidence_window_ns=3.0)
        got = coincidence_filter(EventStream(times, dets), timing)
        want = reference_greedy_pairs(times.tolist(), dets.tolist(), 3000)
        assert len(got) == len(want)
        for (label, time_ps), (i, j) in zip(labels_at(got), want):
            assert time_ps == times[i]
            lo, hi = sorted((dets[i], dets[j]))
            assert {int(d) for d in _label_members(label)} == {lo, hi}

    @settings(max_examples=300, deadline=None)
    @given(clustered_streams())
    def test_matches_reference_greedy_on_clustered_streams(self, stream):
        times, dets, window_ps, n_big = stream
        timing = TimingConfig(coincidence_window_ns=window_ps / 1000.0)
        assert timing.window_ps == window_ps
        got = coincidence_filter(EventStream(times, dets), timing)
        want = reference_greedy_pairs(times.tolist(), dets.tolist(), window_ps)
        assert got.times_ps.tolist() == [int(times[i]) for i, _ in want]
        assert got.labels.tolist() == [
            int(_LABEL_OF_MEMBERS[frozenset((int(dets[i]), int(dets[j])))]) for i, j in want
        ]
        assert got.n_unpaired == len(times) - 2 * len(want)
        assert got.n_multi_click_clusters == n_big
        assert got.n_events_in == len(times)

    def test_peak_memory_is_below_twice_the_input(self):
        # about 0.9 M clicks; the input's times and detectors are 9 bytes a click
        src = SourceConfig(pair_rate_hz=2000.0, duration_s=300.0, seed=5)
        stream = simulate(src, IDEAL, BANK, TimingConfig())
        input_bytes = stream.times_ps.nbytes + stream.detectors.nbytes
        tracemalloc.start()
        try:
            coincidence_filter(stream, TimingConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(stream) > 850_000
        assert peak < 2 * input_bytes

    def test_every_click_consumed_at_most_once(self):
        # conservation: coincidences * 2 + unpaired = events
        src = SourceConfig(pair_rate_hz=50_000.0, duration_s=1.0, seed=17)
        stream = simulate(src, IDEAL, BANK, TimingConfig())
        coinc = coincidence_filter(stream, TimingConfig())
        assert 2 * len(coinc) + coinc.n_unpaired == len(stream)
        assert coinc.n_events_in == len(stream)

    def test_rate_agreement_with_click_model(self):
        # eta = 1, no darks, zero jitter: label rates follow the closed form
        src = SourceConfig(pair_rate_hz=500.0, duration_s=100.0, seed=8)
        interf = InterferometerConfig(delay_fs=150.0)
        stream = simulate(src, interf, BANK, NO_NOISE)
        coinc = coincidence_filter(stream, NO_NOISE)
        cd = click_distribution(output_distribution(interf), BANK)
        members = {
            PairLabel.D1D2: (Detector.D1, Detector.D2),
            PairLabel.D3D4: (Detector.D3, Detector.D4),
            PairLabel.D1D3: (Detector.D1, Detector.D3),
            PairLabel.D1D4: (Detector.D1, Detector.D4),
            PairLabel.D2D3: (Detector.D2, Detector.D3),
            PairLabel.D2D4: (Detector.D2, Detector.D4),
        }
        for label, count in zip(PairLabel, label_counts(coinc.labels).tolist()):
            expect = 500.0 * 100.0 * cd.get(frozenset(members[label]), 0.0)
            assert abs(count - expect) < 4.0 * math.sqrt(max(expect, 1.0))


def _label_members(label):
    return {
        PairLabel.D1D2: (0, 1),
        PairLabel.D3D4: (2, 3),
        PairLabel.D1D3: (0, 2),
        PairLabel.D1D4: (0, 3),
        PairLabel.D2D3: (1, 2),
        PairLabel.D2D4: (1, 3),
    }[label]


_LABEL_OF_MEMBERS = {frozenset(_label_members(label)): label for label in PairLabel}


class TestSyntheticCoincidences:
    def test_deterministic_and_sorted(self):
        a = synthetic_coincidences(1000.0, 2.0, seed=4)
        b = synthetic_coincidences(1000.0, 2.0, seed=4)
        assert a.times_ps.tobytes() == b.times_ps.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
        assert np.all(np.diff(a.times_ps) >= 0)

    def test_labels_are_fair(self):
        stream = synthetic_coincidences(10_000.0, 10.0, seed=6)
        counts = label_counts(stream.labels)
        total = len(stream)
        assert counts[PairLabel.D1D2] + counts[PairLabel.D3D4] == total
        assert abs(counts[PairLabel.D1D2] - total / 2) < 4.0 * math.sqrt(total / 4)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="rate_hz must be >= 0"):
            synthetic_coincidences(-5.0, 1.0)
        with pytest.raises(ValueError, match="duration_s must be > 0"):
            synthetic_coincidences(5.0, 0.0)


class TestPurityMonitor:
    def test_ideal_zero_delay_stays_quiet(self):
        src = SourceConfig(pair_rate_hz=1000.0, duration_s=20.0, seed=23)
        coinc = coincidence_filter(simulate(src, IDEAL, BANK, TimingConfig()), TimingConfig())
        assert purity_monitor(label_counts(coinc.labels)) == 0

    def test_large_delay_raises_alarm(self):
        src = SourceConfig(pair_rate_hz=5000.0, duration_s=2.0, seed=24)
        interf = InterferometerConfig(delay_fs=3 * 222.0)
        coinc = coincidence_filter(simulate(src, interf, BANK, TimingConfig()), TimingConfig())
        cross = sum(label in CROSS_ARM_LABELS for label in coinc.labels.tolist())
        with pytest.raises(MonitorAlarm, match=f"^{cross} cross-arm coincidences exceed "
                                               "threshold 0$"):
            purity_monitor(label_counts(coinc.labels))
        # near-total distinguishability: cross-arm rate ~ pair rate / 2
        assert cross > 4000

    def test_empty_stream_is_ok(self):
        assert purity_monitor(label_counts(np.empty(0, dtype=np.int8))) == 0

    def test_threshold_is_respected(self):
        counts = label_counts(np.array([PairLabel.D1D3, PairLabel.D2D4], dtype=np.int8))
        assert purity_monitor(counts, threshold=2) == 2
        with pytest.raises(MonitorAlarm, match="2 cross-arm coincidences exceed threshold 1"):
            purity_monitor(counts, threshold=1)


class TestLabelCounts:
    @given(st.lists(st.sampled_from(PairLabel), max_size=50))
    def test_matches_scalar_count(self, labels):
        counts = label_counts(np.array(labels, dtype=np.int8))
        assert counts.tolist() == [labels.count(label) for label in PairLabel]

    def test_cross_arm_labels_are_sorted(self):
        assert CROSS_ARM_LABELS == tuple(sorted(CROSS_ARM_LABELS))
        assert set(PairLabel) - set(CROSS_ARM_LABELS) == {PairLabel.D1D2, PairLabel.D3D4}


class TestScanDelay:
    def test_needs_two_points(self):
        src = SourceConfig(pair_rate_hz=100.0, duration_s=1.0, seed=1)
        with pytest.raises(ValueError):
            scan_delay([0.0], src, IDEAL, BANK, TimingConfig())

    def test_point_seeds_are_stable(self):
        assert point_seed(7, 0) == point_seed(7, 0)
        assert point_seed(7, 0) != point_seed(7, 1)

    def test_peak_to_baseline_ratio_is_two(self):
        src = SourceConfig(pair_rate_hz=250_000.0, duration_s=1.0, seed=29)
        counts = scan_delay([0.0, 10 * 222.0], src, IDEAL, BANK, TimingConfig())
        peak, base = counts[:, PairLabel.D1D2].tolist()
        ratio = peak / base
        sigma = ratio * math.sqrt(1.0 / peak + 1.0 / base)
        assert abs(ratio - 2.0) < 3.0 * sigma

    def test_cross_arm_silent_on_the_dip(self):
        src = SourceConfig(pair_rate_hz=20_000.0, duration_s=1.0, seed=30)
        counts = scan_delay([0.0, 10 * 222.0], src, IDEAL, BANK, TimingConfig())
        dip, far = counts[:, CROSS_ARM_LABELS].sum(axis=1)
        assert dip <= 2  # statistically consistent with 0
        assert far > 8000

    @pytest.mark.parametrize("ceiling", [0.8, 0.9, 1.0])
    def test_visibility_transfer_through_full_chain(self, ceiling):
        delays = np.linspace(-650.0, 650.0, 11)
        src = SourceConfig(pair_rate_hz=100_000.0, duration_s=1.0, seed=31)
        interf = InterferometerConfig(visibility_ceiling=ceiling)
        counts = scan_delay(delays, src, interf, BANK, TimingConfig())
        fit = fit_dip_visibility(delays, counts, src.duration_s)
        assert abs(fit.visibility - ceiling) < 4.0 * max(fit.visibility_err, 1e-4)
        assert abs(fit.width_fs - 222.0) < 0.05 * 222.0

    @staticmethod
    def assert_matches_serial_point_loop():
        # more points than workers, so workers take several points each
        n_points = max(7, scan_workers(10**6) + 1)
        delays = np.linspace(-500.0, 500.0, n_points)
        src = SourceConfig(pair_rate_hz=20_000.0, duration_s=0.2, seed=17)
        bank = DetectorBank(dark_rate_hz=2000.0)
        timing = TimingConfig()
        counts = scan_delay(delays, src, IDEAL, bank, timing)
        assert counts.shape == (n_points, len(PairLabel))
        assert counts.dtype.kind == "i"
        for i, (delay, point) in enumerate(zip(delays, counts.tolist())):
            coinc = coincidence_filter(
                simulate(
                    SourceConfig(src.pair_rate_hz, src.duration_s, point_seed(src.seed, i)),
                    InterferometerConfig(delay_fs=delay),
                    bank,
                    timing,
                ),
                timing,
            )
            assert point == label_counts(coinc.labels).tolist()

    def test_matches_serial_point_loop(self):
        self.assert_matches_serial_point_loop()

    def test_one_pool_of_at_most_one_worker_per_cpu_and_point(self, process_pools):
        assert threading.active_count() == 1
        src = SourceConfig(pair_rate_hz=1000.0, duration_s=0.1, seed=3)
        for n_points in (2, 5):
            scan_delay(np.linspace(0.0, 400.0, n_points), src, IDEAL, BANK, TimingConfig())
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        # forked from a single-threaded caller on Linux, spawned elsewhere
        method = "fork" if sys.platform == "linux" else "spawn"
        assert process_pools == [(min(cpus, 2), method), (min(cpus, 5), method)]

    def test_spawns_while_another_python_thread_runs(self, process_pools):
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            self.assert_matches_serial_point_loop()
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert [method for _, method in process_pools] == ["spawn"]

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_blas_threads_are_joined_across_fork(self):
        # Forking the scan workers is safe only because numpy's OpenBLAS
        # joins its threads in a pthread_atfork handler before a fork.
        def os_threads():
            with open("/proc/self/status") as fh:
                return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))

        a = np.ones((64, 64))
        a @ a
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        after = os_threads()
        os.waitpid(pid, 0)
        assert after == 1

    def test_workers_without_cpu_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert [scan_workers(n) for n in (1, 2, 3, 7)] == [1, 2, 3, 3]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert scan_workers(7) == 1

    def test_csv_schema(self, tmp_path):
        src = SourceConfig(pair_rate_hz=1000.0, duration_s=0.5, seed=2)
        counts = scan_delay([0.0, 400.0], src, IDEAL, BANK, TimingConfig())
        path = tmp_path / "scan.csv"
        write_scan_csv([0.0, 400.0], counts, src.duration_s, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "delay_fs,pair_label,counts,duration_s,rate_hz,sigma_hz"
        assert len(lines) == 1 + 2 * 6
        assert lines[1].startswith("0.0,D1D2,")

    def test_csv_rates_and_sigmas(self, tmp_path):
        # rate = counts / duration and sigma = sqrt(counts) / duration, each
        # written as a plain Python repr, never as np.float64(...)
        counts = np.zeros((2, 6), dtype=np.int64)
        counts[0, PairLabel.D1D2] = 400
        counts[1, PairLabel.D2D4] = 3
        path = tmp_path / "scan.csv"
        write_scan_csv(np.array([-1.5, 2.0]), counts, 100.0, path)
        lines = path.read_text().splitlines()
        assert lines[1] == "-1.5,D1D2,400,100.0,4.0,0.2"
        assert lines[2] == "-1.5,D3D4,0,100.0,0.0,0.0"
        assert lines[12] == f"2.0,D2D4,3,100.0,0.03,{math.sqrt(3) / 100.0!r}"

    def test_events_csv(self, tmp_path):
        stream = events((Detector.D1, 5), (Detector.D4, 10))
        path = tmp_path / "events.csv"
        write_events_csv(stream, path)
        assert path.read_text() == "detector,time_ps\nD1,5\nD4,10\n"

    def test_events_csv_matches_per_row_writer(self, tmp_path):
        # about 10^5 clicks; 12-digit times next to 4-digit dark counts
        src = SourceConfig(pair_rate_hz=40_000.0, duration_s=1.5, seed=33)
        stream = simulate(src, IDEAL, DetectorBank(dark_rate_hz=2000.0), TimingConfig())
        assert len(stream) > 100_000
        stream = EventStream(
            np.concatenate(([0, 7, 12], stream.times_ps, [INT64_MAX])),
            np.concatenate(([3, 0, 1], stream.detectors, [2])),
        )
        path = tmp_path / "events.csv"
        write_events_csv(stream, path)
        assert path.read_bytes() == reference_events_csv(
            stream.times_ps.tolist(), stream.detectors.tolist()
        )


def dip_table(cross):
    """``scan_delay``'s label-count table for these per-delay cross-arm
    counts, split between D1D3 and D2D4, with no D1D2 or D3D4 counts."""
    cross = np.asarray(cross)
    table = np.zeros((len(cross), len(PairLabel)), dtype=cross.dtype)
    table[:, PairLabel.D1D3] = cross // 2
    table[:, PairLabel.D2D4] = cross - cross // 2
    return table


def _filled(seed, index, size):
    return np.full(size, index)


def _failing_from(seed, index, first_failing):
    if index >= first_failing:
        raise ValueError(f"call {index}")
    return index


class TestFanOut:
    def test_results_larger_than_a_pipe_come_back_in_call_order(self):
        # more calls than workers, each result 2 MB, far past a pipe's buffer
        n = max(5, scan_workers(10**6) + 1)
        results = fan_out(_filled, 0, list(range(n)), [2**18] * n)
        assert [(int(r[0]), int(r[-1]), len(r)) for r in results] == [
            (i, i, 2**18) for i in range(n)
        ]

    @pytest.mark.parametrize("first_failing", [1, 2, 4])
    def test_earliest_failing_call_is_raised(self, first_failing):
        # every call from first_failing on raises, in whichever worker it runs
        n = max(5, scan_workers(10**6) + 1)
        with pytest.raises(ValueError, match=f"^call {first_failing}$"):
            fan_out(_failing_from, 0, list(range(n)), [first_failing] * n)


class TestFitDipVisibility:
    # each id keeps the "-True" that marked the Poisson-weighted cases, so
    # every case keeps its name
    @pytest.mark.parametrize("ceiling", [0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
    @pytest.mark.parametrize("n_points,duration_s", [
        pytest.param(9, 0.01, id="9-0.01-True"), pytest.param(11, 1.0, id="11-1.0-True"),
    ])
    def test_matches_curve_fit(self, ceiling, n_points, duration_s):
        # Poisson counts around a 222 fs dip; every case holds a zero-count
        # point, which the sigma floor weights a million times the peak
        rng = np.random.default_rng(round(100 * ceiling) + n_points)
        delays = np.linspace(-650.0, 650.0, n_points)
        mean = 1e4 * duration_s * (1.0 - ceiling * np.exp(-((delays / 222.0) ** 2)))
        counts = rng.poisson(mean)
        counts[n_points // 2] = 0
        fit = fit_dip_visibility(delays, dip_table(counts), duration_s)
        (base, vis, width), err = curve_fit_dip(delays, counts / duration_s,
                                                np.sqrt(counts) / duration_s)
        assert fit.baseline_hz == pytest.approx(base, rel=1e-6)
        assert fit.visibility == pytest.approx(vis, rel=1e-6)
        assert fit.width_fs == pytest.approx(width, rel=1e-6)
        assert fit.visibility_err == pytest.approx(err, rel=1e-6)

    def test_noiseless_dip_is_recovered(self):
        delays = np.linspace(-600.0, 600.0, 7)
        counts = 50.0 * (1.0 - 0.8 * np.exp(-((delays / 222.0) ** 2)))
        fit = fit_dip_visibility(delays, dip_table(counts), 1.0)
        assert fit.visibility == pytest.approx(0.8, rel=1e-9)
        assert fit.width_fs == pytest.approx(222.0, rel=1e-9)
        assert fit.baseline_hz == pytest.approx(50.0, rel=1e-9)

    def test_only_cross_arm_counts_are_fitted(self):
        delays = np.linspace(-650.0, 650.0, 9)
        counts = dip_table(np.round(1e3 * (1.0 - 0.9 * np.exp(-((delays / 222.0) ** 2)))))
        fit = fit_dip_visibility(delays, counts, 2.0)
        counts[:, PairLabel.D1D2] += 5000
        counts[:, PairLabel.D3D4] += np.arange(9)
        assert fit_dip_visibility(delays, counts, 2.0) == fit

    def test_no_cross_arm_count_is_refused(self):
        # with every rate at 0, a zero baseline fits any visibility and width
        counts = dip_table(np.zeros(3, dtype=np.int64))
        counts[:, PairLabel.D1D2] = 100
        with pytest.raises(ValueError, match="at least one cross-arm coincidence"):
            fit_dip_visibility([-600.0, 0.0, 600.0], counts, 1.0)

    def test_equal_delays_leave_no_error(self):
        fit = fit_dip_visibility([100.0] * 4, dip_table([3, 4, 5, 4]), 1.0)
        assert fit.visibility_err is None
        assert math.isfinite(fit.visibility)

    def test_needs_three_points(self):
        with pytest.raises(ValueError, match="three"):
            fit_dip_visibility([0.0, 400.0], dip_table([1, 10]), 1.0)
