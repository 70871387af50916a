"""Monte Carlo event chain: emission, pairing, monitoring, scanning."""

import hashlib
import math
import os
import sys
import threading
import time
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from qrngsim import timetag
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
    _CHUNK,
    _LABEL_TABLE,
    _dead_time_filter,
    coincidence_filter,
    draw_patterns,
    duration_ps,
    fan_out,
    fit_dip_visibility,
    label_counts,
    point_seed,
    purity_monitor,
    scan_delay,
    scan_workers,
    simulate,
    synthetic_coincidences,
    synthetic_times,
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


def assert_same_coincidences(got, want):
    """Byte for byte the same coincidences and counts."""
    assert got.times_ps.dtype == want.times_ps.dtype and got.labels.dtype == want.labels.dtype
    assert got.times_ps.tobytes() == want.times_ps.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()
    for count in ("n_events_in", "n_unpaired", "n_multi_click_clusters"):
        assert getattr(got, count) == getattr(want, count)


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

    def test_mean_count_past_poissons_range_refused(self):
        # Generator.poisson draws at the limit and refuses a mean just past
        # it; simulate and synthetic_coincidences refuse that mean themselves
        limit = timetag._POISSON_MEAN_MAX
        past = float(np.nextafter(limit, np.inf))
        rng = np.random.default_rng(0)
        rng.poisson(limit)
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(past)
        with pytest.raises(MemoryError, match="pair_rate_hz .* times duration_s 1 "):
            simulate(SourceConfig(past, 1.0), IDEAL, BANK, TimingConfig())
        with pytest.raises(MemoryError, match="dark_rate_hz .* times duration_s 1 "):
            simulate(SourceConfig(0.0, 1.0), IDEAL, DetectorBank(dark_rate_hz=past),
                     TimingConfig())
        with pytest.raises(MemoryError, match="rate_hz .* times duration_s 1 "):
            synthetic_coincidences(past, 1.0)

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

    def test_peak_memory_is_below_twice_the_output(self):
        # 600,987 clicks; the output's times and detectors are 9 bytes a
        # click.  A short run first keeps one-off allocations (numpy's
        # first calls) out of the measurement.  The traced peak reads 1.888
        # times the output; with a full-length uniform and comparison array
        # in the pattern draw and a full-length mask and index array in
        # each selection it read 1.950 (numpy 2.4).
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
        assert peak < 2.0 * (stream.times_ps.nbytes + stream.detectors.nbytes)

    def test_pattern_draw_and_selection_hold_chunk_buffers(self):
        # 10^6 pairs: the draw holds its 1 MB of patterns and a _CHUNK of
        # uniforms and of comparisons, not 8 MB of uniforms and 1 MB of
        # comparisons; one detector's selection holds its exactly sized
        # output and a chunk's temporaries, not a full-length mask and
        # index array.  "A few chunks" is four _CHUNKs of 8-byte values.
        # The traced peaks read 1.59 MB (draw) and 5.52 MB (selection, the
        # patterns still held) against bounds of 3.10 and 7.09 MB; with
        # full-length temporaries they read 10.0 MB each.
        n, few_chunks = 10**6, 4 * _CHUNK * 8
        rng = np.random.default_rng(8)
        weights = np.array([0.1, 0.4, 0.2, 0.3])
        fired = np.random.default_rng(9).integers(0, 16, n, dtype=np.uint8)
        pair_times = np.arange(n, dtype=np.int64)
        scratch = np.empty(_CHUNK, dtype=bool)
        draw_patterns(rng, weights, 100)  # numpy's first calls, untraced
        timetag._detector_clicks(pair_times[:100], fired[:100], 2, scratch)
        tracemalloc.start()
        try:
            patterns = draw_patterns(rng, weights, n)
            _, draw_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            clicks = timetag._detector_clicks(pair_times, fired, 2, scratch)
            _, selection_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert draw_peak < patterns.nbytes + few_chunks
        assert selection_peak < patterns.nbytes + clicks.nbytes + few_chunks
        assert np.array_equal(clicks, pair_times[(fired & 4) > 0])

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
        self.assert_matches_oracle(*run)

    @staticmethod
    def assert_matches_oracle(source, interf, bank, timing):
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

    # (chunk, run): the pattern draw, each detector's selection and the
    # jitter taken 7 pairs or clicks at a time over darks, chains and a
    # delay off the dip; a detector whose 543 clicks fill three chunks of
    # 181 exactly; detectors with no clicks at all (efficiency 0, darks
    # only); no jitter; and a 1e6 ps jitter one click at a time
    CHUNKED_RUNS = [
        (7, (SourceConfig(1.5e5, 1e-2, seed=2), InterferometerConfig(delay_fs=1e4),
             DetectorBank(efficiency=0.8, dark_rate_hz=4e4),
             TimingConfig(jitter_sigma_ps=300.0, dead_time_ns=1e4))),
        (181, (SourceConfig(1.5e5, 1e-2, seed=0), IDEAL, BANK, TimingConfig())),
        (7, (SourceConfig(1.5e5, 1e-2, seed=5), IDEAL,
             DetectorBank(efficiency=0.0, dark_rate_hz=4e4), TimingConfig())),
        (7, (SourceConfig(1.5e5, 1e-2, seed=6), IDEAL, BANK, TimingConfig(jitter_sigma_ps=0.0))),
        (1, (SourceConfig(1.5e9, 1e-6, seed=1), IDEAL, BANK, TimingConfig(jitter_sigma_ps=1e6))),
    ]
    CHUNKED_IDS = ["seams", "whole-chunks", "no-clicks", "no-jitter", "one-click-chunks"]

    @staticmethod
    def click_counts(source, interf, bank) -> list:
        """Each detector's clicks before darks, from simulate's own first
        draws: the pair count, the pair times and the click patterns."""
        rng = np.random.default_rng(source.seed)
        n_pairs = int(rng.poisson(source.pair_rate_hz * source.duration_s))
        rng.integers(0, duration_ps(source.duration_s), size=n_pairs, dtype=np.int64)
        clicks = click_distribution(output_distribution(interf), bank)
        chosen = np.bincount(draw_patterns(rng, list(clicks.values()), n_pairs),
                             minlength=len(clicks)).tolist()
        return [sum(n for n, pattern in zip(chosen, clicks) if det in pattern)
                for det in Detector]

    @pytest.mark.parametrize("chunk, run", CHUNKED_RUNS, ids=CHUNKED_IDS)
    def test_matches_scalar_oracle_across_jitter_chunks(self, monkeypatch, chunk, run):
        monkeypatch.setattr(timetag, "_CHUNK", chunk)
        self.assert_matches_oracle(*run)

    def test_chunked_runs_reach_their_edges(self):
        counts = {name: self.click_counts(*run[:3])
                  for name, (_, run) in zip(self.CHUNKED_IDS, self.CHUNKED_RUNS)}
        assert min(counts["seams"]) > 50 * 7
        assert counts["whole-chunks"][0] == 3 * 181
        assert counts["whole-chunks"][1:] == [546, 558, 573]
        assert counts["no-clicks"] == [0, 0, 0, 0]
        assert min(counts["no-jitter"]) > 7
        assert min(counts["one-click-chunks"]) > 1


def _thread_starts(fn, *args) -> int:
    """The threads ``fn(*args)`` starts."""
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        start(thread)

    threading.Thread.start = counting_start
    try:
        fn(*args)
    finally:
        threading.Thread.start = start
    return len(started)


def _threads_simulate_starts(seed, point) -> int:
    """The threads one ``simulate`` call starts in the process that runs
    it; shaped as a ``fan_out`` call, so that a forked worker can run it."""
    return _thread_starts(simulate, SourceConfig(2e4, 0.1, seed), IDEAL, BANK, TimingConfig())


def _threads_pairing_starts(seed, point) -> int:
    """The same for one ``coincidence_filter`` call on such a stream."""
    stream = simulate(SourceConfig(2e4, 0.1, seed), IDEAL, BANK, TimingConfig())
    return _thread_starts(coincidence_filter, stream, TimingConfig())


def _fails(*args):
    raise RuntimeError("failed in the caller")


class TestSimulateThreads:
    """The helper thread of ``simulate`` and ``coincidence_filter`` ends
    with the call, whether it returns or raises, so a later ``fan_out``
    still forks; an error raised on the helper reaches the caller;
    ``fan_out``'s workers run both inline."""

    @staticmethod
    def assert_fan_out_forks(forks):
        fan_out(_filled, 0, range(2), 1)
        assert forks == ([scan_workers(2)] if sys.platform == "linux" else [])

    def test_helper_ends_with_the_call(self, forks):
        before = threading.active_count()
        simulate(SourceConfig(2e4, 0.1, seed=1), IDEAL, BANK, TimingConfig())
        assert threading.active_count() == before
        self.assert_fan_out_forks(forks)

    # the helper fails on the first detector's draws while the caller
    # selects the other detectors' clicks, on the lower part of the merge
    # while the caller sorts the upper, or on a piece of the first half of
    # the pairing while the caller pairs the rest
    @pytest.mark.parametrize("step", ["_detector_draws", "_sort_and_split", "_pair_clusters"],
                             ids=["draws", "merge", "pairing"])
    def test_error_on_the_helper_is_raised_in_the_caller(self, monkeypatch, forks, step):
        run = getattr(timetag, step)

        def fails_on_the_helper(*args):
            if threading.current_thread().name == "qrngsim-helper":
                raise RuntimeError("failed on the helper")
            return run(*args)

        # chunks of 512, so that the 2,989 clicks make about six pieces and
        # the helper has some to pair
        monkeypatch.setattr(timetag, "_CHUNK", 512)
        monkeypatch.setattr(timetag, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(timetag, step, fails_on_the_helper)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="failed on the helper"):
            stream = simulate(SourceConfig(2e4, 0.1, seed=1), IDEAL, BANK, TimingConfig())
            coincidence_filter(stream, TimingConfig())
        assert threading.active_count() == before
        self.assert_fan_out_forks(forks)

    def test_error_in_the_caller_joins_the_helper(self, monkeypatch, forks):
        # the caller fails on the first detector's dead time while the
        # helper draws the second detector's jitter, 375,000 draws
        monkeypatch.setattr(timetag, "_dead_time_filter", _fails)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="failed in the caller"):
            simulate(SourceConfig(2e6, 0.5, seed=1), IDEAL, BANK, TimingConfig())
        assert threading.active_count() == before
        self.assert_fan_out_forks(forks)

    def test_draws_on_a_helper_where_a_second_cpu_is_free(self):
        # one helper per draw step: the patterns, then each detector's;
        # then one for the lower part of the merge, and one for the lower
        # half of the pairing
        second_cpu = timetag._usable_cpus() > 1
        assert _threads_simulate_starts(0, None) == (6 if second_cpu else 0)
        assert _threads_pairing_starts(0, None) == (1 if second_cpu else 0)

    def test_concurrent_calls_under_a_short_switch_interval(self, monkeypatch):
        # six callers at once, more than the cores, each with its own
        # helper, switching threads every 10 us: each stream and its
        # coincidences must equal those made inline, so the caller and its
        # helper share no state but the generator, and never draw from it
        # at the same time
        runs = [(SourceConfig(2e4, 0.1, seed), IDEAL, DetectorBank(dark_rate_hz=2e3),
                 TimingConfig()) for seed in range(6)]

        def chain(run):
            stream = simulate(*run)
            return stream, coincidence_filter(stream, run[-1])

        monkeypatch.setattr(timetag, "_in_fork_worker", True)
        inline = [chain(run) for run in runs]
        monkeypatch.setattr(timetag, "_in_fork_worker", False)
        monkeypatch.setattr(timetag, "_usable_cpus", lambda: 2)
        streams = [None] * len(runs)

        def call(i):
            streams[i] = chain(runs[i])

        callers = [threading.Thread(target=call, args=(i,)) for i in range(len(runs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for (got, got_pairs), (want, want_pairs) in zip(streams, inline):
            assert got.times_ps.tobytes() == want.times_ps.tobytes()
            assert got.detectors.tobytes() == want.detectors.tobytes()
            assert_same_coincidences(got_pairs, want_pairs)

    @pytest.mark.skipif(sys.platform != "linux", reason="fan_out forks on Linux only")
    def test_fan_out_workers_draw_inline(self, forks):
        assert fan_out(_threads_simulate_starts, 0, range(2)) == [0, 0]
        assert fan_out(_threads_pairing_starts, 0, range(2)) == [0, 0]
        assert forks == [scan_workers(2)] * 2


class TestBeside:
    """``_beside(helper_call, caller_call)`` runs the helper's call on a
    thread beside the caller's where ``_threaded()``, else inline before it.
    Either way both calls run, their results come back in that order, the
    helper's exception is raised once the caller's call has returned, and
    no thread outlives the call."""

    @pytest.fixture(params=[True, False], ids=["threaded", "inline"])
    def threaded(self, request, monkeypatch):
        monkeypatch.setattr(timetag, "_in_fork_worker", not request.param)
        monkeypatch.setattr(timetag, "_usable_cpus", lambda: 2)
        return request.param

    def test_results_come_back_in_order(self, threaded):
        log = []

        def helper():
            time.sleep(0.05)  # still running when the caller's call returns
            log.append(("helper", threading.current_thread().name))
            return "helper's"

        def caller():
            log.append(("caller", threading.current_thread().name))
            return "caller's"

        before = threading.active_count()
        assert timetag._beside(helper, caller) == ("helper's", "caller's")
        assert threading.active_count() == before
        main = threading.current_thread().name
        if threaded:
            assert log == [("caller", main), ("helper", "qrngsim-helper")]
        else:
            assert log == [("helper", main), ("caller", main)]

    def test_helper_error_is_raised_once_the_caller_returns(self, threaded):
        log = []

        def helper():
            raise RuntimeError("failed on the helper")

        def caller():
            time.sleep(0.05)  # the helper has raised by now
            log.append("caller returned")

        before = threading.active_count()
        with pytest.raises(RuntimeError, match="failed on the helper"):
            timetag._beside(helper, caller)
        assert log == ["caller returned"]
        assert threading.active_count() == before

    def test_caller_error_leaves_no_thread_running(self, threaded):
        log = []

        def helper():
            time.sleep(0.05)  # still running when the caller raises
            log.append("helper returned")

        before = threading.active_count()
        with pytest.raises(RuntimeError, match="failed in the caller"):
            timetag._beside(helper, _fails)
        assert log == ["helper returned"]
        assert threading.active_count() == before

    @pytest.mark.parametrize("in_fork_worker, cpus, starts", [
        (False, 2, 1), (True, 2, 0), (False, 1, 0),
    ], ids=["second-cpu", "fork-worker", "one-cpu"])
    def test_inline_path_starts_no_thread(self, monkeypatch, in_fork_worker, cpus, starts):
        monkeypatch.setattr(timetag, "_in_fork_worker", in_fork_worker)
        monkeypatch.setattr(timetag, "_usable_cpus", lambda: cpus)
        assert _thread_starts(timetag._beside, lambda: 1, lambda: 2) == starts


@st.composite
def key_runs(draw):
    """Four runs of (t << 2) | d keys, one per detector, each sorted: some
    runs empty, times from a few values so that keys repeat within a run,
    or from the whole range below 2^62 ps."""
    values = draw(st.sampled_from([st.integers(0, 3), st.integers(0, 2**62 - 1)]))
    runs = [np.array(sorted(draw(st.lists(values, max_size=30))), dtype=np.uint64)
            for _ in range(4)]
    return [(run << np.uint64(2)) | np.uint64(d) for d, run in enumerate(runs)]


class TestMergeRuns:
    """``simulate``'s merge of the four detectors' key runs, cut at the
    middle key of the longest run and sorted in two parts, against one
    sort of all the keys."""

    @settings(max_examples=200, deadline=None)
    @given(key_runs(), st.booleans())
    # no clicks; all clicks on one detector; one detector without clicks;
    # the splitter, key 5 << 2 | 0, held three times by its run
    @example([np.empty(0, np.uint64)] * 4, True)
    @example([np.empty(0, np.uint64)] * 3 + [np.array([3, 7, 7, 11], np.uint64)], True)
    @example([np.array([4, 8], np.uint64), np.empty(0, np.uint64),
              np.array([6, 10], np.uint64), np.array([3], np.uint64)], True)
    @example([np.array([0, 20, 20, 20, 24], np.uint64), np.array([1, 21, 21], np.uint64),
              np.array([22], np.uint64), np.array([23, 27], np.uint64)], True)
    def test_matches_one_sort_of_all_keys(self, runs, threaded):
        keys = np.sort(np.concatenate(runs))
        # hypothesis refuses function-scoped fixtures such as monkeypatch
        with mock.patch.object(timetag, "_in_fork_worker", not threaded), \
                mock.patch.object(timetag, "_usable_cpus", lambda: 2):
            got = timetag._merge_runs(list(runs))
        assert got.times_ps.dtype == np.int64 and got.detectors.dtype == np.int8
        assert got.times_ps.tolist() == (keys >> np.uint64(2)).tolist()
        assert got.detectors.tolist() == (keys & np.uint64(3)).tolist()

    def test_runs_are_freed_before_either_sort(self, monkeypatch):
        # the merge copies the runs into its buffer in the caller and frees
        # them before the parts are sorted: runs alive beside the sorts, or
        # copied on the helper, raised simulate's resident peak
        refs, alive = [], []
        merge, sort = timetag._merge_runs, timetag._sort_and_split

        def merging(runs):
            refs.extend(weakref.ref(run) for run in runs)
            return merge(runs)

        def sorting(key, dets):
            alive.append(sum(ref() is not None for ref in refs))
            sort(key, dets)

        monkeypatch.setattr(timetag, "_merge_runs", merging)
        monkeypatch.setattr(timetag, "_sort_and_split", sorting)
        simulate(SourceConfig(2e4, 0.1, seed=1), IDEAL, BANK, TimingConfig())
        assert len(refs) == 4
        assert alive == [0, 0]


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

    # draws taken a chunk at a time: none, one, and one short of, at, one
    # past and one past two chunks
    SEAMS = [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)]

    @staticmethod
    def assert_matches_choice(w, n, seed):
        ours = np.random.default_rng(seed)
        numpys = np.random.default_rng(seed)
        got = draw_patterns(ours, w, n)
        assert got.dtype == np.uint8
        assert np.array_equal(got, numpys.choice(len(w), size=n, p=w))
        assert ours.bit_generator.state == numpys.bit_generator.state

    @pytest.mark.parametrize("chunks, extra", SEAMS)
    def test_matches_generator_choice_at_chunk_seams(self, chunks, extra):
        self.assert_matches_choice(np.array([0.2, 0.0, 0.5, 0.3]), chunks * _CHUNK + extra, 7)

    @settings(max_examples=200, deadline=None)
    @given(w=pattern_weights(), chunk=st.integers(1, 9), seam=st.sampled_from(SEAMS),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_generator_choice_at_small_chunk_seams(self, w, chunk, seam, seed):
        # hypothesis refuses function-scoped fixtures such as monkeypatch
        with mock.patch.object(timetag, "_CHUNK", chunk):
            self.assert_matches_choice(w, seam[0] * chunk + seam[1], seed)


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

    @pytest.mark.parametrize("duration_s", [1e-3, 9_500.0], ids=["below-2^32-ps", "above-2^32-ps"])
    def test_synthetic_times_chunks_are_one_integers_call(self, duration_s):
        # 150,199 times, an odd count that ends inside the third chunk;
        # below 2^32 ps each time takes half of a 64-bit output, so the last
        # one leaves the other half in the generator's state
        one, chunked = np.random.default_rng(2024), np.random.default_rng(2024)
        n = int(one.poisson(150_000.0))
        want = one.integers(0, duration_ps(duration_s), size=n, dtype=np.int64)
        got_n, run_ps, chunks = synthetic_times(150_000.0 / duration_s, duration_s, chunked)
        got = np.concatenate(list(chunks))
        assert (got_n, run_ps, n % 2, 2 * _CHUNK < n < 3 * _CHUNK) == (
            n, duration_ps(duration_s), 1, True)
        assert np.array_equal(got, want), f"numpy {np.__version__} moved the chunked integers_int64 stream"
        assert chunked.bit_generator.state == one.bit_generator.state, (
            f"numpy {np.__version__} left a chunked integers_int64 draw elsewhere")


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


def _pile_ups(gap_ps):
    """Two 3-click pile-ups under a 3 ns window, each leaving a click that
    could pair with one of the other's, gap_ps from the first's last click
    to the second's first: two clusters when the gap is longer than the
    window, one 6-click cluster when it is the window."""
    times = np.array([0, 1000, 2000, 2000 + gap_ps, 3000 + gap_ps, 4000 + gap_ps], np.int64)
    return times, np.array([0, 1, 2, 0, 1, 3], np.int8), 3000, 1 if gap_ps <= 3000 else 2


_PILE_UPS_APART = _pile_ups(3001)
_PILE_UPS_MERGED = _pile_ups(3000)
# a pile-up, then a two-click cluster and a singleton, one window + 1 ps apart
_PILE_UP_THEN_PAIR_AND_SINGLETON = (np.array([0, 1000, 2000, 5001, 6001, 9002], np.int64),
                                    np.array([0, 1, 2, 3, 0, 1], np.int8), 3000, 1)
# clusters whose first two clicks share a detector: a two-click one (no
# pair), a pile-up whose click 0 pairs with click 2, one that never pairs
_PAIR_ON_ONE_DETECTOR = (np.array([0, 1000], np.int64), np.array([2, 2], np.int8), 3000, 0)
_PILE_UP_PAIRS_FIRST_WITH_THIRD = (np.array([0, 1000, 2000], np.int64),
                                   np.array([0, 0, 3], np.int8), 3000, 1)
_PILE_UP_ON_ONE_DETECTOR = (np.array([0, 1000, 2000], np.int64),
                            np.array([1, 1, 1], np.int8), 3000, 1)


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

    @pytest.mark.parametrize("at", [1, 3, 5, 7, 9])
    def test_unsorted_rejected_in_either_half_and_at_chunk_seams(self, monkeypatch, forks, at):
        # ten clicks 10 ns apart, cut into pieces at the first gap past
        # every second click; click ``at`` steps back to 1 ps before the
        # click before it, so that no cut falls there and a piece holds the
        # step back: in the helper's first half of the pieces (1, 3, 5) or in
        # the caller's (7, 9), on a piece's first gap or on a later one
        times = np.arange(10, dtype=np.int64) * 10_000
        times[at] = times[at - 1] - 1
        monkeypatch.setattr(timetag, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(timetag, "_CHUNK", 2)
        before = threading.active_count()
        with pytest.raises(ValueError, match="detection events must be time-sorted"):
            coincidence_filter(EventStream(times, np.zeros(10, np.int8)), TimingConfig())
        assert threading.active_count() == before
        TestSimulateThreads.assert_fan_out_forks(forks)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 1 << 16])
    @pytest.mark.parametrize("trial", range(3))
    def test_gaps_taken_in_chunks(self, monkeypatch, chunk, trial):
        rng = np.random.default_rng(2000 + trial)
        times = np.sort(rng.integers(0, 40_000, 60)).astype(np.int64)
        dets = rng.integers(0, 4, 60).astype(np.int8)
        want = coincidence_filter(EventStream(times, dets), NO_NOISE)
        monkeypatch.setattr(timetag, "_CHUNK", chunk)
        assert_same_coincidences(coincidence_filter(EventStream(times, dets), NO_NOISE), want)

    def test_cross_arm_labeling(self):
        stream = coincidence_filter(
            events((Detector.D4, 10), (Detector.D1, 400)), TimingConfig()
        )
        assert [label for label, _ in labels_at(stream)] == [PairLabel.D1D4]
        # indexed by a * 4 + b for detectors a and b in either order: every
        # same-detector slot reads -1, and each label fills its two slots
        table = _LABEL_TABLE.reshape(4, 4)
        for d in Detector:
            assert table[d, d] == -1
        assert (table == table.T).all()
        assert sorted(_LABEL_TABLE[_LABEL_TABLE >= 0].tolist()) == sorted(list(PairLabel) * 2)

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
    @example((np.empty(0, np.int64), np.empty(0, np.int8), 3000, 0))  # no clicks
    @example(_PILE_UPS_APART)
    @example(_PILE_UPS_MERGED)
    @example(_PILE_UP_THEN_PAIR_AND_SINGLETON)
    @example(_PAIR_ON_ONE_DETECTOR)
    @example(_PILE_UP_PAIRS_FIRST_WITH_THIRD)
    @example(_PILE_UP_ON_ONE_DETECTOR)
    def test_matches_reference_greedy_on_clustered_streams(self, stream):
        times, dets, window_ps, n_big = stream
        timing = TimingConfig(coincidence_window_ns=window_ps / 1000.0)
        assert timing.window_ps == window_ps
        got = coincidence_filter(EventStream(times, dets), timing)
        assert got.times_ps.dtype == np.int64 and got.labels.dtype == np.int8
        want = reference_greedy_pairs(times.tolist(), dets.tolist(), window_ps)
        assert got.times_ps.tolist() == [int(times[i]) for i, _ in want]
        assert got.labels.tolist() == [
            int(_LABEL_OF_MEMBERS[frozenset((int(dets[i]), int(dets[j])))]) for i, j in want
        ]
        assert got.n_unpaired == len(times) - 2 * len(want)
        assert got.n_multi_click_clusters == n_big
        assert got.n_events_in == len(times)

    @settings(max_examples=300, deadline=None)
    @given(clustered_streams(), st.integers(0, 40))
    @example(_PILE_UPS_APART, 1)
    def test_cut_between_clusters_joins_the_halves(self, stream, k):
        # a cut at either end or at any gap longer than the window splits
        # no cluster, so the halves pair as the whole stream does
        times, dets, window_ps, _ = stream
        timing = TimingConfig(coincidence_window_ns=window_ps / 1000.0)
        cuts = [0, *(np.flatnonzero(np.diff(times) > window_ps) + 1).tolist(), len(times)]
        cut = cuts[k % len(cuts)]
        whole = coincidence_filter(EventStream(times, dets), timing)
        halves = [coincidence_filter(EventStream(times[part], dets[part]), timing)
                  for part in (slice(None, cut), slice(cut, None))]
        for field in ("times_ps", "labels"):
            joined = np.concatenate([getattr(half, field) for half in halves])
            assert getattr(whole, field).tobytes() == joined.tobytes()
        for count in ("n_events_in", "n_unpaired", "n_multi_click_clusters"):
            assert getattr(whole, count) == sum(getattr(half, count) for half in halves)

    # The traced peak reads 7.51 bytes a click inline and threaded alike:
    # the output arrays the caller makes, 4.5 bytes a click, then the
    # joined output, about 3, and one piece's temporaries.  Pairing the
    # whole stream in one call read 8.26 inline, and two halves on two
    # threads 6.76-9.18 (2-vCPU host, numpy 2.4).
    @pytest.mark.parametrize("inline", [True, False], ids=["inline", "threaded"])
    def test_peak_memory_per_click(self, monkeypatch, inline):
        # 901,425 clicks; the input's times and detectors are 9 bytes a click
        src = SourceConfig(pair_rate_hz=2000.0, duration_s=300.0, seed=5)
        stream = simulate(src, IDEAL, BANK, TimingConfig())
        monkeypatch.setattr(timetag, "_in_fork_worker", inline)
        tracemalloc.start()
        try:
            coincidence_filter(stream, TimingConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(stream) == 901_425
        assert peak < 8.0 * len(stream)

    @staticmethod
    def piece_lengths(fn, *args) -> list:
        """The lengths of the pieces ``fn(*args)`` pairs, one
        ``_pair_clusters`` call each, in the order the calls start."""
        lengths = []
        pair = timetag._pair_clusters

        def counted(*args):
            lengths.append(len(args[0]))
            return pair(*args)

        with mock.patch.object(timetag, "_pair_clusters", counted):
            fn(*args)
        return lengths

    @settings(max_examples=300, deadline=None)
    @given(clustered_streams(), st.integers(1, 8), st.integers(1, 6))
    @example(_PILE_UPS_APART, 2, 1)
    @example(_PILE_UPS_MERGED, 2, 1)
    def test_two_halves_pair_as_one_call(self, stream, chunk, lookahead):
        # with chunk clicks a piece and a short look-ahead, many pieces: the
        # helper pairs the first half of them, the caller the rest, and the
        # bytes are those of one inline call over the whole stream.  The
        # cuts fall at the first gap longer than the window (never at a gap
        # of the window) past each multiple of chunk, searched lookahead
        # clicks on; a mark inside a piece that ran on past it cuts nothing
        times, dets, window_ps, _ = stream
        timing = TimingConfig(coincidence_window_ns=window_ps / 1000.0)
        events_ = EventStream(times, dets)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(timetag, "_in_fork_worker", True)
            assert self.piece_lengths(coincidence_filter, events_, timing) == [len(times)]
            whole = coincidence_filter(events_, timing)
            mp.setattr(timetag, "_in_fork_worker", False)
            mp.setattr(timetag, "_usable_cpus", lambda: 2)
            mp.setattr(timetag, "_CHUNK", chunk)
            mp.setattr(timetag, "_CUT_LOOKAHEAD", lookahead)
            lengths = self.piece_lengths(coincidence_filter, events_, timing)
            got = coincidence_filter(events_, timing)
        assert_same_coincidences(got, whole)
        after_gap = (np.flatnonzero(np.diff(times) > window_ps) + 1).tolist()
        cuts = [0]
        for mark in range(chunk, len(times), chunk):
            found = [c for c in after_gap if mark < c <= mark + lookahead]
            if found and mark >= cuts[-1]:
                cuts.append(found[0])
        assert sorted(lengths) == sorted(np.diff(cuts + [len(times)]).tolist())

    def test_two_halves_pair_a_high_flux_stream_as_one_call(self, monkeypatch):
        # a scan_highflux point's stream: 2 MHz of pairs off the dip, where
        # pile-ups of three or more clicks are common; its 65,530 clicks
        # paired in pieces of about 4,096, on both threads
        src = SourceConfig(pair_rate_hz=2e6, duration_s=0.02, seed=7)
        stream = simulate(src, InterferometerConfig(delay_fs=300.0), BANK, TimingConfig())
        monkeypatch.setattr(timetag, "_in_fork_worker", True)
        inline = coincidence_filter(stream, TimingConfig())
        monkeypatch.setattr(timetag, "_in_fork_worker", False)
        monkeypatch.setattr(timetag, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(timetag, "_CHUNK", 4096)
        assert _thread_starts(coincidence_filter, stream, TimingConfig()) == 1
        lengths = self.piece_lengths(coincidence_filter, stream, TimingConfig())
        assert len(lengths) == 16 and sum(lengths) == len(stream)
        assert_same_coincidences(coincidence_filter(stream, TimingConfig()), inline)
        assert inline.n_multi_click_clusters > 100

    @pytest.mark.parametrize("gap_at, cuts", [
        (None, 0), (0, 1), (timetag._CUT_LOOKAHEAD - 1, 1), (timetag._CUT_LOOKAHEAD, 0),
    ], ids=["no-gap", "at-middle", "last-in-look-ahead", "past-look-ahead"])
    def test_one_call_without_a_gap_near_the_middle(self, monkeypatch, gap_at, cuts):
        # 4,000 clicks 1 ns apart, all in one cluster under a 3 ns window,
        # but for one gap of 5 ns after click 2,000 + gap_at, counted from
        # the middle, the one multiple of a 2,000-click chunk: a gap within
        # the look-ahead cuts the clicks in two pieces, and with none the
        # piece runs on to the end
        times = np.arange(4000, dtype=np.int64) * 1000
        if gap_at is not None:
            times[2001 + gap_at:] += 4000
        dets = np.tile(np.arange(4, dtype=np.int8), 1000)
        monkeypatch.setattr(timetag, "_in_fork_worker", True)
        inline = coincidence_filter(EventStream(times, dets), TimingConfig())
        monkeypatch.setattr(timetag, "_in_fork_worker", False)
        monkeypatch.setattr(timetag, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(timetag, "_CHUNK", 2000)
        lengths = self.piece_lengths(coincidence_filter, EventStream(times, dets), TimingConfig())
        assert sorted(lengths) == sorted([2001 + gap_at, 1999 - gap_at] if cuts else [4000])
        assert_same_coincidences(coincidence_filter(EventStream(times, dets), TimingConfig()),
                                 inline)

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
    def assert_matches_serial_point_loop() -> np.ndarray:
        """Scan more points than workers, so workers take several points
        each, check every point against the points run one after another,
        and return the counts."""
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
        return counts

    def test_matches_serial_point_loop(self):
        self.assert_matches_serial_point_loop()

    def test_one_pool_of_at_most_one_worker_per_cpu_and_point(self, forks):
        assert threading.active_count() == 1
        src = SourceConfig(pair_rate_hz=1000.0, duration_s=0.1, seed=3)
        for n_points in (2, 5):
            scan_delay(np.linspace(0.0, 400.0, n_points), src, IDEAL, BANK, TimingConfig())
        # forked from a single-threaded caller on Linux, run in the caller elsewhere
        if sys.platform == "linux":
            cpus = len(os.sched_getaffinity(0))
            assert forks == [min(cpus, 2), min(cpus, 5)]
        else:
            assert forks == []

    def test_runs_in_the_caller_while_another_python_thread_runs(
        self, forks, another_python_thread
    ):
        forked = self.assert_matches_serial_point_loop()
        forks.clear()
        with another_python_thread():
            in_caller = self.assert_matches_serial_point_loop()
            assert scan_workers(len(in_caller)) == 1
        assert forks == []
        assert np.array_equal(in_caller, forked)

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
        results = fan_out(_filled, 0, range(n), 2**18)
        assert [(int(r[0]), int(r[-1]), len(r)) for r in results] == [
            (i, i, 2**18) for i in range(n)
        ]

    @pytest.mark.parametrize("first_failing", [1, 2, 4])
    def test_earliest_failing_call_is_raised(self, first_failing):
        # every call from first_failing on raises, in whichever worker it runs
        n = max(5, scan_workers(10**6) + 1)
        with pytest.raises(ValueError, match=f"^call {first_failing}$"):
            fan_out(_failing_from, 0, range(n), first_failing)


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
