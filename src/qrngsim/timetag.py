"""Time-domain Monte Carlo of the detection chain.

Pairs are emitted as a homogeneous Poisson process; each pair samples a
detector click pattern from the closed-form optics model.  Clicks get
Gaussian timing jitter, merge with per-detector dark-count streams, and
pass through a non-paralyzable dead-time filter.  A greedy coincidence
circuit then pairs clicks that fall within the coincidence window, and a
purity monitor watches the cross-arm labels that must stay silent while
the interferometer sits on the dip.

All timestamps are integer picoseconds so that identical (config, seed)
inputs reproduce identical event streams byte for byte on any platform.
"""

from __future__ import annotations

import dataclasses
import math
import os
import pickle
import sys
import threading
from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np

from .optics import (
    Detector,
    DetectorBank,
    InterferometerConfig,
    click_distribution,
    output_distribution,
)

PS_PER_SECOND = 10**12
_INT64_MAX = np.iinfo(np.int64).max
# the longest run, about 4.6e6 s: times up to twice it, jitter tail and dead
# time included, still fit int64
MAX_DURATION_PS = _INT64_MAX // 2
# the widest timing jitter, one second: its draws, 40 sigma and all, stay
# far inside the int64 headroom the duration cap leaves
MAX_JITTER_SIGMA_PS = 1e12
# the largest mean Generator.poisson accepts (numpy's POISSON_LAM_MAX)
_POISSON_MEAN_MAX = _INT64_MAX - 10 * math.sqrt(_INT64_MAX)


class MonitorAlarm(RuntimeError):
    """Cross-arm coincidences exceeded the purity monitor's threshold."""


class PairLabel(IntEnum):
    """Coincidence labels; D1D2/D3D4 carry bits, the rest are cross-arm."""

    D1D2 = 0
    D3D4 = 1
    D1D3 = 2
    D1D4 = 3
    D2D3 = 4
    D2D4 = 5


CROSS_ARM_LABELS = (PairLabel.D1D3, PairLabel.D1D4, PairLabel.D2D3, PairLabel.D2D4)

# flat lookup table indexed by a * 4 + b for a pair's detectors a and b, in
# either order, read from each label's name; the same-detector slots hold
# -1, no pair
_LABEL_TABLE = np.full(16, -1, dtype=np.int8)
for _lab in PairLabel:
    _a, _b = Detector[_lab.name[:2]], Detector[_lab.name[2:]]
    _LABEL_TABLE[[_a * 4 + _b, _b * 4 + _a]] = _lab


def duration_ps(duration_s: float) -> int:
    """A run length in whole picoseconds, from 1 ps to MAX_DURATION_PS."""
    if not (duration_s > 0.0) or not math.isfinite(duration_s):
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    ps = round(min(duration_s * PS_PER_SECOND, 2 * MAX_DURATION_PS))  # 1e308 s is inf ps
    if not 1 <= ps <= MAX_DURATION_PS:
        raise ValueError(
            f"duration_s must lie in 1e-12 to {MAX_DURATION_PS / PS_PER_SECOND:.4g} s, "
            f"got {duration_s}"
        )
    return ps


def _poisson_mean(rate_name: str, rate_hz: float, duration_s: float) -> float:
    """rate_hz * duration_s, the mean of a run's Poisson count.  A mean past
    Generator.poisson's range raises MemoryError, before anything is drawn:
    that many events would not fit in memory either."""
    mean = rate_hz * duration_s
    if mean > _POISSON_MEAN_MAX:
        raise MemoryError(
            f"{rate_name} {rate_hz:g} times duration_s {duration_s:g} is a mean count of "
            f"{mean:.4g}, past the {_POISSON_MEAN_MAX:.5g} a Poisson draw takes"
        )
    return mean


@dataclass(frozen=True)
class SourceConfig:
    """Pair source: mean detected-pair rate, run length, RNG seed."""

    pair_rate_hz: float
    duration_s: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.pair_rate_hz >= 0.0) or not math.isfinite(self.pair_rate_hz):
            raise ValueError(f"pair_rate_hz must be >= 0, got {self.pair_rate_hz}")
        duration_ps(self.duration_s)


@dataclass(frozen=True)
class TimingConfig:
    """Per-click timing model and the coincidence window."""

    jitter_sigma_ps: float = 300.0
    dead_time_ns: float = 50.0
    coincidence_window_ns: float = 3.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.jitter_sigma_ps <= MAX_JITTER_SIGMA_PS):
            raise ValueError(
                f"jitter_sigma_ps must lie in 0 to {MAX_JITTER_SIGMA_PS:.0e}, "
                f"got {self.jitter_sigma_ps}"
            )
        # both are used in whole ps, so each must stay finite once in ps
        if not (self.dead_time_ns >= 0.0) or not math.isfinite(self.dead_time_ns * 1000.0):
            raise ValueError(f"dead_time_ns must be >= 0 and finite in ps, got {self.dead_time_ns}")
        # a window that rounds to 0 ps pairs nothing
        if not (math.isfinite(self.coincidence_window_ns * 1000.0) and self.window_ps >= 1):
            raise ValueError(
                f"coincidence_window_ns must be finite in ps and round to at least 1 ps, "
                f"got {self.coincidence_window_ns}"
            )

    @property
    def window_ps(self) -> int:
        return round(self.coincidence_window_ns * 1000.0)

    @property
    def dead_time_ps(self) -> int:
        return round(self.dead_time_ns * 1000.0)


@dataclass(eq=False)
class EventStream:
    """Time-sorted detector clicks: int64 times and int8 detectors."""

    times_ps: np.ndarray
    detectors: np.ndarray

    def __len__(self) -> int:
        return len(self.times_ps)


@dataclass(eq=False)
class CoincidenceStream:
    """Time-sorted coincidences (int64 times, int8 labels) plus bookkeeping
    from the pairing pass.

    ``n_multi_click_clusters`` counts windows holding three or more clicks
    (the simulation analog of four-fold pile-up); such clusters are paired
    greedily rather than dropped, and the count travels with the stream so
    run metadata can flag them.  Only coincidence_filter fills the counts;
    select and synthetic_coincidences leave them 0.
    """

    times_ps: np.ndarray
    labels: np.ndarray
    n_events_in: int = 0
    n_unpaired: int = 0
    n_multi_click_clusters: int = 0

    def __len__(self) -> int:
        return len(self.times_ps)

    def select(self, labels) -> "CoincidenceStream":
        wanted = np.isin(self.labels, labels, kind="sort")
        return CoincidenceStream(self.times_ps[wanted], self.labels[wanted])


def _dead_time_filter(times: np.ndarray, dead_ps: int) -> np.ndarray:
    """Non-paralyzable dead time: drop clicks within dead_ps of the last
    kept click.  Returns a boolean keep mask; a dead_ps of 0 keeps all.

    A click more than dead_ps after its predecessor is always kept.  The
    rest form chains of short gaps, each opened by a kept head; a kept
    click's successor is the first click more than dead_ps after it, found
    by searchsorted for every chain at once.  The loop therefore runs once
    per kept click of the longest chain.  Targets are clipped at INT64_MAX
    so that times + dead_ps cannot wrap.  Short gaps are rare (about 1e-4
    of the clicks at 2 kHz), so the chains are found from their indices
    alone, not from full-length passes.
    """
    n = len(times)
    keep = np.ones(n, dtype=bool)
    if n < 2 or dead_ps <= 0:
        return keep
    # click gap[i] + 1 comes within dead_ps of click gap[i]
    gap = np.flatnonzero(np.diff(times) <= dead_ps)
    if not len(gap):
        return keep
    keep[gap + 1] = False
    # runs of consecutive short gaps: head click (first of the run) and
    # last click
    breaks = np.flatnonzero(gap[1:] != gap[:-1] + 1)
    frontier = gap[np.concatenate(([0], breaks + 1))]
    last = gap[np.append(breaks, len(gap) - 1)] + 1
    dead = min(dead_ps, _INT64_MAX)
    while len(frontier):
        target = np.minimum(times[frontier], _INT64_MAX - dead) + dead
        successor = np.searchsorted(times, target, side="right")
        inside = successor <= last
        frontier = successor[inside]
        last = last[inside]
        keep[frontier] = True
    return keep


def draw_patterns(rng: np.random.Generator, weights, n: int) -> np.ndarray:
    """n pattern indices (uint8) drawn with probabilities ``weights``: the
    values and generator state of ``rng.choice(len(weights), size=n,
    p=weights)``, by ``_draw_patterns_into``."""
    idx = np.empty(n, dtype=np.uint8)
    _draw_patterns_into(rng, weights, np.arange(len(weights), dtype=np.uint8), idx,
                        np.empty(_CHUNK), np.empty(_CHUNK, dtype=bool))
    return idx


def _draw_patterns_into(rng, weights, values: np.ndarray, out: np.ndarray,
                        u: np.ndarray, scratch: np.ndarray) -> None:
    """``values[draw_patterns(rng, weights, len(out))]`` (uint8) into
    ``out`` by numpy's recipe for ``choice``, one ``random()`` per draw
    against the normalised cdf, ``len(u)`` draws at a time through ``u``
    and ``scratch`` (bool, as long): one call draws what the chunks do.
    Counting the cdf edges a draw passes gives the index that
    ``searchsorted(side="right")`` would, without a binary search: each
    edge k passed adds values[k + 1] - values[k], in wrapping uint8
    arithmetic, so the sum from values[0] ends at the drawn value."""
    cdf = np.cumsum(weights, dtype=np.float64)
    cdf /= cdf[-1]
    for lo in range(0, len(out), len(u)):
        part = out[lo : lo + len(u)]
        draws, passed = u[: len(part)], scratch[: len(part)]
        step_or_zero = passed.view(np.uint8)
        rng.random(out=draws)
        part.fill(values[0])
        for edge, step in zip(cdf[:-1], np.diff(values)):
            np.greater_equal(draws, edge, out=passed)
            step_or_zero *= step
            part += step_or_zero


# simulate's passes, pairing pieces and synthetic times take about this many
# values at a time (512 KiB of 8-byte ones), not full-length temporaries
_CHUNK = 1 << 16

_in_fork_worker = False  # true in fan_out's forked workers


def _threaded() -> bool:
    """Whether ``_beside`` runs its helper's call on a second thread: not in
    ``fan_out``'s forked workers, whose siblings keep the other cores busy
    (with helper threads there, fresh-process ``scan-delay`` runs on the
    ``scan_highflux`` argv took a median 1.09 times as long over 12
    alternated pairs, 2-vCPU host), nor with one usable CPU."""
    return not _in_fork_worker and _usable_cpus() > 1


def _beside(helper_call, caller_call) -> tuple:
    """``(helper_call(), caller_call())``, the helper's call on a new thread
    beside the caller's where ``_threaded()``, else inline before it.  Both
    calls run either way; the thread is joined before anything returns or
    raises, and an exception raised by the helper's call is raised again
    once the caller's call has returned."""
    outcome = [None, None]  # the helper's (result, exception)

    def call():
        try:
            outcome[0] = helper_call()
        except BaseException as exc:  # raised again in the caller
            outcome[1] = exc

    thread = None
    if _threaded():
        thread = threading.Thread(target=call, name="qrngsim-helper")
        thread.start()
    else:
        call()
    try:
        mine = caller_call()
    finally:
        if thread is not None:
            thread.join()
    if outcome[1] is not None:
        raise outcome[1]
    return outcome[0], mine


def _detector_clicks(pair_times, fired, det: int, scratch) -> np.ndarray:
    """The ``pair_times`` whose firing masks ``fired`` set bit ``det``, counted,
    then selected ``len(scratch)`` (bool) at a time into an exact array."""
    bit, step = np.uint8(1 << det), len(scratch)
    sizes = [np.count_nonzero(fired[lo : lo + step] & bit) for lo in range(0, len(fired), step)]
    t = np.empty(sum(sizes), dtype=np.int64)
    for lo, at, k in zip(range(0, len(fired), step), np.cumsum([0, *sizes]).tolist(), sizes):
        hit = scratch[: len(fired) - lo]
        np.bitwise_and(fired[lo : lo + step], bit, out=hit, casting="unsafe")
        np.compress(hit, pair_times[lo : lo + step], out=t[at : at + k])
    return t


def _detector_draws(rng, t: np.ndarray, sigma: float, chunk: np.ndarray, mean_darks: float) -> int:
    """One detector's draws but its dark-count times: its jitter, added to
    its click times ``t`` in place a ``chunk`` at a time, then its number of
    dark counts."""
    if sigma > 0.0:
        for lo in range(0, len(t), len(chunk)):
            z = chunk[: len(t) - lo]
            rng.standard_normal(out=z)
            z *= sigma
            np.rint(z, out=z)
            part = t[lo : lo + len(z)]
            np.add(part, z, out=part, dtype=np.int64, casting="unsafe")
    return int(rng.poisson(mean_darks))


def simulate(
    source: SourceConfig,
    interf: InterferometerConfig,
    bank: DetectorBank,
    timing: TimingConfig,
) -> EventStream:
    """Simulate detector clicks for one run.

    Draw order is fixed (pair count, pair times, click patterns, then per
    detector D1..D4: jitter, dark counts) so a given seed always produces
    the same stream.  The pattern draw reproduces ``Generator.choice``
    (``draw_patterns``; ``TestDrawPatterns`` pins it against ``choice``).
    Clicks jittered outside [0, duration) are dropped.

    Each draw after the pair times is the helper's call of a ``_beside``
    step, beside the caller's work that draws nothing, so no two draws
    share the generator at once.  The caller draws the dark times and makes
    every array the helper fills, so the helper allocates only the merge's
    sort buffer: a second thread's arrays stay in its own malloc arena and
    raise the peak RSS (dark times drawn on the helper cost 6 MB at 300 Hz
    darks over 1,175 s, 47 MB at 3 kHz; copying the runs on both threads
    raised ``generate``'s peak from 109.0 to 124.7 MB).

    The pattern draw, each detector's selection and the jitter take
    ``_CHUNK`` pairs at a time through two buffers made once.  The jitter,
    ``rng.standard_normal(out=chunk)`` scaled by sigma, rounded and added
    with an unsafe cast to int64, equals ``np.rint(rng.normal(0.0, sigma,
    n)).astype(np.int64)`` element for element, as ``normal`` is sigma
    times the same standard normal (``TestSimulateOracle`` draws
    ``normal``).  Keeping 37.5 % of 3.5 M random int64, as a selection does
    at the dip, ``np.compress`` takes 10-11 ms and a boolean index 26-27 ms
    (numpy 2.4, one core of a 2-vCPU host); the dead-time keep mask drops
    about 1e-4 of the clicks, the boolean index's fast case (7 ms against
    14 ms).
    """
    mean_pairs = _poisson_mean("pair_rate_hz", source.pair_rate_hz, source.duration_s)
    mean_darks = _poisson_mean("dark_rate_hz", bank.dark_rate_hz, source.duration_s)
    rng = np.random.default_rng(source.seed)
    run_ps = duration_ps(source.duration_s)

    n_pairs = int(rng.poisson(mean_pairs))
    pair_times = rng.integers(0, run_ps, size=n_pairs, dtype=np.int64)

    clicks = click_distribution(output_distribution(interf), bank)
    # bit d of pattern k's mask is set if the pattern fires detector d
    masks = np.array([sum(1 << int(det) for det in p) for p in clicks], dtype=np.uint8)
    fired = np.empty(n_pairs, dtype=np.uint8)
    chunk = np.empty(_CHUNK)
    scratch = np.empty(_CHUNK, dtype=bool)

    def draws(t):
        return lambda: _detector_draws(rng, t, timing.jitter_sigma_ps, chunk, mean_darks)

    def keyed(t, darks, det):
        """Detector det's clicks t (jittered) and dark times darks (or None)
        as the sorted keys (t << 2) | det of the clicks kept.  Kept times lie
        below MAX_DURATION_PS, just under 2^62 ps, so the key needs all 64
        bits: uint64, since a signed key wraps from 2^61 ps on."""
        if darks is not None:
            t = np.concatenate((t, darks))
        # jitter leaves the clicks nearly in pair order, where timsort is
        # linear; once sorted, the clicks jittered outside [0, run_ps) are
        # the two ends, so the clip is a slice
        t.sort(kind="stable")
        t = t[np.searchsorted(t, 0) : np.searchsorted(t, run_ps)]
        key = t[_dead_time_filter(t, timing.dead_time_ps)].view(np.uint64)
        key <<= np.uint64(2)
        key |= np.uint64(det)
        return key

    _beside(lambda: _draw_patterns_into(rng, list(clicks.values()), masks, fired, chunk, scratch),
            pair_times.sort)
    t = _detector_clicks(pair_times, fired, 0, scratch)
    n_dark, later = _beside(draws(t), lambda: [_detector_clicks(pair_times, fired, det, scratch)
                                               for det in (1, 2, 3)])
    del pair_times, fired
    keys = []
    for det in range(4):
        darks = rng.integers(0, run_ps, size=n_dark, dtype=np.int64) if n_dark else None
        if later:
            n_dark, key = _beside(draws(later[0]), lambda: keyed(t, darks, det))
            t = later.pop(0)  # frees this detector's clicks before the next one's
        else:
            key = keyed(t, darks, det)
        keys.append(key)
        del darks
    del t, key  # the runs live in keys alone, so the merge can free them
    return _merge_runs(keys)


def _merge_runs(runs: list) -> EventStream:
    """The clicks of the sorted key runs ``runs`` (emptied) in time order.

    Sorting the keys orders clicks by time, then ties by detector:
    lexsort's order on (time, detector).  Each run's keys below the middle
    key of the longest go to the lower part of one buffer, the rest to the
    upper, so that the two parts, sorted apart, sort the whole; for uint64
    the stable sort is timsort, which merges a part's four sorted pieces in
    linear time.  The runs are freed before the two parts are sorted beside
    each other (``_beside``).
    """
    longest = max(runs, key=len)
    splitter = longest[len(longest) // 2] if len(longest) else 0
    del longest
    cuts = [np.searchsorted(run, splitter) for run in runs]
    key = np.concatenate([run[:cut] for run, cut in zip(runs, cuts)]
                         + [run[cut:] for run, cut in zip(runs, cuts)])
    runs.clear()
    dets = np.empty(len(key), dtype=np.uint8)
    m = sum(cuts)
    _beside(lambda: _sort_and_split(key[:m], dets[:m]),
            lambda: _sort_and_split(key[m:], dets[m:]))
    return EventStream(key.view(np.int64), dets.view(np.int8))


def _sort_and_split(key: np.ndarray, dets: np.ndarray) -> None:
    """Sort ``key`` in place, then split each key into its detector, into
    ``dets``, and its time, left in ``key``."""
    key.sort(kind="stable")
    np.bitwise_and(key, np.uint64(3), out=dets, casting="unsafe")
    key >>= np.uint64(2)


def _greedy_pairs(times, dets, window_ps: int) -> list:
    """Greedy earliest-first pairing of time-sorted clicks (Python ints);
    returns the (earlier, later) index of each pair.  A scan stops at the
    first click over a window on, and whole clusters lie over a window
    apart even with others left out between, so each pairs as if alone."""
    n = len(times)
    consumed = [False] * n
    pairs = []
    for a in range(n):
        if consumed[a]:
            continue
        for b in range(a + 1, n):
            if consumed[b]:
                continue
            if times[b] - times[a] > window_ps:
                break
            if dets[b] != dets[a]:
                consumed[a] = consumed[b] = True
                pairs.append((a, b))
                break
    return pairs


_CUT_LOOKAHEAD = 1024  # clicks searched for a cut past each multiple of _CHUNK


def coincidence_filter(events: EventStream, timing: TimingConfig) -> CoincidenceStream:
    """Pair clicks within the coincidence window, earliest first.

    A click pairs with the earliest later click on a different detector no
    more than one window away; both clicks are consumed.  Clicks separated
    by more than the window can never pair, so the stream splits into
    independent clusters.  The first two clicks of every cluster of two or
    more are labelled in numpy, through a table that gives -1 for one
    detector twice.  A piece's rare clusters of three or more are gathered
    for one call of the scalar greedy rule, which agrees on that pair
    (click 0 pairs with click 1 when their detectors differ) and labels the
    rest of each pile-up.  Each pair is filed under its earlier click's
    index, so the output is time-sorted without a sort.

    A cut at a gap longer than the window splits no cluster, so pieces
    pair as the whole stream does, joined and summed.  The clicks are cut
    at the first such gap at or after each multiple of ``_CHUNK`` clicks;
    with none within ``_CUT_LOOKAHEAD`` clicks, the piece runs on.  Each
    piece is one ``_pair_clusters`` call; the helper pairs the first half
    of the pieces beside the caller, which pairs the rest (``_beside``),
    each into output arrays the caller made, a slot per two of its clicks,
    and the caller joins what they hold.
    """
    times, dets = events.times_ps, events.detectors
    n = len(times)
    window = timing.window_ps
    cuts = [0]
    for mark in range(_CHUNK, n, _CHUNK):
        late = np.flatnonzero(np.diff(times[mark : mark + _CUT_LOOKAHEAD + 1]) > window)
        if len(late) and mark >= cuts[-1]:  # not inside a piece that ran on
            cuts.append(mark + int(late[0]) + 1)
    cuts.append(n)

    def pair(bounds, out_t, out_l):
        k = multi = 0
        for lo, hi in zip(bounds, bounds[1:]):
            got, big = _pair_clusters(times[lo:hi], dets[lo:hi], window, out_t[k:], out_l[k:])
            k, multi = k + got, multi + big
        return out_t[:k], out_l[:k], multi

    half = (len(cuts) - 1) // 2
    sides = [(b, np.empty((b[-1] - b[0]) // 2, np.int64), np.empty((b[-1] - b[0]) // 2, np.int8))
             for b in (cuts[: half + 1], cuts[half:])]
    (t_low, l_low, multi_low), (t_up, l_up, multi_up) = _beside(
        lambda: pair(*sides[0]), lambda: pair(*sides[1]))
    return CoincidenceStream(np.concatenate((t_low, t_up)), np.concatenate((l_low, l_up)),
                             n, n - 2 * (len(t_low) + len(t_up)), multi_low + multi_up)


def _pair_clusters(times: np.ndarray, dets: np.ndarray, window: int,
                   out_times: np.ndarray, out_labels: np.ndarray) -> tuple:
    """coincidence_filter's pairing of the clicks (times, dets) in one call,
    written to the front of ``out_times`` and ``out_labels``: returns the
    number of coincidences and of multi-click clusters."""
    n = len(times)
    gaps = np.diff(times)
    if n > 1 and gaps.min() < 0:
        raise ValueError("detection events must be time-sorted")
    # new_cluster[i]: click i opens a cluster; two sentinels follow the last
    # click, so a cluster's second and third clicks can always be looked up
    new_cluster = np.ones(n + 2, dtype=bool)
    np.greater(gaps, window, out=new_cluster[1:n])
    # a > b on bools is a & ~b: a cluster of two or more clicks starts here
    starts = np.flatnonzero(new_cluster[:n] > new_cluster[1 : n + 1])
    big_starts = starts[~new_cluster[2:][starts]]

    # label of the pair whose earlier click is i, or -1
    label_at = np.full(n, -1, dtype=np.int8)
    label_at[starts] = _LABEL_TABLE[dets[starts] * 4 + dets[1:][starts]]

    # each big cluster ends at the next cluster start, three or more on
    big_ends = big_starts + 3
    open_ = np.flatnonzero(~new_cluster[big_ends])
    while len(open_):
        big_ends[open_] += 1
        open_ = open_[~new_cluster[big_ends[open_]]]
    big_sizes = big_ends - big_starts
    # gathered slot k holds click idx[k]
    offsets = np.cumsum(big_sizes) - big_sizes
    idx = np.arange(big_sizes.sum()) + np.repeat(big_starts - offsets, big_sizes)
    pairs = _greedy_pairs(times[idx].tolist(), dets[idx].tolist(), window)
    first, second = idx[np.array(pairs, dtype=np.intp).reshape(-1, 2)].T
    label_at[first] = _LABEL_TABLE[dets[first] * 4 + dets[second]]

    paired = np.flatnonzero(label_at >= 0)
    # "clip", as a "raise" take copies its output through a buffer
    np.take(times, paired, out=out_times[: len(paired)], mode="clip")
    np.take(label_at, paired, out=out_labels[: len(paired)], mode="clip")
    return len(paired), len(big_starts)


def synthetic_times(rate_hz: float, duration_s: float, rng: np.random.Generator) -> tuple:
    """(n, run_ps, chunks): a Poisson stream's count, drawn from rng, its
    run in ps, and an iterator that draws its int64 times from rng,
    unsorted, ``_CHUNK`` at a time: the values and generator state of one
    ``rng.integers(0, run_ps, n, np.int64)`` call (``TestStreamCanary``)."""
    SourceConfig(rate_hz, duration_s)  # a pair source's rate and duration rules
    n = int(rng.poisson(_poisson_mean("rate_hz", rate_hz, duration_s)))
    run_ps = duration_ps(duration_s)
    return n, run_ps, (rng.integers(0, run_ps, size=min(_CHUNK, n - lo), dtype=np.int64)
                       for lo in range(0, n, _CHUNK))


def synthetic_coincidences(rate_hz: float, duration_s: float, seed: int = 0) -> CoincidenceStream:
    """Poisson stream of ready-made coincidences with fair random labels:
    synthetic_times from seed's generator, sorted, then the labels from the
    same generator.

    Bypasses the optical chain; used to exercise the clocked bit recorder
    at a prescribed coincidence rate.
    """
    rng = np.random.default_rng(seed)
    n, _, chunks = synthetic_times(rate_hz, duration_s, rng)
    times = np.concatenate([np.empty(0, np.int64), *chunks])
    times.sort()
    # D1D2 is 0 and D3D4 is 1
    return CoincidenceStream(times, rng.integers(0, 2, size=n).astype(np.int8))


def label_counts(labels: np.ndarray) -> np.ndarray:
    """The number of coincidences under each ``PairLabel``, in label order."""
    return np.bincount(labels, minlength=len(PairLabel))


def purity_monitor(counts: np.ndarray, threshold: int = 0) -> int:
    """The cross-arm count of ``label_counts``' tally; raises MonitorAlarm
    when it exceeds threshold."""
    cross = int(counts[..., CROSS_ARM_LABELS].sum())
    if cross > threshold:
        raise MonitorAlarm(f"{cross} cross-arm coincidences exceed threshold {threshold}")
    return cross


def point_seed(seed: int, index: int) -> int:
    """Deterministic per-point child seed for scans and fan-out workers."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1, np.uint64)[0])


def _forks() -> bool:
    """Whether ``fan_out`` forks: on Linux while the caller runs one Python
    thread, since a fork copies no other thread, nor the locks it holds."""
    return sys.platform == "linux" and threading.active_count() == 1


def scan_workers(n_points: int) -> int:
    """The processes a scan or any ``fan_out`` of n_points calls runs on:
    one forked worker per usable CPU and at most one per point, or the
    caller alone where ``fan_out`` does not fork."""
    return min(_usable_cpus() if _forks() else 1, n_points)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # Linux
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fan_out(fn, seed: int, points: Sequence, *shared) -> list:
    """``[fn(point_seed(seed, i), point, *shared) for i, point in
    enumerate(points)]``, the calls spread over worker processes.

    Each call gets its own seed and its point; the ``shared`` arguments are
    the same for every call.  Results come back in call order, and if calls
    raise, the exception of the earliest failing call is raised here.

    On Linux, while the caller runs a single Python thread, the calls run
    in ``scan_workers(n)`` workers forked from it with ``os.fork``: they
    start without a new interpreter and without importing anything again,
    worker w runs calls w, w + workers, ... and each sends its results back
    through its own pipe.  ``fn``'s results and exceptions must pickle, and
    a worker that ends without a result, killed or exited, raises
    ``ChildProcessError``.  The only other threads numpy leaves in the
    process are OpenBLAS's, and OpenBLAS joins them in a
    ``pthread_atfork`` handler before each fork (2 threads before
    ``os.fork()``, 1 in parent and child after it, with numpy 2.4.6 and
    OpenBLAS 0.3.31).  Elsewhere, or while other Python threads run, the
    calls run one after another in the caller; since each draws from its
    own seed, the results are the same.
    """
    calls = [(point_seed(seed, i), point, *shared) for i, point in enumerate(points)]
    if _forks():
        return _fork_map(fn, calls, scan_workers(len(calls)))
    return [fn(*call) for call in calls]


def _fork_map(fn, calls: list, workers: int) -> list:
    """``[fn(*call) for call in calls]`` in ``workers`` forked children.

    Each pipe is read to its end before any child is waited for, so a
    result larger than the pipe buffer cannot deadlock, and every child is
    reaped before anything is raised.
    """
    pids, pipes = [], []
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _fork_worker(fn, calls[w::workers], pipes, write_fd)
            finally:
                os.close(write_fd)  # only the parent gets here
            pids.append(pid)
        payloads = [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]

    results = [None] * len(calls)
    failures = []
    for w, (pid, status, payload) in enumerate(zip(pids, statuses, payloads)):
        if status != 0:  # 0 only for a child that wrote its result and exited 0
            raise ChildProcessError(f"fan_out worker {w} (pid {pid}) ended without a result "
                                    f"(wait status {status})")
        done, exc = pickle.loads(payload)
        if exc is None:
            results[w::workers] = done
        else:
            failures.append((w + len(done) * workers, exc))
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results


def _fork_worker(fn, calls: list, pipes: list, write_fd: int) -> None:
    """The body of a forked child: run ``calls`` in order, stopping at the
    first that raises, pickle (results so far, exception or None) into
    ``write_fd`` and end the process, never returning into the caller.
    ``simulate`` and ``coincidence_filter`` run inline here, since the
    other workers keep the other cores busy."""
    global _in_fork_worker
    _in_fork_worker = True
    status = 1
    try:
        for pipe in pipes:  # the read ends, the parent's alone
            pipe.close()
        done = []
        try:
            for call in calls:
                done.append(fn(*call))
            outcome = (done, None)
        except Exception as exc:  # raised again in the parent
            outcome = (done, exc)
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(outcome))
        status = 0
    finally:
        os._exit(status)


def _scan_point(seed, interf, source, bank, timing) -> np.ndarray:
    """One delay point, run by ``fan_out``: its six label counts."""
    source = dataclasses.replace(source, seed=seed)
    return label_counts(coincidence_filter(simulate(source, interf, bank, timing), timing).labels)


def scan_delay(
    delays_fs: Sequence,
    source: SourceConfig,
    interf: InterferometerConfig,
    bank: DetectorBank,
    timing: TimingConfig,
) -> np.ndarray:
    """Run the simulation at each delay and count each pair label.

    Returns an int array with one row per delay and one column per
    ``PairLabel``, in label order.

    Points draw from independent child seeds keyed by (seed, index), so a
    scan is reproducible point by point regardless of which process runs
    which point.  They run through ``fan_out`` on
    ``scan_workers(len(delays_fs))`` processes, in delay order.
    """
    delays = [float(d) for d in delays_fs]
    if len(delays) < 2:
        raise ValueError("a delay scan needs at least two points")
    interfs = [dataclasses.replace(interf, delay_fs=delay) for delay in delays]
    return np.stack(fan_out(_scan_point, source.seed, interfs, source, bank, timing))


def write_scan_csv(delays_fs, counts: np.ndarray, duration_s: float, path) -> None:
    """One row per delay and label: its counts, and the rate and Poisson
    sigma they give over ``duration_s``.  The values are Python scalars, so
    each prints as its plain repr."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("delay_fs,pair_label,counts,duration_s,rate_hz,sigma_hz\n")
        for delay, row in zip(np.asarray(delays_fs, dtype=float).tolist(), counts.tolist()):
            for label, n in zip(PairLabel, row):
                fh.write(
                    f"{delay!r},{label.name},{n},{duration_s!r},"
                    f"{n / duration_s!r},{math.sqrt(n) / duration_s!r}\n"
                )


_ROW_PREFIX = np.array([f"{d.name},".encode("ascii") for d in Detector])
_CSV_CHUNK = 1 << 20


def write_events_csv(events: EventStream, path) -> None:
    """One "detector,time_ps" row per click, built a chunk of rows at a time
    from a detector-name lookup and numpy's integer-to-text cast."""
    with open(path, "wb") as fh:
        fh.write(b"detector,time_ps\n")
        for lo in range(0, len(events), _CSV_CHUNK):
            hi = lo + _CSV_CHUNK
            rows = np.char.add(
                _ROW_PREFIX[events.detectors[lo:hi]], events.times_ps[lo:hi].astype("S20")
            )
            rows = np.char.add(rows, b"\n").view(np.uint8)
            fh.write(rows[rows != 0].tobytes())  # drop the fixed-width NUL padding


@dataclass(frozen=True)
class DipFit:
    """Gaussian dip fit r(tau) = base * (1 - V exp(-(tau/width)^2)).

    ``visibility_err`` is None when the fit's covariance is singular or
    not finite, as when every delay is the same.
    """

    visibility: float
    visibility_err: float | None
    width_fs: float
    baseline_hz: float


def _levenberg_marquardt(residuals, p0):
    """Minimise |r(p)|^2 from p0; ``residuals(p)`` returns r and dr/dp.

    Gauss-Newton steps damped by Marquardt's scaled diagonal: a step that
    lowers the sum of squares is taken and the damping cut tenfold, one
    that does not raises it tenfold.  Each step solves the damped linear
    problem as a least-squares system in J itself, not its normal
    equations, so the zero-count points' large weights do not square
    J's condition number.  Stops when no damping lowers the sum, or
    after 500 trial steps, and returns the parameters and J there.
    """
    params = np.asarray(p0, dtype=float)
    r, jac = residuals(params)
    cost = r @ r
    damping = 1e-3
    for _ in range(500):
        scale = np.linalg.norm(jac, axis=0)
        scale[scale == 0.0] = 1.0  # a parameter the data cannot see
        step = np.linalg.lstsq(
            np.vstack((jac, np.diag(math.sqrt(damping) * scale))),
            -np.concatenate((r, np.zeros(len(params)))),
            rcond=None,
        )[0]
        trial = params + step
        r_new, jac_new = residuals(trial)
        cost_new = r_new @ r_new
        if cost_new < cost and np.isfinite(jac_new).all():
            params, r, jac, cost = trial, r_new, jac_new, cost_new
            damping = max(damping / 10.0, 1e-15)
        else:
            damping *= 10.0
            if damping > 1e16:
                break
    return params, jac


def fit_dip_visibility(delays_fs, counts, duration_s: float) -> DipFit:
    """Least-squares Gaussian fit of the cross-arm rates n / duration_s in
    ``scan_delay``'s label counts, weighted by their Poisson sigmas
    sqrt(n) / duration_s, floored at 1e-6 of the highest rate to stay
    finite.  A zero baseline fits any dip, so a table with no cross-arm
    count raises ValueError."""
    delays = np.asarray(delays_fs, dtype=float)
    if len(delays) < 3:
        raise ValueError("a dip fit needs at least three points")
    cross = counts[..., CROSS_ARM_LABELS].sum(axis=-1)
    if not cross.any():
        raise ValueError("a dip fit needs at least one cross-arm coincidence")
    rates = cross / duration_s
    sigma = np.maximum(np.sqrt(cross) / duration_s, np.max(rates) * 1e-6 + 1e-12)

    def residuals(params):
        """Weighted residuals and their Jacobian in (base, vis, width)."""
        base, vis, width = params
        x = delays / width
        g = np.exp(-(x**2))
        value = base * (1.0 - vis * g)
        jac = np.column_stack((1.0 - vis * g, -base * g, -2.0 * base * vis * g * x**2 / width))
        return (value - rates) / sigma, jac / sigma[:, None]

    base0 = max(rates.max(), 1e-12)
    vis0 = 1.0 - rates.min() / base0
    width0 = max((delays.max() - delays.min()) / 4.0, 1.0)
    params, jac = _levenberg_marquardt(residuals, (base0, min(max(vis0, 0.1), 1.0), width0))

    vis_err = None
    _, sv, vt = np.linalg.svd(jac, full_matrices=False)
    if sv[-1] > np.finfo(float).eps * len(delays) * sv[0]:
        var = ((vt.T / sv**2) @ vt)[1, 1]
        if math.isfinite(var):
            vis_err = math.sqrt(var)
    return DipFit(
        visibility=float(params[1]),
        visibility_err=vis_err,
        width_fs=float(abs(params[2])),
        baseline_hz=float(params[0]),
    )
