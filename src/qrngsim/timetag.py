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

# flat lookup table indexed by lo * 4 + hi, read from each label's name
# (same-detector slots unused)
_LABEL_TABLE = np.full(16, -1, dtype=np.int8)
for _lab in PairLabel:
    _LABEL_TABLE[Detector[_lab.name[:2]] * 4 + Detector[_lab.name[2:]]] = _lab


def duration_ps(duration_s: float) -> int:
    """A run length in whole picoseconds, from 1 ps to MAX_DURATION_PS."""
    if not (duration_s > 0.0) or not math.isfinite(duration_s):
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    ps = round(duration_s * PS_PER_SECOND)
    if not 1 <= ps <= MAX_DURATION_PS:
        raise ValueError(
            f"duration_s must lie in 1e-12 to {MAX_DURATION_PS / PS_PER_SECOND:.4g} s, "
            f"got {duration_s}"
        )
    return ps


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
        wanted = np.isin(self.labels, labels)
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
    """n pattern indices (uint8) drawn with probabilities ``weights``.

    numpy's own recipe for ``rng.choice(len(weights), size=n, p=weights)``:
    one ``random()`` per draw against the normalised cdf.  Counting the cdf
    edges each draw passes gives the index ``searchsorted(side="right")``
    would, so the indices and the generator state afterwards are the same,
    without a binary search per draw.
    """
    cdf = np.cumsum(weights, dtype=np.float64)
    cdf /= cdf[-1]
    u = rng.random(n)
    idx = np.zeros(n, dtype=np.uint8)
    for edge in cdf[:-1]:
        idx += u >= edge
    return idx


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

    Which gather each pass uses follows from how much of its input it
    keeps (numpy 2.4, 3.5 M random int64, one core of a 2-vCPU host).  A
    detector keeps about 37.5 % of the pairs at the dip.  A boolean index
    that keeps a third to a half takes 26-27 ms there, ``np.compress``
    (nonzero, then take) 10-11 ms, and at 90 % compress is only a little
    slower (15 against 12 ms), so the selection always uses ``compress``.
    The dead-time keep mask drops about 1e-4 of the clicks, the boolean
    index's fast case: 7 ms against ``compress``'s 14 ms.
    """
    rng = np.random.default_rng(source.seed)
    run_ps = duration_ps(source.duration_s)

    n_pairs = int(rng.poisson(source.pair_rate_hz * source.duration_s))
    pair_times = rng.integers(0, run_ps, size=n_pairs, dtype=np.int64)
    pair_times.sort()

    clicks = click_distribution(output_distribution(interf), bank)
    # bit d of pattern k's mask is set if the pattern fires detector d
    masks = np.array([sum(1 << int(det) for det in p) for p in clicks], dtype=np.uint8)
    fired = masks[draw_patterns(rng, list(clicks.values()), n_pairs)]

    # Each detector's kept clicks become keys (t << 2) | d.  Kept times lie
    # below MAX_DURATION_PS, just under 2^62 ps, so the key needs all 64
    # bits: uint64, since a signed key wraps from 2^61 ps on.
    keys = []
    sigma = timing.jitter_sigma_ps
    for det in range(4):
        t = np.compress(((fired >> det) & 1).view(bool), pair_times)
        if sigma > 0.0 and len(t):
            jitter = rng.normal(0.0, sigma, size=len(t))
            t += np.rint(jitter, out=jitter).astype(np.int64)
            del jitter
        n_dark = int(rng.poisson(bank.dark_rate_hz * source.duration_s))
        if n_dark:
            t = np.concatenate((t, rng.integers(0, run_ps, size=n_dark, dtype=np.int64)))
        # jitter leaves the clicks nearly in pair order, where timsort is
        # linear; once sorted, the clicks jittered outside [0, run_ps) are
        # the two ends, so the clip is a slice
        t.sort(kind="stable")
        t = t[np.searchsorted(t, 0) : np.searchsorted(t, run_ps)]
        key = t[_dead_time_filter(t, timing.dead_time_ps)].view(np.uint64)
        key <<= np.uint64(2)
        key |= np.uint64(det)
        keys.append(key)
        del t  # free this detector's clicks before the next one's
    del pair_times, fired

    # Sorting the keys orders clicks by time, then ties by detector:
    # lexsort's order on (time, detector).  For uint64 the stable sort is
    # timsort, which merges the four sorted runs in linear time.
    key = np.concatenate(keys)
    del keys
    key.sort(kind="stable")
    dets = key.astype(np.uint8)
    dets &= 3
    key >>= np.uint64(2)
    return EventStream(key.view(np.int64), dets.view(np.int8))


def _greedy_pair_cluster(times, dets, window_ps: int) -> list:
    """Greedy earliest-first pairing inside one cluster of Python ints;
    returns the (earlier, later) index of each pair."""
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


def _pair_labels(d_first: np.ndarray, d_second: np.ndarray) -> np.ndarray:
    return _LABEL_TABLE[np.minimum(d_first, d_second) * 4 + np.maximum(d_first, d_second)]


def coincidence_filter(events: EventStream, timing: TimingConfig) -> CoincidenceStream:
    """Pair clicks within the coincidence window, earliest first.

    A click pairs with the earliest later click on a different detector no
    more than one window away; both clicks are consumed.  Clicks separated
    by more than the window can never pair, so the stream splits into
    independent clusters.  Two-click clusters are labelled in numpy.  The
    clicks of the rare clusters of three or more are gathered into one
    short array and paired by the scalar greedy rule cluster by cluster.
    Each pair is filed under its earlier click's index, so the output is
    time-sorted without a sort.
    """
    times = events.times_ps
    dets = events.detectors
    n = len(times)
    if n == 0:
        return CoincidenceStream(np.empty(0, np.int64), np.empty(0, np.int8))
    window = timing.window_ps
    # new_cluster[i]: click i opens a cluster; two sentinel clusters follow
    # the last click, so a cluster's second and third clicks can always be
    # looked up
    new_cluster = np.ones(n + 2, dtype=bool)
    gaps = np.diff(times)
    if n > 1 and gaps.min() < 0:
        raise ValueError("detection events must be time-sorted")
    np.greater(gaps, window, out=new_cluster[1:n])
    del gaps
    # bools compare as 0 < 1: a > b is a & ~b
    multi = np.greater(new_cluster[:n], new_cluster[1 : n + 1])  # size >= 2 starts here
    two = np.flatnonzero(multi & new_cluster[2:])
    big_starts = np.flatnonzero(np.greater(multi, new_cluster[2:], out=multi))
    del multi

    # label of the pair whose earlier click is i, or -1
    label_at = np.full(n, -1, dtype=np.int8)

    first_det = dets[two]
    second_det = dets[two + 1]
    ok = first_det != second_det
    label_at[two[ok]] = _pair_labels(first_det[ok], second_det[ok])
    del two, first_det, second_det, ok

    if len(big_starts):
        # each big cluster ends at the next cluster start, three or more on
        big_ends = big_starts + 3
        open_ = np.flatnonzero(~new_cluster[big_ends])
        while len(open_):
            big_ends[open_] += 1
            open_ = open_[~new_cluster[big_ends[open_]]]
        big_sizes = big_ends - big_starts
        # gathered slot k holds click idx[k]; cluster c starts at slot offsets[c]
        offsets = np.cumsum(big_sizes) - big_sizes
        idx = np.arange(big_sizes.sum()) + np.repeat(big_starts - offsets, big_sizes)
        t_big = times[idx].tolist()
        d_big = dets[idx].tolist()
        first: list = []
        second: list = []
        for lo, hi in zip(offsets.tolist(), (offsets + big_sizes).tolist()):
            for a, b in _greedy_pair_cluster(t_big[lo:hi], d_big[lo:hi], window):
                first.append(lo + a)
                second.append(lo + b)
        first_idx = idx[first]
        label_at[first_idx] = _pair_labels(dets[first_idx], dets[idx[second]])

    paired = np.flatnonzero(label_at >= 0)
    return CoincidenceStream(
        times[paired],
        label_at[paired],
        n_events_in=n,
        n_unpaired=n - 2 * len(paired),
        n_multi_click_clusters=len(big_starts),
    )


def synthetic_coincidences(rate_hz: float, duration_s: float, seed: int = 0) -> CoincidenceStream:
    """Poisson stream of ready-made coincidences with fair random labels.

    Bypasses the optical chain; used to exercise the clocked bit recorder
    at a prescribed coincidence rate.
    """
    SourceConfig(rate_hz, duration_s, seed)  # a pair source's rate and duration rules
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(rate_hz * duration_s))
    times = rng.integers(0, duration_ps(duration_s), size=n, dtype=np.int64)
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


def scan_workers(n_points: int) -> int:
    """Worker processes for a scan or any ``fan_out``: one per usable CPU, at
    most one per point."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return min(cpus, n_points)


def fan_out(fn, seed: int, *arg_lists) -> list:
    """``[fn(point_seed(seed, i), *args) for i, args in
    enumerate(zip(*arg_lists))]``, each call run in a worker process.

    ``arg_lists`` holds one equal-length list per argument of ``fn`` after
    its seed.  The n calls run in ``scan_workers(n)`` processes, and their
    results come back in call order.  ``fn`` must be a module-level
    function, and its arguments and results picklable.  If calls raise,
    the exception of the earliest failing call is raised again here; a
    worker that ends without a result, killed or exited, raises
    ``ChildProcessError``.

    On Linux, while the caller runs a single Python thread, the workers
    are forked from it with ``os.fork``: they start without a new
    interpreter and without importing anything again, worker w runs calls
    w, w + workers, ... and each sends its results back through its own
    pipe.  The only other threads numpy leaves in the process are
    OpenBLAS's, and OpenBLAS joins them in a ``pthread_atfork`` handler
    before each fork (2 threads before ``os.fork()``, 1 in parent and
    child after it, with numpy 2.4.6 and OpenBLAS 0.3.31).  Elsewhere, or
    while other Python threads run, the workers are spawned by a
    ``ProcessPoolExecutor``: they import the caller's main module, so a
    script that reaches this pool (``scan-delay`` or ``ber-scan`` through
    ``cli.main`` included) must then guard its entry point with
    ``if __name__ == "__main__":``.
    """
    n = len(arg_lists[0])
    seeds = [point_seed(seed, i) for i in range(n)]
    if sys.platform == "linux" and threading.active_count() == 1:
        return _fork_map(fn, list(zip(seeds, *arg_lists)), scan_workers(n))
    # imported here so that commands that fork, or run no pool, do not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(scan_workers(n), mp_context=context) as pool:
        return list(pool.map(fn, seeds, *arg_lists))


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
    ``write_fd`` and end the process, never returning into the caller."""
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


def _scan_point(seed, source, interf, bank, timing) -> np.ndarray:
    """One delay point, run in a worker process: its six label counts."""
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
    which point.  They run on ``fan_out``'s pool of
    ``scan_workers(len(delays_fs))`` processes, in delay order.
    """
    delays = [float(d) for d in delays_fs]
    if len(delays) < 2:
        raise ValueError("a delay scan needs at least two points")
    n = len(delays)
    interfs = [dataclasses.replace(interf, delay_fs=delay) for delay in delays]
    return np.stack(fan_out(_scan_point, source.seed, [source] * n, interfs,
                            [bank] * n, [timing] * n))


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
