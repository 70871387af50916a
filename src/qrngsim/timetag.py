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


class InvalidDuration(ValueError):
    pass


class InvalidRate(ValueError):
    pass


class UnsortedInput(ValueError):
    pass


class PairLabel(IntEnum):
    """Coincidence labels; D1D2/D3D4 carry bits, the rest are cross-arm."""

    D1D2 = 0
    D3D4 = 1
    D1D3 = 2
    D1D4 = 3
    D2D3 = 4
    D2D4 = 5


CROSS_ARM_LABELS = frozenset(
    (PairLabel.D1D3, PairLabel.D1D4, PairLabel.D2D3, PairLabel.D2D4)
)

# detector index pair (low, high) -> label
_LABEL_OF_PAIR = {
    (0, 1): PairLabel.D1D2,
    (2, 3): PairLabel.D3D4,
    (0, 2): PairLabel.D1D3,
    (0, 3): PairLabel.D1D4,
    (1, 2): PairLabel.D2D3,
    (1, 3): PairLabel.D2D4,
}

# flat lookup table indexed by lo * 4 + hi (same-detector slots unused)
_LABEL_TABLE = np.full(16, -1, dtype=np.int8)
for (_lo, _hi), _lab in _LABEL_OF_PAIR.items():
    _LABEL_TABLE[_lo * 4 + _hi] = int(_lab)


@dataclass(frozen=True)
class SourceConfig:
    """Pair source: mean detected-pair rate, run length, RNG seed."""

    pair_rate_hz: float
    duration_s: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.pair_rate_hz >= 0.0) or not math.isfinite(self.pair_rate_hz):
            raise InvalidRate(f"pair_rate_hz must be >= 0, got {self.pair_rate_hz}")
        if not (self.duration_s > 0.0) or not math.isfinite(self.duration_s):
            raise InvalidDuration(f"duration_s must be > 0, got {self.duration_s}")


@dataclass(frozen=True)
class TimingConfig:
    """Per-click timing model and the coincidence window."""

    jitter_sigma_ps: float = 300.0
    dead_time_ns: float = 50.0
    coincidence_window_ns: float = 3.0

    def __post_init__(self) -> None:
        if not (self.jitter_sigma_ps >= 0.0):
            raise ValueError("jitter_sigma_ps must be >= 0")
        if not (self.dead_time_ns >= 0.0):
            raise ValueError("dead_time_ns must be >= 0")
        if not (self.coincidence_window_ns > 0.0):
            raise ValueError("coincidence_window_ns must be > 0")

    @property
    def window_ps(self) -> int:
        return round(self.coincidence_window_ns * 1000.0)

    @property
    def dead_time_ps(self) -> int:
        return round(self.dead_time_ns * 1000.0)


class EventStream:
    """Time-sorted detector clicks, stored as parallel numpy arrays."""

    def __init__(self, times_ps: np.ndarray, detectors: np.ndarray):
        if len(times_ps) != len(detectors):
            raise ValueError("times and detectors must have equal length")
        self.times_ps = np.asarray(times_ps, dtype=np.int64)
        self.detectors = np.asarray(detectors, dtype=np.int8)

    def __len__(self) -> int:
        return len(self.times_ps)


class CoincidenceStream:
    """Time-sorted coincidences plus bookkeeping from the pairing pass.

    ``n_multi_click_clusters`` counts windows holding three or more clicks
    (the simulation analog of four-fold pile-up); such clusters are paired
    greedily rather than dropped, and the count travels with the stream so
    run metadata can flag them.
    """

    def __init__(
        self,
        times_ps: np.ndarray,
        labels: np.ndarray,
        n_events_in: int = 0,
        n_unpaired: int = 0,
        n_multi_click_clusters: int = 0,
    ):
        if len(times_ps) != len(labels):
            raise ValueError("times and labels must have equal length")
        self.times_ps = np.asarray(times_ps, dtype=np.int64)
        self.labels = np.asarray(labels, dtype=np.int8)
        self.n_events_in = int(n_events_in)
        self.n_unpaired = int(n_unpaired)
        self.n_multi_click_clusters = int(n_multi_click_clusters)

    def __len__(self) -> int:
        return len(self.times_ps)

    def label_counts(self) -> dict:
        counts = np.bincount(self.labels, minlength=len(PairLabel))
        return {label: int(counts[int(label)]) for label in PairLabel}

    def cross_arm_count(self) -> int:
        counts = self.label_counts()
        return sum(counts[label] for label in CROSS_ARM_LABELS)

    def select(self, labels) -> "CoincidenceStream":
        wanted = np.isin(self.labels, [int(l) for l in labels])
        return CoincidenceStream(
            self.times_ps[wanted],
            self.labels[wanted],
            n_events_in=self.n_events_in,
            n_unpaired=self.n_unpaired,
            n_multi_click_clusters=self.n_multi_click_clusters,
        )


@dataclass(frozen=True)
class RateEstimate:
    """A counted rate with its Poisson uncertainty."""

    counts: int
    duration_s: float

    @property
    def rate_hz(self) -> float:
        return self.counts / self.duration_s

    @property
    def sigma_hz(self) -> float:
        return math.sqrt(self.counts) / self.duration_s


class MonitorStatus(IntEnum):
    OK = 0
    ALARM = 1


@dataclass(frozen=True)
class MonitorReport:
    status: MonitorStatus
    cross_arm_count: int
    threshold: int


def _dead_time_filter(times: np.ndarray, dead_ps: int) -> np.ndarray:
    """Non-paralyzable dead time: drop clicks within dead_ps of the last
    kept click.  Returns a boolean keep mask.

    Only runs of consecutive short gaps need sequential treatment; a click
    whose predecessor is more than dead_ps away is always kept, so the
    (rare) affected chains are scanned in Python while everything else is
    resolved vectorially.
    """
    n = len(times)
    keep = np.ones(n, dtype=bool)
    if n < 2 or dead_ps <= 0:
        return keep
    close = np.diff(times) <= dead_ps
    if not close.any():
        return keep
    idx = np.flatnonzero(close)
    breaks = np.flatnonzero(np.diff(idx) > 1)
    chain_starts = np.concatenate(([0], breaks + 1))
    chain_ends = np.concatenate((breaks, [len(idx) - 1]))
    t = times.tolist()
    for s, e in zip(chain_starts, chain_ends):
        first = idx[s]       # first event of the chain is always kept
        last_kept = t[first]
        for j in range(first + 1, idx[e] + 2):
            if t[j] - last_kept <= dead_ps:
                keep[j] = False
            else:
                last_kept = t[j]
    return keep


def simulate(
    source: SourceConfig,
    interf: InterferometerConfig,
    bank: DetectorBank,
    timing: TimingConfig,
) -> EventStream:
    """Simulate detector clicks for one run.

    Draw order is fixed (pair count, pair times, click patterns, then per
    detector D1..D4: jitter, dark counts) so a given seed always produces
    the same stream.  Clicks jittered outside [0, duration) are dropped.
    """
    rng = np.random.default_rng(source.seed)
    duration_ps = round(source.duration_s * PS_PER_SECOND)

    n_pairs = int(rng.poisson(source.pair_rate_hz * source.duration_s))
    pair_times = rng.integers(0, duration_ps, size=n_pairs, dtype=np.int64)
    pair_times.sort()

    clicks = click_distribution(output_distribution(interf), bank)
    patterns, weights = clicks.patterns_and_weights()
    pattern_idx = (
        rng.choice(len(patterns), size=n_pairs, p=np.asarray(weights))
        if n_pairs
        else np.empty(0, dtype=np.int64)
    )

    # membership[k, d] = 1 if pattern k fires detector d
    membership = np.zeros((len(patterns), 4), dtype=bool)
    for k, pattern in enumerate(patterns):
        for det in pattern:
            membership[k, int(det)] = True

    per_det_times = []
    per_det_ids = []
    sigma = timing.jitter_sigma_ps
    for det in range(4):
        t = pair_times[membership[pattern_idx, det]] if n_pairs else np.empty(0, np.int64)
        if sigma > 0.0 and len(t):
            t = t + np.rint(rng.normal(0.0, sigma, size=len(t))).astype(np.int64)
        n_dark = int(rng.poisson(bank.dark_rate_hz * source.duration_s))
        if n_dark:
            dark = rng.integers(0, duration_ps, size=n_dark, dtype=np.int64)
            t = np.concatenate((t, dark))
        t = t[(t >= 0) & (t < duration_ps)]
        t.sort()
        t = t[_dead_time_filter(t, timing.dead_time_ps)]
        per_det_times.append(t)
        per_det_ids.append(np.full(len(t), det, dtype=np.int8))

    times = np.concatenate(per_det_times)
    dets = np.concatenate(per_det_ids)
    order = np.lexsort((dets, times))
    return EventStream(times[order], dets[order])


def _greedy_pair_cluster(times, dets, out_i, out_j, window_ps: int) -> int:
    """Greedy earliest-first pairing inside one cluster (Python fallback)."""
    n = len(times)
    consumed = [False] * n
    made = 0
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
                out_i.append(a)
                out_j.append(b)
                made += 1
                break
    return made


def coincidence_filter(events: EventStream, timing: TimingConfig) -> CoincidenceStream:
    """Pair clicks within the coincidence window, earliest first.

    A click pairs with the earliest later click on a different detector no
    more than one window away; both clicks are consumed.  Clicks separated
    by more than the window can never pair, so the stream splits into
    independent clusters: two-click clusters are resolved vectorially and
    the rare larger pile-ups fall back to an explicit greedy scan.
    """
    times = events.times_ps
    dets = events.detectors
    n = len(times)
    if n == 0:
        return CoincidenceStream(np.empty(0, np.int64), np.empty(0, np.int8))
    if np.any(np.diff(times) < 0):
        raise UnsortedInput("detection events must be time-sorted")

    window = timing.window_ps
    new_cluster = np.empty(n, dtype=bool)
    new_cluster[0] = True
    np.greater(np.diff(times), window, out=new_cluster[1:])
    starts = np.flatnonzero(new_cluster)
    sizes = np.diff(np.append(starts, n))

    out_first = []
    out_label = []

    two = starts[sizes == 2]
    if len(two):
        d_lo = dets[two]
        d_hi = dets[two + 1]
        ok = d_lo != d_hi
        lo = np.minimum(d_lo[ok], d_hi[ok]).astype(np.int64)
        hi = np.maximum(d_lo[ok], d_hi[ok]).astype(np.int64)
        out_first.append(times[two[ok]])
        out_label.append(_LABEL_TABLE[lo * 4 + hi])

    big = starts[sizes >= 3]
    n_big = len(big)
    if n_big:
        big_sizes = sizes[sizes >= 3]
        times_list = times.tolist()
        dets_list = dets.tolist()
        t_out = []
        l_out = []
        for s, size in zip(big, big_sizes):
            ii: list = []
            jj: list = []
            _greedy_pair_cluster(
                times_list[s : s + size], dets_list[s : s + size], ii, jj, window
            )
            for a, b in zip(ii, jj):
                t_out.append(times_list[s + a])
                lo, hi = sorted((dets_list[s + a], dets_list[s + b]))
                l_out.append(int(_LABEL_TABLE[lo * 4 + hi]))
        out_first.append(np.array(t_out, dtype=np.int64))
        out_label.append(np.array(l_out, dtype=np.int8))

    if out_first:
        t_all = np.concatenate(out_first)
        l_all = np.concatenate(out_label)
        order = np.argsort(t_all, kind="stable")
        t_all = t_all[order]
        l_all = l_all[order]
    else:
        t_all = np.empty(0, np.int64)
        l_all = np.empty(0, np.int8)

    return CoincidenceStream(
        t_all,
        l_all,
        n_events_in=n,
        n_unpaired=n - 2 * len(t_all),
        n_multi_click_clusters=n_big,
    )


def synthetic_coincidences(
    rate_hz: float, duration_s: float, seed: int = 0, labels=(PairLabel.D1D2, PairLabel.D3D4)
) -> CoincidenceStream:
    """Poisson stream of ready-made coincidences with fair random labels.

    Bypasses the optical chain; used to exercise the clocked bit recorder
    at a prescribed coincidence rate.
    """
    if not (rate_hz >= 0.0) or not math.isfinite(rate_hz):
        raise InvalidRate(f"rate_hz must be >= 0, got {rate_hz}")
    if not (duration_s > 0.0) or not math.isfinite(duration_s):
        raise InvalidDuration(f"duration_s must be > 0, got {duration_s}")
    rng = np.random.default_rng(seed)
    duration_ps = round(duration_s * PS_PER_SECOND)
    n = int(rng.poisson(rate_hz * duration_s))
    times = rng.integers(0, duration_ps, size=n, dtype=np.int64)
    times.sort()
    which = rng.integers(0, len(labels), size=n)
    label_values = np.array([int(l) for l in labels], dtype=np.int8)
    return CoincidenceStream(times, label_values[which], n_events_in=2 * n)


def purity_monitor(coincidences: CoincidenceStream, threshold: int = 0) -> MonitorReport:
    """ALARM when cross-arm coincidences exceed the allowed threshold."""
    cross = coincidences.cross_arm_count()
    status = MonitorStatus.ALARM if cross > threshold else MonitorStatus.OK
    return MonitorReport(status=status, cross_arm_count=cross, threshold=threshold)


@dataclass(frozen=True)
class ScanPoint:
    delay_fs: float
    rates: dict
    cross_arm: RateEstimate


def point_seed(seed: int, index: int) -> int:
    """Deterministic per-point child seed for scans and fan-out workers."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1, np.uint64)[0])


def scan_delay(
    delays_fs: Sequence,
    source: SourceConfig,
    interf: InterferometerConfig,
    bank: DetectorBank,
    timing: TimingConfig,
) -> list:
    """Run the simulation at each delay and tabulate per-label rates.

    Points draw from independent child seeds keyed by (seed, index), so a
    scan is reproducible point by point regardless of execution order.
    """
    delays = [float(d) for d in delays_fs]
    if len(delays) < 2:
        raise ValueError("a delay scan needs at least two points")
    points = []
    for i, delay in enumerate(delays):
        src = dataclasses.replace(source, seed=point_seed(source.seed, i))
        cfg = dataclasses.replace(interf, delay_fs=delay)
        coinc = coincidence_filter(simulate(src, cfg, bank, timing), timing)
        counts = coinc.label_counts()
        rates = {
            label: RateEstimate(counts[label], source.duration_s) for label in PairLabel
        }
        cross = RateEstimate(coinc.cross_arm_count(), source.duration_s)
        points.append(ScanPoint(delay_fs=delay, rates=rates, cross_arm=cross))
    return points


def write_scan_csv(points, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("delay_fs,pair_label,counts,duration_s,rate_hz,sigma_hz\n")
        for point in points:
            for label in PairLabel:
                est = point.rates[label]
                fh.write(
                    f"{point.delay_fs!r},{label.name},{est.counts},"
                    f"{est.duration_s!r},{est.rate_hz!r},{est.sigma_hz!r}\n"
                )


def write_events_csv(events: EventStream, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("detector,time_ps\n")
        for t, d in zip(events.times_ps, events.detectors):
            fh.write(f"{Detector(int(d)).name},{int(t)}\n")


@dataclass(frozen=True)
class DipFit:
    """Gaussian dip fit r(tau) = base * (1 - V exp(-(tau/width)^2))."""

    visibility: float
    visibility_err: float
    width_fs: float
    baseline_hz: float


def fit_dip_visibility(delays_fs, rates_hz, sigmas_hz=None) -> DipFit:
    """Least-squares Gaussian fit of a coincidence dip.

    Counting errors may be supplied to weight the fit; zero-count points
    get a floor of one count so the weights stay finite.
    """
    from scipy.optimize import curve_fit

    delays = np.asarray(delays_fs, dtype=float)
    rates = np.asarray(rates_hz, dtype=float)

    def model(tau, base, vis, width):
        return base * (1.0 - vis * np.exp(-((tau / width) ** 2)))

    base0 = max(rates.max(), 1e-12)
    vis0 = 1.0 - rates.min() / base0
    width0 = max((delays.max() - delays.min()) / 4.0, 1.0)
    sigma = None
    if sigmas_hz is not None:
        sigma = np.maximum(np.asarray(sigmas_hz, dtype=float), np.max(rates) * 1e-6 + 1e-12)
    popt, pcov = curve_fit(
        model,
        delays,
        rates,
        p0=(base0, min(max(vis0, 0.1), 1.0), width0),
        sigma=sigma,
        absolute_sigma=sigma is not None,
        maxfev=20000,
    )
    return DipFit(
        visibility=float(popt[1]),
        visibility_err=float(math.sqrt(max(pcov[1][1], 0.0))),
        width_fs=float(abs(popt[2])),
        baseline_hz=float(popt[0]),
    )
