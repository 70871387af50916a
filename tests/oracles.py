"""Independent oracles the test suite checks production code against.

Everything here deliberately takes a different route than the package:
special functions come from brute-force quadrature of their defining
integrals, interferometer probabilities from an explicit mode-operator
expansion fed by a numerically integrated wavepacket overlap, click
patterns from exhaustive enumeration of photon routings, and the DFT from
the O(n^2) definition.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(240)


def _integrate(f, a: float, b: float) -> float:
    """Gauss-Legendre quadrature of f over [a, b]."""
    x = 0.5 * (b - a) * _GL_NODES + 0.5 * (b + a)
    return 0.5 * (b - a) * float(np.sum(_GL_WEIGHTS * f(x)))


def erfc_quadrature(x: float) -> float:
    """erfc from its defining integral, 2/sqrt(pi) * int_x^inf exp(-t^2)."""
    if x < 0.0:
        return 2.0 - erfc_quadrature(-x)
    upper = x + 13.0  # exp(-(x+13)^2) is far below double precision
    pieces = np.linspace(x, upper, 9)
    total = 0.0
    for a, b in zip(pieces[:-1], pieces[1:]):
        total += _integrate(lambda t: np.exp(-t * t), a, b)
    return 2.0 * total / math.sqrt(math.pi)


def igamc_quadrature(a: float, x: float) -> float:
    """Regularized upper incomplete gamma from its defining integral."""
    if x == 0.0:
        return 1.0
    # integrate t^(a-1) e^-t in log space for stability
    scale = max(x, a) + 60.0 * math.sqrt(max(x, a)) + 60.0
    pieces = np.linspace(x, scale, 33)
    lg = math.lgamma(a)
    total = 0.0
    for lo, hi in zip(pieces[:-1], pieces[1:]):
        total += _integrate(lambda t: np.exp((a - 1.0) * np.log(t) - t - lg), lo, hi)
    return total


def normal_cdf_quadrature(x: float) -> float:
    return 0.5 * erfc_quadrature(-x / math.sqrt(2.0))


# --- interferometer oracles ----------------------------------------------


def wavepacket_overlap(delay_fs: float, coherence_time_fs: float) -> float:
    """Numerical overlap of two identical Gaussian wavepackets offset by
    the delay.  The 1/e half-width of the resulting |overlap|^2 dip is the
    coherence time, so the packet sigma is coherence/sqrt(2).
    """
    sigma = coherence_time_fs / math.sqrt(2.0)
    span = 14.0 * sigma + abs(delay_fs)

    def packet(t):
        return np.exp(-(t * t) / (2.0 * sigma * sigma))

    norm = _integrate(lambda t: packet(t) ** 2, -span, span)
    cross = _integrate(lambda t: packet(t) * packet(t - delay_fs), -span, span)
    return cross / norm


def amplitude_two_photon_probs(delay_fs: float, coherence_time_fs: float):
    """(p20, p02, p11) via mode-operator expansion of the balanced splitter.

    Input a1[phi] a2[phi_tau]; with a1 -> (a3+a4)/sqrt2, a2 -> (a3-a4)/sqrt2
    and phi_tau = c phi + s chi (chi orthogonal), every outcome amplitude
    is expanded in the orthonormal occupation basis and squared; bosonic
    sqrt(2) factors appear where two quanta share a mode.
    """
    c = wavepacket_overlap(delay_fs, coherence_time_fs)
    s = math.sqrt(max(0.0, 1.0 - c * c))
    # arm 3 double occupation: (1/2)(c a3phi^2 + s a3phi a3chi)|0>
    amp_20 = {"2phi": 0.5 * c * math.sqrt(2.0), "phi.chi": 0.5 * s}
    p20 = sum(v * v for v in amp_20.values())
    p02 = p20  # symmetric expansion with a sign flip only
    # one per arm: (1/2)(-s |phi>3|chi>4 + s |chi>3|phi>4)
    amp_11 = {"phi3.chi4": -0.5 * s, "chi3.phi4": 0.5 * s}
    p11 = sum(v * v for v in amp_11.values())
    total = p20 + p02 + p11
    return p20 / total, p02 / total, p11 / total


def classical_two_photon_probs():
    """Two distinguishable photons routed independently at a 50/50 splitter."""
    outcomes = {"20": 0.0, "02": 0.0, "11": 0.0}
    for r1, r2 in product((3, 4), repeat=2):
        key = "20" if (r1, r2) == (3, 3) else "02" if (r1, r2) == (4, 4) else "11"
        outcomes[key] += 0.25
    return outcomes["20"], outcomes["02"], outcomes["11"]


def enumerate_click_probs(p20: float, p02: float, p11: float, eta: float) -> dict:
    """Exhaustive enumeration of routings and detections behind the arms.

    Detector indices follow the package convention 0..3 = D1..D4; returns
    a dict mapping frozenset(indices) -> probability.
    """
    acc: dict = {}

    def add(pattern, p):
        if p:
            key = frozenset(pattern)
            acc[key] = acc.get(key, 0.0) + p

    def two_photon(arm, weight):
        if weight == 0.0:
            return
        for route1, route2, det1, det2 in product((0, 1), (0, 1), (0, 1), (0, 1)):
            p = (
                weight
                * 0.25
                * (eta if det1 else 1.0 - eta)
                * (eta if det2 else 1.0 - eta)
            )
            pattern = set()
            if det1:
                pattern.add(arm[route1])
            if det2:
                pattern.add(arm[route2])
            add(pattern, p)

    two_photon((0, 1), p20)
    two_photon((2, 3), p02)

    if p11:
        for route_a, det_a, route_b, det_b in product((0, 1), (0, 1), (0, 1), (0, 1)):
            p = (
                p11
                * 0.25
                * (eta if det_a else 1.0 - eta)
                * (eta if det_b else 1.0 - eta)
            )
            pattern = set()
            if det_a:
                pattern.add((0, 1)[route_a])
            if det_b:
                pattern.add((2, 3)[route_b])
            add(pattern, p)

    return acc


# --- event and bit pipeline oracles --------------------------------------


def reference_greedy_pairs(times, dets, window):
    """Straightforward transcription of the pairing rule: scan in time
    order, pair with the earliest later unconsumed click on a different
    detector within the window, consume both."""
    n = len(times)
    consumed = [False] * n
    pairs = []
    for i in range(n):
        if consumed[i]:
            continue
        for j in range(i + 1, n):
            if consumed[j]:
                continue
            if times[j] - times[i] > window:
                break
            if dets[j] != dets[i]:
                consumed[i] = consumed[j] = True
                pairs.append((i, j))
                break
    return pairs


def reference_dead_time_keep(times, dead_ps):
    """Non-paralyzable dead time by its scalar rule, in Python integers:
    the first click is kept, and a later click is kept when it comes more
    than dead_ps after the last kept click.  Dropped clicks do not extend
    the dead interval.  A dead_ps of 0 means no dead time: every click is
    kept, simultaneous ones included."""
    keep = []
    last_kept = None
    for t in times:
        kept = dead_ps <= 0 or last_kept is None or t - last_kept > dead_ps
        keep.append(kept)
        if kept:
            last_kept = t
    return keep


def reference_simulate(
    pair_rate_hz, duration_s, seed, patterns, weights, jitter_sigma_ps,
    dark_rate_hz, dead_ps,
):
    """The click simulation by its stated rule, one click at a time.

    Same draws in the same order as the package: the pair count, the
    sorted pair times, the click patterns by ``Generator.choice``, then
    for each detector D1..D4 its jitter (rounded to whole picoseconds) and
    its dark counts.  Each detector's clicks are clipped to [0, T) and
    sorted in Python, pass the scalar dead-time rule, and the four
    detectors merge by (time, detector) through ``np.lexsort``.
    ``patterns`` holds the detector indices each pattern fires.
    """
    rng = np.random.default_rng(seed)
    run_ps = round(duration_s * 10**12)
    n_pairs = int(rng.poisson(pair_rate_hz * duration_s))
    pair_times = np.sort(rng.integers(0, run_ps, size=n_pairs, dtype=np.int64)).tolist()
    chosen = rng.choice(len(weights), size=n_pairs, p=np.asarray(weights)).tolist()
    fires = [{int(d) for d in pattern} for pattern in patterns]
    times, dets = [], []
    for det in range(4):
        clicks = [t for t, k in zip(pair_times, chosen) if det in fires[k]]
        if jitter_sigma_ps > 0.0 and clicks:
            jitter = np.rint(rng.normal(0.0, jitter_sigma_ps, size=len(clicks)))
            clicks = [t + int(j) for t, j in zip(clicks, jitter)]
        n_dark = int(rng.poisson(dark_rate_hz * duration_s))
        if n_dark:
            clicks += rng.integers(0, run_ps, size=n_dark, dtype=np.int64).tolist()
        clicks = sorted(t for t in clicks if 0 <= t < run_ps)
        for t, kept in zip(clicks, reference_dead_time_keep(clicks, dead_ps)):
            if kept:
                times.append(t)
                dets.append(det)
    times = np.array(times, dtype=np.int64)
    dets = np.array(dets, dtype=np.int8)
    order = np.lexsort((dets, times))
    return times[order], dets[order]


def curve_fit_dip(delays_fs, rates_hz, sigmas_hz=None):
    """The Gaussian dip fitted by scipy's MINPACK Levenberg-Marquardt, from
    the package's start values and sigma floor, run to the limit of its
    tolerances.  Returns (base, vis, |width|) and the visibility error,
    None where curve_fit cannot estimate the covariance."""
    import warnings

    from scipy.optimize import OptimizeWarning, curve_fit

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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        popt, pcov = curve_fit(
            model, delays, rates, p0=(base0, min(max(vis0, 0.1), 1.0), width0),
            sigma=sigma, absolute_sigma=sigma is not None, maxfev=20000,
            ftol=1e-15, xtol=1e-15, gtol=0.0,
        )
    var = pcov[1][1]
    err = math.sqrt(var) if math.isfinite(var) else None
    return (popt[0], popt[1], abs(popt[2])), err


def reference_events_csv(times_ps, detectors) -> bytes:
    """The event dump written one f-string per click, detector names D1..D4."""
    rows = ["detector,time_ps\n"]
    for t, d in zip(times_ps, detectors):
        rows.append(f"D{int(d) + 1},{int(t)}\n")
    return "".join(rows).encode("ascii")


def bit_array(text: str) -> np.ndarray:
    """The uint8 0/1 array spelled by a string of '0' and '1' digits."""
    if set(text) - {"0", "1"}:
        raise ValueError(f"not a bit string: {text!r}")
    return np.array([int(c) for c in text], dtype=np.uint8)


def bit_text(bits) -> str:
    """The '0'/'1' string of a 0/1 array, one digit per bit."""
    return "".join("1" if b else "0" for b in bits)


def reference_ascii_bits(bits) -> bytes:
    """The ASCII bit file written one 64-digit line at a time, each line,
    the last one too, ending in a newline."""
    text = bit_text(bits)
    lines = [text[i : i + 64] + "\n" for i in range(0, len(text), 64)]
    return "".join(lines).encode("ascii")


def expected_yield(p_one: float) -> float:
    """Expected von Neumann output/input length ratio for i.i.d. bias p:
    each of the n/2 pairs survives with probability 2 p (1 - p)."""
    if not (0.0 <= p_one <= 1.0):
        raise ValueError("p_one must lie in [0, 1]")
    return p_one * (1.0 - p_one)


def period_table(times_ps, labels, period_fs):
    """{period index: (events in the period, label of its first event)}.

    A timestamp t (ps) falls in period 1000 t // period_fs, in Python
    integers.
    """
    occupancy = {}
    for t, label in zip(times_ps, labels):
        k = int(t) * 1000 // period_fs
        count, first_label = occupancy.get(k, (0, int(label)))
        occupancy[k] = (count + 1, first_label)
    return occupancy


def clocked_records(times_ps, labels, period_fs):
    """Clocked bit extraction by its scalar rule, in Python integers.

    Each occupied period k (see period_table) emits one symbol in period
    order: its bit if it holds one coincidence (label 1, D3D4, records 1;
    label 0, D1D2, records 0), else an error symbol (2), logged at k + 1.

    Returns (symbols, error_rows): the symbols, and (k + 1, events in the
    period) per error symbol.
    """
    occupancy = period_table(times_ps, labels, period_fs)
    symbols, error_rows = [], []
    for k in sorted(occupancy):
        count, first_label = occupancy[k]
        if count >= 2:
            symbols.append(2)
            error_rows.append((k + 1, count))
        else:
            symbols.append(first_label)
    return symbols, error_rows


# detector pair (lower index first) -> pair label and its name, D1..D4 = 0..3
_PAIR_LABELS = {(0, 1): 0, (2, 3): 1, (0, 2): 2, (0, 3): 3, (1, 2): 4, (1, 3): 5}
_LABEL_NAMES = ["D1D2", "D3D4", "D1D3", "D1D4", "D2D3", "D2D4"]


def reference_generate(
    pair_rate_hz, duration_s, seed, patterns, weights, jitter_sigma_ps,
    dark_rate_hz, dead_ps, window_ps, period_fs,
):
    """``generate``'s outputs, composed from the per-stage oracles.

    reference_simulate gives the clicks and reference_greedy_pairs pairs
    them; a pair is stamped with its earlier click's time and labelled by
    its two detectors.  The D1D2 and D3D4 pairs go through clocked_records.
    Returns (ASCII bit-file bytes, error-log bytes, manifest counts).
    """
    times, dets = reference_simulate(
        pair_rate_hz, duration_s, seed, patterns, weights, jitter_sigma_ps,
        dark_rate_hz, dead_ps,
    )
    times, dets = times.tolist(), dets.tolist()
    pairs = reference_greedy_pairs(times, dets, window_ps)
    labels = [_PAIR_LABELS[tuple(sorted((dets[i], dets[j])))] for i, j in pairs]
    kept = [(times[i], label) for (i, _), label in zip(pairs, labels) if label < 2]
    symbols, error_rows = clocked_records(
        [t for t, _ in kept], [label for _, label in kept], period_fs
    )
    bits = [s for s in symbols if s != 2]
    error_log = "clock_index,n_events_in_period\n" + "".join(
        f"{k},{n}\n" for k, n in error_rows
    )
    counts = {
        "n_events": len(times),
        "n_coincidences": len(pairs),
        "label_counts": {name: labels.count(code) for code, name in enumerate(_LABEL_NAMES)},
        "unpaired_clicks": len(times) - 2 * len(pairs),
        "bits_recorded": len(bits),
        "error_records": len(error_rows),
    }
    return reference_ascii_bits(bits), error_log.encode("ascii"), counts


def poisson_period_occupancy(rate_hz, frequency_hz, duration_s, seed):
    """Independent float-based Poisson placement into clock periods.

    Returns (number of multi-event periods, number of occupied periods).
    """
    rng = np.random.default_rng(seed)
    n = rng.poisson(rate_hz * duration_s)
    t = np.sort(rng.random(n) * duration_s)
    periods = np.floor(t * frequency_hz).astype(np.int64)
    _, counts = np.unique(periods, return_counts=True)
    return int((counts >= 2).sum()), len(counts)


def poisson_error_fraction(lam: float) -> float:
    """Exact error fraction of a clocked Poisson stream with lam = R/f.

    An occupied period records an error when it holds two or more events,
    so the fraction is P(N >= 2) / P(N >= 1) for N ~ Poisson(lam), i.e.
    (1 - (1 + lam) e^-lam) / (1 - e^-lam).  Summed here term by term from
    the pmf (the common e^-lam cancels), which avoids the closed form's
    cancellation at small lam.
    """
    if lam <= 0.0:
        return 0.0
    term, multi, k = lam, 0.0, 1  # term = lam^k / k!
    while True:
        k += 1
        term *= lam / k
        multi += term
        if term < 1e-18 * multi:
            return multi / (lam + multi)


def wrapped_pattern_counts(bits, m: int) -> dict:
    """{pattern code: count} of the m-bit windows starting at each of the n
    bits, reading bit (i + j) mod n, MSB first; the windows wrap as often
    as m needs."""
    n = len(bits)
    counts: dict = {}
    for i in range(n):
        code = 0
        for j in range(m):
            code = (code << 1) | int(bits[(i + j) % n])
        counts[code] = counts.get(code, 0) + 1
    return counts


def direct_dft_magnitudes(x) -> np.ndarray:
    """O(n^2) DFT magnitudes straight from the definition."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    k = np.arange(n)
    omega = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return np.abs(omega @ x.astype(np.complex128))


def cusum_pvalue_reference(z: int, n: int) -> float:
    """Range-of-partial-sums tail formula evaluated with quadrature Phi."""
    sqrt_n = math.sqrt(n)
    q = n // z
    total = 1.0
    lo = -((q - 1) // 4)
    hi = (q - 1) // 4
    for k in range(lo, hi + 1):
        total -= normal_cdf_quadrature((4 * k + 1) * z / sqrt_n) - normal_cdf_quadrature(
            (4 * k - 1) * z / sqrt_n
        )
    lo = -((q + 3) // 4)
    for k in range(lo, hi + 1):
        total += normal_cdf_quadrature((4 * k + 3) * z / sqrt_n) - normal_cdf_quadrature(
            (4 * k + 1) * z / sqrt_n
        )
    return min(max(total, 0.0), 1.0)


def longest_run_reference(bits01: str, m: int, edges, pis) -> float:
    """Brute-force longest-run categorization plus quadrature igamc."""
    n_blocks = len(bits01) // m
    k = len(edges) - 1
    nu = [0] * (k + 1)
    for b in range(n_blocks):
        block = bits01[b * m : (b + 1) * m]
        longest = max((len(run) for run in block.split("0")), default=0)
        cat = k
        for i, edge in enumerate(edges):
            if longest <= edge:
                cat = i
                break
        nu[cat] += 1
    chi2 = sum(
        (nu[i] - n_blocks * pis[i]) ** 2 / (n_blocks * pis[i]) for i in range(k + 1)
    )
    return igamc_quadrature(k / 2.0, chi2 / 2.0)
