"""Clocked bit extraction, error accounting, and von Neumann unbiasing.

A free-running clock of frequency f slices time into periods.  A period
holding exactly one D1D2 or D3D4 coincidence records a 0 or 1; a period
holding two or more records an error symbol, logged at the next clock
pulse.  The expected error fraction for a Poisson coincidence stream of
rate R is modeled as R / (2 f): with L = R / f the exact occupancy law is
P(N >= 2) / P(N >= 1) = (1 - (1 + L) e^-L) / (1 - e^-L), R / (2 f) = L / 2
is its first-order term, and it lies 0 to L^2 / 12 above the exact law.

Error symbols never enter the bit stream handed to the unbiaser: they are
logged separately, mirroring a recording clock fast enough that error
bits are absent from the kept data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .statskit import as_bit_array
from .timetag import _INT64_MAX, CoincidenceStream, PairLabel

FS_PER_SECOND = 10**15

_MAX_PERIOD_FS = _INT64_MAX // 1000  # 9.22 s: 1000 * (t mod P) still fits int64


class ModelOutOfRange(ValueError):
    pass


class Symbol(IntEnum):
    ZERO = 0
    ONE = 1
    ERROR = 2


@dataclass(frozen=True)
class ClockConfig:
    """Counting clock; period k covers [k/f, (k+1)/f).  The period in whole
    fs lies in 1 to INT64_MAX // 1000, so f runs from 1e15 to ~0.10843 Hz."""

    frequency_hz: float

    def __post_init__(self) -> None:
        if not (self.frequency_hz > 0.0) or not math.isfinite(self.frequency_hz):
            raise ValueError(f"frequency_hz must be > 0, got {self.frequency_hz}")
        period = FS_PER_SECOND / self.frequency_hz
        if not (math.isfinite(period) and 1 <= round(period) <= _MAX_PERIOD_FS):
            raise ValueError(
                f"frequency_hz {self.frequency_hz} gives a clock period outside "
                f"1 fs to {_MAX_PERIOD_FS} fs"
            )

    @property
    def period_fs(self) -> int:
        """Clock period quantized to integer femtoseconds."""
        return round(FS_PER_SECOND / self.frequency_hz)


@dataclass(eq=False)
class BitRecordStream:
    """One int8 symbol per occupied clock period, in period order, with the
    period index and coincidence count of each ERROR symbol's period.

    Built only by extract_bits, from period_occupancy's opens mask, so the
    error rows always agree with the symbols.  The benchmark's record
    counter reads ``.symbols``.
    """

    symbols: np.ndarray
    error_periods: np.ndarray
    error_counts: np.ndarray

    def __len__(self) -> int:
        return len(self.symbols)


class BitStream:
    """A one-dimensional uint8 array of 0/1 bits."""

    def __init__(self, bits: np.ndarray):
        self.bits = as_bit_array(bits)

    @property
    def n(self) -> int:
        return len(self.bits)


def records_to_stream(records: BitRecordStream) -> BitStream:
    """Data bits in clock order; error symbols are dropped (logged apart)."""
    data = records.symbols[records.symbols != int(Symbol.ERROR)]
    return BitStream(data.astype(np.uint8))


def _check_index(latest_ps: int, clock: ClockConfig) -> None:
    """Raises ValueError if the error log's index k + 1 of the period of
    time latest_ps (ps) would pass int64."""
    if latest_ps * 1000 // clock.period_fs >= _INT64_MAX:
        raise ValueError(f"clock indices pass int64 at {latest_ps} ps")


def _period_indices(times_ps: np.ndarray, clock: ClockConfig, out=None) -> np.ndarray:
    """Exact period index floor(1000 t / P) of timestamps t >= 0 (ps), in
    the input's order, written into out, of any integer type that holds
    them, or a new int64 array; the caller checks the largest time with
    ``_check_index``.

    Works in femtoseconds so that periods off the picosecond grid (3 MHz,
    7 kHz) still index exactly; t = q P + r keeps every product in int64 at
    any duration, and 1000 q is at most the index, so it fits out too.  A
    period of whole picoseconds p, as 500 kHz, 12.5 kHz and 1.25 kHz clocks
    have, needs one division: floor(1000 t / 1000 p) = floor(t / p).
    """
    period_fs = clock.period_fs
    if period_fs % 1000 == 0:
        return np.floor_divide(times_ps, period_fs // 1000, out=out, casting="unsafe")
    q, r = np.divmod(times_ps, period_fs)
    # in place, so the peak holds two arrays of the input's size, not five
    q *= 1000
    np.floor_divide(np.multiply(r, 1000, out=r), period_fs, out=r)
    return np.add(q, r, out=q if out is None else out, casting="unsafe")


def _opens(periods: np.ndarray) -> np.ndarray:
    """n + 1 bools over sorted period indices: True where index i opens an
    occupied period, then a True sentinel.  A period of two or more opens
    at s, where opens[s] > opens[s + 1], and closes at e, where opens[e]
    < opens[e + 1]; opens[0] and the sentinel are True, so the changes of
    opens alternate between the two."""
    opens = np.ones(len(periods) + 1, dtype=bool)
    np.not_equal(periods[1:], periods[:-1], out=opens[1:-1])
    return opens


def period_occupancy(coincidences: CoincidenceStream, clock: ClockConfig):
    """(periods, opens): each coincidence's int64 period index, and
    ``_opens`` of them.

    Relies on time-sorted input, which it checks: periods of sorted times
    never decrease, so each occupied period is one run of equal neighbours
    and a single linear pass finds them without a sort.
    """
    times = coincidences.times_ps
    if np.any(times[1:] < times[:-1]):
        raise ValueError("coincidences must be time-sorted")
    _check_index(int(times[-1]) if len(times) else 0, clock)
    periods = _period_indices(times, clock)
    return periods, _opens(periods)


def occupancy_counts(n: int, run_ps: int, chunks, clock: ClockConfig) -> tuple[int, int]:
    """(occupied, multi): the clock periods that n times occupy, and those
    holding two or more, the counts of extract_bits' symbols and error
    symbols on the sorted stream, without its labels.

    The times (ps, any order, each below run_ps) come as int64 chunks, as
    ``synthetic_times`` draws them, and are not written.  Their period
    indices go into one array, uint32 where run_ps - 1's index fits, which
    is then sorted.  Where run_ps - 1 would fail ``_check_index``, each
    chunk's largest time is checked instead.
    """
    bound = (run_ps - 1) * 1000 // clock.period_fs
    periods = np.empty(n, np.uint32 if bound <= np.iinfo(np.uint32).max else np.int64)
    lo = 0
    for times in chunks:
        if bound >= _INT64_MAX:
            _check_index(int(times.max(initial=0)), clock)
        _period_indices(times, clock, out=periods[lo : lo + len(times)])
        lo += len(times)
        del times  # else it lives on while the next chunk is drawn
    periods.sort()
    opens = _opens(periods)
    return int(np.count_nonzero(opens)) - 1, int(np.count_nonzero(opens[:-1] > opens[1:]))


def extract_bits(coincidences: CoincidenceStream, clock: ClockConfig) -> BitRecordStream:
    """Clocked bit extraction from qualifying (D1D2/D3D4) coincidences.

    Cross-arm labels must have been routed to the purity monitor first;
    their presence here is an error.  Each occupied period emits one
    symbol, in period order: its data bit if it holds one coincidence, an
    error symbol if it holds more.  Only the error periods are gathered by
    index, from period_occupancy's opens mask.
    """
    labels = coincidences.labels
    if len(labels) and np.any(
        (labels != int(PairLabel.D1D2)) & (labels != int(PairLabel.D3D4))
    ):
        raise ValueError(
            "cross-arm coincidence labels must be filtered out before bit extraction"
        )
    periods, opens = period_occupancy(coincidences, clock)
    symbols = (labels == int(PairLabel.D3D4)).view(np.int8)  # fresh: ONE or ZERO
    # the multi-occupied periods' opens and closes, alternating (see _opens)
    edges = np.flatnonzero(opens[:-1] != opens[1:])
    opens_multi, closes_multi = edges[0::2], edges[1::2]
    symbols[opens_multi] = Symbol.ERROR
    return BitRecordStream(symbols[opens[:-1]], periods[opens_multi], closes_multi - opens_multi + 1)


def ber_model(rate_hz: float, clock: ClockConfig) -> float:
    """Modeled bit error rate R / (2 f) for coincidence rate R.

    This is the first-order term of the exact Poisson occupancy law
    (1 - (1 + L) e^-L) / (1 - e^-L), L = R / f, and lies 0 to L^2 / 12
    above it (the gap is L^2/12 - L^4/720 + ...).
    """
    if not (rate_hz >= 0.0) or not math.isfinite(rate_hz):
        raise ValueError(f"rate_hz must be >= 0, got {rate_hz}")
    ber = rate_hz / (2.0 * clock.frequency_hz)
    if ber > 1.0:
        raise ModelOutOfRange(
            f"R/(2f) = {ber:.4g} exceeds 1; the linear error model does not apply"
        )
    return ber


def empirical_ber(records: BitRecordStream) -> float:
    """Observed error fraction: errors / all recorded symbols (0 if none)."""
    return len(records.error_periods) / len(records) if len(records) else 0.0


def von_neumann(stream: BitStream) -> BitStream:
    """Pairwise unbiasing: 01 -> 0, 10 -> 1, 00/11 discarded.

    Non-overlapping pairs are consumed left to right; a trailing unpaired
    bit is discarded.  Chunked/parallel callers must split inputs at even
    offsets to preserve the pairing.
    """
    bits = stream.bits
    even = len(bits) - (len(bits) % 2)
    first = bits[0:even:2]
    second = bits[1:even:2]
    # about half the pairs survive: np.compress gathers them several times
    # faster than a boolean index at that density
    return BitStream(np.compress(first != second, first))


def bias_estimate(stream: BitStream):
    """(fraction of ones, its binomial standard error)."""
    if stream.n == 0:
        raise ValueError("cannot estimate bias of an empty bit stream")
    p = int(stream.bits.sum()) / stream.n
    return p, math.sqrt(p * (1.0 - p) / stream.n)


# --- bit file formats (shared with the command-line tools) ---------------

_ASCII_LINE = 64
# byte -> 0 or 1 for the digits, 2 for a line break, 3 for anything else
_ASCII_CODE = np.full(256, 3, dtype=np.uint8)
_ASCII_CODE[[ord("0"), ord("1"), ord("\n"), ord("\r")]] = (0, 1, 2, 2)


def _ascii_bits(blob: bytes):
    """The bits of ASCII 0/1 text with line breaks, or None if it holds any
    other byte."""
    codes = _ASCII_CODE[np.frombuffer(blob, dtype=np.uint8)]
    if len(codes) and codes.max() == 3:
        return None
    return codes[codes < 2]


def write_bit_file(stream: BitStream, path, fmt: str = "ascii") -> None:
    """ASCII: 64 digits and a newline per line, the last line shorter;
    packed: the bit count as 8 little-endian bytes, then the bits packed
    MSB first."""
    if fmt == "ascii":
        bits = stream.bits
        rows, tail = divmod(len(bits), _ASCII_LINE)
        body = rows * (_ASCII_LINE + 1)
        text = np.empty(body + (tail + 1 if tail else 0), dtype=np.uint8)
        lines = text[:body].reshape(rows, _ASCII_LINE + 1)
        np.add(bits[: rows * _ASCII_LINE].reshape(rows, _ASCII_LINE), ord("0"), out=lines[:, :-1])
        lines[:, -1] = ord("\n")
        if tail:
            np.add(bits[rows * _ASCII_LINE :], ord("0"), out=text[body:-1])
            text[-1] = ord("\n")
        with open(path, "wb") as fh:
            fh.write(text)
    elif fmt == "packed":
        with open(path, "wb") as fh:
            fh.write(len(stream.bits).to_bytes(8, "little"))
            fh.write(np.packbits(stream.bits))
    else:
        raise ValueError(f"unknown bit file format {fmt!r}")


def read_bit_file(path, fmt: str = "auto") -> BitStream:
    """Read either bit file format; 'auto' sniffs ASCII 0/1 content."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if fmt in ("auto", "ascii"):
        bits = _ascii_bits(blob)
        if bits is not None:
            return BitStream(bits)
        if fmt == "ascii":
            raise ValueError("ascii bit file may only contain '0', '1' and line breaks")
        fmt = "packed"
    if fmt == "packed":
        if len(blob) < 8:
            raise ValueError("packed bit file shorter than its 8-byte header")
        n = int.from_bytes(blob[:8], "little")
        payload = np.frombuffer(blob, dtype=np.uint8, offset=8)
        if len(payload) < (n + 7) // 8:
            raise ValueError("packed bit file truncated")
        return BitStream(np.unpackbits(payload, count=n))
    raise ValueError(f"unknown bit file format {fmt!r}")


def write_error_log(path, records: BitRecordStream) -> None:
    """CSV of error records: a multi-occupied period k is logged at the
    next clock pulse, k + 1, with its number of coincidences."""
    rows = zip((records.error_periods + 1).tolist(), records.error_counts.tolist())
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("clock_index,n_events_in_period\n")
        fh.writelines(f"{k},{n}\n" for k, n in rows)
