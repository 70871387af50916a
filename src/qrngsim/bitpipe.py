"""Clocked bit extraction, error accounting, and von Neumann unbiasing.

A free-running clock of frequency f slices time into periods.  A period
holding exactly one D1D2 or D3D4 coincidence records a 0 or 1 at that
period's index; a period holding two or more records an error symbol at
the next clock pulse.  The expected error fraction for a Poisson
coincidence stream of rate R is modeled as R / (2 f): with L = R / f the
exact occupancy law is P(N >= 2) / P(N >= 1) = (1 - (1 + L) e^-L) /
(1 - e^-L), R / (2 f) = L / 2 is its first-order term, and it lies 0 to
L^2 / 12 above the exact law.

Error symbols never enter the bit stream handed to the unbiaser: they are
logged separately, mirroring a recording clock fast enough that error
bits are absent from the kept data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .timetag import CoincidenceStream, PairLabel, UnsortedInput

FS_PER_SECOND = 10**15

_INT64_MAX = np.iinfo(np.int64).max
_MAX_PERIOD_FS = _INT64_MAX // 1000  # 9.22 s: 1000 * (t mod P) still fits int64


class CrossArmLabelPresent(ValueError):
    pass


class ModelOutOfRange(ValueError):
    pass


class EmptyStream(ValueError):
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


class BitRecordStream:
    """Clock-ordered records as parallel arrays; indices strictly increase."""

    def __init__(self, symbols: np.ndarray, clock_indices: np.ndarray):
        self.symbols = np.asarray(symbols, dtype=np.int8)
        self.clock_indices = np.asarray(clock_indices, dtype=np.int64)
        if len(self.symbols) != len(self.clock_indices):
            raise ValueError("symbols and clock_indices must have equal length")

    def __len__(self) -> int:
        return len(self.symbols)

    def counts(self) -> dict:
        c = np.bincount(self.symbols, minlength=3)
        return {Symbol.ZERO: int(c[0]), Symbol.ONE: int(c[1]), Symbol.ERROR: int(c[2])}


class BitStream:
    """A packed-friendly sequence of 0/1 bits with zero/one tallies."""

    def __init__(self, bits):
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if len(arr) and arr.max() > 1:
            raise ValueError("bits must be 0 or 1")
        self.bits = arr

    @classmethod
    def from_string(cls, text: str) -> "BitStream":
        bits = _ascii_bits(text.encode("ascii"))
        if bits is None:
            raise ValueError("bit string may only contain '0' and '1'")
        return cls(bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, BitStream) and np.array_equal(self.bits, other.bits)

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def ones(self) -> int:
        return int(self.bits.sum())

    @property
    def zeros(self) -> int:
        return self.n - self.ones

    def to_string(self) -> str:
        return (self.bits + ord("0")).tobytes().decode("ascii")

    def to_packed(self) -> bytes:
        """8-byte little-endian bit count, then MSB-first packed payload."""
        header = len(self.bits).to_bytes(8, "little")
        return header + np.packbits(self.bits).tobytes()

    @classmethod
    def from_packed(cls, blob: bytes) -> "BitStream":
        if len(blob) < 8:
            raise ValueError("packed bit blob shorter than its 8-byte header")
        n = int.from_bytes(blob[:8], "little")
        need = (n + 7) // 8
        payload = np.frombuffer(blob[8 : 8 + need], dtype=np.uint8)
        if len(payload) != need:
            raise ValueError("packed bit blob truncated")
        return cls(np.unpackbits(payload, count=n) if n else np.empty(0, np.uint8))


def records_to_stream(records: BitRecordStream) -> BitStream:
    """Data bits in clock order; error symbols are dropped (logged apart)."""
    data = records.symbols[records.symbols != int(Symbol.ERROR)]
    return BitStream(data.astype(np.uint8))


def _period_indices(times_ps: np.ndarray, clock: ClockConfig) -> np.ndarray:
    """Exact period index floor(1000 t / P) of sorted timestamps t >= 0 (ps).

    Works in femtoseconds so common clocks (500 kHz, 3 ns windows) divide
    exactly; t = q P + r keeps every product in int64 at any duration.
    Raises ValueError if the indices extract_bits may emit (up to the last
    index plus the number of timestamps) would pass int64.
    """
    period_fs = clock.period_fs
    last = int(times_ps[-1]) * 1000 // period_fs if len(times_ps) else 0
    if last + len(times_ps) > _INT64_MAX:
        raise ValueError(f"clock indices pass int64 at {int(times_ps[-1])} ps")
    q, r = np.divmod(times_ps, period_fs)
    # in place, so the peak holds two arrays of the input's size, not five
    q *= 1000
    q += np.floor_divide(np.multiply(r, 1000, out=r), period_fs, out=r)
    return q


def period_occupancy(coincidences: CoincidenceStream, clock: ClockConfig):
    """(period index, event count, first label) per occupied clock period.

    Relies on time-sorted input, which it checks: periods of sorted times
    never decrease, so each occupied period is one run of equal neighbours
    and a single linear pass finds them without a sort.
    """
    times = coincidences.times_ps
    if np.any(times[1:] < times[:-1]):
        raise UnsortedInput("coincidences must be time-sorted")
    periods = _period_indices(times, clock)
    run_start = np.empty(len(periods), dtype=bool)
    run_start[:1] = True
    np.not_equal(periods[1:], periods[:-1], out=run_start[1:])
    first = np.flatnonzero(run_start)
    index = periods[first]
    del periods, run_start  # free the full-length arrays before the counts
    return index, np.diff(first, append=len(times)), coincidences.labels[first]


def extract_bits(coincidences: CoincidenceStream, clock: ClockConfig) -> BitRecordStream:
    """Clocked bit extraction from qualifying (D1D2/D3D4) coincidences.

    Cross-arm labels must have been routed to the purity monitor first;
    their presence here is an error.  A single-coincidence period k emits
    its data bit at index k; a multi-coincidence period emits one error
    symbol at index k+1.  When an error symbol and a following period's
    data bit would land on the same index, the error keeps it and the data
    bit shifts to the next free index, so every coincidence stays
    accounted for and indices strictly increase.
    """
    if len(coincidences) and np.any(
        (coincidences.labels != int(PairLabel.D1D2))
        & (coincidences.labels != int(PairLabel.D3D4))
    ):
        raise CrossArmLabelPresent(
            "cross-arm coincidence labels must be filtered out before bit extraction"
        )
    # period_occupancy returns fresh arrays, so the work below is in place
    index, counts, first_labels = period_occupancy(coincidences, clock)
    multi = counts >= 2
    symbols = (first_labels == int(PairLabel.D3D4)).view(np.int8)  # ONE or ZERO
    symbols[multi] = Symbol.ERROR
    index += multi  # natural index: an error lands on the next pulse
    # Resolve index collisions: each record lands on max(natural, prev+1),
    # i.e. out = cummax(natural - i) + i.
    offsets = np.arange(len(index), dtype=np.int64)
    index -= offsets
    np.maximum.accumulate(index, out=index)
    index += offsets
    return BitRecordStream(symbols, index)


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
    total = len(records)
    if total == 0:
        return 0.0
    errors = int(np.count_nonzero(records.symbols == int(Symbol.ERROR)))
    return errors / total


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
        raise EmptyStream("cannot estimate bias of an empty bit stream")
    p = stream.ones / stream.n
    return p, math.sqrt(p * (1.0 - p) / stream.n)


def expected_yield(p_one: float) -> float:
    """Expected von Neumann output/input length ratio for i.i.d. bias p."""
    if not (0.0 <= p_one <= 1.0):
        raise ValueError("p_one must lie in [0, 1]")
    return p_one * (1.0 - p_one)


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
    packed: see ``BitStream.to_packed``."""
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
            fh.write(stream.to_packed())
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
        return BitStream.from_packed(blob)
    raise ValueError(f"unknown bit file format {fmt!r}")


def write_error_log(path, coincidences: CoincidenceStream, clock: ClockConfig) -> None:
    """CSV of error records: emitted clock index and period occupancy.

    A multi-occupied period k emits its error at k + 1 and is never
    displaced, since period indices strictly increase.
    """
    uniq, counts, _ = period_occupancy(coincidences, clock)
    multi = counts >= 2
    rows = zip((uniq[multi] + 1).tolist(), counts[multi].tolist())
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("clock_index,n_events_in_period\n")
        fh.writelines(f"{k},{n}\n" for k, n in rows)
