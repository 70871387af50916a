"""Clocked bit extraction, BER model, unbiasing, and bit file formats."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qrngsim import bitpipe
from qrngsim.bitpipe import (
    BitRecordStream,
    BitStream,
    ClockConfig,
    ModelOutOfRange,
    Symbol,
    bias_estimate,
    ber_model,
    empirical_ber,
    extract_bits,
    read_bit_file,
    records_to_stream,
    von_neumann,
    write_bit_file,
    write_error_log,
)
from qrngsim.timetag import (
    CoincidenceStream,
    PairLabel,
    synthetic_coincidences,
)

from oracles import (
    bit_array,
    bit_text,
    clocked_records,
    expected_yield,
    period_table,
    poisson_error_fraction,
    poisson_period_occupancy,
    reference_ascii_bits,
)

MS = 10**9  # picoseconds per millisecond
INT64_MAX = np.iinfo(np.int64).max


def coincidences(*events):
    return CoincidenceStream(np.array([t for _, t in events], dtype=np.int64),
                             np.array([label for label, _ in events], dtype=np.int8))


def symbols_at(records):
    """The records' symbols, as Symbol members."""
    return list(map(Symbol, records.symbols.tolist()))


def error_rows(tmp_path, stream, clock):
    """(clock index, events in the period) per row of the error log."""
    path = tmp_path / "errors.csv"
    write_error_log(path, extract_bits(stream, clock))
    return [tuple(map(int, line.split(","))) for line in path.read_text().splitlines()[1:]]


# the slowest accepted clock: its period rounds to INT64_MAX // 1000 - 1 fs
SLOWEST_CLOCK_HZ = 0.10842021724855046


class TestClockConfig:
    @pytest.mark.parametrize(
        "frequency_hz", [1e15, 1.5e15, 500_000.0, 0.10843, SLOWEST_CLOCK_HZ]
    )
    def test_usable_period_accepted(self, frequency_hz):
        assert 1 <= ClockConfig(frequency_hz).period_fs <= np.iinfo(np.int64).max // 1000

    @pytest.mark.parametrize(
        "frequency_hz",
        [2.5e15, 1e16, 0.1084, 0.10842021724855044, 1.1e-4, 1e-4, 1e-300,
         0.0, -1.0, math.inf, math.nan],
    )
    def test_unusable_period_rejected(self, frequency_hz):
        # 2.5e15 and 1e16 Hz round to a 0 fs period; 0.1084 Hz and slower
        # need more than INT64_MAX // 1000 fs (0.10842021724855044 Hz rounds
        # to one fs past it) and 1e-300 Hz overflows to an infinite period
        with pytest.raises(ValueError):
            ClockConfig(frequency_hz)


class TestExtractBits:
    def test_peak_memory_is_a_small_multiple_of_the_input(self):
        # about 10^6 coincidences at L = R/f = 0.02, so nearly every one
        # occupies its own period and the per-period arrays are full length
        stream = synthetic_coincidences(100.0, 10_000.0, seed=4)
        input_bytes = stream.times_ps.nbytes + stream.labels.nbytes
        tracemalloc.start()
        try:
            extract_bits(stream, ClockConfig(5000.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(stream) > 900_000
        assert peak < 5 * input_bytes

    @pytest.mark.parametrize("frequency_hz", [12_500.0, 1_250.0])
    def test_peak_memory_is_below_twice_the_input(self, frequency_hz):
        # about 300,000 coincidences at L = R/f = 0.02 and 0.2; the input's
        # times and labels are 9 bytes a coincidence, and only the error
        # periods may be gathered into per-period index arrays
        stream = synthetic_coincidences(250.0, 1200.0, seed=6)
        clock = ClockConfig(frequency_hz)
        input_bytes = stream.times_ps.nbytes + stream.labels.nbytes
        extract_bits(stream, clock)  # warm: numpy's first-call setup is not the kernel's
        tracemalloc.start()
        try:
            extract_bits(stream, clock)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(stream) > 290_000
        assert peak < 2 * input_bytes

    def test_one_bit_per_singly_occupied_period(self, tmp_path):
        stream = coincidences(
            (PairLabel.D1D2, int(0.5 * MS)), (PairLabel.D3D4, int(1.2 * MS))
        )
        clock = ClockConfig(1000.0)
        assert symbols_at(extract_bits(stream, clock)) == [Symbol.ZERO, Symbol.ONE]
        assert error_rows(tmp_path, stream, clock) == []

    def test_double_occupancy_records_error_at_next_pulse(self, tmp_path):
        stream = coincidences(
            (PairLabel.D1D2, int(0.2 * MS)), (PairLabel.D3D4, int(0.7 * MS))
        )
        clock = ClockConfig(1000.0)
        assert symbols_at(extract_bits(stream, clock)) == [Symbol.ERROR]
        assert error_rows(tmp_path, stream, clock) == [(1, 2)]

    def test_empty_input(self):
        records = extract_bits(coincidences(), ClockConfig(1000.0))
        assert len(records) == 0
        assert empirical_ber(records) == 0.0

    def test_gap_after_error_needs_no_displacement(self, tmp_path):
        stream = coincidences(
            (PairLabel.D1D2, int(0.1 * MS)),
            (PairLabel.D1D2, int(0.2 * MS)),
            (PairLabel.D3D4, int(5.5 * MS)),
        )
        clock = ClockConfig(1000.0)
        assert symbols_at(extract_bits(stream, clock)) == [Symbol.ERROR, Symbol.ONE]
        assert error_rows(tmp_path, stream, clock) == [(1, 2)]

    def test_cross_arm_labels_rejected(self):
        with pytest.raises(ValueError, match="cross-arm coincidence labels must be filtered out"):
            extract_bits(
                coincidences((PairLabel.D1D3, int(0.5 * MS))), ClockConfig(1000.0)
            )

    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError, match="coincidences must be time-sorted"):
            extract_bits(
                coincidences(
                    (PairLabel.D1D2, int(1.2 * MS)), (PairLabel.D3D4, int(0.5 * MS))
                ),
                ClockConfig(1000.0),
            )

    def test_indices_strictly_increase_and_errors_follow_multis(self, tmp_path):
        clock = ClockConfig(5000.0)
        for trial in range(20):
            stream = synthetic_coincidences(800.0, 20.0, seed=trial)
            records = extract_bits(stream, clock)
            rows = error_rows(tmp_path, stream, clock)
            idx = np.array([index for index, _ in rows], dtype=np.int64)
            assert np.all(np.diff(idx) >= 1)
            periods = (stream.times_ps * 1000) // clock.period_fs
            uniq, counts = np.unique(periods, return_counts=True)
            assert rows == list(zip((uniq[counts >= 2] + 1).tolist(),
                                    counts[counts >= 2].tolist()))
            assert len(records.error_periods) == len(rows)

    def test_error_count_matches_independent_integer_arithmetic(self):
        stream = synthetic_coincidences(668.0, 50.0, seed=12)
        clock = ClockConfig(10_000.0)
        records = extract_bits(stream, clock)
        # recount with plain Python integers at full precision
        periods = [t * 10_000 // 10**12 for t in stream.times_ps.tolist()]
        from collections import Counter

        occupancy = Counter(periods)
        want_errors = sum(1 for c in occupancy.values() if c >= 2)
        want_total = len(occupancy)
        assert len(records.error_periods) == want_errors
        assert len(records) == want_total


# INT64_MAX // 1000 ps (about 9,223 s): past it 1000 t no longer fits int64
LINE_PS = INT64_MAX // 1000


@st.composite
def clocked_cases(draw):
    """(clock frequency, sorted times in ps, labels) of a qualifying stream.

    3 MHz and 7 kHz periods (333,333,333 and 142,857,142,857 fs) do not
    divide a picosecond grid evenly; 500 kHz, 12.5 kHz and 1 THz periods
    (2 us, 80 us and 1 ps) are whole picoseconds, which take the
    one-division path.
    """
    frequency_hz = draw(st.sampled_from([3e6, 7e3, SLOWEST_CLOCK_HZ, 5e5, 1.25e4, 1e12]))
    period_ps = ClockConfig(frequency_hz).period_fs // 1000
    gaps = draw(st.lists(
        st.one_of(st.just(0), st.integers(0, period_ps // 4),
                  st.integers(0, 3 * period_ps)),
        min_size=0, max_size=60,
    ))
    times = np.cumsum(gaps, dtype=np.int64)
    # start at zero, or straddle the line
    if draw(st.booleans()):
        last = int(times[-1]) if len(times) else 0
        times += LINE_PS - draw(st.integers(0, last))
    labels = draw(st.lists(
        st.sampled_from([PairLabel.D1D2, PairLabel.D3D4]),
        min_size=len(times), max_size=len(times),
    ))
    return frequency_hz, times.tolist(), labels


D1D2, D3D4 = PairLabel.D1D2, PairLabel.D3D4


class TestClockedExtractionOracle:
    # a 500 kHz clock has a 2,000,000 ps period
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=clocked_cases())
    @example(case=(5e5, [0, 1_999_999, 2_000_000, 4_000_000], [D3D4, D1D2, D1D2, D3D4])
             ).via("multi-occupied first period")
    @example(case=(5e5, [0, 2_000_000, 3_000_000, 3_999_999], [D1D2, D3D4, D3D4, D1D2])
             ).via("multi-occupied last period")
    @example(case=(5e5, [0, 0, 1_999_999], [D3D4, D1D2, D3D4])
             ).via("the whole stream in one period")
    @example(case=(7e3, [LINE_PS + 5], [D3D4])).via("a single coincidence")
    @example(case=(3e6, [], [])).via("an empty stream")
    def test_matches_scalar_oracle(self, tmp_path, case):
        frequency_hz, times, labels = case
        clock = ClockConfig(frequency_hz)
        stream = CoincidenceStream(np.array(times, dtype=np.int64),
                                   np.array(labels, dtype=np.int8))
        given_times, given_labels = stream.times_ps.copy(), stream.labels.copy()
        want_symbols, want_rows = clocked_records(times, labels, clock.period_fs)

        periods, opens = bitpipe.period_occupancy(stream, clock)
        assert len(opens) == len(times) + 1 and opens[-1]
        occupancy = zip(periods[opens[:-1]].tolist(), np.diff(np.flatnonzero(opens)).tolist(),
                        stream.labels[opens[:-1]].tolist())
        table = period_table(times, labels, clock.period_fs)
        assert list(occupancy) == [(k, *table[k]) for k in sorted(table)]
        assert extract_bits(stream, clock).symbols.tolist() == want_symbols
        assert error_rows(tmp_path, stream, clock) == want_rows
        # the in-place work never writes through to the caller's arrays
        assert np.array_equal(stream.times_ps, given_times)
        assert np.array_equal(stream.labels, given_labels)

    def test_indices_up_to_int64_max(self, tmp_path):
        # a 1 THz clock has a 1000 fs period, so a timestamp's index is t;
        # the last period may sit one below INT64_MAX, where the error log's
        # k + 1 reaches it
        clock = ClockConfig(1e12)
        lone = coincidences((PairLabel.D3D4, INT64_MAX - 2), (PairLabel.D3D4, INT64_MAX - 1))
        assert symbols_at(extract_bits(lone, clock)) == [Symbol.ONE, Symbol.ONE]
        assert error_rows(tmp_path, lone, clock) == []
        both = coincidences((PairLabel.D1D2, INT64_MAX - 1), (PairLabel.D3D4, INT64_MAX - 1))
        assert symbols_at(extract_bits(both, clock)) == [Symbol.ERROR]
        assert error_rows(tmp_path, both, clock) == [(INT64_MAX, 2)]

    def test_index_past_int64_rejected(self):
        # a period at INT64_MAX would log its error at INT64_MAX + 1
        clock = ClockConfig(1e12)
        stream = coincidences((PairLabel.D3D4, INT64_MAX - 1), (PairLabel.D3D4, INT64_MAX))
        with pytest.raises(ValueError):
            extract_bits(stream, clock)


class TestBerModel:
    def test_bench_operating_points(self):
        assert ber_model(668.0, ClockConfig(10_000.0)) == pytest.approx(0.0334)
        assert ber_model(668.0, ClockConfig(500_000.0)) == pytest.approx(6.68e-4)

    def test_zero_rate(self):
        assert ber_model(0.0, ClockConfig(123.0)) == 0.0

    def test_out_of_range_guard(self):
        with pytest.raises(ModelOutOfRange):
            ber_model(668.0, ClockConfig(300.0))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ber_model(-1.0, ClockConfig(1000.0))

    def test_first_order_term_of_exact_law(self):
        # R/(2f) = L/2 lies 0 to L^2/12 above the exact occupancy law, and
        # the gap closes on L^2/12 as L -> 0 (next term is L^4/720)
        rate = 668.0
        for lam in np.geomspace(1e-3, 2.0, 40):
            gap = ber_model(rate, ClockConfig(rate / lam)) - poisson_error_fraction(lam)
            assert 0.0 < gap <= lam * lam / 12.0
            assert gap >= lam * lam / 12.0 - lam**4 / 720.0 - 1e-15


class TestEmpiricalBer:
    def test_direct_count(self):
        records = BitRecordStream(
            np.array([Symbol.ZERO, Symbol.ONE, Symbol.ERROR, Symbol.ONE], dtype=np.int8),
            np.array([2]), np.array([2]),
        )
        assert empirical_ber(records) == 0.25

    def test_all_errors(self):
        records = BitRecordStream(
            np.full(5, Symbol.ERROR, dtype=np.int8), np.arange(5), np.full(5, 2)
        )
        assert empirical_ber(records) == 1.0

    def test_poisson_stream_matches_model_at_low_duty_cycle(self):
        # f = 10 kHz, R = 668 Hz, 1000 s: R/2f = 0.0334, exact law 0.03303;
        # the model's truncation L^2/12 is 1.7 sigma of this run
        stream = synthetic_coincidences(668.0, 1000.0, seed=1)
        clock = ClockConfig(10_000.0)
        records = extract_bits(stream, clock)
        emp = empirical_ber(records)
        sigma = math.sqrt(emp * (1.0 - emp) / len(records))
        lam = 668.0 / clock.frequency_hz
        assert abs(emp - poisson_error_fraction(lam)) < 3.0 * sigma
        assert abs(emp - ber_model(668.0, clock)) < 3.0 * sigma + lam * lam / 12.0

    def test_occupancy_statistics_match_placement_oracle(self):
        # independent float-placement oracle, same process parameters
        errors, occupied = poisson_period_occupancy(668.0, 10_000.0, 1000.0, seed=2)
        stream = synthetic_coincidences(668.0, 1000.0, seed=1)
        records = extract_bits(stream, ClockConfig(10_000.0))
        got = len(records.error_periods) / len(records)
        want = errors / occupied
        # two independent realizations of the same occupancy law
        sigma = math.sqrt(want * (1.0 - want) / occupied)
        assert abs(got - want) < 6.0 * sigma


def vn(text):
    """von Neumann output of a bit string, as a bit string."""
    return bit_text(von_neumann(BitStream(bit_array(text))).bits)


def random_bits(n, seed):
    return np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8)


class TestVonNeumann:
    def test_worked_example(self):
        assert vn("0110") == "01"

    def test_all_concordant_pairs_discarded(self):
        assert vn("0000") == ""

    def test_mixed_pairs(self):
        assert vn("01101100") == "01"

    def test_trailing_odd_bit_discarded(self):
        assert vn("01101") == "01"

    def test_empty(self):
        assert vn("") == ""

    def test_unbiases_bernoulli_stream(self):
        rng = np.random.default_rng(606)
        p = 0.602
        bits = BitStream((rng.random(1_000_000) < p).astype(np.uint8))
        out = von_neumann(bits)
        # output length concentrates around p(1-p) per input bit
        want_yield = expected_yield(p)
        n_pairs = bits.n // 2
        yield_sigma = math.sqrt(2 * want_yield * (1 - 2 * want_yield) / n_pairs) / 2
        assert abs(out.n / bits.n - want_yield) < 4.0 * yield_sigma
        p_hat, _ = bias_estimate(out)
        assert abs(p_hat - 0.5) < 4.0 * math.sqrt(0.25 / out.n)

    def test_output_of_fair_input_stays_fair(self):
        out = von_neumann(BitStream(random_bits(400_000, 607)))
        p_hat, _ = bias_estimate(out)
        assert out.n >= 10_000
        assert abs(p_hat - 0.5) < 4.0 * math.sqrt(0.25 / out.n)

    def test_even_offset_chunking_is_equivalent(self):
        bits = random_bits(10_000, 608)
        whole = von_neumann(BitStream(bits)).bits
        split = np.concatenate((von_neumann(BitStream(bits[:5000])).bits,
                                von_neumann(BitStream(bits[5000:])).bits))
        assert np.array_equal(whole, split)


class TestBiasAndYield:
    def test_all_ones(self):
        assert bias_estimate(BitStream(bit_array("1111"))) == (1.0, 0.0)

    def test_balanced(self):
        p, err = bias_estimate(BitStream(bit_array("0101")))
        assert (p, err) == (0.5, 0.25)

    def test_bernoulli_stream_estimate(self):
        rng = np.random.default_rng(609)
        bits = BitStream((rng.random(1_000_000) < 0.602).astype(np.uint8))
        p, err = bias_estimate(bits)
        assert abs(p - 0.602) < 3.0 * 0.00049
        assert err == pytest.approx(math.sqrt(p * (1 - p) / 1_000_000))

    def test_empty_stream_raises(self):
        with pytest.raises(ValueError, match="cannot estimate bias of an empty bit stream"):
            bias_estimate(BitStream(bit_array("")))

    def test_expected_yield_values(self):
        assert expected_yield(0.5) == 0.25
        assert expected_yield(0.0) == 0.0
        # bias solving p(1-p) = 0.2396
        assert expected_yield(0.60198) == pytest.approx(0.23960, abs=5e-6)

    def test_expected_yield_domain(self):
        with pytest.raises(ValueError):
            expected_yield(1.2)


def round_trip(tmp_path, bits, fmt, read_fmt="auto"):
    """The bits read back from a file written in ``fmt``."""
    path = tmp_path / f"bits.{fmt}"
    write_bit_file(BitStream(bits), path, fmt=fmt)
    return read_bit_file(path, fmt=read_fmt).bits


class TestPackingAndFiles:
    @pytest.mark.parametrize("n", list(range(0, 66)))
    def test_packed_round_trip_all_boundary_lengths(self, tmp_path, n):
        bits = random_bits(n, n)
        assert np.array_equal(round_trip(tmp_path, bits, "packed", "packed"), bits)

    def test_packed_layout_is_msb_first_with_length_header(self, tmp_path):
        path = tmp_path / "bits.dat"
        write_bit_file(BitStream(bit_array("10000000")), path, fmt="packed")
        assert path.read_bytes() == (8).to_bytes(8, "little") + b"\x80"
        write_bit_file(BitStream(bit_array("1")), path, fmt="packed")
        assert path.read_bytes() == (1).to_bytes(8, "little") + b"\x80"

    def test_truncated_packed_blob_rejected(self, tmp_path):
        path = tmp_path / "bits.dat"
        write_bit_file(BitStream(bit_array("10101010101")), path, fmt="packed")
        blob = path.read_bytes()
        for cut in (blob[:-1], blob[:7]):  # a payload byte short; no full header
            path.write_bytes(cut)
            with pytest.raises(ValueError):
                read_bit_file(path, fmt="packed")

    def test_ascii_round_trip_ignores_newlines(self, tmp_path):
        bits = random_bits(1000, 77)
        assert np.array_equal(round_trip(tmp_path, bits, "ascii"), bits)
        # manual newline mangling must not change the content
        text = bit_text(bits)
        mangled = tmp_path / "mangled.txt"
        mangled.write_text(text[:500] + "\n\n" + text[500:])
        assert np.array_equal(read_bit_file(mangled).bits, bits)

    def test_packed_file_round_trip_and_autodetect(self, tmp_path):
        bits = random_bits(12345, 78)
        assert np.array_equal(round_trip(tmp_path, bits, "packed"), bits)
        assert np.array_equal(round_trip(tmp_path, bits, "packed", "packed"), bits)

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 64 * 1000 + 5])
    def test_ascii_writer_matches_line_oracle(self, tmp_path, n):
        bits = random_bits(n, n)
        path = tmp_path / "bits.txt"
        write_bit_file(BitStream(bits), path, fmt="ascii")
        assert path.read_bytes() == reference_ascii_bits(bits)
        assert np.array_equal(read_bit_file(path).bits, bits)
        assert np.array_equal(read_bit_file(path, fmt="ascii").bits, bits)

    def test_crlf_and_blank_lines_read_back_the_same_bits(self, tmp_path):
        bits = random_bits(300, 79)
        text = bit_text(bits)
        path = tmp_path / "bits.txt"
        path.write_bytes(
            ("\r\n" + text[:100] + "\r\n\r\n" + text[100:250] + "\n\n\r\n"
             + text[250:] + "\r\n").encode("ascii")
        )
        assert np.array_equal(read_bit_file(path).bits, bits)
        assert np.array_equal(read_bit_file(path, fmt="ascii").bits, bits)

    @pytest.mark.parametrize("bad", [b"2", b"\x80", b"\xff", b" "])
    def test_ascii_rejects_other_bytes(self, tmp_path, bad):
        path = tmp_path / "bits.txt"
        path.write_bytes(b"0110\n01" + bad + b"0\n")
        with pytest.raises(ValueError):
            read_bit_file(path, fmt="ascii")

    @pytest.mark.parametrize("n", [0, 1, 8, 64, 12345])
    def test_autodetect_picks_packed_for_packed_files(self, tmp_path, n):
        bits = random_bits(n, n)
        assert np.array_equal(round_trip(tmp_path, bits, "packed"), bits)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_bytes(b"01\n")
        with pytest.raises(ValueError):
            write_bit_file(BitStream(bit_array("01")), path, fmt="hex")
        with pytest.raises(ValueError):
            read_bit_file(path, fmt="hex")

    def test_records_to_stream_drops_errors(self):
        records = BitRecordStream(
            np.array([Symbol.ONE, Symbol.ERROR, Symbol.ZERO], dtype=np.int8),
            np.array([1]), np.array([3]),
        )
        assert bit_text(records_to_stream(records).bits) == "10"

    def test_error_log_contents(self, tmp_path):
        stream = coincidences(
            (PairLabel.D1D2, int(0.1 * MS)),
            (PairLabel.D1D2, int(0.2 * MS)),
            (PairLabel.D3D4, int(0.3 * MS)),
            (PairLabel.D3D4, int(5.5 * MS)),
        )
        clock = ClockConfig(1000.0)
        path = tmp_path / "errors.csv"
        write_error_log(path, extract_bits(stream, clock))
        lines = path.read_text().splitlines()
        assert lines[0] == "clock_index,n_events_in_period"
        assert lines[1] == "1,3"
        assert len(lines) == 2
