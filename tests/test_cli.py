"""Command-line integration: exit codes, file outputs, reproducibility."""

import contextlib
import inspect
import json
import math
import os
import signal
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qrngsim
from qrngsim import statskit, timetag
from qrngsim.bitpipe import (
    BitStream,
    ClockConfig,
    ber_model,
    extract_bits,
    read_bit_file,
    write_bit_file,
)
from qrngsim.cli import (
    EXIT_ALARM,
    EXIT_IO,
    EXIT_OK,
    EXIT_TEST_FAIL,
    EXIT_USAGE,
    _ber_point,
    _configs_from_args,
    build_parser,
    main,
)
from qrngsim.manifest import RunManifest, sha256_file
from qrngsim.optics import (
    DetectorBank,
    InterferometerConfig,
    click_distribution,
    output_distribution,
)
from qrngsim.timetag import TimingConfig, scan_workers

from oracles import (
    bit_array,
    reference_ascii_bits,
    reference_generate,
    reference_von_neumann,
)


def run(*argv):
    return main(list(argv))


class TestScanDelay:
    def test_single_step_is_usage_error(self, tmp_path):
        code = run(
            "scan-delay", "--from", "-600", "--to", "600", "--steps", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == EXIT_USAGE

    def test_scan_writes_csv_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "dip.csv"
        code = run(
            "scan-delay", "--from", "-600", "--to", "600", "--steps", "7",
            "--pairs-per-point", "2e4", "--seed", "7", "--out", str(out),
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "delay_fs,pair_label,counts,duration_s,rate_hz,sigma_hz"
        assert len(lines) == 1 + 7 * 6
        stdout = capsys.readouterr().out
        assert "fitted visibility" in stdout
        manifest = RunManifest.load(str(out) + ".manifest.json")
        assert manifest.command == "scan-delay"
        assert manifest.metadata["fitted_visibility"] == pytest.approx(1.0, abs=0.05)

    def test_reduced_ceiling_fits_reduced_visibility(self, tmp_path):
        out = tmp_path / "dip.csv"
        code = run(
            "scan-delay", "--from", "-650", "--to", "650", "--steps", "9",
            "--pairs-per-point", "1e5", "--seed", "9", "--out", str(out),
            "--visibility-ceiling", "0.9",
        )
        assert code == EXIT_OK
        manifest = RunManifest.load(str(out) + ".manifest.json")
        fitted = manifest.metadata["fitted_visibility"]
        err = manifest.metadata["fitted_visibility_err"]
        assert abs(fitted - 0.9) < 4.0 * max(err, 1e-3)

    def test_golden_digests(self, tmp_path):
        # scan.csv's sha256 as computed when the points ran one after another;
        # seven points, more than the workers on most hosts
        out = tmp_path / "scan.csv"
        assert run("scan-delay", "--from", "-600", "--to", "600", "--steps", "7",
                   "--pairs-per-point", "2e4", "--point-duration", "0.5",
                   "--dark-rate", "500", "--seed", "41", "--out", str(out)) == EXIT_OK
        assert sha256_file(out) == (
            "15d0dd59f93147291ba9af438dcb89b3c1f72accfe13ada6ca97be792f3ed254"
        )
        meta = RunManifest.load(str(out) + ".manifest.json").metadata
        assert meta["scan_workers"] == scan_workers(7)
        assert 1 <= meta["scan_workers"] <= 7

    @pytest.mark.parametrize("span", [["--from", "0", "--to", "0", "--steps", "3"],
                                      ["--from", "-600", "--to", "600", "--steps", "2"]])
    def test_fit_needs_three_distinct_delays(self, tmp_path, capsys, span):
        out = tmp_path / "s.csv"
        assert run("scan-delay", *span, "--pairs-per-point", "1e3",
                   "--out", str(out)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "distinct delays" in err
        assert not out.exists()
        assert run("scan-delay", *span, "--pairs-per-point", "1e3", "--no-fit",
                   "--out", str(out)) == EXIT_OK

    def test_scan_with_no_cross_arm_count_has_no_dip_to_fit(self, tmp_path, capsys):
        # with every rate at 0, a zero baseline fits any visibility and width
        out = tmp_path / "s.csv"
        argv = ["scan-delay", "--from", "-600", "--to", "600", "--steps", "3",
                "--pairs-per-point", "1e3", "--efficiency", "0", "--out", str(out)]
        assert run(*argv) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "cross-arm" in err[0] and "--no-fit" in err[0]
        assert list(tmp_path.iterdir()) == []
        assert run(*argv, "--no-fit") == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "s.csv.manifest.json"]
        assert {row.split(",")[2] for row in out.read_text().splitlines()[1:]} == {"0"}

    def test_nonzero_delay_is_refused(self, tmp_path, capsys):
        # --from and --to set each point's delay; a --delay would be ignored
        out = tmp_path / "s.csv"
        argv = ["scan-delay", "--from", "-600", "--to", "600", "--steps", "3",
                "--pairs-per-point", "1e3", "--out", str(out)]
        assert run(*argv, "--delay", "5000") == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--from and --to set each point's delay" in err[0]
        assert list(tmp_path.iterdir()) == []
        # a zero delay, as every recorded scan manifest holds, still runs
        # and replays
        assert run(*argv, "--delay", "0") == EXIT_OK
        manifest_path = str(out) + ".manifest.json"
        assert RunManifest.load(manifest_path).parameters["delay"] == 0.0
        assert run("rerun", "--manifest", manifest_path,
                   "--outdir", str(tmp_path / "rr")) == EXIT_OK
        assert (tmp_path / "rr" / "s.csv").read_bytes() == out.read_bytes()

    def test_undefined_fit_error_is_null(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(timetag, "fit_dip_visibility",
                            lambda *a: timetag.DipFit(0.5, None, 200.0, 10.0))
        out = tmp_path / "s.csv"
        assert run("scan-delay", "--from", "-600", "--to", "600", "--steps", "3",
                   "--pairs-per-point", "1e3", "--out", str(out)) == EXIT_OK
        assert "+/- n/a" in capsys.readouterr().out
        text = (tmp_path / "s.csv.manifest.json").read_text()
        assert '"fitted_visibility_err": null' in text
        json.loads(text, parse_constant=pytest.fail)  # strict JSON

    def test_runtime_never_imports_scipy(self, tmp_path):
        script = (
            "import sys\n"
            "import qrngsim.cli\n"
            "code = qrngsim.cli.main(['scan-delay', '--from', '-600', '--to', '600',\n"
            "                         '--steps', '3', '--pairs-per-point', '1e3',\n"
            "                         '--out', 'scan.csv'])\n"
            "assert code == 0, code\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qrngsim.__file__)))
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "scan.csv").exists()

    @pytest.mark.skipif(sys.platform != "linux", reason="forks only on Linux")
    def test_forked_scans_never_import_a_process_pool(self, tmp_path):
        # forked, then run in the caller beside a waiting thread
        script = (
            "import sys, threading\n"
            "import qrngsim.cli\n"
            "release = threading.Event()\n"
            "if sys.argv[1] == 'thread':\n"
            "    threading.Thread(target=release.wait).start()\n"
            "for argv in (['scan-delay', '--from', '-600', '--to', '600', '--steps', '3',\n"
            "              '--pairs-per-point', '1e3', '--out', 'scan.csv'],\n"
            "             ['ber-scan', '--rate', '100', '--freqs', '5000,8000',\n"
            "              '--duration', '2', '--out', 'b.csv']):\n"
            "    assert qrngsim.cli.main(argv) == 0, argv\n"
            "release.set()\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.split('.')[0] in ('multiprocessing', 'concurrent'))\n"
            "assert not loaded, loaded\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qrngsim.__file__)))
        for mode in ("fork", "thread"):
            run_dir = tmp_path / mode
            run_dir.mkdir()
            done = subprocess.run([sys.executable, "-c", script, mode], cwd=run_dir, env=env,
                                  capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            assert (run_dir / "scan.csv").exists() and (run_dir / "b.csv").exists()
        for name in ("scan.csv", "b.csv"):
            assert (tmp_path / "fork" / name).read_bytes() == (
                tmp_path / "thread" / name).read_bytes()

    def test_one_failing_point_fails_the_scan(
        self, tmp_path, capsys, monkeypatch, another_python_thread
    ):
        def failing_point(seed, interf, *shared):
            raise ValueError(f"no point at {interf.delay_fs} fs")

        monkeypatch.setattr(timetag, "_scan_point", failing_point)
        # forked, then run in the caller
        for path in (contextlib.nullcontext, another_python_thread):
            with path():
                assert run("scan-delay", "--from", "-600", "--to", "600", "--steps", "3",
                           "--pairs-per-point", "1e3",
                           "--out", str(tmp_path / "s.csv")) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err == "error: no point at -600.0 fs\n"
            assert list(tmp_path.iterdir()) == []


class TestBerScan:
    def test_model_out_of_range_is_rejected(self, tmp_path):
        code = run(
            "ber-scan", "--rate", "668", "--freqs", "300",
            "--out", str(tmp_path / "b.csv"),
        )
        assert code == EXIT_USAGE

    def test_zero_rate_gives_zero_ber(self, tmp_path):
        out = tmp_path / "b.csv"
        code = run("ber-scan", "--rate", "0", "--freqs", "1000,2000",
                   "--duration", "5", "--out", str(out))
        assert code == EXIT_OK
        rows = out.read_text().splitlines()[1:]
        for row in rows:
            _, model, empirical, _ = row.split(",")
            assert float(model) == 0.0
            assert float(empirical) == 0.0

    def test_low_duty_cycle_points_track_model(self, tmp_path):
        out = tmp_path / "b.csv"
        code = run(
            "ber-scan", "--rate", "668", "--freqs", "20000,50000",
            "--duration", "300", "--seed", "3", "--out", str(out),
        )
        assert code == EXIT_OK
        for row in out.read_text().splitlines()[1:]:
            _, model, empirical, sigma = (float(x) for x in row.split(","))
            assert abs(empirical - model) < 3.0 * sigma

    @staticmethod
    def assert_matches_serial_frequency_loop(out, n_freqs) -> bytes:
        """Run ber-scan over n_freqs clocks into out and check its CSV, row
        for row, against the frequencies run one after another in this
        process."""
        rate, duration, seed = 668.0, 2.0, 23
        freqs = [2000.0 + 1000.0 * i for i in range(n_freqs)]
        assert run("ber-scan", "--rate", repr(rate), "--freqs", ",".join(map(repr, freqs)),
                   "--duration", repr(duration), "--seed", str(seed),
                   "--out", str(out)) == EXIT_OK
        rows = ["frequency_hz,model_ber,empirical_ber,sigma"]
        occupied, multi = [], []
        for i, f in enumerate(freqs):
            clock = ClockConfig(f)
            records = extract_bits(
                timetag.synthetic_coincidences(rate, duration, timetag.point_seed(seed, i)), clock)
            n, errors = len(records), len(records.error_periods)
            empirical = errors / n
            sigma = math.sqrt(empirical * (1.0 - empirical) / n)
            rows.append(f"{f!r},{ber_model(rate, clock)!r},{empirical!r},{sigma!r}")
            occupied.append(n)
            multi.append(errors)
        assert out.read_text().splitlines() == rows
        meta = RunManifest.load(str(out) + ".manifest.json").metadata
        assert meta == {"scan_workers": scan_workers(n_freqs),
                        "occupied_periods": occupied, "multi_occupied_periods": multi}
        return out.read_bytes()

    def test_matches_serial_frequency_loop(self, tmp_path):
        # more frequencies than workers, so workers take several each
        self.assert_matches_serial_frequency_loop(tmp_path / "b.csv",
                                                  max(5, scan_workers(10**6) + 1))

    @pytest.mark.parametrize("frequency_hz", [12_500.0, 1_250.0])
    def test_point_peak_memory_per_coincidence(self, frequency_hz):
        # about 300,000 coincidences at ber_long's rate and clocks: their
        # uint32 periods, the opens mask and one bool temporary, 6 bytes a
        # coincidence, plus one chunk of int64 times; holding every time,
        # drawing the labels too, or holding the periods in int64 passes it
        clock = ClockConfig(frequency_hz)
        n = timetag.synthetic_times(250.0, 1200.0, np.random.default_rng(6))[0]
        _ber_point(6, clock, 250.0, 1200.0)  # warm: numpy's first-call setup is not the point's
        tracemalloc.start()
        try:
            _ber_point(6, clock, 250.0, 1200.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n > 290_000
        assert peak < 6 * n + 8 * timetag._CHUNK

    def test_one_pool_of_at_most_one_worker_per_cpu_and_frequency(self, tmp_path, forks):
        assert threading.active_count() == 1
        for freqs in ("5000,8000", "1000,2000,3000,4000,5000"):
            assert run("ber-scan", "--rate", "100", "--freqs", freqs, "--duration", "2",
                       "--out", str(tmp_path / "b.csv")) == EXIT_OK
        # forked from a single-threaded caller on Linux, run in the caller elsewhere
        if sys.platform == "linux":
            cpus = len(os.sched_getaffinity(0))
            assert forks == [min(cpus, 2), min(cpus, 5)]
        else:
            assert forks == []

    def test_runs_in_the_caller_while_another_python_thread_runs(
        self, tmp_path, forks, another_python_thread
    ):
        forked = self.assert_matches_serial_frequency_loop(tmp_path / "a.csv", 3)
        forks.clear()
        with another_python_thread():
            in_caller = self.assert_matches_serial_frequency_loop(tmp_path / "b.csv", 3)
        assert forks == []
        assert in_caller == forked
        assert RunManifest.load(str(tmp_path / "b.csv.manifest.json")).metadata["scan_workers"] == 1

    # a NaN or infinity is refused earlier, as a parameter no manifest can
    # record
    @pytest.mark.parametrize("rate, duration, message", [
        ("100", "1e7", "duration_s must"), ("100", "0", "duration_s must"),
        ("100", "-1", "duration_s must"), ("-1", "2", "rate_hz must be >= 0"),
    ])
    def test_unusable_rate_or_duration_is_refused_before_the_pool(
        self, tmp_path, capsys, forks, rate, duration, message
    ):
        assert run("ber-scan", "--rate", rate, "--freqs", "1000,2000", "--duration", duration,
                   "--out", str(tmp_path / "b.csv")) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]
        assert forks == []
        assert list(tmp_path.iterdir()) == []

    def test_one_failing_frequency_fails_the_scan(self, tmp_path, capsys, another_python_thread):
        # a 1 fs period puts 9,300 s past int64 at the second frequency
        # only; forked, then run in the caller
        for path in (contextlib.nullcontext, another_python_thread):
            with path():
                code = run("ber-scan", "--rate", "1", "--freqs", "1000,1e15",
                           "--duration", "9300", "--out", str(tmp_path / "b.csv"))
            assert code == EXIT_USAGE
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1
            assert "Traceback" not in err
            assert list(tmp_path.iterdir()) == []


def _exit_without_result(seed, *args):
    os._exit(7)


def _killed_without_result(seed, *args):
    os.kill(os.getpid(), signal.SIGKILL)  # as the out-of-memory killer would


@pytest.mark.skipif(sys.platform != "linux", reason="forks only on Linux")
class TestDeadWorker:
    """A scan worker that ends without a result is an I/O failure."""

    @pytest.mark.parametrize("death", [_exit_without_result, _killed_without_result])
    @pytest.mark.parametrize("command", ["scan-delay", "ber-scan"])
    def test_exits_4_with_one_line_and_reaps_every_worker(
        self, tmp_path, capsys, monkeypatch, command, death
    ):
        if command == "scan-delay":
            monkeypatch.setattr(timetag, "_scan_point", death)
            argv = ["scan-delay", "--from", "-600", "--to", "600", "--steps", "3",
                    "--pairs-per-point", "1e3"]
        else:
            monkeypatch.setattr(qrngsim.cli, "_ber_point", death)
            argv = ["ber-scan", "--rate", "100", "--freqs", "5000,8000", "--duration", "2"]
        workers, fork = [], os.fork

        def recording_fork():
            pid = fork()
            if pid:
                workers.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        assert run(*argv, "--out", str(tmp_path / "out.csv")) == EXIT_IO
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert f"worker 0 (pid {workers[0]})" in err and "wait status" in err
        assert list(tmp_path.iterdir()) == []
        assert len(workers) == scan_workers(2 if command == "ber-scan" else 3)
        for pid in workers:
            with pytest.raises(ChildProcessError):  # reaped, none left behind
                os.waitpid(pid, os.WNOHANG)


class TestGenerate:
    def test_deterministic_outputs(self, tmp_path):
        args = [
            "generate", "--clock", "500000", "--duration", "20",
            "--pair-rate", "1336", "--seed", "11", "--format", "ascii",
        ]
        out_a = tmp_path / "a.txt"
        out_b = tmp_path / "b.txt"
        assert run(*args, "--out", str(out_a)) == EXIT_OK
        assert run(*args, "--out", str(out_b)) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.txt.errors.csv").read_bytes() == (
            tmp_path / "b.txt.errors.csv"
        ).read_bytes()

    def test_packed_format_round_trips(self, tmp_path):
        out = tmp_path / "bits.dat"
        assert run(
            "generate", "--clock", "500000", "--duration", "10",
            "--pair-rate", "1336", "--seed", "5", "--format", "packed",
            "--out", str(out),
        ) == EXIT_OK
        stream = read_bit_file(out)
        assert stream.n > 4000
        manifest = RunManifest.load(str(out) + ".manifest.json")
        assert manifest.metadata["bits_recorded"] == stream.n
        assert manifest.metadata["cross_arm_count"] == 0

    def test_detuned_interferometer_trips_the_monitor(self, tmp_path):
        code = run(
            "generate", "--clock", "500000", "--duration", "5",
            "--pair-rate", "1336", "--seed", "11", "--delay", "666",
            "--out", str(tmp_path / "x.txt"),
        )
        assert code == EXIT_ALARM
        assert not (tmp_path / "x.txt").exists()

    def test_event_dump_schema(self, tmp_path):
        out = tmp_path / "bits.txt"
        dump = tmp_path / "events.csv"
        assert run(
            "generate", "--clock", "100000", "--duration", "2",
            "--pair-rate", "500", "--seed", "2", "--out", str(out),
            "--dump-events", str(dump),
        ) == EXIT_OK
        header = dump.read_text().splitlines()[0]
        assert header == "detector,time_ps"


    def test_golden_digests(self, tmp_path):
        # pinned digests of both outputs: any byte change in the bit file
        # or the error log (225 error records here) fails this test
        out = tmp_path / "g.txt"
        assert run("generate", "--clock", "20000", "--duration", "20",
                   "--seed", "23", "--out", str(out)) == EXIT_OK
        error_log = tmp_path / "g.txt.errors.csv"
        assert len(error_log.read_text().splitlines()) == 1 + 225
        assert sha256_file(out) == (
            "ce5ba04404d2018ca303239b8a96dade3145617f2509c25455f0c994d5481106"
        )
        assert sha256_file(error_log) == (
            "991ed006e1479c44d1aecb9777119bb3db9ad268c623612c0e0702b3e2887520"
        )


    def test_click_conservation_in_manifest(self, tmp_path):
        # every click is in one coincidence or left unpaired
        out = tmp_path / "c.txt"
        assert run("generate", "--duration", "5", "--pair-rate", "20000",
                   "--dark-rate", "20000", "--monitor-threshold", "1000",
                   "--seed", "4", "--out", str(out)) == EXIT_OK
        meta = RunManifest.load(str(out) + ".manifest.json").metadata
        assert meta["unpaired_clicks"] > 0
        assert meta["multi_click_clusters"] > 0
        assert 2 * meta["n_coincidences"] + meta["unpaired_clicks"] == meta["n_events"]

    def test_traced_peak_is_simulates_own(self, tmp_path):
        # each stage's input is dropped once the next stage holds its
        # output, so nothing after simulate holds more than simulate did
        def traced_peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        source = timetag.SourceConfig(pair_rate_hz=2000.0, duration_s=100.0, seed=8)

        def simulate():
            timetag.simulate(source, InterferometerConfig(), DetectorBank(),
                             timetag.TimingConfig())

        simulate()  # one-time allocations stay out of both peaks
        simulate_peak = traced_peak(simulate)
        command_peak = traced_peak(lambda: run(
            "generate", "--duration", "100", "--pair-rate", "2000", "--seed", "8",
            "--monitor-threshold", "500", "--out", str(tmp_path / "m.txt")))
        assert command_peak <= 1.2 * simulate_peak, command_peak / simulate_peak


@st.composite
def tiny_generate_runs(draw):
    """(duration s, pairs, darks per detector, jitter ps, dead time ns,
    window ns, clock periods per run, delay fs, efficiency, seed) of a
    generate run the scalar oracles can follow.  Up to 400 pairs in 1 us
    is a 400 MHz flux, where clicks pile up in one window; a 50 ns or
    10 us dead time outlasts the 3 ns window, and a 1 us window pairs
    across whole runs; one or two clock periods per run hold many
    coincidences each, and 100,000 (a 1e15 Hz clock at most) hold one
    each."""
    return (
        draw(st.sampled_from([1e-12, 1e-6, 1e-4, 1e-2])),
        draw(st.integers(0, 400)),
        draw(st.sampled_from([0, 1, 40, 100])),
        draw(st.sampled_from([0.0, 300.0, 1e6])),
        draw(st.sampled_from([0.0, 50.0, 1e4])),
        draw(st.sampled_from([0.001, 3.0, 1e3])),
        draw(st.sampled_from([1, 2, 7, 1000, 100_000])),
        draw(st.sampled_from([0.0, 60.0, 1e4])),
        draw(st.sampled_from([1.0, 0.8])),
        draw(st.integers(0, 2**32 - 1)),
    )


class TestGenerateOracle:
    """``generate``'s bit file, error log and manifest counts against
    ``reference_generate``, the per-stage scalar oracles composed, and
    ``unbias``'s output and counts on that file against
    ``reference_von_neumann``: a stage handing the next one the wrong
    stream, or a count taken before a filter, fails here even where each
    stage passes its own oracle."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(run_=tiny_generate_runs())
    # 4 MHz pairs with 4 MHz darks, 50 ns dead time, one clock period
    @example(run_=(1e-4, 400, 400, 300.0, 50.0, 3.0, 1, 0.0, 1.0, 3))
    # off the dip, with cross-arm pairs, no jitter and no dead time
    @example(run_=(1e-2, 300, 40, 0.0, 0.0, 3.0, 1000, 1e4, 0.8, 5))
    # a run near the duration cap, on a 1 Hz clock
    @example(run_=(4_611_686.0, 3, 2, 1e6, 1e4, 3.0, 4_611_686, 0.0, 1.0, 7))
    def test_matches_composed_oracle(self, tmp_path, run_):
        duration, pairs, darks, jitter, dead_ns, window_ns, periods, delay, eff, seed = run_
        pair_rate, dark_rate = pairs / duration, darks / duration
        clock = min(periods / duration, 1e15)
        out = tmp_path / "bits.txt"
        assert run("generate", "--duration", repr(duration), "--pair-rate", repr(pair_rate),
                   "--dark-rate", repr(dark_rate), "--jitter", repr(jitter),
                   "--dead-time", repr(dead_ns), "--window", repr(window_ns),
                   "--clock", repr(clock), "--delay", repr(delay),
                   "--efficiency", repr(eff), "--seed", str(seed),
                   "--monitor-threshold", str(10**9), "--out", str(out)) == EXIT_OK
        clicks = click_distribution(output_distribution(InterferometerConfig(delay_fs=delay)),
                                    DetectorBank(efficiency=eff, dark_rate_hz=dark_rate))
        want_bits, want_log, want_counts = reference_generate(
            pair_rate, duration, seed, list(clicks), list(clicks.values()), jitter,
            dark_rate, round(dead_ns * 1000), round(window_ns * 1000), clock,
        )
        assert out.read_bytes() == want_bits
        assert (tmp_path / "bits.txt.errors.csv").read_bytes() == want_log
        metadata = RunManifest.load(str(out) + ".manifest.json").metadata
        assert {key: metadata[key] for key in want_counts} == want_counts
        # then unbias the bit file
        vn = reference_von_neumann([int(c) for c in want_bits.decode("ascii") if c != "\n"])
        unbiased = tmp_path / "unbiased.txt"
        assert run("unbias", str(out), "--out", str(unbiased)) == EXIT_OK
        assert unbiased.read_bytes() == reference_ascii_bits(vn)
        metadata = RunManifest.load(str(unbiased) + ".manifest.json").metadata
        assert metadata["output_bits"] == len(vn)
        assert metadata.get("output_ones_fraction") == (sum(vn) / len(vn) if vn else None)


class TestDurationPastInt64Headroom:
    # 1e7 s is 1e19 ps, past the INT64_MAX // 2 ps (about 4.6e6 s) cap
    @pytest.mark.parametrize("argv", [
        ["generate", "--pair-rate", "1e-6", "--duration", "1e7"],
        ["generate", "--pair-rate", "0", "--duration", "1e7"],
        ["scan-delay", "--from", "-600", "--to", "600", "--steps", "3",
         "--pairs-per-point", "1", "--point-duration", "1e7"],
        ["ber-scan", "--rate", "0", "--freqs", "1000", "--duration", "1e7"],
        ["ber-scan", "--rate", "1e-6", "--freqs", "1000", "--duration", "1e7"],
    ])
    def test_exits_2_with_one_line(self, tmp_path, capsys, argv):
        out = tmp_path / "o.txt"
        assert run(*argv, "--out", str(out)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "duration_s must lie in" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestRunTooLargeForMemory:
    # the first four ask numpy for an array of about 1e15 int64 (7.11 PiB),
    # which it refuses before touching memory: in-process, in ber-scan's
    # synthetic stream, inside a scan worker, whose error the pool
    # re-raises, and for dark counts, whose times simulate draws between
    # its helper thread's jitter draws; the last three ask for a mean count
    # of 1e19 pairs, dark counts or coincidences, past Generator.poisson's
    # range, which simulate and synthetic_coincidences refuse before any draw
    @pytest.mark.parametrize("argv", [
        ["generate", "--duration", "1e6", "--pair-rate", "1e9"],
        ["ber-scan", "--rate", "1e9", "--freqs", "1e12", "--duration", "1e6"],
        ["scan-delay", "--from", "-600", "--to", "600", "--steps", "3",
         "--pairs-per-point", "1e15"],
        ["generate", "--pair-rate", "0", "--duration", "1e6", "--dark-rate", "1e9"],
        ["generate", "--pair-rate", "1e13", "--duration", "1e6"],
        ["generate", "--pair-rate", "0", "--duration", "1e6", "--dark-rate", "1e13"],
        ["ber-scan", "--rate", "1e13", "--freqs", "5e12", "--duration", "1e6"],
    ])
    def test_exits_2_with_one_line(self, tmp_path, capsys, argv):
        out = tmp_path / "o.txt"
        assert run(*argv, "--out", str(out)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "too large for memory" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


class TestUnusableTiming:
    # non-finite timing values, windows that round to 0 ps, a jitter past
    # its one-second cap, a parameter no manifest can record, and a
    # negative alarm threshold
    @pytest.mark.parametrize("argv", [
        ["generate", "--duration", "1", "--dead-time", "inf"],
        ["generate", "--duration", "1", "--window", "inf"],
        ["generate", "--duration", "1", "--window", "1e-300"],
        ["generate", "--duration", "1", "--window", "0.0004"],
        ["generate", "--duration", "1", "--jitter", "1e30"],
        ["generate", "--duration", "1", "--jitter", "inf"],
        ["generate", "--duration", "1", "--coherence-time", "inf"],
        ["generate", "--duration", "1", "--monitor-threshold", "-1"],
        ["scan-delay", "--from", "-600", "--to", "600", "--steps", "3",
         "--pairs-per-point", "1e3", "--window", "inf"],
        ["scan-delay", "--from", "-600", "--to", "600", "--steps", "3",
         "--pairs-per-point", "1e3", "--window", "0.0005"],
        # finite in ns, infinite in ps
        ["generate", "--duration", "0.01", "--window", "1e306"],
        ["generate", "--duration", "0.01", "--dead-time", "1e306"],
        ["scan-delay", "--from", "-600", "--to", "600", "--steps", "3",
         "--pairs-per-point", "1e3", "--window", "1e306"],
        ["scan-delay", "--from", "-600", "--to", "600", "--steps", "3",
         "--pairs-per-point", "1e3", "--dead-time", "1e306"],
        # a delay span past the float range
        ["scan-delay", "--from=1e308", "--to=-1e308", "--steps", "3"],
    ])
    def test_exits_2_with_one_line(self, tmp_path, capsys, argv):
        out = tmp_path / "o.txt"
        assert run(*argv, "--out", str(out)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


class TestUnusableClock:
    @pytest.mark.parametrize("clock", ["1e16", "1e-300"])
    def test_generate_rejects_clock(self, tmp_path, capsys, clock):
        out = tmp_path / "x.txt"
        code = run("generate", "--clock", clock, "--duration", "5", "--out", str(out))
        assert code == EXIT_USAGE
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    def test_ber_scan_rejects_clock(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code = run("ber-scan", "--rate", "100", "--freqs", "1000,1e16",
                   "--duration", "2", "--out", str(out))
        assert code == EXIT_USAGE
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()


    # an unusable clock, then a frequency where R/(2f) = 1.25 passes 1
    @pytest.mark.parametrize("freqs", ["12500,1250,1e16", "12500,1250,100"])
    def test_ber_scan_checks_every_frequency_before_simulating(
        self, tmp_path, capsys, monkeypatch, forks, another_python_thread, freqs
    ):
        calls = []
        real = timetag.synthetic_times

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(timetag, "synthetic_times", counting)
        out = tmp_path / "b.csv"
        code = run("ber-scan", "--rate", "250", "--freqs", freqs,
                   "--duration", "10", "--out", str(out))
        assert code == EXIT_USAGE
        # no draw in the caller, and no worker forked to draw one
        assert calls == [] and forks == []
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []
        # a usable scan run in the caller draws through the patched call,
        # once a frequency, so the checks above see a draw that happens
        with another_python_thread():
            assert run("ber-scan", "--rate", "250", "--freqs", "12500,1250",
                       "--duration", "10", "--out", str(out)) == EXIT_OK
        assert len(calls) == 2 and forks == []

    def test_ber_scan_index_past_int64(self, tmp_path, capsys):
        # a 1 fs period puts 9,300 s at clock index 9.3e18, past int64
        out = tmp_path / "o.csv"
        code = run("ber-scan", "--rate", "1", "--freqs", "1e15",
                   "--duration", "9300", "--out", str(out))
        assert code == EXIT_USAGE
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()


class TestUnbias:
    def test_round_trip_balanced_yield(self, tmp_path):
        rng = np.random.default_rng(61)
        raw = tmp_path / "raw.txt"
        write_bit_file(BitStream(rng.integers(0, 2, 200_000, dtype=np.uint8)), raw)
        out = tmp_path / "unb.dat"
        code = run("unbias", str(raw), "--out", str(out), "--out-format", "packed")
        assert code == EXIT_OK
        unbiased = read_bit_file(out)
        assert abs(unbiased.n / 200_000 - 0.25) < 0.01

    def test_biased_input_hits_expected_yield(self, tmp_path, capsys):
        rng = np.random.default_rng(62)
        raw = tmp_path / "biased.txt"
        bits = (rng.random(1_000_000) < 0.60198).astype(np.uint8)
        write_bit_file(BitStream(bits), raw)
        out = tmp_path / "unb.txt"
        assert run("unbias", str(raw), "--out", str(out)) == EXIT_OK
        stdout = capsys.readouterr().out
        yield_line = [l for l in stdout.splitlines() if l.startswith("yield")][0]
        assert abs(float(yield_line.split(":")[1]) - 0.2396) < 0.002

    def test_empty_input_reports_undefined_yield(self, tmp_path, capsys):
        raw = tmp_path / "empty.txt"
        raw.write_text("")
        out = tmp_path / "out.txt"
        assert run("unbias", str(raw), "--out", str(out)) == EXIT_OK
        assert "yield: n/a" in capsys.readouterr().out
        assert read_bit_file(out).n == 0


    # a digit other than 0 or 1, and a byte past ASCII
    @pytest.mark.parametrize("text", [b"0110\n0120\n", b"0110\n01\xff0\n"])
    def test_bad_ascii_input_exits_2(self, tmp_path, capsys, text):
        raw = tmp_path / "raw.txt"
        raw.write_bytes(text)
        out = tmp_path / "out.txt"
        assert run("unbias", str(raw), "--in-format", "ascii", "--out", str(out)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not out.exists()


class TestTestCommand:
    def test_constant_file_fails_with_exit_one(self, tmp_path):
        bits = tmp_path / "const.txt"
        write_bit_file(BitStream(np.zeros(20_000, dtype=np.uint8)), bits)
        code = run("test", str(bits), "--report", str(tmp_path / "r.json"))
        assert code == EXIT_TEST_FAIL
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["overall_pass"] is False

    def test_fair_bits_pass_and_report_is_stable(self, tmp_path):
        rng = np.random.default_rng(63)
        bits = tmp_path / "fair.txt"
        write_bit_file(BitStream(rng.integers(0, 2, 100_000, dtype=np.uint8)), bits)
        report_a = tmp_path / "a.json"
        report_b = tmp_path / "b.json"
        assert run("test", str(bits), "--report", str(report_a),
                   "--sequence-id", "s") == EXIT_OK
        assert run("test", str(bits), "--report", str(report_b),
                   "--sequence-id", "s") == EXIT_OK
        assert report_a.read_bytes() == report_b.read_bytes()
        payload = json.loads(report_a.read_text())
        assert list(payload) == ["sequence_id", "n_bits", "alpha", "tests", "overall_pass"]
        assert payload["alpha"] == 0.01

    def test_table_output_mirrors_battery(self, tmp_path, capsys):
        rng = np.random.default_rng(64)
        bits = tmp_path / "fair.txt"
        write_bit_file(BitStream(rng.integers(0, 2, 50_000, dtype=np.uint8)), bits)
        assert run("test", str(bits)) == EXIT_OK
        stdout = capsys.readouterr().out
        for name in ("frequency", "block_frequency", "runs", "longest_run",
                     "cumulative_sums", "approximate_entropy", "serial", "spectral"):
            assert name in stdout
        assert "overall: PASS" in stdout

    @pytest.mark.parametrize("n", [0, 1, 99])
    def test_file_under_100_bits_is_too_short_to_test(self, tmp_path, capsys, n):
        bits = tmp_path / "short.txt"
        write_bit_file(BitStream(np.ones(n, dtype=np.uint8)), bits)
        assert run("test", str(bits)) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "too short to test" in err[0]
        assert not (tmp_path / "short.txt.report.json").exists()

    def test_missing_input_is_io_error(self, tmp_path):
        assert run("test", str(tmp_path / "nope.txt")) == EXIT_IO
        # the file is read before the battery checks its lengths and alpha
        for flags in (("--block-m", "0"), ("--serial-m", "1"), ("--alpha", "0")):
            assert run("test", str(tmp_path / "nope.txt"), *flags) == EXIT_IO

    @pytest.mark.parametrize("flags", [
        ("--block-m", "0"), ("--block-m", "-5"), ("--apen-m", "0"),
        ("--serial-m", "1"), ("--serial-m", "0"),
    ])
    def test_length_no_test_can_use_exits_2(self, tmp_path, capsys, flags):
        # each would only mark its test not applicable and let the rest pass
        bits = tmp_path / "fair.txt"
        rng = np.random.default_rng(66)
        write_bit_file(BitStream(rng.integers(0, 2, 10_000, dtype=np.uint8)), bits)
        assert run("test", str(bits), *flags) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "must be >= " in err[0]
        assert not (tmp_path / "fair.txt.report.json").exists()

    # each length is too long for 1,000 bits: its test reports blank (a
    # pattern test before it builds a 2^m-entry table), and the command
    # refuses the length rather than let the rest of the battery pass
    # without it
    @pytest.mark.parametrize("flags", [
        ("--serial-m", "40"), ("--serial-m", "20"), ("--serial-m", "8"),
        ("--apen-m", "40"), ("--apen-m", "9"), ("--block-m", "5000"), ("--block-m", "1001"),
    ])
    def test_pattern_length_too_long_reports_blank(self, tmp_path, capsys, flags):
        bits = tmp_path / "small.txt"
        rng = np.random.default_rng(67)
        write_bit_file(BitStream(rng.integers(0, 2, 1000, dtype=np.uint8)), bits)
        tracemalloc.start()
        try:
            assert run("test", str(bits), *flags) == EXIT_USAGE
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"{flags[0]} {flags[1]} is too long" in err[0]
        assert list(tmp_path.iterdir()) == [bits]
        # library callers still get the blank entry from run_suite
        keyword, name = {"--serial-m": ("serial_m", "serial"),
                         "--apen-m": ("apen_m", "approximate_entropy"),
                         "--block-m": ("block_m", "block_frequency")}[flags[0]]
        report = statskit.run_suite(read_bit_file(bits).bits, **{keyword: int(flags[1])})
        tests = json.loads(report.to_json())["tests"]
        blank = [t for t in tests if t["name"] == name]
        assert blank == [{"name": name, "p_values": [], "statistic": 0.0,
                          "passed": False, "applicable": False}]

    # the longest lengths that fit 1,000 bits: m <= floor(log2 n) - 2 for
    # serial, 2^(m+1) < n for approximate entropy, m <= n for one block
    @pytest.mark.parametrize("flags", [("--serial-m", "7"), ("--apen-m", "8"),
                                       ("--block-m", "1000")])
    def test_longest_pattern_length_that_fits_is_tested(self, tmp_path, flags):
        bits = tmp_path / "small.txt"
        rng = np.random.default_rng(67)
        write_bit_file(BitStream(rng.integers(0, 2, 1000, dtype=np.uint8)), bits)
        assert run("test", str(bits), *flags) in (EXIT_OK, EXIT_TEST_FAIL)
        tests = json.loads((tmp_path / "small.txt.report.json").read_text())["tests"]
        name, n_p_values = {"--serial-m": ("serial", 2), "--apen-m": ("approximate_entropy", 1),
                            "--block-m": ("block_frequency", 1)}[flags[0]]
        assert [len(t["p_values"]) for t in tests if t["name"] == name] == [n_p_values]

    def test_default_block_length_may_blank_a_short_file(self, tmp_path):
        # 128 bits is the default block, longer than these 120: the test is
        # blank, but no --block-m was asked for, so the rest of the battery
        # stands
        bits = tmp_path / "short.txt"
        rng = np.random.default_rng(68)
        write_bit_file(BitStream(rng.integers(0, 2, 120, dtype=np.uint8)), bits)
        for flags in ((), ("--block-m", "128")):
            assert run("test", str(bits), *flags) in (EXIT_OK, EXIT_TEST_FAIL)
            tests = json.loads((tmp_path / "short.txt.report.json").read_text())["tests"]
            assert [t["applicable"] for t in tests if t["name"] == "block_frequency"] == [False]

    @pytest.mark.parametrize("block_m", ["101", "110", "127"])
    def test_asked_for_block_length_too_long_exits_2(self, tmp_path, capsys, block_m):
        # shorter than the default block, but still longer than the file
        bits = tmp_path / "short.txt"
        rng = np.random.default_rng(69)
        write_bit_file(BitStream(rng.integers(0, 2, 100, dtype=np.uint8)), bits)
        assert run("test", str(bits), "--block-m", block_m) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"--block-m {block_m} is too long" in err[0]
        assert list(tmp_path.iterdir()) == [bits]

    def test_alpha_flag_moves_the_bar(self, tmp_path):
        rng = np.random.default_rng(65)
        bits = tmp_path / "fair.txt"
        write_bit_file(BitStream(rng.integers(0, 2, 50_000, dtype=np.uint8)), bits)
        assert run("test", str(bits)) == EXIT_OK
        # an absurdly strict significance level fails the same sequence
        assert run("test", str(bits), "--alpha", "0.999999") == EXIT_TEST_FAIL


# constant, alternating and random bit strings of 0 to 300 bits
_lengths = st.integers(0, 300)
_bit_strings = st.one_of(
    st.builds(lambda n, b: b * n, _lengths, st.sampled_from("01")),
    st.builds(lambda n, b: (b * n)[:n], _lengths, st.sampled_from(["01", "10"])),
    st.text("01", max_size=300),
)


class TestBitFileCommandsFuzz:
    # a one-bit constant file gives the runs test a zero denominator, and
    # the other two give the serial test a psi-square difference that
    # rounds below zero
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_bit_strings, fmt=st.sampled_from(["ascii", "packed"]))
    @example(text="0", fmt="ascii")
    @example(text="010011101000", fmt="packed")
    @example(text="1101000110111001100101110011", fmt="ascii")
    @example(text="1" * 99, fmt="packed")  # the longest file too short to test
    @example(text="01" * 50, fmt="ascii")  # the shortest one tested
    def test_test_and_unbias_exit_cleanly(self, tmp_path, capsys, text, fmt):
        bits = tmp_path / f"bits.{fmt}"
        write_bit_file(BitStream(bit_array(text)), bits, fmt=fmt)
        # below 100 bits no test of the battery applies
        test_codes = (EXIT_USAGE,) if len(text) < 100 else (EXIT_OK, EXIT_TEST_FAIL)
        for argv, codes in ((["test", str(bits)], test_codes),
                            (["unbias", str(bits), "--out", str(tmp_path / "unb.txt")],
                             (EXIT_OK, EXIT_TEST_FAIL))):
            capsys.readouterr()
            assert run(*argv) in codes
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert len(err.splitlines()) <= 1


# each flag's small valid values; every valid pair rate times duration
# stays at or below 1e5 pairs, so no example allocates more than a few MB
_PHYSICS = {"--delay": ["0", "300"], "--coherence-time": ["222"],
            "--visibility-ceiling": ["0.5", "1"], "--efficiency": ["0.5", "1"],
            "--dark-rate": ["0", "100"], "--jitter": ["0", "300"], "--dead-time": ["0", "50"],
            "--window": ["3"]}
_FUZZ_FLAGS = {  # the required flags, then the optional ones
    "generate": ({"--duration": ["0.01", "0.5", "2"], "--pair-rate": ["0.5", "10", "300"]},
                 {"--clock": ["1000", "500000"], "--seed": ["7"], "--format": ["packed"],
                  "--monitor-threshold": ["5"], **_PHYSICS}),
    "scan-delay": ({"--from": ["-600"], "--to": ["600"], "--steps": ["2", "3", "8"]},
                   {"--pairs-per-point": ["10", "1000"], "--point-duration": ["0.01", "0.5"],
                    "--seed": ["7"], "--no-fit": [], **_PHYSICS}),
    "ber-scan": ({"--rate": ["10", "300"], "--duration": ["0.5", "2"],
                  "--freqs": ["1000", "5e4,1000"]},
                 {"--seed": ["7"]}),
}
_EDGES = ["0", "-1", "nan", "inf", "1e308", "x", ""]


@st.composite
def _fuzz_argv(draw, command):
    """A command line: the required flags and a few optional ones at valid
    values, then up to two of them at edge literals."""
    required, optional = _FUZZ_FLAGS[command]
    names = list(required) + draw(st.lists(st.sampled_from(sorted(optional)), unique=True,
                                           max_size=3))
    values = {**required, **optional}
    flags = {name: [draw(st.sampled_from(values[name]))] if values[name] else []
             for name in names}
    for name in draw(st.lists(st.sampled_from(names), unique=True, max_size=2)):
        flags[name] = [draw(st.sampled_from(_EDGES))]
    return [command, *(word for name, value in flags.items() for word in (name, *value))]


# values a manifest field may be edited to, JSON's own NaN and Infinity
# among them
_JSON_EDGES = [0, -1, math.nan, math.inf, 1e308, "x", "", None, [], {}, *_EDGES]


def assert_exits_cleanly(capsys, argv) -> None:
    capsys.readouterr()
    code = run(*argv)
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_TEST_FAIL, EXIT_USAGE, EXIT_ALARM, EXIT_IO)
    assert "Traceback" not in err
    if code != EXIT_OK:
        assert len(err.splitlines()) <= 1


class TestCommandLineFuzz:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=st.sampled_from(sorted(_FUZZ_FLAGS)).flatmap(_fuzz_argv))
    # 1e308 s is an infinite count of picoseconds
    @example(argv=["generate", "--duration", "1e308", "--pair-rate", "10"])
    @example(argv=["ber-scan", "--rate", "10", "--duration", "1e308", "--freqs", "1000"])
    def test_edge_argv_exits_cleanly(self, tmp_path, capsys, argv):
        assert_exits_cleanly(capsys, [*argv, "--out", str(tmp_path / "out")])

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory) -> list:
        """One manifest text each from small generate, scan-delay and
        ber-scan runs."""
        out = str(tmp_path_factory.mktemp("recorded") / "out")
        texts = []
        for argv in (["generate", "--duration", "1", "--pair-rate", "100"],
                     ["scan-delay", "--from", "-600", "--to", "600", "--steps", "3",
                      "--pairs-per-point", "100"],
                     ["ber-scan", "--rate", "100", "--freqs", "1000,5e4", "--duration", "1"]):
            assert run(*argv, "--out", out) == EXIT_OK
            with open(out + ".manifest.json") as fh:
                texts.append(fh.read())
        return texts

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_edited_manifest_exits_cleanly(self, tmp_path, capsys, recorded, data):
        text = data.draw(st.sampled_from(recorded))
        manifest = json.loads(text)
        for _ in range(data.draw(st.integers(1, 3))):
            fields = [c for c in (manifest, manifest.get("parameters"), manifest.get("argv"))
                      if isinstance(c, (dict, list)) and c]
            if not fields:
                break
            edited = data.draw(st.sampled_from(fields))
            key = data.draw(st.sampled_from(list(edited) if isinstance(edited, dict)
                                            else range(len(edited))))
            if data.draw(st.booleans()):
                del edited[key]
            else:
                edited[key] = data.draw(st.sampled_from(_JSON_EDGES))
        text = json.dumps(manifest)
        if data.draw(st.booleans()):
            text = text[:data.draw(st.integers(0, len(text) - 1))]
        path = tmp_path / "edited.json"
        path.write_text(text)
        assert_exits_cleanly(capsys, ["rerun", "--manifest", str(path),
                                      "--outdir", str(tmp_path / "rr")])


_GENERATE = ["generate", "--duration", "1", "--pair-rate", "200", "--seed", "3"]


@pytest.mark.parametrize("argv", [
    pytest.param(_GENERATE + ["--out", "x.bits", "--error-log", "x.bits"], id="generate-error-log"),
    pytest.param(_GENERATE + ["--out", "x.bits", "--manifest", "x.bits"], id="generate-manifest"),
    pytest.param(_GENERATE + ["--out", "x.bits", "--dump-events", "sub/../x.bits"],
                 id="generate-dump-events"),
    pytest.param(_GENERATE + ["--out", "x.bits", "--error-log", "x.bits.manifest.json"],
                 id="generate-default-manifest"),
    pytest.param(_GENERATE + ["--out", "x.bits", "--error-log", "e.csv", "--manifest", "e.csv"],
                 id="generate-error-log-manifest"),
    pytest.param(["test", "in.bits", "--report", "./in.bits"], id="test-report"),
    pytest.param(["test", "in.manifest.json", "--report", "in"], id="test-report-manifest"),
    pytest.param(["unbias", "in.bits", "--out", "in.bits"], id="unbias-out"),
    pytest.param(["rerun", "--manifest", "a/x.bits.manifest.json", "--outdir", "replay"],
                 id="rerun-outdir"),
    pytest.param(["rerun", "--manifest", "a/x.bits.manifest.json", "--outdir", "replay/in/here"],
                 id="rerun-outdir-nested"),
    pytest.param(["rerun", "--manifest", "a/x.bits.manifest.json", "--outdir", "b"],
                 id="rerun-outdir-existing"),
])
def test_one_file_named_twice_is_refused(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    for name in ("in.bits", "in.manifest.json"):
        write_bit_file(BitStream(np.tile(np.array([0, 1, 1], dtype=np.uint8), 50)), name)
    # two outputs in two directories, one basename: moved into one --outdir
    os.mkdir("a")
    os.mkdir("b")
    assert run(*_GENERATE, "--out", "a/x.bits", "--error-log", "b/x.bits") == EXIT_OK
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    capsys.readouterr()
    assert run(*argv) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "name the same file" in err[0]
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before
    # a refused replay leaves no --outdir of its own behind
    assert not (tmp_path / "replay").exists()


class TestRerunAndManifest:
    def test_generate_rerun_reproduces_digests(self, tmp_path):
        out = tmp_path / "bits.txt"
        assert run(
            "generate", "--clock", "500000", "--duration", "10",
            "--pair-rate", "1336", "--seed", "13", "--out", str(out),
        ) == EXIT_OK
        manifest_path = str(out) + ".manifest.json"
        recorded = {o["name"]: o["sha256"] for o in RunManifest.load(manifest_path).outputs}
        rerun_dir = tmp_path / "rerun"
        assert run("rerun", "--manifest", manifest_path,
                   "--outdir", str(rerun_dir)) == EXIT_OK
        assert sha256_file(rerun_dir / "bits.txt") == recorded["bits"]
        assert sha256_file(rerun_dir / "bits.txt.errors.csv") == recorded["error_log"]

    def test_scan_rerun_reproduces_digest(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(
            "scan-delay", "--from", "-400", "--to", "400", "--steps", "5",
            "--pairs-per-point", "1e4", "--seed", "21", "--out", str(out),
        ) == EXIT_OK
        manifest_path = str(out) + ".manifest.json"
        recorded = {o["name"]: o["sha256"] for o in RunManifest.load(manifest_path).outputs}
        rerun_dir = tmp_path / "rr"
        assert run("rerun", "--manifest", manifest_path,
                   "--outdir", str(rerun_dir)) == EXIT_OK
        assert sha256_file(rerun_dir / "scan.csv") == recorded["scan_csv"]

    def test_test_rerun_with_default_report_lands_in_outdir(self, tmp_path):
        rng = np.random.default_rng(66)
        bits = tmp_path / "g.txt"
        write_bit_file(BitStream(rng.integers(0, 2, 20_000, dtype=np.uint8)), bits)
        assert run("test", str(bits)) == EXIT_OK
        manifest_path = tmp_path / "g.txt.report.json.manifest.json"
        recorded = manifest_path.read_bytes()
        report_digest = sha256_file(tmp_path / "g.txt.report.json")
        rerun_dir = tmp_path / "rr"
        assert run("rerun", "--manifest", str(manifest_path),
                   "--outdir", str(rerun_dir)) == EXIT_OK
        assert manifest_path.read_bytes() == recorded
        assert sha256_file(rerun_dir / "g.txt.report.json") == report_digest
        replayed = RunManifest.load(str(rerun_dir / "g.txt.report.json.manifest.json"))
        assert [o["sha256"] for o in replayed.outputs] == [report_digest]

    @pytest.mark.parametrize("name, suffix, recorded", [
        ("short.txt", ".report.json.manifest.json", lambda f: (["test", f], {
            "command": "test", "infile": f, "alpha": 0.01, "report": None,
            "sequence_id": None, "block_m": 128, "apen_m": 2, "serial_m": None, "seed": 0})),
        ("bits.txt", ".manifest.json", lambda f: (
            ["generate", "--duration", "0.5", "--seed", "4", "--out", f], {
                "command": "generate", "clock": 500000.0, "duration": 0.5,
                "pair_rate": 1336.0, "seed": 4, "format": "ascii", "out": f,
                "error_log": None, "manifest": None, "monitor_threshold": 0,
                "dump_events": None, "delay": 0.0, "coherence_time": 222.0,
                "visibility_ceiling": 1.0, "efficiency": 1.0, "dark_rate": 0.0,
                "jitter": 300.0, "dead_time": 50.0, "window": 3.0})),
        ("scan.csv", ".manifest.json", lambda f: (
            ["scan-delay", "--from", "-400", "--to", "400", "--steps", "5",
             "--pairs-per-point", "1e4", "--seed", "21", "--out", f], {
                "command": "scan-delay", "delay_from": -400.0, "delay_to": 400.0,
                "steps": 5, "pairs_per_point": 10000.0, "point_duration": 1.0,
                "seed": 21, "out": f, "fit": True, "delay": 0.0, "coherence_time": 222.0,
                "visibility_ceiling": 1.0, "efficiency": 1.0, "dark_rate": 0.0,
                "jitter": 300.0, "dead_time": 50.0, "window": 3.0})),
    ], ids=["test", "generate", "scan-delay"])
    def test_recorded_manifest_at_defaults_replays(self, tmp_path, name, suffix, recorded):
        # a manifest as 0.2.0 records it: every default among the
        # parameters, none of them in the argv
        path = str(tmp_path / name)
        argv, parameters = recorded(path)
        if argv[0] == "test":
            rng = np.random.default_rng(68)
            write_bit_file(BitStream(rng.integers(0, 2, 120, dtype=np.uint8)), path)
        manifest = tmp_path / "recorded.json"
        manifest.write_text(json.dumps({
            "tool_version": "0.2.0", "command": argv[0], "seed": parameters["seed"],
            "argv": argv, "parameters": parameters,
            "started_utc": "a", "finished_utc": "b", "outputs": [], "metadata": {},
        }))
        rerun_dir = tmp_path / "rr"
        code = run("rerun", "--manifest", str(manifest), "--outdir", str(rerun_dir))
        assert code in (EXIT_OK, EXIT_TEST_FAIL)
        replayed = RunManifest.load(str(rerun_dir / (name + suffix)))
        for key in parameters.keys() - {"out", "report"}:  # --outdir moves those
            assert replayed.parameters[key] == parameters[key]
        assert run(*argv) == code
        direct = RunManifest.load(path + suffix)
        assert [(o["name"], o["sha256"]) for o in replayed.outputs] == [
            (o["name"], o["sha256"]) for o in direct.outputs]
        if argv[0] == "test":
            # the default block of 128 blanks the 120-bit file's block test
            tests = json.loads((rerun_dir / "short.txt.report.json").read_text())["tests"]
            assert [t["applicable"] for t in tests if t["name"] == "block_frequency"] == [False]

    def test_save_keeps_the_schema_key_order(self, tmp_path):
        manifest = RunManifest(command="ber-scan", argv=["ber-scan"], parameters={"rate": 1.0},
                               seed=3, started_utc="a", finished_utc="b")
        path = tmp_path / "m.json"
        manifest.save(path)
        assert list(json.loads(path.read_text())) == [
            "tool_version", "command", "seed", "argv", "parameters",
            "started_utc", "finished_utc", "outputs", "metadata",
        ]
        assert RunManifest.load(path) == manifest

    def test_save_refuses_nan_before_writing(self, tmp_path):
        manifest = RunManifest(command="scan-delay", argv=[], parameters={}, seed=0)
        manifest.metadata["fitted_visibility_err"] = float("nan")
        path = tmp_path / "m.json"
        with pytest.raises(ValueError):
            manifest.save(path)
        assert not path.exists()

    def test_usage_error_exit_code_from_argparse(self):
        assert run("scan-delay", "--bogus") == EXIT_USAGE

    def test_usage_error_is_one_line(self, capsys):
        assert run("generate", "--duration", "1") == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: qrngsim generate: the following arguments are required: --out"
        ]

    def test_manifest_records_argv_and_parsed_parameters(self, tmp_path):
        out = tmp_path / "b.csv"
        argv = ["ber-scan", "--rate", "100", "--freqs", "5000", "--duration", "2",
                "--out", str(out)]
        assert run(*argv) == EXIT_OK
        manifest = RunManifest.load(str(out) + ".manifest.json")
        assert manifest.argv == argv
        assert manifest.parameters == {
            "command": "ber-scan", "rate": 100.0, "freqs": "5000", "duration": 2.0,
            "seed": 0, "out": str(out),
        }

    def test_rerun_manifest_replays_without_outdir(self, tmp_path):
        out = tmp_path / "bits.txt"
        assert run(
            "generate", "--clock", "500000", "--duration", "5",
            "--pair-rate", "1336", "--seed", "17", "--out", str(out),
        ) == EXIT_OK
        recorded = RunManifest.load(str(out) + ".manifest.json").outputs
        rerun_dir = tmp_path / "rerun"
        assert run("rerun", "--manifest", str(out) + ".manifest.json",
                   "--outdir", str(rerun_dir)) == EXIT_OK
        for name in ("bits.txt", "bits.txt.errors.csv"):
            (rerun_dir / name).unlink()
        second = str(rerun_dir / "bits.txt.manifest.json")
        assert run("rerun", "--manifest", second) == EXIT_OK
        assert RunManifest.load(second).outputs == recorded


class TestRerunContract:
    """Malformed manifests exit 2 with one line on stderr."""

    @pytest.fixture
    def manifest(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run("ber-scan", "--rate", "100", "--freqs", "5000", "--duration", "2",
                   "--out", str(out)) == EXIT_OK
        return json.loads((tmp_path / "b.csv.manifest.json").read_text())

    def rerun(self, tmp_path, capsys, payload):
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        code = run("rerun", "--manifest", str(path), "--outdir", str(tmp_path / "rr"))
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        return err

    def test_manifest_without_argv_from_0_1_0(self, tmp_path, capsys, manifest):
        del manifest["argv"]
        manifest["tool_version"] = "0.1.0"
        assert "0.1.0" in self.rerun(tmp_path, capsys, manifest)

    def test_manifest_without_parameters(self, tmp_path, capsys, manifest):
        del manifest["parameters"]
        self.rerun(tmp_path, capsys, manifest)

    def test_partial_parameters(self, tmp_path, capsys, manifest):
        del manifest["parameters"]["freqs"]
        self.rerun(tmp_path, capsys, manifest)

    def test_json_list(self, tmp_path, capsys, manifest):
        self.rerun(tmp_path, capsys, [manifest])

    def test_argv_with_unknown_flag(self, tmp_path, capsys, manifest):
        manifest["argv"].append("--bogus")
        self.rerun(tmp_path, capsys, manifest)

    def test_argv_missing_required_flag(self, tmp_path, capsys, manifest):
        manifest["argv"] = manifest["argv"][:-2]  # drops "--out PATH"
        self.rerun(tmp_path, capsys, manifest)

    def test_argv_naming_rerun(self, tmp_path, capsys, manifest):
        # a manifest replaying itself would recurse without end
        manifest["argv"] = ["rerun", "--manifest", str(tmp_path / "edited.json")]
        self.rerun(tmp_path, capsys, manifest)

    @pytest.mark.parametrize("argv", [
        ["--help"], ["--version"], ["generate", "--help"], ["ber-scan", "-h"],
        ["--vers"],  # an abbreviation argparse expands
    ])
    def test_argv_asking_for_help_or_version(self, tmp_path, capsys, manifest, argv):
        # nothing to replay: no help text, no version, no outputs
        manifest["argv"] = argv
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run("rerun", "--manifest", str(path), "--outdir", str(tmp_path / "rr")) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "help or version" in captured.err
        assert not (tmp_path / "rr").exists()


class TestDefaultsStatedOnce:
    """The CLI's defaults are the library's, and the tool version is one."""

    @pytest.mark.parametrize("argv", [
        ["generate", "--duration", "1", "--out", "g.txt"],
        ["scan-delay", "--from", "-400", "--to", "400", "--steps", "5", "--out", "s.csv"],
    ])
    def test_physics_defaults_are_the_configs(self, argv):
        args = build_parser().parse_args(argv)
        assert _configs_from_args(args) == (InterferometerConfig(), DetectorBank(), TimingConfig())

    def test_battery_defaults_are_run_suites(self):
        args = build_parser().parse_args(["test", "bits.txt"])
        defaults = inspect.signature(statskit.run_suite).parameters
        assert (args.alpha, args.block_m, args.apen_m, args.serial_m) == tuple(
            defaults[key].default for key in ("alpha", "block_m", "apen_m", "serial_m"))

    def test_package_version_is_the_project_version(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
        pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
        with open(pyproject, "rb") as fh:
            assert tomllib.load(fh)["project"]["version"] == qrngsim.__version__
