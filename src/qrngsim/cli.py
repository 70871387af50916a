"""Command-line surface: delay scans, BER scans, bit generation, unbiasing
and randomness testing.

Exit codes are a stable contract: 0 success / suite pass, 1 randomness
test failure, 2 usage error, 3 purity-monitor alarm, 4 I/O failure.
Usage errors print one line on stderr.  A run too large for memory is a
usage error too, a command line that cannot run as given: it exits 2
with one line.  So is ``test`` on a file under 100 bits, where no test
of the battery applies: it exits 2 with one line and writes no report,
so a file that nothing examined never reads as a pass.  The same holds
for a ``--serial-m``, ``--apen-m`` or (other than its default)
``--block-m`` too long for the file, which would drop its test from the
verdict, for a non-zero ``--delay`` on ``scan-delay``, whose points take
their delays from ``--from`` and ``--to``, and for a ``scan-delay`` fit
with no cross-arm count, where any dip fits.  So is a command line that
names one file twice, compared by real path: ``generate``'s bit file,
error log, manifest and event dump must be four files, and ``test``'s
report and ``unbias``'s output, manifests included, must not be the
input.  It exits 2 with one line before anything runs or is written, and
``rerun --outdir`` is refused the same way when two outputs share a
basename; a replay that is refused or fails removes the directories
that its ``--outdir`` created.  ``scan-delay`` and ``ber-scan`` fork
their worker processes on Linux while the caller runs one Python thread;
elsewhere, or beside other threads, their points run one after another
in the caller, with the same bytes, and the manifest records
``scan_workers`` = 1.  A worker process that ends without a result,
killed or exited, is an I/O failure: it exits 4 with one line, after
every worker has been reaped.  Every command accepts --seed, though
``unbias`` and ``test`` draw nothing from it, and writes a manifest next
to its outputs holding the command line (``argv``) and the parameters it
parsed to.  ``rerun`` replays that argv through this module's parser, so
reruns get the same defaults and validation as direct runs, and
reproduces every output file byte for byte.  A manifest without ``argv``
(written before 0.2.0), whose parameters disagree with its argv, or
whose argv asks for help or the version is refused with exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import shutil
import sys

import numpy as np

from . import __version__, bitpipe, statskit, timetag
from .bitpipe import ClockConfig
from .manifest import RunManifest, utc_now
from .optics import DetectorBank, InterferometerConfig
from .timetag import MonitorAlarm, PairLabel, SourceConfig, TimingConfig

EXIT_OK = 0
EXIT_TEST_FAIL = 1
EXIT_USAGE = 2
EXIT_ALARM = 3
EXIT_IO = 4


class UsageError(ValueError):
    """A command line or manifest that cannot run as given."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError instead of printing usage, so errors stay one line."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# each physics option's dest, the config field whose default it takes, and its help
_PHYSICS = (
    ("delay", InterferometerConfig, "delay_fs", "photon arrival-time offset in fs"),
    ("coherence_time", InterferometerConfig, "coherence_time_fs",
     "Gaussian dip 1/e half-width in fs"),
    ("visibility_ceiling", InterferometerConfig, "visibility_ceiling",
     "cap on interference visibility"),
    ("efficiency", DetectorBank, "efficiency", "detector efficiency"),
    ("dark_rate", DetectorBank, "dark_rate_hz", "dark counts per detector in Hz"),
    ("jitter", TimingConfig, "jitter_sigma_ps", "per-click timing jitter sigma in ps"),
    ("dead_time", TimingConfig, "dead_time_ns", "detector dead time in ns"),
    ("window", TimingConfig, "coincidence_window_ns", "coincidence window in ns"),
)


def _physics_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("physics")
    for dest, config, field, help_text in _PHYSICS:
        group.add_argument("--" + dest.replace("_", "-"), type=float,
                           default=getattr(config, field),
                           help=help_text + " (default %(default)s)")


def _configs_from_args(args):
    fields = {}
    for dest, config, field, _ in _PHYSICS:
        fields.setdefault(config, {})[field] = getattr(args, dest)
    return tuple(config(**kwargs) for config, kwargs in fields.items())


def _check_distinct(command: str, files: dict) -> None:
    """Refuse a command line that names one file in two of its roles,
    compared by real path: one output would overwrite the other, or the
    input, under a manifest that records a digest of bytes no longer
    there."""
    seen = {}
    for role, path in files.items():
        if path is None:
            continue
        real = os.path.realpath(path)
        if real in seen:
            raise UsageError(f"{command}: {seen[real]} and {role} name the same file {path}")
        seen[real] = role


def _parameters(args) -> dict:
    return {key: value for key, value in vars(args).items() if key != "func"}


def _run(args, argv) -> int:
    """Run a parsed command line between its manifest's start and its save.

    The command hashes its outputs into the manifest as it writes them and
    returns its exit code with the path the manifest is saved to.
    """
    manifest = RunManifest(
        command=args.command,
        argv=list(argv),
        parameters=_parameters(args),
        seed=args.seed,
        started_utc=utc_now(),
    )
    code, manifest_path = args.func(args, manifest)
    manifest.finished_utc = utc_now()
    manifest.save(manifest_path)
    return code


# --------------------------------------------------------------- scan-delay


def cmd_scan_delay(args, manifest: RunManifest):
    if args.delay != 0.0:
        raise UsageError("scan-delay: --from and --to set each point's delay; "
                         "--delay must be 0")
    if args.steps < 2:
        raise UsageError("scan-delay: --steps must be at least 2")
    if args.pairs_per_point <= 0 or args.point_duration <= 0:
        raise UsageError("scan-delay: pair budget and point duration must be positive")
    if not math.isfinite(args.delay_to - args.delay_from):
        raise UsageError("scan-delay: the span from --from to --to overflows")
    if args.fit and (args.steps < 3 or args.delay_from == args.delay_to):
        raise UsageError("scan-delay: the dip fit needs three or more distinct delays "
                         "(or --no-fit)")

    delays = np.linspace(args.delay_from, args.delay_to, args.steps)
    source = SourceConfig(
        pair_rate_hz=args.pairs_per_point / args.point_duration,
        duration_s=args.point_duration,
        seed=args.seed,
    )
    interf, bank, timing = _configs_from_args(args)
    counts = timetag.scan_delay(delays, source, interf, bank, timing)
    manifest.metadata["scan_workers"] = timetag.scan_workers(len(delays))

    if args.fit:
        try:
            fit = timetag.fit_dip_visibility(delays, counts, source.duration_s)
        except ValueError as exc:
            raise UsageError(f"scan-delay: {exc} (or --no-fit)") from None
        manifest.metadata["fitted_visibility"] = fit.visibility
        manifest.metadata["fitted_visibility_err"] = fit.visibility_err
        manifest.metadata["fitted_width_fs"] = fit.width_fs
        err = "n/a" if fit.visibility_err is None else f"{fit.visibility_err:.4f}"
        print(f"fitted visibility: {fit.visibility:.4f} +/- {err}")
        print(f"fitted dip width: {fit.width_fs:.1f} fs, "
              f"baseline {fit.baseline_hz:.3f} Hz")

    # written after the fit, so a scan with no dip to fit leaves no CSV
    timetag.write_scan_csv(delays, counts, source.duration_s, args.out)
    manifest.add_output("scan_csv", args.out)
    print(f"wrote {args.out} ({args.steps} delay points, 6 pair labels)")
    return EXIT_OK, args.out + ".manifest.json"


# ----------------------------------------------------------------- ber-scan


def _ber_point(seed, clock, rate_hz, duration_s):
    """One frequency, run by ``fan_out`` from its own seed: the clock
    periods that ``synthetic_coincidences``' stream occupies and those
    holding two or more, counted from its times alone as they are drawn,
    since the counts need neither the order nor the labels."""
    return bitpipe.occupancy_counts(
        *timetag.synthetic_times(rate_hz, duration_s, np.random.default_rng(seed)), clock)


def cmd_ber_scan(args, manifest: RunManifest):
    try:
        freqs = [float(f) for f in args.freqs.split(",") if f.strip()]
    except ValueError:
        raise UsageError(f"ber-scan: cannot parse --freqs {args.freqs!r}") from None
    if not freqs:
        raise UsageError("ber-scan: need a frequency list")

    # the duration, every clock and every model are checked before any
    # frequency is simulated
    timetag.duration_ps(args.duration)
    clocks = [ClockConfig(frequency_hz=f) for f in freqs]
    models = []
    for f, clock in zip(freqs, clocks):
        try:
            models.append(bitpipe.ber_model(args.rate, clock))
        except bitpipe.ModelOutOfRange as exc:
            raise UsageError(f"ber-scan: frequency {f} Hz: {exc}") from None

    points = timetag.fan_out(_ber_point, args.seed, clocks, args.rate, args.duration)
    manifest.metadata["scan_workers"] = timetag.scan_workers(len(freqs))
    manifest.metadata["occupied_periods"] = [n for n, _ in points]
    manifest.metadata["multi_occupied_periods"] = [errors for _, errors in points]
    rows = []
    for f, model, (n, errors) in zip(freqs, models, points):
        empirical = errors / n if n else 0.0
        sigma = math.sqrt(empirical * (1.0 - empirical) / n) if n else 0.0
        rows.append((f, model, empirical, sigma))

    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        fh.write("frequency_hz,model_ber,empirical_ber,sigma\n")
        for f, model, empirical, sigma in rows:
            fh.write(f"{f!r},{model!r},{empirical!r},{sigma!r}\n")
    manifest.add_output("ber_csv", args.out)

    for f, model, empirical, sigma in rows:
        print(f"f={f:>10.0f} Hz  model={model:.6f}  empirical={empirical:.6f}"
              f"  sigma={sigma:.6f}")
    return EXIT_OK, args.out + ".manifest.json"


# ----------------------------------------------------------------- generate


def run_generation(
    source: SourceConfig,
    interf: InterferometerConfig,
    bank: DetectorBank,
    timing: TimingConfig,
    clock: ClockConfig,
    monitor_threshold: int = 0,
    dump_events=None,
):
    """Full chain: simulate, pair, monitor, and clock out bits.

    Returns the bit stream, the clocked records (whose error rows feed the
    error log) and the run's counts for the manifest.  Each stage's input
    is dropped once its counts are taken, so the peak stays the
    simulation's own.  Raises MonitorAlarm when the cross-arm budget
    is exceeded, before anything is written; monitoring runs on the same
    coincidence stream that feeds the bit recorder.  The event CSV goes
    to ``dump_events`` if given.
    """
    events = timetag.simulate(source, interf, bank, timing)
    coincidences = timetag.coincidence_filter(events, timing)
    label_counts = timetag.label_counts(coincidences.labels)
    cross_arm = timetag.purity_monitor(label_counts, threshold=monitor_threshold)
    if dump_events:
        timetag.write_events_csv(events, dump_events)
    counts = {
        "n_events": len(events),
        "n_coincidences": len(coincidences),
        "label_counts": {l.name: n for l, n in zip(PairLabel, label_counts.tolist())},
        "cross_arm_count": cross_arm,
        "multi_click_clusters": coincidences.n_multi_click_clusters,
        "unpaired_clicks": coincidences.n_unpaired,
    }
    del events
    qualifying = coincidences.select((PairLabel.D1D2, PairLabel.D3D4))
    del coincidences
    records = bitpipe.extract_bits(qualifying, clock)
    measured_rate = len(qualifying) / source.duration_s
    del qualifying
    bits = bitpipe.records_to_stream(records)
    counts["bits_recorded"] = bits.n
    counts["error_records"] = len(records.error_periods)
    counts["empirical_ber"] = bitpipe.empirical_ber(records)
    try:
        model_ber = bitpipe.ber_model(measured_rate, clock)
    except bitpipe.ModelOutOfRange:
        model_ber = None
    counts["measured_coincidence_rate_hz"] = measured_rate
    counts["model_ber"] = model_ber
    return bits, records, counts


def cmd_generate(args, manifest: RunManifest):
    if args.monitor_threshold < 0:
        raise UsageError("generate: --monitor-threshold must be >= 0")
    error_log = args.error_log or args.out + ".errors.csv"
    manifest_path = args.manifest or args.out + ".manifest.json"
    _check_distinct("generate", {"--out": args.out, "--error-log": error_log,
                                 "--manifest": manifest_path, "--dump-events": args.dump_events})
    source = SourceConfig(pair_rate_hz=args.pair_rate, duration_s=args.duration,
                          seed=args.seed)
    interf, bank, timing = _configs_from_args(args)
    clock = ClockConfig(frequency_hz=args.clock)

    bits, records, counts = run_generation(
        source, interf, bank, timing, clock,
        monitor_threshold=args.monitor_threshold, dump_events=args.dump_events,
    )

    bitpipe.write_bit_file(bits, args.out, fmt=args.format)
    manifest.add_output("bits", args.out)

    bitpipe.write_error_log(error_log, records)
    manifest.add_output("error_log", error_log)

    if args.dump_events:
        manifest.add_output("events", args.dump_events)

    manifest.metadata.update(counts)
    print(f"events: {counts['n_events']}  coincidences: {counts['n_coincidences']}"
          f"  cross-arm: {counts['cross_arm_count']}")
    print(f"bits: {counts['bits_recorded']}  errors: {counts['error_records']}"
          f"  empirical BER: {counts['empirical_ber']:.3e}")
    print(f"wrote {args.out}")
    return EXIT_OK, manifest_path


# ------------------------------------------------------------------- unbias


def cmd_unbias(args, manifest: RunManifest):
    manifest_path = args.out + ".manifest.json"
    _check_distinct("unbias", {"the input": args.infile, "--out": args.out,
                               "the manifest": manifest_path})
    stream = bitpipe.read_bit_file(args.infile, fmt=args.in_format)
    unbiased = bitpipe.von_neumann(stream)
    bitpipe.write_bit_file(unbiased, args.out, fmt=args.out_format)
    manifest.add_output("bits", args.out)
    manifest.metadata["input_bits"] = stream.n
    manifest.metadata["output_bits"] = unbiased.n

    print(f"input bits: {stream.n}")
    print(f"output bits: {unbiased.n}")
    if stream.n:
        print(f"yield: {unbiased.n / stream.n:.4f}")
    else:
        print("yield: n/a")
    if unbiased.n:
        p_one, err = bitpipe.bias_estimate(unbiased)
        manifest.metadata["output_ones_fraction"] = p_one
        print(f"output ones fraction: {p_one:.5f} +/- {err:.5f}")
    return EXIT_OK, manifest_path


# --------------------------------------------------------------------- test


def _report_path(args) -> str:
    return args.report or args.infile + ".report.json"


def cmd_test(args, manifest: RunManifest):
    out = _report_path(args)
    _check_distinct("test", {"the input": args.infile, "--report": out,
                             "the manifest": out + ".manifest.json"})
    stream = bitpipe.read_bit_file(args.infile)
    sequence_id = args.sequence_id or os.path.basename(args.infile)
    report = statskit.run_suite(stream.bits, alpha=args.alpha, block_m=args.block_m,
                                apen_m=args.apen_m, serial_m=args.serial_m, sequence_id=sequence_id)
    if not report.n_applicable:
        raise UsageError(f"test: {args.infile} is too short to test "
                         f"(bits: {stream.n}; no test applies below 100)")
    # from 100 bits on only a length asked for can blank these tests; the default
    # block, given or not, counts as not asked for: it blanks 100-127-bit files itself
    blank = {t.name for t in report.tests if not t.p_values}
    if args.block_m == statskit.sp800_22.BLOCK_M:
        blank.discard("block_frequency")
    for name, option, m in (("block_frequency", "--block-m", args.block_m),
                            ("approximate_entropy", "--apen-m", args.apen_m),
                            ("serial", "--serial-m", args.serial_m)):
        if name in blank:
            raise UsageError(f"test: {option} {m} is too long for {args.infile} "
                             f"(bits: {stream.n}); the {name} test would not run")

    with open(out, "w", encoding="ascii", newline="\n") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    manifest.add_output("report", out)
    manifest.metadata["overall_pass"] = report.overall_pass

    print(f"sequence: {sequence_id}  bits: {report.n_bits}  alpha: {report.alpha}")
    print(f"{'test':<22}{'p-value(s)':<24}result")
    for t in report.tests:
        if not t.applicable:
            verdict = "not applicable"
            pvals = "-"
        else:
            verdict = "pass" if t.passed else "FAIL"
            pvals = " ".join(f"{p:.5f}" for p in t.p_values)
        print(f"{t.name:<22}{pvals:<24}{verdict}")
    print(f"overall: {'PASS' if report.overall_pass else 'FAIL'}")
    return (EXIT_OK if report.overall_pass else EXIT_TEST_FAIL), out + ".manifest.json"


# -------------------------------------------------------------------- rerun

# output-path options a rerun may redirect; inputs stay in place
_OUTPUT_OPTIONS = ("out", "error_log", "dump_events", "report", "manifest")


def cmd_rerun(args) -> int:
    """Replay a manifest's argv through the parser, outputs optionally moved.

    Later occurrences of an option override earlier ones, so --outdir
    appends one redirected path per output option the recorded run set.
    """
    recorded = RunManifest.load(args.manifest_file)
    parser = build_parser()
    argv = list(recorded.argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            replay = parser.parse_args(argv)
    except SystemExit:  # the parser's own errors raise UsageError instead
        raise UsageError(f"rerun: {args.manifest_file} records a help or version "
                         "request, which does not replay") from None
    if replay.command == "rerun":
        raise UsageError(f"rerun: {args.manifest_file} records a rerun, which does not replay")
    if _parameters(replay) != recorded.parameters:
        raise UsageError(f"rerun: {args.manifest_file}: parameters do not match its argv")
    if not args.outdir:
        return _run(replay, argv)
    if replay.command == "test":
        # the default report path follows the input, which stays in place
        replay.report = _report_path(replay)
    for key in _OUTPUT_OPTIONS:
        path = getattr(replay, key, None)
        if path:
            argv += ["--" + key.replace("_", "-"),
                     os.path.join(args.outdir, os.path.basename(path))]
    # the outermost directory of --outdir that this replay creates, if any
    created, missing = None, os.path.abspath(args.outdir)
    while not os.path.lexists(missing):
        created, missing = missing, os.path.dirname(missing)
    try:
        os.makedirs(args.outdir, exist_ok=True)
        return _run(parser.parse_args(argv), argv)
    except BaseException:  # a refused or failed replay leaves no directory of its own
        if created:
            shutil.rmtree(created, ignore_errors=True)
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qrngsim",
        description="Simulate a two-photon interference quantum random "
                    "number generator end to end.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan-delay", help="coincidence rates vs photon delay")
    p.add_argument("--from", dest="delay_from", type=float, required=True,
                   help="first delay in fs")
    p.add_argument("--to", dest="delay_to", type=float, required=True,
                   help="last delay in fs")
    p.add_argument("--steps", type=int, required=True, help="number of delay points")
    p.add_argument("--pairs-per-point", type=float, default=2e5,
                   help="mean emitted pairs per point (default 2e5)")
    p.add_argument("--point-duration", type=float, default=1.0,
                   help="simulated seconds per point (default 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--fit", dest="fit", action="store_true", default=True,
                   help="fit the cross-arm dip (default)")
    p.add_argument("--no-fit", dest="fit", action="store_false")
    _physics_flags(p)
    p.set_defaults(func=cmd_scan_delay)

    p = sub.add_parser("ber-scan", help="bit error rate vs clock frequency")
    p.add_argument("--rate", type=float, required=True,
                   help="coincidence (bit generation) rate in Hz")
    p.add_argument("--freqs", required=True,
                   help="comma-separated clock frequencies in Hz")
    p.add_argument("--duration", type=float, default=100.0,
                   help="simulated seconds per frequency (default 100)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_ber_scan)

    p = sub.add_parser("generate", help="record a random bit sequence")
    p.add_argument("--clock", type=float, default=500_000.0,
                   help="counting clock frequency in Hz (default 500000)")
    p.add_argument("--duration", type=float, required=True,
                   help="simulated seconds")
    p.add_argument("--pair-rate", type=float, default=1336.0,
                   help="mean detected pair rate in Hz (default 1336)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", default="ascii", choices=("ascii", "packed"))
    p.add_argument("--out", required=True, help="bit file path")
    p.add_argument("--error-log", dest="error_log", default=None,
                   help="error-record CSV (default OUT.errors.csv)")
    p.add_argument("--manifest", default=None,
                   help="manifest path (default OUT.manifest.json)")
    p.add_argument("--monitor-threshold", type=int, default=0,
                   help="allowed cross-arm coincidences before alarm (default 0)")
    p.add_argument("--dump-events", default=None,
                   help="optional raw event CSV for debugging")
    _physics_flags(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("unbias", help="von Neumann unbiasing of a bit file")
    p.add_argument("infile", help="input bit file (ascii or packed)")
    p.add_argument("--in-format", dest="in_format", default="auto",
                   choices=("auto", "ascii", "packed"))
    p.add_argument("--out", required=True)
    p.add_argument("--out-format", dest="out_format", default="ascii",
                   choices=("ascii", "packed"))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_unbias)

    p = sub.add_parser("test", help="run the randomness test battery")
    p.add_argument("infile", help="bit file (ascii or packed)")
    p.add_argument("--alpha", type=float, default=statskit.sp800_22.ALPHA)
    p.add_argument("--report", default=None,
                   help="JSON report path (default INFILE.report.json)")
    p.add_argument("--sequence-id", dest="sequence_id", default=None)
    p.add_argument("--block-m", dest="block_m", type=int,
                   default=statskit.sp800_22.BLOCK_M,
                   help="block frequency block length (default %(default)s)")
    p.add_argument("--apen-m", dest="apen_m", type=int, default=statskit.sp800_22.APEN_M,
                   help="approximate entropy pattern length (default %(default)s)")
    p.add_argument("--serial-m", dest="serial_m", type=int, default=None,
                   help="serial pattern length (default: scaled to n)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("rerun", help="replay a recorded manifest")
    p.add_argument("--manifest", dest="manifest_file", required=True)
    p.add_argument("--outdir", default=None,
                   help="redirect output files into this directory")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        return cmd_rerun(args) if args.command == "rerun" else _run(args, argv)
    except SystemExit as exc:  # --help and --version
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except MonitorAlarm as exc:
        print(f"purity monitor alarm: {exc}", file=sys.stderr)
        return EXIT_ALARM
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:  # an array past the address space, or too large a Poisson mean
        print(f"error: run too large for memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
