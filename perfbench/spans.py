"""Per-layer spans and counters, installed around qrngsim's public functions.

The wrappers replace module attributes at run time.  Every caller inside
qrngsim looks these names up when it calls them (``timetag.simulate``,
``bitpipe.period_occupancy`` inside ``extract_bits``, ``sha256_file`` inside
``RunManifest.add_output``, the SP 800-22 tests inside ``run_suite``), so
the program itself stays untouched.

A span records name, start, end, parent and run id.  Spans are kept in
memory and handed out as plain dicts when the run ends.  A separate memory
pass wraps three kernels with tracemalloc; it is never combined with the
timing pass, so allocation tracing does not inflate self times.
"""

from __future__ import annotations

import functools
import os
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.counts = defaultdict(int)
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "run_id": self.run_id}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def self_times(spans: list) -> dict:
    """Summed self time per span name: duration minus direct children."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict = defaultdict(float)
    for s, children in zip(spans, child_time):
        out[s["name"]] += (s["end"] - s["start"]) - children
    return dict(out)


def root_time(spans: list) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)


# --------------------------------------------------------------- counters

def _count(key, amount):
    def counter(c, args, kwargs, result):
        c[key] += amount(result)
    return counter


def _count_size(key, arg_index):
    """Add the size of the file named by a positional argument."""
    def counter(c, args, kwargs, result):
        c[key] += os.path.getsize(args[arg_index])
    return counter


def _count_coincidences(c, args, kwargs, result):
    c["timetag.coincidences"] += len(result)
    c["timetag.multi_click_clusters"] += result.n_multi_click_clusters
    c["timetag.unpaired"] += result.n_unpaired
    c["timetag.events_in"] += result.n_events_in


def _count_records(c, args, kwargs, result):
    from qrngsim.bitpipe import Symbol
    c["bitpipe.records"] += len(result)
    c["bitpipe.error_records"] += int((result.symbols == int(Symbol.ERROR)).sum())


def _count_vn(c, args, kwargs, result):
    c["bitpipe.vn_in"] += args[0].n
    c["bitpipe.vn_out"] += result.n


def timing_targets():
    """(owner, attribute, span name, counter) for every traced public function."""
    from qrngsim import bitpipe, cli, manifest, statskit, timetag
    from qrngsim.statskit import sp800_22

    return [
        (cli, "run_generation", "cli.run_generation", None),
        (manifest, "sha256_file", "manifest.sha256_file",
         _count_size("manifest.bytes_hashed", 0)),
        (timetag, "simulate", "timetag.simulate", _count("timetag.clicks", len)),
        (timetag, "coincidence_filter", "timetag.coincidence_filter",
         _count_coincidences),
        (timetag, "purity_monitor", "timetag.purity_monitor", None),
        (timetag.CoincidenceStream, "select", "timetag.select", None),
        (timetag, "synthetic_coincidences", "timetag.synthetic_coincidences", None),
        (timetag, "scan_delay", "timetag.scan_delay", None),
        (timetag, "fit_dip_visibility", "timetag.fit_dip_visibility", None),
        (timetag, "write_scan_csv", "timetag.write_scan_csv", None),
        # optics is reached through the name timetag imported
        (timetag, "click_distribution", "optics.click_distribution",
         _count("optics.calls", lambda r: 1)),
        (bitpipe, "extract_bits", "bitpipe.extract_bits", _count_records),
        (bitpipe, "period_occupancy", "bitpipe.period_occupancy", None),
        (bitpipe, "records_to_stream", "bitpipe.records_to_stream", None),
        (bitpipe, "von_neumann", "bitpipe.von_neumann", _count_vn),
        (bitpipe, "write_bit_file", "bitpipe.write_bit_file",
         _count_size("bitpipe.bytes_written", 1)),
        (bitpipe, "read_bit_file", "bitpipe.read_bit_file",
         _count_size("bitpipe.bytes_read", 0)),
        (bitpipe, "write_error_log", "bitpipe.write_error_log",
         _count_size("bitpipe.bytes_written", 0)),
        (statskit, "run_suite", "statskit.run_suite",
         _count("statskit.bits_tested", lambda r: r.n_bits)),
        (sp800_22, "frequency_test", "statskit.frequency", None),
        (sp800_22, "block_frequency_test", "statskit.block_frequency", None),
        (sp800_22, "runs_test", "statskit.runs", None),
        (sp800_22, "longest_run_test", "statskit.longest_run", None),
        (sp800_22, "cusum_test", "statskit.cumulative_sums", None),
        (sp800_22, "approx_entropy_test", "statskit.approximate_entropy", None),
        (sp800_22, "serial_test", "statskit.serial", None),
        (sp800_22, "spectral_test", "statskit.spectral", None),
    ]


MEMORY_TARGETS = ("timetag.simulate", "timetag.coincidence_filter",
                  "bitpipe.extract_bits")


def _patch(owner, attr, make_wrapper, restore: list) -> None:
    original = getattr(owner, attr)
    restore.append((owner, attr, original))
    setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))


@contextmanager
def timing_installed(tracer: Tracer):
    """Wrap every timing target in a span; counters run after the span ends."""
    restore: list = []

    def make(name, counter):
        def make_wrapper(fn):
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    result = fn(*args, **kwargs)
                if counter is not None:
                    counter(tracer.counts, args, kwargs, result)
                return result
            return wrapper
        return make_wrapper

    try:
        for owner, attr, name, counter in timing_targets():
            _patch(owner, attr, make(name, counter), restore)
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


@contextmanager
def memory_installed(peaks: dict):
    """tracemalloc peak (bytes) of each memory target, max over its calls."""
    restore: list = []

    def make(name):
        def make_wrapper(fn):
            def wrapper(*args, **kwargs):
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    peaks[name] = max(peaks.get(name, 0), peak)
            return wrapper
        return make_wrapper

    try:
        for owner, attr, name, _ in timing_targets():
            if name in MEMORY_TARGETS:
                _patch(owner, attr, make(name), restore)
        yield peaks
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
