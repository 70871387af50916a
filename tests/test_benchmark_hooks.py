"""The names the benchmark wraps still exist and still see the chain.

``perfbench/spans.py`` replaces qrngsim functions by attribute name at run
time.  Its own tests run outside this suite, so a deleted or renamed
target would otherwise break only the benchmark.  The module is loaded
from its file without writing bytecode next to it.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from qrngsim.cli import EXIT_OK, main

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module


def test_every_timing_target_resolves(spans):
    for owner, attr, name, _ in spans.timing_targets():
        assert callable(getattr(owner, attr, None)), name


def test_traced_generate_counts_clicks_and_records(spans, tmp_path):
    tracer = spans.Tracer("hooks")
    out = tmp_path / "g.bits"
    # a 20 kHz clock gives about 120 periods holding two or more coincidences
    with spans.timing_installed(tracer):
        assert main(["generate", "--duration", "5", "--pair-rate", "2000",
                     "--clock", "20000", "--monitor-threshold", "500",
                     "--out", str(out)]) == EXIT_OK
    # the benchmark's counters agree with what the run recorded
    metadata = json.loads(Path(f"{out}.manifest.json").read_text())["metadata"]
    assert metadata["error_records"] > 0
    assert tracer.counts["timetag.clicks"] == metadata["n_events"] > 0
    assert tracer.counts["bitpipe.records"] == (
        metadata["bits_recorded"] + metadata["error_records"])
    assert tracer.counts["bitpipe.error_records"] == metadata["error_records"]
    # the clock periods are cut once per run, by extract_bits
    names = [s["name"] for s in tracer.spans]
    assert names.count("bitpipe.period_occupancy") == 1
    # the benchmark reads simulate's time as a part of run_generation's
    by_name = {s["name"]: s for s in tracer.spans}
    parent = tracer.spans[by_name["timetag.simulate"]["parent"]]
    assert parent["name"] == "cli.run_generation"
