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

from qrngsim.cli import EXIT_OK, EXIT_TEST_FAIL, main

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


@pytest.fixture(scope="module")
def traced_chain(spans, tmp_path_factory):
    """generate -> unbias -> test under the benchmark's tracer: the tracer,
    the generate and unbias manifests' metadata, and the test report."""
    tmp = tmp_path_factory.mktemp("chain")
    raw, unbiased = tmp / "g.bits", tmp / "u.bits"
    tracer = spans.Tracer("hooks")
    # a 20 kHz clock gives about 120 periods holding two or more coincidences
    with spans.timing_installed(tracer):
        assert main(["generate", "--duration", "5", "--pair-rate", "2000",
                     "--clock", "20000", "--monitor-threshold", "500",
                     "--out", str(raw)]) == EXIT_OK
        assert main(["unbias", str(raw), "--out", str(unbiased)]) == EXIT_OK
        assert main(["test", str(unbiased)]) in (EXIT_OK, EXIT_TEST_FAIL)
    metadata = {
        command: json.loads(Path(f"{path}.manifest.json").read_text())["metadata"]
        for command, path in (("generate", raw), ("unbias", unbiased))
    }
    report = json.loads(Path(f"{unbiased}.report.json").read_text())
    return tracer, metadata, report


def test_traced_generate_counts_clicks_and_records(traced_chain):
    tracer, metadata, _ = traced_chain
    # the benchmark's counters agree with what the run recorded
    metadata = metadata["generate"]
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


def test_traced_unbias_and_test_counts(traced_chain):
    tracer, metadata, report = traced_chain
    assert tracer.counts["bitpipe.vn_in"] == metadata["unbias"]["input_bits"] > 0
    assert tracer.counts["bitpipe.vn_out"] == metadata["unbias"]["output_bits"] > 0
    assert tracer.counts["statskit.bits_tested"] == report["n_bits"]
    assert report["n_bits"] == metadata["unbias"]["output_bits"]
    # one walk serves both cumulative-sums directions
    names = [s["name"] for s in tracer.spans]
    assert names.count("statskit.run_suite") == 1
    assert names.count("statskit.cumulative_sums") == 1
