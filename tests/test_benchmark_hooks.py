"""The names the benchmark wraps still exist and still see the chain.

``perfbench/spans.py`` replaces qrngsim functions by attribute name at run
time.  Its own tests run outside this suite, so a deleted or renamed
target would otherwise break only the benchmark.  The module is loaded
from its file without writing bytecode next to it.
"""

import importlib.util
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
    with spans.timing_installed(tracer):
        assert main(["generate", "--duration", "5", "--pair-rate", "2000",
                     "--monitor-threshold", "500", "--out", str(tmp_path / "g.bits")]) == EXIT_OK
    assert tracer.counts["timetag.clicks"] > 0
    assert tracer.counts["bitpipe.records"] > 0
    # the benchmark reads simulate's time as a part of run_generation's
    by_name = {s["name"]: s for s in tracer.spans}
    parent = tracer.spans[by_name["timetag.simulate"]["parent"]]
    assert parent["name"] == "cli.run_generation"
