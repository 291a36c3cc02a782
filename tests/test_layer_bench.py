"""tools/layer_bench.py: every case of its table runs on two trees loaded side
by side and reads the same bytes, and a case reads faster or slower only
from enough pairs."""

import gc
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("layer_bench", ROOT / "tools" / "layer_bench.py")
layer_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layer_bench)


@pytest.fixture(scope="module")
def trees():
    """./src loaded twice, under two package names."""
    return (layer_bench.load(ROOT / "src", "gnp_layer_bench_a"),
            layer_bench.load(ROOT / "src", "gnp_layer_bench_b"))


def test_every_case_runs_and_compares(trees):
    # each case is a few milliseconds at its own size: time each one once
    this, other = trees
    assert this.kernels is not other.kernels
    result = json.loads(json.dumps(layer_bench.measure(this, other, repeats=1,
                                                       min_time=0.0)))
    names = [case["name"] for case in result["cases"]]
    assert len(set(names)) == len(names) == 18
    assert all(case["median_s"] > 0 and case["number"] == 1 for case in result["cases"])
    for case in result["cases"]:
        vs = case["against"]
        assert vs["ratio"] == case["median_s"] / vs["median_s"] > 0, case["name"]
        assert (vs["verdict"], vs["same_bytes"]) == ("unresolved", True)


@pytest.mark.parametrize("ratios, verdict", [
    ([0.5] * 9 + [2.0], "faster"),               # nine of ten pairs won
    ([2.0] * 9 + [0.5], "slower"),
    ([0.5] * 18 + [2.0] * 2, "faster"),
    ([0.5] * 8 + [2.0] * 2, "unresolved"),       # eight of ten
    ([0.5] * 9, "unresolved"),                   # too few pairs
    ([0.5] * 8 + [1.0] * 2, "unresolved"),       # a tie counts for neither
    ([1.0] * 10, "unresolved"),
])
def test_compare_calls_a_case_only_from_enough_pairs(ratios, verdict):
    # pair k: this tree took ratios[k] seconds per call, the other 1
    row = layer_bench.compare(ratios, [1.0] * len(ratios))
    assert (row["ratio_low"], row["ratio_high"], row["verdict"]) == (
        min(ratios), max(ratios), verdict)


def test_compare_reads_the_cases_every_run_has(trees, monkeypatch):
    # a case that raises on the other tree is this tree's only; a one-ulp
    # difference in an output reads as differing bytes
    this, other = trees

    def table(gnp, workdir):
        import numpy as np
        ulp = 0.0 if gnp is this else np.spacing(1.0)
        return [("io", "same", lambda: {"x": [np.ones(2)]}),
                ("io", "ulp", lambda: (np.ones(2) + ulp, "text")),
                ("io", "broken", (lambda: 1) if gnp is this else lambda: 1 / 0)]
    monkeypatch.setattr(layer_bench, "cases", table)
    result = layer_bench.measure(this, other, repeats=1, min_time=0.0)
    assert [case.get("against", {}).get("same_bytes") for case in result["cases"]] == [
        True, False, None]


def test_time_calls_keeps_the_collector_off_and_restores_it_on_a_raise():
    enabled = []

    def call():
        enabled.append(gc.isenabled())
    assert gc.isenabled()
    layer_bench.time_calls([call, call], repeats=2, number=2)
    assert enabled == [False] * 8 and gc.isenabled()

    def broken():
        raise RuntimeError("broken case")
    with pytest.raises(RuntimeError, match="broken case"):
        layer_bench.time_calls([call, broken], repeats=2, number=1)
    assert gc.isenabled()
