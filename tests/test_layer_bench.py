"""tools/layer_bench.py: every case of its table still runs, and --compare
calls a case faster or slower only from enough alternating pairs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "layer_bench.py"
_spec = importlib.util.spec_from_file_location("layer_bench", TOOL)
layer_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layer_bench)


def test_every_case_runs_and_compares(capsys, tmp_path):
    # each case is a few milliseconds at its own size: time each one once
    src = Path(layer_bench.__file__).resolve().parent.parent / "src"
    result = json.loads(json.dumps(layer_bench.measure(src, repeats=1, min_time=0.0)))
    names = [case["name"] for case in result["cases"]]
    assert names == [name for _, name, _ in layer_bench.cases(tmp_path)]
    assert len(set(names)) == len(names) == 12
    assert all(case["median_s"] > 0 and case["number"] == 1 for case in result["cases"])
    rows = layer_bench.compare([result, result])
    assert rows == [(name, 1.0, 1.0, 1.0, "unresolved") for name in names]
    assert len(capsys.readouterr().out.splitlines()) == len(names)


def run(**medians):
    return {"cases": [{"name": name, "median_s": t} for name, t in medians.items()]}


def alternating(ratios):
    """Runs A1 B1 A2 B2 ... of one case "c" whose pair k reads ratio ratios[k]."""
    return [r for ratio in ratios for r in (run(c=1.0), run(c=ratio))]


@pytest.mark.parametrize("ratios, verdict", [
    ([0.5] * 9 + [2.0], "faster"),               # nine of ten pairs won
    ([2.0] * 9 + [0.5], "slower"),
    ([0.5] * 18 + [2.0] * 2, "faster"),
    ([0.5] * 8 + [2.0] * 2, "unresolved"),       # eight of ten
    ([0.5] * 9, "unresolved"),                   # too few pairs
    ([0.5] * 8 + [1.0] * 2, "unresolved"),       # a tie counts for neither
    ([1.0] * 10, "unresolved"),
])
def test_compare_calls_a_case_only_from_enough_pairs(ratios, verdict, capsys):
    [(name, _, low, high, got)] = layer_bench.compare(alternating(ratios))
    assert (name, low, high, got) == ("c", min(ratios), max(ratios), verdict)
    assert capsys.readouterr().out.rstrip().endswith(verdict)


def test_compare_reads_the_cases_every_run_has():
    rows = layer_bench.compare([run(c=1.0, d=1.0), run(c=2.0, e=1.0),
                                run(c=1.0, d=1.0, e=1.0), run(c=4.0, d=1.0, e=1.0)])
    assert rows == [("c", 3.0, 2.0, 4.0, "unresolved")]


def test_compare_needs_runs_in_pairs(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(run(c=1.0)))
    with pytest.raises(SystemExit):
        layer_bench.main(["--compare", str(path), str(path), str(path)])
