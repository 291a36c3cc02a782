"""tools/layer_bench.py: every case of its table still runs."""

import importlib.util
import json
from pathlib import Path

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
    rows = layer_bench.compare(result, result)
    assert [(name, ratio, noise) for name, ratio, noise in rows] == \
        [(name, 1.0, True) for name in names]
    assert len(capsys.readouterr().out.splitlines()) == len(names)
