"""`tools/bench_pairs.py` on canned result lines: no benchmark runs here."""

import ast
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(wall, rss, correct=True, failed=0):
    return json.dumps({"correct": correct, "attempted": 24, "failed": failed, "metrics": {
        "wall_ref_s": {"value": wall, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "numeric.project.converged_ratio": {"value": rss / 100, "unit": "ratio"},
    }})


PARENT = [0.251, 0.2353, 0.2524, 0.2318, 0.24]
CHANGE = [0.1595, 0.187, 0.1588, 0.26, 0.17]


def canned_pairs():
    return [(json.loads(result_line(p, 57.6)), json.loads(result_line(c, rss)))
            for p, c, rss in zip(PARENT, CHANGE, [57.6, 58, 57, 59, 60])]


def test_summary_gives_runs_medians_quartiles_and_wins(tool):
    better = {"wall_ref_s": "lower", "numeric.project.converged_ratio": "higher"}
    lines = tool.summarize(canned_pairs(), better)
    assert lines[:4] == [
        "wall_ref_s (s, lower is better)",
        "  parent  0.251 0.2353 0.2524 0.2318 0.24  median 0.24  quartiles 0.2353-0.251",
        "  change  0.1595 0.187 0.1588 0.26 0.17  median 0.17  quartiles 0.1595-0.187",
        "  change better in 4 of 5 pairs; medians differ by 0.07, parent interquartile range 0.0157",
    ]
    # a metric BENCHMARK.json does not name is better lower; ties count for neither side
    assert lines[4] == "peak_rss_mb (MB, lower is better)"
    assert lines[7].startswith("  change better in 1 of 5 pairs;")
    assert lines[8] == "numeric.project.converged_ratio (ratio, higher is better)"
    assert lines[11].startswith("  change better in 3 of 5 pairs;")


def test_quartiles_interpolate_between_order_statistics(tool):
    # the parent runs of one recorded set: 0.2372-0.2499
    q1, q3 = tool.quartiles([0.2218, 0.2500, 0.2496, 0.2575, 0.2487, 0.2334])
    assert (round(q1, 4), round(q3, 4)) == (0.2372, 0.2499)
    assert tool.quartiles([0.5]) == (0.5, 0.5)


def test_directions_come_from_the_benchmark_spec(tool):
    directions = tool.metric_directions()
    assert directions["wall_ref_s"] == "lower"
    assert directions["criteria.fold_exit_share"] == "higher"


@pytest.mark.parametrize("change, message", [
    (result_line(0.2, 57, correct=False), "pair 2: change: the run is not correct"),
    (result_line(0.2, 57, failed=3), "pair 2: change: 3 of 24 operations failed"),
    (None, "pair 2: change: the run exited nonzero or printed nothing"),
])
def test_a_faulty_run_makes_the_exit_status_nonzero(tool, monkeypatch, capsys, change, message):
    lines = {"parent": [result_line(0.25, 57)] * 3, "change": [result_line(0.2, 57), change, result_line(0.2, 57)]}
    runs = []

    def run(tree, workload, seed):
        runs.append(tree)
        line = lines[tree].pop(0)
        return None if line is None else json.loads(line)

    monkeypatch.setattr(tool, "export", lambda rev, into: rev)
    monkeypatch.setattr(tool, "run", run)
    assert tool.main(["parent", "change", "--workload", "float_scan_export", "--pairs", "3"]) == 1
    # the parent runs first in pairs 1 and 3, the change in pair 2
    assert runs == ["parent", "change", "change", "parent", "parent", "change"]
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == message
    assert out[0] == "float_scan_export seed 1: parent against change, " + (
        "2 pairs, --seconds 20 --trace 0" if change is None else "3 pairs, --seconds 20 --trace 0")


def test_clean_runs_exit_zero(tool, monkeypatch, capsys):
    monkeypatch.setattr(tool, "export", lambda rev, into: rev)
    monkeypatch.setattr(tool, "run", lambda tree, workload, seed: json.loads(result_line(0.2, 57)))
    assert tool.main(["a", "b", "--workload", "dim_ladder", "--pairs", "2"]) == 0
    assert "change better in 0 of 2 pairs" in capsys.readouterr().out


def test_imports_nothing_from_the_benchmark():
    tree = ast.parse((ROOT / "tools" / "bench_pairs.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported <= set(sys.stdlib_module_names)
