"""The committed BENCH_<n>.json files, as scripts/bench_pairs.py writes them."""

import json
from numbers import Real
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_files_name_every_workload_and_end_to_end_metric():
    """Every committed file names all the workloads and end-to-end metrics
    BENCHMARK.json declares, each with a parent and a change median, plus
    the host's CPU count and the Python version that measured them, from
    at least ten pairs of runs of the benchmark's own length."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        bench = json.loads(path.read_text())
        assert isinstance(bench["nproc"], int) and bench["nproc"] > 0, path.name
        assert isinstance(bench["python"], str) and bench["python"].count(".") == 2, path.name
        assert set(bench["commits"]) == {"parent", "change"}, path.name
        assert bench["seconds"] == spec["run_seconds"], path.name
        assert bench["pairs"] >= 10, path.name
        for w in workloads:
            got = bench["workloads"][w]["metrics"]
            for m in metrics:
                for side in ("parent", "change"):
                    assert isinstance(got[m][side]["median"], Real), (path.name, w, m, side)
