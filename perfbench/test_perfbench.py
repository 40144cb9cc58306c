"""The benchmark's own test, on quick mode (tiny sizes).

    python3 -m pytest perfbench/test_perfbench.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the traced counts repeat exactly across two runs at one seed, that the
trace puts each layer where the workloads say it should be, and that the
benchmark refuses to run without the package source.
"""
import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3
# counts made by the program, not times: they must repeat exactly at one seed
COUNTS = (
    "whittle.contrast_evals_per_fit",
    "whittle.iterations_per_fit",
    "needlet.levels_per_fit",
    "harmonic.alm_bytes",
    "sphere.table_bytes",
    "whittle.key_reuse_frac",
)


def bench(workload: str, trace: int, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, cwd=root, timeout=300,
    )


def result(workload: str, trace: int) -> dict:
    out = bench(workload, trace)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    return res


def units(res: dict) -> dict:
    return {name: m["unit"] for name, m in res["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    res = result(workload, 0)
    assert units(res) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = result(workload, 1), result(workload, 1)
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def _trace_files(workload: str):
    out = ROOT / ".bench_out" / f"{workload}-s{SEED}-t1"
    layers = json.loads((out / "layers.json").read_text())
    with open(out / "spans.csv") as fh:
        spans = list(csv.DictReader(fh))
    return layers, spans


def test_trace_places_layers():
    for workload in WORKLOADS:
        result(workload, 1)
    layers, spans = _trace_files("mc-canonical")
    program = [name for name in layers["functions"] if not name.startswith("bench.")]
    assert program[0] == "harmonic.simulate_alm"
    assert all(s["layer"] != "sphere" for s in spans)
    layers, spans = _trace_files("fit-sweep")
    assert all(s["layer"] not in ("harmonic", "sphere") for s in spans)
    assert layers["layers"]["whittle"]["self_share"] > 0.5
    layers, spans = _trace_files("realspace-j6")
    assert layers["layers"]["sphere"]["self_share"] > 0.9
    for layers, spans in map(_trace_files, WORKLOADS):
        ids = {s["span_id"] for s in spans}
        assert all(s["parent_id"] in ids for s in spans if s["parent_id"])
        assert all(int(s["end_ns"]) >= int(s["start_ns"]) for s in spans)


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(WORKLOADS[0], 0, root=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
