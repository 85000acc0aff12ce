"""Smoke self-test of the benchmark at tiny sizes.

    python -m pytest benchmarks/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_webnav()
import workloads  # noqa: E402  (needs the checkout's webnav on sys.path)

TINY = workloads.Sizes(graph_n=2000, quota=20, serial_agents=3,
                       parallel_agents=4, roundtrip_agents=3, setup_repeats=2,
                       probe_agents=2, probe_steps=200, burn_iters=10_000)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)], sizes=TINY) == 0
    out = capsys.readouterr().out.splitlines()
    return out, json.loads(out[-1])


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_end_to_end_metric_emitted_with_unit(capsys, workload):
    lines, result = bench(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0, name
    printed = {line.split()[0] for line in lines[:-1] if line.strip()}
    assert "fail_share" in printed
    if workload == "roundtrip":
        assert "lines_per_s" in printed
    if workload == "desk-parallel":
        assert "worker_peak_rss_mb" in printed


def test_every_per_layer_metric_emitted_with_unit(capsys):
    lines, result = bench(capsys, "desk-parallel", 1)
    assert result["correct"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.PER_LAYER[name]
        assert isinstance(metric["value"], (int, float)), name
    assert any(line.startswith("tracing overhead:") for line in lines)


def test_corrupted_output_counts_as_failed(capsys, monkeypatch):
    real = workloads.write_outputs

    def corrupting(out, *args):
        entries = real(out, *args)
        with open(Path(out) / "page_traffic.csv", "a", encoding="utf-8") as fh:
            fh.write("999999,1\n")
        return entries

    monkeypatch.setattr(workloads, "write_outputs", corrupting)
    lines, result = bench(capsys, "desk-serial", 0)
    assert not result["correct"]
    assert result["failed"] >= 1
    share = next(float(line.split()[1]) for line in lines
                 if line.startswith("fail_share"))
    assert share > 0
    assert share == pytest.approx(result["failed"] / result["attempted"], rel=1e-5)


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "desk-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
