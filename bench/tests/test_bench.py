"""Tests of the benchmark itself, on workloads small enough to run in seconds.

Run from the repository root with ``python -m pytest -q bench/tests``.
"""
import dataclasses
import json
import shutil
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import pytest

import gridroots as gr
import harness
import run as bench_run
import workloads
from calibration import INTERVAL_S, SpeedProbe
from workloads import Workload, coarse_problem

# Every metric the benchmark's specification names, with its unit.
END_TO_END = {"extract_s": "s", "replay_s": "s", "io_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{layer}.calls": "count" for layer in (
        "separations.row_scan", "separations.menger", "separations.blocking_separation",
        "graph.reachable_from", "graph.Subgraph.new", "graph.delete_edge", "graph.contract_edge",
        "models.validate_pseudomodel", "models.Pseudomodel.new", "grid.grid_graph",
        "formats.canonical_json")},
    **{f"{layer}.self_s": "s" for layer in (
        "separations.menger", "separations.blocking_separation", "graph.reachable_from",
        "graph.Subgraph.new", "graph.delete_edge", "graph.contract_edge",
        "models.validate_pseudomodel", "models.check_augmentation", "extraction.extract",
        "grid.grid_graph", "formats.canonical_json")},
    **{name: "s" for name in (
        "separations.row_scan.s", "extraction.validate_problem.s",
        "instances.generate_instance.s", "extraction.check_hypothesis.s")},
    **{name: "ratio" for name in (
        "separations.row_scan.share", "separations.row_scan.hit_frac",
        "separations.menger.cut_frac", "extraction.scans_per_step", "trace.overhead_frac")},
    **{name: "count" for name in (
        "separations.menger.input_measure", "extraction.reductions.edge-delete",
        "extraction.reductions.branch-edge-delete", "extraction.reductions.branch-edge-contract",
        "extraction.recursions", "extraction.trace_records", "extraction.depth_max")},
    "formats.bundle_bytes": "bytes",
}

SMALL = {
    "grid-roots": Workload("grid-roots", "small", ((13, 2, 2),)),
    "coarse": Workload("coarse", "small", (5,)),
    "certificates": Workload("certificates", "small", ((13, 2, 2),)),
}


@pytest.fixture
def small_workloads(monkeypatch):
    for name, workload in SMALL.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, workload)


def _run_cli(capsys, workload: str, trace: int, seed: int = 7):
    code = bench_run.main(["--workload", workload, "--seed", str(seed),
                           "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_end_to_end_metrics_printed_with_units(small_workloads, capsys, workload):
    lines, doc = _run_cli(capsys, workload, 0)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == END_TO_END
    for name, unit in END_TO_END.items():
        assert doc["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("failed_frac = 0.0000 (failed 0 / attempted ") for line in lines)
    assert any(line.startswith(f"bundle sha256 {workload} seed 7: ") for line in lines)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_per_layer_metrics_printed_with_units(small_workloads, capsys, workload):
    lines, doc = _run_cli(capsys, workload, 1)
    assert doc["correct"] is True and doc["failed"] == 0
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == PER_LAYER
    for name, unit in PER_LAYER.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)


def test_traced_counts_repeat_exactly(small_workloads, capsys):
    first = _run_cli(capsys, "coarse", 1)[1]["metrics"]
    second = _run_cli(capsys, "coarse", 1)[1]["metrics"]
    counts = [name for name, unit in PER_LAYER.items() if unit in ("count", "bytes")]
    assert counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    assert first["extraction.reductions.branch-edge-contract"]["value"] > 0


def test_coarse_trace_counts_match_the_roadmap():
    reductions = {}
    for n in (5, 7):
        trace = gr.extract(coarse_problem(n, "top-left")).trace
        kinds = Counter(record["kind"] for record in trace)
        reductions[n] = sum(kinds[k] for k in harness.REDUCTION_KINDS)
    assert reductions == {5: 138, 7: 278}


@pytest.mark.parametrize("corner", workloads.CORNERS)
def test_every_coarse_corner_is_a_valid_instance(corner):
    problem = coarse_problem(5, corner)
    assert gr.validate_problem(problem).ok
    assert gr.check_hypothesis(problem).holds


def _small_run(tmp_path, name: str, stored=None) -> harness.RunResult:
    run = harness.Run(SMALL[name], 7, 0.0, tmp_path / "work", stored)
    return run.measure()


def _tampering(monkeypatch, tamper):
    real = harness.run_operation

    def run_operation(*args, **kwargs):
        out = real(*args, **kwargs)
        tamper(out)
        return out

    monkeypatch.setattr(harness, "run_operation", run_operation)


def test_untampered_run_passes(tmp_path):
    result = _small_run(tmp_path, "grid-roots")
    assert result.correct and result.attempted == 1 and result.failed == 0


def test_tampered_witness_is_a_failed_operation(tmp_path, monkeypatch):
    def tamper(out):
        w = out.result.witness
        out.result = dataclasses.replace(out.result, witness=dataclasses.replace(w, augmented=w.base))

    _tampering(monkeypatch, tamper)
    result = _small_run(tmp_path, "grid-roots")
    assert result.failed == result.attempted == 1 and not result.correct
    assert any("check_augmentation" in p for p in result.problems)


def test_tampered_trace_record_is_a_failed_operation(tmp_path, monkeypatch):
    def tamper(out):
        records = gr.trace_from_jsonl(out.bundle["trace.jsonl"].decode())
        reduction = next(r for r in records if r["kind"] in harness.REDUCTION_KINDS)
        reduction["edge"] += 1
        out.bundle["trace.jsonl"] = gr.trace_to_jsonl(records).encode()

    _tampering(monkeypatch, tamper)
    result = _small_run(tmp_path, "coarse")
    assert result.failed == result.attempted == 1
    assert any("replay" in p for p in result.problems)


def test_flipped_bundle_byte_is_a_failed_operation(tmp_path, monkeypatch):
    clean = harness.Run(SMALL["grid-roots"], 7, 0.0, tmp_path / "clean")
    clean.measure()
    assert clean.out.correct

    def tamper(out):
        data = bytearray(out.bundle["result.json"])
        data[len(data) // 2] ^= 0x01
        out.bundle["result.json"] = bytes(data)

    _tampering(monkeypatch, tamper)
    result = _small_run(tmp_path, "grid-roots", stored=clean.first)
    assert result.failed == result.attempted == 1
    assert any("bundle digest differs" in p for p in result.problems)


def test_unexpected_exception_is_counted_not_raised(tmp_path, monkeypatch):
    def broken(problem):
        raise gr.InternalInvariantBroken("injected")

    monkeypatch.setattr(harness.gr, "extract", broken)
    result = _small_run(tmp_path, "certificates")
    assert result.failed == result.attempted == 4
    assert all("InternalInvariantBroken: injected" in p for p in result.problems)


def test_refuses_to_run_without_the_package(tmp_path):
    bench_dir = Path(bench_run.__file__).resolve().parent
    shutil.copytree(bench_dir, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "coarse", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_probe_samples_and_leaves_its_time_out():
    probe = SpeedProbe()
    before = signal.getsignal(signal.SIGALRM)
    with probe.sampling():
        wall0, clock0 = perf_counter(), probe.clock()
        while perf_counter() - wall0 < 4 * INTERVAL_S:
            with probe.held():
                sum(range(1000))
        wall, clock = perf_counter() - wall0, probe.clock() - clock0
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.times) >= 3
    assert 0 < clock < wall
    assert probe.factor > 0
