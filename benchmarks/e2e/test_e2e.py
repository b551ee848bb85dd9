"""Smoke tests of the end-to-end benchmark at a few ops per workload."""

import json
import shutil
import subprocess
import sys

import pytest

import compare
import expected
import run
import synth
import workloads as w
from repro.experiments.table1 import render_table1
from repro.ir import parse_program, validate_program
from repro.cfg import build_icfg
from repro.obs.trace import NULL_TRACER, read_jsonl
from repro.pipeline import run_table1_pipeline

SPEC = json.loads((w.ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
#: Per-layer figures that are counts of work, not times or rates.
EXACT = {m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "ratio", "ticks")}
EXACT -= {"serving.mean_batch"}  # batch sizes depend on arrival timing

#: The span of every layer call the workloads time.
LAYER_SPANS = {
    "ir.parse", "ir.validate", "cfg.icfg", "analyses.activity_icfg", "mpi.match",
    "mpi.comm_edges", "analyses.activity_mpi", "experiments.render", "runtime.run",
    "serving.request",
}

SMOKE = {
    "SYNTH_STRATA": ((12, 1, 1), (16, 1, 0)),
    "SPMD_ROUND": {"figure1": 1, "overlap": 1, "LU-1": 1, "Sw-3": 1},
    "SERVE_BENCHES": ("SOR", "CG"),
    "SERVE_ANALYSES": ("vary", "activity"),
    "SERVE_MODELS": ("comm-edges",),
}


def smoke_run(name: str, out_dir, trace: bool = True, seed: int = 1) -> tuple:
    """One round of one workload in this process (two when traced), at
    smoke scale."""
    with pytest.MonkeyPatch.context() as mp:
        for attr, value in SMOKE.items():
            mp.setattr(w, attr, value)
        mp.setattr(w, "OUT_DIR", out_dir)
        workload = w.MAKERS[name](seed)
        try:
            workload.setup()
            raw = w.measure(workload, run.part_rounds(name, 0, trace), trace)
        finally:
            workload.close()
    return workload, raw


def ledger(raw: dict) -> dict:
    return run.ledger(run.merge([{**raw, "setup_s": 0.0}]))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Each workload run twice with tracing, same seed."""
    out = tmp_path_factory.mktemp("e2e")
    return {
        name: [smoke_run(name, out / f"{name}-{i}")[1] for i in range(2)]
        for name in ("table1", "synth-scale", "spmd-run")
    }


def test_synth_is_deterministic_valid_and_covers_both_regimes():
    assert synth.generate(3, 12, 2, 1).text == synth.generate(3, 12, 2, 1).text
    assert synth.generate(3, 12, 2, 1).text != synth.generate(4, 12, 2, 1).text
    pool = w.synth_pool(5, 3)
    low, high = w.SYNTH_NODE_BAND
    for program in pool:
        icfg = build_icfg(
            parse_program(program.text), "main", clone_level=program.clone_level
        )
        assert low <= len(icfg.graph) <= high, program.name
    assert {p.merged for p in pool} == {True, False}
    assert {p.depth for p in pool} == {1, 2, 3}
    assert {p.clone_level for p in pool} == {0, 1, 2, 3}
    for index in range(len(w.SERVE_NOVEL_SHAPES)):
        validate_program(parse_program(w.novel_body(5, 1, index)["source"]))


def test_benchmark_rows_equal_the_pipeline():
    rows = [
        w.analyse(spec, f"{w.spl_text(spec)}// op {i}\n", NULL_TRACER).row
        for i, spec in enumerate(w.BENCHMARKS.values())
    ]
    assert render_table1(rows) == run_table1_pipeline(cache=False).table1_text


def test_committed_expectations_are_current():
    committed = w.load_expected()
    assert expected.table1() == committed["table1"]
    assert expected.spmd() == committed["spmd"]


@pytest.mark.parametrize("name", ["table1", "synth-scale", "spmd-run"])
def test_counts_repeat_and_every_metric_is_emitted(traced, name):
    first, second = [ledger(raw) for raw in traced[name]]
    for raw in traced[name]:
        assert raw["failed"] == 0, raw["errors"]
    # A fixed number of rounds, not a deadline: the op count repeats too.
    assert traced[name][0]["attempted"] == traced[name][1]["attempted"]
    assert set(first) == PER_LAYER
    assert first["bench.unattributed_pct"] < 5.0
    for metric in EXACT:
        assert first[metric] == second[metric], metric


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    return smoke_run("serve-mix", tmp_path_factory.mktemp("serve"))


def test_trace_has_a_span_for_every_layer(traced, served):
    names = set()
    for raw in [runs[0] for runs in traced.values()] + [served[1]]:
        names |= {s["name"] for s in read_jsonl(raw["trace_path"])}
    assert LAYER_SPANS | {"op"} <= names


def test_serve_mix_responses_equal_direct_rendering(served):
    workload, raw = served
    assert raw["failed"] == 0, raw["errors"]
    figures = ledger(raw)
    assert figures["serving.lru_hit_rate"] == (w.SERVE_HOT + w.SERVE_REPOST) / 20
    assert figures["serving.rejected"] == 0
    assert raw["peak_rss_mb"] > 0
    # The same check must catch a response that differs.
    label = next(iter(workload.responses))
    workload.committed[label] = "0" * 64
    assert workload.verify() == sum(workload.responses[label].values())


def test_a_wrong_expected_value_is_a_failed_op(tmp_path, monkeypatch):
    corrupted = w.load_expected()
    corrupted["table1"]["SOR"]["mpi"][1] += 8
    monkeypatch.setattr(w, "load_expected", lambda: corrupted)
    _, raw = smoke_run("table1", tmp_path, trace=False)
    assert raw["failed"] >= 1
    assert raw["failed"] / raw["attempted"] > 0


def test_run_prints_every_end_to_end_metric_with_its_unit(capsys):
    # Sized for no time at all: one round in each part.
    assert run.main(["--workload", "table1", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_repository(tmp_path):
    shutil.copy(w.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(w.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "table1",
         "--seed", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _record(workload, value, failed=0):
    metrics = {m["name"]: value for m in SPEC["end_to_end"]}
    return {"workload": workload, "trace": 0, "attempted": 100,
            "failed": failed, "metrics": metrics}


def _write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def test_compare_applies_the_bounds(tmp_path, capsys):
    base = _write(tmp_path / "a.jsonl", [_record("table1", 100 + i) for i in range(5)])
    same = _write(tmp_path / "b.jsonl", [_record("table1", 101 + i) for i in range(5)])
    assert compare.main([str(base), str(same)]) == 0
    # ops_per_s is higher-is-better, the rest lower-is-better.
    slower = _write(tmp_path / "c.jsonl", [_record("table1", 200 + i) for i in range(5)])
    assert compare.main([str(base), str(slower)]) == 1
    row = capsys.readouterr().out.splitlines()[-1]
    assert "ops_per_s +" in row and "latency_p50_ms -" in row and "REGRESSION" in row
    noisy = _write(tmp_path / "d.jsonl", [_record("table1", v) for v in (50, 90, 100, 110, 200)])
    assert compare.main([str(base), str(noisy)]) == 0
    assert "unresolved" in capsys.readouterr().out
    failing = _write(tmp_path / "e.jsonl", [_record("table1", 100 + i, failed=1) for i in range(5)])
    assert compare.main([str(base), str(failing)]) == 1
    assert "error_rate ROSE" in capsys.readouterr().out


def test_merge_checks_responses_against_another_parts_reference():
    def part(references, unchecked):
        return {"setup_s": 0.1, "peak_rss_mb": 1.0, "errors": [], "attempted": 3,
                "failed": 0, "wall_s": 1.0, "latencies": [], "traced": [],
                "references": references, "unchecked": unchecked}

    good = part({"c0-n1": "aa"}, {"c0-n2": {"bb": 3}})
    other = part({"c0-n2": "bb"}, {"c0-n1": {"aa": 2, "zz": 1}})
    assert run.merge([good, other])["failed"] == 1
    # A response no part rendered a reference for is a failed op.
    assert run.merge([good])["failed"] == 3


def test_ledger_self_time_subtracts_children():
    spans = [
        {"id": "1", "parent": None, "name": "op", "dur": 10.0, "attrs": {}},
        {"id": "2", "parent": "1", "name": "ir.parse", "dur": 6.0, "attrs": {}},
        {"id": "3", "parent": "1", "name": "cfg.icfg", "dur": 3.0, "attrs": {}},
    ]
    self_time = w.self_times(spans)
    assert self_time == {"op": 1.0, "ir.parse": 6.0, "cfg.icfg": 3.0}
    raw = {"attempted": 1, "failed": 0, "wall_s": 10.0, "latencies": [10.0],
           "traced": [10.0], "peak_rss_mb": 1.0, "counts": {"tokens": 30},
           "window": {}, "errors": [], "self_time": self_time}
    figures = ledger(raw)
    assert figures["ir.parse_pct"] == pytest.approx(60.0)
    assert figures["cfg.icfg_pct"] == pytest.approx(30.0)
    assert figures["bench.unattributed_pct"] == pytest.approx(10.0)
    assert figures["ir.tokens_per_s"] == pytest.approx(5.0)
    assert figures["bench.op_ms"] == pytest.approx(10_000.0)
