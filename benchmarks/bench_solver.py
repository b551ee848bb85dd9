"""E8 — §4.2/§4.3 solver engineering: round-robin vs SCC-priority
strategies, and scaling of the framework with program size.

``test_table1_speedup_json`` additionally races both strategies against
the frozen PR-0 solver (:mod:`benchmarks.seed_solver`) over the full
Table 1 suite, asserting bit-identical fixed points.  Running the file
as a script repeats that race and writes the machine-readable
``benchmarks/results/BENCH_solver.json`` (gated by
``check_regression.py``); the pytest run writes no JSON, so the suite
leaves the committed report untouched::

    PYTHONPATH=src python benchmarks/bench_solver.py
"""

import pathlib
import time

import pytest

from repro.analyses import MpiModel, activity_analysis, vary_analysis
from repro.analyses.useful import UsefulProblem
from repro.analyses.vary import VaryProblem
from repro.dataflow.solver import STRATEGIES, solve
from repro.ir import parse_program
from repro.mpi import build_mpi_icfg
from repro.programs import benchmark as get_spec
from repro.programs.registry import BENCHMARKS

try:  # package import (pytest) vs direct script execution
    from .conftest import write_artifact
    from .jsonreport import write_report
    from .seed_solver import seed_solve
except ImportError:  # pragma: no cover - script mode
    from conftest import write_artifact
    from jsonreport import write_report
    from seed_solver import seed_solve

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


@pytest.fixture(scope="module")
def lu_icfg():
    spec = get_spec("LU-2")
    icfg, _ = build_mpi_icfg(spec.program(), spec.root, clone_level=spec.clone_level)
    return spec, icfg


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_solver_strategy_timing(benchmark, lu_icfg, strategy):
    spec, icfg = lu_icfg
    result = benchmark(
        lambda: activity_analysis(
            icfg,
            spec.independents,
            spec.dependents,
            MpiModel.COMM_EDGES,
            strategy=strategy,
        )
    )
    assert result.active_bytes == spec.paper.mpi_active_bytes


def test_strategies_reach_identical_fixed_points(lu_icfg, results_dir):
    spec, icfg = lu_icfg
    rr = vary_analysis(icfg, spec.independents, MpiModel.COMM_EDGES, "roundrobin")
    pr = vary_analysis(icfg, spec.independents, MpiModel.COMM_EDGES, "priority")
    for nid in icfg.graph.nodes:
        assert rr.out_fact(nid) == pr.out_fact(nid)
    write_artifact(
        results_dir,
        "solver_strategies.txt",
        f"LU-2 Vary: roundrobin passes={rr.iterations} "
        f"(visits={rr.visits}), priority visits={pr.visits}\n"
        f"graph nodes={len(icfg.graph)}\n",
    )
    # SCC-priority draining visits fewer node evaluations than full
    # sweeps.
    assert pr.visits <= rr.visits


# -- Table 1 suite vs the frozen PR-0 solver ------------------------------

#: Best-of timing repetitions (min absorbs scheduler noise).
_REPS = 3


def _best_of(fn, reps=_REPS):
    best = None
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return best, result


def _set_problems(icfg, spec):
    return (
        ("vary", lambda: VaryProblem(icfg, spec.independents)),
        ("useful", lambda: UsefulProblem(icfg, spec.dependents)),
    )


def table1_speedups() -> dict:
    """Race both strategies against the seed solver on every Table 1
    benchmark, asserting bit-identical fixed points; the report that
    ``BENCH_solver.json`` records."""
    report = {
        "suite": "table1",
        "seed": {"solver": "benchmarks/seed_solver.py", "strategy": "roundrobin",
                 "backend": "native"},
        "timing_reps": _REPS,
        "benchmarks": [],
    }
    max_speedup = {"speedup": 0.0}
    for spec in BENCHMARKS.values():
        icfg, _ = build_mpi_icfg(
            spec.program(), spec.root, clone_level=spec.clone_level
        )
        entry, exit_ = icfg.entry_exit(icfg.root)
        graph = icfg.graph
        for analysis, make in _set_problems(icfg, spec):
            seed_s, seed_res = _best_of(
                lambda: seed_solve(graph, entry, exit_, make())
            )
            entry_row = {
                "name": spec.name,
                "analysis": analysis,
                "nodes": len(graph),
                "seed_ms": seed_s * 1e3,
                "seed_passes": seed_res.iterations,
                "configs": [],
            }
            for strategy in STRATEGIES:
                wall, res = _best_of(
                    lambda: solve(graph, entry, exit_, make(), strategy=strategy)
                )
                # ≥3× is worthless if the answer changed: the fixed
                # point must be bit-identical to the seed solver's.
                assert res.before == seed_res.before, (
                    spec.name, analysis, strategy)
                assert res.after == seed_res.after, (
                    spec.name, analysis, strategy)
                stats = res.stats
                config = {
                    "strategy": strategy,
                    "backend": stats.backend,
                    "ms": wall * 1e3,
                    "speedup": seed_s / wall,
                    "visits": stats.visits,
                    "transfers": stats.transfers,
                    "meets": stats.meets,
                    "comm_requeues": stats.comm_requeues,
                }
                entry_row["configs"].append(config)
                if config["speedup"] > max_speedup["speedup"]:
                    max_speedup = {
                        "name": spec.name,
                        "analysis": analysis,
                        **config,
                    }
            entry_row["best"] = max(
                entry_row["configs"], key=lambda c: c["speedup"]
            )
            report["benchmarks"].append(entry_row)
    report["max_speedup"] = max_speedup
    return report


def test_table1_speedup_json():
    report = table1_speedups()
    # The headline claim (≥3× on at least one set-based analysis) is
    # recorded in the JSON; asserting a softer floor here keeps the
    # suite robust on loaded CI machines while still catching real
    # performance regressions.
    assert report["max_speedup"]["speedup"] >= 1.5


def _chain_program(n_procs: int) -> str:
    """Synthetic program with a chain of n wrapper layers (scaling)."""
    parts = ["program scale;"]
    parts.append(
        "proc layer0(real v, int tag) {\n"
        "  call mpi_send(v, 1, tag, comm_world);\n"
        "  call mpi_recv(v, 0, tag, comm_world);\n"
        "}"
    )
    for i in range(1, n_procs):
        parts.append(
            f"proc layer{i}(real v, int tag) {{\n"
            f"  call layer{i - 1}(v, tag);\n"
            f"  v = v * 1.0001;\n"
            f"}}"
        )
    parts.append(
        "proc main(real x, real out) {\n"
        f"  call layer{n_procs - 1}(x, 5);\n"
        f"  call layer{n_procs - 1}(out, 6);\n"
        "  out = out + x;\n"
        "}"
    )
    return "\n".join(parts)


@pytest.mark.parametrize("depth", [4, 16, 64])
def test_scaling_with_wrapper_depth(benchmark, depth):
    prog = parse_program(_chain_program(depth))
    icfg, _ = build_mpi_icfg(prog, "main", clone_level=0)
    result = benchmark(
        lambda: vary_analysis(icfg, ["x"], MpiModel.COMM_EDGES, strategy="priority")
    )
    assert result.visits > 0


@pytest.mark.parametrize("level", [0, 2, 8])
def test_scaling_with_clone_level(benchmark, level):
    prog = parse_program(_chain_program(10))
    icfg, _ = build_mpi_icfg(prog, "main", clone_level=level)
    benchmark.pedantic(
        lambda: vary_analysis(icfg, ["x"], MpiModel.COMM_EDGES),
        rounds=2,
        iterations=1,
    )


if __name__ == "__main__":
    out = write_report(RESULTS_DIR / "BENCH_solver.json", table1_speedups())
    print(f"wrote {out}")
