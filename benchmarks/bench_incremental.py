"""Edit→answer latency: cold re-solve vs incremental vs demand-driven.

Replays interactive mutation streams against the Table 1 LU/Sweep3d
benchmarks and times how quickly updated facts come back:

* ``single_stmt`` — one assignment's RHS is swapped for a literal and
  back, one solve per edit (the canonical editor keystroke);
* ``comm_match`` — a matched send→recv COMM edge is removed and
  restored (a communication count/tag edit that changes the match);
* ``proc_body``  — every assignment in the largest procedure is edited
  in one batch (a whole-body paste).

For every edit the incremental result is asserted equal to a cold
solve of the mutated graph, so the timings can never drift away from
correctness.  Demand-driven point queries are measured at an interior
MPI node and must visit strictly fewer nodes than the cold solve.

Writes ``benchmarks/results/BENCH_incremental.json`` (see
``check_regression.py``, which gates single-statement speedup ≥5× and
the demand visit reduction on a fresh run of this file)::

    PYTHONPATH=src python benchmarks/bench_incremental.py
    PYTHONPATH=src python benchmarks/bench_incremental.py --smoke
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import sys
import time

if __name__ == "__main__":  # allow running without PYTHONPATH=src
    _SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.analyses.useful import UsefulProblem
from repro.analyses.vary import VaryProblem
from repro.cfg.node import AssignNode, EdgeKind, MpiNode
from repro.dataflow.incremental import IncrementalSolver, solve_query
from repro.dataflow.solver import solve
from repro.ir import builder as b
from repro.mpi import build_mpi_icfg
from repro.programs import benchmark as get_spec

try:  # package import (pytest) vs direct script execution
    from .jsonreport import write_report
except ImportError:  # pragma: no cover - script mode
    from jsonreport import write_report

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
#: Best-of repetitions per stream (min absorbs scheduler noise).
_REPS = 3
_FULL_BENCHMARKS = ("LU-1", "Sw-3")
_SMOKE_BENCHMARKS = ("LU-1",)
COLD_STRATEGY = "priority"


def _assert_equal(incremental, cold, context):
    if incremental.before != cold.before or incremental.after != cold.after:
        raise AssertionError(f"incremental facts diverged from cold: {context}")


class _EditStream:
    """A reversible mutation stream over one graph.

    ``edits()`` yields ``apply`` thunks; each mutates the graph (bumping
    its version journal) and leaves it restorable — every stream visits
    a state and its exact inverse, so a full replay ends on the original
    program.
    """

    name = "stream"

    def __init__(self, graph):
        self.graph = graph

    def edits(self):  # pragma: no cover - abstract
        raise NotImplementedError


class SingleStmtStream(_EditStream):
    name = "single_stmt"

    def __init__(self, graph, limit=None):
        super().__init__(graph)
        self.assigns = sorted(
            n.id
            for n in (graph.node(i) for i in graph.nodes)
            if isinstance(n, AssignNode)
        )
        if limit:
            self.assigns = self.assigns[:limit]

    def edits(self):
        for k, nid in enumerate(self.assigns):
            node = self.graph.node(nid)
            original = node.value

            def swap(value=b.lit(float(k)), node=node, nid=nid):
                node.value = value
                self.graph.touch_node(nid)

            def restore(node=node, nid=nid, original=original):
                node.value = original
                self.graph.touch_node(nid)

            yield swap
            yield restore


class CommMatchStream(_EditStream):
    name = "comm_match"

    def __init__(self, graph, limit=None):
        super().__init__(graph)
        self.comm_edges = [
            e for e in graph.edges() if e.kind is EdgeKind.COMM
        ][: limit or None]

    def edits(self):
        for edge in self.comm_edges:

            def drop(edge=edge):
                self.graph.remove_edge(edge)

            def readd(edge=edge):
                self.graph.add_edge(edge.src, edge.dst, edge.kind, edge.label)

            yield drop
            yield readd


class ProcBodyStream(_EditStream):
    name = "proc_body"

    def __init__(self, graph):
        super().__init__(graph)
        by_proc: dict[str, list[int]] = {}
        for nid in graph.nodes:
            node = graph.node(nid)
            if isinstance(node, AssignNode):
                by_proc.setdefault(node.proc, []).append(nid)
        self.body = sorted(max(by_proc.values(), key=len)) if by_proc else []

    def edits(self):
        if not self.body:
            return
        originals = {nid: self.graph.node(nid).value for nid in self.body}

        def rewrite():
            for nid in self.body:
                self.graph.node(nid).value = b.lit(0.0)
                self.graph.touch_node(nid)

        def restore():
            for nid in self.body:
                self.graph.node(nid).value = originals[nid]
                self.graph.touch_node(nid)

        yield rewrite
        yield restore


def _run_stream(stream, solver, graph, entry, exit_, factory, reps):
    """Replay ``stream`` ``reps`` times; returns the stream row.

    Each edit is solved twice — incrementally through the retained
    solver and cold on the mutated graph — timed separately, and the
    two fact sets are asserted identical edit by edit.
    """
    edits = list(stream.edits())
    if not edits:
        return None
    n = len(edits)
    # Per-edit best-of-reps: min per edit across replays absorbs
    # scheduler noise without letting one rep's outlier skew the rest.
    inc_edit = [float("inf")] * n
    cold_edit = [float("inf")] * n
    dirty: list[int] = []
    visits: list[int] = []
    for _ in range(reps):
        dirty = []
        visits = []
        for i, apply_edit in enumerate(edits):
            apply_edit()
            t0 = time.perf_counter()
            inc_result = solver.solve()
            inc_edit[i] = min(inc_edit[i], time.perf_counter() - t0)
            t0 = time.perf_counter()
            cold_result = solve(
                graph, entry, exit_, factory(), strategy=COLD_STRATEGY
            )
            cold_edit[i] = min(cold_edit[i], time.perf_counter() - t0)
            _assert_equal(
                inc_result, cold_result, f"{stream.name} edit {i}"
            )
            dirty.append(solver.last_dirty)
            visits.append(inc_result.visits)
    inc_med = statistics.median(inc_edit)
    cold_med = statistics.median(cold_edit)
    return {
        "edits": n,
        "cold_ms_per_edit": sum(cold_edit) / n * 1e3,
        "incremental_ms_per_edit": sum(inc_edit) / n * 1e3,
        "speedup": sum(cold_edit) / sum(inc_edit) if sum(inc_edit) else 0.0,
        "cold_ms_median": cold_med * 1e3,
        "incremental_ms_median": inc_med * 1e3,
        "median_speedup": cold_med / inc_med if inc_med else 0.0,
        "mean_dirty_nodes": statistics.fmean(dirty),
        "mean_visits": statistics.fmean(visits),
    }


def _query_point(graph, direction_forward):
    """An interior MPI node: its dependency slice is a proper subset of
    the graph, so the demand solve has room to win."""
    mpi = sorted(
        n.id for n in (graph.node(i) for i in graph.nodes)
        if isinstance(n, MpiNode)
    )
    if not mpi:
        return None
    return mpi[0] if direction_forward else mpi[-1]


def _run_demand(icfg, entry, exit_, factory, fact, reps):
    graph = icfg.graph
    probe = factory()
    from repro.dataflow.framework import Direction

    node = _query_point(graph, probe.direction is Direction.FORWARD)
    if node is None:
        return None
    q_s, query = None, None
    for _ in range(reps):
        t0 = time.perf_counter()
        query = solve_query(graph, entry, exit_, factory(), node, fact)
        dt = time.perf_counter() - t0
        if q_s is None or dt < q_s:
            q_s = dt
    cold_s, cold = None, None
    for _ in range(reps):
        t0 = time.perf_counter()
        cold = solve(graph, entry, exit_, factory(), strategy=COLD_STRATEGY)
        dt = time.perf_counter() - t0
        if cold_s is None or dt < cold_s:
            cold_s = dt
    if query.before != cold.before[node] or query.after != cold.after[node]:
        raise AssertionError(f"demand query diverged from cold at node {node}")
    return {
        "query_node": node,
        "fact": fact,
        "contains": query.contains,
        "visits": query.visits,
        "cold_visits": cold.visits,
        "slice_nodes": query.slice_nodes,
        "total_nodes": query.total_nodes,
        "query_ms": q_s * 1e3,
        "cold_ms": cold_s * 1e3,
        "speedup": cold_s / q_s if q_s else 0.0,
    }


def run(mode: str) -> dict:
    smoke = mode == "smoke"
    reps = 1 if smoke else _REPS
    names = _SMOKE_BENCHMARKS if smoke else _FULL_BENCHMARKS
    report = {
        "suite": "incremental",
        "mode": mode,
        "timing_reps": reps,
        "cold_strategy": COLD_STRATEGY,
        "benchmarks": [],
    }
    for name in names:
        spec = get_spec(name)
        icfg, _ = build_mpi_icfg(
            spec.program(), spec.root, clone_level=spec.clone_level
        )
        entry, exit_ = icfg.entry_exit(icfg.root)
        graph = icfg.graph
        analyses = [
            ("vary", spec.independents[0],
             lambda: VaryProblem(icfg, spec.independents)),
        ]
        if not smoke:
            analyses.append(
                ("useful", spec.dependents[0],
                 lambda: UsefulProblem(icfg, spec.dependents))
            )
        for analysis, fact, factory in analyses:
            solver = IncrementalSolver(graph, entry, exit_, factory)
            solver.solve()  # converge once; streams start warm
            streams = [
                SingleStmtStream(graph, limit=4 if smoke else None),
                CommMatchStream(graph, limit=1 if smoke else 4),
                ProcBodyStream(graph),
            ]
            row = {
                "name": name,
                "analysis": analysis,
                "backend": solver.backend,
                "nodes": len(graph),
                "streams": {},
            }
            for stream in streams:
                stats = _run_stream(
                    stream, solver, graph, entry, exit_, factory, reps
                )
                if stats is not None:
                    row["streams"][stream.name] = stats
            row["demand"] = _run_demand(
                icfg, entry, exit_, factory, fact, reps
            )
            report["benchmarks"].append(row)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fast configuration (CI smoke)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path,
        default=RESULTS_DIR / "BENCH_incremental.json",
        help="output JSON path (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    report = run("smoke" if args.smoke else "full")
    write_report(args.out, report)
    for row in report["benchmarks"]:
        single = row["streams"].get("single_stmt")
        demand = row["demand"]
        print(
            f"{row['name']:6s} {row['analysis']:7s} {row['backend']:6s} "
            f"single_stmt mean {single['speedup']:5.1f}x "
            f"median {single['median_speedup']:5.1f}x "
            f"({single['incremental_ms_median']:.3f}ms vs "
            f"{single['cold_ms_median']:.3f}ms cold)  "
            f"demand visits {demand['visits']}/{demand['cold_visits']}"
            if single and demand else f"{row['name']} {row['analysis']}: partial"
        )
    print(f"[artifact] {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
