"""Frozen copy of the seed solver's round-robin strategy.

The solver this repository seeded with: per-visit `flow_in`/`flow_out`
adjacency filtering, facts in the problem's own representation
(frozensets for set problems), no transfer short-circuit.  It has two
jobs:

* the correctness reference — the tests compare the live solver, which
  runs set problems on bitset facts, against this plain frozenset
  fixed point (`tests/test_solver_equivalence.py`,
  `tests/test_kernel_equivalence.py`, `tests/test_incremental.py`, ...);
* the speed baseline — `benchmarks/bench_solver.py` and
  `check_regression.py` time the live engine against it, so the
  speedups in `BENCH_solver.json` are an apples-to-apples "vs. the
  seed solver" comparison.

Keep it frozen (the seed's worklist strategy was dropped when the live
solver retired it); do not import this module from `src/`.
"""

from __future__ import annotations

from typing import Optional, TypeVar

from repro.cfg.graph import FlowGraph
from repro.dataflow.framework import DataFlowProblem, DataflowResult, Direction

__all__ = ["seed_solve"]

F = TypeVar("F")
C = TypeVar("C")

#: Hard cap on round-robin passes; hitting it
#: indicates a non-monotone transfer function (a bug), not a big input.
MAX_PASSES = 10_000


class SolverError(RuntimeError):
    """Fixed point not reached within the safety bound."""


class _Engine:
    """Direction-agnostic view of the graph plus fact storage."""

    def __init__(
        self,
        graph: FlowGraph,
        entries: list[int],
        exits: list[int],
        problem: DataFlowProblem,
    ):
        self.graph = graph
        self.problem = problem
        forward = problem.direction is Direction.FORWARD
        self.forward = forward
        self.boundary_nodes = frozenset(entries if forward else exits)
        self.before: dict[int, F] = {}
        self.after: dict[int, F] = {}
        top = problem.top()
        for nid in graph.nodes:
            self.before[nid] = top
            self.after[nid] = top
        self.order = self._node_order(entries)
        self.use_comm = problem.has_comm()

    def _node_order(self, entries: list[int]) -> list[int]:
        order = self.graph.reverse_postorder(entries)
        if not self.forward:
            order = list(reversed(order))
        return order

    # -- direction-sensitive adjacency ------------------------------------

    def upstream_edges(self, nid: int):
        return self.graph.flow_in(nid) if self.forward else self.graph.flow_out(nid)

    def upstream_node(self, edge) -> int:
        return edge.src if self.forward else edge.dst

    def comm_upstream(self, nid: int) -> list[int]:
        if self.forward:
            return self.graph.comm_preds(nid)
        return self.graph.comm_succs(nid)

    # -- the fixed-point equations ------------------------------------------

    def compute_before(self, nid: int) -> F:
        problem = self.problem
        fact = problem.boundary() if nid in self.boundary_nodes else problem.top()
        for edge in self.upstream_edges(nid):
            neighbor = self.upstream_node(edge)
            mapped = problem.edge_fact(edge, self.after[neighbor])
            fact = problem.meet(fact, mapped)
        return fact

    def compute_comm(self, nid: int) -> Optional[C]:
        if not self.use_comm:
            return None
        sources = self.comm_upstream(nid)
        if not sources:
            return None
        values = [
            self.problem.comm_value(self.graph.node(q), self.before[q])
            for q in sources
        ]
        return self.problem.comm_meet(values)

    def update(self, nid: int) -> tuple[bool, bool]:
        """Recompute node ``nid``; returns (before_changed, after_changed)."""
        problem = self.problem
        new_before = self.compute_before(nid)
        before_changed = not problem.eq(new_before, self.before[nid])
        if before_changed:
            self.before[nid] = new_before
        comm = self.compute_comm(nid)
        new_after = problem.transfer(self.graph.node(nid), self.before[nid], comm)
        after_changed = not problem.eq(new_after, self.after[nid])
        if after_changed:
            self.after[nid] = new_after
        return before_changed, after_changed


def _solve_roundrobin(engine: _Engine) -> tuple[int, int]:
    passes = 0
    visits = 0
    changed = True
    while changed:
        changed = False
        passes += 1
        if passes > MAX_PASSES:
            raise SolverError(
                f"{engine.problem.name}: no fixed point after {MAX_PASSES} passes"
            )
        for nid in engine.order:
            visits += 1
            before_changed, after_changed = engine.update(nid)
            if before_changed or after_changed:
                changed = True
    return passes, visits


def seed_solve(
    graph: FlowGraph,
    entry: int | list[int],
    exit_: int | list[int],
    problem: DataFlowProblem,
) -> DataflowResult:
    """Run ``problem`` to a fixed point over ``graph`` by round-robin
    passes.

    ``entry``/``exit_`` are the root procedure's ENTRY and EXIT node
    ids (the analysis boundary); the two-copy baseline passes lists —
    one entry/exit per process copy.
    """
    entries = [entry] if isinstance(entry, int) else list(entry)
    exits = [exit_] if isinstance(exit_, int) else list(exit_)
    engine = _Engine(graph, entries, exits, problem)
    passes, visits = _solve_roundrobin(engine)
    return DataflowResult(
        problem_name=problem.name,
        direction=problem.direction,
        before=engine.before,
        after=engine.after,
        iterations=passes,
        visits=visits,
        solver="roundrobin",
    )
