"""Solver convergence provenance (opt-in per-iteration recording).

The paper's Table 1 compares fixed-point iteration counts over the
ICFG vs the MPI-ICFG; this module records *why* a solve took the
passes it did.  With ``solve(..., record_convergence=True)`` the
engine feeds every node visit to a :class:`ConvergenceRecorder`:
visits per node, fact-set growth at each change, and the
pass/visit at which each node last changed (its stabilisation point).
:func:`render_convergence` renders the per-node table used by
``repro trace --convergence`` to explain ICFG-vs-MPI-ICFG iteration
differences node by node.

Recording is off the hot path unless requested: the engine guards the
hook behind a single ``recorder is not None`` attribute check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "ConvergenceRecorder",
    "ConvergenceTrace",
    "NodeConvergence",
    "fact_size",
    "render_convergence",
]


def fact_size(fact: object) -> Optional[int]:
    """Cardinality of a fact when it has one.

    Bitset facts are plain ints (popcount); set-like facts use
    ``len``; anything else (constant environments report their binding
    count via ``len`` too) yields ``None`` when unsized.
    """
    if isinstance(fact, int):
        return fact.bit_count()
    try:
        return len(fact)  # type: ignore[arg-type]
    except TypeError:
        return None


@dataclass
class NodeConvergence:
    """Per-node solver history."""

    node: int
    visits: int = 0
    changes: int = 0
    #: Round-robin pass of the last after-fact change (0 = never changed).
    stabilized_pass: int = 0
    #: Global visit index of the last after-fact change.
    stabilized_visit: int = 0
    final_size: Optional[int] = None
    #: Fact sizes observed at each after-fact change (growth curve).
    growth: list[int] = field(default_factory=list)


@dataclass
class ConvergenceTrace:
    """One solve's convergence provenance."""

    problem: str
    strategy: str
    direction: str
    passes: int
    visits: int
    #: Nodes whose after fact changed, per round-robin pass (empty for
    #: the priority strategy, which has no pass structure).
    per_pass_changes: list[int]
    nodes: dict[int, NodeConvergence]

    @property
    def changed_nodes(self) -> int:
        return sum(1 for n in self.nodes.values() if n.changes)

    @property
    def last_stabilized_visit(self) -> int:
        return max((n.stabilized_visit for n in self.nodes.values()), default=0)


class ConvergenceRecorder:
    """Accumulates per-node visit/change history during one solve."""

    def __init__(self) -> None:
        self.nodes: dict[int, NodeConvergence] = {}
        self.visit_index = 0
        self.current_pass = 0
        self.per_pass_changes: list[int] = []

    def next_pass(self) -> None:
        """Round-robin pass boundary (the priority strategy never
        calls this; ``current_pass`` stays 0)."""
        self.current_pass += 1
        self.per_pass_changes.append(0)

    def visit(
        self, nid: int, before_changed: bool, after_changed: bool, after: object
    ) -> None:
        self.visit_index += 1
        rec = self.nodes.get(nid)
        if rec is None:
            rec = self.nodes[nid] = NodeConvergence(node=nid)
        rec.visits += 1
        size = fact_size(after)
        rec.final_size = size
        if after_changed:
            rec.changes += 1
            rec.stabilized_pass = self.current_pass
            rec.stabilized_visit = self.visit_index
            if size is not None:
                rec.growth.append(size)
            if self.per_pass_changes:
                self.per_pass_changes[-1] += 1

    def finish(self, problem: str, strategy: str, direction: str) -> ConvergenceTrace:
        return ConvergenceTrace(
            problem=problem,
            strategy=strategy,
            direction=direction,
            passes=self.current_pass,
            visits=self.visit_index,
            per_pass_changes=list(self.per_pass_changes),
            nodes=dict(self.nodes),
        )


def render_convergence(
    trace: ConvergenceTrace,
    graph=None,
    limit: Optional[int] = None,
    changed_only: bool = False,
) -> str:
    """Text convergence table for one solve.

    ``graph`` (a :class:`~repro.cfg.graph.FlowGraph`) supplies node
    labels when given; ``limit`` truncates to the latest-stabilising
    nodes; ``changed_only`` drops nodes whose fact never changed.
    """
    header = (
        f"convergence: {trace.problem} ({trace.direction}, {trace.strategy}) — "
        f"{trace.passes or '-'} passes, {trace.visits} visits, "
        f"{trace.changed_nodes}/{len(trace.nodes)} nodes changed"
    )
    lines = [header]
    if trace.per_pass_changes:
        curve = ", ".join(
            f"pass {i + 1}: {n}" for i, n in enumerate(trace.per_pass_changes)
        )
        lines.append(f"  changes per pass: {curve}")
    cols = (
        f"  {'node':>6s} {'visits':>6s} {'changes':>7s} {'stab@pass':>9s} "
        f"{'stab@visit':>10s} {'|fact|':>6s} {'growth':14s} label"
    )
    lines.append(cols)
    lines.append("  " + "-" * (len(cols) - 2))
    records = sorted(
        trace.nodes.values(),
        key=lambda r: (-r.stabilized_visit, r.node),
    )
    if changed_only:
        records = [r for r in records if r.changes]
    if limit is not None:
        records = records[:limit]
    for rec in records:
        label = ""
        if graph is not None and rec.node in graph.nodes:
            label = graph.nodes[rec.node].label()
            if len(label) > 40:
                label = label[:37] + "..."
        growth = "->".join(str(g) for g in rec.growth[-4:])
        size = "-" if rec.final_size is None else str(rec.final_size)
        lines.append(
            f"  {rec.node:>6d} {rec.visits:>6d} {rec.changes:>7d} "
            f"{rec.stabilized_pass:>9d} {rec.stabilized_visit:>10d} "
            f"{size:>6s} {growth:14s} {label}"
        )
    return "\n".join(lines)
