"""Iterative solvers for :class:`~repro.dataflow.framework.DataFlowProblem`.

Two strategies over the same fixed-point equations:

* ``"roundrobin"`` — full passes over the graph in (reverse) reverse
  postorder until nothing changes.  The pass count is directly
  comparable to the paper's Table 1 ``Iter`` column.
* ``"priority"`` — SCC-condensation worklist: Tarjan's algorithm over
  the direction-oriented flow *and* communication edges condenses the
  graph into strongly connected components, nodes are ranked by the
  condensation's topological order (reverse postorder within each
  component), and a min-heap drains pending work in rank order.  Inner
  loops therefore iterate to their local fixed point before downstream
  regions are touched, instead of re-visiting downstream nodes once
  per upstream lattice step.  When the *before* fact of a
  communication source changes, its communication successors are
  re-queued (their transfer consumes ``f_comm(before(source))``).

Both strategies handle COMM edges per the paper: data-flow information
crosses a communication edge only as the analysis-specific
communication value, never as the full node fact.

Fact representation
-------------------
The problem's lattice type decides how facts are carried.  Problems
that subclass :class:`~repro.dataflow.bitset.BitsetFacts` (set facts,
union meet) are wrapped in a
:class:`~repro.dataflow.bitset.BitsetAdapter` so meets and equality
run as Python-int bitwise ops; the fixed point is decoded back to
``frozenset``s.  Every other problem (reaching constants, bitwidth)
runs on its own fact type.  ``SolverStats.backend`` reports which path
ran (``"bitset"`` or ``"native"``).

The engine precomputes direction-split flow and communication
adjacency once per solve, so the inner loop never re-filters the
graph's edge lists.
"""

from __future__ import annotations

import heapq
import time
import weakref
from typing import Iterable, Optional, TypeVar

from ..cfg.graph import FlowGraph
from ..cfg.node import EdgeKind
from ..obs import get_metrics, get_tracer
from ..obs.convergence import ConvergenceRecorder
from ..obs.provenance import ProvenanceRecorder
from .bitset import BitsetAdapter, BitsetFacts, FactUniverse
from .framework import DataFlowProblem, DataflowResult, Direction, SolverStats

__all__ = ["solve", "SolverError", "STRATEGIES", "uses_bitset"]

#: Fixed bucket edges for the ``repro.solve.passes`` / ``.visits``
#: histograms (no wall-clock dependence — snapshots are reproducible).
PASS_BUCKETS = (1, 2, 4, 8, 16, 32, 64)
VISIT_BUCKETS = (10, 100, 1_000, 10_000, 100_000, 1_000_000)

F = TypeVar("F")
C = TypeVar("C")

#: Hard cap on round-robin passes / priority visits per node; hitting it
#: indicates a non-monotone transfer function (a bug), not a big input.
MAX_PASSES = 10_000

STRATEGIES = ("roundrobin", "priority")


def uses_bitset(problem: DataFlowProblem) -> bool:
    """Whether ``problem`` runs on int bitmask facts: exactly the
    problems that declare set-lattice semantics via
    :class:`~repro.dataflow.bitset.BitsetFacts`."""
    return isinstance(problem, BitsetFacts)


class SolverError(RuntimeError):
    """Fixed point not reached within the safety bound."""


#: "This node's transfer has never been evaluated" marker for the
#: update short-circuit (``None`` is a legitimate comm value).
_NEVER = object()


class _GraphView:
    """Direction-oriented adjacency snapshot of one :class:`FlowGraph`.

    Building these per solve dominates wall time on Table-1-sized
    graphs, so views are cached per ``(graph, direction)`` keyed on the
    graph's mutation :attr:`~repro.cfg.graph.FlowGraph.version` — every
    solve on an unmutated graph (e.g. Vary then Useful in an activity
    analysis) shares the same snapshot, including the Tarjan SCC
    decomposition the ``"priority"`` strategy ranks from.
    """

    __slots__ = (
        "upstream",
        "flow_upstream",
        "nonflow_upstream",
        "downstream",
        "comm_upstream",
        "comm_downstream",
        "sccs",
    )

    def __init__(self, graph: FlowGraph, forward: bool):
        upstream: dict[int, list] = {nid: [] for nid in graph.nodes}
        flow_up: dict[int, list] = {nid: [] for nid in graph.nodes}
        nonflow_up: dict[int, list] = {nid: [] for nid in graph.nodes}
        downstream: dict[int, list] = {nid: [] for nid in graph.nodes}
        comm_up: dict[int, list] = {nid: [] for nid in graph.nodes}
        comm_down: dict[int, list] = {nid: [] for nid in graph.nodes}
        for edge in graph.edges():
            src, dst = (edge.src, edge.dst) if forward else (edge.dst, edge.src)
            if edge.kind is EdgeKind.COMM:
                comm_up[dst].append(src)
                comm_down[src].append(dst)
            else:
                upstream[dst].append((edge, src))
                downstream[src].append(dst)
                if edge.kind is EdgeKind.FLOW:
                    flow_up[dst].append(src)
                else:
                    nonflow_up[dst].append((edge, src))
        self.upstream = {n: tuple(v) for n, v in upstream.items()}
        self.flow_upstream = {n: tuple(v) for n, v in flow_up.items()}
        self.nonflow_upstream = {n: tuple(v) for n, v in nonflow_up.items()}
        self.downstream = {n: tuple(v) for n, v in downstream.items()}
        self.comm_upstream = {n: tuple(v) for n, v in comm_up.items()}
        self.comm_downstream = {n: tuple(v) for n, v in comm_down.items()}
        #: Lazily filled by the first priority-strategy solve.
        self.sccs: Optional[list[list[int]]] = None


#: graph -> {"version": int, True: forward view, False: backward view}
_VIEW_CACHE: "weakref.WeakKeyDictionary[FlowGraph, dict]" = (
    weakref.WeakKeyDictionary()
)


def _graph_view(graph: FlowGraph, forward: bool) -> _GraphView:
    entry = _VIEW_CACHE.get(graph)
    version = graph.version
    if entry is None or entry["version"] != version:
        entry = {"version": version, True: None, False: None}
        _VIEW_CACHE[graph] = entry
    view = entry[forward]
    if view is None:
        view = _GraphView(graph, forward)
        entry[forward] = view
    return view


class _Engine:
    """Direction-agnostic view of the graph plus fact storage.

    All adjacency is resolved once at construction into per-node
    tuples oriented along the analysis direction:

    * ``upstream[n]``  — ``(edge, neighbour)`` pairs whose mapped
      *after* facts meet into ``before(n)``;
    * ``downstream[n]`` — nodes whose *before* depends on ``after(n)``;
    * ``comm_upstream[n]`` / ``comm_downstream[n]`` — communication
      sources feeding ``n`` / targets fed by ``n``.
    """

    def __init__(
        self,
        graph: FlowGraph,
        entries: list[int],
        exits: list[int],
        problem: DataFlowProblem,
        recorder: Optional[ConvergenceRecorder] = None,
        provenance: Optional[ProvenanceRecorder] = None,
        view: Optional[_GraphView] = None,
    ):
        self.graph = graph
        #: Opt-in convergence provenance; the hot loop pays one
        #: attribute check when off.
        self.recorder = recorder
        #: Opt-in fact provenance; same single-check discipline.
        self.provenance = provenance
        self.nodes = graph.nodes
        self.problem = problem
        forward = problem.direction is Direction.FORWARD
        self.forward = forward
        self.boundary_nodes = frozenset(entries if forward else exits)
        self.top_fact = problem.top()
        self.boundary_fact = problem.boundary()
        self.before: dict[int, F] = dict.fromkeys(graph.nodes, self.top_fact)
        self.after: dict[int, F] = dict.fromkeys(graph.nodes, self.top_fact)
        self.order = self._node_order(entries)
        self.use_comm = problem.has_comm()
        # Last comm value each node's transfer was evaluated with —
        # lets update() skip the transfer when nothing changed.
        self._last_comm: dict[int, object] = {}
        # Counters harvested into SolverStats by solve().
        self.meets = 0
        self.transfers = 0
        self.comm_requeues = 0
        # -- direction-split adjacency (cached per graph version); an
        # injected view lets the incremental solver keep a privately
        # patched snapshot alive across graph mutations.
        if view is None:
            view = _graph_view(graph, forward)
        self.view = view
        self.upstream = view.upstream
        self.flow_upstream = view.flow_upstream
        self.nonflow_upstream = view.nonflow_upstream
        self.downstream = view.downstream
        self.comm_upstream = view.comm_upstream
        self.comm_downstream = view.comm_downstream
        # FLOW edge_fact is identity for declaring problems, and the
        # bitset adapter's facts are plain ints — both enable leaner
        # inner loops in update().
        self.flow_identity = getattr(problem, "flow_identity", False)
        self.int_facts = isinstance(problem, BitsetAdapter)

    def _node_order(self, entries: list[int]) -> list[int]:
        order = self.graph.reverse_postorder(entries)
        if not self.forward:
            order = list(reversed(order))
        return order

    # -- the fixed-point equations ------------------------------------------

    def compute_before(self, nid: int) -> F:
        """Meet of mapped upstream after facts (reference form; update()
        inlines specialised variants of this on its hot path)."""
        problem = self.problem
        fact = self.boundary_fact if nid in self.boundary_nodes else self.top_fact
        edges = self.upstream[nid]
        for edge, neighbor in edges:
            mapped = problem.edge_fact(edge, self.after[neighbor])
            fact = problem.meet(fact, mapped)
        self.meets += len(edges)
        return fact

    def update(self, nid: int) -> tuple[bool, bool]:
        """Recompute node ``nid``; returns (before_changed, after_changed)."""
        problem = self.problem
        before = self.before
        after = self.after
        fact = self.boundary_fact if nid in self.boundary_nodes else self.top_fact
        # -- before(nid): meet of mapped upstream after facts.  Three
        # specialisations of the same equation, leanest first: int
        # bitmask facts meet with `|=`; FLOW-identity problems skip the
        # edge_fact call on intraprocedural edges; the generic form
        # delegates everything to the problem.
        if self.int_facts and self.flow_identity:
            for m in self.flow_upstream[nid]:
                fact |= after[m]
            others = self.nonflow_upstream[nid]
            for edge, m in others:
                fact |= problem.edge_fact(edge, after[m])
            self.meets += len(self.flow_upstream[nid]) + len(others)
            before_changed = fact != before[nid]
        elif self.flow_identity:
            meet = problem.meet
            flow_ups = self.flow_upstream[nid]
            for m in flow_ups:
                fact = meet(fact, after[m])
            others = self.nonflow_upstream[nid]
            for edge, m in others:
                fact = meet(fact, problem.edge_fact(edge, after[m]))
            self.meets += len(flow_ups) + len(others)
            before_changed = not problem.eq(fact, before[nid])
        else:
            fact = self.compute_before(nid)
            before_changed = not problem.eq(fact, before[nid])
        if before_changed:
            before[nid] = fact
        # -- communication value (None when the node has no comm sources).
        comm = None
        if self.use_comm:
            sources = self.comm_upstream[nid]
            if sources:
                nodes = self.nodes
                comm = problem.comm_meet(
                    [
                        problem.comm_value(nodes[q], before[q])
                        for q in sources
                    ]
                )
        # Transfer functions are pure, so a node whose before fact and
        # comm value both match its previous evaluation cannot produce
        # a different after fact — skip the recomputation.
        last_comm = self._last_comm.get(nid, _NEVER)
        if not before_changed and last_comm is not _NEVER and comm == last_comm:
            if self.recorder is not None:
                self.recorder.visit(nid, False, False, after[nid])
            return False, False
        self._last_comm[nid] = comm
        new_after = problem.transfer(self.nodes[nid], before[nid], comm)
        self.transfers += 1
        if self.int_facts:
            after_changed = new_after != after[nid]
        else:
            after_changed = not problem.eq(new_after, after[nid])
        if after_changed:
            after[nid] = new_after
        if self.recorder is not None:
            self.recorder.visit(nid, before_changed, after_changed, after[nid])
        if self.provenance is not None and (before_changed or after_changed):
            self.provenance.record(nid, before[nid], after[nid], comm)
        return before_changed, after_changed

    # -- SCC priorities for the "priority" strategy --------------------------

    def priority_ranks(self) -> dict[int, int]:
        """Total order draining source SCCs before downstream ones.

        Tarjan over the *propagation* edges (direction-oriented flow
        plus communication) emits SCCs in reverse topological order of
        the condensation; ranks number them topologically, breaking
        ties within a component by reverse-postorder position.
        """
        sccs = self.view.sccs
        if sccs is None:
            downstream = self.downstream
            comm_down = self.comm_downstream
            sccs = _tarjan_sccs(
                self.order, lambda n: downstream[n] + comm_down[n]
            )
            self.view.sccs = sccs
        pos = {nid: i for i, nid in enumerate(self.order)}
        ranks: dict[int, int] = {}
        rank = 0
        for component in reversed(sccs):  # topological order
            for nid in sorted(component, key=pos.__getitem__):
                ranks[nid] = rank
                rank += 1
        return ranks


def _tarjan_sccs(nodes: Iterable[int], succs) -> list[list[int]]:
    """Iterative Tarjan; components are returned in reverse topological
    order of the condensation (callees/sinks first)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work: list[tuple[int, Iterable[int]]] = []
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work.append((root, iter(succs(root))))
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succs(w))))
                    advanced = True
                    break
                if w in on_stack:
                    if index[w] < low[v]:
                        low[v] = index[w]
            if not advanced:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        component.append(w)
                        if w == v:
                            break
                    components.append(component)
    return components


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
        if engine.recorder is not None:
            engine.recorder.next_pass()
        if engine.provenance is not None:
            engine.provenance.next_pass()
        for nid in engine.order:
            visits += 1
            before_changed, after_changed = engine.update(nid)
            if before_changed or after_changed:
                changed = True
    return passes, visits


def _solve_priority(engine: _Engine) -> tuple[int, int]:
    ranks = engine.priority_ranks()
    heap = [(ranks[nid], nid) for nid in engine.order]
    heapq.heapify(heap)
    queued = set(engine.order)
    visits = 0
    limit = MAX_PASSES * max(1, len(engine.graph))
    use_comm = engine.use_comm
    push = heapq.heappush
    while heap:
        _, nid = heapq.heappop(heap)
        if nid not in queued:
            continue  # stale heap entry
        queued.discard(nid)
        visits += 1
        if visits > limit:
            raise SolverError(
                f"{engine.problem.name}: priority worklist exceeded {limit} visits"
            )
        before_changed, after_changed = engine.update(nid)
        if after_changed:
            for t in engine.downstream[nid]:
                if t not in queued:
                    queued.add(t)
                    push(heap, (ranks[t], t))
        if use_comm and before_changed:
            for t in engine.comm_downstream[nid]:
                if t not in queued:
                    queued.add(t)
                    push(heap, (ranks[t], t))
                    engine.comm_requeues += 1
    return 0, visits


_STRATEGY_FNS = {
    "roundrobin": _solve_roundrobin,
    "priority": _solve_priority,
}


def solve(
    graph: FlowGraph,
    entry: int | list[int],
    exit_: int | list[int],
    problem: DataFlowProblem,
    strategy: str = "roundrobin",
    universe: Optional[FactUniverse] = None,
    record_convergence: bool = False,
    record_provenance: bool = False,
) -> DataflowResult:
    """Run ``problem`` to a fixed point over ``graph``.

    ``entry``/``exit_`` are the root procedure's ENTRY and EXIT node
    ids (the analysis boundary); the two-copy baseline passes lists —
    one entry/exit per process copy.  ``strategy`` is ``"roundrobin"``
    or ``"priority"``; both reach the same fixed point.  Problems that
    subclass :class:`~repro.dataflow.bitset.BitsetFacts` run on int
    bitmask facts (:func:`uses_bitset`); the returned facts are always
    in the problem's own representation.

    ``universe`` optionally supplies a shared
    :class:`~repro.dataflow.bitset.FactUniverse` for bitset problems,
    so related solves over the same variable population reuse one
    atom ↔ bit interning (ignored for other problems).

    ``record_convergence=True`` attaches a
    :class:`~repro.obs.convergence.ConvergenceTrace` to the result —
    per-node visit counts, fact growth, and stabilisation points (see
    :func:`repro.obs.render_convergence`); it does not change the
    fixed point.

    ``record_provenance=True`` attaches a
    :class:`~repro.obs.provenance.ProvenanceTrace` — per-node fact
    snapshots at every change, queryable with
    :func:`repro.obs.explain` for derivation chains.  When ``False``
    (the default) no recorder object is allocated and the hot loop
    pays a single ``is not None`` check, exactly like
    ``record_convergence``.
    """
    try:
        run = _STRATEGY_FNS[strategy]
    except KeyError:
        raise ValueError(
            f"unknown solver strategy {strategy!r}; expected one of {STRATEGIES}"
        ) from None
    use_bitset = uses_bitset(problem)
    entries = [entry] if isinstance(entry, int) else list(entry)
    exits = [exit_] if isinstance(exit_, int) else list(exit_)

    tracer = get_tracer()
    recorder = ConvergenceRecorder() if record_convergence else None
    prov = ProvenanceRecorder() if record_provenance else None
    with tracer.span(
        f"solve.{problem.name}",
        strategy=strategy,
        backend="bitset" if use_bitset else "native",
        nodes=len(graph),
    ):
        t0 = time.perf_counter()
        engine_problem = (
            BitsetAdapter(problem, universe=universe) if use_bitset else problem
        )
        engine = _Engine(
            graph,
            entries,
            exits,
            engine_problem,
            recorder=recorder,
            provenance=prov,
        )
        passes, visits = run(engine)
        before, after = engine.before, engine.after
        if use_bitset:
            before = engine_problem.decode_facts(before)
            after = engine_problem.decode_facts(after)
        wall = time.perf_counter() - t0

    stats = SolverStats(
        strategy=strategy,
        backend="bitset" if use_bitset else "native",
        passes=passes,
        visits=visits,
        meets=engine.meets,
        transfers=engine.transfers,
        comm_requeues=engine.comm_requeues,
        wall_time_s=wall,
        nodes=len(graph),
    )
    if tracer.enabled:
        registry = get_metrics()
        registry.counter("repro.solve.runs").inc()
        registry.counter("repro.solve.visits").inc(stats.visits)
        registry.counter("repro.solve.meets").inc(stats.meets)
        registry.counter("repro.solve.transfers").inc(stats.transfers)
        registry.counter("repro.solve.comm_requeues").inc(stats.comm_requeues)
        if passes:
            registry.histogram("repro.solve.passes", PASS_BUCKETS).observe(passes)
        registry.histogram("repro.solve.visits_per_run", VISIT_BUCKETS).observe(
            visits
        )
    return DataflowResult(
        problem_name=problem.name,
        direction=problem.direction,
        before=before,
        after=after,
        iterations=passes,
        visits=visits,
        solver=strategy,
        stats=stats,
        convergence=(
            recorder.finish(problem.name, strategy, problem.direction.value)
            if recorder is not None
            else None
        ),
        provenance=(
            prov.finish(
                problem=engine_problem,
                graph=graph,
                upstream=engine.upstream,
                comm_upstream=engine.comm_upstream,
                boundary_nodes=engine.boundary_nodes,
                boundary_fact=engine.boundary_fact,
                strategy=strategy,
                direction=problem.direction.value,
                name=problem.name,
                int_facts=engine.int_facts,
            )
            if prov is not None
            else None
        ),
    )
