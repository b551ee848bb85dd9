"""Incremental re-solving and demand-driven point queries.

Interactive traffic has a different shape from batch Table-1 runs: a
client edits one statement (or one communication match) and immediately
asks for updated facts, or asks about a single program point without
caring about the rest of the graph.  Both are served here on top of the
stock solver engine.

Incremental re-solve (:class:`IncrementalSolver`)
-------------------------------------------------
The solver retains, across graph mutations, its converged engine state
(the before/after fact maps), a privately patched
:class:`~repro.dataflow.solver._GraphView` adjacency snapshot, and the
:class:`~repro.dataflow.bitset.FactUniverse` interning.  A re-solve
then costs only the *dirty cone*:

1. :meth:`FlowGraph.changes_since <repro.cfg.graph.FlowGraph.changes_since>`
   reports exactly which nodes/edges each version bump touched (the
   ``full=True`` ring-buffer sentinel falls back to a cold solve);
2. the SCC condensation of the *propagation* graph —
   direction-oriented flow plus communication edges, so it is the
   downstream condensation for forward problems and the upstream one
   for backward problems — is walked in topological order.  A
   component is re-evaluated only when an equation inside it changed
   (a touched payload, a churned edge endpoint) or when one of its
   inputs' facts *actually* changed; the edit's dirty cone therefore
   ends exactly where its deltas die out;
3. components upstream of the edit, and downstream ones its deltas
   never reach, keep their retained facts: their equations' inputs are
   final and unchanged, so the retained values remain the local least
   fixed point;
4. a re-evaluated *trivial* component (a single node not on a cycle)
   is finished by one transfer evaluation.  A *cyclic* component can
   sustain retracted facts around its own cycle, so unless the change
   set is additive-only (edges/nodes added, nothing removed or edited
   in place — the monotone case, where retained facts are a sound
   pre-fixpoint warm start) its members restart from the lattice
   bottom (``problem.top()``, the solver's "no information" seed) and
   a rank-ordered worklist restricted to the component drains it to
   its fixed point;
5. the whole-graph SCC ranks are cached across payload-only edits and
   recomputed once per structural change, and the returned result
   patches only re-evaluated nodes into the previously decoded fact
   maps.

The result is byte-identical to a cold solve on the mutated graph, for
bitset and generic problems alike (the shared universe keeps retained
bitmask facts valid; per-node transfer memos are dropped for payload
edits, and the whole problem is rebuilt via ``problem_factory`` when
CALL/RETURN structure — the interprocedural renaming tables — changes).

Demand-driven queries (:func:`solve_query`)
-------------------------------------------
A point query needs only the *dependency slice* of the queried node:
the transitive closure of the provenance engine's earliest-introduction
walk adjacency (:func:`repro.obs.provenance.upstream_closure`) — flow,
interprocedural, and matched send→recv COMM edges, all oriented
against the analysis direction.  The slice is upstream-closed, so the
ordinary fixed point restricted to it computes exactly the full
solve's facts at every slice node while visiting strictly fewer nodes
whenever the query point does not depend on the whole program.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Optional

from ..cfg.graph import FlowGraph, GraphChanges
from ..cfg.node import EdgeKind
from ..obs.provenance import upstream_closure
from .bitset import BitsetAdapter, FactUniverse
from .framework import (
    DataFlowProblem,
    DataflowResult,
    Direction,
    QueryResult,
    SolverStats,
)
from .solver import (
    MAX_PASSES,
    STRATEGIES,
    SolverError,
    _Engine,
    _GraphView,
    _STRATEGY_FNS,
    _tarjan_sccs,
    uses_bitset,
)

__all__ = ["IncrementalSolver", "solve_query"]

#: Edge kinds whose churn invalidates a problem's interprocedural
#: metadata (``InterprocMaps`` is built from call/return structure);
#: COMM and FLOW edges never do.
_INTERPROC_KINDS = frozenset(
    (EdgeKind.CALL, EdgeKind.RETURN, EdgeKind.CALL_TO_RETURN)
)


def _solve_region(
    engine: _Engine, region: set, ranks: Optional[dict[int, int]] = None
) -> int:
    """Drain the fixed point restricted to ``region``; returns visits.

    Rank order comes from a Tarjan condensation of the subgraph induced
    by ``region`` — exact for successor-closed regions (the incremental
    dirty cone) and a sound priority for upstream-closed ones (demand
    slices, where propagation out of the region is simply dropped:
    those facts cannot reach the region again, or they would be in it).
    A caller holding whole-graph ``ranks`` (any topological priority of
    the current structure) may pass them to skip the local Tarjan —
    ranks only schedule the drain, they never affect the fixed point.
    """
    if not region:
        return 0
    order = [nid for nid in engine.order if nid in region]
    if len(order) < len(region):
        known = set(order)
        order += sorted(nid for nid in region if nid not in known)
    down = engine.downstream
    comm_down = engine.comm_downstream
    use_comm = engine.use_comm

    if ranks is None:
        if use_comm:
            def succs(nid):
                return [t for t in down[nid] if t in region] + [
                    t for t in comm_down[nid] if t in region
                ]
        else:
            def succs(nid):
                return [t for t in down[nid] if t in region]

        pos = {nid: i for i, nid in enumerate(order)}
        ranks = {}
        rank = 0
        for component in reversed(_tarjan_sccs(order, succs)):
            for nid in sorted(component, key=pos.__getitem__):
                ranks[nid] = rank
                rank += 1
    heap = [(ranks[nid], nid) for nid in order]
    heapq.heapify(heap)
    queued = set(order)
    visits = 0
    limit = MAX_PASSES * len(region)
    push = heapq.heappush
    while heap:
        _, nid = heapq.heappop(heap)
        if nid not in queued:
            continue  # stale heap entry
        queued.discard(nid)
        visits += 1
        if visits > limit:
            raise SolverError(
                f"{engine.problem.name}: region worklist exceeded {limit} visits"
            )
        before_changed, after_changed = engine.update(nid)
        if after_changed:
            for t in down[nid]:
                if t in region and t not in queued:
                    queued.add(t)
                    push(heap, (ranks[t], t))
        if use_comm and before_changed:
            for t in comm_down[nid]:
                if t in region and t not in queued:
                    queued.add(t)
                    push(heap, (ranks[t], t))
                    engine.comm_requeues += 1
    return visits


def _self_loop(engine: _Engine, nid: int) -> bool:
    return nid in engine.downstream[nid] or (
        engine.use_comm and nid in engine.comm_downstream[nid]
    )


def _tuple_edit(items: tuple, value, add: bool) -> tuple:
    if add:
        return items + (value,)
    out = list(items)
    out.remove(value)  # ValueError here means journal and view diverged
    return tuple(out)


def _patch_view(view: _GraphView, changes: GraphChanges, forward: bool) -> None:
    """Apply a journalled change set to a retained adjacency snapshot."""
    for change in changes.entries:
        if change.kind == "touch-node":
            continue
        if change.kind == "add-node":
            nid = change.nodes[0]
            for adjacency in (
                view.upstream,
                view.flow_upstream,
                view.nonflow_upstream,
                view.downstream,
                view.comm_upstream,
                view.comm_downstream,
            ):
                adjacency.setdefault(nid, ())
            continue
        edge = change.edge
        src, dst = (edge.src, edge.dst) if forward else (edge.dst, edge.src)
        add = change.kind == "add-edge"
        if edge.kind is EdgeKind.COMM:
            view.comm_upstream[dst] = _tuple_edit(view.comm_upstream[dst], src, add)
            view.comm_downstream[src] = _tuple_edit(
                view.comm_downstream[src], dst, add
            )
            continue
        view.upstream[dst] = _tuple_edit(view.upstream[dst], (edge, src), add)
        view.downstream[src] = _tuple_edit(view.downstream[src], dst, add)
        if edge.kind is EdgeKind.FLOW:
            view.flow_upstream[dst] = _tuple_edit(
                view.flow_upstream[dst], src, add
            )
        else:
            view.nonflow_upstream[dst] = _tuple_edit(
                view.nonflow_upstream[dst], (edge, src), add
            )
    if any(c.kind != "touch-node" for c in changes.entries):
        view.sccs = None  # condensation is structural; payload edits keep it


def _drop_stale_memos(adapter: BitsetAdapter, changes: GraphChanges) -> None:
    """Invalidate bitset memo entries a change set made unsound.

    Transfer/comm memos are keyed by node id — drop the payload-edited
    nodes' entries.  Edge memos are keyed by ``id(edge)``, which a
    freed edge's successor may reuse, so any edge churn clears them
    wholesale (they are cheap to refill).
    """
    touched = changes.payload_nodes
    if touched:
        adapter._transfer_cache = {
            k: v for k, v in adapter._transfer_cache.items() if k[0] not in touched
        }
        adapter._comm_cache = {
            k: v for k, v in adapter._comm_cache.items() if k[0] not in touched
        }
    if changes.added_edges or changes.removed_edges:
        adapter._edge_cache = {}


class IncrementalSolver:
    """Retained-state solver answering edits with dirty-cone re-solves.

    ``problem_factory`` must build equivalent problems (same analysis,
    same seeds) over the *current* graph each time it is called; it
    runs once up front and again only when CALL/RETURN structure
    changes.  ``strategy`` drives cold solves; incremental re-solves
    always use the rank-ordered region worklist — the fixed point is
    strategy-independent, so results stay byte-identical to any cold
    strategy.

    After each :meth:`solve`, ``last_mode`` reports what happened
    (``"cold"``, ``"unchanged"``, ``"warm"`` additive re-seed, or
    ``"reset"`` retraction fallback) and ``last_dirty`` how many nodes
    were re-solved.
    """

    def __init__(
        self,
        graph: FlowGraph,
        entry,
        exit_,
        problem_factory: Callable[[], DataFlowProblem],
        strategy: str = "priority",
        universe: Optional[FactUniverse] = None,
    ):
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown solver strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        self.graph = graph
        self.entries = [entry] if isinstance(entry, int) else list(entry)
        self.exits = [exit_] if isinstance(exit_, int) else list(exit_)
        self.problem_factory = problem_factory
        self.strategy = strategy
        probe = problem_factory()
        self.use_bitset = uses_bitset(probe)
        self.universe = (
            universe
            if universe is not None
            else (FactUniverse() if self.use_bitset else None)
        )
        self._probe: Optional[DataFlowProblem] = probe
        self._engine: Optional[_Engine] = None
        self._version = -1
        self._result: Optional[DataflowResult] = None
        #: Whole-graph priority ranks, valid while structure is stable
        #: (payload touches never invalidate them).
        self._ranks: Optional[dict[int, int]] = None
        #: Raw bitmask snapshot behind the last decoded result — a
        #: re-evaluated node whose mask settles back to its old value
        #: reuses the already decoded frozenset.
        self._raw_before: dict = {}
        self._raw_after: dict = {}
        self.last_mode = "cold"
        self.last_dirty = 0

    # -- public API ---------------------------------------------------------

    @property
    def backend(self) -> str:
        return "bitset" if self.use_bitset else "native"

    def solve(self) -> DataflowResult:
        """Facts for the graph's current version (cold or incremental)."""
        if self._engine is None:
            return self._cold_solve()
        changes = self.graph.changes_since(self._version)
        if changes.empty:
            self.last_mode = "unchanged"
            self.last_dirty = 0
            return self._result
        if changes.full:
            return self._cold_solve()
        return self._resolve(changes)

    # -- internals ----------------------------------------------------------

    def _wrap(self, inner: DataFlowProblem) -> DataFlowProblem:
        if not self.use_bitset:
            return inner
        return BitsetAdapter(inner, universe=self.universe)

    def _cold_solve(self) -> DataflowResult:
        t0 = time.perf_counter()
        inner = self._probe if self._probe is not None else self.problem_factory()
        self._probe = None
        problem = self._wrap(inner)
        forward = problem.direction is Direction.FORWARD
        # A private view: it will be patched in place across mutations,
        # so it must not be shared through the solver's version-keyed
        # view cache.
        view = _GraphView(self.graph, forward)
        engine = _Engine(self.graph, self.entries, self.exits, problem, view=view)
        passes, visits = _STRATEGY_FNS[self.strategy](engine)
        self._engine = engine
        self._version = self.graph.version
        # Free with the priority strategy (the drain filled view.sccs);
        # one Tarjan otherwise — amortised across every later edit.
        self._ranks = engine.priority_ranks()
        self.last_mode = "cold"
        self.last_dirty = len(self.graph)
        self._result = self._build_result(passes, visits, time.perf_counter() - t0)
        return self._result

    def _resolve(self, changes: GraphChanges) -> DataflowResult:
        t0 = time.perf_counter()
        engine = self._engine
        interproc_churn = any(
            c.edge is not None and c.edge.kind in _INTERPROC_KINDS
            for c in changes.entries
        )
        if interproc_churn:
            engine.problem = self._wrap(self.problem_factory())
        elif self.use_bitset:
            _drop_stale_memos(engine.problem, changes)
        structural = any(c.kind != "touch-node" for c in changes.entries)
        _patch_view(engine.view, changes, engine.forward)
        top = engine.top_fact
        if structural:
            self._ranks = None
            for nid in sorted(changes.added_nodes):
                engine.before.setdefault(nid, top)
                engine.after.setdefault(nid, top)
                engine.order.append(nid)
        ranks = self._ranks
        if ranks is None:
            # Rebuilds view.sccs too (cleared by the structural patch).
            ranks = self._ranks = engine.priority_ranks()
        # update() may skip the transfer when a node's inputs are
        # unchanged — unsound exactly where the *equation* changed
        # (payload edits; interprocedural renames at churned edges), so
        # force those nodes' next evaluation through the transfer.
        eq_changed = changes.touched_nodes
        last_comm = engine._last_comm
        for nid in eq_changed:
            last_comm.pop(nid, None)

        # -- delta-driven scan over the condensation in topological
        # order.  An SCC is re-evaluated only when an equation inside it
        # changed or one of its inputs' facts actually changed; the
        # edit's effect stops propagating the moment its deltas die out.
        additive = changes.additive_only
        self.last_mode = "warm" if additive else "reset"
        before, after = engine.before, engine.after
        upstream = engine.upstream
        comm_up = engine.comm_upstream
        use_comm = engine.use_comm
        if engine.int_facts:
            same = lambda a, b: a == b  # noqa: E731
        else:
            same = engine.problem.eq
        after_delta: set = set()
        before_delta: set = set()
        processed: set = set()
        visits = 0
        engine.meets = engine.transfers = engine.comm_requeues = 0
        for members in reversed(engine.view.sccs):
            triggered = False
            for n in members:
                if n in eq_changed:
                    triggered = True
                    break
                for pair in upstream[n]:
                    if pair[1] in after_delta:
                        triggered = True
                        break
                if triggered:
                    break
                if use_comm:
                    for q in comm_up[n]:
                        if q in before_delta:
                            triggered = True
                            break
                    if triggered:
                        break
            if not triggered:
                continue
            old = {n: (before[n], after[n]) for n in members}
            processed.update(members)
            if len(members) == 1 and not _self_loop(engine, members[0]):
                # Trivial component with final inputs: one evaluation
                # is the local fixed point.
                engine.update(members[0])
                visits += 1
            else:
                # Cyclic component: facts can sustain themselves around
                # the cycle, so a retraction must restart its members
                # from bottom; additive-only changes keep the retained
                # facts as a sound (pre-fixpoint) warm start.
                if not additive:
                    for n in members:
                        before[n] = top
                        after[n] = top
                        last_comm.pop(n, None)
                visits += _solve_region(engine, set(members), ranks)
            for n in members:
                old_before, old_after = old[n]
                if not same(after[n], old_after):
                    after_delta.add(n)
                if not same(before[n], old_before):
                    before_delta.add(n)
        self._version = self.graph.version
        self.last_dirty = len(processed)
        self._result = self._build_result(
            0, visits, time.perf_counter() - t0, dirty=processed
        )
        return self._result

    def _build_result(
        self,
        passes: int,
        visits: int,
        wall: float,
        dirty: Optional[set] = None,
    ) -> DataflowResult:
        engine = self._engine
        problem = engine.problem
        prev = self._result
        if dirty is not None and prev is not None:
            # Only re-evaluated facts can differ from the retained
            # result — patch those entries instead of re-decoding the
            # graph, and skip even the decode when a node's mask
            # settled back to its previous value.
            before = dict(prev.before)
            after = dict(prev.after)
            raw_before, raw_after = engine.before, engine.after
            if self.use_bitset:
                decode = problem.universe.decode
                snap_before, snap_after = self._raw_before, self._raw_after
                for nid in dirty:
                    mask = raw_before[nid]
                    if snap_before.get(nid) != mask:
                        snap_before[nid] = mask
                        before[nid] = decode(mask)
                    mask = raw_after[nid]
                    if snap_after.get(nid) != mask:
                        snap_after[nid] = mask
                        after[nid] = decode(mask)
            else:
                for nid in dirty:
                    before[nid] = raw_before[nid]
                    after[nid] = raw_after[nid]
        else:
            before = dict(engine.before)
            after = dict(engine.after)
            if self.use_bitset:
                self._raw_before = dict(before)
                self._raw_after = dict(after)
                before = problem.decode_facts(before)
                after = problem.decode_facts(after)
        solver_name = self.strategy if self.last_mode == "cold" else "incremental"
        stats = SolverStats(
            strategy=solver_name,
            backend=self.backend,
            passes=passes,
            visits=visits,
            meets=engine.meets,
            transfers=engine.transfers,
            comm_requeues=engine.comm_requeues,
            wall_time_s=wall,
            nodes=len(self.graph),
        )
        return DataflowResult(
            problem_name=problem.name,
            direction=problem.direction,
            before=before,
            after=after,
            iterations=passes,
            visits=visits,
            solver=solver_name,
            stats=stats,
        )


# ---------------------------------------------------------------------------
# Demand-driven point queries.
# ---------------------------------------------------------------------------


def _atom_matches(atom, text: str) -> bool:
    """Loose atom match: exact, unqualified-name suffix, or rendered."""
    if atom == text:
        return True
    if isinstance(atom, str):
        return atom.rsplit("::", 1)[-1] == text
    if isinstance(atom, tuple):
        return any(_atom_matches(part, text) for part in atom)
    return str(atom) == text


def _fact_in(target, text: str) -> bool:
    try:
        atoms = list(target)
    except TypeError:
        return target == text
    return any(_atom_matches(atom, text) for atom in atoms)


def solve_query(
    graph: FlowGraph,
    entry,
    exit_,
    problem: DataFlowProblem,
    node: int,
    fact: Optional[str] = None,
    universe: Optional[FactUniverse] = None,
) -> QueryResult:
    """Solve ``problem`` only over ``node``'s dependency slice.

    The slice is the transitive closure of the solver's upstream
    adjacency from ``node`` — the same ``(edge, neighbour)`` pairs and
    matched-communication sources the provenance engine's
    earliest-introduction walk steps through, run to saturation
    (:func:`repro.obs.provenance.upstream_closure`).  Because the slice
    is upstream-closed, the restricted fixed point at every slice node
    equals the whole-graph solve's; everything outside is never
    visited.

    ``fact`` optionally names an atom (bare names match any scope
    qualification); the result's ``contains`` then answers "does the
    program-order IN fact at ``node`` carry it?".
    """
    if node not in graph:
        raise KeyError(f"unknown node id {node}")
    use_bitset = uses_bitset(problem)
    entries = [entry] if isinstance(entry, int) else list(entry)
    exits = [exit_] if isinstance(exit_, int) else list(exit_)
    t0 = time.perf_counter()
    engine_problem = (
        BitsetAdapter(problem, universe=universe) if use_bitset else problem
    )
    engine = _Engine(graph, entries, exits, engine_problem)
    comm_upstream = engine.comm_upstream if engine.use_comm else None
    region = upstream_closure(engine.upstream, comm_upstream, [node])
    visits = _solve_region(engine, region)
    before = engine.before[node]
    after = engine.after[node]
    if use_bitset:
        before = engine_problem.universe.decode(before)
        after = engine_problem.universe.decode(after)
    wall = time.perf_counter() - t0
    stats = SolverStats(
        strategy="demand",
        backend="bitset" if use_bitset else "native",
        passes=0,
        visits=visits,
        meets=engine.meets,
        transfers=engine.transfers,
        comm_requeues=engine.comm_requeues,
        wall_time_s=wall,
        nodes=len(graph),
    )
    result = QueryResult(
        problem_name=problem.name,
        direction=problem.direction,
        node=node,
        before=before,
        after=after,
        slice_nodes=len(region),
        total_nodes=len(graph),
        visits=visits,
        stats=stats,
    )
    if fact is not None:
        result.fact = fact
        result.contains = _fact_in(result.in_fact, fact)
    return result
