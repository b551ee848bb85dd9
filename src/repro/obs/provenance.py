"""Fact provenance: why is this data-flow fact here?

The convergence layer (:mod:`repro.obs.convergence`) explains *how
long* a solve took; this module explains *why a specific fact holds* —
the paper's whole point is that facts travel along communication edges
(send→recv, bcast, reduce) as well as control-flow edges, and a
derivation chain makes that propagation inspectable fact by fact.

With ``solve(..., record_provenance=True)`` the engine feeds every
fact-changing visit to a :class:`ProvenanceRecorder`, which snapshots
the node's *before*/*after* facts (immutable ``frozenset``s or
constant environments, plain ints for bitset problems — references are
shared, so memory is bounded by the number of changes).  The finished
:class:`ProvenanceTrace` can then reconstruct, for any fact at any
node, a minimal derivation chain back to a seed (boundary fact) or GEN
site:

* ``seed`` — the atom is part of the analysis boundary (an independent
  / dependent variable, or the global-buffer assumption);
* ``flow`` / ``call`` / ``return`` / ``call_to_return`` — the atom
  arrived over a graph edge (renamed across interprocedural edges);
* ``gen`` — the node's transfer function generated the atom from a
  *cause* atom in its own before fact (e.g. ``b = x * 3`` generates
  ``b`` from ``x`` under Vary);
* ``comm`` — the atom was generated because a matched communication
  peer's ``f_comm`` value carried it across a COMM edge (e.g. a
  receive's buffer starts varying because the matched send's payload
  varies), annotated with the matcher's rank/tag context.

Chain minimality rule: the walk always attributes an atom to its
*earliest* recorded introduction, and every hop moves strictly
backwards in event order, so chains terminate and never revisit a
(node, atom) pair at the same time point.  Attribution across
transfer/edge/comm functions probes singleton facts — sound for the
distributive set frameworks all bitset-capable analyses are — and
degrades gracefully (``cause=None``, chain roots at the GEN site) for
anything non-distributive.

Everything here is read-only over the recorded snapshots: ``explain``
replays the problem's own ``transfer`` / ``edge_fact`` / ``comm_value``
hooks after the fixed point, never mutating solver state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..cfg.node import EdgeKind, MpiNode

__all__ = [
    "ProvenanceRecorder",
    "ProvenanceTrace",
    "ProvenanceEvent",
    "DerivationStep",
    "DerivationChain",
    "ActivityExplanation",
    "explain",
    "explain_activity",
    "render_chain",
    "upstream_closure",
]

#: Safety bound on derivation-chain length (a chain hop always moves
#: strictly backwards in event order, so this only guards pathological
#: hand-built traces).
MAX_CHAIN_STEPS = 10_000


def upstream_closure(
    upstream: dict[int, tuple],
    comm_upstream: Optional[dict[int, tuple]],
    roots,
) -> set[int]:
    """Transitive closure over the earliest-introduction walk's adjacency.

    The derivation walk (:meth:`ProvenanceTrace.explain`) steps
    backwards along the solver's ``upstream`` ``(edge, neighbour)``
    pairs and ``comm_upstream`` communication sources; this is the same
    traversal run to saturation — the set of nodes whose facts the
    roots' facts can depend on.  Demand-driven queries
    (:func:`repro.dataflow.incremental.solve_query`) use it as their
    slice: solving only this region reproduces the full fixed point at
    the roots.  Pass ``comm_upstream=None`` for problems that do not
    propagate over COMM edges.
    """
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        for _, neighbour in upstream.get(nid, ()):
            if neighbour not in seen:
                stack.append(neighbour)
        if comm_upstream:
            for source in comm_upstream.get(nid, ()):
                if source not in seen:
                    stack.append(source)
    return seen


@dataclass(frozen=True)
class ProvenanceEvent:
    """One fact-changing solver visit at one node."""

    index: int  #: global event order (1-based)
    pass_: int  #: round-robin pass (0 under the priority strategy)
    before: Any  #: before fact at this visit (engine representation)
    after: Any  #: after fact produced by this visit
    comm: Any  #: met communication value consumed (None when absent)


class ProvenanceRecorder:
    """Accumulates fact snapshots during one solve.

    The engine calls :meth:`record` only on visits that changed the
    node's before or after fact; between changes the facts are
    constant, so the event list is a complete history.
    """

    __slots__ = ("events", "index", "current_pass")

    def __init__(self) -> None:
        self.events: dict[int, list[ProvenanceEvent]] = {}
        self.index = 0
        self.current_pass = 0

    def next_pass(self) -> None:
        self.current_pass += 1

    def record(self, nid: int, before: Any, after: Any, comm: Any) -> None:
        self.index += 1
        self.events.setdefault(nid, []).append(
            ProvenanceEvent(self.index, self.current_pass, before, after, comm)
        )

    def finish(
        self,
        *,
        problem: Any,
        graph: Any,
        upstream: dict[int, tuple],
        comm_upstream: dict[int, tuple],
        boundary_nodes: frozenset[int],
        boundary_fact: Any,
        strategy: str,
        direction: str,
        name: str,
        int_facts: bool,
    ) -> "ProvenanceTrace":
        return ProvenanceTrace(
            problem=problem,
            graph=graph,
            upstream=upstream,
            comm_upstream=comm_upstream,
            boundary_nodes=boundary_nodes,
            boundary_fact=boundary_fact,
            strategy=strategy,
            direction=direction,
            name=name,
            int_facts=int_facts,
            events=self.events,
            passes=self.current_pass,
            total_events=self.index,
        )


@dataclass(frozen=True)
class DerivationStep:
    """One hop of a derivation chain.

    ``atom`` is the fact established *at* ``node`` by this step;
    ``cause`` is the upstream fact it was derived from (identical for
    plain flow hops, renamed across call/return edges, the sent payload
    for comm hops, the transfer's input for gen steps).
    """

    kind: str  #: seed | gen | comm | flow | call | return | call_to_return | unknown
    node: int
    atom: str
    source: Optional[int] = None  #: upstream node (None for seed/gen/unknown)
    cause: Optional[str] = None  #: upstream/cause atom display
    pass_: int = 0
    event: int = 0
    label: str = ""  #: label of ``node``
    detail: str = ""  #: e.g. matcher rank/tag context for comm hops

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "node": self.node,
            "atom": self.atom,
            "source": self.source,
            "cause": self.cause,
            "pass": self.pass_,
            "event": self.event,
            "label": self.label,
            "detail": self.detail,
        }


@dataclass
class DerivationChain:
    """Seed-first derivation of one fact at one node."""

    problem: str
    direction: str
    strategy: str
    node: int
    atom: str
    point: str  #: "IN" or "OUT" (program order)
    found: bool
    steps: list[DerivationStep] = field(default_factory=list)
    note: str = ""

    @property
    def comm_hops(self) -> list[DerivationStep]:
        """The chain's communication-edge crossings, seed-first."""
        return [s for s in self.steps if s.kind == "comm"]

    @property
    def seed(self) -> Optional[DerivationStep]:
        return next((s for s in self.steps if s.kind == "seed"), None)

    def signature(self) -> tuple:
        """Structure-only identity (for comparing chains across arms)."""
        return tuple((s.kind, s.node, s.atom, s.source, s.cause) for s in self.steps)

    def as_dict(self) -> dict:
        return {
            "problem": self.problem,
            "direction": self.direction,
            "strategy": self.strategy,
            "node": self.node,
            "atom": self.atom,
            "point": self.point,
            "found": self.found,
            "note": self.note,
            "steps": [s.as_dict() for s in self.steps],
        }

    def render(self, collapse_flow: bool = True) -> str:
        return render_chain(self, collapse_flow=collapse_flow)


def render_chain(chain: DerivationChain, collapse_flow: bool = True) -> str:
    """Terminal text rendering of one derivation chain."""
    head = (
        f"why {chain.atom} ∈ {chain.point}({chain.node}) — "
        f"{chain.problem} ({chain.direction}, {chain.strategy})"
    )
    if not chain.found:
        return f"{head}\n  not derivable: {chain.note or 'fact not present'}"
    lines = [head]
    steps = chain.steps
    i = 0
    n = 1
    while i < len(steps):
        step = steps[i]
        skipped = 0
        if collapse_flow and step.kind == "flow":
            # Collapse a run of flow hops carrying the same atom.
            j = i
            while (
                j + 1 < len(steps)
                and steps[j + 1].kind == "flow"
                and steps[j + 1].atom == step.atom
            ):
                j += 1
                skipped += 1
            step = steps[j]
            i = j
        where = f"@ node {step.node}"
        if step.label:
            where += f" [{step.label}]"
        if step.kind == "seed":
            desc = f"{step.atom} is a boundary seed"
        elif step.kind == "gen":
            cause = f" from {step.cause}" if step.cause else ""
            desc = f"{step.atom} generated by transfer{cause}"
        elif step.kind == "comm":
            desc = (
                f"{step.cause} ⇒ {step.atom} across COMM edge "
                f"{step.source} → {step.node}"
            )
            if step.detail:
                desc += f" ({step.detail})"
        elif step.kind == "unknown":
            desc = f"{step.atom}: {step.detail or 'unattributed'}"
        else:  # flow / call / return / call_to_return
            rename = (
                "" if step.cause == step.atom else f" (as {step.cause} upstream)"
            )
            hops = f" [+{skipped} flow hops]" if skipped else ""
            desc = (
                f"{step.atom} via {step.kind.replace('_', '-')} edge "
                f"{step.source} → {step.node}{rename}{hops}"
            )
        pass_tag = f"pass {step.pass_}" if step.pass_ else f"event {step.event}"
        lines.append(f"  {n}. [{pass_tag:>9s}] {step.kind:<14s} {desc}  {where}")
        n += 1
        i += 1
    return "\n".join(lines)


class ProvenanceTrace:
    """One solve's fact-provenance history plus the context to query it.

    Holds the engine-side problem object (the
    :class:`~repro.dataflow.bitset.BitsetAdapter` for bitset solves, the
    native problem otherwise), so derivation queries work identically on
    both fact representations — atoms go in and come out as their native
    hashable selves (qualified names in practice), membership and
    singleton probes are representation-aware internally.
    """

    def __init__(
        self,
        *,
        problem: Any,
        graph: Any,
        upstream: dict[int, tuple],
        comm_upstream: dict[int, tuple],
        boundary_nodes: frozenset[int],
        boundary_fact: Any,
        strategy: str,
        direction: str,
        name: str,
        int_facts: bool,
        events: dict[int, list[ProvenanceEvent]],
        passes: int,
        total_events: int,
    ) -> None:
        self.problem = problem
        self.graph = graph
        self.upstream = upstream
        self.comm_upstream = comm_upstream
        self.boundary_nodes = boundary_nodes
        self.boundary_fact = boundary_fact
        self.strategy = strategy
        self.direction = direction
        self.name = name
        self.int_facts = int_facts
        self.events = events
        self.passes = passes
        self.total_events = total_events
        self._flow_identity = bool(getattr(problem, "flow_identity", False))
        self._comm_labels: Optional[dict[tuple[int, int], str]] = None

    # -- representation helpers ---------------------------------------------

    def _universe(self):
        return getattr(self.problem, "universe", None)

    def _atom_key(self, atom: Any) -> Any:
        """Internal membership key of one atom (bit index for bitset
        problems, the atom itself otherwise)."""
        if self.int_facts:
            return self._universe().bit_of(atom)
        return atom

    def _member(self, fact: Any, key: Any) -> bool:
        if fact is None:
            return False
        if self.int_facts:
            return bool((fact >> key) & 1)
        try:
            return key in fact
        except TypeError:
            return False

    def _singleton(self, key: Any) -> Any:
        if self.int_facts:
            return 1 << key
        return frozenset((key,))

    def _display(self, key: Any) -> str:
        if self.int_facts:
            return str(self._universe().atom_of(key))
        return str(key)

    def _atom_keys(self, fact: Any) -> list:
        """Keys of ``fact``'s atoms, sorted by display for determinism."""
        if fact is None:
            return []
        if self.int_facts:
            keys = []
            mask = fact
            while mask:
                low = mask & -mask
                keys.append(low.bit_length() - 1)
                mask ^= low
        else:
            try:
                keys = list(fact)
            except TypeError:
                return []
        return sorted(keys, key=self._display)

    def _empty(self) -> Any:
        return self.problem.top()

    # -- event lookups -------------------------------------------------------

    def _events_at(self, nid: int) -> list[ProvenanceEvent]:
        return self.events.get(nid, [])

    def _state_at(self, nid: int, limit: int, attr: str) -> Any:
        """The node's before/after fact as of event ``limit`` (the
        latest recorded value with ``index <= limit``)."""
        state = None
        for e in self._events_at(nid):
            if e.index > limit:
                break
            state = getattr(e, attr)
        return state

    def _first_with(
        self, nid: int, key: Any, limit: int, attr: str
    ) -> Optional[ProvenanceEvent]:
        """Earliest event at ``nid`` (index <= limit) whose ``attr``
        fact contains ``key``."""
        for e in self._events_at(nid):
            if e.index > limit:
                return None
            if self._member(getattr(e, attr), key):
                return e
        return None

    def final_after(self, nid: int) -> Any:
        return self._state_at(nid, self.total_events + 1, "after")

    def final_before(self, nid: int) -> Any:
        return self._state_at(nid, self.total_events + 1, "before")

    # -- probe helpers (all guarded: non-distributive problems degrade) ------

    def _node(self, nid: int):
        return self.graph.nodes[nid]

    def _try(self, fn, *args) -> Any:
        try:
            return fn(*args)
        except Exception:
            return None

    def _comm_label(self, src: int, dst: int) -> str:
        if self._comm_labels is None:
            labels: dict[tuple[int, int], str] = {}
            for edge in self.graph.edges():
                if edge.kind is EdgeKind.COMM:
                    labels[(edge.src, edge.dst)] = edge.label
                    labels.setdefault((edge.dst, edge.src), edge.label)
            self._comm_labels = labels
        return self._comm_labels.get((src, dst), "")

    def _comm_detail(self, source: int, target: int) -> str:
        a, b = self._node(source), self._node(target)
        label = self._comm_label(source, target)
        if isinstance(a, MpiNode) and isinstance(b, MpiNode):
            from ..mpi.matching import comm_context  # lazy: avoids import cycle

            return comm_context(a, b, label)
        return label

    # -- the backward walk ---------------------------------------------------

    def explain(self, node: int, atom: Any, point: str = "auto") -> DerivationChain:
        """Minimal derivation chain of ``atom`` at ``node``.

        ``point`` selects the program point: ``"in"`` / ``"out"`` in
        program order, or ``"auto"`` (the post-transfer fact when the
        atom is there, the pre-transfer fact otherwise).  Raises
        ``KeyError`` for an unknown node id.
        """
        if node not in self.graph.nodes:
            raise KeyError(f"unknown node id {node}")
        key = self._atom_key(atom)
        forward = self.direction == "forward"
        if point == "auto":
            attr = "after" if self._member(self.final_after(node), key) else "before"
        elif point in ("in", "out"):
            # before/after are orientation-relative: IN(n) is `before`
            # for forward problems and `after` for backward ones.
            attr = (
                "before"
                if (point == "in") == forward
                else "after"
            )
        else:
            raise ValueError(f"point must be 'auto', 'in' or 'out', got {point!r}")
        program_point = ("IN" if attr == "before" else "OUT") if forward else (
            "OUT" if attr == "before" else "IN"
        )
        chain = DerivationChain(
            problem=self.name,
            direction=self.direction,
            strategy=self.strategy,
            node=node,
            atom=str(atom),
            point=program_point,
            found=False,
        )
        fact = self._state_at(node, self.total_events + 1, attr)
        if not self._member(fact, key):
            present = ", ".join(self._display(k) for k in self._atom_keys(fact))
            chain.note = (
                f"{atom} not in {program_point}({node}); present: "
                f"{present or '∅'}"
            )
            return chain
        limit = self.total_events + 1
        if attr == "after":
            steps = self._walk_after(node, key, limit, 0)
        else:
            steps = self._walk_before(node, key, limit, 0)
        chain.steps = steps
        chain.found = bool(steps) and steps[0].kind != "unknown"
        if steps and steps[0].kind == "unknown":
            chain.note = steps[0].detail
        return chain

    def _unknown(self, nid: int, key: Any, why: str) -> list[DerivationStep]:
        return [
            DerivationStep(
                kind="unknown",
                node=nid,
                atom=self._display(key),
                label=self._node(nid).label(),
                detail=why,
            )
        ]

    def _walk_after(
        self, nid: int, key: Any, limit: int, depth: int
    ) -> list[DerivationStep]:
        if depth > MAX_CHAIN_STEPS:
            return self._unknown(nid, key, "chain bound exceeded")
        e = self._first_with(nid, key, limit, "after")
        if e is None:
            return self._unknown(nid, key, "no recorded introduction")
        if self._member(e.before, key):
            # The atom flowed in and survived the transfer — the edge
            # hop is the step; the transfer pass-through is not.
            return self._walk_before(nid, key, e.index, depth + 1)
        problem = self.problem
        node = self._node(nid)
        no_comm = self._try(problem.transfer, node, e.before, None)
        if no_comm is not None and self._member(no_comm, key):
            return self._explain_gen(nid, key, e, depth)
        return self._explain_comm(nid, key, e, depth)

    def _explain_gen(
        self, nid: int, key: Any, e: ProvenanceEvent, depth: int
    ) -> list[DerivationStep]:
        problem = self.problem
        node = self._node(nid)
        cause_key = None
        unconditional = self._try(problem.transfer, node, self._empty(), None)
        if not (unconditional is not None and self._member(unconditional, key)):
            for c in self._atom_keys(e.before):
                probe = self._try(problem.transfer, node, self._singleton(c), None)
                if probe is not None and self._member(probe, key):
                    cause_key = c
                    break
        step = DerivationStep(
            kind="gen",
            node=nid,
            atom=self._display(key),
            cause=None if cause_key is None else self._display(cause_key),
            pass_=e.pass_,
            event=e.index,
            label=node.label(),
        )
        if cause_key is None:
            return [step]
        return self._walk_before(nid, cause_key, e.index, depth + 1) + [step]

    def _explain_comm(
        self, nid: int, key: Any, e: ProvenanceEvent, depth: int
    ) -> list[DerivationStep]:
        problem = self.problem
        node = self._node(nid)
        for q in self.comm_upstream.get(nid, ()):
            bq = self._state_at(q, e.index - 1, "before")
            if bq is None:
                continue
            cv = self._try(problem.comm_value, self._node(q), bq)
            if cv is None:
                continue
            met = self._try(problem.comm_meet, [cv])
            out = self._try(problem.transfer, node, e.before, met)
            if out is None or not self._member(out, key):
                continue
            cause_key = None
            for c in self._atom_keys(bq):
                cvc = self._try(problem.comm_value, self._node(q), self._singleton(c))
                if cvc is None:
                    continue
                metc = self._try(problem.comm_meet, [cvc])
                outc = self._try(problem.transfer, node, e.before, metc)
                if outc is not None and self._member(outc, key):
                    cause_key = c
                    break
            step = DerivationStep(
                kind="comm",
                node=nid,
                atom=self._display(key),
                source=q,
                cause=None if cause_key is None else self._display(cause_key),
                pass_=e.pass_,
                event=e.index,
                label=node.label(),
                detail=self._comm_detail(q, nid),
            )
            if cause_key is None:
                return [step]
            return self._walk_before(q, cause_key, e.index - 1, depth + 1) + [step]
        return self._unknown(
            nid, key, "generated with no attributable local or comm cause"
        )

    def _walk_before(
        self, nid: int, key: Any, limit: int, depth: int
    ) -> list[DerivationStep]:
        if depth > MAX_CHAIN_STEPS:
            return self._unknown(nid, key, "chain bound exceeded")
        e = self._first_with(nid, key, limit, "before")
        if e is None:
            return self._unknown(nid, key, "no recorded introduction")
        if nid in self.boundary_nodes and self._member(self.boundary_fact, key):
            return [
                DerivationStep(
                    kind="seed",
                    node=nid,
                    atom=self._display(key),
                    pass_=e.pass_,
                    event=e.index,
                    label=self._node(nid).label(),
                )
            ]
        problem = self.problem
        for edge, m in self.upstream.get(nid, ()):
            am = self._state_at(m, e.index - 1, "after")
            if am is None:
                continue
            mapped = self._try(problem.edge_fact, edge, am)
            if mapped is None or not self._member(mapped, key):
                continue
            if self._flow_identity and edge.kind is EdgeKind.FLOW:
                up_key = key
            else:
                up_key = None
                for c in self._atom_keys(am):
                    probe = self._try(problem.edge_fact, edge, self._singleton(c))
                    if probe is not None and self._member(probe, key):
                        up_key = c
                        break
            step = DerivationStep(
                kind=edge.kind.value,
                node=nid,
                atom=self._display(key),
                source=m,
                cause=None if up_key is None else self._display(up_key),
                pass_=e.pass_,
                event=e.index,
                label=self._node(nid).label(),
                detail=edge.label,
            )
            if up_key is None:
                return [step]
            return self._walk_after(m, up_key, e.index - 1, depth + 1) + [step]
        return self._unknown(nid, key, "no upstream edge carries the atom")

    # -- summary -------------------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-friendly summary (events stay in memory, not exported)."""
        return {
            "problem": self.name,
            "direction": self.direction,
            "strategy": self.strategy,
            "backend": "bitset" if self.int_facts else "native",
            "passes": self.passes,
            "events": self.total_events,
            "nodes_with_events": len(self.events),
        }


# ---------------------------------------------------------------------------
# Result-level conveniences.
# ---------------------------------------------------------------------------


def explain(result, node: int, atom: Any, point: str = "auto") -> DerivationChain:
    """Derivation chain of ``atom`` at ``node`` in a solved result.

    ``result`` is a :class:`~repro.dataflow.framework.DataflowResult`
    produced by ``solve(..., record_provenance=True)``.
    """
    trace = getattr(result, "provenance", None)
    if trace is None:
        raise ValueError(
            f"{getattr(result, 'problem_name', 'result')}: no provenance "
            "recorded — re-run solve()/the analysis with "
            "record_provenance=True"
        )
    return trace.explain(node, atom, point)


@dataclass
class ActivityExplanation:
    """Why a variable is (or is not) active at a node: the Vary chain
    (depends on the independents) and the Useful chain (needed for the
    dependents) — active means both hold."""

    node: int
    atom: str
    active: bool
    vary: DerivationChain
    useful: DerivationChain

    def render(self) -> str:
        verdict = "ACTIVE" if self.active else "not active"
        lines = [
            f"{self.atom} at node {self.node}: {verdict} "
            f"(vary {'✓' if self.vary.found else '✗'}, "
            f"useful {'✓' if self.useful.found else '✗'})",
            self.vary.render(),
            self.useful.render(),
        ]
        return "\n".join(lines)


def explain_activity(activity, node: int, atom: Any) -> ActivityExplanation:
    """Explain "why active": chain through Vary ∩ Useful.

    ``activity`` is an
    :class:`~repro.analyses.activity.ActivityResult` whose phases were
    solved with ``record_provenance=True``.  A bare variable name is
    resolved in the scope of the analysis root (``icfg.root``);
    pre-qualified names pass through unchanged.
    """
    if isinstance(atom, str) and "::" not in atom:
        icfg = activity.icfg
        sym = icfg.symtab.try_lookup(icfg.root, atom)
        if sym is not None:
            atom = sym.qname
    vary = explain(activity.vary, node, atom)
    useful = explain(activity.useful, node, atom)
    qname = vary.atom
    active = any(str(a) == qname for a in activity.active_at(node))
    return ActivityExplanation(
        node=node, atom=str(atom), active=active, vary=vary, useful=useful
    )
