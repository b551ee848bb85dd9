"""The pluggable analysis registry.

Every user-facing analysis registers an :class:`AnalysisEntry` here:
a name, a one-line summary, how to run it against an (MPI-)ICFG, and
how to render its result as text.  The registry is the single source
of analysis names for

* ``repro analyze <name>`` (and ``repro analyze --list``),
* ``repro explain --phase <name>`` (entries with ``explainable=True``),
* the trace/report commands' activity phases
  (:func:`activity_phases`), and
* the pipeline's generic cached runner
  (:func:`repro.pipeline.run_analysis_cached`).

Declarative specs (:class:`~repro.dataflow.kernel.AnalysisSpec`) are
carried on their entry when the analysis is kernel-hosted; escape-hatch
analyses (reaching constants, bitwidth) register with ``spec=None``.
:func:`registered_specs` also covers auxiliary specs that exist only as
building blocks (the backward-slice demand analysis) so the test suite
can assert that no spec is defined outside the registry's knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..cfg.icfg import ICFG
from ..dataflow.framework import DataflowResult, Direction, QueryResult
from ..dataflow.incremental import solve_query
from ..dataflow.kernel import AnalysisSpec, DataFlowProblem
from .activity import ActivityResult, activity_analysis
from .bitwidth import bitwidth_analysis
from .liveness import LIVENESS_SPEC, LivenessProblem, liveness_analysis
from .mpi_model import MpiModel
from .reaching_constants import reaching_constants
from .reaching_defs import (
    ENTRY_DEF,
    REACHING_DEFS_SPEC,
    ReachingDefsProblem,
    reaching_defs_analysis,
)
from .slicing import NEED_SPEC
from .taint import TAINT_SPEC, TaintProblem, taint_analysis
from .useful import USEFUL_SPEC, UsefulProblem, useful_analysis
from .vary import VARY_SPEC, VaryProblem, vary_analysis

__all__ = [
    "AnalysisEntry",
    "AnalyzeRequest",
    "AUXILIARY_SPECS",
    "REGISTRY",
    "activity_phases",
    "explainable_names",
    "get",
    "names",
    "parse_query",
    "registered_specs",
    "render_list",
    "render_query",
    "run_entry",
    "run_query",
]


@dataclass(frozen=True)
class AnalyzeRequest:
    """Solver-facing knobs shared by every registry analysis."""

    independents: Tuple[str, ...] = ()
    dependents: Tuple[str, ...] = ()
    mpi_model: MpiModel = MpiModel.COMM_EDGES
    strategy: str = "roundrobin"
    record_provenance: bool = False
    #: Demand-driven point query, ``"NODE[:FACT]"`` — solve only the
    #: queried node's dependency slice instead of the whole graph.
    query: Optional[str] = None


@dataclass(frozen=True)
class AnalysisEntry:
    """One registered analysis: how to run it and show its result."""

    name: str
    summary: str
    direction: Direction
    run: Callable[[ICFG, AnalyzeRequest], object]
    render: Callable[["AnalysisEntry", ICFG, AnalyzeRequest, object], str]
    #: The declarative spec, when the analysis is kernel-hosted.
    spec: Optional[AnalysisSpec] = None
    #: Which seed lists the analysis needs ("independents"/"dependents").
    requires: Tuple[str, ...] = ()
    #: False for analyses whose entry point takes no MPI model.
    supports_model: bool = True
    #: True when ``repro explain`` can derive chains for this analysis
    #: (set facts whose atoms are qualified names).
    explainable: bool = False
    #: For the activity intersection's component phases: extract this
    #: phase's solved result from an :class:`ActivityResult`.
    activity_arm: Optional[Callable[[ActivityResult], DataflowResult]] = None
    #: Builds the single kernel problem demand queries solve over;
    #: ``None`` for composite or non-kernel analyses (no ``--query``).
    make_problem: Optional[
        Callable[[ICFG, AnalyzeRequest], DataFlowProblem]
    ] = None

    def render_result(self, icfg: ICFG, req: AnalyzeRequest, result) -> str:
        if req.query is not None:
            return render_query(self, icfg, req, result)
        return self.render(self, icfg, req, result)


# ---------------------------------------------------------------------------
# Runners and renderers.
# ---------------------------------------------------------------------------


def _canonical_point(icfg: ICFG, direction: Direction) -> int:
    """The node whose program-order IN fact summarizes the analysis:
    the routine exit for forward problems, the entry for backward."""
    entry, exit_ = icfg.entry_exit(icfg.root)
    return exit_ if direction is Direction.FORWARD else entry


def _header(
    entry: AnalysisEntry, req: AnalyzeRequest, stats
) -> list[str]:
    lines = [
        f"analysis  : {entry.name}",
        f"direction : {entry.direction.name.lower()}",
    ]
    if entry.supports_model:
        lines.append(f"model     : {req.mpi_model.value}")
    lines.append(f"strategy  : {stats.strategy} (backend {stats.backend})")
    lines.append(
        f"solver    : passes={stats.passes} visits={stats.visits} "
        f"meets={stats.meets} transfers={stats.transfers} "
        f"comm_requeues={stats.comm_requeues} nodes={stats.nodes}"
    )
    return lines


def _render_set(entry, icfg, req, result: DataflowResult) -> str:
    point = _canonical_point(icfg, entry.direction)
    lines = _header(entry, req, result.stats)
    where = "exit" if entry.direction is Direction.FORWARD else "entry"
    fact = sorted(result.in_fact(point))
    lines.append(f"facts at {where} ({len(fact)}):")
    lines += [f"  {q}" for q in fact]
    return "\n".join(lines)


def _render_defs(entry, icfg, req, result: DataflowResult) -> str:
    point = _canonical_point(icfg, entry.direction)
    lines = _header(entry, req, result.stats)
    pairs = sorted(result.in_fact(point))
    lines.append(f"definitions reaching exit ({len(pairs)}):")
    for q, d in pairs:
        site = "entry" if d == ENTRY_DEF else f"node {d}"
        lines.append(f"  {q} @ {site}")
    return "\n".join(lines)


def _render_env(entry, icfg, req, result: DataflowResult) -> str:
    point = _canonical_point(icfg, entry.direction)
    lines = _header(entry, req, result.stats)
    env = result.in_fact(point)
    lines.append(f"environment at exit ({len(env)}):")
    for q in sorted(env):
        lines.append(f"  {q} = {env[q]}")
    return "\n".join(lines)


def _render_widths(entry, icfg, req, result: DataflowResult) -> str:
    point = _canonical_point(icfg, entry.direction)
    lines = _header(entry, req, result.stats)
    env = result.in_fact(point)
    lines.append(f"integer ranges at exit ({len(env)}):")
    for q in sorted(env):
        interval = env[q]
        lines.append(f"  {q:30s} {str(interval):>28s}  {interval.width:2d} bits")
    return "\n".join(lines)


def _render_activity(entry, icfg, req, result: ActivityResult) -> str:
    lines = _header(entry, req, result.vary.stats)
    lines += [
        f"independents : {', '.join(req.independents)} "
        f"({result.num_independents} scalar elements)",
        f"dependents   : {', '.join(req.dependents)}",
        f"active bytes : {result.active_bytes:,}",
        f"deriv bytes  : {result.deriv_bytes:,}",
        f"iterations   : {result.iterations}",
        "active symbols:",
    ]
    lines += [
        f"  {scope or '<global>'}::{name}"
        for scope, name in sorted(result.active_symbols)
    ]
    return "\n".join(lines)


def _problem_vary(icfg, req):
    return VaryProblem(icfg, req.independents, req.mpi_model)


def _problem_useful(icfg, req):
    return UsefulProblem(icfg, req.dependents, req.mpi_model)


def _problem_taint(icfg, req):
    return TaintProblem(
        icfg, boundary_seeds=req.independents, mpi_model=req.mpi_model
    )


def _problem_liveness(icfg, req):
    return LivenessProblem(icfg, req.dependents)


def _problem_reaching_defs(icfg, req):
    return ReachingDefsProblem(icfg)


def _run_vary(icfg, req):
    return vary_analysis(
        icfg,
        req.independents,
        req.mpi_model,
        strategy=req.strategy,
        record_provenance=req.record_provenance,
    )


def _run_useful(icfg, req):
    return useful_analysis(
        icfg,
        req.dependents,
        req.mpi_model,
        strategy=req.strategy,
        record_provenance=req.record_provenance,
    )


def _run_activity(icfg, req):
    return activity_analysis(
        icfg,
        req.independents,
        req.dependents,
        req.mpi_model,
        strategy=req.strategy,
        record_provenance=req.record_provenance,
    )


def _run_taint(icfg, req):
    return taint_analysis(
        icfg,
        boundary_seeds=req.independents,
        mpi_model=req.mpi_model,
        strategy=req.strategy,
        record_provenance=req.record_provenance,
    )


def _run_liveness(icfg, req):
    return liveness_analysis(
        icfg,
        live_out=req.dependents,
        strategy=req.strategy,
        record_provenance=req.record_provenance,
    )


def _run_reaching_defs(icfg, req):
    return reaching_defs_analysis(
        icfg,
        strategy=req.strategy,
        record_provenance=req.record_provenance,
    )


def _run_reaching_constants(icfg, req):
    return reaching_constants(icfg, req.mpi_model, strategy=req.strategy)


def _run_bitwidth(icfg, req):
    return bitwidth_analysis(icfg, req.mpi_model, strategy=req.strategy)


# ---------------------------------------------------------------------------
# The registry proper (insertion order == ``--list`` order).
# ---------------------------------------------------------------------------

_ENTRIES = (
    AnalysisEntry(
        name="vary",
        summary="forward: depends on the independent variables",
        direction=Direction.FORWARD,
        run=_run_vary,
        render=_render_set,
        spec=VARY_SPEC,
        requires=("independents",),
        explainable=True,
        activity_arm=lambda arm: arm.vary,
        make_problem=_problem_vary,
    ),
    AnalysisEntry(
        name="useful",
        summary="backward: may influence the dependent variables",
        direction=Direction.BACKWARD,
        run=_run_useful,
        render=_render_set,
        spec=USEFUL_SPEC,
        requires=("dependents",),
        explainable=True,
        activity_arm=lambda arm: arm.useful,
        make_problem=_problem_useful,
    ),
    AnalysisEntry(
        name="activity",
        summary="vary ∩ useful: the paper's activity analysis (Table 1)",
        direction=Direction.FORWARD,
        run=_run_activity,
        render=_render_activity,
        requires=("independents", "dependents"),
    ),
    AnalysisEntry(
        name="taint",
        summary="forward: influenced by the seed variables (any type)",
        direction=Direction.FORWARD,
        run=_run_taint,
        render=_render_set,
        spec=TAINT_SPEC,
        requires=("independents",),
        explainable=True,
        make_problem=_problem_taint,
    ),
    AnalysisEntry(
        name="liveness",
        summary="backward: live variables (separable, model-independent)",
        direction=Direction.BACKWARD,
        run=_run_liveness,
        render=_render_set,
        spec=LIVENESS_SPEC,
        supports_model=False,
        explainable=True,
        make_problem=_problem_liveness,
    ),
    AnalysisEntry(
        name="reaching-defs",
        summary="forward: (variable, definition-site) pairs (separable)",
        direction=Direction.FORWARD,
        run=_run_reaching_defs,
        render=_render_defs,
        spec=REACHING_DEFS_SPEC,
        supports_model=False,
        make_problem=_problem_reaching_defs,
    ),
    AnalysisEntry(
        name="reaching-constants",
        summary="forward: constant environments across sends/receives",
        direction=Direction.FORWARD,
        run=_run_reaching_constants,
        render=_render_env,
    ),
    AnalysisEntry(
        name="bitwidth",
        summary="forward: integer ranges and bit widths",
        direction=Direction.FORWARD,
        run=_run_bitwidth,
        render=_render_widths,
    ),
)

REGISTRY: dict[str, AnalysisEntry] = {e.name: e for e in _ENTRIES}

#: Specs that are building blocks rather than standalone analyses —
#: parameterized per call, so not runnable from ``repro analyze``.
AUXILIARY_SPECS: dict[str, AnalysisSpec] = {NEED_SPEC.name: NEED_SPEC}


def names() -> tuple[str, ...]:
    return tuple(REGISTRY)


def get(name: str) -> AnalysisEntry:
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown analysis {name!r}; available: {', '.join(REGISTRY)}"
        ) from None


def explainable_names() -> tuple[str, ...]:
    return tuple(e.name for e in REGISTRY.values() if e.explainable)


def activity_phases() -> tuple[
    tuple[str, Callable[[ActivityResult], DataflowResult]], ...
]:
    """The activity intersection's component phases, in run order.

    Drives the trace/explain/report commands, which iterate the phases
    of each :class:`ActivityResult` arm by registry name instead of
    hardcoding ``("vary", "useful")``.
    """
    return tuple(
        (e.name, e.activity_arm)
        for e in REGISTRY.values()
        if e.activity_arm is not None
    )


def registered_specs() -> dict[str, AnalysisSpec]:
    """Every :class:`AnalysisSpec` the registry knows about, by name."""
    specs = {e.spec.name: e.spec for e in REGISTRY.values() if e.spec is not None}
    specs.update(AUXILIARY_SPECS)
    return specs


def render_list() -> str:
    """One line per analysis, name first (shell/CI parseable)."""
    width = max(len(n) for n in REGISTRY)
    lines = []
    for e in REGISTRY.values():
        seeds = f" [needs --{'/--'.join(s[:-1] for s in e.requires)}]" if e.requires else ""
        lines.append(f"{e.name:<{width}}  {e.summary}{seeds}")
    return "\n".join(lines)


def _validate_request(entry: AnalysisEntry, req: AnalyzeRequest) -> None:
    for field_name in entry.requires:
        if not getattr(req, field_name):
            flag = "--independent" if field_name == "independents" else "--dependent"
            raise ValueError(
                f"analysis {entry.name!r} needs at least one {flag} NAME"
            )


def run_entry(entry: AnalysisEntry, icfg: ICFG, req: AnalyzeRequest):
    """Validate seeds and run ``entry`` over ``icfg``.

    A request carrying a ``query`` is answered demand-driven (a
    :class:`~repro.dataflow.framework.QueryResult` over the queried
    node's slice) instead of running the full analysis.
    """
    _validate_request(entry, req)
    if req.query is not None:
        return run_query(entry, icfg, req)
    return entry.run(icfg, req)


# ---------------------------------------------------------------------------
# Demand-driven point queries (``repro analyze <name> --query NODE[:FACT]``).
# ---------------------------------------------------------------------------


def parse_query(icfg: ICFG, query: str) -> tuple[int, Optional[str]]:
    """Split ``"NODE[:FACT]"``; NODE is a node id or ``entry``/``exit``
    (the root routine's boundary nodes)."""
    node_text, _, fact = query.partition(":")
    node_text = node_text.strip()
    entry_id, exit_id = icfg.entry_exit(icfg.root)
    if node_text == "entry":
        nid = entry_id
    elif node_text == "exit":
        nid = exit_id
    else:
        try:
            nid = int(node_text)
        except ValueError:
            raise ValueError(
                "--query expects NODE[:FACT] with NODE a node id or "
                f"'entry'/'exit'; got {query!r}"
            ) from None
    if nid not in icfg.graph:
        raise ValueError(f"--query names unknown node id {nid}")
    return nid, (fact.strip() or None)


def run_query(entry: AnalysisEntry, icfg: ICFG, req: AnalyzeRequest) -> QueryResult:
    """Answer ``req.query`` for ``entry`` over the queried node's slice."""
    if entry.make_problem is None:
        raise ValueError(
            f"analysis {entry.name!r} does not support demand queries "
            "(not hosted on a single kernel problem)"
        )
    _validate_request(entry, req)
    node, fact = parse_query(icfg, req.query)
    g_entry, g_exit = icfg.entry_exit(icfg.root)
    return solve_query(
        icfg.graph,
        g_entry,
        g_exit,
        entry.make_problem(icfg, req),
        node,
        fact,
    )


def render_query(
    entry: AnalysisEntry, icfg: ICFG, req: AnalyzeRequest, qr: QueryResult
) -> str:
    stats = qr.stats
    node = icfg.graph.node(qr.node)
    lines = [
        f"analysis  : {entry.name} (demand query)",
        f"direction : {entry.direction.name.lower()}",
    ]
    if entry.supports_model:
        lines.append(f"model     : {req.mpi_model.value}")
    lines.append(f"strategy  : {stats.strategy} (backend {stats.backend})")
    lines.append(
        f"slice     : {qr.slice_nodes}/{qr.total_nodes} nodes "
        f"visits={qr.visits} transfers={stats.transfers}"
    )
    lines.append(f"node      : {qr.node} [{node.label()}] in {node.proc}")
    if qr.fact is not None:
        lines.append(
            f"query     : {qr.fact} in IN({qr.node}) -> "
            + ("YES" if qr.contains else "no")
        )
    facts = qr.in_fact
    try:
        rendered = sorted(facts)
    except TypeError:  # non-set lattices render as one value
        rendered = [facts]
    lines.append(f"IN facts at node {qr.node} ({len(rendered)}):")
    lines += [f"  {f}" for f in rendered]
    return "\n".join(lines)
