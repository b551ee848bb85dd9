"""Content-addressed builders for the pipeline's heavyweight artifacts.

Each ``*_cached`` function is a drop-in for its uncached counterpart
with an extra ``cache`` parameter (``None`` disables caching).  Keys
follow the scheme in :mod:`repro.pipeline.cache`: program fingerprint
plus every option that shapes the artifact.

A cached ICFG is shared between the plain-ICFG and MPI-ICFG arms of an
experiment, so on a warm hit its graph may already carry COMM edges
from an earlier :func:`build_mpi_icfg_cached` call.  That is safe by
construction: global-buffer/ignore-model analyses skip COMM edges
entirely (they are excluded from flow traversals and the solver's
non-comm adjacency), and re-applying a match is idempotent
(:meth:`~repro.cfg.graph.FlowGraph.add_edge` dedups without bumping the
mutation version).
"""

from __future__ import annotations

from typing import Optional

from ..analyses.mpi_model import MpiModel
from ..analyses.reaching_constants import ReachingConstantsProblem
from ..cfg.icfg import ICFG, build_icfg
from ..dataflow.framework import DataflowResult
from ..dataflow.solver import solve
from ..ir.ast_nodes import Program
from ..mpi.matching import MatchOptions, MatchResult, match_communication
from ..mpi.mpiicfg import add_communication_edges
from ..obs import get_tracer
from .cache import ArtifactCache, program_fingerprint

__all__ = [
    "analysis_key",
    "build_icfg_cached",
    "build_mpi_icfg_cached",
    "icfg_key",
    "match_communication_cached",
    "match_key",
    "match_options_key",
    "rc_key",
    "reaching_constants_cached",
    "run_analysis_cached",
]


def icfg_key(program: Program, root: str, clone_level: int) -> tuple:
    return ("icfg", program_fingerprint(program), root, clone_level)


def match_options_key(options: Optional[MatchOptions]) -> tuple:
    options = options or MatchOptions()
    return (
        options.use_constants,
        options.match_counts,
        options.rank_heuristics,
    )


def match_key(
    program: Program, root: str, clone_level: int, options: Optional[MatchOptions]
) -> tuple:
    return (
        "match",
        program_fingerprint(program),
        root,
        clone_level,
        match_options_key(options),
    )


def rc_key(
    program: Program, icfg: ICFG, mpi_model: MpiModel, strategy: str
) -> tuple:
    """Reaching-constants key; includes the graph's mutation version so
    any in-place edit of the built graph (most commonly adding COMM
    edges) invalidates the fixed point."""
    return (
        "reaching-constants",
        program_fingerprint(program),
        icfg.root,
        icfg.clone_level,
        mpi_model.value,
        strategy,
        icfg.graph.version,
    )


def build_icfg_cached(
    program: Program,
    root: str,
    clone_level: int = 0,
    cache: Optional[ArtifactCache] = None,
) -> ICFG:
    """:func:`~repro.cfg.icfg.build_icfg`, content-addressed."""
    if cache is None:
        with get_tracer().span("build.icfg", root=root, cache="off"):
            return build_icfg(program, root, clone_level=clone_level)
    key = icfg_key(program, root, clone_level)
    with get_tracer().span(
        "build.icfg", root=root, cache="hit" if key in cache else "miss"
    ):
        return cache.get_or_build(
            key,
            lambda: build_icfg(program, root, clone_level=clone_level),
        )


def match_communication_cached(
    icfg: ICFG,
    program: Program,
    options: Optional[MatchOptions] = None,
    cache: Optional[ArtifactCache] = None,
) -> MatchResult:
    """:func:`~repro.mpi.matching.match_communication`, content-addressed.

    ``program`` must be the program ``icfg`` was built from (the ICFG
    does carry it, but passing it explicitly keeps the key derivation
    visible at call sites).
    """
    if cache is None:
        return match_communication(icfg, options)
    key = match_key(program, icfg.root, icfg.clone_level, options)
    with get_tracer().span(
        "match.communication", cache="hit" if key in cache else "miss"
    ):
        return cache.get_or_build(
            key,
            lambda: match_communication(icfg, options),
        )


def build_mpi_icfg_cached(
    program: Program,
    root: str,
    clone_level: int = 0,
    options: Optional[MatchOptions] = None,
    cache: Optional[ArtifactCache] = None,
) -> tuple[ICFG, MatchResult]:
    """:func:`~repro.mpi.mpiicfg.build_mpi_icfg` over cached artifacts.

    The base ICFG and the match are cached independently, so the plain
    ICFG arm of an experiment and its MPI-ICFG arm share one graph.
    """
    icfg = build_icfg_cached(program, root, clone_level, cache)
    match = match_communication_cached(icfg, program, options, cache)
    add_communication_edges(icfg, result=match)
    return icfg, match


def reaching_constants_cached(
    icfg: ICFG,
    program: Program,
    mpi_model: MpiModel = MpiModel.COMM_EDGES,
    strategy: str = "roundrobin",
    cache: Optional[ArtifactCache] = None,
) -> DataflowResult:
    """Reaching-constants fixed point, content-addressed + version-stamped.

    Hits require both the same program content/options *and* an
    unmutated graph: the key carries
    :attr:`FlowGraph.version <repro.cfg.graph.FlowGraph.version>`, so
    adding COMM edges (or any other mutation) forces a re-solve.
    """

    def _solve() -> DataflowResult:
        problem = ReachingConstantsProblem(icfg, mpi_model)
        entry, exit_ = icfg.entry_exit(icfg.root)
        return solve(icfg.graph, entry, exit_, problem, strategy=strategy)

    if cache is None:
        return _solve()
    return cache.get_or_build(rc_key(program, icfg, mpi_model, strategy), _solve)


def analysis_key(name: str, program: Program, icfg: ICFG, req) -> tuple:
    """Cache key for a registry analysis run (see
    :mod:`repro.analyses.registry`).  Carries the graph's mutation
    version like :func:`rc_key`, plus every request knob that shapes
    the fixed point (seeds, model, strategy)."""
    return (
        "analysis",
        name,
        program_fingerprint(program),
        icfg.root,
        icfg.clone_level,
        tuple(req.independents),
        tuple(req.dependents),
        req.mpi_model.value,
        req.strategy,
        req.record_provenance,
        getattr(req, "query", None),
        icfg.graph.version,
    )


def run_analysis_cached(
    name: str,
    icfg: ICFG,
    program: Program,
    req=None,
    cache: Optional[ArtifactCache] = None,
):
    """Run any registered analysis by name, content-addressed.

    A registry-driven sibling of :func:`reaching_constants_cached`
    (which keeps its own key scheme for compatibility): results are
    keyed on the program fingerprint, the request knobs, and the
    graph's mutation version, so adding COMM edges re-solves.
    """
    from ..analyses import registry

    entry = registry.get(name)
    if req is None:
        req = registry.AnalyzeRequest()

    def _run():
        with get_tracer().span("analysis.run", analysis=name):
            return registry.run_entry(entry, icfg, req)

    if cache is None:
        return _run()
    return cache.get_or_build(analysis_key(name, program, icfg, req), _run)
