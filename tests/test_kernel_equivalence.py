"""The kernel-hosted analyses match their pre-kernel implementations.

``tests/legacy`` holds verbatim frozen copies of the hand-written
problem classes (own ``edge_fact`` renaming, inline MPI-model
dispatch).  For each analysis the port must be *extensionally
identical*: byte-identical before/after fact maps AND matching solver
work counts (passes, visits, meets, transfers, comm requeues) across
(MG-1, LU-1, CG) × {roundrobin, priority}, across all four MPI models,
on the two-copy baseline graph, and on hypothesis-generated SPMD
programs.  Set problems run on bitset facts; their fixed points are
also checked against the frozen frozenset reference solver
(``benchmarks/seed_solver.py``).

The one accepted behavioral delta of the port: the backward-slice
``Need`` problem was not bitset-capable before and is now
kernel-hosted, so the two runs differ in ``SolverStats.backend`` only.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analyses.liveness import LivenessProblem
from repro.analyses.mpi_model import MpiModel
from repro.analyses.reaching_constants import ReachingConstantsProblem
from repro.analyses.reaching_defs import ReachingDefsProblem
from repro.analyses.slicing import NEED_SPEC, backward_slice
from repro.analyses.taint import TaintProblem
from repro.analyses.useful import UsefulProblem
from repro.analyses.vary import VaryProblem
from repro.analyses.bitwidth import BitwidthProblem
from repro.baselines.two_copy import build_two_copy, two_copy_activity
from repro.cfg.node import AssignNode
from repro.dataflow.kernel import KernelProblem
from repro.dataflow.solver import STRATEGIES, solve
from repro.mpi import build_mpi_icfg
from repro.programs.registry import BENCHMARKS

from benchmarks.seed_solver import seed_solve

from .gen_programs import spmd_programs
from .legacy import (
    LegacyBitwidthProblem,
    LegacyLivenessProblem,
    LegacyReachingConstantsProblem,
    LegacyReachingDefsProblem,
    LegacyTaintProblem,
    LegacyUsefulProblem,
    LegacyVaryProblem,
    legacy_need_problem,
)

BENCH_NAMES = ("MG-1", "LU-1", "Sw-3")
#: Benchmarks without non-blocking operations.  The frozen legacy
#: problems predate request-handle semantics (they complete an irecv at
#: the post, not the wait), so only blocking programs — where the port
#: is a pure refactor — are compared byte-for-byte.  Sw-3's request
#: forms are covered by tests/test_nonblocking_semantics.py instead.
BLOCKING_BENCH_NAMES = ("MG-1", "LU-1", "CG")

#: analysis -> (legacy factory, kernel factory); both take (icfg, spec).
SET_ANALYSES = {
    "vary": (
        lambda icfg, spec: LegacyVaryProblem(icfg, spec.independents),
        lambda icfg, spec: VaryProblem(icfg, spec.independents),
    ),
    "useful": (
        lambda icfg, spec: LegacyUsefulProblem(icfg, spec.dependents),
        lambda icfg, spec: UsefulProblem(icfg, spec.dependents),
    ),
    "taint": (
        lambda icfg, spec: LegacyTaintProblem(icfg, spec.independents),
        lambda icfg, spec: TaintProblem(icfg, spec.independents),
    ),
    "liveness": (
        lambda icfg, spec: LegacyLivenessProblem(icfg),
        lambda icfg, spec: LivenessProblem(icfg),
    ),
    "reaching_defs": (
        lambda icfg, spec: LegacyReachingDefsProblem(icfg),
        lambda icfg, spec: ReachingDefsProblem(icfg),
    ),
}

_icfg_cache: dict[str, object] = {}


def _benchmark_icfg(name):
    icfg = _icfg_cache.get(name)
    if icfg is None:
        spec = BENCHMARKS[name]
        icfg, _ = build_mpi_icfg(
            spec.program(), spec.root, clone_level=spec.clone_level
        )
        _icfg_cache[name] = icfg
    return icfg


def _stats_tuple(stats):
    return (
        stats.strategy,
        stats.backend,
        stats.passes,
        stats.visits,
        stats.meets,
        stats.transfers,
        stats.comm_requeues,
        stats.nodes,
    )


def _solve_pair(icfg, legacy, ported, strategy):
    entry, exit_ = icfg.entry_exit(icfg.root)
    old = solve(icfg.graph, entry, exit_, legacy, strategy=strategy)
    new = solve(icfg.graph, entry, exit_, ported, strategy=strategy)
    return old, new


def _assert_identical(old, new, ctx):
    assert new.before == old.before, ctx
    assert new.after == old.after, ctx
    assert _stats_tuple(new.stats) == _stats_tuple(old.stats), ctx


def _assert_matches_seed(icfg, legacy, new, ctx):
    """``new``'s facts equal the frozen frozenset solve of ``legacy``."""
    entry, exit_ = icfg.entry_exit(icfg.root)
    ref = seed_solve(icfg.graph, entry, exit_, legacy)
    assert new.before == ref.before, ctx
    assert new.after == ref.after, ctx


@pytest.mark.parametrize("name", BLOCKING_BENCH_NAMES)
@pytest.mark.parametrize("analysis", sorted(SET_ANALYSES))
def test_set_analyses_match_legacy(name, analysis):
    spec = BENCHMARKS[name]
    icfg = _benchmark_icfg(name)
    make_legacy, make_new = SET_ANALYSES[analysis]
    for strategy in STRATEGIES:
        old, new = _solve_pair(
            icfg, make_legacy(icfg, spec), make_new(icfg, spec), strategy
        )
        assert new.stats.backend == "bitset"
        _assert_identical(old, new, (name, analysis, strategy))
    _assert_matches_seed(icfg, make_legacy(icfg, spec), new, (name, analysis))


@pytest.mark.parametrize("model", list(MpiModel))
@pytest.mark.parametrize("analysis", ("vary", "useful", "taint"))
def test_mpi_models_match_legacy(model, analysis):
    """Every MpiModel treatment survives the port (CG)."""
    spec = BENCHMARKS["CG"]
    icfg = _benchmark_icfg("CG")
    seeds = spec.independents if analysis != "useful" else spec.dependents
    legacy_cls = {
        "vary": LegacyVaryProblem,
        "useful": LegacyUsefulProblem,
        "taint": LegacyTaintProblem,
    }[analysis]
    new_cls = {
        "vary": VaryProblem,
        "useful": UsefulProblem,
        "taint": TaintProblem,
    }[analysis]
    old, new = _solve_pair(
        icfg,
        legacy_cls(icfg, seeds, mpi_model=model),
        new_cls(icfg, seeds, mpi_model=model),
        "roundrobin",
    )
    _assert_identical(old, new, (analysis, model))
    _assert_matches_seed(
        icfg, legacy_cls(icfg, seeds, mpi_model=model), new, (analysis, model)
    )


@pytest.mark.parametrize("name", BENCH_NAMES)
@pytest.mark.parametrize(
    "make_legacy, make_new",
    [
        (LegacyReachingConstantsProblem, ReachingConstantsProblem),
        (LegacyBitwidthProblem, BitwidthProblem),
    ],
    ids=["reaching_constants", "bitwidth"],
)
def test_env_analyses_match_legacy(name, make_legacy, make_new):
    """The escape-hatch env analyses (native facts only)."""
    icfg = _benchmark_icfg(name)
    for strategy in STRATEGIES:
        old, new = _solve_pair(icfg, make_legacy(icfg), make_new(icfg), strategy)
        assert new.stats.backend == "native"
        _assert_identical(old, new, (name, strategy))


def test_need_matches_legacy():
    """The backward-slice demand problem: legacy closure class (frozenset
    facts) vs the parameterized NEED_SPEC (bitset facts)."""
    for name in BENCH_NAMES:
        spec = BENCHMARKS[name]
        icfg = _benchmark_icfg(name)
        criterion = min(
            nid
            for nid, node in icfg.graph.nodes.items()
            if isinstance(node, AssignNode)
        )
        node = icfg.graph.node(criterion)
        from repro.analyses.defuse import use_qnames

        seeds = use_qnames(node.value, icfg.symtab, node.proc)
        if not seeds:
            continue
        legacy = legacy_need_problem(icfg, criterion, seeds)
        ported = KernelProblem(
            NEED_SPEC, icfg, gen_before={criterion: seeds}
        )
        old, new = _solve_pair(icfg, legacy, ported, "roundrobin")
        # Kernel hosting makes Need bitset-capable; same fixed point and
        # the same work counts.
        assert (old.stats.backend, new.stats.backend) == ("native", "bitset")
        assert new.before == old.before, name
        assert new.after == old.after, name
        assert _stats_tuple(new.stats)[2:] == _stats_tuple(old.stats)[2:], name
        # backward_slice still runs the same analysis end to end.
        sliced = backward_slice(icfg, criterion)
        assert sliced.influence.before == old.before, name


def test_two_copy_matches_legacy():
    """The two-copy baseline's multi-entry solves survive the port."""
    spec = BENCHMARKS["MG-1"]
    two = build_two_copy(spec.program(), spec.root, clone_level=spec.clone_level)
    result = two_copy_activity(two, spec.independents, spec.dependents)
    merged = two.merged
    # Re-derive the pre-qualified "::" seeds exactly as
    # two_copy_activity does (both copies' scopes).
    legacy_vary = LegacyVaryProblem(
        merged, sorted(_two_copy_seeds(two, spec.independents))
    )
    legacy_useful = LegacyUsefulProblem(
        merged, sorted(_two_copy_seeds(two, spec.dependents))
    )
    for legacy, ported in (
        (legacy_vary, result.vary),
        (legacy_useful, result.useful),
    ):
        old = solve(
            merged.graph, two.entries, two.exits, legacy,
            strategy="roundrobin",
        )
        assert ported.before == old.before
        assert ported.after == old.after
        assert _stats_tuple(ported.stats) == _stats_tuple(old.stats)


def _two_copy_seeds(two, names):
    symtab = two.merged.symtab
    out = []
    for copy, suffix in zip(two.copies, ("__p0", "__p1")):
        for name in names:
            sym = symtab.try_lookup(copy.root, name)
            if sym is None:
                sym = symtab.lookup(copy.root, name + suffix)
            out.append(sym.qname)
    return out


@given(spmd_programs(max_segments=4))
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_generated_programs_match_legacy(prog):
    icfg, _ = build_mpi_icfg(prog, "main")
    for name, make_legacy, make_new, seeds in (
        ("vary", LegacyVaryProblem, VaryProblem, ("x",)),
        ("useful", LegacyUsefulProblem, UsefulProblem, ("out",)),
    ):
        old, new = _solve_pair(
            icfg, make_legacy(icfg, seeds), make_new(icfg, seeds), "priority"
        )
        _assert_identical(old, new, name)
        _assert_matches_seed(icfg, make_legacy(icfg, seeds), new, name)
