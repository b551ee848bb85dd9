"""Every solver strategy reaches the seed solver's fixed point.

The reference is the frozen frozenset solver
(``benchmarks/seed_solver.py``, round-robin); the live solver runs
these set problems on bitset facts.  Equivalence is asserted over every
Table 1 registry program for two forward analyses (Vary, reaching
definitions) and two backward ones (Useful, liveness), and over
randomly generated SPMD programs via hypothesis.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analyses.liveness import LivenessProblem
from repro.analyses.reaching_defs import ReachingDefsProblem
from repro.analyses.useful import UsefulProblem
from repro.analyses.vary import VaryProblem
from repro.dataflow.solver import STRATEGIES, solve
from repro.mpi import build_mpi_icfg
from repro.programs.registry import BENCHMARKS

from benchmarks.seed_solver import seed_solve

from .gen_programs import spmd_programs

ANALYSES = {
    "vary": lambda icfg, spec: VaryProblem(icfg, spec.independents),
    "reaching_defs": lambda icfg, spec: ReachingDefsProblem(icfg),
    "useful": lambda icfg, spec: UsefulProblem(icfg, spec.dependents),
    "liveness": lambda icfg, spec: LivenessProblem(icfg),
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


def _assert_all_configs_agree(icfg, make_problem):
    entry, exit_ = icfg.entry_exit(icfg.root)
    ref = seed_solve(icfg.graph, entry, exit_, make_problem())
    for strategy in STRATEGIES:
        res = solve(icfg.graph, entry, exit_, make_problem(), strategy=strategy)
        assert res.before == ref.before, strategy
        assert res.after == ref.after, strategy
        assert res.stats.backend == "bitset"
        assert res.stats.strategy == strategy
        if strategy == "roundrobin":
            # Round-robin passes are the paper's Iter column.
            assert res.iterations == ref.iterations


def test_sanity_config_axes():
    assert STRATEGIES == ("roundrobin", "priority")


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
@pytest.mark.parametrize("analysis", sorted(ANALYSES))
def test_registry_program_equivalence(name, analysis):
    spec = BENCHMARKS[name]
    icfg = _benchmark_icfg(name)
    make = ANALYSES[analysis]
    _assert_all_configs_agree(icfg, lambda: make(icfg, spec))


@given(spmd_programs(max_segments=4))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_generated_program_equivalence(prog):
    icfg, _ = build_mpi_icfg(prog, "main")
    _assert_all_configs_agree(icfg, lambda: VaryProblem(icfg, ("x",)))
