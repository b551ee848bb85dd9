"""Tests for the fact-provenance engine (PR 4).

Covers the three acceptance properties:

* **neutrality** — ``record_provenance=False`` (the default) produces
  byte-identical facts and :class:`SolverStats` to a provenance-enabled
  run, and allocates no recorder/trace objects, on both fact paths
  (bitset set problems and native constant environments);
* **cross-edge explanation** — explaining the received value on
  Figure 1 yields a chain whose first COMM hop is the matched send,
  with rank/tag context from the matcher, identically for the
  kernel-hosted problems and their frozen pre-kernel copies in
  ``tests/legacy``;
* **arm divergence** — the same question answered on the plain ICFG
  (global-buffer model) produces a structurally different chain with
  no COMM hops.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analyses import MpiModel, activity_analysis
from repro.analyses.bitwidth import BitwidthProblem
from repro.analyses.reaching_constants import ReachingConstantsProblem
from repro.analyses.useful import UsefulProblem
from repro.analyses.vary import VaryProblem
from repro.dataflow.solver import STRATEGIES, solve
from repro.mpi import build_mpi_icfg
from repro.obs import explain, explain_activity, render_chain
from repro.programs.registry import BENCHMARKS

from .legacy import LegacyUsefulProblem, LegacyVaryProblem


# ---------------------------------------------------------------------------
# Neutrality: the flag-off path is byte-identical to before the feature.
# ---------------------------------------------------------------------------


def _stats_key(stats):
    """SolverStats minus the wall clock (the only nondeterministic field)."""
    return dataclasses.replace(stats, wall_time_s=0.0)


@pytest.mark.parametrize("bench", ["MG-1", "LU-1"])
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("backend", ["native", "bitset"])
def test_provenance_off_is_neutral(bench, strategy, backend):
    """``backend`` picks the fact path through the problems solved:
    bitset set problems (Vary, Useful) or native environments
    (reaching constants, bitwidth)."""
    spec = BENCHMARKS[bench]
    icfg, _ = build_mpi_icfg(spec.program(), spec.root, clone_level=spec.clone_level)
    entry, exit_ = icfg.entry_exit(icfg.root)
    if backend == "bitset":
        makers = (
            lambda: VaryProblem(icfg, spec.independents),
            lambda: UsefulProblem(icfg, spec.dependents),
        )
    else:
        makers = (
            lambda: ReachingConstantsProblem(icfg),
            lambda: BitwidthProblem(icfg),
        )
    for make in makers:
        off = solve(icfg.graph, entry, exit_, make(), strategy=strategy)
        on = solve(
            icfg.graph,
            entry,
            exit_,
            make(),
            strategy=strategy,
            record_provenance=True,
        )
        assert off.stats.backend == backend
        assert off.provenance is None  # no recorder allocated when disabled
        assert on.provenance is not None
        assert off.before == on.before
        assert off.after == on.after
        assert off.iterations == on.iterations
        assert off.visits == on.visits
        assert _stats_key(off.stats) == _stats_key(on.stats)


def test_provenance_off_by_default(fig1_mpi_cfg):
    act = activity_analysis(fig1_mpi_cfg, ["x"], ["f"], MpiModel.COMM_EDGES)
    assert act.vary.provenance is None
    assert act.useful.provenance is None
    with pytest.raises(ValueError):
        explain(act.vary, 0, "main::x")


# ---------------------------------------------------------------------------
# Figure 1: chains cross the matched send→recv edge.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fig1_arms():
    """(mpi arm, icfg arm, p2p pair) for Figure 1, both with provenance
    recorded, per implementation: ``kernel`` is the live activity
    analysis; ``legacy`` solves the frozen pre-kernel Vary/Useful
    problems, the reference that provenance (which the seed solver
    cannot record) is compared against."""
    from types import SimpleNamespace

    from repro.programs import figure1

    icfg, match = build_mpi_icfg(figure1.program(), "main")
    p2p = next(p for p in match.pairs if p.reason == "p2p")
    entry, exit_ = icfg.entry_exit(icfg.root)

    def legacy(model):
        def run(problem):
            return solve(
                icfg.graph, entry, exit_, problem, record_provenance=True
            )

        return SimpleNamespace(
            vary=run(LegacyVaryProblem(icfg, ["x"], model)),
            useful=run(LegacyUsefulProblem(icfg, ["f"], model)),
        )

    def kernel(model):
        return activity_analysis(
            icfg, ["x"], ["f"], model, record_provenance=True
        )

    return {
        name: (build(MpiModel.COMM_EDGES), build(MpiModel.GLOBAL_BUFFER), p2p)
        for name, build in (("kernel", kernel), ("legacy", legacy))
    }


@pytest.mark.parametrize("impl", ["kernel", "legacy"])
def test_fig1_first_comm_hop_is_matched_send(fig1_arms, impl):
    mpi, _, p2p = fig1_arms[impl]
    chain = explain(mpi.vary, p2p.dst, "main::y")
    assert chain.found
    hops = chain.comm_hops
    assert hops, "MPI-ICFG chain must cross a communication edge"
    first = hops[0]
    assert first.source == p2p.src
    assert first.node == p2p.dst
    # Matcher context: rank/tag arguments of the matched endpoints.
    assert "mpi_send" in first.detail and "mpi_recv" in first.detail
    assert "tag=99" in first.detail
    assert "dest=1" in first.detail and "src=0" in first.detail
    # The chain starts at the independent variable's boundary seed.
    assert chain.seed is not None
    assert chain.seed.atom == "main::x"


@pytest.mark.parametrize("impl", ["kernel", "legacy"])
def test_fig1_icfg_arm_has_no_comm_hops_and_differs(fig1_arms, impl):
    mpi, ic, p2p = fig1_arms[impl]
    mpi_chain = explain(mpi.vary, p2p.dst, "main::y")
    icfg_chain = explain(ic.vary, p2p.dst, "main::y")
    assert icfg_chain.found
    assert icfg_chain.comm_hops == []
    assert icfg_chain.signature() != mpi_chain.signature()
    # Under the global-buffer model the value arrives via the synthetic
    # buffer global, not a communication edge.
    assert any("__mpi_buffer" in (s.cause or "") + s.atom for s in icfg_chain.steps)


def test_fig1_chains_identical_to_legacy(fig1_arms):
    sigs = {}
    for impl, (mpi, ic, p2p) in fig1_arms.items():
        sigs[impl] = (
            explain(mpi.vary, p2p.dst, "main::y").signature(),
            explain(ic.vary, p2p.dst, "main::y").signature(),
            explain(mpi.useful, p2p.src, "main::x").signature(),
        )
    assert sigs["kernel"] == sigs["legacy"]


def test_fig1_useful_chain_crosses_edge_backward(fig1_arms):
    mpi, _, p2p = fig1_arms["kernel"]
    chain = explain(mpi.useful, p2p.src, "main::x")
    assert chain.found
    assert chain.comm_hops, "Useful chain must cross the recv→send edge"
    hop = chain.comm_hops[0]
    # Backward problem: usefulness flows recv → send.
    assert hop.source == p2p.dst
    assert hop.node == p2p.src


def test_fig1_explain_activity_resolves_bare_names(fig1_arms):
    mpi, _, p2p = fig1_arms["kernel"]
    exp = explain_activity(mpi, p2p.dst, "y")
    assert exp.atom == "main::y"
    assert exp.active
    assert exp.vary is not None and exp.vary.found
    assert exp.useful is not None and exp.useful.found
    text = exp.render()
    assert "ACTIVE" in text


def test_render_chain_collapses_flow_runs(fig1_arms):
    mpi, _, p2p = fig1_arms["kernel"]
    chain = explain(mpi.vary, p2p.dst, "main::y")
    text = render_chain(chain)
    assert "why main::y" in text
    assert "comm" in text
    full = render_chain(chain, collapse_flow=False)
    assert len(full.splitlines()) >= len(text.splitlines())


def test_chain_as_dict_round_trips_json(fig1_arms):
    import json

    mpi, _, p2p = fig1_arms["kernel"]
    chain = explain(mpi.vary, p2p.dst, "main::y")
    blob = json.dumps(chain.as_dict())
    back = json.loads(blob)
    assert back["found"] is True
    assert back["steps"][0]["kind"] == "seed"


def test_not_derivable_reports_note(fig1_arms):
    mpi, _, p2p = fig1_arms["kernel"]
    chain = explain(mpi.vary, 0, "main::zzz_not_a_fact")
    assert not chain.found
    assert "not" in render_chain(chain)
