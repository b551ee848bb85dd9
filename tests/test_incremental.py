"""Incremental re-solve and demand-driven queries match cold solves.

The contract under test is *extensional equivalence*: after any journal
of graph mutations, :class:`IncrementalSolver` must produce before/after
fact maps byte-identical to a cold solve of the mutated graph, and a
demand query must reproduce the cold facts at its node while visiting
no more nodes than the full solve.  Deterministic cases cover each
re-solve mode (unchanged / warm / reset / cold fallback) on the Table 1
benchmarks; the hypothesis suite replays random edit streams over
generated SPMD programs across strategies.

The solver runs these set problems on bitset facts.  Each deterministic
case checks it against one of two ``reference`` solves of the mutated
graph: ``bitset``, a cold solve on the live engine, or ``native``, the
frozen frozenset solver in ``benchmarks/seed_solver.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analyses.useful import UsefulProblem
from repro.analyses.vary import VaryProblem
from repro.cfg import NoopNode
from repro.cfg.node import AssignNode, EdgeKind
from repro.dataflow.incremental import IncrementalSolver, solve_query
from repro.dataflow.solver import STRATEGIES, solve
from repro.ir import builder as b
from repro.mpi import build_mpi_icfg
from repro.programs.registry import BENCHMARKS

from benchmarks.seed_solver import seed_solve

from .gen_programs import spmd_programs

REFERENCES = ("native", "bitset")


def _fixture(name):
    """A fresh ICFG per call — these tests mutate the graph."""
    spec = BENCHMARKS[name]
    icfg, _ = build_mpi_icfg(
        spec.program(), spec.root, clone_level=spec.clone_level
    )
    entry, exit_ = icfg.entry_exit(icfg.root)
    return spec, icfg, entry, exit_


def _cold(graph, entry, exit_, factory, reference="bitset"):
    if reference == "native":
        return seed_solve(graph, entry, exit_, factory())
    return solve(graph, entry, exit_, factory(), strategy="priority")


def _assert_matches_cold(inc, cold, context):
    assert inc.before == cold.before, f"before maps diverged: {context}"
    assert inc.after == cold.after, f"after maps diverged: {context}"


def _assigns(graph):
    return sorted(
        n.id for n in (graph.node(i) for i in graph.nodes)
        if isinstance(n, AssignNode)
    )


@pytest.mark.parametrize("name", ("LU-1", "Sw-3"))
@pytest.mark.parametrize("reference", REFERENCES)
def test_payload_edits_match_cold(name, reference):
    spec, icfg, entry, exit_ = _fixture(name)
    graph = icfg.graph
    factory = lambda: VaryProblem(icfg, spec.independents)
    solver = IncrementalSolver(graph, entry, exit_, factory)
    solver.solve()
    assert solver.last_mode == "cold"
    for nid in _assigns(graph)[:5]:
        node = graph.node(nid)
        original = node.value
        node.value = b.lit(42.0)
        graph.touch_node(nid)
        inc = solver.solve()
        assert solver.last_mode == "reset"
        _assert_matches_cold(
            inc, _cold(graph, entry, exit_, factory, reference), f"edit {nid}"
        )
        node.value = original
        graph.touch_node(nid)
        inc = solver.solve()
        _assert_matches_cold(
            inc, _cold(graph, entry, exit_, factory, reference), f"revert {nid}"
        )


@pytest.mark.parametrize("reference", REFERENCES)
def test_unchanged_graph_reuses_retained_result(reference):
    spec, icfg, entry, exit_ = _fixture("LU-1")
    factory = lambda: VaryProblem(icfg, spec.independents)
    solver = IncrementalSolver(icfg.graph, entry, exit_, factory)
    first = solver.solve()
    again = solver.solve()
    assert solver.last_mode == "unchanged"
    assert again is first
    _assert_matches_cold(
        first, _cold(icfg.graph, entry, exit_, factory, reference), "cold"
    )


@pytest.mark.parametrize("name", ("LU-1", "Sw-3"))
@pytest.mark.parametrize("reference", REFERENCES)
def test_comm_edge_removal_and_readd(name, reference):
    """Dropping a matched COMM edge is a retraction (reset mode);
    restoring it is additive (warm mode).  Both must match cold."""
    spec, icfg, entry, exit_ = _fixture(name)
    graph = icfg.graph
    factory = lambda: VaryProblem(icfg, spec.independents)
    solver = IncrementalSolver(graph, entry, exit_, factory)
    solver.solve()
    comm = [e for e in graph.edges() if e.kind is EdgeKind.COMM][:3]
    assert comm, f"{name} should have matched communication"
    for edge in comm:
        graph.remove_edge(edge)
        inc = solver.solve()
        assert solver.last_mode == "reset"
        _assert_matches_cold(
            inc, _cold(graph, entry, exit_, factory, reference), f"drop {edge}"
        )
        graph.add_edge(edge.src, edge.dst, edge.kind, edge.label)
        inc = solver.solve()
        assert solver.last_mode == "warm"
        _assert_matches_cold(
            inc, _cold(graph, entry, exit_, factory, reference), f"readd {edge}"
        )


@pytest.mark.parametrize("reference", REFERENCES)
def test_interprocedural_edge_churn(reference):
    """CALL/RETURN churn invalidates problem-held interprocedural maps,
    so the solver must rebuild the problem from its factory."""
    spec, icfg, entry, exit_ = _fixture("Sw-3")
    graph = icfg.graph
    factory = lambda: VaryProblem(icfg, spec.independents)
    solver = IncrementalSolver(graph, entry, exit_, factory)
    solver.solve()
    returns = [e for e in graph.edges() if e.kind is EdgeKind.RETURN][:2]
    assert returns, "Sw-3 should have interprocedural edges"
    for edge in returns:
        graph.remove_edge(edge)
        _assert_matches_cold(
            solver.solve(),
            _cold(graph, entry, exit_, factory, reference),
            f"drop {edge}",
        )
        graph.add_edge(edge.src, edge.dst, edge.kind, edge.label)
        _assert_matches_cold(
            solver.solve(),
            _cold(graph, entry, exit_, factory, reference),
            f"readd {edge}",
        )


@pytest.mark.parametrize("reference", REFERENCES)
def test_added_node_and_edge(reference):
    spec, icfg, entry, exit_ = _fixture("LU-1")
    graph = icfg.graph
    factory = lambda: VaryProblem(icfg, spec.independents)
    solver = IncrementalSolver(graph, entry, exit_, factory)
    solver.solve()
    nid = max(graph.nodes) + 1
    graph.add_node(NoopNode(nid, graph.node(entry).proc))
    graph.add_edge(entry, nid)
    inc = solver.solve()
    assert solver.last_mode == "warm"
    cold = _cold(graph, entry, exit_, factory, reference)
    _assert_matches_cold(inc, cold, "added node")
    assert nid in inc.before and nid in inc.after


@pytest.mark.parametrize("reference", REFERENCES)
def test_journal_overflow_falls_back_to_cold(reference):
    from repro.cfg.graph import JOURNAL_CAPACITY

    spec, icfg, entry, exit_ = _fixture("LU-1")
    graph = icfg.graph
    factory = lambda: VaryProblem(icfg, spec.independents)
    solver = IncrementalSolver(graph, entry, exit_, factory)
    solver.solve()
    nid = _assigns(graph)[0]
    for _ in range(JOURNAL_CAPACITY + 1):
        graph.touch_node(nid)
    inc = solver.solve()
    assert solver.last_mode == "cold"
    _assert_matches_cold(
        inc, _cold(graph, entry, exit_, factory, reference), "overflow"
    )


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_strategy_supported(strategy):
    spec, icfg, entry, exit_ = _fixture("LU-1")
    graph = icfg.graph
    factory = lambda: VaryProblem(icfg, spec.independents)
    solver = IncrementalSolver(graph, entry, exit_, factory, strategy=strategy)
    solver.solve()
    nid = _assigns(graph)[0]
    graph.node(nid).value = b.lit(7.0)
    graph.touch_node(nid)
    _assert_matches_cold(
        solver.solve(),
        _cold(graph, entry, exit_, factory),
        strategy,
    )


@pytest.mark.parametrize("name", ("LU-1", "Sw-3"))
@pytest.mark.parametrize("reference", REFERENCES)
@pytest.mark.parametrize("analysis", ("vary", "useful"))
def test_demand_query_matches_full_solve(name, reference, analysis):
    spec, icfg, entry, exit_ = _fixture(name)
    graph = icfg.graph
    if analysis == "vary":
        factory = lambda: VaryProblem(icfg, spec.independents)
    else:
        factory = lambda: UsefulProblem(icfg, spec.dependents)
    cold = _cold(graph, entry, exit_, factory, reference)
    for node in (entry, exit_, _assigns(graph)[len(_assigns(graph)) // 2]):
        query = solve_query(graph, entry, exit_, factory(), node)
        assert query.before == cold.before[node], (name, node)
        assert query.after == cold.after[node], (name, node)
        assert query.slice_nodes <= query.total_nodes
        assert query.visits <= cold.visits


def test_query_unknown_node_raises():
    spec, icfg, entry, exit_ = _fixture("LU-1")
    with pytest.raises(KeyError):
        solve_query(
            icfg.graph, entry, exit_,
            VaryProblem(icfg, spec.independents), 10**9,
        )


# ---------------------------------------------------------------------------
# Randomized mutation streams.
# ---------------------------------------------------------------------------


@given(prog=spmd_programs(max_segments=4), data=st.data())
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_generated_mutation_streams_match_cold(prog, data):
    icfg, _ = build_mpi_icfg(prog, "main")
    entry, exit_ = icfg.entry_exit(icfg.root)
    graph = icfg.graph
    factory = lambda: VaryProblem(icfg, ("x",))
    strategy = data.draw(st.sampled_from(STRATEGIES))
    reference = data.draw(st.sampled_from(REFERENCES))
    solver = IncrementalSolver(graph, entry, exit_, factory, strategy=strategy)
    solver.solve()

    assigns = _assigns(graph)
    removed: list = []
    node_ids = sorted(graph.nodes)
    for step in range(data.draw(st.integers(min_value=1, max_value=5))):
        kinds = ["touch"] if assigns else []
        if [e for e in graph.edges() if e.kind is EdgeKind.COMM]:
            kinds.append("drop-comm")
        if removed:
            kinds.append("readd-comm")
        if not kinds:
            return
        kind = data.draw(st.sampled_from(kinds))
        if kind == "touch":
            nid = data.draw(st.sampled_from(assigns))
            graph.node(nid).value = b.lit(
                float(data.draw(st.integers(min_value=0, max_value=9)))
            )
            graph.touch_node(nid)
        elif kind == "drop-comm":
            edge = data.draw(
                st.sampled_from(
                    [e for e in graph.edges() if e.kind is EdgeKind.COMM]
                )
            )
            graph.remove_edge(edge)
            removed.append(edge)
        else:
            edge = removed.pop()
            graph.add_edge(edge.src, edge.dst, edge.kind, edge.label)

        inc = solver.solve()
        cold = _cold(graph, entry, exit_, factory, reference)
        context = (strategy, reference, step, kind)
        _assert_matches_cold(inc, cold, context)

        qnode = data.draw(st.sampled_from(node_ids))
        query = solve_query(graph, entry, exit_, factory(), qnode)
        assert query.before == cold.before[qnode], context
        assert query.after == cold.after[qnode], context
        assert query.visits <= cold.visits
