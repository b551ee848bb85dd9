"""Tests of the generic data-flow solver on small synthetic problems."""

from typing import Optional, Sequence

import pytest

from repro.cfg import EdgeKind, FlowGraph, NoopNode
from repro.cfg.node import Node
from repro.dataflow import (
    BitsetAdapter,
    BitsetFacts,
    DataFlowProblem,
    Direction,
    solve,
)
from repro.dataflow.solver import SolverError

from benchmarks.seed_solver import seed_solve


def chain_graph(n: int) -> FlowGraph:
    g = FlowGraph()
    for i in range(n):
        g.add_node(NoopNode(i, "p", note=f"n{i}"))
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


class CollectNames(DataFlowProblem[frozenset, None]):
    """Forward set accumulation: each node adds its own id tag."""

    direction = Direction.FORWARD
    name = "collect"

    def top(self):
        return frozenset()

    def boundary(self):
        return frozenset({"start"})

    def meet(self, a, b):
        return a | b

    def transfer(self, node, fact, comm):
        return fact | {f"n{node.id}"}


class BackwardCollect(CollectNames):
    direction = Direction.BACKWARD
    name = "collect-bwd"


class TestForwardChain:
    def test_facts_accumulate(self):
        g = chain_graph(4)
        res = solve(g, 0, 3, CollectNames())
        assert res.in_fact(0) == {"start"}
        assert res.out_fact(3) == {"start", "n0", "n1", "n2", "n3"}

    def test_orientation_forward(self):
        g = chain_graph(2)
        res = solve(g, 0, 1, CollectNames())
        # IN is before, OUT is after in program order.
        assert "n1" not in res.in_fact(1) or True
        assert "n1" in res.out_fact(1)
        assert res.in_fact(1) == res.out_fact(0)

    def test_iterations_counted(self):
        g = chain_graph(5)
        res = solve(g, 0, 4, CollectNames())
        # RPO order converges in one changing pass plus the stable check.
        assert res.iterations == 2
        assert res.solver == "roundrobin"


class TestBackwardChain:
    def test_facts_flow_upstream(self):
        g = chain_graph(4)
        res = solve(g, 0, 3, BackwardCollect())
        assert res.out_fact(3) == {"start"}
        # Program-order IN of node 0 holds everything downstream.
        assert res.in_fact(0) == {"start", "n0", "n1", "n2", "n3"}

    def test_orientation_backward(self):
        g = chain_graph(2)
        res = solve(g, 0, 1, BackwardCollect())
        assert res.out_fact(0) == res.in_fact(1)


class TestLoops:
    def test_cycle_converges(self):
        g = chain_graph(3)
        g.add_edge(2, 0)  # back edge
        res = solve(g, 0, 2, CollectNames())
        assert res.out_fact(0) == {"start", "n0", "n1", "n2"}


class TestCommEdges:
    class CommProblem(DataFlowProblem[frozenset, bool]):
        """Forward; node 0's before-fact crosses a COMM edge to node 3
        as a boolean "the token was seen"."""

        direction = Direction.FORWARD
        name = "comm-test"

        def top(self):
            return frozenset()

        def boundary(self):
            return frozenset({"token"})

        def meet(self, a, b):
            return a | b

        def transfer(self, node, fact, comm: Optional[bool]):
            if comm:
                return fact | {"received"}
            return fact

        def has_comm(self):
            return True

        def comm_value(self, node: Node, before) -> bool:
            return "token" in before

        def comm_meet(self, values: Sequence[bool]) -> bool:
            return any(values)

    def test_value_crosses_comm_edge(self):
        # Two disconnected chains: 0->1 and 2->3, comm edge 0 => 3.
        g = FlowGraph()
        for i in range(4):
            g.add_node(NoopNode(i, "p"))
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        g.add_edge(0, 3, EdgeKind.COMM)
        res = solve(g, 0, 1, self.CommProblem())
        assert "received" in res.out_fact(3)
        # But the full fact set must NOT cross: only the boolean did.
        assert "token" not in res.out_fact(3)

    def test_no_comm_sources_means_none(self):
        g = chain_graph(2)
        res = solve(g, 0, 1, self.CommProblem())
        assert "received" not in res.out_fact(1)


class TestPriorityStrategy:
    def test_matches_roundrobin_on_loops(self):
        g = chain_graph(6)
        g.add_edge(5, 2)
        g.add_edge(3, 1)
        rr = solve(g, 0, 5, CollectNames(), strategy="roundrobin")
        pr = solve(g, 0, 5, CollectNames(), strategy="priority")
        for nid in g.nodes:
            assert rr.in_fact(nid) == pr.in_fact(nid)
            assert rr.out_fact(nid) == pr.out_fact(nid)
        assert pr.solver == "priority" and pr.visits > 0

    def test_comm_value_crosses_edge(self):
        # Longer chain so node 0's before changes late: 3->4->0, comm 0 => 2.
        g = FlowGraph()
        for i in range(5):
            g.add_node(NoopNode(i, "p"))
        g.add_edge(3, 4)
        g.add_edge(4, 0)
        g.add_edge(1, 2)
        g.add_edge(0, 2, EdgeKind.COMM)
        rr = solve(g, 3, 0, TestCommEdges.CommProblem(), strategy="roundrobin")
        pr = solve(g, 3, 0, TestCommEdges.CommProblem(), strategy="priority")
        assert rr.out_fact(2) == pr.out_fact(2)
        assert "received" in pr.out_fact(2)

    def test_drains_upstream_scc_first(self):
        # 0 -> (1 <-> 2 loop) -> 3: the loop must reach its local fixed
        # point before node 3 is evaluated, so 3 is visited exactly once.
        g = chain_graph(4)
        g.add_edge(2, 1)
        res = solve(g, 0, 3, CollectNames(), strategy="priority")
        assert res.out_fact(3) == {"start", "n0", "n1", "n2", "n3"}
        rr = solve(g, 0, 3, CollectNames(), strategy="roundrobin")
        assert res.visits <= rr.visits


class BitsetCollect(BitsetFacts, CollectNames):
    """CollectNames with bitset-lattice semantics declared."""


class TestBackends:
    def test_auto_picks_bitset_for_capable_problems(self):
        g = chain_graph(3)
        res = solve(g, 0, 2, BitsetCollect())
        assert res.stats.backend == "bitset"
        assert res.out_fact(2) == {"start", "n0", "n1", "n2"}

    def test_auto_stays_native_otherwise(self):
        g = chain_graph(3)
        res = solve(g, 0, 2, CollectNames())
        assert res.stats.backend == "native"

    def test_bitset_matches_seed_solver(self):
        g = chain_graph(5)
        g.add_edge(4, 1)
        ref = seed_solve(g, 0, 4, BitsetCollect())
        bitset = solve(g, 0, 4, BitsetCollect())
        assert bitset.stats.backend == "bitset"
        assert ref.before == bitset.before
        assert ref.after == bitset.after

    def test_bitset_requires_declaration(self):
        with pytest.raises(ValueError, match="bitset"):
            BitsetAdapter(CollectNames())

    def test_unknown_backend(self):
        # The problem's type decides the fact path; there is no flag.
        g = chain_graph(2)
        with pytest.raises(TypeError, match="backend"):
            solve(g, 0, 1, CollectNames(), backend="bitset")


class TestStats:
    def test_stats_populated(self):
        g = chain_graph(4)
        res = solve(g, 0, 3, CollectNames(), strategy="priority")
        stats = res.stats
        assert stats.strategy == "priority"
        assert stats.backend == "native"
        assert stats.visits == res.visits > 0
        assert stats.transfers > 0
        assert stats.meets > 0
        assert stats.nodes == 4
        assert stats.wall_time_s >= 0.0

    def test_stats_as_dict_round_trips(self):
        g = chain_graph(3)
        res = solve(g, 0, 2, CollectNames())
        d = res.stats.as_dict()
        assert d["strategy"] == "roundrobin"
        assert d["passes"] == res.iterations

    def test_comm_requeues_counted(self):
        # Comm edge pointing *backwards* in reverse postorder: node 1
        # drains before node 2's before-fact is known, so the priority
        # worklist must re-queue it when the communication source changes.
        g = chain_graph(3)
        g.add_edge(2, 1, EdgeKind.COMM)
        res = solve(g, 0, 2, TestCommEdges.CommProblem(), strategy="priority")
        assert "received" in res.out_fact(1)
        assert res.stats.comm_requeues > 0


class TestGraphMutation:
    def test_solver_sees_edge_removal_and_readd(self):
        # The solver caches per-graph adjacency views keyed on the
        # graph's mutation version; edits between solves must be seen.
        g = chain_graph(2)
        first = solve(g, 0, 1, CollectNames())
        assert "n0" in first.in_fact(1)
        g.remove_edge(g.flow_out(0)[0])
        severed = solve(g, 0, 1, CollectNames())
        assert "n0" not in severed.in_fact(1)
        g.add_edge(0, 1)
        restored = solve(g, 0, 1, CollectNames())
        assert restored.before == first.before
        assert restored.after == first.after


class TestSafety:
    def test_non_monotone_transfer_detected(self):
        class Flipper(CollectNames):
            def transfer(self, node, fact, comm):
                # Oscillates between {a} and {b}: no fixed point exists.
                if "a" in fact:
                    return frozenset({"b"})
                return frozenset({"a"})

            def meet(self, a, b):
                return a | b

            def boundary(self):
                return frozenset()

        g = chain_graph(1)
        g.add_edge(0, 0)  # self loop feeds the oscillation back
        with pytest.raises(SolverError):
            solve(g, 0, 0, Flipper())

    def test_unknown_strategy(self):
        g = chain_graph(2)
        with pytest.raises(ValueError):
            solve(g, 0, 1, CollectNames(), strategy="magic")

    def test_multiple_boundary_nodes(self):
        g = FlowGraph()
        for i in range(4):
            g.add_node(NoopNode(i, "p"))
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        res = solve(g, [0, 2], [1, 3], CollectNames())
        assert "start" in res.in_fact(0)
        assert "start" in res.in_fact(2)
