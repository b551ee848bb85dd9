"""Tests for reaching constants over MPI-CFG / MPI-ICFG (§3)."""

import pytest

from repro.analyses import MpiModel, reaching_constants
from repro.analyses.mpi_model import MPI_BUFFER_QNAME
from repro.cfg import build_icfg
from repro.cfg.node import AssignNode, MpiNode
from repro.dataflow.lattice import BOTTOM, TOP, const
from repro.ir import parse_program
from repro.ir.mpi_ops import MpiKind
from repro.mpi import build_mpi_cfg, build_mpi_icfg


def mpi_node(icfg, op_name, occurrence=0):
    nodes = [n for n in icfg.mpi_nodes() if n.op.name == op_name]
    return nodes[occurrence]


def env_of(result, node_id, out=True):
    env = result.out_fact(node_id) if out else result.in_fact(node_id)
    return {k: v for k, v in env.items()}


class TestFigure1:
    """The paper's worked example, §3."""

    def test_recv_out_set(self, fig1_literal_program):
        icfg, _ = build_mpi_cfg(fig1_literal_program, "main")
        res = reaching_constants(icfg)
        recv = mpi_node(icfg, "mpi_recv")
        env = env_of(res, recv.id)
        # Paper: OUT(receive) = {<x,0>, <z,2>, <b,7>, <f,⊥>, <y, sent>}.
        assert env["main::x"] == const(0)
        assert env["main::z"] == const(2)
        assert env["main::b"] == const(7)
        assert env["main::f"] == BOTTOM
        # §1 gives y = 1 (x=0; x=x+1; send(x)); §3's "2" is a typo.
        assert env["main::y"] == const(1)

    def test_send_in_has_incremented_x(self, fig1_literal_program):
        icfg, _ = build_mpi_cfg(fig1_literal_program, "main")
        res = reaching_constants(icfg)
        send = mpi_node(icfg, "mpi_send")
        assert res.in_fact(send.id)["main::x"] == const(1)

    def test_naive_model_loses_the_constant(self, fig1_literal_program):
        icfg = build_icfg(fig1_literal_program, "main")
        res = reaching_constants(icfg, MpiModel.IGNORE)
        recv = mpi_node(icfg, "mpi_recv")
        assert env_of(res, recv.id)["main::y"] == BOTTOM

    def test_global_buffer_model_loses_the_constant(self, fig1_literal_program):
        # Both sides of the rank branch update the buffer, so the meet
        # at the receive is ⊥ — Odyssée-style models can't recover y=1
        # ... actually the strong model assigns on the send path only;
        # the merge with the entry value ⊥ still loses the constant.
        icfg = build_icfg(fig1_literal_program, "main")
        res = reaching_constants(icfg, MpiModel.ODYSSEE)
        recv = mpi_node(icfg, "mpi_recv")
        assert env_of(res, recv.id)["main::y"] == BOTTOM

    def test_reduce_output_not_constant(self, fig1_literal_program):
        icfg, _ = build_mpi_cfg(fig1_literal_program, "main")
        res = reaching_constants(icfg)
        red = mpi_node(icfg, "mpi_reduce")
        assert env_of(res, red.id)["main::f"] == BOTTOM


class TestCommunicationMeet:
    def test_two_senders_same_constant(self):
        src = """
        program t;
        proc main() {
          real a; real b; real y;
          int rank;
          a = 5.0; b = 5.0;
          rank = mpi_comm_rank();
          if (rank == 1) {
            call mpi_recv(y, 0, 9, comm_world);
          } else if (rank == 0) {
            call mpi_send(a, 1, 9, comm_world);
          } else {
            call mpi_send(b, 1, 9, comm_world);
          }
        }
        """
        icfg, _ = build_mpi_cfg(parse_program(src), "main")
        res = reaching_constants(icfg)
        recv = mpi_node(icfg, "mpi_recv")
        assert env_of(res, recv.id)["main::y"] == const(5)

    def test_two_senders_different_constants(self):
        src = """
        program t;
        proc main() {
          real a; real b; real y;
          int rank;
          a = 5.0; b = 6.0;
          rank = mpi_comm_rank();
          if (rank == 1) {
            call mpi_recv(y, 0, 9, comm_world);
          } else if (rank == 0) {
            call mpi_send(a, 1, 9, comm_world);
          } else {
            call mpi_send(b, 1, 9, comm_world);
          }
        }
        """
        icfg, _ = build_mpi_cfg(parse_program(src), "main")
        res = reaching_constants(icfg)
        recv = mpi_node(icfg, "mpi_recv")
        assert env_of(res, recv.id)["main::y"] == BOTTOM


class TestCollectiveConstants:
    def make(self, op_line):
        src = f"""
        program t;
        proc main() {{
          real x; real y;
          x = 4.0;
          {op_line}
        }}
        """
        return build_mpi_cfg(parse_program(src), "main")[0]

    def test_bcast_keeps_constant(self):
        icfg = self.make("call mpi_bcast(x, 0, comm_world);")
        res = reaching_constants(icfg)
        node = mpi_node(icfg, "mpi_bcast")
        assert env_of(res, node.id)["main::x"] == const(4)

    def test_reduce_min_of_shared_constant(self):
        icfg = self.make("call mpi_reduce(x, y, min, 0, comm_world);")
        res = reaching_constants(icfg)
        node = mpi_node(icfg, "mpi_reduce")
        assert env_of(res, node.id)["main::y"] == const(4)

    def test_reduce_sum_unknown_rank_count(self):
        icfg = self.make("call mpi_reduce(x, y, sum, 0, comm_world);")
        res = reaching_constants(icfg)
        node = mpi_node(icfg, "mpi_reduce")
        assert env_of(res, node.id)["main::y"] == BOTTOM

    def test_reduce_sum_of_zeros(self):
        src = """
        program t;
        proc main() {
          real x; real y;
          x = 0.0;
          call mpi_reduce(x, y, sum, 0, comm_world);
        }
        """
        icfg, _ = build_mpi_cfg(parse_program(src), "main")
        res = reaching_constants(icfg)
        node = mpi_node(icfg, "mpi_reduce")
        assert env_of(res, node.id)["main::y"] == const(0)

    def test_reduce_prod_of_ones(self):
        src = """
        program t;
        proc main() {
          real x; real y;
          x = 1.0;
          call mpi_reduce(x, y, prod, 0, comm_world);
        }
        """
        icfg, _ = build_mpi_cfg(parse_program(src), "main")
        res = reaching_constants(icfg)
        node = mpi_node(icfg, "mpi_reduce")
        assert env_of(res, node.id)["main::y"] == const(1)


class TestInterprocedural:
    SRC = """
    program t;
    global real g;
    proc setk(real k) {
      k = 3.0;
      g = 4.0;
    }
    proc main() {
      real a;
      real t;
      t = 99.0;
      call setk(a);
      a = a + g;
    }
    """

    def test_byref_writeback(self):
        icfg = build_icfg(parse_program(self.SRC), "main")
        res = reaching_constants(icfg)
        final = [
            n
            for n in icfg.graph.nodes.values()
            if isinstance(n, AssignNode) and n.label() == "a = a + g"
        ][0]
        env = env_of(res, final.id)
        assert env["main::a"] == const(7)
        assert env["::g"] == const(4)

    def test_local_survives_call(self):
        icfg = build_icfg(parse_program(self.SRC), "main")
        res = reaching_constants(icfg)
        final = [
            n
            for n in icfg.graph.nodes.values()
            if isinstance(n, AssignNode) and n.label() == "a = a + g"
        ][0]
        # t is not passed and not global: its constant survives the call.
        assert env_of(res, final.id, out=False)["main::t"] == const(99)

    def test_callee_locals_start_bottom(self):
        src = """
        program t;
        proc reader(real out) {
          real uninit;
          out = uninit;
        }
        proc main() {
          real a;
          call reader(a);
        }
        """
        icfg = build_icfg(parse_program(src), "main")
        res = reaching_constants(icfg)
        exit_id = icfg.entry_exit("main")[1]
        # Reading uninitialized memory yields ⊥, never a constant.
        assert res.in_fact(exit_id)["main::a"] == BOTTOM

    def test_context_insensitive_merge(self):
        src = """
        program t;
        proc ident(real k, real out) {
          out = k;
        }
        proc main() {
          real r1; real r2;
          call ident(1.0, r1);
          call ident(2.0, r2);
        }
        """
        icfg = build_icfg(parse_program(src), "main")
        res = reaching_constants(icfg)
        exit_id = icfg.entry_exit("main")[1]
        env = res.in_fact(exit_id)
        # Without cloning, both call sites merge: k = ⊥ at the callee.
        assert env["main::r1"] == BOTTOM
        assert env["main::r2"] == BOTTOM

    def test_cloning_recovers_constants(self):
        src = """
        program t;
        proc ident(real k, real out) {
          call mpi_send(k, 1, 1, comm_world);
          out = k;
        }
        proc main() {
          real r1; real r2;
          call ident(1.0, r1);
          call ident(2.0, r2);
        }
        """
        icfg = build_icfg(parse_program(src), "main", clone_level=1)
        res = reaching_constants(icfg, MpiModel.IGNORE)
        exit_id = icfg.entry_exit("main")[1]
        env = res.in_fact(exit_id)
        assert env["main::r1"] == const(1)
        assert env["main::r2"] == const(2)


class TestGlobalBufferModels:
    def test_global_buffer_in_boundary(self, fig1_program):
        icfg = build_icfg(fig1_program, "main")
        res = reaching_constants(icfg, MpiModel.GLOBAL_BUFFER)
        entry = icfg.entry_exit("main")[0]
        assert res.in_fact(entry)[MPI_BUFFER_QNAME] == BOTTOM

    def test_comm_edges_have_no_buffer(self, fig1_mpi_cfg):
        res = reaching_constants(fig1_mpi_cfg, MpiModel.COMM_EDGES)
        entry = fig1_mpi_cfg.entry_exit("main")[0]
        assert MPI_BUFFER_QNAME not in res.in_fact(entry)


class TestIterationAccounting:
    def test_roundrobin_counts_passes(self, fig1_mpi_cfg):
        res = reaching_constants(fig1_mpi_cfg, strategy="roundrobin")
        assert res.iterations >= 2

    def test_priority_agrees_with_roundrobin(self, fig1_mpi_cfg):
        rr = reaching_constants(fig1_mpi_cfg, strategy="roundrobin")
        pr = reaching_constants(fig1_mpi_cfg, strategy="priority")
        for nid in fig1_mpi_cfg.graph.nodes:
            assert rr.out_fact(nid) == pr.out_fact(nid)
