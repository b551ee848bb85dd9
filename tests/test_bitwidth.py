"""Tests for the bitwidth (integer range) analysis extension."""

import pytest

from repro.analyses import MpiModel
from repro.analyses.bitwidth import (
    FULL,
    INT_MAX,
    Interval,
    bits_needed,
    bitwidth_analysis,
)
from repro.cfg import build_icfg
from repro.ir import parse_program
from repro.mpi import build_mpi_cfg


def wrap(body, params="int n, int out"):
    return f"program t;\nproc main({params}) {{\n{body}\n}}\n"


def exit_env(source, model=MpiModel.COMM_EDGES):
    prog = parse_program(source)
    if model is MpiModel.COMM_EDGES:
        icfg, _ = build_mpi_cfg(prog, "main")
    else:
        icfg = build_icfg(prog, "main")
    res = bitwidth_analysis(icfg, model)
    return res.in_fact(icfg.entry_exit("main")[1])


class TestInterval:
    def test_hull(self):
        assert Interval(0, 3).hull(Interval(2, 9)) == Interval(0, 9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Interval(3, 2)

    def test_width_unsigned(self):
        assert Interval(0, 0).width == 1
        assert Interval(0, 1).width == 1
        assert Interval(0, 255).width == 8
        assert Interval(0, 256).width == 9

    def test_width_signed(self):
        assert Interval(-1, 0).width == 1
        assert Interval(-128, 127).width == 8
        assert Interval(-129, 0).width == 9

    def test_bits_needed(self):
        assert bits_needed(0, 7) == 3
        assert bits_needed(-8, 7) == 4

    def test_widening_monotone(self):
        prev = Interval(0, 3)
        grown = Interval(0, 4).widen_against(prev)
        assert grown.hi >= 4
        assert grown == Interval(0, 15)  # next threshold


class TestLocalRanges:
    def test_constant_assignment(self):
        env = exit_env(wrap("out = 5;"))
        assert env["main::out"] == Interval(5, 5)

    def test_arithmetic_ranges(self):
        env = exit_env(wrap("int a;\na = 3;\nout = a * 4 + 1;"))
        assert env["main::out"] == Interval(13, 13)

    def test_branch_hull(self):
        env = exit_env(
            wrap("if (n < 0) { out = 2; } else { out = 200; }")
        )
        assert env["main::out"] == Interval(2, 200)
        assert env["main::out"].width == 8

    def test_mod_bounds(self):
        env = exit_env(wrap("out = mod(n, 8);"))
        assert env["main::out"] == Interval(0, 7)
        assert env["main::out"].width == 3

    def test_unknown_input_is_full(self):
        env = exit_env(wrap("out = n;"))
        assert env["main::out"] == FULL
        assert env["main::out"].width == 32

    def test_loop_counter_widens_and_terminates(self):
        env = exit_env(
            wrap("int i;\nout = 0;\nfor i = 0 to 9 { out = out + 1; }")
        )
        # No branch refinement: the counter widens to a threshold, but
        # the analysis terminates and stays sound.
        assert env["main::out"].lo == 0
        assert env["main::out"].hi >= 10

    def test_negation(self):
        env = exit_env(wrap("out = -12;"))
        assert env["main::out"] == Interval(-12, -12)

    def test_rank_is_nonnegative(self):
        env = exit_env(wrap("out = mpi_comm_rank();"))
        assert env["main::out"].lo == 0
        assert env["main::out"].hi == INT_MAX


class TestCommunication:
    SRC = wrap(
        """
        int small; int got;
        int rank;
        rank = mpi_comm_rank();
        small = mod(n, 4);
        if (rank == 0) {
          call mpi_send(small, 1, 9, comm_world);
        } else {
          call mpi_recv(got, 0, 9, comm_world);
        }
        out = got;
        """
    )

    @staticmethod
    def recv_out(source, model):
        prog = parse_program(source)
        if model is MpiModel.COMM_EDGES:
            icfg, _ = build_mpi_cfg(prog, "main")
        else:
            icfg = build_icfg(prog, "main")
        res = bitwidth_analysis(icfg, model)
        recv = next(n for n in icfg.mpi_nodes() if n.op.name == "mpi_recv")
        return res.out_fact(recv.id)

    def test_received_width_from_senders(self):
        # At the receive's OUT set the buffer holds exactly the range
        # the matched sender ships (after the branch join it re-merges
        # with the other path's uninitialized memory, as it must).
        env = self.recv_out(self.SRC, MpiModel.COMM_EDGES)
        assert env["main::got"] == Interval(0, 3)
        assert env["main::got"].width == 2
        assert exit_env(self.SRC, MpiModel.COMM_EDGES)["main::got"] == FULL

    def test_global_buffer_model_is_unbounded(self):
        env = self.recv_out(self.SRC, MpiModel.GLOBAL_BUFFER)
        assert env["main::got"] == FULL
        assert env["main::got"].width == 32

    def test_two_senders_hull(self):
        src = wrap(
            """
            int a; int b; int got;
            int rank;
            a = 3; b = 100;
            rank = mpi_comm_rank();
            if (rank == 1) {
              call mpi_recv(got, 0, 9, comm_world);
            } else if (rank == 0) {
              call mpi_send(a, 1, 9, comm_world);
            } else {
              call mpi_send(b, 1, 9, comm_world);
            }
            out = got;
            """
        )
        env = self.recv_out(src, MpiModel.COMM_EDGES)
        assert env["main::got"] == Interval(3, 100)

    def test_bcast_hulls_root_value(self):
        src = wrap(
            """
            int v;
            v = mod(n, 16);
            call mpi_bcast(v, 0, comm_world);
            out = v;
            """
        )
        env = exit_env(src)
        assert env["main::v"] == Interval(0, 15)
        assert env["main::v"].width == 4

    def test_real_payload_does_not_confuse_int_analysis(self):
        src = wrap(
            """
            real rbuf; int got;
            int rank;
            rank = mpi_comm_rank();
            if (rank == 0) {
              call mpi_send(rbuf, 1, 9, comm_world);
            } else {
              call mpi_recv(got, 0, 8, comm_world);
            }
            out = got;
            """
        )
        env = exit_env(src)
        # Unmatched receive (different tag): no senders, stays FULL.
        assert env["main::got"] == FULL


class TestInterprocedural:
    def test_ranges_flow_through_calls(self):
        src = """
        program t;
        proc clampit(int v, int res) {
          res = mod(v, 32);
        }
        proc main(int n, int out) {
          call clampit(n, out);
        }
        """
        icfg = build_icfg(parse_program(src), "main")
        res = bitwidth_analysis(icfg, MpiModel.COMM_EDGES)
        env = res.in_fact(icfg.entry_exit("main")[1])
        assert env["main::out"] == Interval(0, 31)
        assert env["main::out"].width == 5

    def test_strategies_agree(self):
        src = wrap("int a;\na = mod(n, 4);\nout = a * a;")
        prog = parse_program(src)
        icfg, _ = build_mpi_cfg(prog, "main")
        rr = bitwidth_analysis(icfg, strategy="roundrobin")
        pr = bitwidth_analysis(icfg, strategy="priority")
        for nid in icfg.graph.nodes:
            assert rr.out_fact(nid) == pr.out_fact(nid)
