"""Useful analysis — the backward phase of activity analysis (§2, §3).

Computes, at every program point, the set of (real-typed) variables
needed to compute the selected *dependent* variables.  Over a
communication edge the analysis propagates a boolean from receives back
to sends: ``commIN(n) = f_comm(OUT(n)) = { true | y ∈ OUT(n) }`` for a
receive of ``y``; the sent variable joins the send node's IN set when
any communication successor reports true.

Defined declaratively as :data:`USEFUL_SPEC`; the kernel
(:mod:`repro.dataflow.kernel`) supplies the interprocedural renaming,
the MPI-model dispatch, and the bitset fact path.  Remember the
orientation: the solver's ``before`` is the program-order OUT set and
the transfer rules produce the program-order IN set.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..cfg.icfg import ICFG
from ..cfg.node import AssignNode, MpiNode
from ..dataflow.framework import DataflowResult, Direction
from ..dataflow.kernel import (
    AnalysisSpec,
    InterprocRule,
    KernelProblem,
    MpiRule,
    backward_global_buffer,
    ignore_recv_kill,
    received_buffer_in,
)
from ..dataflow.lattice import SetFact
from ..dataflow.solver import solve
from ..ir.ast_nodes import VarRef
from ..ir.mpi_ops import MpiKind
from .defuse import diff_use_qnames
from .mpi_model import MpiModel

__all__ = ["USEFUL_SPEC", "UsefulProblem", "useful_analysis"]


def _assign(problem: KernelProblem, node: AssignNode, fact: SetFact) -> SetFact:
    sym = problem.symtab.try_lookup(node.proc, node.target.name)
    if sym is None:
        return fact
    tq = sym.qname
    if tq not in fact:
        return fact  # assignment to a non-useful variable
    uses = diff_use_qnames(node.value, problem.symtab, node.proc)
    if isinstance(node.target, VarRef):
        return (fact - {tq}) | uses
    # Array-element store: the other elements stay useful.
    return fact | uses


def _mpi_comm(
    problem: KernelProblem, node: MpiNode, fact: SetFact, comm: Optional[bool]
) -> SetFact:
    kind = node.mpi_kind
    bufs = problem.bufs(node)
    needed = bool(comm)
    if kind is MpiKind.SYNC:
        # A wait completing irecv posts is where their buffers are
        # written; the backward kill runs here (the matched senders
        # learn the need through this node's COMM edges).
        posts = problem.recv_posts(node)
        if len(posts) == 1:
            buf = problem.bufs(posts[0]).received
            if buf is not None and buf.strong:
                return fact - {buf.qname}
        return fact
    if kind is MpiKind.SEND:
        buf = bufs.sent
        if buf is None:
            return fact
        return fact | {buf.qname} if (needed and buf.is_real) else fact
    if kind is MpiKind.RECV:
        if node.op.nonblocking:
            return fact  # the buffer's write happens at the wait
        buf = bufs.received
        if buf is None:
            return fact
        return fact - {buf.qname} if buf.strong else fact
    if kind is MpiKind.BCAST:
        buf = bufs.sent  # == received
        if buf is None:
            return fact
        # The root's pre-broadcast value is needed when any matched
        # broadcast's post-value is useful (weak: own OUT survives).
        return fact | {buf.qname} if (needed and buf.is_real) else fact
    if kind in (
        MpiKind.REDUCE,
        MpiKind.ALLREDUCE,
        MpiKind.GATHER,
        MpiKind.SCATTER,
    ):
        recv, sent = bufs.received, bufs.sent
        result_useful = needed or (recv is not None and recv.qname in fact)
        out = fact
        if recv is not None and recv.strong:
            out = out - {recv.qname}
        if sent is not None and sent.is_real and result_useful:
            out = out | {sent.qname}
        return out
    return fact


USEFUL_SPEC = AnalysisSpec(
    name="useful",
    direction=Direction.BACKWARD,
    description="backward activity phase: needed for the dependents",
    assign=_assign,
    mpi=MpiRule(
        comm_edges=_mpi_comm,
        ignore=ignore_recv_kill(),
        global_buffer=backward_global_buffer(),
    ),
    interproc=InterprocRule(diff_use_qnames, real_only=True),
    # f_comm: is the received buffer useful after the receive?
    comm=received_buffer_in(),
    seeds_real_only=True,
    seed_kind="dependent",
    # The global buffer is declared dependent as well (§5.1).
    seed_mpi_buffer=True,
)


class UsefulProblem(KernelProblem):
    """Backward "needed for the dependents" set analysis."""

    def __init__(
        self,
        icfg: ICFG,
        dependents: Sequence[str],
        mpi_model: MpiModel = MpiModel.COMM_EDGES,
    ):
        super().__init__(USEFUL_SPEC, icfg, seeds=dependents, mpi_model=mpi_model)
        self.dependents = self.seeds


def useful_analysis(
    icfg: ICFG,
    dependents: Sequence[str],
    mpi_model: MpiModel = MpiModel.COMM_EDGES,
    strategy: str = "roundrobin",
    universe=None,
    record_convergence: bool = False,
    record_provenance: bool = False,
) -> DataflowResult:
    """Solve Useful for the given dependent variables of ``icfg.root``.

    ``universe`` optionally shares a
    :class:`~repro.dataflow.bitset.FactUniverse` with sibling solves
    (see :func:`repro.analyses.activity.activity_analysis`).
    """
    problem = UsefulProblem(icfg, dependents, mpi_model)
    entry, exit_ = icfg.entry_exit(icfg.root)
    return solve(
        icfg.graph,
        entry,
        exit_,
        problem,
        strategy=strategy,
        universe=universe,
        record_convergence=record_convergence,
        record_provenance=record_provenance,
    )
