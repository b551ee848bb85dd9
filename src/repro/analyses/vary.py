"""Vary analysis — the forward phase of activity analysis (§2).

Computes, at every program point, the set of (real-typed) variables
whose values depend on the selected *independent* variables.  Over a
communication edge the analysis propagates a boolean: true iff the sent
variable is in the send node's IN set; a receive includes its buffer in
OUT iff any incoming communication edge carries true.

Defined declaratively as :data:`VARY_SPEC`; the kernel
(:mod:`repro.dataflow.kernel`) supplies the interprocedural renaming,
the MPI-model dispatch, and the bitset fact path.
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
    forward_global_buffer,
    ignore_recv_kill,
    sent_payload_in,
)
from ..dataflow.lattice import SetFact
from ..dataflow.solver import solve
from ..ir.ast_nodes import ArrayRef, VarRef
from ..ir.mpi_ops import MpiKind
from .defuse import diff_use_qnames
from .mpi_model import MpiModel

__all__ = ["VARY_SPEC", "VaryProblem", "vary_analysis"]


def _target_info(
    problem: KernelProblem, node: AssignNode
) -> tuple[Optional[str], bool, bool]:
    """(qname, is_real, strong) of the assignment target."""
    sym = problem.symtab.try_lookup(node.proc, node.target.name)
    if sym is None:
        return None, False, True
    strong = isinstance(node.target, VarRef)
    return sym.qname, sym.type.is_real, strong


def _assign(problem: KernelProblem, node: AssignNode, fact: SetFact) -> SetFact:
    tq, is_real, strong = _target_info(problem, node)
    if tq is None:
        return fact
    varies = is_real and bool(
        diff_use_qnames(node.value, problem.symtab, node.proc) & fact
    )
    if strong:
        out = fact - {tq}
    else:
        out = fact
    return out | {tq} if varies else out


def _mpi_comm(
    problem: KernelProblem, node: MpiNode, fact: SetFact, comm: Optional[bool]
) -> SetFact:
    kind = node.mpi_kind
    bufs = problem.bufs(node)
    incoming = bool(comm)
    if kind is MpiKind.SYNC:
        # A wait completing irecv posts writes their buffers here: the
        # matched senders' COMM edges land on this node.  Strong kill
        # only when exactly one post can complete (several posts mean
        # only one buffer is actually written).
        posts = problem.recv_posts(node)
        if not posts:
            return fact
        out = fact
        if len(posts) == 1:
            buf = problem.bufs(posts[0]).received
            if buf is not None and buf.strong:
                out = out - {buf.qname}
        if incoming:
            for post in posts:
                buf = problem.bufs(post).received
                if buf is not None and buf.is_real:
                    out = out | {buf.qname}
        return out
    if kind is MpiKind.SEND:
        return fact
    if kind is MpiKind.RECV:
        buf = bufs.received
        if buf is None:
            return fact
        out = fact - {buf.qname} if buf.strong else fact
        if node.op.nonblocking:
            return out  # undefined until the completing wait
        return out | {buf.qname} if (incoming and buf.is_real) else out
    if kind is MpiKind.BCAST:
        buf = bufs.received
        if buf is None:
            return fact
        # Weak: the root's own buffer survives through ``fact``.
        return fact | {buf.qname} if (incoming and buf.is_real) else fact
    if kind in (
        MpiKind.REDUCE,
        MpiKind.ALLREDUCE,
        MpiKind.GATHER,
        MpiKind.SCATTER,
    ):
        # All four combine contributed data into a result buffer;
        # gather/scatter merely move it instead of folding it.
        recv = bufs.received
        sent = bufs.sent
        own = sent is not None and sent.qname in fact
        varies = incoming or own
        if recv is None:
            return fact
        out = fact - {recv.qname} if recv.strong else fact
        return out | {recv.qname} if (varies and recv.is_real) else out
    return fact


VARY_SPEC = AnalysisSpec(
    name="vary",
    direction=Direction.FORWARD,
    description="forward activity phase: depends on the independents",
    assign=_assign,
    mpi=MpiRule(
        comm_edges=_mpi_comm,
        # The naive, incorrect treatment: a receive is just an opaque
        # definition, so the received variable stops varying.
        ignore=ignore_recv_kill(),
        global_buffer=forward_global_buffer(
            recv_kill_kinds=(
                MpiKind.RECV,
                MpiKind.REDUCE,
                MpiKind.ALLREDUCE,
                MpiKind.GATHER,
                MpiKind.SCATTER,
            ),
            require_real=True,
        ),
    ),
    interproc=InterprocRule(diff_use_qnames, real_only=True),
    # f_comm: does the sent payload vary at the send node's IN?
    comm=sent_payload_in(diff_use_qnames),
    seeds_real_only=True,
    seed_kind="independent",
    # The global buffer is declared independent (and dependent): the
    # paper's conservative ICFG assumption.
    seed_mpi_buffer=True,
)


class VaryProblem(KernelProblem):
    """Forward "depends on the independents" set analysis."""

    def __init__(
        self,
        icfg: ICFG,
        independents: Sequence[str],
        mpi_model: MpiModel = MpiModel.COMM_EDGES,
    ):
        super().__init__(VARY_SPEC, icfg, seeds=independents, mpi_model=mpi_model)
        self.independents = self.seeds


def vary_analysis(
    icfg: ICFG,
    independents: Sequence[str],
    mpi_model: MpiModel = MpiModel.COMM_EDGES,
    strategy: str = "roundrobin",
    universe=None,
    record_convergence: bool = False,
    record_provenance: bool = False,
) -> DataflowResult:
    """Solve Vary for the given independent variables of ``icfg.root``.

    ``universe`` optionally shares a
    :class:`~repro.dataflow.bitset.FactUniverse` with sibling solves
    (see :func:`repro.analyses.activity.activity_analysis`).
    """
    problem = VaryProblem(icfg, independents, mpi_model)
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


_ = ArrayRef  # referenced in docs/tests
