"""Liveness — a *separable* control analysis (§1).

The paper observes that bitvector analyses such as liveness do not need
communication edges: a send reads its buffer and a receive defines its
buffer, and no fact flows between processes (the receiving variable is
defined *at the receive statement*).  The spec therefore has no
communication rule and its MPI rule is a plain model-independent
callable; the test suite checks that adding communication edges leaves
its results unchanged — the separability property the paper contrasts
with reaching constants and activity.
"""

from __future__ import annotations

from typing import Sequence

from ..cfg.icfg import ICFG
from ..cfg.node import AssignNode, BranchNode, MpiNode
from ..dataflow.framework import DataflowResult, Direction
from ..dataflow.kernel import AnalysisSpec, InterprocRule, KernelProblem
from ..dataflow.lattice import SetFact
from ..dataflow.solver import solve
from ..ir.ast_nodes import VarRef
from ..ir.mpi_ops import ArgRole
from .defuse import use_qnames

__all__ = ["LIVENESS_SPEC", "LivenessProblem", "liveness_analysis"]


def _assign(problem: KernelProblem, node: AssignNode, fact: SetFact) -> SetFact:
    sym = problem.symtab.try_lookup(node.proc, node.target.name)
    uses = use_qnames(node.value, problem.symtab, node.proc)
    if isinstance(node.target, VarRef):
        if sym is not None:
            fact = fact - {sym.qname}  # strong kill
    else:
        # Array-element store: weak kill, and subscripts are read.
        for idx in node.target.indices:
            uses = uses | use_qnames(idx, problem.symtab, node.proc)
    return fact | uses


def _branch(problem: KernelProblem, node: BranchNode, fact: SetFact) -> SetFact:
    return fact | use_qnames(node.cond, problem.symtab, node.proc)


def _mpi(problem: KernelProblem, node: MpiNode, fact: SetFact, comm) -> SetFact:
    op = node.op
    out = fact
    # Kill whole-variable receive buffers and request handles (both are
    # defined here).
    for role in (ArgRole.DATA_OUT, ArgRole.REQ_OUT):
        for pos in op.positions(role):
            arg = node.arg_at(pos)
            if isinstance(arg, VarRef):
                sym = problem.symtab.try_lookup(node.proc, arg.name)
                if sym is not None:
                    out = out - {sym.qname}
    # Everything the operation reads becomes live: payloads, tags,
    # ranks, roots, communicators (and inout buffers; ``mpi_wait``'s
    # consumed request handle too).
    reads: set[str] = set()
    for spec, arg in zip(op.args, node.args):
        if spec.role in (ArgRole.DATA_OUT, ArgRole.REQ_OUT, ArgRole.REDOP):
            continue
        reads |= use_qnames(arg, problem.symtab, node.proc)
    return out | reads


LIVENESS_SPEC = AnalysisSpec(
    name="liveness",
    direction=Direction.BACKWARD,
    description="live variables (separable: no communication rule)",
    assign=_assign,
    branch=_branch,
    mpi=_mpi,
    interproc=InterprocRule(use_qnames),
)


class LivenessProblem(KernelProblem):
    def __init__(self, icfg: ICFG, live_out: Sequence[str] = ()):
        super().__init__(LIVENESS_SPEC, icfg, seeds=live_out)
        self.live_out = self.seeds


def liveness_analysis(
    icfg: ICFG,
    live_out: Sequence[str] = (),
    strategy: str = "roundrobin",
    record_convergence: bool = False,
    record_provenance: bool = False,
) -> DataflowResult:
    problem = LivenessProblem(icfg, live_out)
    entry, exit_ = icfg.entry_exit(icfg.root)
    return solve(
        icfg.graph,
        entry,
        exit_,
        problem,
        strategy=strategy,
        record_convergence=record_convergence,
        record_provenance=record_provenance,
    )
