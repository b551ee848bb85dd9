"""Generic forward influence ("taint") analysis.

This is the engine behind two of the paper's motivating clients:

* **trust analysis** (§1, §2) — variables influenced by untrusted
  sources; over the MPI-ICFG, untrust propagates through communication
  edges only from actually-matched senders, instead of the global
  assumption that *anything* received is untrusted;
* **forward slicing** (§1) — statements influenced by a chosen
  definition; see :mod:`repro.analyses.slicing`.

Unlike Vary, influence flows through *all* value uses (array subscripts,
comparisons, nondifferentiable intrinsics) and is not restricted to
real-typed variables.  Implicit (control) flows are not tracked.

Seeds come in two forms: boundary seeds (tainted at the context
routine's entry) and node seeds (a variable becomes tainted at a
specific node's OUT — e.g. "the buffer received at this call site is
untrusted", or a slicing criterion).  Node seeds ride the kernel's
``gen_after`` injection.

Defined declaratively as :data:`TAINT_SPEC`; the kernel
(:mod:`repro.dataflow.kernel`) supplies the interprocedural renaming,
the MPI-model dispatch, and the bitset fact path.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

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
from ..ir.ast_nodes import VarRef
from ..ir.mpi_ops import MpiKind
from .defuse import use_qnames
from .mpi_model import MpiModel

__all__ = ["TAINT_SPEC", "TaintProblem", "taint_analysis"]


def _assign(problem: KernelProblem, node: AssignNode, fact: SetFact) -> SetFact:
    sym = problem.symtab.try_lookup(node.proc, node.target.name)
    if sym is None:
        return fact
    tq = sym.qname
    tainted = bool(use_qnames(node.value, problem.symtab, node.proc) & fact)
    out = fact - {tq} if isinstance(node.target, VarRef) else fact
    return out | {tq} if tainted else out


def _mpi_comm(
    problem: KernelProblem, node: MpiNode, fact: SetFact, comm: Optional[bool]
) -> SetFact:
    kind = node.mpi_kind
    incoming = bool(comm)
    if kind is MpiKind.SYNC:
        # Wait completing irecv posts: the matched senders' COMM edges
        # land here, so taint arrives with the data.
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
                if buf is not None:
                    out = out | {buf.qname}
        return out
    if kind is MpiKind.SEND:
        return fact
    bufs = problem.bufs(node)
    recv = bufs.received
    if recv is None:
        return fact
    if node.op.nonblocking and kind is MpiKind.RECV:
        # The post leaves the buffer undefined; taint lands at the wait.
        return fact - {recv.qname} if recv.strong else fact
    own = bufs.sent is not None and bufs.sent.qname in fact
    tainted = incoming or (
        own
        and kind
        in (
            MpiKind.REDUCE,
            MpiKind.ALLREDUCE,
            MpiKind.BCAST,
            MpiKind.GATHER,
            MpiKind.SCATTER,
        )
    )
    out = fact - {recv.qname} if (recv.strong and kind is not MpiKind.BCAST) else fact
    return out | {recv.qname} if tainted else out


TAINT_SPEC = AnalysisSpec(
    name="taint",
    direction=Direction.FORWARD,
    description="forward influence: reachable from the tainted seeds",
    assign=_assign,
    mpi=MpiRule(
        comm_edges=_mpi_comm,
        # BCAST is excluded from the opaque kill: the root's own value
        # flows through the broadcast.
        ignore=ignore_recv_kill(exclude=frozenset({MpiKind.BCAST})),
        global_buffer=forward_global_buffer(
            recv_kill_kinds=(MpiKind.RECV,), require_real=False
        ),
    ),
    interproc=InterprocRule(use_qnames),
    comm=sent_payload_in(use_qnames),
)


class TaintProblem(KernelProblem):
    def __init__(
        self,
        icfg: ICFG,
        boundary_seeds: Sequence[str] = (),
        node_seeds: Mapping[int, str] | None = None,
        mpi_model: MpiModel = MpiModel.COMM_EDGES,
        untrusted_channel: bool = False,
    ):
        """``boundary_seeds`` are bare names in the root scope;
        ``node_seeds`` maps node id -> qualified name forced tainted in
        that node's OUT.  ``untrusted_channel`` additionally taints the
        global communication buffer under the GLOBAL_BUFFER model — the
        paper's conservative trust assumption."""
        node_seeds = dict(node_seeds or {})
        super().__init__(
            TAINT_SPEC,
            icfg,
            seeds=boundary_seeds,
            mpi_model=mpi_model,
            gen_after={nid: frozenset({q}) for nid, q in node_seeds.items()},
            seed_buffer=untrusted_channel,
        )
        self.boundary_seeds = self.seeds
        self.node_seeds = node_seeds
        self.untrusted_channel = untrusted_channel


def taint_analysis(
    icfg: ICFG,
    boundary_seeds: Sequence[str] = (),
    node_seeds: Mapping[int, str] | None = None,
    mpi_model: MpiModel = MpiModel.COMM_EDGES,
    untrusted_channel: bool = False,
    strategy: str = "roundrobin",
    universe=None,
    record_convergence: bool = False,
    record_provenance: bool = False,
) -> DataflowResult:
    """Solve the influence analysis; see :class:`TaintProblem`."""
    problem = TaintProblem(
        icfg, boundary_seeds, node_seeds, mpi_model, untrusted_channel
    )
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
