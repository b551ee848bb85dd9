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
untrusted", or a slicing criterion).
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.cfg.icfg import ICFG
from repro.cfg.node import AssignNode, Edge, EdgeKind, MpiNode, Node
from repro.dataflow.bitset import BitsetFacts
from repro.dataflow.framework import DataFlowProblem, Direction
from repro.dataflow.interproc import InterprocMaps
from repro.dataflow.lattice import SetFact
from repro.ir.ast_nodes import VarRef
from repro.ir.mpi_ops import ArgRole, MpiKind
from repro.ir.symtab import is_global_qname
from repro.analyses.defuse import use_qnames
from repro.analyses.mpi_model import MPI_BUFFER_QNAME, MpiModel, data_buffers

__all__ = ["TaintProblem", "taint_analysis"]

EMPTY: SetFact = frozenset()


class TaintProblem(BitsetFacts, DataFlowProblem[SetFact, bool]):
    direction = Direction.FORWARD
    name = "taint"

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
        self.icfg = icfg
        self.symtab = icfg.symtab
        self.mpi_model = mpi_model
        self.maps = InterprocMaps(icfg)
        self.boundary_seeds = frozenset(
            name if "::" in name else self.symtab.qname(icfg.root, name)
            for name in boundary_seeds
        )
        self.node_seeds = dict(node_seeds or {})
        self.untrusted_channel = untrusted_channel

    def top(self) -> SetFact:
        return EMPTY

    def boundary(self) -> SetFact:
        base = self.boundary_seeds
        if self.untrusted_channel and self.mpi_model.uses_global_buffer:
            base = base | {MPI_BUFFER_QNAME}
        return base

    def meet(self, a: SetFact, b: SetFact) -> SetFact:
        return a | b

    # -- transfer -----------------------------------------------------------

    def transfer(self, node: Node, fact: SetFact, comm: Optional[bool]) -> SetFact:
        out = self._transfer_inner(node, fact, comm)
        seed = self.node_seeds.get(node.id)
        if seed is not None:
            out = out | {seed}
        return out

    def _transfer_inner(
        self, node: Node, fact: SetFact, comm: Optional[bool]
    ) -> SetFact:
        if isinstance(node, AssignNode):
            sym = self.symtab.try_lookup(node.proc, node.target.name)
            if sym is None:
                return fact
            tq = sym.qname
            tainted = bool(use_qnames(node.value, self.symtab, node.proc) & fact)
            out = fact - {tq} if isinstance(node.target, VarRef) else fact
            return out | {tq} if tainted else out
        if isinstance(node, MpiNode):
            return self._transfer_mpi(node, fact, comm)
        return fact

    def _transfer_mpi(
        self, node: MpiNode, fact: SetFact, comm: Optional[bool]
    ) -> SetFact:
        model = self.mpi_model
        bufs = data_buffers(node, self.symtab)
        kind = node.mpi_kind
        if kind is MpiKind.SYNC:
            return fact
        if model is MpiModel.COMM_EDGES:
            incoming = bool(comm)
            if kind is MpiKind.SEND:
                return fact
            recv = bufs.received
            if recv is None:
                return fact
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
        if model is MpiModel.IGNORE:
            recv = bufs.received
            if recv is not None and recv.strong and kind is not MpiKind.BCAST:
                return fact - {recv.qname}
            return fact
        # Global-buffer models.
        out = fact
        weak = model is MpiModel.GLOBAL_BUFFER
        if bufs.sent is not None:
            sent_tainted = bufs.sent.qname in out
            if not weak and not sent_tainted:
                out = out - {MPI_BUFFER_QNAME}
            if sent_tainted:
                out = out | {MPI_BUFFER_QNAME}
        if bufs.received is not None:
            recv = bufs.received
            buffer_tainted = MPI_BUFFER_QNAME in out
            if recv.strong and kind is MpiKind.RECV:
                out = out - {recv.qname}
            if buffer_tainted:
                out = out | {recv.qname}
        return out

    # -- interprocedural edges ----------------------------------------------

    def edge_fact(self, edge: Edge, fact: SetFact) -> SetFact:
        if edge.kind is EdgeKind.FLOW:
            return fact
        site = self.maps.site_for_edge(edge)
        if edge.kind is EdgeKind.CALL:
            out = {q for q in fact if is_global_qname(q)}
            for b in site.bindings:
                if use_qnames(b.actual, self.symtab, site.caller) & fact:
                    out.add(b.formal_qname)
            return frozenset(out)
        if edge.kind is EdgeKind.RETURN:
            out = {q for q in fact if is_global_qname(q)}
            for b in site.bindings:
                if b.actual_qname is not None and b.formal_qname in fact:
                    out.add(b.actual_qname)
            return frozenset(out)
        if edge.kind is EdgeKind.CALL_TO_RETURN:
            return self.maps.locals_surviving_call(fact, site)
        return fact

    # -- communication ------------------------------------------------------

    def has_comm(self) -> bool:
        return self.mpi_model.uses_comm_edges

    def comm_value(self, node: Node, before: SetFact) -> bool:
        assert isinstance(node, MpiNode)
        pos = node.op.position(ArgRole.DATA_IN)
        if pos is None:
            pos = node.op.position(ArgRole.DATA_INOUT)
        if pos is None:
            return False
        arg = node.arg_at(pos)
        deps = use_qnames(arg, self.symtab, node.proc)
        tainted = bool(deps & before)
        # A node-seeded send payload (e.g. slicing criterion at the
        # send itself) is handled by the seed landing in `before` of
        # downstream nodes; nothing special required here.
        return tainted

    def comm_meet(self, values: Sequence[bool]) -> bool:
        return any(values)
