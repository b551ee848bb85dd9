"""Useful analysis — the backward phase of activity analysis (§2, §3).

Computes, at every program point, the set of (real-typed) variables
needed to compute the selected *dependent* variables.  Over a
communication edge the analysis propagates a boolean from receives back
to sends: ``commIN(n) = f_comm(OUT(n)) = { true | y ∈ OUT(n) }`` for a
receive of ``y``; the sent variable joins the send node's IN set when
any communication successor reports true.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cfg.icfg import ICFG
from repro.cfg.node import AssignNode, Edge, EdgeKind, MpiNode, Node
from repro.dataflow.bitset import BitsetFacts
from repro.dataflow.framework import DataFlowProblem, Direction
from repro.dataflow.interproc import InterprocMaps
from repro.dataflow.lattice import SetFact
from repro.ir.ast_nodes import VarRef
from repro.ir.mpi_ops import MpiKind
from repro.ir.symtab import is_global_qname
from repro.analyses.defuse import diff_use_qnames
from repro.analyses.mpi_model import MPI_BUFFER_QNAME, MpiModel, data_buffers

__all__ = ["UsefulProblem", "useful_analysis"]

EMPTY: SetFact = frozenset()


class UsefulProblem(BitsetFacts, DataFlowProblem[SetFact, bool]):
    """Backward "needed for the dependents" set analysis.

    Remember the orientation: the solver's ``before`` is the program-
    order OUT set and ``transfer`` produces the program-order IN set.
    """

    direction = Direction.BACKWARD
    name = "useful"

    def __init__(
        self,
        icfg: ICFG,
        dependents: Sequence[str],
        mpi_model: MpiModel = MpiModel.COMM_EDGES,
    ):
        self.icfg = icfg
        self.symtab = icfg.symtab
        self.mpi_model = mpi_model
        self.maps = InterprocMaps(icfg)
        # Seeds may be bare names (resolved in the root scope) or
        # pre-qualified names (used by the two-copy baseline).
        self.dependents = frozenset(
            name if "::" in name else self.symtab.qname(icfg.root, name)
            for name in dependents
        )
        for q in self.dependents:
            if not self.symtab.symbol_of_qname(q).type.is_real:
                raise ValueError(f"dependent {q} is not real-typed")

    # -- lattice ----------------------------------------------------------

    def top(self) -> SetFact:
        return EMPTY

    def boundary(self) -> SetFact:
        base = self.dependents
        if self.mpi_model.uses_global_buffer:
            # The global buffer is declared dependent as well (§5.1).
            base = base | {MPI_BUFFER_QNAME}
        return base

    def meet(self, a: SetFact, b: SetFact) -> SetFact:
        return a | b

    # -- transfer -----------------------------------------------------------

    def transfer(self, node: Node, fact: SetFact, comm: Optional[bool]) -> SetFact:
        if isinstance(node, AssignNode):
            sym = self.symtab.try_lookup(node.proc, node.target.name)
            if sym is None:
                return fact
            tq = sym.qname
            if tq not in fact:
                return fact  # assignment to a non-useful variable
            uses = diff_use_qnames(node.value, self.symtab, node.proc)
            if isinstance(node.target, VarRef):
                return (fact - {tq}) | uses
            # Array-element store: the other elements stay useful.
            return fact | uses
        if isinstance(node, MpiNode):
            return self._transfer_mpi(node, fact, comm)
        return fact

    def _transfer_mpi(
        self, node: MpiNode, fact: SetFact, comm: Optional[bool]
    ) -> SetFact:
        model = self.mpi_model
        if model is MpiModel.COMM_EDGES:
            return self._mpi_comm(node, fact, comm)
        if model is MpiModel.IGNORE:
            return self._mpi_ignore(node, fact)
        return self._mpi_global(node, fact, weak=model is MpiModel.GLOBAL_BUFFER)

    def _mpi_comm(self, node: MpiNode, fact: SetFact, comm: Optional[bool]) -> SetFact:
        kind = node.mpi_kind
        bufs = data_buffers(node, self.symtab)
        needed = bool(comm)
        if kind is MpiKind.SYNC:
            return fact
        if kind is MpiKind.SEND:
            buf = bufs.sent
            if buf is None:
                return fact
            return fact | {buf.qname} if (needed and buf.is_real) else fact
        if kind is MpiKind.RECV:
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

    def _mpi_ignore(self, node: MpiNode, fact: SetFact) -> SetFact:
        bufs = data_buffers(node, self.symtab)
        buf = bufs.received
        if buf is not None and buf.strong:
            return fact - {buf.qname}
        return fact

    def _mpi_global(self, node: MpiNode, fact: SetFact, weak: bool) -> SetFact:
        kind = node.mpi_kind
        if kind is MpiKind.SYNC:
            return fact
        bufs = data_buffers(node, self.symtab)
        out = fact
        # Receive side first (in backward order the receive's write is
        # the later event): buf = __mpi_buffer.
        if bufs.received is not None:
            buf = bufs.received
            buffer_needed = buf.qname in out
            if buf.strong:
                out = out - {buf.qname}
            if buffer_needed:
                out = out | {MPI_BUFFER_QNAME}
        # Send side: __mpi_buffer = sent.
        if bufs.sent is not None:
            sent = bufs.sent
            if MPI_BUFFER_QNAME in out:
                if not weak and kind is MpiKind.SEND:
                    # Odyssée: the send strongly overwrites the buffer.
                    out = out - {MPI_BUFFER_QNAME}
                if sent.is_real:
                    out = out | {sent.qname}
        return out

    # -- interprocedural edges ----------------------------------------------

    def edge_fact(self, edge: Edge, fact: SetFact) -> SetFact:
        if edge.kind is EdgeKind.FLOW:
            return fact
        site = self.maps.site_for_edge(edge)
        if edge.kind is EdgeKind.CALL:
            # fact is IN(callee entry): useful at procedure entry.
            out = {q for q in fact if is_global_qname(q)}
            for b in site.bindings:
                if b.formal_qname in fact:
                    out |= diff_use_qnames(b.actual, self.symtab, site.caller)
            return frozenset(out)
        if edge.kind is EdgeKind.RETURN:
            # fact is IN(return site): useful just after the call.
            out = {q for q in fact if is_global_qname(q)}
            for b in site.bindings:
                if b.actual_qname is not None and b.actual_qname in fact:
                    if b.formal_type.is_real:
                        out.add(b.formal_qname)
            return frozenset(out)
        if edge.kind is EdgeKind.CALL_TO_RETURN:
            return self.maps.locals_surviving_call(fact, site)
        return fact

    # -- communication ------------------------------------------------------

    def has_comm(self) -> bool:
        return self.mpi_model.uses_comm_edges

    def comm_value(self, node: Node, before: SetFact) -> bool:
        """f_comm: is the received buffer useful after the receive?

        ``before`` is the node's program-order OUT set (backward
        orientation).
        """
        assert isinstance(node, MpiNode)
        bufs = data_buffers(node, self.symtab)
        buf = bufs.received
        return buf is not None and buf.qname in before

    def comm_meet(self, values: Sequence[bool]) -> bool:
        return any(values)
