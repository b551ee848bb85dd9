"""Vary analysis — the forward phase of activity analysis (§2).

Computes, at every program point, the set of (real-typed) variables
whose values depend on the selected *independent* variables.  Over a
communication edge the analysis propagates a boolean: true iff the sent
variable is in the send node's IN set; a receive includes its buffer in
OUT iff any incoming communication edge carries true.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cfg.icfg import ICFG
from repro.cfg.node import AssignNode, Edge, EdgeKind, MpiNode, Node
from repro.dataflow.bitset import BitsetFacts
from repro.dataflow.framework import DataFlowProblem, Direction
from repro.dataflow.interproc import InterprocMaps
from repro.dataflow.lattice import SetFact
from repro.ir.ast_nodes import ArrayRef, VarRef
from repro.ir.mpi_ops import MpiKind
from repro.ir.symtab import is_global_qname
from repro.analyses.defuse import diff_use_qnames
from repro.analyses.mpi_model import MPI_BUFFER_QNAME, MpiModel, data_buffers

__all__ = ["VaryProblem", "vary_analysis"]

EMPTY: SetFact = frozenset()


class VaryProblem(BitsetFacts, DataFlowProblem[SetFact, bool]):
    """Forward "depends on the independents" set analysis."""

    direction = Direction.FORWARD
    name = "vary"

    def __init__(
        self,
        icfg: ICFG,
        independents: Sequence[str],
        mpi_model: MpiModel = MpiModel.COMM_EDGES,
    ):
        self.icfg = icfg
        self.symtab = icfg.symtab
        self.mpi_model = mpi_model
        self.maps = InterprocMaps(icfg)
        # Seeds may be bare names (resolved in the root scope) or
        # pre-qualified names (used by the two-copy baseline).
        self.independents = frozenset(
            name if "::" in name else self.symtab.qname(icfg.root, name)
            for name in independents
        )
        for q in self.independents:
            if not self.symtab.symbol_of_qname(q).type.is_real:
                raise ValueError(f"independent {q} is not real-typed")

    # -- lattice -----------------------------------------------------------

    def top(self) -> SetFact:
        return EMPTY

    def boundary(self) -> SetFact:
        base = self.independents
        if self.mpi_model.uses_global_buffer:
            # The global buffer is declared independent (and dependent):
            # the paper's conservative ICFG assumption.
            base = base | {MPI_BUFFER_QNAME}
        return base

    def meet(self, a: SetFact, b: SetFact) -> SetFact:
        return a | b

    # -- helpers ------------------------------------------------------------

    def _rhs_varies(self, node: AssignNode, fact: SetFact) -> bool:
        return bool(diff_use_qnames(node.value, self.symtab, node.proc) & fact)

    def _target_info(self, node: AssignNode) -> tuple[Optional[str], bool, bool]:
        """(qname, is_real, strong) of the assignment target."""
        sym = self.symtab.try_lookup(node.proc, node.target.name)
        if sym is None:
            return None, False, True
        strong = isinstance(node.target, VarRef)
        return sym.qname, sym.type.is_real, strong

    # -- transfer ----------------------------------------------------------

    def transfer(self, node: Node, fact: SetFact, comm: Optional[bool]) -> SetFact:
        if isinstance(node, AssignNode):
            tq, is_real, strong = self._target_info(node)
            if tq is None:
                return fact
            varies = is_real and self._rhs_varies(node, fact)
            if strong:
                out = fact - {tq}
            else:
                out = fact
            return out | {tq} if varies else out
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
        if kind in (MpiKind.SEND, MpiKind.SYNC):
            return fact
        incoming = bool(comm)
        if kind is MpiKind.RECV:
            buf = bufs.received
            if buf is None:
                return fact
            out = fact - {buf.qname} if buf.strong else fact
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

    def _mpi_ignore(self, node: MpiNode, fact: SetFact) -> SetFact:
        # The naive, incorrect treatment: a receive is just an opaque
        # definition, so the received variable stops varying.
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
        if bufs.sent is not None:  # send / bcast / reduce / allreduce
            sends_varying = bufs.sent.qname in out
            if not weak and not sends_varying:
                out = out - {MPI_BUFFER_QNAME}  # Odyssée: strong assignment
            if sends_varying:
                out = out | {MPI_BUFFER_QNAME}
        if bufs.received is not None:
            buf = bufs.received
            receives_varying = MPI_BUFFER_QNAME in out and buf.is_real
            kills = (
                MpiKind.RECV,
                MpiKind.REDUCE,
                MpiKind.ALLREDUCE,
                MpiKind.GATHER,
                MpiKind.SCATTER,
            )
            if buf.strong and kind in kills:
                out = out - {buf.qname}
            if receives_varying:
                out = out | {buf.qname}
        return out

    # -- interprocedural edges ----------------------------------------------

    def edge_fact(self, edge: Edge, fact: SetFact) -> SetFact:
        if edge.kind is EdgeKind.FLOW:
            return fact
        site = self.maps.site_for_edge(edge)
        if edge.kind is EdgeKind.CALL:
            out = {q for q in fact if is_global_qname(q)}
            for b in site.bindings:
                if not b.formal_type.is_real:
                    continue
                deps = diff_use_qnames(b.actual, self.symtab, site.caller)
                if deps & fact:
                    out.add(b.formal_qname)
            return frozenset(out)
        if edge.kind is EdgeKind.RETURN:
            out = {q for q in fact if is_global_qname(q)}
            for b in site.bindings:
                if b.actual_qname is None:
                    continue
                if b.formal_qname in fact:
                    sym = self.symtab.symbol_of_qname(b.actual_qname)
                    if sym.type.is_real:
                        out.add(b.actual_qname)
            return frozenset(out)
        if edge.kind is EdgeKind.CALL_TO_RETURN:
            return self.maps.locals_surviving_call(fact, site)
        return fact

    # -- communication ------------------------------------------------------

    def has_comm(self) -> bool:
        return self.mpi_model.uses_comm_edges

    def comm_value(self, node: Node, before: SetFact) -> bool:
        """f_comm: does the sent payload vary at the send node's IN?"""
        assert isinstance(node, MpiNode)
        pos = node.op.position
        from repro.ir.mpi_ops import ArgRole

        p = pos(ArgRole.DATA_IN)
        if p is None:
            p = pos(ArgRole.DATA_INOUT)
        if p is None:
            return False
        arg = node.arg_at(p)
        deps = diff_use_qnames(arg, self.symtab, node.proc)
        return bool(deps & before)

    def comm_meet(self, values: Sequence[bool]) -> bool:
        return any(values)


_ = ArrayRef  # referenced in docs/tests
