"""Liveness — a *separable* control analysis (§1).

The paper observes that bitvector analyses such as liveness do not need
communication edges: a send reads its buffer and a receive defines its
buffer, and no fact flows between processes (the receiving variable is
defined *at the receive statement*).  This implementation therefore
ignores COMM edges entirely; the test suite checks that adding
communication edges leaves its results unchanged — the separability
property the paper contrasts with reaching constants and activity.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cfg.icfg import ICFG
from repro.cfg.node import AssignNode, BranchNode, Edge, EdgeKind, MpiNode, Node
from repro.dataflow.bitset import BitsetFacts
from repro.dataflow.framework import DataFlowProblem, Direction
from repro.dataflow.interproc import InterprocMaps
from repro.dataflow.lattice import SetFact
from repro.ir.ast_nodes import VarRef
from repro.ir.mpi_ops import ArgRole, MpiKind
from repro.ir.symtab import is_global_qname
from repro.analyses.defuse import use_qnames

__all__ = ["LivenessProblem", "liveness_analysis"]

EMPTY: SetFact = frozenset()


class LivenessProblem(BitsetFacts, DataFlowProblem[SetFact, None]):
    direction = Direction.BACKWARD
    name = "liveness"

    def __init__(self, icfg: ICFG, live_out: Sequence[str] = ()):
        self.icfg = icfg
        self.symtab = icfg.symtab
        self.maps = InterprocMaps(icfg)
        self.live_out = frozenset(
            self.symtab.qname(icfg.root, name) for name in live_out
        )

    def top(self) -> SetFact:
        return EMPTY

    def boundary(self) -> SetFact:
        return self.live_out

    def meet(self, a: SetFact, b: SetFact) -> SetFact:
        return a | b

    def transfer(self, node: Node, fact: SetFact, comm: Optional[None]) -> SetFact:
        if isinstance(node, AssignNode):
            sym = self.symtab.try_lookup(node.proc, node.target.name)
            uses = use_qnames(node.value, self.symtab, node.proc)
            if isinstance(node.target, VarRef):
                if sym is not None:
                    fact = fact - {sym.qname}  # strong kill
            else:
                # Array-element store: weak kill, and subscripts are read.
                for idx in node.target.indices:
                    uses = uses | use_qnames(idx, self.symtab, node.proc)
            return fact | uses
        if isinstance(node, BranchNode):
            return fact | use_qnames(node.cond, self.symtab, node.proc)
        if isinstance(node, MpiNode):
            return self._transfer_mpi(node, fact)
        return fact

    def _transfer_mpi(self, node: MpiNode, fact: SetFact) -> SetFact:
        op = node.op
        out = fact
        # Kill whole-variable receive buffers (they are defined here).
        for pos in op.positions(ArgRole.DATA_OUT):
            arg = node.arg_at(pos)
            if isinstance(arg, VarRef):
                sym = self.symtab.try_lookup(node.proc, arg.name)
                if sym is not None:
                    out = out - {sym.qname}
        # Everything the operation reads becomes live: payloads, tags,
        # ranks, roots, communicators (and inout buffers).
        reads: set[str] = set()
        for spec, arg in zip(op.args, node.args):
            if spec.role is ArgRole.DATA_OUT or spec.role is ArgRole.REDOP:
                continue
            reads |= use_qnames(arg, self.symtab, node.proc)
        return out | reads

    def edge_fact(self, edge: Edge, fact: SetFact) -> SetFact:
        if edge.kind is EdgeKind.FLOW:
            return fact
        site = self.maps.site_for_edge(edge)
        if edge.kind is EdgeKind.CALL:
            out = {q for q in fact if is_global_qname(q)}
            for b in site.bindings:
                if b.formal_qname in fact:
                    out |= use_qnames(b.actual, self.symtab, site.caller)
            return frozenset(out)
        if edge.kind is EdgeKind.RETURN:
            out = {q for q in fact if is_global_qname(q)}
            for b in site.bindings:
                if b.actual_qname is not None and b.actual_qname in fact:
                    out.add(b.formal_qname)
            return frozenset(out)
        if edge.kind is EdgeKind.CALL_TO_RETURN:
            return self.maps.locals_surviving_call(fact, site)
        return fact
