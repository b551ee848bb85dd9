"""Reaching definitions — the second *separable* control analysis (§1).

Facts are sets of ``(qname, defining node id)`` pairs.  As the paper
notes, "reaching definitions do not flow between a send and a receive
since the send and receive may be in different processes, and the
variable that receives the sent value is defined at the receive
statement" — so no communication edges are consulted: a receive simply
generates a definition of its buffer.
"""

from __future__ import annotations

from typing import Optional

from repro.cfg.icfg import ICFG
from repro.cfg.node import AssignNode, Edge, EdgeKind, MpiNode, Node
from repro.dataflow.bitset import BitsetFacts
from repro.dataflow.framework import DataFlowProblem, Direction
from repro.dataflow.interproc import InterprocMaps
from repro.ir.ast_nodes import VarRef
from repro.ir.mpi_ops import ArgRole
from repro.ir.symtab import is_global_qname

__all__ = ["ReachingDefsProblem", "reaching_defs_analysis", "DefFact"]

#: A fact is a frozenset of (qualified name, defining node id).
DefFact = frozenset

EMPTY: DefFact = frozenset()

#: Pseudo node id for "defined before the context routine" (inputs).
ENTRY_DEF = -1


class ReachingDefsProblem(BitsetFacts, DataFlowProblem[DefFact, None]):
    direction = Direction.FORWARD
    name = "reaching-defs"

    def __init__(self, icfg: ICFG):
        self.icfg = icfg
        self.symtab = icfg.symtab
        self.maps = InterprocMaps(icfg)

    def top(self) -> DefFact:
        return EMPTY

    def boundary(self) -> DefFact:
        root = self.icfg.root
        defs = {(s.qname, ENTRY_DEF) for s in self.symtab.globals.values()}
        defs |= {(s.qname, ENTRY_DEF) for s in self.symtab.procs[root]}
        return frozenset(defs)

    def meet(self, a: DefFact, b: DefFact) -> DefFact:
        return a | b

    def transfer(self, node: Node, fact: DefFact, comm: Optional[None]) -> DefFact:
        if isinstance(node, AssignNode):
            sym = self.symtab.try_lookup(node.proc, node.target.name)
            if sym is None:
                return fact
            q = sym.qname
            if isinstance(node.target, VarRef):
                fact = frozenset(p for p in fact if p[0] != q)
            return fact | {(q, node.id)}
        if isinstance(node, MpiNode):
            out = fact
            written = list(node.op.positions(ArgRole.DATA_OUT)) + list(
                node.op.positions(ArgRole.DATA_INOUT)
            )
            for pos in written:
                arg = node.arg_at(pos)
                if not isinstance(arg, VarRef):
                    sym = self.symtab.try_lookup(node.proc, arg.name)
                    if sym is not None:
                        out = out | {(sym.qname, node.id)}
                    continue
                sym = self.symtab.try_lookup(node.proc, arg.name)
                if sym is None:
                    continue
                q = sym.qname
                out = frozenset(p for p in out if p[0] != q) | {(q, node.id)}
            return out
        return fact

    def edge_fact(self, edge: Edge, fact: DefFact) -> DefFact:
        if edge.kind is EdgeKind.FLOW:
            return fact
        site = self.maps.site_for_edge(edge)
        if edge.kind is EdgeKind.CALL:
            out = {p for p in fact if is_global_qname(p[0])}
            for b in site.bindings:
                if b.actual_qname is not None:
                    out |= {
                        (b.formal_qname, d)
                        for (q, d) in fact
                        if q == b.actual_qname
                    }
                else:
                    out.add((b.formal_qname, site.call_id))
            return frozenset(out)
        if edge.kind is EdgeKind.RETURN:
            out = {p for p in fact if is_global_qname(p[0])}
            for b in site.bindings:
                if b.actual_qname is not None:
                    out |= {
                        (b.actual_qname, d)
                        for (q, d) in fact
                        if q == b.formal_qname
                    }
            return frozenset(out)
        if edge.kind is EdgeKind.CALL_TO_RETURN:
            prefix = site.caller + "::"
            return frozenset(
                p
                for p in fact
                if p[0].startswith(prefix) and p[0] not in site.aliased
            )
        return fact
