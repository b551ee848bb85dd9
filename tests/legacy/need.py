"""Frozen copy of the inline ``Need`` demand problem.

Before the kernel port, :func:`repro.analyses.slicing.backward_slice`
defined this problem as a closure class over ``icfg``/``criterion``/
``seeds``/``mpi_model``.  The factory below reproduces it verbatim for
the equivalence tests.  Note it is *not* bitset-capable — it runs on
frozenset facts while the kernel-hosted Need runs on bitset facts — so
comparisons check facts and work counts, not ``SolverStats.backend``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analyses.defuse import use_qnames
from repro.analyses.mpi_model import MpiModel, data_buffers
from repro.cfg.icfg import ICFG
from repro.cfg.node import AssignNode, MpiNode, Node
from repro.dataflow.framework import DataFlowProblem, Direction


def legacy_need_problem(
    icfg: ICFG,
    criterion: int,
    seeds: frozenset,
    mpi_model: MpiModel = MpiModel.COMM_EDGES,
):
    from repro.ir.ast_nodes import VarRef
    from repro.ir.mpi_ops import MpiKind

    symtab = icfg.symtab

    class Need(DataFlowProblem[frozenset, bool]):
        direction = Direction.BACKWARD
        name = "backward-slice-need"

        def __init__(self):
            from repro.dataflow.interproc import InterprocMaps

            self.maps = InterprocMaps(icfg)

        def top(self):
            return frozenset()

        def boundary(self):
            return frozenset()

        def meet(self, a, b):
            return a | b

        def transfer(self, n: Node, fact, comm: Optional[bool]):
            out = fact
            if n.id == criterion:
                out = out | seeds
            if isinstance(n, AssignNode):
                sym = symtab.try_lookup(n.proc, n.target.name)
                if sym is None or sym.qname not in out:
                    return out
                uses = use_qnames(n.value, symtab, n.proc)
                if not isinstance(n.target, VarRef):
                    for idx in n.target.indices:
                        uses = uses | use_qnames(idx, symtab, n.proc)
                    return out | uses  # weak kill
                return (out - {sym.qname}) | uses
            if isinstance(n, MpiNode):
                return self._mpi(n, out, comm)
            return out

        def _mpi(self, n: MpiNode, fact, comm: Optional[bool]):
            kind = n.mpi_kind
            if kind is MpiKind.SYNC:
                return fact
            bufs = data_buffers(n, symtab)
            recv, sent = bufs.received, bufs.sent
            needed = bool(comm)  # some matched receive needs our payload
            out = fact
            if kind is MpiKind.RECV:
                if recv is not None and recv.strong:
                    out = out - {recv.qname}
                return out
            if kind is MpiKind.BCAST:
                assert sent is not None
                if needed:
                    out = out | {sent.qname}
                return out  # weak: the root's value survives via `fact`
            # Reduce-like: the result combines every rank's payload.
            result_needed = needed or (recv is not None and recv.qname in out)
            if recv is not None and recv.strong:
                out = out - {recv.qname}
            if sent is not None and result_needed:
                out = out | {sent.qname}
            return out

        def edge_fact(self, edge, fact):
            from repro.cfg.node import EdgeKind
            from repro.ir.symtab import is_global_qname

            if edge.kind is EdgeKind.FLOW:
                return fact
            site = self.maps.site_for_edge(edge)
            if edge.kind is EdgeKind.CALL:
                out = {q for q in fact if is_global_qname(q)}
                for b in site.bindings:
                    if b.formal_qname in fact:
                        out |= use_qnames(b.actual, symtab, site.caller)
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

        def has_comm(self):
            return mpi_model.uses_comm_edges

        def comm_value(self, n: Node, before) -> bool:
            assert isinstance(n, MpiNode)
            bufs = data_buffers(n, symtab)
            return bufs.received is not None and bufs.received.qname in before

        def comm_meet(self, values: Sequence[bool]) -> bool:
            return any(values)

    return Need()
