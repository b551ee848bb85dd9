"""Reaching definitions — the second *separable* control analysis (§1).

Facts are sets of ``(qname, defining node id)`` pairs.  As the paper
notes, "reaching definitions do not flow between a send and a receive
since the send and receive may be in different processes, and the
variable that receives the sent value is defined at the receive
statement" — so no communication edges are consulted: a receive simply
generates a definition of its buffer.

The pair-shaped facts do not fit the kernel's standard qname renaming,
so the spec supplies a custom interprocedural rule (and boundary); the
kernel still provides the transfer plumbing and bitset opt-in.
"""

from __future__ import annotations

from ..cfg.icfg import ICFG
from ..cfg.node import AssignNode, Edge, EdgeKind, MpiNode
from ..dataflow.framework import DataflowResult, Direction
from ..dataflow.interproc import pairs_surviving_call
from ..dataflow.kernel import AnalysisSpec, KernelProblem
from ..dataflow.solver import solve
from ..ir.ast_nodes import VarRef
from ..ir.mpi_ops import ArgRole
from ..ir.symtab import is_global_qname

__all__ = [
    "REACHING_DEFS_SPEC",
    "ReachingDefsProblem",
    "reaching_defs_analysis",
    "DefFact",
]

#: A fact is a frozenset of (qualified name, defining node id).
DefFact = frozenset

#: Pseudo node id for "defined before the context routine" (inputs).
ENTRY_DEF = -1


def _boundary(problem: KernelProblem) -> DefFact:
    root = problem.icfg.root
    defs = {(s.qname, ENTRY_DEF) for s in problem.symtab.globals.values()}
    defs |= {(s.qname, ENTRY_DEF) for s in problem.symtab.procs[root]}
    return frozenset(defs)


def _assign(problem: KernelProblem, node: AssignNode, fact: DefFact) -> DefFact:
    sym = problem.symtab.try_lookup(node.proc, node.target.name)
    if sym is None:
        return fact
    q = sym.qname
    if isinstance(node.target, VarRef):
        fact = frozenset(p for p in fact if p[0] != q)
    return fact | {(q, node.id)}


def _mpi(problem: KernelProblem, node: MpiNode, fact: DefFact, comm) -> DefFact:
    out = fact
    written = list(node.op.positions(ArgRole.DATA_OUT)) + list(
        node.op.positions(ArgRole.DATA_INOUT)
    )
    # A non-blocking receive defines its *request handle* here; the
    # buffer is only defined at the completing mpi_wait (handled below).
    if node.op.nonblocking:
        written = [
            p for p in written if p not in node.op.positions(ArgRole.DATA_OUT)
        ]
    written += list(node.op.positions(ArgRole.REQ_OUT))
    for pos in written:
        arg = node.arg_at(pos)
        if not isinstance(arg, VarRef):
            sym = problem.symtab.try_lookup(node.proc, arg.name)
            if sym is not None:
                out = out | {(sym.qname, node.id)}
            continue
        sym = problem.symtab.try_lookup(node.proc, arg.name)
        if sym is None:
            continue
        q = sym.qname
        out = frozenset(p for p in out if p[0] != q) | {(q, node.id)}
    # mpi_wait completing irecv posts defines their buffers (strong
    # only when a single post can complete here).
    posts = problem.recv_posts(node)
    for post in posts:
        buf = problem.bufs(post).received
        if buf is None:
            continue
        q = buf.qname
        if len(posts) == 1 and buf.strong:
            out = frozenset(p for p in out if p[0] != q) | {(q, node.id)}
        else:
            out = out | {(q, node.id)}
    return out


def _interproc(problem: KernelProblem, edge: Edge, fact: DefFact) -> DefFact:
    site = problem.maps.site_for_edge(edge)
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
        return pairs_surviving_call(fact, site)
    return fact


REACHING_DEFS_SPEC = AnalysisSpec(
    name="reaching-defs",
    direction=Direction.FORWARD,
    description="reaching (qname, def-site) pairs (separable)",
    assign=_assign,
    mpi=_mpi,
    interproc=_interproc,
    boundary=_boundary,
)


class ReachingDefsProblem(KernelProblem):
    def __init__(self, icfg: ICFG):
        super().__init__(REACHING_DEFS_SPEC, icfg)


def reaching_defs_analysis(
    icfg: ICFG,
    strategy: str = "roundrobin",
    record_convergence: bool = False,
    record_provenance: bool = False,
) -> DataflowResult:
    problem = ReachingDefsProblem(icfg)
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
