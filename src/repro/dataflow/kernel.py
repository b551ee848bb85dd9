"""Declarative analysis kernel for set-lattice problems.

The paper's framework (§4.3) specifies an analysis by three things: a
lattice with its meet, the transfer functions, and a communication
transfer function.  Every set-based client in :mod:`repro.analyses`
shares the rest — the interprocedural CALL/RETURN renaming over
:class:`~repro.dataflow.interproc.InterprocMaps`, the four
:class:`~repro.analyses.mpi_model.MpiModel` treatments of an MPI call,
seed qualification, and the bitset fact opt-in.  This module
supplies that shared machinery once:

* :class:`AnalysisSpec` — a frozen, declarative description of one
  analysis: direction, local transfer rules for assignments and
  branches, an MPI rule, an interprocedural renaming rule, and an
  optional communication rule;
* :class:`KernelProblem` — the single
  :class:`~repro.dataflow.framework.DataFlowProblem` implementation
  that executes any spec (facts are ``frozenset``s of hashable atoms,
  meet is union);
* rule builders (:func:`ignore_recv_kill`,
  :func:`forward_global_buffer`, :func:`backward_global_buffer`,
  :func:`sent_payload_in`, :func:`received_buffer_in`) for the MPI and
  communication behaviours the clients have in common;
* escape-hatch adapters for non-set lattices
  (:class:`EnvInterprocFacts`, :func:`dispatch_mpi_model`) so the
  environment analyses (reaching constants, bitwidth) share the
  interprocedural and MPI-model plumbing without adopting set facts.

Rules receive the executing :class:`KernelProblem` as their first
argument, giving them the symbol table, the ICFG, and helpers such as
:meth:`KernelProblem.bufs` without closing over globals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence

from ..cfg.icfg import ICFG
from ..cfg.node import AssignNode, BranchNode, Edge, EdgeKind, MpiNode, Node
from ..ir.mpi_ops import ArgRole, MpiKind
from ..ir.symtab import is_global_qname
from .bitset import BitsetFacts
from .framework import DataFlowProblem, Direction
from .interproc import InterprocMaps, SiteInfo, env_surviving_call
from .lattice import EMPTY, SetFact, bool_or_meet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analyses.mpi_model import DataBuffers, MpiModel

__all__ = [
    "AnalysisSpec",
    "InterprocRule",
    "MpiRule",
    "CommRule",
    "KernelProblem",
    "qualify_seeds",
    "ignore_recv_kill",
    "forward_global_buffer",
    "backward_global_buffer",
    "sent_payload_in",
    "received_buffer_in",
    "EnvInterprocFacts",
    "dispatch_mpi_model",
]

# repro.analyses imports this module while its own package initializes,
# so the mpi_model names are bound lazily on first use instead of at
# import time (a top-level import here would be circular).
MPI_BUFFER_QNAME: str = ""
_MpiModel = None
_data_buffers = None


def _bind_mpi_api() -> None:
    global MPI_BUFFER_QNAME, _MpiModel, _data_buffers
    if _MpiModel is None:
        from ..analyses import mpi_model as m

        MPI_BUFFER_QNAME = m.MPI_BUFFER_QNAME
        _MpiModel = m.MpiModel
        _data_buffers = m.data_buffers


# -- rule containers ---------------------------------------------------------

#: Local transfer rule: ``(problem, node, fact) -> fact``.
TransferRule = Callable[["KernelProblem", Node, SetFact], SetFact]

#: MPI transfer rule usable directly as :attr:`AnalysisSpec.mpi` when
#: the analysis treats every model the same (or ignores the model):
#: ``(problem, node, fact, comm) -> fact``.
MpiTransferRule = Callable[["KernelProblem", MpiNode, SetFact, object], SetFact]


@dataclass(frozen=True)
class InterprocRule:
    """The standard qname-set CALL/RETURN renaming.

    ``uses`` is the use-collection function applied to actual argument
    expressions (``use_qnames`` or ``diff_use_qnames``); ``real_only``
    restricts the renamed names to real-typed variables, matching the
    activity analyses.  Direction decides the orientation: a FORWARD
    analysis maps actual→formal on CALL and formal→actual on RETURN, a
    BACKWARD analysis the reverse (its CALL edge carries facts *out of*
    the callee entry).  For BACKWARD rules ``real_only`` filters only
    the formal added on RETURN — the CALL side expands formals into
    actual-expression uses unfiltered, as Useful does.
    """

    uses: Callable[..., frozenset]
    real_only: bool = False


@dataclass(frozen=True)
class MpiRule:
    """Per-model MPI transfer rules, dispatched on the problem's model.

    * ``comm_edges(problem, node, fact, comm)`` — COMM_EDGES;
    * ``ignore(problem, node, fact)`` — IGNORE;
    * ``global_buffer(problem, node, fact, weak)`` — GLOBAL_BUFFER
      (``weak=True``) and ODYSSEE (``weak=False``).
    """

    comm_edges: Callable
    ignore: Callable
    global_buffer: Callable


@dataclass(frozen=True)
class CommRule:
    """The communication transfer function and its value meet.

    ``value(problem, node, before)`` is the paper's ``f_comm``; ``meet``
    combines the values arriving over all communication in-edges.
    """

    value: Callable
    meet: Callable[[Sequence], object] = bool_or_meet


@dataclass(frozen=True)
class AnalysisSpec:
    """Declarative description of one set-based analysis.

    Everything defaults to "identity"/"absent": a spec with only
    ``assign`` set is a separable intraprocedural gen/kill analysis;
    adding ``interproc``, ``mpi`` and ``comm`` makes it a full
    MPI-interprocedural one.  See ``docs/framework.md`` ("Authoring an
    analysis") for a worked example.
    """

    name: str
    direction: Direction
    description: str = ""
    #: Transfer rule for assignment nodes (identity when ``None``).
    assign: Optional[TransferRule] = None
    #: Transfer rule for branch nodes (identity when ``None``).
    branch: Optional[TransferRule] = None
    #: Either an :class:`MpiRule` (dispatched on the problem's
    #: ``mpi_model``) or a plain :data:`MpiTransferRule` callable for
    #: model-independent treatments (identity when ``None``).
    mpi: object = None
    #: Either an :class:`InterprocRule` (the standard qname renaming)
    #: or a callable ``(problem, edge, fact) -> fact`` for bespoke fact
    #: shapes; FLOW edges never reach it.  ``None`` = identity.
    interproc: object = None
    #: Communication rule; ``None`` = no COMM-edge propagation.
    comm: Optional[CommRule] = None
    #: Boundary override ``(problem) -> fact``; the default is the
    #: qualified seeds (plus the global buffer, see ``seed_mpi_buffer``).
    boundary: Optional[Callable[["KernelProblem"], SetFact]] = None
    #: Require seeds to be real-typed (activity analyses).
    seeds_real_only: bool = False
    #: Noun used in seed-validation errors ("independent x is not ...").
    seed_kind: str = "seed"
    #: Under a global-buffer model, add ``__mpi_buffer`` to the
    #: boundary (the paper's conservative ICFG assumption).
    seed_mpi_buffer: bool = False


def qualify_seeds(
    icfg: ICFG,
    names: Sequence[str],
    real_only: bool = False,
    kind: str = "seed",
) -> frozenset[str]:
    """Resolve seed names in the context routine's scope.

    Names may be bare (resolved in ``icfg.root``) or pre-qualified with
    ``::`` (used by the two-copy baseline, which seeds both copies).
    """
    symtab = icfg.symtab
    qnames = frozenset(
        name if "::" in name else symtab.qname(icfg.root, name)
        for name in names
    )
    if real_only:
        for q in qnames:
            if not symtab.symbol_of_qname(q).type.is_real:
                raise ValueError(f"{kind} {q} is not real-typed")
    return qnames


class KernelProblem(BitsetFacts, DataFlowProblem[SetFact, object]):
    """Executes an :class:`AnalysisSpec` as a data-flow problem.

    One class serves every spec: the solver-facing hooks (``transfer``,
    ``edge_fact``, ``comm_value`` …) dispatch into the spec's rules,
    and the shared behaviours — interprocedural renaming, MPI-model
    dispatch, seed qualification, bitset capability — live here once.

    ``gen_before``/``gen_after`` inject extra facts at specific nodes,
    unioned into the fact before/after the node's own rule runs (taint
    node seeds, slicing criteria).
    """

    def __init__(
        self,
        spec: AnalysisSpec,
        icfg: ICFG,
        seeds: Sequence[str] = (),
        mpi_model: "Optional[MpiModel]" = None,
        gen_before: Optional[Mapping[int, SetFact]] = None,
        gen_after: Optional[Mapping[int, SetFact]] = None,
        seed_buffer: Optional[bool] = None,
    ):
        _bind_mpi_api()
        if mpi_model is None:
            mpi_model = _MpiModel.COMM_EDGES
        self.spec = spec
        self.name = spec.name
        self.direction = spec.direction
        self.icfg = icfg
        self.symtab = icfg.symtab
        self.mpi_model = mpi_model
        self.maps = InterprocMaps(icfg)
        self.seeds = qualify_seeds(
            icfg, seeds, spec.seeds_real_only, spec.seed_kind
        )
        self._gen_before = dict(gen_before) if gen_before else None
        self._gen_after = dict(gen_after) if gen_after else None
        self._seed_buffer = (
            spec.seed_mpi_buffer if seed_buffer is None else seed_buffer
        )
        # Model dispatch resolved once; transfer runs in the hot loop.
        self._model_comm_edges = mpi_model is _MpiModel.COMM_EDGES
        self._model_ignore = mpi_model is _MpiModel.IGNORE
        self._weak_global = mpi_model is _MpiModel.GLOBAL_BUFFER

    # -- helpers exposed to rules -------------------------------------------

    def bufs(self, node: MpiNode) -> "DataBuffers":
        """Send/receive buffers of an MPI node (see ``data_buffers``)."""
        return _data_buffers(node, self.symtab)

    def recv_posts(self, node: MpiNode) -> tuple[MpiNode, ...]:
        """The ``mpi_irecv`` posts completing at a wait node.

        Empty for anything that is not an ``mpi_wait``, and for waits
        whose in-flight requests are all isends.  Rules use this to gen
        received buffers at the completion point instead of the post
        (the buffer is undefined in between).
        """
        if node.mpi_kind is not MpiKind.SYNC:
            return ()
        # Lazy import: repro.mpi pulls in repro.analyses at package
        # init, which imports this module (same cycle as _bind_mpi_api).
        from ..mpi.requests import request_linkage

        linkage = request_linkage(self.icfg)
        post_ids = linkage.posts_of_wait.get(node.id)
        if not post_ids:
            return ()
        graph = self.icfg.graph
        return tuple(
            post
            for post in map(graph.node, sorted(post_ids))
            if post.mpi_kind is MpiKind.RECV
        )

    # -- lattice -------------------------------------------------------------

    def top(self) -> SetFact:
        return EMPTY

    def boundary(self) -> SetFact:
        if self.spec.boundary is not None:
            return self.spec.boundary(self)
        base = self.seeds
        if self._seed_buffer and self.mpi_model.uses_global_buffer:
            base = base | {MPI_BUFFER_QNAME}
        return base

    def meet(self, a: SetFact, b: SetFact) -> SetFact:
        return a | b

    # -- transfer ------------------------------------------------------------

    def transfer(self, node: Node, fact: SetFact, comm) -> SetFact:
        gen = self._gen_before
        if gen is not None:
            extra = gen.get(node.id)
            if extra is not None:
                fact = fact | extra
        spec = self.spec
        if isinstance(node, AssignNode):
            out = spec.assign(self, node, fact) if spec.assign else fact
        elif isinstance(node, MpiNode):
            out = self._transfer_mpi(node, fact, comm)
        elif spec.branch is not None and isinstance(node, BranchNode):
            out = spec.branch(self, node, fact)
        else:
            out = fact
        gen = self._gen_after
        if gen is not None:
            extra = gen.get(node.id)
            if extra is not None:
                out = out | extra
        return out

    def _transfer_mpi(self, node: MpiNode, fact: SetFact, comm) -> SetFact:
        rule = self.spec.mpi
        if rule is None:
            return fact
        if isinstance(rule, MpiRule):
            if self._model_comm_edges:
                return rule.comm_edges(self, node, fact, comm)
            if self._model_ignore:
                return rule.ignore(self, node, fact)
            return rule.global_buffer(self, node, fact, self._weak_global)
        return rule(self, node, fact, comm)

    # -- interprocedural edges ----------------------------------------------

    def edge_fact(self, edge: Edge, fact: SetFact) -> SetFact:
        if edge.kind is EdgeKind.FLOW:
            return fact
        rule = self.spec.interproc
        if rule is None:
            return fact
        if isinstance(rule, InterprocRule):
            return self._qname_edge_fact(edge, fact, rule)
        return rule(self, edge, fact)

    def _qname_edge_fact(
        self, edge: Edge, fact: SetFact, rule: InterprocRule
    ) -> SetFact:
        site = self.maps.site_for_edge(edge)
        forward = self.direction is Direction.FORWARD
        if edge.kind is EdgeKind.CALL:
            out = {q for q in fact if is_global_qname(q)}
            if forward:
                # Actual→formal: a formal depends on its actual's uses.
                for b in site.bindings:
                    if rule.real_only and not b.formal_type.is_real:
                        continue
                    if rule.uses(b.actual, self.symtab, site.caller) & fact:
                        out.add(b.formal_qname)
            else:
                # Backward CALL carries facts out of the callee entry:
                # a needed formal makes its actual's uses needed.
                for b in site.bindings:
                    if b.formal_qname in fact:
                        out |= rule.uses(b.actual, self.symtab, site.caller)
            return frozenset(out)
        if edge.kind is EdgeKind.RETURN:
            out = {q for q in fact if is_global_qname(q)}
            if forward:
                # Formal→actual write-back through by-reference args.
                for b in site.bindings:
                    if b.actual_qname is None:
                        continue
                    if b.formal_qname in fact:
                        if rule.real_only and not self.symtab.symbol_of_qname(
                            b.actual_qname
                        ).type.is_real:
                            continue
                        out.add(b.actual_qname)
            else:
                # Backward RETURN carries facts into the callee exit.
                for b in site.bindings:
                    if b.actual_qname is None:
                        continue
                    if b.actual_qname in fact:
                        if rule.real_only and not b.formal_type.is_real:
                            continue
                        out.add(b.formal_qname)
            return frozenset(out)
        if edge.kind is EdgeKind.CALL_TO_RETURN:
            return self.maps.locals_surviving_call(fact, site)
        return fact

    # -- communication -------------------------------------------------------

    def has_comm(self) -> bool:
        return self.spec.comm is not None and self.mpi_model.uses_comm_edges

    def comm_value(self, node: Node, before: SetFact):
        return self.spec.comm.value(self, node, before)

    def comm_meet(self, values: Sequence):
        return self.spec.comm.meet(values)


# -- shared MPI rule builders ------------------------------------------------


def ignore_recv_kill(exclude: frozenset = frozenset()):
    """IGNORE-model rule: an opaque receive strongly kills its buffer.

    ``exclude`` lists MPI kinds whose receive survives (taint excludes
    BCAST — the root's own value flows through).
    """

    def rule(problem: KernelProblem, node: MpiNode, fact: SetFact) -> SetFact:
        buf = problem.bufs(node).received
        if buf is not None and buf.strong and node.mpi_kind not in exclude:
            return fact - {buf.qname}
        return fact

    return rule


def forward_global_buffer(
    recv_kill_kinds: Sequence[MpiKind], require_real: bool = False
):
    """Forward global-buffer rule: sends write ``__mpi_buffer``, receives
    read it.

    ``recv_kill_kinds`` are the kinds whose strong receive kills the
    buffer variable first; ``require_real`` gates the gen on the
    received variable being real-typed (Vary).  ``weak`` (GLOBAL_BUFFER
    vs ODYSSEE) decides whether a non-flowing send strongly overwrites
    the global buffer.

    Non-blocking receives split the treatment: the ``mpi_irecv`` post
    only kills its buffer (the data has not arrived), and the buffer
    reads the global buffer at the completing ``mpi_wait``.
    """
    kills = frozenset(recv_kill_kinds)

    def rule(
        problem: KernelProblem, node: MpiNode, fact: SetFact, weak: bool
    ) -> SetFact:
        if node.mpi_kind is MpiKind.SYNC:
            posts = problem.recv_posts(node)
            if not posts:
                return fact
            out = fact
            if len(posts) == 1 and MpiKind.RECV in kills:
                buf = problem.bufs(posts[0]).received
                if buf is not None and buf.strong:
                    out = out - {buf.qname}
            if MPI_BUFFER_QNAME in out:
                for post in posts:
                    buf = problem.bufs(post).received
                    if buf is not None and (buf.is_real or not require_real):
                        out = out | {buf.qname}
            return out
        bufs = problem.bufs(node)
        out = fact
        if bufs.sent is not None:  # send / bcast / reduce / allreduce
            sends = bufs.sent.qname in out
            if not weak and not sends:
                out = out - {MPI_BUFFER_QNAME}  # Odyssée: strong assignment
            if sends:
                out = out | {MPI_BUFFER_QNAME}
        if bufs.received is not None:
            buf = bufs.received
            flows = MPI_BUFFER_QNAME in out and (buf.is_real or not require_real)
            if node.op.nonblocking:
                flows = False  # defined only at the completing wait
            if buf.strong and node.mpi_kind in kills:
                out = out - {buf.qname}
            if flows:
                out = out | {buf.qname}
        return out

    return rule


def backward_global_buffer():
    """Backward global-buffer rule (Useful): a needed receive makes the
    buffer needed, a needed buffer makes the sent variable needed.

    For non-blocking receives the buffer's write happens at the
    completing ``mpi_wait``, so the receive-side treatment runs there
    and the ``mpi_irecv`` post is an identity.
    """

    def rule(
        problem: KernelProblem, node: MpiNode, fact: SetFact, weak: bool
    ) -> SetFact:
        kind = node.mpi_kind
        if kind is MpiKind.SYNC:
            posts = problem.recv_posts(node)
            if not posts:
                return fact
            out = fact
            needed = False
            for post in posts:
                buf = problem.bufs(post).received
                if buf is not None and buf.qname in out:
                    needed = True
            if len(posts) == 1:
                buf = problem.bufs(posts[0]).received
                if buf is not None and buf.strong:
                    out = out - {buf.qname}
            if needed:
                out = out | {MPI_BUFFER_QNAME}
            return out
        bufs = problem.bufs(node)
        out = fact
        # Receive side first (in backward order the receive's write is
        # the later event): buf = __mpi_buffer.
        if bufs.received is not None and not node.op.nonblocking:
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

    return rule


# -- shared communication rule builders --------------------------------------


def sent_payload_in(uses: Callable[..., frozenset]) -> CommRule:
    """``f_comm`` for forward analyses: does the sent payload's use set
    intersect the send node's ``before`` fact?"""

    def value(problem: KernelProblem, node: Node, before: SetFact) -> bool:
        assert isinstance(node, MpiNode)
        pos = node.op.position(ArgRole.DATA_IN)
        if pos is None:
            pos = node.op.position(ArgRole.DATA_INOUT)
        if pos is None:
            return False
        arg = node.arg_at(pos)
        return bool(uses(arg, problem.symtab, node.proc) & before)

    return CommRule(value=value)


def received_buffer_in() -> CommRule:
    """``f_comm`` for backward analyses: is the received buffer in the
    receive node's ``before`` (program-order OUT) fact?

    Communication edges into a non-blocking receive land on the
    completing ``mpi_wait`` (see
    :func:`repro.mpi.mpiicfg.add_communication_edges`), so at a wait
    node the rule checks the buffers of the linked ``mpi_irecv`` posts.
    """

    def value(problem: KernelProblem, node: Node, before: SetFact) -> bool:
        assert isinstance(node, MpiNode)
        buf = problem.bufs(node).received
        if buf is not None:
            return buf.qname in before
        for post in problem.recv_posts(node):
            pbuf = problem.bufs(post).received
            if pbuf is not None and pbuf.qname in before:
                return True
        return False

    return CommRule(value=value)


# -- escape hatches for non-set lattices -------------------------------------


class EnvInterprocFacts:
    """Shared interprocedural edge mapping for dict-environment facts.

    Non-set problems (reaching constants, bitwidth) mix this in *before*
    :class:`~repro.dataflow.framework.DataFlowProblem` and implement
    :meth:`bind_call` / :meth:`bind_return`; the scope filtering —
    globals survive CALL/RETURN, only unaliased caller locals survive
    CALL_TO_RETURN — is supplied here.
    """

    maps: InterprocMaps

    def bind_call(self, site: SiteInfo, fact: dict, out: dict) -> None:
        """Populate ``out`` (already holding the globals) with the
        callee-side view of the call: formals bound to evaluated
        actuals, callee locals initialized."""
        raise NotImplementedError

    def bind_return(self, site: SiteInfo, fact: dict, out: dict) -> None:
        """Populate ``out`` (already holding the globals) with the
        caller-side view of the return: write-back through by-reference
        actuals."""
        raise NotImplementedError

    def edge_fact(self, edge: Edge, fact: dict) -> dict:
        if edge.kind is EdgeKind.FLOW:
            return fact
        site = self.maps.site_for_edge(edge)
        if edge.kind is EdgeKind.CALL:
            out = {q: v for q, v in fact.items() if is_global_qname(q)}
            self.bind_call(site, fact, out)
            return out
        if edge.kind is EdgeKind.RETURN:
            out = {q: v for q, v in fact.items() if is_global_qname(q)}
            self.bind_return(site, fact, out)
            return out
        if edge.kind is EdgeKind.CALL_TO_RETURN:
            return env_surviving_call(fact, site)
        return fact


def dispatch_mpi_model(
    model: "MpiModel",
    node: MpiNode,
    fact,
    comm,
    *,
    comm_edges: Callable,
    ignore: Callable,
    global_buffer: Callable,
):
    """Route one MPI node to the handler for ``model``.

    The escape-hatch problems call this from their ``transfer`` with
    bound methods, mirroring :class:`MpiRule` dispatch:
    ``comm_edges(node, fact, comm)``, ``ignore(node, fact)``,
    ``global_buffer(node, fact, weak)``.
    """
    _bind_mpi_api()
    if model is _MpiModel.COMM_EDGES:
        return comm_edges(node, fact, comm)
    if model is _MpiModel.IGNORE:
        return ignore(node, fact)
    return global_buffer(node, fact, model is _MpiModel.GLOBAL_BUFFER)
