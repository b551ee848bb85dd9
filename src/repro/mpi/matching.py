"""Communication-edge matching (§4.1).

Communication edges are added between possible send/isend and
receive/irecv pairs, among all calls to broadcast, and among all calls
to reduce (and, separately, allreduce).  An interprocedural reaching
constants analysis evaluates the ``tag`` and ``communicator`` arguments
(and ``root`` for collectives); a pair is ruled out only when two such
arguments evaluate to *different constants* — anything non-constant
matches conservatively.

The paper mentions, but does not use, the additional edge-reduction
heuristics of Shires et al.; we provide one of them — symbolic
rank-offset matching of ``dest``/``src`` (``rank + c`` patterns) — as
an opt-in extension (:attr:`MatchOptions.rank_heuristics`), ablated in
``benchmarks/bench_edge_matching.py``.

Join algorithm
--------------
:func:`match_communication` pairs endpoints with a *hash join*: each
receive (or collective) is bucketed by its evaluated
``(count, tag, communicator[, root])`` constant key, with non-constant
dimensions falling into a conservative wildcard bucket, and each send
probes only the buckets its own key can unify with.  On programs whose
arguments evaluate to constants this replaces the O(S×R) pairwise scan
with O(S + R) bucket probes; a fully non-constant (or
``use_constants=False``) registry degenerates gracefully to the
pairwise cost.  :func:`match_communication_nested` keeps the reference
O(S×R) loop — the two are asserted pair-for-pair identical (including
prune counters and pair order) in ``tests/test_matching_equivalence.py``.

The interprocedural reaching-constants fixed point that evaluates the
argument keys is memoised per flow graph and invalidated via the
graph's mutation :attr:`~repro.cfg.graph.FlowGraph.version`, so
repeated matching of one ICFG (e.g. the ablation benchmarks, or the
hash/nested equivalence suite) solves it once.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from typing import Optional

from ..analyses.consteval import eval_const
from ..analyses.mpi_model import MpiModel
from ..analyses.reaching_constants import ReachingConstantsProblem
from ..cfg.graph import FlowGraph
from ..cfg.icfg import ICFG
from ..cfg.node import MpiNode
from ..dataflow.framework import DataflowResult
from ..dataflow.lattice import ConstValue
from ..dataflow.solver import solve
from ..obs import get_metrics, get_tracer, metric_name
from ..ir.ast_nodes import BinOp, Expr, IntLit, IntrinsicCall, UnOp
from ..ir.mpi_ops import ArgRole, MpiKind
from ..ir.printer import print_expr

__all__ = [
    "MatchOptions",
    "CommPair",
    "MatchResult",
    "comm_context",
    "match_communication",
    "match_communication_nested",
    "rank_offset",
]


def comm_context(src: MpiNode, dst: MpiNode, reason: str = "") -> str:
    """Rank/tag context string for one matched communication edge.

    Renders the matcher-relevant arguments of both endpoints —
    destination/source rank, tag, root, communicator — e.g.
    ``p2p mpi_send#4→mpi_recv#9 dest=1 src=0 tag=99 comm=comm_world``.
    Used by the provenance layer to annotate COMM hops in derivation
    chains.
    """

    def _arg(node: MpiNode, role: ArgRole) -> Optional[str]:
        pos = node.op.position(role)
        if pos is None:
            return None
        return print_expr(node.arg_at(pos))

    parts = []
    if reason:
        parts.append(reason)
    parts.append(f"{src.op.name}#{src.id}→{dst.op.name}#{dst.id}")
    dest = _arg(src, ArgRole.DEST)
    if dest is not None:
        parts.append(f"dest={dest}")
    from_rank = _arg(dst, ArgRole.SRC)
    if from_rank is not None:
        parts.append(f"src={from_rank}")
    for label, role in (("tag", ArgRole.TAG), ("root", ArgRole.ROOT)):
        a, b = _arg(src, role), _arg(dst, role)
        if a is None and b is None:
            continue
        shown = a if a is not None else b
        if a is not None and b is not None and a != b:
            shown = f"{a}/{b}"
        parts.append(f"{label}={shown}")
    comm = _arg(src, ArgRole.COMM) or _arg(dst, ArgRole.COMM)
    if comm is not None:
        parts.append(f"comm={comm}")
    return " ".join(parts)


@dataclass(frozen=True)
class MatchOptions:
    """Knobs for communication-edge construction.

    ``use_constants=False`` yields full connectivity (every send matches
    every receive, all collectives form one clique per kind) — the
    worst case the paper's precision argument is measured against.
    ``match_counts`` additionally requires statically-known payload
    element counts to agree (MPI type-signature matching: a scalar
    broadcast cannot pair with an array broadcast).
    """

    use_constants: bool = True
    match_counts: bool = True
    rank_heuristics: bool = False


@dataclass(frozen=True)
class CommPair:
    """One communication edge endpoint pair (node ids)."""

    src: int
    dst: int
    reason: str  # "p2p" | "bcast" | "reduce" | "allreduce"


@dataclass
class MatchResult:
    pairs: list[CommPair] = field(default_factory=list)
    #: candidate pair count before constant matching (for the ablation).
    candidates: int = 0
    #: pairs ruled out by tag/comm/root constants.
    pruned_by_constants: int = 0
    #: pairs ruled out by the opt-in rank heuristics.
    pruned_by_rank: int = 0

    @property
    def edge_count(self) -> int:
        return len(self.pairs)


# ---------------------------------------------------------------------------
# Symbolic rank-offset evaluation for the opt-in heuristic.
# ---------------------------------------------------------------------------


def rank_offset(e: Expr) -> Optional[tuple[str, int]]:
    """Classify ``e`` as ``("const", c)`` or ``("rank", c)`` (= rank+c).

    Returns ``None`` when the expression is neither a literal integer
    nor a ``mpi_comm_rank() ± literal`` pattern.
    """
    if isinstance(e, IntLit):
        return ("const", e.value)
    if isinstance(e, UnOp) and e.op == "-":
        inner = rank_offset(e.operand)
        if inner is not None and inner[0] == "const":
            return ("const", -inner[1])
        return None
    if isinstance(e, IntrinsicCall) and e.name == "mpi_comm_rank":
        return ("rank", 0)
    if isinstance(e, BinOp) and e.op in ("+", "-"):
        left = rank_offset(e.left)
        right = rank_offset(e.right)
        if left is None or right is None:
            return None
        sign = 1 if e.op == "+" else -1
        if left[0] == "rank" and right[0] == "const":
            return ("rank", left[1] + sign * right[1])
        if left[0] == "const" and right[0] == "const":
            return ("const", left[1] + sign * right[1])
        if left[0] == "const" and right[0] == "rank" and e.op == "+":
            return ("rank", right[1] + left[1])
    return None


def _rank_compatible(send: MpiNode, recv: MpiNode) -> bool:
    """Can ``send``'s dest and ``recv``'s src name the same process pair?

    Refutable only when both are rank-relative with inconsistent
    offsets: dest = rank_s + a implies receiver = sender + a, while
    src = rank_r + b implies sender = receiver + b, so consistency
    requires a == -b.
    """
    dpos = send.op.position(ArgRole.DEST)
    spos = recv.op.position(ArgRole.SRC)
    if dpos is None or spos is None:
        return True
    dest = rank_offset(send.arg_at(dpos))
    src = rank_offset(recv.arg_at(spos))
    if dest is None or src is None:
        return True
    if dest[0] == "rank" and src[0] == "rank":
        return dest[1] == -src[1]
    return True


# ---------------------------------------------------------------------------
# Constant-based unification.
# ---------------------------------------------------------------------------


def _unify(a: Optional[ConstValue], b: Optional[ConstValue]) -> bool:
    """Two argument values *may* denote the same runtime value unless
    both are distinct constants."""
    if a is None or b is None:
        return True
    if a.is_const and b.is_const:
        return a.value == b.value
    return True


def _payload_count(node: MpiNode, icfg: ICFG) -> Optional[int]:
    """Statically-known element count of the node's payload.

    Uses the send-side buffer (the received side must present a
    matching type signature under the MPI standard).
    """
    from ..ir.ast_nodes import ArrayRef, VarRef
    from ..ir.mpi_ops import ArgRole as _R

    pos = node.op.position(_R.DATA_IN)
    if pos is None:
        pos = node.op.position(_R.DATA_INOUT)
    if pos is None:
        pos = node.op.position(_R.DATA_OUT)
    if pos is None:
        return None
    arg = node.arg_at(pos)
    if isinstance(arg, ArrayRef):
        return 1  # single element
    if isinstance(arg, VarRef):
        sym = icfg.symtab.try_lookup(node.proc, arg.name)
        if sym is None:
            return None
        return sym.type.element_count()
    return None


def _counts_compatible(a: MpiNode, b: MpiNode, icfg: ICFG) -> bool:
    ca = _payload_count(a, icfg)
    cb = _payload_count(b, icfg)
    if ca is None or cb is None:
        return True
    return ca == cb


#: Strategy of the matcher's private reaching-constants solve.  The
#: fixed point is strategy-independent; ``priority`` visits fewest nodes.
MATCH_SOLVER = "priority"

#: graph -> {(entry, exit): (graph version, fixed point)} — the
#: matcher's reaching-constants solves, shared across repeated matching
#: of the same graph and invalidated by graph mutation.
_RC_MEMO: "weakref.WeakKeyDictionary[FlowGraph, dict]" = (
    weakref.WeakKeyDictionary()
)


def _matching_constants(icfg: ICFG) -> DataflowResult:
    """Reaching constants over ``icfg`` for argument evaluation.

    Memoised per ``(graph, root boundary)`` and
    stamped with the graph's mutation version, so adding COMM edges (or
    any other mutation) forces a re-solve while back-to-back matches of
    an unchanged graph share one fixed point.
    """
    graph = icfg.graph
    entry, exit_ = icfg.entry_exit(icfg.root)
    key = (entry, exit_)
    per_graph = _RC_MEMO.get(graph)
    if per_graph is None:
        per_graph = {}
        _RC_MEMO[graph] = per_graph
    hit = per_graph.get(key)
    if hit is not None and hit[0] == graph.version:
        return hit[1]
    problem = ReachingConstantsProblem(icfg, MpiModel.IGNORE)
    with get_tracer().span("match.reaching_constants", solver=MATCH_SOLVER):
        result = solve(graph, entry, exit_, problem, strategy=MATCH_SOLVER)
    per_graph[key] = (graph.version, result)
    return result


class _ArgValues:
    """Evaluated TAG/COMM/ROOT values per MPI node."""

    def __init__(self, icfg: ICFG, options: MatchOptions, nodes: list[MpiNode]):
        self.values: dict[tuple[int, ArgRole], Optional[ConstValue]] = {}
        if not options.use_constants:
            for node in nodes:
                for role in (ArgRole.TAG, ArgRole.COMM, ArgRole.ROOT):
                    self.values[(node.id, role)] = None
            return
        result = _matching_constants(icfg)
        for node in nodes:
            env = result.in_fact(node.id)
            for role in (ArgRole.TAG, ArgRole.COMM, ArgRole.ROOT):
                pos = node.op.position(role)
                if pos is None:
                    self.values[(node.id, role)] = None
                else:
                    self.values[(node.id, role)] = eval_const(
                        node.arg_at(pos), env, icfg.symtab, node.proc
                    )

    def get(self, node: MpiNode, role: ArgRole) -> Optional[ConstValue]:
        return self.values.get((node.id, role))


#: Collective groups in emission order; all but allreduce also match on
#: their root argument.
_COLLECTIVES: tuple[tuple[MpiKind, str], ...] = (
    (MpiKind.BCAST, "bcast"),
    (MpiKind.REDUCE, "reduce"),
    (MpiKind.ALLREDUCE, "allreduce"),
    (MpiKind.GATHER, "gather"),
    (MpiKind.SCATTER, "scatter"),
)
_ROOTED = frozenset(("bcast", "reduce", "gather", "scatter"))

#: Per-dimension "matches anything" join key for non-constant arguments.
_WILDCARD = object()


def _grouped(nodes: list[MpiNode]) -> dict[MpiKind, list[MpiNode]]:
    groups: dict[MpiKind, list[MpiNode]] = {}
    for node in nodes:
        groups.setdefault(node.mpi_kind, []).append(node)
    return groups


# ---------------------------------------------------------------------------
# Hash-join matching (the default algorithm).
# ---------------------------------------------------------------------------


def _const_key(v: Optional[ConstValue]):
    """Join key of one evaluated argument: its constant value, or the
    wildcard when the argument is unknown/non-constant (``_unify``
    accepts those against anything)."""
    if v is not None and v.is_const:
        return v.value
    return _WILDCARD


def _count_key(node: MpiNode, icfg: ICFG, options: MatchOptions):
    if not options.match_counts:
        return _WILDCARD
    count = _payload_count(node, icfg)
    return _WILDCARD if count is None else count


def _join_key(
    node: MpiNode, icfg: ICFG, args: _ArgValues, options: MatchOptions, roles
) -> tuple:
    return (_count_key(node, icfg, options),) + tuple(
        _const_key(args.get(node, role)) for role in roles
    )


class _JoinIndex:
    """Bucket index over the build side of one hash join.

    Buckets key on the full ``(count, tag/comm[, root])`` tuple; probe
    keys enumerate, per dimension, the build-side values they unify
    with — the key's own constant plus the wildcard, or every seen
    value when the probe side is itself non-constant.  Probing is
    therefore O(2^dims) bucket lookups for constant keys and degrades
    to the build side's distinct-key count (≤ its size) for wildcard
    probes, never worse than the pairwise scan.
    """

    __slots__ = ("buckets", "dim_values")

    def __init__(self, keys: list[tuple]):
        self.buckets: dict[tuple, list[int]] = {}
        ndims = len(keys[0]) if keys else 0
        self.dim_values: list[set] = [set() for _ in range(ndims)]
        for index, key in enumerate(keys):
            self.buckets.setdefault(key, []).append(index)
            for d, v in enumerate(key):
                if v is not _WILDCARD:
                    self.dim_values[d].add(v)

    def probe(self, key: tuple) -> list[int]:
        """Build-side indices unifying with ``key``, in build order."""
        axes = []
        for d, v in enumerate(key):
            if v is _WILDCARD:
                axes.append((*self.dim_values[d], _WILDCARD))
            else:
                axes.append((v, _WILDCARD))
        buckets = self.buckets
        out: list[int] = []
        for candidate in itertools.product(*axes):
            hit = buckets.get(candidate)
            if hit is not None:
                out.extend(hit)
        out.sort()
        return out


def _match_hash_join(
    icfg: ICFG,
    options: MatchOptions,
    groups: dict[MpiKind, list[MpiNode]],
    args: _ArgValues,
) -> MatchResult:
    result = MatchResult()

    # -- point-to-point: sends probe an index over the receives.
    sends = groups.get(MpiKind.SEND, [])
    recvs = groups.get(MpiKind.RECV, [])
    p2p_roles = (ArgRole.TAG, ArgRole.COMM)
    if sends and recvs:
        index = _JoinIndex(
            [_join_key(r, icfg, args, options, p2p_roles) for r in recvs]
        )
        nrecvs = len(recvs)
        for s in sends:
            result.candidates += nrecvs
            matched = index.probe(_join_key(s, icfg, args, options, p2p_roles))
            result.pruned_by_constants += nrecvs - len(matched)
            for j in matched:
                r = recvs[j]
                if options.rank_heuristics and not _rank_compatible(s, r):
                    result.pruned_by_rank += 1
                    continue
                result.pairs.append(CommPair(s.id, r.id, "p2p"))

    # -- collectives: each group self-joins (every ordered pair a≠b).
    for kind, reason in _COLLECTIVES:
        group = groups.get(kind, [])
        if len(group) < 2:
            continue
        roles = (ArgRole.COMM, ArgRole.ROOT) if reason in _ROOTED else (ArgRole.COMM,)
        keys = [_join_key(n, icfg, args, options, roles) for n in group]
        index = _JoinIndex(keys)
        others = len(group) - 1
        for i, a in enumerate(group):
            result.candidates += others
            matched = index.probe(keys[i])
            # A node's key always unifies with itself; the self match is
            # not a candidate pair.
            result.pruned_by_constants += others - (len(matched) - 1)
            for j in matched:
                if j == i:
                    continue
                result.pairs.append(CommPair(a.id, group[j].id, reason))

    return result


def match_communication(
    icfg: ICFG, options: MatchOptions | None = None
) -> MatchResult:
    """Compute the set of communication edges for ``icfg``.

    Uses the hash join described in the module docstring; the result —
    pair order and prune counters included — is identical to the
    reference pairwise :func:`match_communication_nested`.  Does not
    mutate the graph; see
    :func:`repro.mpi.mpiicfg.add_communication_edges`.
    """
    options = options or MatchOptions()
    tracer = get_tracer()
    with tracer.span("match.hash_join"):
        nodes = icfg.mpi_nodes()
        groups = _grouped(nodes)
        args = _ArgValues(icfg, options, nodes)
        result = _match_hash_join(icfg, options, groups, args)
    if tracer.enabled:
        _record_match_metrics(result, algorithm="hash_join")
    return result


def _record_match_metrics(result: MatchResult, algorithm: str) -> None:
    """Fold one match's counters into the metrics registry (caller has
    already checked ``tracer.enabled``)."""
    registry = get_metrics()
    registry.counter(metric_name("repro.match.runs", algorithm=algorithm)).inc()
    registry.counter("repro.match.candidates").inc(result.candidates)
    registry.counter("repro.match.pairs").inc(len(result.pairs))
    registry.counter("repro.match.pruned_by_constants").inc(
        result.pruned_by_constants
    )
    registry.counter("repro.match.pruned_by_rank").inc(result.pruned_by_rank)


def match_communication_nested(
    icfg: ICFG, options: MatchOptions | None = None
) -> MatchResult:
    """Reference O(S×R) pairwise matcher (the pre-hash-join algorithm).

    Kept as the executable specification: the equivalence suite asserts
    :func:`match_communication` reproduces its output exactly on every
    registry benchmark and on randomly generated SPMD programs.
    """
    options = options or MatchOptions()
    tracer = get_tracer()
    with tracer.span("match.nested"):
        result = _match_nested(icfg, options)
    if tracer.enabled:
        _record_match_metrics(result, algorithm="nested")
    return result


def _match_nested(icfg: ICFG, options: MatchOptions) -> MatchResult:
    nodes = icfg.mpi_nodes()
    groups = _grouped(nodes)
    args = _ArgValues(icfg, options, nodes)
    result = MatchResult()

    sends = groups.get(MpiKind.SEND, [])
    recvs = groups.get(MpiKind.RECV, [])
    for s in sends:
        for r in recvs:
            result.candidates += 1
            if options.match_counts and not _counts_compatible(s, r, icfg):
                result.pruned_by_constants += 1
                continue
            if not (
                _unify(args.get(s, ArgRole.TAG), args.get(r, ArgRole.TAG))
                and _unify(args.get(s, ArgRole.COMM), args.get(r, ArgRole.COMM))
            ):
                result.pruned_by_constants += 1
                continue
            if options.rank_heuristics and not _rank_compatible(s, r):
                result.pruned_by_rank += 1
                continue
            result.pairs.append(CommPair(s.id, r.id, "p2p"))

    for kind, reason in _COLLECTIVES:
        group = groups.get(kind, [])
        for a in group:
            for b in group:
                if a.id == b.id:
                    continue
                result.candidates += 1
                compatible = _unify(
                    args.get(a, ArgRole.COMM), args.get(b, ArgRole.COMM)
                )
                if options.match_counts and not _counts_compatible(a, b, icfg):
                    compatible = False
                if reason in _ROOTED:
                    compatible = compatible and _unify(
                        args.get(a, ArgRole.ROOT), args.get(b, ArgRole.ROOT)
                    )
                if not compatible:
                    result.pruned_by_constants += 1
                    continue
                result.pairs.append(CommPair(a.id, b.id, reason))

    return result
