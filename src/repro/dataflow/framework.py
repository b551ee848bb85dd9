"""The data-flow problem specification of the paper's framework.

A :class:`DataFlowProblem` supplies exactly what §4.3 lists: the meet
and transfer operations of a classic framework, the caller↔callee edge
mappings of an ICFG framework, and — the paper's contribution — a
*communication transfer function* plus a meet for the values propagated
over communication edges.

Orientation
-----------
The solver works with *before*/*after* facts relative to the analysis
direction:

========  =====================  ======================
direction  before(n)              after(n)
========  =====================  ======================
FORWARD    IN(n)                  OUT(n) = f(IN(n))
BACKWARD   OUT(n)                 IN(n) = f(OUT(n))
========  =====================  ======================

``before(n)`` is the meet of ``edge_fact(e, after(m))`` over upstream
neighbours ``m`` (flow predecessors when FORWARD, flow successors when
BACKWARD).  Communication values likewise flow downstream in the
analysis direction: the comm value of a node ``q`` is
``comm_value(q, before(q))`` — i.e. ``f_comm(IN(send))`` for a forward
analysis and ``f_comm(OUT(receive))`` for a backward one, exactly as
the paper defines them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Generic, Optional, Sequence, TypeVar

from ..cfg.node import Edge, Node
from ..obs.convergence import ConvergenceTrace
from ..obs.provenance import ProvenanceTrace

__all__ = [
    "Direction",
    "DataFlowProblem",
    "DataflowResult",
    "QueryResult",
    "SolverStats",
]

F = TypeVar("F")  # node fact
C = TypeVar("C")  # communication value


class Direction(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


class DataFlowProblem(ABC, Generic[F, C]):
    """Specification of one data-flow analysis.

    Facts must be treated as immutable: ``transfer``/``edge_fact``
    return fresh values.  Subclasses choose ``F`` (e.g. ``frozenset``
    of qualified names, or a constant environment dict) and ``C`` (e.g.
    ``bool`` or :class:`~repro.dataflow.lattice.ConstValue`).
    """

    direction: Direction = Direction.FORWARD
    name: str = "dataflow"
    #: Declares that ``edge_fact`` is the identity on FLOW edges, so the
    #: solver may skip the call on intraprocedural edges.  Conservative
    #: default; :class:`~repro.dataflow.bitset.BitsetFacts` turns it on.
    flow_identity: bool = False

    # -- lattice of node facts ----------------------------------------------

    @abstractmethod
    def top(self) -> F:
        """The initial "no information" fact."""

    @abstractmethod
    def boundary(self) -> F:
        """Fact at the analysis boundary (root entry for FORWARD, root
        exit for BACKWARD)."""

    @abstractmethod
    def meet(self, a: F, b: F) -> F:
        ...

    def eq(self, a: F, b: F) -> bool:
        return a == b

    # -- node and edge transfer ---------------------------------------------

    @abstractmethod
    def transfer(self, node: Node, fact: F, comm: Optional[C]) -> F:
        """``after(n)`` from ``before(n)``.

        ``comm`` is the met value over incoming communication edges
        (``None`` when the node has none in the analysis direction).
        """

    def edge_fact(self, edge: Edge, fact: F) -> F:
        """Map ``after`` facts across an edge toward its downstream node.

        The default is the identity, correct for FLOW edges.
        Interprocedural problems override this to rename actual↔formal
        across CALL/RETURN edges and to filter the CALL_TO_RETURN edge.
        """
        return fact

    # -- communication -------------------------------------------------------

    def has_comm(self) -> bool:
        """Whether this problem propagates values over COMM edges.

        Returning ``False`` (the base default) makes the solver skip
        communication bookkeeping entirely — used by the separable
        analyses and the global-buffer baselines.
        """
        return False

    def comm_value(self, node: Node, before: F) -> C:
        """The communication transfer function ``f_comm``.

        Called on communication *sources* in the analysis direction
        (send-like nodes for FORWARD problems, receive-like for
        BACKWARD) with their current ``before`` fact.
        """
        raise NotImplementedError

    def comm_meet(self, values: Sequence[C]) -> Optional[C]:
        """Combine the values arriving over all communication edges.

        Receives one entry per incoming communication edge; an empty
        sequence never reaches here (the solver passes ``comm=None`` to
        :meth:`transfer` when a node has no comm in-edges).
        """
        raise NotImplementedError


@dataclass
class SolverStats:
    """Observability counters for one :func:`repro.dataflow.solve` run.

    ``wall_time_s`` covers the whole solve — engine setup (adjacency
    precompute, SCC priorities), the fixed-point loop, and result
    decoding for bitset problems.  ``backend`` reports which fact
    path ran: ``"bitset"`` for problems that subclass
    :class:`~repro.dataflow.bitset.BitsetFacts`, ``"native"`` for the
    rest; the problem's type decides it.  ``meets`` counts binary meet
    applications, ``transfers`` counts node transfer-function
    evaluations (cache hits included on the bitset path: the equations
    were still evaluated), and ``comm_requeues`` counts nodes
    rescheduled because a communication source's *before* fact changed.
    """

    strategy: str
    backend: str = "native"
    passes: int = 0
    visits: int = 0
    meets: int = 0
    transfers: int = 0
    comm_requeues: int = 0
    wall_time_s: float = 0.0
    nodes: int = 0

    def as_dict(self) -> dict:
        """Plain-dict rendering (JSON-friendly, used by the benchmarks)."""
        return asdict(self)


@dataclass
class DataflowResult(Generic[F]):
    """Fixed-point facts plus solver accounting.

    ``iterations`` is the number of full round-robin passes (the
    paper's Table 1 ``Iter`` column).  Worklist-style runs do not sweep
    the graph in rounds, so no equivalent pass count exists for them:
    they report 0 there and fill ``visits`` instead.
    """

    problem_name: str
    direction: Direction
    before: dict[int, F] = field(default_factory=dict)
    after: dict[int, F] = field(default_factory=dict)
    iterations: int = 0
    visits: int = 0
    solver: str = "roundrobin"
    #: Detailed solver accounting (None only for hand-built results).
    stats: Optional[SolverStats] = None
    #: Per-node convergence provenance; populated only by
    #: ``solve(..., record_convergence=True)``.
    convergence: Optional[ConvergenceTrace] = None
    #: Fact derivation history; populated only by
    #: ``solve(..., record_provenance=True)`` and queried through
    #: :func:`repro.obs.explain`.
    provenance: Optional[ProvenanceTrace] = None

    def in_fact(self, node_id: int) -> F:
        """Program-order IN set of the node (paper's ``IN(n)``)."""
        if self.direction is Direction.FORWARD:
            return self.before[node_id]
        return self.after[node_id]

    def out_fact(self, node_id: int) -> F:
        """Program-order OUT set of the node (paper's ``OUT(n)``)."""
        if self.direction is Direction.FORWARD:
            return self.after[node_id]
        return self.before[node_id]

    # Convenience aliases matching the paper's notation.
    IN = in_fact
    OUT = out_fact


@dataclass
class QueryResult(Generic[F]):
    """Answer to one demand-driven point query (see
    :func:`repro.dataflow.incremental.solve_query`).

    Facts are solved only over the queried node's dependency slice —
    the upstream region of the ICFG (downstream in program order for
    backward analyses) including matched communication edges — so
    ``slice_nodes``/``visits`` measure how much smaller than a cold
    whole-graph solve the query was.  The facts themselves equal the
    full fixed point's at this node.
    """

    problem_name: str
    direction: Direction
    node: int
    #: Solver-orientation facts at ``node`` (native representation).
    before: F
    after: F
    #: The queried atom and its membership verdict against the node's
    #: program-order IN fact; both ``None`` for whole-fact queries.
    fact: Optional[object] = None
    contains: Optional[bool] = None
    slice_nodes: int = 0
    total_nodes: int = 0
    visits: int = 0
    stats: Optional[SolverStats] = None

    @property
    def in_fact(self) -> F:
        """Program-order IN set of the queried node."""
        return self.before if self.direction is Direction.FORWARD else self.after

    @property
    def out_fact(self) -> F:
        """Program-order OUT set of the queried node."""
        return self.after if self.direction is Direction.FORWARD else self.before
