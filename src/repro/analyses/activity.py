"""Activity analysis: Vary ∩ Useful, with the paper's byte accounting.

A variable is *active* at a program point when it both depends on the
independents (Vary) and is needed for the dependents (Useful); a
*symbol* is active when it is active at any point.  Inactive symbols
need no derivative storage, so::

    ActiveBytes = Σ sizeof(active symbols)        (clones deduplicated)
    DerivBytes  = (#independent scalar elements) × ActiveBytes

which is exactly Table 1's accounting ("in the derivative code, it will
be necessary to maintain the derivative of each active variable or
array element with respect to each independent variable").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..cfg.icfg import ICFG
from ..dataflow.bitset import FactUniverse
from ..dataflow.framework import DataflowResult
from ..obs import get_metrics, get_tracer, metric_name
from .mpi_model import MPI_BUFFER_QNAME, MpiModel
from .useful import useful_analysis
from .vary import vary_analysis

__all__ = ["ActivityResult", "activity_analysis"]


@dataclass
class ActivityResult:
    """Outcome of one activity analysis run."""

    icfg: ICFG
    mpi_model: MpiModel
    independents: tuple[str, ...]
    dependents: tuple[str, ...]
    #: Active qualified names (union over all program points).
    active_qnames: frozenset[str]
    #: Deduplicated (scope, name) keys of active declared symbols.
    active_symbols: frozenset[tuple[str, str]]
    active_bytes: int
    num_independents: int
    vary: DataflowResult = field(repr=False)
    useful: DataflowResult = field(repr=False)

    @property
    def deriv_bytes(self) -> int:
        return self.num_independents * self.active_bytes

    @property
    def iterations(self) -> int:
        """Pass count comparable to Table 1's Iter column (the activity
        analysis converges when both of its phases have)."""
        return max(self.vary.iterations, self.useful.iterations)

    @property
    def total_iterations(self) -> int:
        return self.vary.iterations + self.useful.iterations

    def active_at(self, node_id: int) -> frozenset[str]:
        """Variables active at one node (IN∩IN ∪ OUT∩OUT)."""
        vin = self.vary.in_fact(node_id)
        uin = self.useful.in_fact(node_id)
        vout = self.vary.out_fact(node_id)
        uout = self.useful.out_fact(node_id)
        return frozenset((vin & uin) | (vout & uout))


def activity_analysis(
    icfg: ICFG,
    independents: Sequence[str],
    dependents: Sequence[str],
    mpi_model: MpiModel = MpiModel.COMM_EDGES,
    strategy: str = "roundrobin",
    record_convergence: bool = False,
    record_provenance: bool = False,
) -> ActivityResult:
    """Run Vary and Useful over ``icfg`` and intersect them.

    ``independents``/``dependents`` are bare variable names resolved in
    the scope of the context routine ``icfg.root`` (its parameters,
    locals, or program globals).

    Both phases run over the same variable population, so they share
    one :class:`~repro.dataflow.bitset.FactUniverse` — the Useful solve
    reuses the atom ↔ bit interning Vary already built instead of
    re-interning the whole universe (they also share the solver's
    per-graph direction views, keyed on the graph's mutation version).
    """
    tracer = get_tracer()
    with tracer.span(
        "activity.analysis", model=mpi_model.value, strategy=strategy
    ):
        universe = FactUniverse()
        vary = vary_analysis(
            icfg,
            independents,
            mpi_model,
            strategy=strategy,
            universe=universe,
            record_convergence=record_convergence,
            record_provenance=record_provenance,
        )
        useful = useful_analysis(
            icfg,
            dependents,
            mpi_model,
            strategy=strategy,
            universe=universe,
            record_convergence=record_convergence,
            record_provenance=record_provenance,
        )

        active: set[str] = set()
        for nid in icfg.graph.nodes:
            active |= vary.in_fact(nid) & useful.in_fact(nid)
            active |= vary.out_fact(nid) & useful.out_fact(nid)
        active.discard(MPI_BUFFER_QNAME)  # synthetic: not program storage

    symtab = icfg.symtab
    symbols = frozenset(
        symtab.symbol_of_qname(q).origin_key for q in active
    )
    # Bytes are summed over symbols that *own* storage: globals, locals,
    # and the context routine's parameters.  By-reference parameters of
    # called routines alias their caller's storage (their derivative
    # objects share the caller's shadow in ADIFOR-style codes), and
    # clones of a wrapper share the origin's storage — neither may
    # double-count.
    by_key = {}
    for q in active:
        sym = symtab.symbol_of_qname(q)
        if sym.kind == "param" and sym.origin_proc != icfg.root:
            continue
        by_key[sym.origin_key] = sym.type.sizeof()
    active_bytes = sum(by_key.values())

    num_indeps = sum(
        symtab.symbol_of_qname(symtab.qname(icfg.root, name)).type.element_count()
        for name in independents
    )

    result = ActivityResult(
        icfg=icfg,
        mpi_model=mpi_model,
        independents=tuple(independents),
        dependents=tuple(dependents),
        active_qnames=frozenset(active),
        active_symbols=symbols,
        active_bytes=active_bytes,
        num_independents=num_indeps,
        vary=vary,
        useful=useful,
    )
    if tracer.enabled:
        registry = get_metrics()
        labels = {"model": mpi_model.value}
        registry.gauge(
            metric_name("repro.activity.iterations", **labels)
        ).set(result.iterations)
        registry.gauge(
            metric_name("repro.activity.vary.iterations", **labels)
        ).set(vary.iterations)
        registry.gauge(
            metric_name("repro.activity.useful.iterations", **labels)
        ).set(useful.iterations)
        registry.gauge(
            metric_name("repro.activity.active_bytes", **labels)
        ).set(active_bytes)
    return result


_ = Optional  # typing convenience
