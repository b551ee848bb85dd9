"""Experiment E1: reproduce Table 1 (ICFG vs MPI-ICFG activity analysis).

For each of the 13 benchmark configurations, run activity analysis

* over the plain ICFG with the paper's global-buffer assumption
  (``MpiModel.GLOBAL_BUFFER``), and
* over the MPI-ICFG with communication-edge propagation
  (``MpiModel.COMM_EDGES``),

at the row's clone level, and report iterations, active bytes,
``DerivBytes = #indeps × ActiveBytes``, and the percentage decrease.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..analyses.activity import ActivityResult, activity_analysis
from ..analyses.mpi_model import MpiModel
from ..cfg.icfg import ICFG, build_icfg
from ..mpi.matching import MatchResult
from ..mpi.mpiicfg import add_communication_edges
from ..obs import get_metrics, get_tracer, metric_name
from ..programs.registry import BENCHMARKS, BenchmarkSpec

__all__ = ["Table1Row", "run_benchmark", "run_table1", "render_table1"]


@dataclass
class Table1Row:
    spec: BenchmarkSpec
    icfg: ActivityResult
    mpi: ActivityResult

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def pct_decrease(self) -> float:
        if self.icfg.active_bytes == 0:
            return 0.0
        saved = self.icfg.active_bytes - self.mpi.active_bytes
        return 100.0 * saved / self.icfg.active_bytes

    @property
    def saved_active_bytes(self) -> int:
        return self.icfg.active_bytes - self.mpi.active_bytes

    @property
    def saved_deriv_bytes(self) -> int:
        return self.icfg.deriv_bytes - self.mpi.deriv_bytes


def run_benchmark(
    spec: BenchmarkSpec,
    strategy: str = "roundrobin",
    icfg: Optional[ICFG] = None,
    match: Optional[MatchResult] = None,
    record_convergence: bool = False,
    record_provenance: bool = False,
) -> Table1Row:
    """Run the ICFG and MPI-ICFG activity analyses for one row.

    Both arms share one base graph: the ICFG analysis runs under the
    global-buffer model (which ignores COMM edges entirely), then the
    communication edges are added in place for the MPI-ICFG arm — the
    graph is never built twice.  ``icfg`` accepts a prebuilt (possibly
    cached) graph for the row's program/root/clone level and ``match``
    a precomputed :class:`~repro.mpi.matching.MatchResult`; see
    :mod:`repro.pipeline` for the content-addressed cache that supplies
    them.
    """
    tracer = get_tracer()
    with tracer.span("table1.bench", bench=spec.name, strategy=strategy):
        if icfg is None:
            with tracer.span("parse.program", bench=spec.name):
                program = spec.program()
            with tracer.span("build.icfg", bench=spec.name):
                icfg = build_icfg(program, spec.root, clone_level=spec.clone_level)

        with tracer.span("table1.arm", bench=spec.name, analysis="ICFG"):
            icfg_result = activity_analysis(
                icfg,
                spec.independents,
                spec.dependents,
                MpiModel.GLOBAL_BUFFER,
                strategy=strategy,
                record_convergence=record_convergence,
                record_provenance=record_provenance,
            )

        with tracer.span("match.add_comm_edges", bench=spec.name):
            comm = add_communication_edges(icfg, result=match)
        with tracer.span("table1.arm", bench=spec.name, analysis="MPI-ICFG"):
            mpi_result = activity_analysis(
                icfg,
                spec.independents,
                spec.dependents,
                MpiModel.COMM_EDGES,
                strategy=strategy,
                record_convergence=record_convergence,
                record_provenance=record_provenance,
            )
    if tracer.enabled:
        registry = get_metrics()
        for arm, res in (("icfg", icfg_result), ("mpi", mpi_result)):
            registry.gauge(
                metric_name("repro.table1.iterations", bench=spec.name, arm=arm)
            ).set(res.iterations)
            registry.gauge(
                metric_name("repro.table1.active_bytes", bench=spec.name, arm=arm)
            ).set(res.active_bytes)
        registry.counter("repro.table1.comm_edges").inc(len(comm.pairs))
    return Table1Row(spec=spec, icfg=icfg_result, mpi=mpi_result)


def run_table1(
    names: Optional[Iterable[str]] = None, strategy: str = "roundrobin"
) -> list[Table1Row]:
    selected = list(names) if names is not None else list(BENCHMARKS)
    return [run_benchmark(BENCHMARKS[name], strategy=strategy) for name in selected]


def render_table1(rows: list[Table1Row], with_paper: bool = True) -> str:
    """Text rendering in the layout of the paper's Table 1."""
    with get_tracer().span("report.table1", rows=len(rows)):
        return _render_table1(rows, with_paper)


def _render_table1(rows: list[Table1Row], with_paper: bool) -> str:
    header = (
        f"{'Bench':8s} {'Clone':5s} {'IND':12s} {'DEP':14s} {'Analysis':9s} "
        f"{'Iter':>4s} {'ActiveBytes':>13s} {'#Ind':>5s} {'DerivBytes':>14s} "
        f"{'%Decr':>7s}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        spec = row.spec
        ind = ",".join(spec.independents)
        dep = ",".join(spec.dependents)
        for label, res in (("ICFG", row.icfg), ("MPI-ICFG", row.mpi)):
            pct = "" if label == "ICFG" else f"{row.pct_decrease:6.2f}%"
            lines.append(
                f"{spec.name:8s} {spec.clone_level:<5d} {ind:12s} {dep:14s} "
                f"{label:9s} {res.iterations:>4d} {res.active_bytes:>13,d} "
                f"{res.num_independents:>5d} {res.deriv_bytes:>14,d} {pct:>7s}"
            )
        if with_paper and spec.paper is not None:
            p = spec.paper
            lines.append(
                f"{'':8s} {'':5s} {'':12s} {'':14s} {'paper':9s} "
                f"{p.icfg_iters:>2d}/{p.mpi_iters:<2d} "
                f"{p.icfg_active_bytes:>6,d}/{p.mpi_active_bytes:<,d} "
                f"{p.num_indeps:>5d} {p.pct_decrease:>13.2f}%"
            )
    return "\n".join(lines)
