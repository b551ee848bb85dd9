"""Persistent warm workers: long-lived processes with retained state.

The pipeline's process pool (PR 2) is *cold*: every worker rebuilds
ICFGs, re-interns fact universes, and re-solves from scratch, which is
why ``BENCH_pipeline.json`` records the pool as overhead-bound on small
machines.  The serving pool fixes that by making workers **long-lived
and warm**:

* each worker process keeps a bounded per-program :class:`_WarmState`
  memo — parsed program, built plain and MPI ICFGs, communication
  match — so repeat traffic for a program never rebuilds a graph;
* each state carries one shared
  :class:`~repro.dataflow.bitset.FactUniverse` per model arm,
  pre-interned at warm-up, so sibling analyses over the same graph
  reuse one atom ↔ bit mapping;
* kernel-hosted analyses are served through retained
  :class:`~repro.dataflow.incremental.IncrementalSolver` instances —
  the first request pays the cold solve, later identical requests
  return the retained converged result (``last_mode="unchanged"``),
  and the rendered text stays byte-identical to a direct
  :func:`repro.analyses.registry.run_entry` call (asserted in
  ``tests/test_serving.py``);
* rendered response text is additionally cached in the worker's
  thread-safe :class:`~repro.pipeline.cache.ArtifactCache` (optionally
  disk-backed), the tier *behind* the server's sharded LRU.

:func:`execute_task` is the process-agnostic entry point: the inline
pool (``workers=0``) calls it on a thread of the server process, the
process pool calls it in forked workers via
:class:`concurrent.futures.ProcessPoolExecutor` — one persistent
process per slot, warmed once by the pool initializer.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import multiprocessing
import os
import pathlib
import time
from collections import OrderedDict
from typing import Optional, Sequence

from ..analyses import registry as _registry
from ..analyses.mpi_model import MpiModel
from ..cfg.icfg import ICFG, build_icfg
from ..dataflow.bitset import FactUniverse
from ..dataflow.incremental import IncrementalSolver
from ..experiments.table1 import Table1Row, render_table1, run_benchmark
from ..ir import parse_program, validate_program
from ..mpi import build_mpi_icfg
from ..obs import get_tracer
from ..obs.report import render_html_report
from ..pipeline.artifacts import analysis_key
from ..pipeline.cache import ArtifactCache, default_cache_dir, program_fingerprint
from ..programs.registry import BENCHMARKS, BenchmarkSpec
from .protocol import ServeError, ServeRequest

__all__ = ["WorkerPool", "execute_task", "warm_benchmarks", "worker_state_stats"]

#: Bound on per-worker warm program states (novel sources evict LRU).
MAX_WARM_STATES = 32


# ---------------------------------------------------------------------------
# Per-process warm state.
# ---------------------------------------------------------------------------


class _WarmState:
    """Everything retained for one (program, root, clone level)."""

    __slots__ = (
        "ident",
        "spec",
        "program",
        "root",
        "clone_level",
        "_plain",
        "_mpi",
        "_match",
        "universes",
        "solvers",
    )

    def __init__(self, ident: str, spec: BenchmarkSpec):
        self.ident = ident
        self.spec = spec
        self.program = spec.program()
        self.root = spec.root
        self.clone_level = spec.clone_level
        self._plain: Optional[ICFG] = None
        self._mpi: Optional[ICFG] = None
        self._match = None
        #: model-arm label -> shared FactUniverse for sibling solves.
        self.universes: dict[str, FactUniverse] = {}
        #: solver knobs -> retained IncrementalSolver.
        self.solvers: dict[tuple, IncrementalSolver] = {}

    def plain_icfg(self) -> ICFG:
        """COMM-edge-free graph for the global-buffer/ignore models
        (kept separate from the MPI graph so rendered solver stats are
        byte-identical to a direct ``build_icfg`` run)."""
        if self._plain is None:
            self._plain = build_icfg(
                self.program, self.root, clone_level=self.clone_level
            )
        return self._plain

    def mpi_icfg(self) -> ICFG:
        if self._mpi is None:
            self._mpi, self._match = build_mpi_icfg(
                self.program, self.root, clone_level=self.clone_level
            )
        return self._mpi

    def match(self):
        self.mpi_icfg()
        return self._match

    def universe(self, arm: str) -> FactUniverse:
        uni = self.universes.get(arm)
        if uni is None:
            uni = self.universes[arm] = FactUniverse()
        return uni


#: (ident, root, clone_level) -> _WarmState, LRU-bounded.
_STATES: "OrderedDict[tuple, _WarmState]" = OrderedDict()

#: Worker-local artifact/text cache (tier behind the server's LRU).
_CACHE: Optional[ArtifactCache] = None

#: Set by the pool initializer in forked workers: span shard directory.
_TRACE_DIR: Optional[str] = None

#: Per-task timing breakdown (solve vs render).  Workers execute one
#: task at a time (the inline pool is a 1-thread executor, process
#: workers are single-threaded), so a module global is race-free.
_TASK_TIMINGS: dict = {}


def _note_timing(key: str, ms: float) -> None:
    _TASK_TIMINGS[key] = _TASK_TIMINGS.get(key, 0.0) + ms


def _cache() -> ArtifactCache:
    global _CACHE
    if _CACHE is None:
        _CACHE = ArtifactCache(max_entries=512)
    return _CACHE


def _bench_spec(name: str) -> BenchmarkSpec:
    spec = BENCHMARKS.get(name)
    if spec is None:
        raise ServeError(
            f"unknown benchmark {name!r}; available: "
            f"{', '.join(sorted(BENCHMARKS))}"
        )
    return spec


def _state_for(req: ServeRequest) -> _WarmState:
    """The warm state for the request's program (build + memoise)."""
    if req.bench is not None:
        spec = _bench_spec(req.bench)
        key = (req.ident(), spec.root, spec.clone_level)
    else:
        key = (req.ident(), req.root, req.clone_level)
        spec = None
    state = _STATES.get(key)
    if state is not None:
        _STATES.move_to_end(key)
        return state
    if spec is None:
        try:
            program = parse_program(req.source)
            validate_program(program)
        except Exception as exc:
            raise ServeError(f"bad SPL source: {exc}") from None
        if req.root not in program.proc_names:
            raise ServeError(
                f"unknown root {req.root!r}; procedures: "
                f"{', '.join(program.proc_names)}"
            )
        # Seeds deliberately stay empty: the warm state is shared by
        # every request for this source, so per-request seeds must come
        # from the request (not from whichever request arrived first).
        spec = BenchmarkSpec(
            name=req.ident(),
            source_label="inline source",
            builder=lambda program=program, **_: program,
            root=req.root,
            clone_level=req.clone_level,
        )
    state = _WarmState(req.ident(), spec)
    _STATES[key] = state
    while len(_STATES) > MAX_WARM_STATES:
        _STATES.popitem(last=False)
    return state


def worker_state_stats() -> dict:
    """Warm-state accounting for this process (``/v1/stats`` inline)."""
    return {
        "states": len(_STATES),
        "max_states": MAX_WARM_STATES,
        "solvers": sum(len(s.solvers) for s in _STATES.values()),
        "cache": _cache().stats.as_dict(),
    }


# ---------------------------------------------------------------------------
# Request execution.
# ---------------------------------------------------------------------------


def _analyze_request(req: ServeRequest, state: _WarmState):
    """The :class:`~repro.analyses.registry.AnalyzeRequest` a direct
    CLI run would build for this serving request (seeds default to the
    benchmark's own, exactly like ``repro analyze --bench``)."""
    return _registry.AnalyzeRequest(
        independents=req.independents or tuple(state.spec.independents),
        dependents=req.dependents or tuple(state.spec.dependents),
        mpi_model=MpiModel(req.model),
        strategy=req.strategy,
        query=req.query,
    )


def _solver_key(entry, areq) -> tuple:
    return (
        entry.name,
        areq.independents,
        areq.dependents,
        areq.mpi_model.value,
        areq.strategy,
    )


def _solve_analysis(entry, state: _WarmState, icfg: ICFG, areq):
    """One analysis result, through a retained solver when possible.

    Kernel-hosted single-problem analyses go through a per-state
    :class:`IncrementalSolver`: the first call cold-solves (sharing the
    state's per-arm :class:`FactUniverse`), identical repeats return
    the retained result.  Composite or escape-hatch analyses fall back
    to :func:`~repro.analyses.registry.run_entry`.
    """
    if entry.make_problem is None or areq.query is not None:
        return _registry.run_entry(entry, icfg, areq)
    _registry._validate_request(entry, areq)
    skey = _solver_key(entry, areq)
    solver = state.solvers.get(skey)
    if solver is None:
        g_entry, g_exit = icfg.entry_exit(icfg.root)
        arm = "mpi" if icfg is state._mpi else "plain"
        solver = IncrementalSolver(
            icfg.graph,
            g_entry,
            g_exit,
            lambda entry=entry, icfg=icfg, areq=areq: entry.make_problem(
                icfg, areq
            ),
            strategy=areq.strategy,
            universe=state.universe(arm),
        )
        state.solvers[skey] = solver
    return solver.solve()


def _exec_analyze(req: ServeRequest) -> tuple[str, str]:
    entry = _registry.get(req.analysis)
    state = _state_for(req)
    areq = _analyze_request(req, state)
    icfg = (
        state.mpi_icfg()
        if entry.supports_model and areq.mpi_model.uses_comm_edges
        else state.plain_icfg()
    )
    key = ("serve-text", analysis_key(req.analysis, state.program, icfg, areq))

    def build() -> str:
        t0 = time.perf_counter()
        result = _solve_analysis(entry, state, icfg, areq)
        t1 = time.perf_counter()
        text = entry.render_result(icfg, areq, result)
        _note_timing("solve_ms", (t1 - t0) * 1000.0)
        _note_timing("render_ms", (time.perf_counter() - t1) * 1000.0)
        return text

    return _cache().get_or_build(key, build), "text/plain"


def _run_spec(req: ServeRequest, state: _WarmState) -> BenchmarkSpec:
    """The spec a Table 1 / explain / report run needs, with request
    seeds overriding the benchmark defaults."""
    spec = state.spec
    if req.independents or req.dependents:
        spec = BenchmarkSpec(
            name=spec.name,
            source_label=spec.source_label,
            builder=spec.builder,
            sizes=spec.sizes,
            root=spec.root,
            clone_level=spec.clone_level,
            independents=req.independents or spec.independents,
            dependents=req.dependents or spec.dependents,
            paper=spec.paper,
        )
    if not (spec.independents and spec.dependents):
        raise ServeError(
            f"{req.kind} needs at least one independent and one dependent "
            "variable (benchmarks carry defaults; sources must pass them)"
        )
    return spec


def _exec_table1(req: ServeRequest) -> tuple[str, str]:
    state = _state_for(req)
    spec = _run_spec(req, state)
    key = (
        "serve-table1",
        program_fingerprint(state.program),
        spec.root,
        spec.clone_level,
        spec.independents,
        spec.dependents,
        req.strategy,
    )

    def build() -> str:
        t0 = time.perf_counter()
        row = run_benchmark(
            spec,
            strategy=req.strategy,
            icfg=state.mpi_icfg(),
            match=state.match(),
        )
        t1 = time.perf_counter()
        text = render_table1([row], with_paper=spec.paper is not None)
        _note_timing("solve_ms", (t1 - t0) * 1000.0)
        _note_timing("render_ms", (time.perf_counter() - t1) * 1000.0)
        return text

    return _cache().get_or_build(key, build), "text/plain"


def _activity_row(req: ServeRequest, state: _WarmState, **record) -> Table1Row:
    spec = _run_spec(req, state)
    return run_benchmark(
        spec,
        strategy=req.strategy,
        icfg=state.mpi_icfg(),
        match=state.match(),
        **record,
    )


def _exec_explain(req: ServeRequest) -> tuple[str, str]:
    # The fact/node resolution rules are the CLI's — import them so the
    # server and `repro explain` can never drift apart.
    from ..cli import _default_node, _resolve_fact
    from ..obs import explain_activity

    state = _state_for(req)
    key = ("serve-explain", req.key(), program_fingerprint(state.program))

    def build() -> str:
        t0 = time.perf_counter()
        row = _activity_row(req, state, record_provenance=True)
        _note_timing("solve_ms", (time.perf_counter() - t0) * 1000.0)
        t1 = time.perf_counter()
        chunks = []
        for arm_label, arm in (("ICFG", row.icfg), ("MPI-ICFG", row.mpi)):
            qname = _resolve_fact(arm.icfg, req.fact)
            node = req.node if req.node is not None else _default_node(arm, qname)
            if node is None:
                continue
            exp = explain_activity(arm, node, qname)
            for chain in (exp.vary, exp.useful):
                chain.problem = f"{arm_label} {chain.problem}"
                chunks.append(chain.render())
        if not chunks:
            raise ServeError(
                f"{req.fact!r} holds at no node — nothing to explain",
                status=404,
            )
        _note_timing("render_ms", (time.perf_counter() - t1) * 1000.0)
        return "\n\n".join(chunks)

    return _cache().get_or_build(key, build), "text/plain"


def _exec_report(req: ServeRequest) -> tuple[str, str]:
    from ..cli import _comm_edges_text, _select_chains
    from ..analyses.registry import activity_phases
    from ..cfg.node import EdgeKind
    from ..obs import render_convergence

    state = _state_for(req)
    key = ("serve-report", req.key(), program_fingerprint(state.program))

    def build() -> str:
        t0 = time.perf_counter()
        row = _activity_row(
            req, state, record_convergence=True, record_provenance=True
        )
        _note_timing("solve_ms", (time.perf_counter() - t0) * 1000.0)
        t1 = time.perf_counter()
        spec = _run_spec(req, state)
        table_text = render_table1([row], with_paper=spec.paper is not None)
        graph = row.mpi.icfg.graph
        comm_edges = sum(1 for e in graph.edges() if e.kind is EdgeKind.COMM)
        summary = {
            "benchmark": spec.name,
            "solver": req.strategy,
            "ICFG iterations": row.icfg.iterations,
            "MPI-ICFG iterations": row.mpi.iterations,
            "ICFG active bytes": f"{row.icfg.active_bytes:,}",
            "MPI-ICFG active bytes": f"{row.mpi.active_bytes:,}",
            "decrease": f"{row.pct_decrease:.2f}%",
            "COMM edges": comm_edges,
        }
        convergence = {}
        for arm_label, arm in (("ICFG", row.icfg), ("MPI-ICFG", row.mpi)):
            for phase, get_phase in activity_phases():
                solved = get_phase(arm)
                if solved.convergence is None:
                    continue
                convergence[f"{arm_label} {phase}"] = render_convergence(
                    solved.convergence, graph=arm.icfg.graph, changed_only=True
                )
        html = render_html_report(
            title=f"repro report — {spec.name}",
            subtitle=f"{spec.source_label} · strategy={req.strategy}",
            summary=summary,
            table1_text=table_text,
            match_text=_comm_edges_text(graph),
            chains=_select_chains(row, limit=12),
            convergence=convergence,
        )
        _note_timing("render_ms", (time.perf_counter() - t1) * 1000.0)
        return html

    return _cache().get_or_build(key, build), "text/html"


_EXECUTORS = {
    "analyze": _exec_analyze,
    "table1": _exec_table1,
    "explain": _exec_explain,
    "report": _exec_report,
}


def execute_task(task: dict) -> dict:
    """Run one serving task dict; never raises (errors become dicts).

    The returned dict is the worker → server contract: ``ok`` plus
    ``text``/``content_type`` on success, ``error``/``status`` on
    failure; either way a ``timings`` breakdown (worker wall time,
    solve/render split, artifact-cache outcome) rides along for the
    server's telemetry — the response body itself never includes it.
    """
    _TASK_TIMINGS.clear()
    started = time.perf_counter()
    try:
        req = ServeRequest.from_dict(task)
        with get_tracer().span(
            "serve.exec", kind=req.kind, analysis=req.analysis, pid=os.getpid()
        ):
            text, content_type = _EXECUTORS[req.kind](req)
        result = {"ok": True, "text": text, "content_type": content_type}
        result["timings"] = {
            "exec_ms": (time.perf_counter() - started) * 1000.0,
            # The build closures record solve/render only when they
            # run — an untouched breakdown means the worker's artifact
            # cache answered.
            "worker_cache": "miss" if _TASK_TIMINGS else "hit",
            **_TASK_TIMINGS,
        }
        return result
    except ServeError as exc:
        result = {"ok": False, "error": str(exc), "status": exc.status}
    except (ValueError, KeyError) as exc:
        result = {"ok": False, "error": str(exc), "status": 400}
    except Exception as exc:  # pragma: no cover - defensive
        result = {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "status": 500,
        }
    result["timings"] = {
        "exec_ms": (time.perf_counter() - started) * 1000.0,
        **_TASK_TIMINGS,
    }
    return result


# ---------------------------------------------------------------------------
# Warm-up.
# ---------------------------------------------------------------------------


def warm_benchmarks(names: Sequence[str]) -> int:
    """Pre-build graphs, pre-intern universes, pre-solve activity phases
    for the named benchmarks in *this* process; returns states warmed."""
    warmed = 0
    for name in names:
        spec = _bench_spec(name)
        base = ServeRequest(kind="analyze", analysis="vary", bench=name)
        state = _state_for(base)
        state.plain_icfg()
        state.mpi_icfg()
        if spec.independents and spec.dependents:
            for analysis in ("vary", "useful"):
                entry = _registry.get(analysis)
                areq = _analyze_request(base, state)
                # Cold-solve through the retained IncrementalSolver so
                # the state's FactUniverse is interned and the solver
                # can answer repeats from its converged result.
                _solve_analysis(entry, state, state.mpi_icfg(), areq)
        warmed += 1
    return warmed


def _init_worker(
    warm: Sequence[str], disk_cache: bool, trace_dir: Optional[str]
) -> None:
    """Pool initializer: runs once in each freshly spawned worker."""
    global _CACHE, _TRACE_DIR
    _CACHE = ArtifactCache(
        max_entries=512, disk_dir=default_cache_dir() if disk_cache else None
    )
    _TRACE_DIR = trace_dir
    if trace_dir is not None:
        from ..obs import enable_tracing

        pathlib.Path(trace_dir).mkdir(parents=True, exist_ok=True)
        enable_tracing(fresh=True)
    warm_benchmarks(warm)


def _run_batch(tasks: list[dict]) -> list[dict]:
    """Execute one micro-batch in this process (worker or inline)."""
    results = [execute_task(task) for task in tasks]
    if _TRACE_DIR is not None:
        shard = pathlib.Path(_TRACE_DIR) / f"shard-{os.getpid()}.jsonl"
        get_tracer().flush_jsonl(shard)
    return results


# ---------------------------------------------------------------------------
# The pool.
# ---------------------------------------------------------------------------


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return multiprocessing.get_context()


class WorkerPool:
    """Persistent executor behind the micro-batcher.

    ``workers=0`` (inline) runs batches on a single thread of the
    server process — no IPC, right-sized for 1-CPU boxes and tests.
    ``workers=N`` keeps N forked processes alive for the server's
    lifetime, each warmed by :func:`_init_worker`.
    """

    def __init__(
        self,
        workers: int = 0,
        warm: Sequence[str] = (),
        disk_cache: bool = False,
        trace_dir: Optional[str] = None,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self.warm = tuple(warm)
        self.disk_cache = disk_cache
        self.trace_dir = trace_dir
        self._exec: Optional[concurrent.futures.Executor] = None
        #: Set when spawning/warming failed — the pool exists but can
        #: answer nothing; ``/healthz`` reports it as not ready.
        self.failure: Optional[str] = None

    @property
    def started(self) -> bool:
        """Ready to run batches: started and not spawn-failed."""
        return self._exec is not None and self.failure is None

    def start(self) -> None:
        if self._exec is not None:
            return
        if self.workers == 0:
            self._exec = concurrent.futures.ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve"
            )
            # Inline mode shares the server process: warm right here
            # (spans flow into the server tracer, no shards needed).
            try:
                _init_worker(self.warm, self.disk_cache, None)
            except BaseException as exc:
                self.failure = f"{type(exc).__name__}: {exc}"
                raise
        else:
            self._exec = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=_pool_context(),
                initializer=_init_worker,
                initargs=(self.warm, self.disk_cache, self.trace_dir),
            )
            # Touch every slot so workers spawn (and warm) eagerly at
            # server start instead of on first traffic.  A failed
            # initializer (bad --warm name, OOM fork) surfaces here —
            # record it instead of pretending the pool is healthy.
            barrier = [
                self._exec.submit(os.getpid) for _ in range(self.workers)
            ]
            concurrent.futures.wait(barrier)
            for fut in barrier:
                exc = fut.exception()
                if exc is not None:
                    self.failure = f"{type(exc).__name__}: {exc}"
                    break

    async def run_batch(self, tasks: list[dict]) -> list[dict]:
        if self._exec is None:
            raise RuntimeError("WorkerPool.start() has not been called")
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._exec, _run_batch, tasks)

    def shutdown(self) -> None:
        if self._exec is not None:
            self._exec.shutdown(wait=True)
            self._exec = None

    def stats(self) -> dict:
        info = {
            "mode": "inline" if self.workers == 0 else "process",
            "workers": self.workers or 1,
            "warm": list(self.warm),
            "started": self.started,
        }
        if self.failure is not None:
            info["failure"] = self.failure
        if self.workers == 0:
            info["worker_state_stats"] = worker_state_stats()
        return info
