"""Command-line interface: ``python -m repro <command> ...``.

Subcommands:

* ``check``     — parse and validate an SPL file; print a summary
* ``dot``       — emit Graphviz DOT of the (MPI-)ICFG
* ``analyze``   — run any registered analysis by name (``--list``)
* ``constants`` — reaching constants at each MPI operation
* ``activity``  — activity analysis (active symbols, bytes, DerivBytes)
* ``bitwidth``  — integer ranges/widths at the context routine's exit
* ``slice``     — forward/backward slice from a source line
* ``fold``      — constant-folded program text
* ``transform`` — source-to-source transforms (``nonblocking`` overlap)
* ``run``       — execute on simulated SPMD ranks
* ``table1``    — reproduce the paper's evaluation (Table 1 + Figure 4)
* ``figure4``   — just the Figure 4 storage-savings chart
* ``trace``     — run one benchmark with tracing; span tree + metrics
* ``explain``   — why is this fact here? derivation chain across COMM edges
* ``report``    — one self-contained HTML report (table, chains, metrics)

``analyze``, ``explain`` and the trace/report activity phases resolve
analysis names through :mod:`repro.analyses.registry` — registering a
new :class:`~repro.analyses.registry.AnalysisEntry` makes it reachable
from all of them with no CLI changes.

``table1`` and ``figure4`` run through :mod:`repro.pipeline` and accept
``--jobs N`` (process fan-out), ``--cache``/``--no-cache`` (in-process
artifact cache, default on) and ``--disk-cache`` (persist artifacts
under ``~/.cache/repro``); output is identical for every combination.
All three observability commands/flags (``trace``, ``--trace-out``,
``--chrome-out``, ``--metrics``) leave the experiment output untouched
— tracing is additive by construction (see :mod:`repro.obs`).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Optional, Sequence

from .analyses import (
    MpiModel,
    activity_analysis,
    bitwidth_analysis,
    forward_slice,
    reaching_constants,
)
from .analyses.slicing import backward_slice
from .cfg import build_icfg, to_dot
from .cfg.node import AssignNode
from .dataflow import STRATEGIES
from .ir import parse_program, print_program, validate_program
from .mpi import build_mpi_icfg
from .runtime import DeadlockError, LatencyModel, RunConfig, run_spmd
from .transforms import eliminate_dead_stores, fold_constants, make_nonblocking

__all__ = ["main", "build_parser"]


def _model(name: str) -> MpiModel:
    return MpiModel(name)


def _load(path: str):
    source = pathlib.Path(path).read_text()
    program = parse_program(source)
    symtab = validate_program(program)
    return program, symtab


def _graph_for(program, args):
    if args.model == "comm-edges":
        icfg, _ = build_mpi_icfg(program, args.root, clone_level=args.clone_level)
    else:
        icfg = build_icfg(program, args.root, clone_level=args.clone_level)
    return icfg


def _add_common(p: argparse.ArgumentParser, model_default="comm-edges") -> None:
    p.add_argument("file", help="SPL source file")
    p.add_argument("--root", default="main", help="context routine (default: main)")
    p.add_argument(
        "--clone-level",
        type=int,
        default=0,
        help="partial context sensitivity level (default: 0)",
    )
    p.add_argument(
        "--model",
        choices=[m.value for m in MpiModel],
        default=model_default,
        help="MPI communication model (default: %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Data-flow analysis for MPI programs (ICPP 2006 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and validate an SPL file")
    p.add_argument("file")

    p = sub.add_parser("dot", help="emit Graphviz DOT of the (MPI-)ICFG")
    _add_common(p)

    p = sub.add_parser(
        "analyze",
        help="run any registered analysis by name (see --list)",
    )
    p.add_argument(
        "analysis",
        nargs="?",
        metavar="NAME",
        help="a registered analysis name (see --list)",
    )
    p.add_argument(
        "--list",
        action="store_true",
        dest="list_analyses",
        help="list the registered analyses and exit",
    )
    _add_bench_source(p)
    p.add_argument(
        "--model",
        choices=[m.value for m in MpiModel],
        default="comm-edges",
        help="MPI communication model (default: %(default)s)",
    )
    p.add_argument(
        "--query",
        metavar="NODE[:FACT]",
        help="demand-driven point query: solve only the dependency "
        "slice of NODE (a node id, or 'entry'/'exit' of the root "
        "routine); with :FACT, answer whether that atom is in IN(NODE)",
    )

    p = sub.add_parser("constants", help="reaching constants at MPI operations")
    _add_common(p)

    p = sub.add_parser("activity", help="activity analysis")
    _add_common(p)
    p.add_argument("--independent", action="append", required=True, dest="independents")
    p.add_argument("--dependent", action="append", required=True, dest="dependents")

    p = sub.add_parser("bitwidth", help="integer ranges at the routine exit")
    _add_common(p)

    p = sub.add_parser("slice", help="slice from the statement at a source line")
    _add_common(p)
    p.add_argument("--line", type=int, required=True)
    p.add_argument("--backward", action="store_true")
    p.add_argument("--control", action="store_true", help="include control deps")

    p = sub.add_parser("fold", help="print the constant-folded program")
    _add_common(p)

    p = sub.add_parser("dce", help="print the program with dead stores removed")
    _add_common(p)
    p.add_argument(
        "--live-out",
        action="append",
        default=[],
        metavar="NAME",
        help="observable output at the context routine's exit (repeatable)",
    )

    p = sub.add_parser(
        "transform",
        help="apply a source-to-source transformation and print the result",
    )
    p.add_argument(
        "kind",
        choices=["nonblocking"],
        help="transformation to apply (nonblocking: split blocking "
        "send/recv into post + wait and move them apart to overlap "
        "communication with independent compute)",
    )
    p.add_argument(
        "file",
        metavar="BENCH|FILE",
        help="registry benchmark name (e.g. Sw-3) or SPL source file",
    )
    p.add_argument(
        "--root",
        default=None,
        help="context routine for the data-flow audit (default: the "
        "benchmark's registered root, or main)",
    )
    p.add_argument(
        "--size",
        action="append",
        default=[],
        metavar="NAME=INT",
        help="override a registry benchmark's array extent (repeatable)",
    )
    p.add_argument(
        "--run",
        action="store_true",
        help="execute original and transformed programs on simulated "
        "ranks and compare makespans (requires identical final state)",
    )
    p.add_argument("--nprocs", type=int, default=2)
    p.add_argument("--entry", default="main")
    p.add_argument(
        "--latency",
        default="linear:10:0.01",
        metavar="MODEL",
        help="latency model for --run (default: %(default)s)",
    )
    p.add_argument("--timeout", type=float, default=30.0, metavar="SECONDS")

    p = sub.add_parser("run", help="execute on simulated SPMD ranks")
    p.add_argument(
        "file",
        metavar="BENCH|FILE",
        help="registry benchmark name (e.g. Sw-3) or SPL source file",
    )
    p.add_argument("--nprocs", type=int, default=2)
    p.add_argument("--entry", default="main")
    p.add_argument(
        "--input",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="seed an entry parameter or global (repeatable)",
    )
    p.add_argument(
        "--size",
        action="append",
        default=[],
        metavar="NAME=INT",
        help="override a registry benchmark's array extent (repeatable)",
    )
    p.add_argument("--timeout", type=float, default=10.0, metavar="SECONDS")
    p.add_argument(
        "--latency",
        default="zero",
        metavar="MODEL",
        help="simulated latency model: zero | constant:BASE | "
        "linear:BASE:PER_BYTE (ticks)",
    )
    p.add_argument(
        "--timeline",
        metavar="FILE",
        help="write a self-contained HTML timeline (enables event recording)",
    )
    p.add_argument(
        "--chrome",
        metavar="FILE",
        help="write a Chrome trace_event JSON (enables event recording)",
    )
    p.add_argument(
        "--events",
        metavar="FILE",
        help="write the raw event stream as JSONL (enables event recording)",
    )

    p = sub.add_parser("table1", help="reproduce the paper's Table 1 / Figure 4")
    _add_pipeline_flags(p)

    p = sub.add_parser("figure4", help="reproduce the paper's Figure 4 chart")
    _add_pipeline_flags(p)

    p = sub.add_parser(
        "trace",
        help="run one benchmark with tracing; print span tree + metrics",
    )
    _add_bench_source(p)
    p.add_argument(
        "--convergence",
        action="store_true",
        help="record and print per-node solver convergence tables",
    )
    p.add_argument(
        "--slow",
        metavar="FILE",
        help="render a serving flight-recorder slow/ JSONL shard "
        "(span tree per SLO-breaching request) instead of running "
        "a benchmark",
    )
    _add_trace_outputs(p)

    p = sub.add_parser(
        "explain",
        help="why is this fact here? print its derivation chain "
        "(crossing send→recv COMM edges with rank/tag context)",
    )
    _add_bench_source(p)
    p.add_argument(
        "--fact",
        required=True,
        metavar="NAME",
        help="variable to explain (bare name resolved in the context "
        "routine, or a scope::qualified name)",
    )
    p.add_argument(
        "--node",
        type=int,
        metavar="N",
        help="node id to explain at (default: first MPI node where the "
        "fact holds; see `repro dot` for ids)",
    )
    p.add_argument(
        "--arm",
        choices=["icfg", "mpi", "both"],
        default="both",
        help="ICFG (global-buffer) arm, MPI-ICFG arm, or both "
        "(default: %(default)s)",
    )
    from .analyses.registry import explainable_names

    p.add_argument(
        "--phase",
        choices=["both", *explainable_names()],
        default="both",
        help="analysis phase(s) to explain: both activity phases, or "
        "any explainable registry analysis (default: %(default)s)",
    )
    p.add_argument(
        "--html",
        metavar="FILE",
        help="also write the chains as a self-contained HTML report",
    )

    p = sub.add_parser(
        "report",
        help="write one self-contained HTML report: Table 1 rows, "
        "derivation chains, convergence tables, metrics",
    )
    _add_bench_source(p)
    p.add_argument(
        "--out",
        metavar="FILE",
        default="repro-report.html",
        help="output HTML path (default: %(default)s)",
    )
    p.add_argument(
        "--chains",
        type=int,
        default=12,
        metavar="N",
        help="max derivation chains to include (default: %(default)s)",
    )

    p = sub.add_parser(
        "serve",
        help="run the analysis server: HTTP/JSON endpoints with a "
        "sharded LRU, request coalescing, micro-batching, and a "
        "persistent warm worker pool (see docs/serving.md)",
    )
    p.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: %(default)s)"
    )
    p.add_argument(
        "--port",
        type=int,
        default=8722,
        help="TCP port; 0 picks a free one (default: %(default)s)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="persistent worker processes; 0 serves inline on the "
        "server process (default: %(default)s)",
    )
    p.add_argument(
        "--warm",
        action="append",
        default=[],
        metavar="BENCH",
        help="benchmark to pre-build and pre-solve in every worker at "
        "startup (repeatable; 'all' warms every benchmark)",
    )
    p.add_argument(
        "--lru-capacity",
        type=int,
        default=4096,
        metavar="N",
        help="total response LRU entries (default: %(default)s)",
    )
    p.add_argument(
        "--lru-shards",
        type=int,
        default=8,
        metavar="N",
        help="independent LRU shards (default: %(default)s)",
    )
    p.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        metavar="N",
        help="bounded work queue length; a full queue answers 503 "
        "(default: %(default)s)",
    )
    p.add_argument(
        "--batch-size",
        type=int,
        default=8,
        metavar="N",
        help="max tasks per micro-batch (default: %(default)s)",
    )
    p.add_argument(
        "--batch-window-ms",
        type=float,
        default=2.0,
        metavar="MS",
        help="max wait to fill a micro-batch (default: %(default)s)",
    )
    p.add_argument(
        "--disk-cache",
        action="store_true",
        help="give workers a disk-backed artifact cache tier",
    )
    p.add_argument(
        "--trace-out",
        metavar="DIR",
        help="record obs spans; workers write JSONL shards here, "
        "merged to DIR/serve-trace.jsonl at shutdown",
    )
    p.add_argument(
        "--access-log",
        metavar="FILE",
        help="structured per-request JSONL access log (non-blocking "
        "bounded writer: overload drops-and-counts, never stalls)",
    )
    p.add_argument(
        "--slo-ms",
        type=float,
        metavar="MS",
        help="latency SLO; requests slower than this are counted and "
        "(with --flight-recorder) persisted with their span tree",
    )
    p.add_argument(
        "--flight-recorder",
        metavar="DIR",
        dest="flight_recorder",
        help="keep a ring of recent request records and write "
        "SLO-breaching ones to DIR/slow/slow-<pid>.jsonl "
        "(render with `repro trace --slow`)",
    )

    return parser


def _add_bench_source(p: argparse.ArgumentParser) -> None:
    """FILE / --bench / --smoke program selection plus solver flags,
    shared by the trace/explain/report subcommands."""
    p.add_argument(
        "file", nargs="?", help="SPL source file (or use --bench/--smoke)"
    )
    src = p.add_mutually_exclusive_group()
    src.add_argument(
        "--bench", metavar="NAME", help="a registered Table 1 benchmark"
    )
    src.add_argument(
        "--smoke",
        action="store_true",
        help="the paper's Figure 1 example program",
    )
    p.add_argument("--root", default="main", help="context routine (default: main)")
    p.add_argument("--clone-level", type=int, default=0)
    p.add_argument("--independent", action="append", dest="independents", default=[])
    p.add_argument("--dependent", action="append", dest="dependents", default=[])
    p.add_argument(
        "--strategy",
        choices=list(STRATEGIES),
        default="roundrobin",
        help="solver strategy (default: %(default)s)",
    )


def _add_trace_outputs(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write finished spans as JSONL",
    )
    p.add_argument(
        "--chrome-out",
        metavar="FILE",
        help="write a Chrome trace_event JSON (chrome://tracing, Perfetto)",
    )


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("names", nargs="*", help="benchmark subset (default: all)")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the benchmark fan-out "
        "(0 = one per CPU; default: 1, serial)",
    )
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--cache",
        dest="cache",
        action="store_true",
        default=True,
        help="reuse content-addressed artifacts across rows (default)",
    )
    group.add_argument(
        "--no-cache",
        dest="cache",
        action="store_false",
        help="rebuild every artifact from scratch",
    )
    p.add_argument(
        "--disk-cache",
        action="store_true",
        help="also persist artifacts under ~/.cache/repro ($REPRO_CACHE_DIR)",
    )
    _add_trace_outputs(p)
    p.add_argument(
        "--metrics",
        action="store_true",
        help="enable tracing and print the metrics snapshot after the table",
    )


# ---------------------------------------------------------------------------
# Subcommand implementations.
# ---------------------------------------------------------------------------


def _cmd_check(args) -> int:
    program, symtab = _load(args.file)
    n_globals = len(symtab.globals)
    print(f"program {program.name!r}: OK")
    print(f"  procedures : {', '.join(program.proc_names)}")
    print(f"  globals    : {n_globals}")
    from .cfg import build_call_graph

    cg = build_call_graph(program)
    depth = cg.wrapper_depth()
    if depth:
        print(f"  MPI wrapper depth: {depth} (suggested max clone level)")
    return 0


def _cmd_dot(args) -> int:
    program, _ = _load(args.file)
    icfg = _graph_for(program, args)
    sys.stdout.write(to_dot(icfg.graph, title=f"{program.name}:{args.root}"))
    return 0


def _cmd_analyze(args) -> int:
    from .analyses import registry

    if args.list_analyses:
        print(registry.render_list())
        return 0
    if not args.analysis:
        raise ValueError("analyze needs an analysis NAME (or --list)")
    entry = registry.get(args.analysis)
    spec = _trace_spec(args, require_seeds=False)
    model = _model(args.model)
    program = spec.program()
    if entry.supports_model and model.uses_comm_edges:
        icfg, _ = build_mpi_icfg(
            program, spec.root, clone_level=spec.clone_level
        )
    else:
        icfg = build_icfg(program, spec.root, clone_level=spec.clone_level)
    req = registry.AnalyzeRequest(
        independents=tuple(args.independents) or tuple(spec.independents),
        dependents=tuple(args.dependents) or tuple(spec.dependents),
        mpi_model=model,
        strategy=args.strategy,
        query=args.query,
    )
    result = registry.run_entry(entry, icfg, req)
    print(entry.render_result(icfg, req, result))
    return 0


def _cmd_constants(args) -> int:
    program, _ = _load(args.file)
    icfg = _graph_for(program, args)
    result = reaching_constants(icfg, _model(args.model))
    for node in icfg.mpi_nodes():
        print(f"{node.proc}: {node.label()}  (line {node.loc.line})")
        env = result.out_fact(node.id)
        for qname in sorted(env):
            print(f"    {qname} = {env[qname]}")
    return 0


def _cmd_activity(args) -> int:
    program, _ = _load(args.file)
    icfg = _graph_for(program, args)
    result = activity_analysis(
        icfg, args.independents, args.dependents, _model(args.model)
    )
    print(f"model        : {args.model}")
    print(f"independents : {', '.join(args.independents)} "
          f"({result.num_independents} scalar elements)")
    print(f"dependents   : {', '.join(args.dependents)}")
    print(f"active bytes : {result.active_bytes:,}")
    print(f"deriv bytes  : {result.deriv_bytes:,}")
    print(f"iterations   : {result.iterations}")
    print("active symbols:")
    for scope, name in sorted(result.active_symbols):
        print(f"  {scope or '<global>'}::{name}")
    return 0


def _cmd_bitwidth(args) -> int:
    program, _ = _load(args.file)
    icfg = _graph_for(program, args)
    result = bitwidth_analysis(icfg, _model(args.model))
    exit_id = icfg.entry_exit(args.root)[1]
    env = result.in_fact(exit_id)
    for qname in sorted(env):
        interval = env[qname]
        print(f"{qname:30s} {str(interval):>28s}  {interval.width:2d} bits")
    return 0


def _cmd_slice(args) -> int:
    program, _ = _load(args.file)
    icfg = _graph_for(program, args)
    candidates = [
        n.id for n in icfg.graph.nodes.values() if n.loc.line == args.line
    ]
    crit = next(
        (
            nid
            for nid in candidates
            if isinstance(icfg.graph.node(nid), AssignNode)
        ),
        candidates[0] if candidates else None,
    )
    if crit is None:
        print(f"error: no statement at line {args.line}", file=sys.stderr)
        return 1
    slicer = backward_slice if args.backward else forward_slice
    result = slicer(
        icfg, crit, _model(args.model), include_control=args.control
    )
    direction = "backward" if args.backward else "forward"
    print(f"{direction} slice of line {args.line} "
          f"({icfg.graph.node(crit).label()}):")
    for line in result.lines(icfg):
        print(f"  line {line}")
    return 0


def _cmd_fold(args) -> int:
    program, _ = _load(args.file)
    result = fold_constants(
        program, args.root, _model(args.model), clone_level=args.clone_level
    )
    sys.stdout.write(print_program(result.program))
    print(
        f"// {result.substitutions} substitutions, {result.folds} folds, "
        f"{result.branches_flattened} branches flattened",
        file=sys.stderr,
    )
    return 0


def _cmd_dce(args) -> int:
    program, _ = _load(args.file)
    result = eliminate_dead_stores(
        program, args.root, args.live_out, clone_level=args.clone_level
    )
    sys.stdout.write(print_program(result.program))
    print(f"// {result.removed} dead store(s) removed", file=sys.stderr)
    return 0


def _resolve_bench_or_file(args):
    """Resolve BENCH|FILE (+ --size overrides) to (program, label, root)."""
    from .programs.registry import BENCHMARKS

    sizes = {}
    for item in args.size:
        name, _, value = item.partition("=")
        if not value or not value.lstrip("-").isdigit():
            raise ValueError(f"--size needs NAME=INT, got {item!r}")
        sizes[name] = int(value)
    if args.file in BENCHMARKS:
        spec = BENCHMARKS[args.file]
        merged = dict(spec.sizes)
        merged.update(sizes)
        return spec.builder(**merged), spec.name, spec.root
    if sizes:
        raise ValueError("--size only applies to registry benchmarks")
    program, _ = _load(args.file)
    return program, pathlib.Path(args.file).stem, None


def _makespan(result) -> float:
    return max((e.t1 for e in result.events), default=0.0)


def _comparable_values(result):
    """Per-rank values, minus the transform's fresh request handles."""
    return [
        {k: v for k, v in rank.values.items() if not k.startswith("req_ov")}
        for rank in result.ranks
    ]


def _cmd_transform(args) -> int:
    import numpy as np

    program, label, bench_root = _resolve_bench_or_file(args)
    root = args.root or bench_root
    result = make_nonblocking(program, root=root)
    sys.stdout.write(print_program(result.program))
    print(
        f"// nonblocking: {result.split} split, {result.merged} merged, "
        f"{result.hoisted} hoisted, {result.sunk} sunk",
        file=sys.stderr,
    )
    for proc, buf in result.dead_buffers:
        print(
            f"// note: {proc}: received buffer '{buf}' is dead after its "
            "wait (candidate for removal)",
            file=sys.stderr,
        )
    if not args.run:
        return 0
    config = RunConfig(
        nprocs=args.nprocs,
        entry=args.entry,
        timeout=args.timeout,
        record_events=True,
        latency=LatencyModel.parse(args.latency),
    )
    try:
        before = run_spmd(program, config)
        after = run_spmd(result.program, config)
    except DeadlockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for old, new in zip(_comparable_values(before), _comparable_values(after)):
        for name in sorted(set(old) | set(new)):
            same = (
                name in old
                and name in new
                and np.array_equal(old[name], new[name])
            )
            if not same:
                print(
                    f"error: final rank state differs for {name!r} — "
                    "transform is not semantics-preserving here",
                    file=sys.stderr,
                )
                return 1
    t0, t1 = _makespan(before), _makespan(after)
    print(
        f"// makespan original={t0:g} transformed={t1:g} "
        f"({args.latency}, nprocs={args.nprocs})",
        file=sys.stderr,
    )
    if t1 < t0:
        pct = 100.0 * (t0 - t1) / t0 if t0 else 0.0
        print(
            f"// makespan improved by {t0 - t1:g} ticks ({pct:.2f}%)",
            file=sys.stderr,
        )
    else:
        print("// makespan not improved", file=sys.stderr)
    return 0


def _cmd_run(args) -> int:
    from .programs.registry import BENCHMARKS

    sizes = {}
    for item in args.size:
        name, _, value = item.partition("=")
        if not value or not value.lstrip("-").isdigit():
            print(f"error: --size needs NAME=INT, got {item!r}", file=sys.stderr)
            return 1
        sizes[name] = int(value)
    if args.file in BENCHMARKS:
        spec = BENCHMARKS[args.file]
        merged = dict(spec.sizes)
        merged.update(sizes)
        program = spec.builder(**merged)
        label = spec.name
    else:
        if sizes:
            print(
                "error: --size only applies to registry benchmarks",
                file=sys.stderr,
            )
            return 1
        program, _ = _load(args.file)
        label = pathlib.Path(args.file).stem
    inputs = {}
    for item in args.input:
        name, _, value = item.partition("=")
        if not value:
            print(f"error: --input needs NAME=VALUE, got {item!r}", file=sys.stderr)
            return 1
        inputs[name] = float(value) if "." in value or "e" in value else int(value)
    record = bool(args.timeline or args.chrome or args.events)
    config = RunConfig(
        nprocs=args.nprocs,
        entry=args.entry,
        timeout=args.timeout,
        record_events=record,
        latency=LatencyModel.parse(args.latency),
    )
    try:
        result = run_spmd(program, config, inputs=inputs)
    except DeadlockError as exc:
        # str(exc) already carries the wait-for graph rendering with
        # its cyclic-wait vs lost-message verdict.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rank in result.ranks:
        scalars = {
            k: v for k, v in sorted(rank.values.items()) if not hasattr(v, "shape")
        }
        print(f"rank {rank.rank}: "
              + ", ".join(f"{k}={v}" for k, v in scalars.items()))
    if record:
        from .obs import (
            write_events_jsonl,
            write_timeline_chrome_trace,
            write_timeline_html,
        )

        # Artifact paths go to stderr so stdout stays byte-identical
        # to a recording-off run (same contract as --trace-out).
        if args.timeline:
            write_timeline_html(
                args.timeline, result, title=f"SPMD timeline · {label}"
            )
            print(f"// wrote timeline to {args.timeline}", file=sys.stderr)
        if args.chrome:
            n = write_timeline_chrome_trace(args.chrome, result)
            print(
                f"// wrote Chrome trace ({n} events) to {args.chrome}",
                file=sys.stderr,
            )
        if args.events:
            n = write_events_jsonl(args.events, result)
            print(f"// wrote {n} events to {args.events}", file=sys.stderr)
    return 0


def _tracing_requested(args) -> bool:
    return bool(
        args.trace_out or args.chrome_out or getattr(args, "metrics", False)
    )


def _emit_trace_outputs(args, tracer) -> None:
    """Write --trace-out / --chrome-out files; paths echoed to stderr so
    stdout stays byte-identical to an untraced run."""
    from .obs import write_chrome_trace

    if args.trace_out:
        n = tracer.write_jsonl(args.trace_out)
        print(f"// wrote {n} spans to {args.trace_out}", file=sys.stderr)
    if args.chrome_out:
        n = write_chrome_trace(args.chrome_out, tracer.spans())
        print(
            f"// wrote Chrome trace ({n} events) to {args.chrome_out}",
            file=sys.stderr,
        )


def _run_pipeline(args):
    from .pipeline import run_table1_pipeline

    return run_table1_pipeline(
        args.names or None,
        jobs=args.jobs,
        cache=args.cache,
        disk_cache=args.disk_cache,
    )


def _cmd_pipeline(args, render) -> int:
    from .obs import disable_tracing, enable_tracing, get_metrics, reset_metrics

    tracing = _tracing_requested(args)
    if tracing:
        tracer = enable_tracing(fresh=True)
        reset_metrics()
    try:
        result = _run_pipeline(args)
    finally:
        if tracing:
            disable_tracing()
    print(render(result))
    if tracing:
        if args.metrics:
            print()
            print(get_metrics().render())
        _emit_trace_outputs(args, tracer)
    return 0


def _cmd_table1(args) -> int:
    return _cmd_pipeline(args, lambda result: result.text)


def _cmd_figure4(args) -> int:
    return _cmd_pipeline(args, lambda result: result.figure4_text)


def _trace_spec(args, require_seeds: bool = True):
    """Resolve the traced/analyzed program to a :class:`BenchmarkSpec`."""
    from .programs.registry import BENCHMARKS, BenchmarkSpec

    if args.bench:
        if args.bench not in BENCHMARKS:
            raise KeyError(
                f"unknown benchmark {args.bench!r}; "
                f"available: {', '.join(sorted(BENCHMARKS))}"
            )
        return BENCHMARKS[args.bench]
    if args.smoke:
        from .programs import figure1

        return BenchmarkSpec(
            name="figure1",
            source_label="Figure 1 example",
            builder=lambda **_: figure1.program(),
            root="main",
            independents=("x",),
            dependents=("f",),
        )
    if not args.file:
        raise ValueError(
            f"{args.command} needs a FILE, --bench NAME, or --smoke"
        )
    if require_seeds and not (args.independents and args.dependents):
        raise ValueError(
            "tracing a FILE needs at least one --independent and one --dependent"
        )
    program, _ = _load(args.file)
    return BenchmarkSpec(
        name=pathlib.Path(args.file).stem,
        source_label=args.file,
        builder=lambda **_: program,
        root=args.root,
        clone_level=args.clone_level,
        independents=tuple(args.independents),
        dependents=tuple(args.dependents),
    )


def _cmd_trace(args) -> int:
    from .experiments.table1 import render_table1, run_benchmark
    from .obs import (
        disable_tracing,
        enable_tracing,
        get_metrics,
        render_convergence,
        render_span_tree,
        reset_metrics,
    )

    if args.slow:
        from .obs import read_slow_records, render_slow_records

        print(render_slow_records(read_slow_records(args.slow)))
        return 0

    spec = _trace_spec(args)
    tracer = enable_tracing(fresh=True)
    reset_metrics()
    try:
        row = run_benchmark(
            spec, strategy=args.strategy, record_convergence=args.convergence
        )
        report = render_table1([row], with_paper=spec.paper is not None)
    finally:
        disable_tracing()

    print(report)
    print()
    print("Span tree")
    print("---------")
    print(render_span_tree(tracer.spans()))
    print()
    print("Metrics")
    print("-------")
    print(get_metrics().render())
    if args.convergence:
        from .analyses.registry import activity_phases

        skipped = []
        for arm_label, arm in (("ICFG", row.icfg), ("MPI-ICFG", row.mpi)):
            for phase, get_phase in activity_phases():
                solved = get_phase(arm)
                if solved.convergence is None:
                    skipped.append(f"{arm_label}/{phase}")
                    continue
                print()
                print(f"Convergence: {arm_label} {phase}")
                print("-" * (13 + len(arm_label) + len(phase)))
                print(
                    render_convergence(
                        solved.convergence, graph=arm.icfg.graph, changed_only=True
                    )
                )
        if skipped:
            print(
                f"warning: no convergence data recorded for "
                f"{', '.join(skipped)} — these tables were skipped",
                file=sys.stderr,
            )
    _emit_trace_outputs(args, tracer)
    return 0


def _resolve_fact(icfg, fact: str) -> str:
    """Bare variable name → qualified name in the context routine."""
    if "::" in fact:
        return fact
    sym = icfg.symtab.try_lookup(icfg.root, fact)
    if sym is None:
        raise ValueError(
            f"unknown variable {fact!r} in scope of {icfg.root!r} "
            "(use a scope::qualified name for other scopes)"
        )
    return sym.qname


def _fact_holds(arm, nid: int, qname: str) -> bool:
    return (
        qname in arm.vary.in_fact(nid)
        or qname in arm.vary.out_fact(nid)
        or qname in arm.useful.in_fact(nid)
        or qname in arm.useful.out_fact(nid)
    )


def _default_node(arm, qname: str) -> Optional[int]:
    """First node where ``qname`` holds, MPI operations preferred."""
    from .cfg.node import MpiNode

    graph = arm.icfg.graph
    mpi_ids = sorted(
        n.id for n in graph.nodes.values() if isinstance(n, MpiNode)
    )
    for nid in mpi_ids:
        if _fact_holds(arm, nid, qname):
            return nid
    for nid in sorted(graph.nodes):
        if _fact_holds(arm, nid, qname):
            return nid
    return None


def _fact_holds_result(solved, nid: int, qname: str) -> bool:
    return qname in solved.in_fact(nid) or qname in solved.out_fact(nid)


def _default_node_result(icfg, solved, qname: str) -> Optional[int]:
    """First node where ``qname`` holds in ``solved``, MPI preferred."""
    from .cfg.node import MpiNode

    graph = icfg.graph
    mpi_ids = sorted(
        n.id for n in graph.nodes.values() if isinstance(n, MpiNode)
    )
    for nid in mpi_ids:
        if _fact_holds_result(solved, nid, qname):
            return nid
    for nid in sorted(graph.nodes):
        if _fact_holds_result(solved, nid, qname):
            return nid
    return None


def _explain_activity_arm(args, arm_label, arm, chains) -> int:
    """Chains for the activity phases (vary/useful) of one arm."""
    from .analyses.registry import activity_phases
    from .obs import explain_activity

    qname = _resolve_fact(arm.icfg, args.fact)
    node = args.node if args.node is not None else _default_node(arm, qname)
    if node is None:
        print(
            f"{arm_label}: {qname} holds at no node — nothing to explain",
            file=sys.stderr,
        )
        return 1
    exp = explain_activity(arm, node, qname)
    for phase, _ in activity_phases():
        if args.phase not in ("both", phase):
            continue
        chain = getattr(exp, phase)
        chain.problem = f"{arm_label} {chain.problem}"
        print(chain.render())
        print()
        chains.append(chain)
    return 0


def _explain_registry_arm(args, spec, arm_label, arm, chains) -> int:
    """Chains for a non-activity registry analysis on one arm: re-run
    it with provenance recording on the arm's model, then walk the
    recorded derivation."""
    from .analyses.mpi_model import MpiModel
    from .analyses.registry import AnalyzeRequest, get, run_entry
    from .obs import explain

    entry = get(args.phase)
    model = (
        MpiModel.GLOBAL_BUFFER if arm_label == "ICFG" else MpiModel.COMM_EDGES
    )
    req = AnalyzeRequest(
        independents=tuple(spec.independents),
        dependents=tuple(spec.dependents),
        mpi_model=model,
        strategy=args.strategy,
        record_provenance=True,
    )
    solved = run_entry(entry, arm.icfg, req)
    qname = _resolve_fact(arm.icfg, args.fact)
    node = (
        args.node
        if args.node is not None
        else _default_node_result(arm.icfg, solved, qname)
    )
    if node is None:
        print(
            f"{arm_label}: {qname} holds at no node — nothing to explain",
            file=sys.stderr,
        )
        return 1
    chain = explain(solved, node, qname)
    chain.problem = f"{arm_label} {chain.problem}"
    print(chain.render())
    print()
    chains.append(chain)
    return 0


def _cmd_explain(args) -> int:
    from .analyses.registry import activity_phases
    from .experiments.table1 import run_benchmark

    spec = _trace_spec(args)
    row = run_benchmark(
        spec,
        strategy=args.strategy,
        record_provenance=True,
    )
    arms = {
        "icfg": [("ICFG", row.icfg)],
        "mpi": [("MPI-ICFG", row.mpi)],
        "both": [("ICFG", row.icfg), ("MPI-ICFG", row.mpi)],
    }[args.arm]
    activity_names = {name for name, _ in activity_phases()}
    chains = []
    status = 0
    for arm_label, arm in arms:
        if args.phase == "both" or args.phase in activity_names:
            status |= _explain_activity_arm(args, arm_label, arm, chains)
        else:
            status |= _explain_registry_arm(args, spec, arm_label, arm, chains)
    if args.html and chains:
        from .obs import write_html_report

        out = write_html_report(
            args.html,
            title=f"repro explain — {spec.name}",
            subtitle=f"fact {args.fact} ({spec.source_label})",
            chains=chains,
        )
        print(f"// wrote {out}", file=sys.stderr)
    return status


def _select_chains(row, limit: int = 12) -> list:
    """Derivation chains worth reporting: every active variable at every
    MPI operation, MPI-ICFG arm first, up to ``limit``."""
    from .analyses.mpi_model import MPI_BUFFER_QNAME
    from .cfg.node import MpiNode
    from .obs import explain_activity

    graph = row.mpi.icfg.graph
    mpi_ids = sorted(
        n.id for n in graph.nodes.values() if isinstance(n, MpiNode)
    )
    chains = []
    for arm_label, arm in (("MPI-ICFG", row.mpi), ("ICFG", row.icfg)):
        for nid in mpi_ids:
            for atom in sorted(arm.active_at(nid)):
                if atom == MPI_BUFFER_QNAME:
                    continue
                if len(chains) >= limit:
                    return chains
                exp = explain_activity(arm, nid, atom)
                exp.vary.problem = f"{arm_label} {exp.vary.problem}"
                exp.useful.problem = f"{arm_label} {exp.useful.problem}"
                chains.append(exp)
    return chains


def _comm_edges_text(graph) -> str:
    from .cfg.node import EdgeKind, MpiNode
    from .mpi.matching import comm_context

    lines = []
    for edge in graph.edges():
        if edge.kind is not EdgeKind.COMM:
            continue
        a, b = graph.nodes[edge.src], graph.nodes[edge.dst]
        if isinstance(a, MpiNode) and isinstance(b, MpiNode):
            lines.append(comm_context(a, b, edge.label))
        else:
            lines.append(f"{edge.src} → {edge.dst} ({edge.label})")
    return "\n".join(lines) or "(no communication edges)"


def _cmd_report(args) -> int:
    from .experiments.table1 import render_table1, run_benchmark
    from .obs import (
        disable_tracing,
        enable_tracing,
        get_metrics,
        render_convergence,
        reset_metrics,
        write_html_report,
    )

    spec = _trace_spec(args)
    enable_tracing(fresh=True)
    reset_metrics()
    try:
        row = run_benchmark(
            spec,
            strategy=args.strategy,
            record_convergence=True,
            record_provenance=True,
        )
        table_text = render_table1([row], with_paper=spec.paper is not None)
    finally:
        disable_tracing()

    graph = row.mpi.icfg.graph
    from .cfg.node import EdgeKind

    comm_edges = sum(1 for e in graph.edges() if e.kind is EdgeKind.COMM)
    summary = {
        "benchmark": spec.name,
        "solver": args.strategy,
        "ICFG iterations": row.icfg.iterations,
        "MPI-ICFG iterations": row.mpi.iterations,
        "ICFG active bytes": f"{row.icfg.active_bytes:,}",
        "MPI-ICFG active bytes": f"{row.mpi.active_bytes:,}",
        "decrease": f"{row.pct_decrease:.2f}%",
        "COMM edges": comm_edges,
    }
    from .analyses.registry import activity_phases

    convergence = {}
    for arm_label, arm in (("ICFG", row.icfg), ("MPI-ICFG", row.mpi)):
        for phase, get_phase in activity_phases():
            solved = get_phase(arm)
            if solved.convergence is None:
                continue
            convergence[f"{arm_label} {phase}"] = render_convergence(
                solved.convergence, graph=arm.icfg.graph, changed_only=True
            )
    metrics = {}
    for name, entry in get_metrics().snapshot().items():
        if entry["type"] == "histogram":
            metrics[name] = f"count={entry['count']} sum={entry['sum']:g}"
        else:
            metrics[name] = entry["value"]

    out = write_html_report(
        args.out,
        title=f"repro report — {spec.name}",
        subtitle=f"{spec.source_label} · strategy={args.strategy}",
        summary=summary,
        table1_text=table_text,
        match_text=_comm_edges_text(graph),
        chains=_select_chains(row, limit=args.chains),
        convergence=convergence,
        metrics=metrics,
    )
    print(f"wrote {out}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .programs.registry import BENCHMARKS, benchmark_names
    from .serving import AnalysisServer

    warm = list(args.warm)
    if "all" in warm:
        warm = list(benchmark_names())
    for name in warm:
        if name not in BENCHMARKS:
            print(f"error: unknown benchmark {name!r} in --warm")
            return 2

    server = AnalysisServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        warm=warm,
        lru_capacity=args.lru_capacity,
        lru_shards=args.lru_shards,
        queue_limit=args.queue_limit,
        batch_size=args.batch_size,
        batch_window_ms=args.batch_window_ms,
        disk_cache=args.disk_cache,
        trace_dir=args.trace_out,
        access_log=args.access_log,
        slo_ms=args.slo_ms,
        flight_dir=args.flight_recorder,
    )

    async def run() -> None:
        await server.start()
        mode = "inline" if args.workers == 0 else f"{args.workers} workers"
        print(
            f"serving on http://{server.host}:{server.port} "
            f"({mode}, warm: {', '.join(warm) or 'none'})",
            flush=True,
        )
        await server.serve_until_shutdown()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted")
    print("server stopped")
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "dot": _cmd_dot,
    "analyze": _cmd_analyze,
    "constants": _cmd_constants,
    "activity": _cmd_activity,
    "bitwidth": _cmd_bitwidth,
    "slice": _cmd_slice,
    "fold": _cmd_fold,
    "dce": _cmd_dce,
    "transform": _cmd_transform,
    "run": _cmd_run,
    "table1": _cmd_table1,
    "figure4": _cmd_figure4,
    "trace": _cmd_trace,
    "explain": _cmd_explain,
    "report": _cmd_report,
    "serve": _cmd_serve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
