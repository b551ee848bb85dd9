"""One end-to-end benchmark workload, run in a process of its own.

``run.py`` spawns this script once per part of a workload run, each
part with its own ``PYTHONHASHSEED``::

    python3 benchmarks/e2e/workloads.py --workload table1 --seed 1 \
        --rounds 34 --part 0 --parts 4 --trace 0

and merges the JSON objects they print on their last line.  Set-up time
runs from the first statement below, before ``repro`` is imported, to
the first timed op.

Load is a closed loop: each connection sends its next op only when the
previous one has returned.  Ops come in *rounds*, each a fixed multiset
drawn from the seed, and each connection runs exactly ``--rounds`` of
them, so the op count is the same on every commit and every per-op
count repeats exactly for a seed.  With ``--trace 1`` odd rounds run
under a private :class:`repro.obs.trace.Tracer` that records an ``op``
span and one child span per layer call; even rounds run untraced and
give the tracing overhead.  The post-loop checks that are expensive
(re-solving ``synth-scale`` programs, rendering ``serve-mix`` responses
directly) are split among the parts, so a run does each once.
"""

import time

T0 = time.perf_counter()

import argparse
import hashlib
import json
import os
import pathlib
import random
import resource
import subprocess
import sys
import threading
import traceback
from collections import Counter
from dataclasses import dataclass, field

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from repro.analyses import MpiModel, activity_analysis
from repro.analyses import registry as analyses_registry
from repro.cfg import build_icfg
from repro.experiments.table1 import Table1Row, render_table1
from repro.ir import parse_program, tokenize, validate_program
from repro.mpi import add_communication_edges, match_communication
from repro.mpi import build_mpi_icfg
from repro.obs.trace import NULL_TRACER, Tracer, read_jsonl
from repro.programs import biostat, cg, figure1, lu, mg, sor, sweep3d
from repro.programs.registry import BENCHMARKS, BenchmarkSpec
from repro.runtime import LatencyModel, RunConfig, run_spmd
from repro.serving.client import ServeClient, ServeClientError

import synth

EXPECTED_PATH = HERE / "expected.json"
OUT_DIR = HERE / "out"

#: synth-scale: one program per (phases, depth, clone_level) per round.
#: Seven resolved-tag and eight merged-tag shapes, 400-2,500 ICFG nodes;
#: fifteen per round puts p50 and p90 mid-way between two programs.
#: Each part of a run generates its own fifteen (see :func:`synth_pool`),
#: so a run averages the seed's effect on solver work over four variants
#: of every shape.
SYNTH_STRATA = (
    (12, 1, 1), (20, 1, 2), (24, 1, 1), (12, 2, 2), (16, 2, 3),
    (11, 3, 3), (17, 3, 3),
    (16, 1, 0), (18, 2, 0), (14, 2, 1), (18, 3, 1), (30, 1, 0),
    (24, 2, 1), (16, 3, 2), (28, 3, 2),
)
SYNTH_NODE_BAND = (400, 2500)

#: spmd-run: program -> ops per round.  The shares (10% / 20% / 40% /
#: 30%) put p50 inside the LU-1 ops and p90 inside the Sw-3 ops instead
#: of on the edge between two programs' run times.
SPMD_ROUND = {"figure1": 1, "overlap": 2, "LU-1": 4, "Sw-3": 3}
#: Registry size overrides: LU-1 and Sw-3 at the extents of
#: ``benchmarks/bench_overlap.py``, so makespans match BENCH_overlap.json.
SPMD_SIZES = {
    "LU-1": {"u": 600, "rsd": 640, "flux": 400, "jac": 100,
             "hbuf3": 40, "hbuf1": 40, "nfrct": 40},
    "Sw-3": {"flux": 512, "face": 10, "phi": 8, "edge": 18,
             "prbuf": 2000, "leak": 6, "angles": 16},
}

#: serve-mix: the hot catalog (bench x analysis x model, Zipf-weighted in
#: one fixed order, so the hit mix is the same for every seed), and the
#: per-connection round: 16 hot requests (LRU hits), 3 novel sources
#: (cold misses) and 1 re-post of an earlier novel source (a hit).
#: Misses are 15% of requests, so p90 falls inside them.
SERVE_BENCHES = ("Sw-3", "LU-1", "SOR", "Biostat", "MG-2", "CG")
SERVE_ANALYSES = ("vary", "useful", "activity", "taint")
SERVE_MODELS = ("comm-edges", "global-buffer")
SERVE_HOT, SERVE_NOVEL, SERVE_REPOST = 16, 3, 1
#: Novel sources cycle through these small (phases, depth, clone level,
#: analysis) shapes, one of each per round, so that traced and untraced
#: rounds do the same work.
SERVE_NOVEL_SHAPES = ((3, 2, 2, "useful"), (3, 1, 0, "activity"), (4, 2, 1, "taint"))
SERVE_CONNECTIONS = 2


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The Table 1 path: the calls of experiments.table1.run_benchmark, one
# layer span each.
# ---------------------------------------------------------------------------


@dataclass
class Analysed:
    row: Table1Row
    match: object
    rendered: str


def analyse(spec: BenchmarkSpec, text: str, tracer) -> Analysed:
    """Both Table 1 arms of ``spec`` computed cold from SPL ``text``."""
    with tracer.span("ir.parse"):
        program = parse_program(text)
    with tracer.span("ir.validate"):
        symtab = validate_program(program)
    with tracer.span("cfg.icfg"):
        icfg = build_icfg(
            program, spec.root, clone_level=spec.clone_level, symtab=symtab
        )
    with tracer.span("analyses.activity_icfg"):
        icfg_arm = activity_analysis(
            icfg, spec.independents, spec.dependents, MpiModel.GLOBAL_BUFFER
        )
    with tracer.span("mpi.match"):
        match = match_communication(icfg)
    with tracer.span("mpi.comm_edges"):
        add_communication_edges(icfg, result=match)
    with tracer.span("analyses.activity_mpi"):
        mpi_arm = activity_analysis(
            icfg, spec.independents, spec.dependents, MpiModel.COMM_EDGES
        )
    row = Table1Row(spec=spec, icfg=icfg_arm, mpi=mpi_arm)
    with tracer.span("experiments.render"):
        rendered = render_table1([row])
    return Analysed(row, match, rendered)


def arm_figures(arm) -> list:
    return [arm.iterations, arm.active_bytes, arm.num_independents]


def analysis_counts(out: Analysed, tokens: int) -> Counter:
    graph = out.row.icfg.icfg.graph
    comm = len(graph.comm_edges)
    counts = Counter(
        tokens=tokens,
        nodes=len(graph),
        edges=sum(1 for _ in graph.edges()) - comm,
        candidates=out.match.candidates,
        pairs=len(out.match.pairs),
    )
    for arm in (out.row.icfg, out.row.mpi):
        for phase in (arm.vary, arm.useful):
            stats = phase.stats
            counts.update(
                passes=stats.passes,
                visits=stats.visits,
                meets=stats.meets,
                transfers=stats.transfers,
                comm_requeues=stats.comm_requeues,
            )
    return counts


def spl_text(spec: BenchmarkSpec) -> str:
    """The SPL source a registry row's program is parsed from."""
    module = {
        "Biostat": biostat, "SOR": sor, "CG": cg, "LU": lu, "MG": mg,
        "Sweep3d": sweep3d,
    }[spec.source_label.split(": ")[1]]
    if spec.sizes or not hasattr(module, "SOURCE"):
        return module.source(**spec.sizes)
    return module.SOURCE


def synth_spec(program: synth.SynthProgram) -> BenchmarkSpec:
    return BenchmarkSpec(
        name=program.name,
        source_label="synthetic",
        builder=lambda text=program.text, **_: parse_program(text),
        root=program.root,
        clone_level=program.clone_level,
        independents=program.independents,
        dependents=program.dependents,
    )


def synth_pool(seed: int, part: int = 0) -> list:
    """The programs of one part of a run: every shape, generated from
    seed ``10 * seed + part``."""
    return [synth.generate(10 * seed + part, *stratum) for stratum in SYNTH_STRATA]


# ---------------------------------------------------------------------------
# Workloads.  Each yields rounds of ops per connection, executes one op
# (opening layer spans on the tracer it is given), checks its output,
# and reports per-op counts.
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    connections = 1

    def __init__(self, seed: int, part: int = 0, parts: int = 1):
        self.seed = seed
        self.part, self.parts = part, parts
        self.rng = random.Random(f"{self.name}:{seed}")
        #: What verify() leaves to run.py: label -> reference digest this
        #: part computed, and label -> response digests it had none for.
        self.references: dict = {}
        self.unchecked: dict = {}

    def setup(self) -> None:
        """Build inputs and run the untimed warm-up ops."""

    def rounds(self, conn: int):
        raise NotImplementedError

    def execute(self, op, tracer):
        raise NotImplementedError

    def check(self, op, out) -> bool:
        raise NotImplementedError

    def counts(self, op, out) -> Counter:
        return Counter()

    def verify(self) -> int:
        """Post-loop checks; returns the number of failed ops found."""
        return 0

    def window_metrics(self) -> dict:
        """Per-layer figures measured over the whole timed window."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


class AnalysisWorkload(Workload):
    """Table 1 ops over a fixed set of programs, shuffled per round."""

    def programs(self) -> list:
        """``(spec, SPL text)`` of every program in a round."""
        raise NotImplementedError

    def setup(self) -> None:
        self.pool = self.programs()
        self.tokens = {spec.name: len(tokenize(text)) for spec, text in self.pool}
        self.serial = 0
        spec, text = min(self.pool, key=lambda p: len(p[1]))
        self.execute((spec, text), NULL_TRACER)

    def rounds(self, conn: int):
        while True:
            pool = list(self.pool)
            self.rng.shuffle(pool)
            ops = []
            for spec, text in pool:
                # A unique comment line: nothing can be memoised across ops.
                self.serial += 1
                ops.append((spec, f"{text}// op {self.serial}\n"))
            yield ops

    def execute(self, op, tracer):
        return analyse(op[0], op[1], tracer)

    def counts(self, op, out) -> Counter:
        return analysis_counts(out, self.tokens[op[0].name])


class Table1Workload(AnalysisWorkload):
    """Every Table 1 row, cold from its SPL text."""

    name = "table1"

    def programs(self) -> list:
        self.expected = load_expected()["table1"]
        return [(spec, spl_text(spec)) for spec in BENCHMARKS.values()]

    def check(self, op, out) -> bool:
        want = self.expected[op[0].name]
        return (
            arm_figures(out.row.icfg) == want["icfg"]
            and arm_figures(out.row.mpi) == want["mpi"]
            and sha256(out.rendered) == want["render_sha256"]
        )


class SynthWorkload(AnalysisWorkload):
    """Seeded synthetic MPI programs of 400-2,500 ICFG nodes."""

    name = "synth-scale"

    def programs(self) -> list:
        self.expected = load_expected()["synth"].get(str(self.seed))
        self.seen: dict = {}
        return [(synth_spec(p), p.text) for p in synth_pool(self.seed, self.part)]

    @staticmethod
    def figures(out: Analysed) -> dict:
        return {
            "icfg": arm_figures(out.row.icfg)[:2],
            "mpi": arm_figures(out.row.mpi)[:2],
            "pairs": len(out.match.pairs),
            "nodes": len(out.row.icfg.icfg.graph),
        }

    def check(self, op, out) -> bool:
        got = self.figures(out)
        name = op[0].name
        # The paper's invariant: COMM edges never add activity.
        ok = got["mpi"][1] <= got["icfg"][1]
        if self.expected is not None:
            ok = ok and got == self.expected[name]
        # Every round must reproduce the first round's answer.
        active = (out.row.icfg.active_symbols, out.row.mpi.active_symbols)
        first = self.seen.setdefault(name, (got, active))
        return ok and first == (got, active)

    def verify(self) -> int:
        """Re-solve this part's share of the shapes (every ``parts``-th,
        so a run covers each shape once) with the ``priority`` strategy;
        the active symbols must equal the round-robin answer of the loop."""
        return sum(
            cross_check_strategy(spec, text) != self.seen[spec.name][1]
            for spec, text in self.pool[self.part :: self.parts]
            if spec.name in self.seen
        )


def cross_check_strategy(spec: BenchmarkSpec, text: str) -> tuple:
    program = parse_program(text)
    icfg = build_icfg(program, spec.root, clone_level=spec.clone_level)
    arms = []
    for model in (MpiModel.GLOBAL_BUFFER, MpiModel.COMM_EDGES):
        if model is MpiModel.COMM_EDGES:
            add_communication_edges(icfg)
        arm = activity_analysis(
            icfg, spec.independents, spec.dependents, model, strategy="priority"
        )
        arms.append(arm.active_symbols)
    return tuple(arms)


@dataclass
class SpmdProgram:
    name: str
    program: object
    inputs: dict


def spmd_programs() -> dict:
    def registry_program(name):
        spec = BENCHMARKS[name]
        return spec.builder(**{**spec.sizes, **SPMD_SIZES[name]})

    overlap = (ROOT / "examples" / "overlap.spl").read_text()
    return {
        "figure1": SpmdProgram("figure1", figure1.program(), {"x": 2.0}),
        "overlap": SpmdProgram("overlap", parse_program(overlap), {}),
        "LU-1": SpmdProgram("LU-1", registry_program("LU-1"), {}),
        "Sw-3": SpmdProgram("Sw-3", registry_program("Sw-3"), {}),
    }


SPMD_CONFIG = RunConfig(
    nprocs=2,
    timeout=60.0,
    record_events=True,
    latency=LatencyModel.parse("linear:10:0.01"),
)


def run_program(prog: SpmdProgram, tracer):
    with tracer.span("runtime.run"):
        return run_spmd(prog.program, SPMD_CONFIG, inputs=prog.inputs)


def values_sha256(result) -> str:
    """Digest of every rank's final values (arrays by dtype, shape, bytes)."""
    digest = hashlib.sha256()
    for rank in result.ranks:
        for name in sorted(rank.values):
            value = rank.values[name]
            if isinstance(value, np.ndarray):
                blob = f"{value.dtype}{value.shape}".encode() + value.tobytes()
            else:
                blob = repr(value).encode()
            digest.update(f"{rank.rank}:{name}=".encode() + blob + b";")
    return digest.hexdigest()


def run_figures(result) -> dict:
    return {
        "makespan": result.makespan,
        "steps": sum(sum(r.step_counts.values()) for r in result.ranks),
        "messages": sum(1 for e in result.events if e.kind == "send"),
        "values_sha256": values_sha256(result),
    }


class SpmdWorkload(Workload):
    """``repro run``: figure1, LU-1, Sw-3 and examples/overlap.spl."""

    name = "spmd-run"

    def setup(self) -> None:
        self.expected = load_expected()["spmd"]
        self.programs = spmd_programs()
        for name in ("figure1", "overlap"):
            self.execute(self.programs[name], NULL_TRACER)

    def rounds(self, conn: int):
        while True:
            ops = [self.programs[n] for n, k in SPMD_ROUND.items() for _ in range(k)]
            self.rng.shuffle(ops)
            yield ops

    def execute(self, op, tracer):
        return run_program(op, tracer)

    def check(self, op, out) -> bool:
        return run_figures(out) == self.expected[op.name]

    def counts(self, op, out) -> Counter:
        figures = run_figures(out)
        return Counter(
            steps=figures["steps"],
            messages=figures["messages"],
            sim_makespan_ticks=figures["makespan"],
        )


# -- serve-mix ----------------------------------------------------------------


def hot_catalog() -> dict:
    """Label -> request body for every hot shape."""
    return {
        f"hot:{b}/{a}/{m}": {"analysis": a, "bench": b, "model": m}
        for b in SERVE_BENCHES
        for a in SERVE_ANALYSES
        for m in SERVE_MODELS
    }


def novel_body(seed: int, conn: int, index: int) -> dict:
    """The ``index``-th novel source of one connection (index 0 is sent
    during warm-up so the first round has something to re-post)."""
    phases, depth, level, analysis = SERVE_NOVEL_SHAPES[index % len(SERVE_NOVEL_SHAPES)]
    program = synth.generate(
        seed * 100_000 + conn * 50_000 + index, phases, depth, level
    )
    return {
        "analysis": analysis,
        "source": program.text,
        "root": program.root,
        "clone_level": program.clone_level,
        "independents": list(program.independents),
        "dependents": list(program.dependents),
    }


def direct_text(body: dict) -> str:
    """What ``repro analyze`` renders for one request, with no serving
    machinery: the byte-identity oracle for every response."""
    entry = analyses_registry.get(body["analysis"])
    if "bench" in body:
        spec = BENCHMARKS[body["bench"]]
        program, root, level = spec.program(), spec.root, spec.clone_level
        ind, dep = spec.independents, spec.dependents
    else:
        program = parse_program(body["source"])
        root, level = body["root"], body["clone_level"]
        ind, dep = body["independents"], body["dependents"]
    req = analyses_registry.AnalyzeRequest(
        independents=tuple(ind),
        dependents=tuple(dep),
        mpi_model=MpiModel(body.get("model", "comm-edges")),
    )
    if entry.supports_model and req.mpi_model.uses_comm_edges:
        icfg, _ = build_mpi_icfg(program, root, clone_level=level)
    else:
        icfg = build_icfg(program, root, clone_level=level)
    result = analyses_registry.run_entry(entry, icfg, req)
    return entry.render_result(icfg, req, result)


#: A busy loop at SCHED_IDLE priority on one CPU: it runs only when no
#: other task wants that CPU, and any task that wakes preempts it.
SPINNER = """\
import os, sys
os.sched_setaffinity(0, [int(sys.argv[1])])
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
print("spinning", flush=True)
while True:
    pass
"""


def start_spinner(cpu: int) -> subprocess.Popen:
    spinner = subprocess.Popen(
        [sys.executable, "-c", SPINNER, str(cpu)], stdout=subprocess.PIPE, text=True
    )
    spinner.stdout.readline()
    return spinner


def vm_hwm_mb(pid: int) -> float:
    for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ServeWorkload(Workload):
    """``repro serve`` under a hit/miss request mix on two connections."""

    name = "serve-mix"
    connections = SERVE_CONNECTIONS

    def __init__(self, seed: int, part: int = 0, parts: int = 1):
        super().__init__(seed, part, parts)
        # Every CPU this process may use, before main() pins it to one.
        self.cpus = sorted(os.sched_getaffinity(0))
        self.server = None
        self.spinners: list = []
        self.clients: list = []
        #: label -> request body, and label -> Counter of response digests.
        self.bodies: dict = {}
        self.responses: dict = {}
        self.lock = threading.Lock()

    def setup(self) -> None:
        expected = load_expected()["serve"]
        self.committed = {**expected["hot"], **expected["novel"].get(str(self.seed), {})}
        self.catalog = list(hot_catalog().items())
        random.Random(self.name).shuffle(self.catalog)
        self.weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(self.catalog))]
        self.server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                *[arg for b in SERVE_BENCHES for arg in ("--warm", b)],
            ],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            stdout=subprocess.PIPE,
            text=True,
        )
        banner = self.server.stdout.readline()
        if not banner.startswith("serving on http://"):
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        port = int(banner.split()[2].rsplit(":", 1)[1])
        self.clients = [ServeClient(port=port) for _ in range(self.connections)]
        while self.clients[0].health().get("status") != "ok":
            time.sleep(0.01)
        for _label, body in self.catalog:
            self.clients[0].post("analyze", **body)
        for conn, client in enumerate(self.clients):
            client.post("analyze", **novel_body(self.seed, conn, 0))
        # Each request wakes the server's CPU and each reply the client's.
        # On a virtual machine, waking an idle CPU goes through the host
        # and takes as long as the host's load makes it: on a 2-CPU VM
        # without the spinners, the hits' p50 moved between 0.13 and
        # 0.21 ms from run to run.  The spinners keep every CPU busy, so
        # a wake-up is a plain context switch.
        self.spinners = [start_spinner(cpu) for cpu in self.cpus]
        self.stats_before = self.clients[0].stats()

    def rounds(self, conn: int):
        rng = random.Random(f"{self.name}:{self.seed}:{conn}")
        client = self.clients[conn]
        sent = [(f"c{conn}-n0", novel_body(self.seed, conn, 0))]
        index = 0
        while True:
            ops = rng.choices(self.catalog, weights=self.weights, k=SERVE_HOT)
            ops += rng.sample(sent, SERVE_REPOST)
            for _ in range(SERVE_NOVEL):
                index += 1
                sent.append((f"c{conn}-n{index}", novel_body(self.seed, conn, index)))
                ops.append(sent[-1])
            rng.shuffle(ops)
            yield [(client, label, body) for label, body in ops]

    def execute(self, op, tracer):
        client, label, body = op
        with tracer.span("serving.request") as span:
            resp = client.post("analyze", **body)
            span.set(cache=resp.cache)
        with self.lock:
            self.bodies[label] = body
            self.responses.setdefault(label, Counter())[sha256(resp.text)] += 1
        return resp

    def check(self, op, out) -> bool:
        # Response bodies are checked after the loop (verify).
        return out.status == 200 and out.cache in ("hit", "miss", "coalesced")

    def window_metrics(self) -> dict:
        before, after = self.stats_before, self.clients[0].stats()

        def delta(section, key):
            return after[section][key] - before[section][key]

        def server_ms(stats):
            return sum(q["sum"] for q in stats["telemetry"]["quantiles"].values())

        return {
            "lru_hits": delta("lru", "hits"),
            "lru_lookups": delta("lru", "hits") + delta("lru", "misses"),
            "dedup_followers": delta("dedup", "followers"),
            "dedup_arrivals": delta("dedup", "leaders") + delta("dedup", "followers"),
            "batches": delta("batching", "batches"),
            "batched_tasks": delta("batching", "batched_tasks"),
            "rejected": after["rejected"] - before["rejected"],
            "server_ms": server_ms(after) - server_ms(before),
        }

    def verify(self) -> int:
        """Every response against its reference digest; returns the ops
        that differ.  The reference is the committed digest where there
        is one, else a direct rendering.  Every part of a run sends the
        same novel sources, so each renders only its share of them
        (``index % parts == part``) and leaves the other responses in
        ``unchecked`` for ``run.py`` to hold against another part's
        ``references``."""
        failed = 0
        for label, digests in self.responses.items():
            # Hot labels are always committed; novel ones are c<conn>-n<index>.
            want = self.committed.get(label)
            if want is None and int(label.split("-n")[1]) % self.parts == self.part:
                want = self.references[label] = sha256(direct_text(self.bodies[label]))
            if want is None:
                self.unchecked[label] = dict(digests)
            else:
                failed += sum(n for digest, n in digests.items() if digest != want)
        return failed

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.server.pid)

    def close(self) -> None:
        for spinner in self.spinners:
            spinner.kill()
            spinner.wait()
            spinner.stdout.close()
        if self.server is None:
            return
        try:
            if self.clients:
                self.clients[0].shutdown()
        except (OSError, ServeClientError):
            pass
        for client in self.clients:
            client.close()
        try:
            self.server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()


MAKERS = {
    "table1": Table1Workload,
    "synth-scale": SynthWorkload,
    "spmd-run": SpmdWorkload,
    "serve-mix": ServeWorkload,
}


# ---------------------------------------------------------------------------
# The measurement loop.
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """What one connection's closed loop observed."""

    untraced: list = field(default_factory=list)  # op seconds
    traced: list = field(default_factory=list)  # op seconds
    attempted: int = 0
    failed: int = 0
    counts: Counter = field(default_factory=Counter)
    end: float = 0.0
    errors: list = field(default_factory=list)


def drive(workload: Workload, conn: int, rounds: int, tracer, tally: Tally) -> None:
    for index, ops in zip(range(rounds), workload.rounds(conn)):
        traced = tracer is not None and index % 2 == 1
        span_tracer = tracer if traced else NULL_TRACER
        for op in ops:
            tally.attempted += 1
            start = time.perf_counter()
            try:
                with span_tracer.span("op", workload=workload.name):
                    out = workload.execute(op, span_tracer)
                elapsed = time.perf_counter() - start
                ok = workload.check(op, out)
                counts = workload.counts(op, out) if traced else None
            except Exception:  # a failed op is a result, not a crash
                tally.failed += 1
                tally.errors.append(traceback.format_exc(limit=3))
                continue
            # Free the result here, not inside the next op's timing.
            del out
            (tally.traced if traced else tally.untraced).append(elapsed)
            tally.failed += not ok
            if counts:
                tally.counts.update(counts)
    tally.end = time.perf_counter()


def self_times(spans: list) -> Counter:
    """Summed self time per span name: a span's duration minus its
    children's.  ``op`` self time is the part of an op that no layer
    claims; ``serving.request`` splits by its ``X-Cache`` outcome."""
    child_time = Counter()
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["dur"]
    out = Counter()
    for s in spans:
        name = s["name"]
        if name == "serving.request":
            name = f"serving.{s['attrs'].get('cache', 'none')}"
        out[name] += s["dur"] - child_time[s["id"]]
    return out


def measure(workload: Workload, rounds: int, trace: bool) -> dict:
    """Run ``rounds`` rounds on every connection, then verify.  Returns
    sums and samples that ``run.py`` merges across processes.  A traced
    run needs two rounds: one traced, one untraced."""
    tracer = Tracer() if trace else None
    tallies = [Tally() for _ in range(workload.connections)]
    start = time.perf_counter()
    threads = [
        threading.Thread(target=drive, args=(workload, c, rounds, tracer, t))
        for c, t in enumerate(tallies)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = max(t.end for t in tallies) - start
    window = workload.window_metrics()
    raw = {
        "workload": workload.name,
        "seed": workload.seed,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies) + workload.verify(),
        "wall_s": wall,
        "latencies": [x for t in tallies for x in t.untraced],
        "traced": [x for t in tallies for x in t.traced],
        "peak_rss_mb": workload.peak_rss_mb(),
        "counts": dict(sum((t.counts for t in tallies), Counter())),
        "window": window,
        "errors": [e for t in tallies for e in t.errors][:3],
        "references": workload.references,
        "unchecked": workload.unchecked,
    }
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        hash_seed = os.environ.get("PYTHONHASHSEED", "random")
        path = OUT_DIR / f"trace-{workload.name}-{workload.seed}-h{hash_seed}.jsonl"
        tracer.write_jsonl(path)
        spans = read_jsonl(path)
        raw["self_time"] = dict(self_times(spans))
        raw["trace_path"] = str(path)
    return raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = MAKERS[args.workload](args.seed, args.part, args.parts)
    # One CPU per process: across two cores the interpreter lock's handoffs
    # between threads made op times bimodal.  Processes spawned in set-up
    # (the server) inherit the first CPU; the timed loop runs on the last.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    try:
        workload.setup()
        os.sched_setaffinity(0, cpus[-1:])
        setup_s = time.perf_counter() - T0
        raw = measure(workload, args.rounds, bool(args.trace))
        raw["setup_s"] = setup_s
    finally:
        workload.close()
    print(json.dumps(raw))
    return 0


if __name__ == "__main__":
    sys.exit(main())
