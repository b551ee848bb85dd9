"""Request-handle semantics end-to-end: lint, analyses, runtime, and
the automatic blocking→non-blocking overlap transform.

Four layers of coverage:

* **blocking benchmarks stay byte-identical** — the eight registry
  rows with no request forms solve to the same fact maps (and solver
  work counts) under the refactored request-aware layers as under the
  frozen legacy problems, extending the three-benchmark grid of
  ``tests/test_kernel_equivalence.py`` to the full blocking registry;
* **request forms** — Sweep3d's ``mpi_isend``/``mpi_irecv``/``mpi_wait``
  stubs: post↔wait linkage resolution and execution on simulated ranks;
* **lint diagnostics** — double wait, never-posted wait, leaked and
  branch-unbalanced requests, surfaced both as ``ValidationError`` text
  and through the CLI's error rendering;
* **the overlap transform** — motion counts, idempotence, byte-identity
  on programs with no overlap window, simulated-makespan reductions on
  LU-1 and Sw-3, and a hypothesis property: transformed programs leave
  the final rank state byte-identical under three latency models.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.analyses.useful import UsefulProblem
from repro.analyses.vary import VaryProblem
from repro.cli import main
from repro.dataflow.solver import solve
from repro.ir import parse_program, print_program, validate_program
from repro.ir.ast_nodes import Block, CallStmt, For, If, While
from repro.ir.validate import ValidationError
from repro.mpi import build_mpi_icfg
from repro.mpi.requests import request_linkage
from repro.programs import figure1
from repro.programs.registry import BENCHMARKS
from repro.runtime import LatencyModel, RunConfig, run_spmd
from repro.transforms import make_nonblocking

from benchmarks.seed_solver import seed_solve

from .gen_programs import spmd_programs
from .legacy import LegacyUsefulProblem, LegacyVaryProblem

#: The registry rows whose SPL sources contain no request forms — the
#: refactor must be a pure no-op for them.
BLOCKING_REGISTRY = (
    "Biostat", "SOR", "CG", "LU-1", "LU-2", "LU-3", "MG-1", "MG-2",
)
#: The Sweep3d rows, whose send/receive stubs post and wait requests.
REQUEST_REGISTRY = ("Sw-1", "Sw-3", "Sw-4", "Sw-5", "Sw-6")

#: Reduced extents (bench_interp's committed LU-1 row).
LU1_SIZES = {
    "u": 600, "rsd": 640, "flux": 400, "jac": 100,
    "hbuf3": 40, "hbuf1": 40, "nfrct": 40,
}
#: Reduced extents (bench_overlap's committed Sw-3 row).
SW3_SIZES = {
    "flux": 512, "face": 10, "phi": 8, "edge": 18,
    "prbuf": 2000, "leak": 6, "angles": 16,
}
LATENCY = LatencyModel.parse("linear:10:0.01")

REQUEST_OPS = {"mpi_isend", "mpi_irecv", "mpi_wait"}


def _request_calls(stmt) -> int:
    if isinstance(stmt, Block):
        return sum(_request_calls(s) for s in stmt.body)
    if isinstance(stmt, CallStmt):
        return int(stmt.name in REQUEST_OPS)
    if isinstance(stmt, If):
        n = _request_calls(stmt.then)
        if stmt.els is not None:
            n += _request_calls(stmt.els)
        return n
    if isinstance(stmt, (For, While)):
        return _request_calls(stmt.body)
    return 0


def _uses_requests(program) -> bool:
    return any(_request_calls(p.body) for p in program.procedures)


def _makespan(result) -> float:
    return max((e.t1 for e in result.events), default=0.0)


def _final_states(result):
    """Per-rank values minus the transform's fresh request handles."""
    return [
        {k: v for k, v in rank.values.items() if not k.startswith("req_ov")}
        for rank in result.ranks
    ]


def _assert_same_state(before, after, ctx=""):
    for va, vb in zip(_final_states(before), _final_states(after)):
        assert set(va) == set(vb), ctx
        for k, x in va.items():
            y = vb[k]
            same = (
                np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
            )
            assert same, (ctx, k)


# ---------------------------------------------------------------------------
# Blocking registry rows: byte-identical through the refactored layers.
# ---------------------------------------------------------------------------


def test_registry_partition_is_exhaustive():
    """Every registry row is classified, and correctly."""
    assert set(BENCHMARKS) == set(BLOCKING_REGISTRY) | set(REQUEST_REGISTRY)
    for name in BLOCKING_REGISTRY:
        assert not _uses_requests(BENCHMARKS[name].program()), name
    for name in REQUEST_REGISTRY:
        assert _uses_requests(BENCHMARKS[name].program()), name


@pytest.mark.parametrize("name", BLOCKING_REGISTRY)
def test_blocking_rows_match_legacy(name):
    """Vary/Useful fact maps and solver work counts are identical to the
    frozen pre-request legacy problems on every blocking registry row."""
    spec = BENCHMARKS[name]
    icfg, _ = build_mpi_icfg(
        spec.program(), spec.root, clone_level=spec.clone_level
    )
    entry, exit_ = icfg.entry_exit(icfg.root)
    pairs = (
        (LegacyVaryProblem(icfg, spec.independents),
         VaryProblem(icfg, spec.independents)),
        (LegacyUsefulProblem(icfg, spec.dependents),
         UsefulProblem(icfg, spec.dependents)),
    )
    for legacy, ported in pairs:
        old = solve(icfg.graph, entry, exit_, legacy, strategy="priority")
        new = solve(icfg.graph, entry, exit_, ported, strategy="priority")
        ctx = (name, type(ported).__name__)
        assert new.before == old.before, ctx
        assert new.after == old.after, ctx
        assert new.stats.transfers == old.stats.transfers, ctx
        assert new.stats.comm_requeues == old.stats.comm_requeues, ctx
        # The frozen frozenset solver agrees with the bitset run.
        ref = seed_solve(icfg.graph, entry, exit_, legacy)
        assert new.before == ref.before, ctx
        assert new.after == ref.after, ctx


# ---------------------------------------------------------------------------
# Request forms: linkage and execution.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ("Sw-1", "Sw-3"))
def test_sweep_request_linkage(name):
    """Every wait resolves to at least one post and vice versa."""
    spec = BENCHMARKS[name]
    icfg, _ = build_mpi_icfg(
        spec.program(), spec.root, clone_level=spec.clone_level
    )
    linkage = request_linkage(icfg)
    assert linkage.posts_of_wait, name
    assert linkage.waits_of_post, name
    for wait, posts in linkage.posts_of_wait.items():
        assert posts, (name, wait)
    for post, waits in linkage.waits_of_post.items():
        assert waits, (name, post)


def test_sw3_request_forms_execute():
    """The isend/irecv/wait pipeline runs to completion on real ranks."""
    program = BENCHMARKS["Sw-3"].builder(**SW3_SIZES)
    result = run_spmd(
        program,
        RunConfig(nprocs=2, timeout=60.0, record_events=True, latency=LATENCY),
    )
    assert len(result.ranks) == 2
    assert _makespan(result) > 0.0


# ---------------------------------------------------------------------------
# Lint diagnostics.
# ---------------------------------------------------------------------------


def _proc(body: str) -> str:
    return f"program p;\nproc main() {{\n  real a[4]; int q;\n{body}\n}}\n"


class TestRequestLintDiagnostics:
    def test_double_wait(self):
        src = _proc(
            "  call mpi_isend(a, 1, 7, comm_world, q);\n"
            "  call mpi_wait(q);\n"
            "  call mpi_wait(q);"
        )
        with pytest.raises(ValidationError, match="double wait|not in\\s+flight"):
            validate_program(parse_program(src))

    def test_wait_on_never_posted_request(self):
        src = _proc("  call mpi_wait(q);")
        with pytest.raises(
            ValidationError, match="never-posted|not in\\s+flight"
        ):
            validate_program(parse_program(src))

    def test_leaked_request(self):
        src = _proc("  call mpi_isend(a, 1, 7, comm_world, q);")
        with pytest.raises(ValidationError, match="never waited on"):
            validate_program(parse_program(src))

    def test_unbalanced_branches(self):
        src = _proc(
            "  int rank;\n"
            "  rank = mpi_comm_rank();\n"
            "  if (rank == 0) { call mpi_isend(a, 1, 7, comm_world, q); }\n"
            "  call mpi_wait(q);"
        )
        with pytest.raises(ValidationError, match="only one branch"):
            validate_program(parse_program(src))

    def test_cli_renders_lint_error(self, tmp_path, capsys):
        """``repro analyze`` surfaces the lint verdict, not a traceback."""
        path = tmp_path / "leak.spl"
        path.write_text(_proc("  call mpi_isend(a, 1, 7, comm_world, q);"))
        assert main(["analyze", "vary", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "never waited on" in err


# ---------------------------------------------------------------------------
# The overlap transform.
# ---------------------------------------------------------------------------


class TestOverlapTransform:
    def test_figure1_motion_counts(self):
        result = make_nonblocking(figure1.program())
        assert (result.split, result.merged, result.hoisted, result.sunk) == (
            1, 0, 1, 0,
        )
        assert result.dead_buffers == ()

    def test_idempotent_on_own_output(self):
        once = make_nonblocking(figure1.program())
        twice = make_nonblocking(once.program)
        assert print_program(twice.program) == print_program(once.program)
        assert twice.split == 0

    def test_no_opportunity_is_byte_identical(self):
        """A send whose buffer is read immediately afterwards is re-fused:
        the transform must emerge byte-identical to its input."""
        src = """\
program p;
proc main() {
  real buf[4]; int rank; int i;
  rank = mpi_comm_rank();
  for i = 0 to 3 {
    buf[i] = float(i);
  }
  if (rank == 0) {
    call mpi_send(buf, 1, 7, comm_world);
  } else {
    call mpi_recv(buf, 0, 7, comm_world);
  }
  buf[0] = buf[1] + 1.0;
}
"""
        program = parse_program(src)
        result = make_nonblocking(program)
        assert result.split == 0
        assert print_program(result.program) == print_program(program)

    def test_transformed_output_revalidates(self):
        for name in ("LU-1", "Sw-3"):
            spec = BENCHMARKS[name]
            result = make_nonblocking(spec.program())
            validate_program(result.program)
            # and it round-trips through the printer/parser.
            assert (
                parse_program(print_program(result.program)) == result.program
            )

    def test_lu1_overlap_reduces_makespan(self):
        program = BENCHMARKS["LU-1"].builder(**LU1_SIZES)
        result = make_nonblocking(program)
        assert result.split == 2
        assert result.merged == 1
        assert result.sunk == 1
        config = RunConfig(
            nprocs=2, timeout=60.0, record_events=True, latency=LATENCY
        )
        before = run_spmd(program, config)
        after = run_spmd(result.program, config)
        _assert_same_state(before, after, "LU-1")
        assert _makespan(after) < _makespan(before)

    def test_sw3_overlap_reduces_makespan(self):
        program = BENCHMARKS["Sw-3"].builder(**SW3_SIZES)
        result = make_nonblocking(program)
        assert ("sweep", "prbuf") in result.dead_buffers
        config = RunConfig(
            nprocs=2, timeout=60.0, record_events=True, latency=LATENCY
        )
        before = run_spmd(program, config)
        after = run_spmd(result.program, config)
        _assert_same_state(before, after, "Sw-3")
        assert _makespan(after) < _makespan(before)


#: Semantics preservation must hold whatever the network timing is.
LATENCY_MODELS = ("zero", "constant:5", "linear:10:0.01")


@given(spmd_programs(max_segments=4))
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_transform_preserves_final_state(prog):
    """The overlap transform leaves every rank's final state
    byte-identical on random SPMD programs, under three latency models."""
    result = make_nonblocking(prog)
    validate_program(result.program)
    for spec in LATENCY_MODELS:
        config = RunConfig(
            nprocs=2,
            timeout=10.0,
            record_events=True,
            latency=LatencyModel.parse(spec),
        )
        before = run_spmd(prog, config, inputs={"x": 0.37})
        after = run_spmd(result.program, config, inputs={"x": 0.37})
        _assert_same_state(before, after, spec)
