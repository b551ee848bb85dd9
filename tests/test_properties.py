"""Property-based tests over randomly generated SPMD programs.

The heavy-hitters of the suite:

* **Vary soundness** — every symbol that dynamically carries derivative
  taint in the SPMD interpreter is in the static Vary results;
* **reaching-constants soundness** — whenever the static analysis
  claims a constant after an assignment, every dynamic execution of
  that assignment produced exactly that value;
* **solver strategy agreement** — priority and round-robin reach the
  same fixed point;
* **separability** — liveness is unchanged by communication edges;
* **two-copy equivalence** — the paper's precision claim, on random
  programs.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings

from repro.analyses import (
    MpiModel,
    activity_analysis,
    liveness_analysis,
    reaching_constants,
    vary_analysis,
)
from repro.baselines import build_two_copy, two_copy_activity
from repro.cfg import build_icfg
from repro.cfg.node import AssignNode
from repro.ir import validate_program
from repro.mpi import add_communication_edges, build_mpi_icfg
from repro.runtime import RunConfig, run_spmd

from .gen_programs import spmd_programs

_slow = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
_fast = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@given(spmd_programs())
@_fast
def test_generated_programs_validate(prog):
    validate_program(prog)


@given(spmd_programs())
@_fast
def test_icfg_well_formed(prog):
    icfg, match = build_mpi_icfg(prog, "main")
    icfg.check_consistency()
    assert len(icfg.graph.comm_edges) == match.edge_count


@given(spmd_programs())
@_fast
def test_solver_strategies_agree(prog):
    icfg, _ = build_mpi_icfg(prog, "main")
    rr = vary_analysis(icfg, ["x"], MpiModel.COMM_EDGES, strategy="roundrobin")
    pr = vary_analysis(icfg, ["x"], MpiModel.COMM_EDGES, strategy="priority")
    for nid in icfg.graph.nodes:
        assert rr.in_fact(nid) == pr.in_fact(nid)
        assert rr.out_fact(nid) == pr.out_fact(nid)


@given(spmd_programs())
@_slow
def test_vary_soundness_against_interpreter(prog):
    """Dynamic derivative taint ⊆ static Vary (union over all points)."""
    icfg, _ = build_mpi_icfg(prog, "main")
    vary = vary_analysis(icfg, ["x"], MpiModel.COMM_EDGES)
    static: set[tuple[str, str]] = set()
    symtab = icfg.symtab
    for nid in icfg.graph.nodes:
        for q in vary.in_fact(nid) | vary.out_fact(nid):
            static.add(symtab.symbol_of_qname(q).origin_key)

    result = run_spmd(
        prog,
        RunConfig(nprocs=2, timeout=5.0, taint_seeds=("x",)),
        inputs={"x": 0.37},
    )
    dynamic = result.tainted_symbols
    assert dynamic <= static, dynamic - static


@given(spmd_programs())
@_slow
def test_reaching_constants_soundness(prog):
    """Static constant claims hold in every dynamic execution."""
    icfg, _ = build_mpi_icfg(prog, "main")
    consts = reaching_constants(icfg, MpiModel.COMM_EDGES)
    # (proc, line, target name) -> claimed constant value.
    claims = {}
    for nid, node in icfg.graph.nodes.items():
        if not isinstance(node, AssignNode):
            continue
        sym = icfg.symtab.try_lookup(node.proc, node.target.name)
        if sym is None:
            continue
        value = consts.out_fact(nid).get(sym.qname)
        if value is not None and value.is_const:
            claims[(node.proc, node.loc.line, node.target.name)] = value.value

    result = run_spmd(
        prog,
        RunConfig(nprocs=2, timeout=5.0, record_assignments=True),
        inputs={"x": 1.23},
    )
    for rank in result.ranks:
        for proc, line, name, value in rank.assign_log:
            claimed = claims.get((proc, line, name))
            if claimed is None or isinstance(value, bool) != isinstance(
                claimed, bool
            ):
                continue
            assert math.isclose(float(value), float(claimed), rel_tol=1e-12), (
                proc,
                line,
                name,
                value,
                claimed,
            )


@given(spmd_programs())
@_fast
def test_liveness_separability(prog):
    icfg1 = build_icfg(prog, "main")
    res1 = liveness_analysis(icfg1, live_out=["out"])
    icfg2 = build_icfg(prog, "main")
    add_communication_edges(icfg2)
    res2 = liveness_analysis(icfg2, live_out=["out"])
    for nid in icfg1.graph.nodes:
        assert res1.in_fact(nid) == res2.in_fact(nid)


@given(spmd_programs(max_segments=4))
@_slow
def test_two_copy_equivalence(prog):
    """§2: single-copy MPI-ICFG precision equals the two-copy approach."""
    icfg, _ = build_mpi_icfg(prog, "main")
    single = activity_analysis(icfg, ["x"], ["out"], MpiModel.COMM_EDGES)
    double = two_copy_activity(build_two_copy(prog, "main"), ["x"], ["out"])
    assert single.active_symbols == double.active_symbols
    assert single.active_bytes == double.active_bytes


@given(spmd_programs())
@_fast
def test_mpi_icfg_never_worse_than_global_buffer(prog):
    icfg, _ = build_mpi_icfg(prog, "main")
    ours = activity_analysis(icfg, ["x"], ["out"], MpiModel.COMM_EDGES)
    base_icfg = build_icfg(prog, "main")
    base = activity_analysis(base_icfg, ["x"], ["out"], MpiModel.GLOBAL_BUFFER)
    assert ours.active_bytes <= base.active_bytes
