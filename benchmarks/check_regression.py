"""Performance-regression gate for the committed BENCH baselines.

Runs the pipeline and solver benchmarks fresh and compares them against
the committed ``benchmarks/results/BENCH_pipeline.json`` /
``BENCH_solver.json``, failing (exit 1) on a >25% slowdown on any arm.
Absolute wall times are machine-dependent — the committed baselines
come from a different box than CI — so both comparisons run on
*normalized* figures:

* **pipeline** arms compare ``time(arm) / time(serial_cold)`` ratios —
  "warm cache is 215× faster than cold" transfers across machines even
  when the cold time itself does not.  Sub-threshold absolute deltas
  (default 5 ms) never fail: a 1 ms warm run can jitter past 25%
  without meaning anything, while a broken cache jumps by the full
  cold time.
* **solver** configurations compare speedup-vs-seed geometric means
  per strategy over the whole Table 1 suite, measured against the
  frozen PR-0 solver (``benchmarks/seed_solver.py``) in the same
  process, same as ``bench_solver.py`` does.
* **incremental** (``BENCH_incremental.json``) gates absolute speedup
  *ratios*, which are machine-normalized by construction: on every
  row, single-statement edit streams must stay ≥5× faster
  incrementally than cold, and demand queries must visit strictly
  fewer nodes than a cold solve.  The committed report is validated as
  recorded; the fresh guard re-runs ``bench_incremental`` in smoke
  mode (LU-1, ~10× margin) so CI does not replay the multi-minute full
  matrix.

* **interp** (``BENCH_interp.json``) gates the SPMD interpreter's
  event-recording figures *exactly*: message/byte counts, collective
  rounds, interpreted steps, simulated makespan, blocked fraction, and
  critical-path length are all computed on the deterministic simulated
  clock, so they are machine-independent by construction and any drift
  between the committed report and a fresh ``bench_interp`` run is a
  semantic change in the interpreter, recorder, or timeline builder —
  never timing noise.  The committed report must also record the
  events-on overhead target as met; the fresh run's overhead ratio is
  re-gated only under ``--strict`` (CI boxes re-time it in the
  dedicated bench-interp smoke step too).

* **overlap** (``BENCH_overlap.json``) gates the blocking→non-blocking
  overlap transform *exactly*: statement-motion counts and the
  original/transformed simulated makespans are deterministic, so any
  drift between the committed report and a fresh ``bench_overlap`` run
  is a semantic change.  Both reports must additionally record a
  strictly positive makespan reduction on every ``must_improve`` row
  (LU-1 and Sw-3) and byte-identical final rank state on every row —
  a transform that stops hiding communication, or starts changing
  results, fails the gate even if it still round-trips.

* **serving** (``BENCH_serving.json``) gates the committed serving
  report on its machine-independent figures only: LRU hit rate and
  dedup ratio under the recorded repeat-heavy load mix, zero non-200
  responses, at least one byte-identity sample, and the recorded
  warm-speedup target having been met.  Wall-clock latency and req/s
  are informational — the live code path is exercised by the CI
  serve-smoke step (``bench_serving.py --smoke --url ...`` against a
  real ``repro serve`` process), not re-timed here.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py            # gate
    PYTHONPATH=src python benchmarks/check_regression.py --threshold 0.5
    PYTHONPATH=src python benchmarks/check_regression.py --strict   # CI

A missing committed baseline skips that comparison with a notice (the
gate cannot regress against nothing) — except under ``--strict``,
where a missing baseline is itself a failure, so CI notices when a
benchmark's committed artifact silently disappears.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
import tempfile
import time

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
DEFAULT_THRESHOLD = 0.25
#: Ignore ratio regressions whose absolute cost is below this — timing
#: noise on sub-millisecond arms, not a real slowdown.
MIN_ABS_DELTA_S = 0.005
#: Parallel arms additionally absorb process-pool startup, a machine
#: constant (fork + import cost) unrelated to the analysed workload —
#: it cannot be normalized away by dividing by serial_cold, so those
#: arms get a larger absolute allowance before a ratio excess counts.
POOL_STARTUP_ALLOWANCE_S = 0.25
#: Best-of repetitions for the fresh solver measurement (matches
#: bench_solver._REPS).
_REPS = 3
#: Floor for incremental-vs-cold speedup on single-statement edit
#: streams (ratios are machine-normalized).
MIN_INCREMENTAL_SPEEDUP = 5.0
#: Floors for the serving report's machine-independent cache figures.
#: The committed full run records ~0.70 hit rate / ~0.35 dedup ratio;
#: the floors leave room for mix jitter, not for a broken cache tier.
MIN_SERVING_HIT_RATE = 0.40
MIN_SERVING_DEDUP_RATIO = 0.02


# ---------------------------------------------------------------------------
# Pure comparison logic (unit-tested in tests/test_regression_gate.py).
# ---------------------------------------------------------------------------


def geomean(values) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def pipeline_ratios(report: dict) -> dict[str, float]:
    """Arm → ``time(arm)/time(serial_cold)`` for one pipeline report."""
    timings = report["timings_s"]
    cold = timings["serial_cold"]
    if not cold:
        return {}
    return {
        arm: t / cold for arm, t in timings.items() if arm != "serial_cold"
    }


def compare_pipeline(
    committed: dict,
    fresh: dict,
    threshold: float = DEFAULT_THRESHOLD,
    min_abs_delta_s: float = MIN_ABS_DELTA_S,
) -> list[str]:
    """Failure messages for pipeline arms that regressed.

    An arm fails when its fresh cold-normalized ratio exceeds the
    committed ratio by more than ``threshold`` *and* the absolute time
    increase over the scaled expectation exceeds ``min_abs_delta_s``.
    """
    failures = []
    committed_ratios = pipeline_ratios(committed)
    fresh_ratios = pipeline_ratios(fresh)
    fresh_cold = fresh["timings_s"]["serial_cold"]
    for arm in sorted(set(committed_ratios) & set(fresh_ratios)):
        base = committed_ratios[arm]
        got = fresh_ratios[arm]
        if base <= 0:
            continue
        allowed = base * (1.0 + threshold)
        abs_delta = (got - allowed) * fresh_cold
        floor = min_abs_delta_s
        if "parallel" in arm:
            floor = max(floor, POOL_STARTUP_ALLOWANCE_S)
        if got > allowed and abs_delta > floor:
            failures.append(
                f"pipeline arm {arm!r}: {got:.4f}×cold vs committed "
                f"{base:.4f}×cold ({got / base - 1.0:+.1%}, "
                f"threshold +{threshold:.0%})"
            )
    return failures


def solver_geomeans(report: dict) -> dict[tuple[str, str], float]:
    """(strategy, backend) → geomean speedup-vs-seed over all entries."""
    by_config: dict[tuple[str, str], list[float]] = {}
    for entry in report.get("benchmarks", []):
        for config in entry.get("configs", []):
            key = (config["strategy"], config["backend"])
            by_config.setdefault(key, []).append(config["speedup"])
    return {key: geomean(vals) for key, vals in by_config.items()}


def compare_solver(
    committed: dict, fresh: dict, threshold: float = DEFAULT_THRESHOLD
) -> list[str]:
    """Failure messages for solver configurations that regressed."""
    failures = []
    committed_geo = solver_geomeans(committed)
    fresh_geo = solver_geomeans(fresh)
    for key in sorted(set(committed_geo) & set(fresh_geo)):
        base = committed_geo[key]
        got = fresh_geo[key]
        if base <= 0:
            continue
        floor = base / (1.0 + threshold)
        if got < floor:
            strategy, backend = key
            failures.append(
                f"solver {strategy}/{backend}: geomean speedup-vs-seed "
                f"{got:.2f}× vs committed {base:.2f}× "
                f"({got / base - 1.0:+.1%}, threshold -{threshold:.0%})"
            )
    return failures


def incremental_failures(
    report: dict,
    min_speedup: float = MIN_INCREMENTAL_SPEEDUP,
    label: str = "committed",
) -> list[str]:
    """Failure messages for one incremental report (committed or fresh).

    Speedups are intra-run ratios, so they transfer across machines.
    Demand queries must beat the cold solve on *visits* — a pure count,
    immune to timing noise — on every row that records one.
    """
    failures = []
    for row in report.get("benchmarks", []):
        where = f"{row['name']}/{row['analysis']} ({label})"
        single = row.get("streams", {}).get("single_stmt")
        if single:
            if single["speedup"] < min_speedup:
                failures.append(
                    f"incremental {where}: single_stmt speedup "
                    f"{single['speedup']:.1f}× below the "
                    f"{min_speedup:.0f}× floor"
                )
        demand = row.get("demand")
        if demand and demand["visits"] >= demand["cold_visits"]:
            failures.append(
                f"incremental {where}: demand query visited "
                f"{demand['visits']} nodes, not fewer than the cold "
                f"solve's {demand['cold_visits']}"
            )
    return failures


def serving_failures(
    report: dict,
    min_hit_rate: float = MIN_SERVING_HIT_RATE,
    min_dedup_ratio: float = MIN_SERVING_DEDUP_RATIO,
    label: str = "committed",
    strict: bool = False,
) -> list[str]:
    """Failure messages for one serving report.

    Only machine-independent figures are gated: cache and dedup rates
    are properties of the request mix and the serving logic, not of the
    box that ran the load.  Smoke-mode reports skip the dedup floor
    (too few concurrent identical arrivals to be meaningful).

    The server-side windowed quantiles (``server_quantiles``, from the
    live-telemetry streams) must be *non-degenerate* when present —
    observed requests, positive p50, p99 ≥ p50 — otherwise the
    telemetry path silently stopped observing and the committed report
    is stale evidence.  A report missing them entirely fails only
    under ``strict`` (CI), so pre-telemetry baselines do not break
    local runs.
    """
    failures = []
    where = f"serving ({label})"
    hit_rate = report.get("hit_rate", 0.0)
    if hit_rate < min_hit_rate:
        failures.append(
            f"{where}: LRU hit rate {hit_rate:.1%} below the "
            f"{min_hit_rate:.0%} floor"
        )
    dedup = report.get("dedup_ratio", 0.0)
    if report.get("mode") == "full" and dedup < min_dedup_ratio:
        failures.append(
            f"{where}: dedup ratio {dedup:.1%} below the "
            f"{min_dedup_ratio:.0%} floor"
        )
    errors = report.get("load", {}).get("errors", 0)
    if errors:
        failures.append(f"{where}: {errors} non-200 responses under load")
    if not report.get("byte_identity_shapes"):
        failures.append(f"{where}: no byte-identity samples recorded")
    if report.get("mode") == "full" and not report.get("target_met"):
        failures.append(
            f"{where}: warm speedup {report.get('warm_speedup', 0.0):.1f}× "
            f"did not meet the recorded "
            f"{report.get('target_warm_speedup', 0.0):.0f}× target"
        )
    quantiles = report.get("server_quantiles")
    if quantiles is None:
        if strict:
            failures.append(
                f"{where}: no server_quantiles recorded — re-run "
                "bench_serving.py against a telemetry-enabled server"
            )
    else:
        agg = quantiles.get("aggregate", {})
        count = agg.get("count", 0)
        p50 = agg.get("p50_ms", 0.0)
        p99 = agg.get("p99_ms", 0.0)
        if count <= 0:
            failures.append(
                f"{where}: server_quantiles observed no requests"
            )
        elif p50 <= 0.0:
            failures.append(
                f"{where}: server-side p50 is {p50} ms — degenerate "
                "quantile stream"
            )
        elif p99 < p50:
            failures.append(
                f"{where}: server-side p99 {p99:.3f} ms < p50 "
                f"{p50:.3f} ms — quantile stream is inconsistent"
            )
    return failures


def compare_incremental(
    committed: dict,
    fresh: dict,
    min_speedup: float = MIN_INCREMENTAL_SPEEDUP,
) -> list[str]:
    """Gate the committed report as recorded and the fresh smoke run."""
    return incremental_failures(
        committed, min_speedup, "committed"
    ) + incremental_failures(fresh, min_speedup, "fresh")


#: Rows every BENCH_overlap.json must carry.
OVERLAP_REQUIRED = ("figure1", "LU-1", "Sw-3")


def overlap_failures(report: dict, label: str = "committed") -> list[str]:
    """Failure messages for one overlap report's internal invariants.

    Every required row must be present, semantics-preserving
    (``values_identical``), and every ``must_improve`` row must record
    a strictly positive simulated-makespan saving — all pure
    simulated-clock facts, valid on any machine.
    """
    failures = []
    where = f"overlap ({label})"
    must = set(report.get("must_improve", []))
    rows = {r.get("name"): r for r in report.get("benchmarks", [])}
    for name in OVERLAP_REQUIRED:
        row = rows.get(name)
        if row is None:
            failures.append(f"{where}: no {name} row recorded")
            continue
        if not row.get("values_identical"):
            failures.append(
                f"{where}: {name} final rank state was not identical — "
                "the transform is not semantics-preserving"
            )
        makespan = row.get("makespan", {})
        if name in must and makespan.get("saved_ticks", 0.0) <= 0.0:
            failures.append(
                f"{where}: {name} saved {makespan.get('saved_ticks', 0.0)!r} "
                "ticks — the overlap transform must reduce its makespan"
            )
    return failures


def compare_overlap(committed: dict, fresh: dict) -> list[str]:
    """Exact-match the overlap figures, committed vs fresh.

    Motion counts and both makespans live on the deterministic
    simulated clock; equality is the only honest comparison.
    """
    failures = overlap_failures(committed, "committed")
    failures.extend(overlap_failures(fresh, "fresh"))
    if committed.get("latency") != fresh.get("latency"):
        failures.append(
            f"overlap: latency model changed — committed "
            f"{committed.get('latency')!r} vs fresh {fresh.get('latency')!r}"
        )
    fresh_rows = {r.get("name"): r for r in fresh.get("benchmarks", [])}
    for row in committed.get("benchmarks", []):
        name = row.get("name")
        other = fresh_rows.get(name)
        if other is None:
            failures.append(f"overlap: fresh run has no {name} row")
            continue
        for key in ("nprocs", "sizes"):
            if row.get(key) != other.get(key):
                failures.append(
                    f"overlap {name}: configuration drift — {key} is "
                    f"{row.get(key)!r} committed vs {other.get(key)!r} fresh"
                )
        for section in ("motion", "makespan"):
            base, new = row.get(section, {}), other.get(section, {})
            for key in sorted(set(base) | set(new)):
                if base.get(key) != new.get(key):
                    failures.append(
                        f"overlap {name}: {section}.{key} drifted — "
                        f"committed {base.get(key)!r} vs fresh "
                        f"{new.get(key)!r} (simulated-clock figures are "
                        "deterministic; this is a semantic change, not "
                        "noise)"
                    )
    return failures


#: Benchmarks whose simulated-clock figures must be present (and, for
#: the latter two, carry a committed critical path) in BENCH_interp.json.
INTERP_REQUIRED = ("figure1", "LU-1", "Sw-3")


def interp_failures(report: dict, label: str = "committed") -> list[str]:
    """Failure messages for one interp report's internal invariants."""
    failures = []
    where = f"interp ({label})"
    rows = {r.get("name"): r for r in report.get("benchmarks", [])}
    for name in INTERP_REQUIRED:
        row = rows.get(name)
        if row is None:
            failures.append(f"{where}: no {name} row recorded")
            continue
        figures = row.get("figures", {})
        for key in ("messages", "bytes", "steps", "makespan",
                    "blocked_fraction", "critical_path_events",
                    "critical_path_ticks"):
            if key not in figures:
                failures.append(f"{where}: {name} is missing figure {key!r}")
        if name in ("LU-1", "Sw-3"):
            if figures.get("critical_path_ticks", 0.0) <= 0.0:
                failures.append(
                    f"{where}: {name} has no positive critical-path "
                    "length — extraction silently degenerated"
                )
    overhead = report.get("overhead", {})
    if label == "committed" and not overhead.get("target_met"):
        failures.append(
            f"{where}: events-on overhead "
            f"{overhead.get('overhead_pct', 0.0):+.1f}% did not meet the "
            f"{overhead.get('target_pct', 0.0):g}% target when recorded"
        )
    return failures


def compare_interp(committed: dict, fresh: dict) -> list[str]:
    """Exact-match every simulated-clock figure, committed vs fresh.

    No threshold: the figures live on the deterministic simulated
    clock, so the only honest comparison is equality.  Wall timings
    (``wall``) are deliberately excluded.
    """
    failures = interp_failures(committed, "committed")
    fresh_rows = {r.get("name"): r for r in fresh.get("benchmarks", [])}
    if committed.get("latency") != fresh.get("latency"):
        failures.append(
            f"interp: latency model changed — committed "
            f"{committed.get('latency')!r} vs fresh {fresh.get('latency')!r}"
        )
    for row in committed.get("benchmarks", []):
        name = row.get("name")
        other = fresh_rows.get(name)
        if other is None:
            failures.append(f"interp: fresh run has no {name} row")
            continue
        for key in ("nprocs", "sizes"):
            if row.get(key) != other.get(key):
                failures.append(
                    f"interp {name}: configuration drift — {key} is "
                    f"{row.get(key)!r} committed vs {other.get(key)!r} fresh"
                )
        base, new = row.get("figures", {}), other.get("figures", {})
        for key in sorted(set(base) | set(new)):
            if base.get(key) != new.get(key):
                failures.append(
                    f"interp {name}: figure {key} drifted — committed "
                    f"{base.get(key)!r} vs fresh {new.get(key)!r} "
                    "(simulated-clock figures are deterministic; this is "
                    "a semantic change, not noise)"
                )
    return failures


# ---------------------------------------------------------------------------
# Fresh measurements.
# ---------------------------------------------------------------------------


def fresh_pipeline(committed: dict) -> dict:
    """Re-run ``bench_pipeline`` in the committed report's mode."""
    import bench_pipeline

    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "BENCH_pipeline.json"
        argv = ["--out", str(out)]
        if committed.get("mode") == "smoke":
            argv.append("--smoke")
        rc = bench_pipeline.main(argv)
        if rc != 0:
            raise RuntimeError(f"bench_pipeline exited {rc}")
        return json.loads(out.read_text())


def fresh_incremental(committed: dict) -> dict:
    """Re-run ``bench_incremental`` in smoke mode.

    Unlike the pipeline gate, the fresh run is always the smoke
    configuration: the full matrix replays every mutation stream with a
    cold solve per edit (minutes of wall time), and the committed full
    report's ratios are already validated as recorded.  The smoke row
    (LU-1 × bitset) carries ~10× margin over the floor, so it guards the
    code path without flaking.
    """
    import bench_incremental

    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "BENCH_incremental.json"
        rc = bench_incremental.main(["--smoke", "--out", str(out)])
        if rc != 0:
            raise RuntimeError(f"bench_incremental exited {rc}")
        return json.loads(out.read_text())


def fresh_overlap(committed: dict) -> dict:
    """Re-run ``bench_overlap`` — fast and fully deterministic."""
    import bench_overlap

    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "BENCH_overlap.json"
        rc = bench_overlap.main(["--out", str(out)])
        if rc != 0:
            raise RuntimeError(f"bench_overlap exited {rc}")
        return json.loads(out.read_text())


def fresh_interp(committed: dict) -> dict:
    """Re-run ``bench_interp`` with few timing rounds.

    The simulated-clock figures are independent of the round count, and
    the overhead target is *not* asserted here (no ``--smoke``): this
    gate only fails on figure drift, plus — under ``--strict`` — on the
    fresh overhead ratio, so a loaded local box never flakes the gate
    on wall time.
    """
    import bench_interp

    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "BENCH_interp.json"
        rc = bench_interp.main(["--rounds", "3", "--out", str(out)])
        if rc != 0:
            raise RuntimeError(f"bench_interp exited {rc}")
        return json.loads(out.read_text())


def _best_of(fn, reps=_REPS):
    best = None
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return best, result


def fresh_solver(committed: dict) -> dict:
    """Re-measure both strategies against the seed solver on the same
    benchmark × analysis entries as the committed report."""
    from repro.analyses.useful import UsefulProblem
    from repro.analyses.vary import VaryProblem
    from repro.dataflow.solver import STRATEGIES, solve
    from repro.mpi import build_mpi_icfg
    from repro.programs.registry import BENCHMARKS

    import seed_solver

    wanted = {
        (e["name"], e["analysis"]) for e in committed.get("benchmarks", [])
    }
    report = {"suite": "table1", "benchmarks": []}
    for spec in BENCHMARKS.values():
        if not any(name == spec.name for name, _ in wanted):
            continue
        icfg, _ = build_mpi_icfg(
            spec.program(), spec.root, clone_level=spec.clone_level
        )
        entry, exit_ = icfg.entry_exit(icfg.root)
        graph = icfg.graph
        problems = (
            ("vary", lambda: VaryProblem(icfg, spec.independents)),
            ("useful", lambda: UsefulProblem(icfg, spec.dependents)),
        )
        for analysis, make in problems:
            if (spec.name, analysis) not in wanted:
                continue
            seed_s, _ = _best_of(
                lambda: seed_solver.seed_solve(graph, entry, exit_, make())
            )
            row = {"name": spec.name, "analysis": analysis, "configs": []}
            for strategy in STRATEGIES:
                wall, res = _best_of(
                    lambda: solve(graph, entry, exit_, make(), strategy=strategy)
                )
                row["configs"].append(
                    {
                        "strategy": strategy,
                        "backend": res.stats.backend,
                        "ms": wall * 1e3,
                        "speedup": seed_s / wall if wall else 0.0,
                    }
                )
            report["benchmarks"].append(row)
    return report


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def _load(path: pathlib.Path):
    if not path.exists():
        return None
    return json.loads(path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed fractional slowdown per arm (default: %(default)s)",
    )
    parser.add_argument(
        "--results-dir",
        type=pathlib.Path,
        default=RESULTS_DIR,
        help="directory holding the committed baselines",
    )
    parser.add_argument(
        "--skip-pipeline", action="store_true", help="skip the pipeline gate"
    )
    parser.add_argument(
        "--skip-solver", action="store_true", help="skip the solver gate"
    )
    parser.add_argument(
        "--skip-incremental",
        action="store_true",
        help="skip the incremental-solver gate",
    )
    parser.add_argument(
        "--skip-serving", action="store_true", help="skip the serving gate"
    )
    parser.add_argument(
        "--skip-interp",
        action="store_true",
        help="skip the interpreter event-recording gate",
    )
    parser.add_argument(
        "--skip-overlap",
        action="store_true",
        help="skip the non-blocking overlap-transform gate",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail when a committed baseline is missing (CI mode)",
    )
    args = parser.parse_args(argv)

    failures: list[str] = []
    checked = 0

    def _missing(name: str, gate: str) -> None:
        if args.strict:
            failures.append(
                f"missing committed {name} — {gate} gate has no baseline "
                "(run the benchmark and commit its results file)"
            )
        else:
            print(f"note: no committed {name} — {gate} gate skipped")

    if not args.skip_pipeline:
        committed = _load(args.results_dir / "BENCH_pipeline.json")
        if committed is None:
            _missing("BENCH_pipeline.json", "pipeline")
        else:
            fresh = fresh_pipeline(committed)
            arm_failures = compare_pipeline(committed, fresh, args.threshold)
            failures.extend(arm_failures)
            checked += 1
            ratios = pipeline_ratios(fresh)
            base = pipeline_ratios(committed)
            for arm in sorted(set(ratios) & set(base)):
                print(
                    f"pipeline {arm:20s} fresh {ratios[arm]:8.4f}×cold "
                    f"committed {base[arm]:8.4f}×cold"
                )

    if not args.skip_solver:
        committed = _load(args.results_dir / "BENCH_solver.json")
        if committed is None:
            _missing("BENCH_solver.json", "solver")
        else:
            fresh = fresh_solver(committed)
            failures.extend(compare_solver(committed, fresh, args.threshold))
            checked += 1
            geo = solver_geomeans(fresh)
            base = solver_geomeans(committed)
            for key in sorted(set(geo) & set(base)):
                strategy, backend = key
                print(
                    f"solver   {strategy + '/' + backend:20s} "
                    f"fresh {geo[key]:6.2f}× committed {base[key]:6.2f}×"
                )

    if not args.skip_incremental:
        committed = _load(args.results_dir / "BENCH_incremental.json")
        if committed is None:
            _missing("BENCH_incremental.json", "incremental")
        else:
            fresh = fresh_incremental(committed)
            failures.extend(compare_incremental(committed, fresh))
            checked += 1
            for report, label in ((committed, "committed"), (fresh, "fresh")):
                for row in report.get("benchmarks", []):
                    single = row.get("streams", {}).get("single_stmt")
                    demand = row.get("demand")
                    if not single or not demand:
                        continue
                    print(
                        f"incremental {label:9s} "
                        f"{row['name'] + '/' + row['analysis']:14s} "
                        f"single_stmt {single['speedup']:5.1f}× "
                        f"demand {demand['visits']}/{demand['cold_visits']} "
                        "visits"
                    )

    if not args.skip_serving:
        committed = _load(args.results_dir / "BENCH_serving.json")
        if committed is None:
            _missing("BENCH_serving.json", "serving")
        else:
            failures.extend(serving_failures(committed, strict=args.strict))
            checked += 1
            agg = committed.get("server_quantiles", {}).get("aggregate", {})
            print(
                f"serving  {committed.get('mode', '?'):20s} "
                f"hit rate {committed.get('hit_rate', 0.0):6.1%} "
                f"dedup {committed.get('dedup_ratio', 0.0):6.1%} "
                f"warm speedup {committed.get('warm_speedup', 0.0):6.0f}× "
                f"server p50/p99 {agg.get('p50_ms', 0.0):.2f}/"
                f"{agg.get('p99_ms', 0.0):.2f} ms"
            )

    if not args.skip_interp:
        committed = _load(args.results_dir / "BENCH_interp.json")
        if committed is None:
            _missing("BENCH_interp.json", "interp")
        else:
            fresh = fresh_interp(committed)
            failures.extend(compare_interp(committed, fresh))
            if args.strict:
                # The tight target is asserted by the dedicated
                # bench_interp --smoke CI step (full best-of budget);
                # here 2× headroom catches gross recording slowdowns
                # without double-flaking on a box still settling from
                # the other gates' fresh runs.
                overhead = fresh.get("overhead", {})
                pct = overhead.get("overhead_pct", 0.0)
                target = overhead.get("target_pct", 10.0)
                if pct >= 2 * target:
                    failures.append(
                        f"interp (fresh): events-on overhead {pct:+.1f}% "
                        f"is past twice the {target:g}% target"
                    )
            checked += 1
            for row in committed.get("benchmarks", []):
                figures = row.get("figures", {})
                print(
                    f"interp   {row.get('name', '?'):20s} "
                    f"msgs {figures.get('messages', 0):4d} "
                    f"steps {figures.get('steps', 0):7d} "
                    f"makespan {figures.get('makespan', 0.0):10g} "
                    f"critpath {figures.get('critical_path_ticks', 0.0):10g} "
                    "[exact]"
                )

    if not args.skip_overlap:
        committed = _load(args.results_dir / "BENCH_overlap.json")
        if committed is None:
            _missing("BENCH_overlap.json", "overlap")
        else:
            fresh = fresh_overlap(committed)
            failures.extend(compare_overlap(committed, fresh))
            checked += 1
            for row in committed.get("benchmarks", []):
                makespan = row.get("makespan", {})
                print(
                    f"overlap  {row.get('name', '?'):20s} "
                    f"makespan {makespan.get('original', 0.0):10g} -> "
                    f"{makespan.get('transformed', 0.0):10g} "
                    f"saved {makespan.get('saved_ticks', 0.0):8g} ticks "
                    "[exact]"
                )

    if failures:
        print()
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print(f"\nregression gate passed ({checked} baseline(s), "
          f"threshold +{args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
