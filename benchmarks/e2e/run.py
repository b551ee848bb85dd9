"""End-to-end benchmark: four workloads, fresh processes for each.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
                                  [--trace 0|1] [--out FILE]

Runs each selected workload (default: all four) as ``SUBRUNS``
sequential ``workloads.py`` processes (the *parts* of a run), each with
its own ``PYTHONHASHSEED`` drawn from the seed: string hashing sets the
layout of every set and dict, and one layout can run 10% slower than
another, so a run pools several.  Each part runs a fixed number of
rounds, ``ROUNDS_PER_S[workload] * T / SUBRUNS``: the op count depends
on ``T`` alone, never on how fast the commit under test is.  Every op's
output is checked.  The run prints each metric of ``BENCHMARK.json`` by
name with its unit, then one JSON object on the last line.
``--trace 0`` reports the end-to-end metrics (``setup_s`` is the median
over the parts); ``--trace 1`` reports the per-layer ledger instead.
``--out`` appends one JSON record per workload, the input of
``compare.py``.  Exits 1 when an output is wrong and 2 when there is no
repository to measure.
"""

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
from collections import Counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("table1", "synth-scale", "spmd-run", "serve-mix")
DEFAULT_SEED = 1
SUBRUNS = 4
#: Rounds per second of timed loop, calibrated once on a 2-CPU x86-64
#: container with Python 3.11 (README, "Calibrated op counts").  A round
#: is 13 rows (table1), 15 programs (synth-scale), 10 runs (spmd-run) or
#: 20 requests on each of two connections (serve-mix).
ROUNDS_PER_S = {"table1": 6.8, "synth-scale": 0.4, "spmd-run": 0.6, "serve-mix": 9.8}
#: A part that has not finished by then is stopped with its server.
PART_TIMEOUT_S = 150


def part_rounds(workload: str, seconds: float, trace: int) -> int:
    """Rounds per part; a traced part needs one traced and one untraced."""
    return max(1 + trace, round(ROUNDS_PER_S[workload] * seconds / SUBRUNS))


def child(workload: str, seed: int, rounds: int, trace: int, part: int) -> dict:
    proc = subprocess.Popen(
        [
            sys.executable, str(HERE / "workloads.py"),
            "--workload", workload, "--seed", str(seed), "--rounds", str(rounds),
            "--part", str(part), "--parts", str(SUBRUNS), "--trace", str(trace),
        ],
        cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": str((seed * SUBRUNS + part) % 2**32)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=PART_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The session holds the part and the processes it started.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{workload}: part {part} did not finish in {PART_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"{workload}: workload process exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def merge(raws: list) -> dict:
    """One run's figures from its parts: sums, pooled samples, the
    median set-up and the highest peak RSS.  Responses a part had no
    reference digest for are checked against another part's."""
    references = {k: v for r in raws for k, v in r.get("references", {}).items()}
    late = sum(
        n
        for r in raws
        for label, digests in r.get("unchecked", {}).items()
        for digest, n in digests.items()
        if digest != references.get(label)
    )
    merged = {
        "setup_s": statistics.median(r["setup_s"] for r in raws),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in raws),
        "errors": [e for r in raws for e in r["errors"]],
    }
    for key in ("attempted", "failed", "wall_s"):
        merged[key] = sum(r[key] for r in raws)
    merged["failed"] += late
    for key in ("latencies", "traced"):
        merged[key] = [x for r in raws for x in r[key]]
    for key in ("counts", "window", "self_time"):
        merged[key] = sum((Counter(r.get(key, {})) for r in raws), Counter())
    return merged


def end_to_end(m: dict) -> dict:
    from repro.obs.telemetry import percentile

    return {
        "ops_per_s": m["attempted"] / m["wall_s"],
        "latency_p50_ms": 1000.0 * percentile(m["latencies"], 0.50),
        "latency_p90_ms": 1000.0 * percentile(m["latencies"], 0.90),
        "setup_s": m["setup_s"],
        "peak_rss_mb": m["peak_rss_mb"],
    }


def ledger(m: dict) -> dict:
    """Per-layer figures from the traced rounds: self-time shares of op
    time, counts per op, rates over a layer's self time, and the serving
    figures of the whole timed window."""
    self_time, counts, window = m["self_time"], m["counts"], m["window"]
    op_time = sum(self_time.values())
    ops = max(1, len(m["traced"]))

    def pct(name):
        return 100.0 * self_time[name] / op_time if op_time else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    untraced, traced = m["latencies"], m["traced"]
    overhead = ratio(sum(traced) / ops, ratio(sum(untraced), len(untraced)))
    loop_ms = 1000.0 * (sum(untraced) + sum(traced))
    out = {
        "bench.op_ms": 1000.0 * op_time / ops,
        "bench.unattributed_pct": pct("op"),
        "bench.trace_overhead_pct": 100.0 * (overhead - 1.0) if overhead else 0.0,
        "ir.tokens_per_s": ratio(counts["tokens"], self_time["ir.parse"]),
        "mpi.pair_yield": ratio(counts["pairs"], counts["candidates"]),
        "runtime.steps_per_s": ratio(counts["steps"], self_time["runtime.run"]),
        "serving.server_pct": 100.0 * ratio(window["server_ms"], loop_ms),
        "serving.lru_hit_rate": ratio(window["lru_hits"], window["lru_lookups"]),
        "serving.dedup_ratio": ratio(window["dedup_followers"], window["dedup_arrivals"]),
        "serving.mean_batch": ratio(window["batched_tasks"], window["batches"]),
        "serving.rejected": window["rejected"],
    }
    for layer in ("ir.parse", "ir.validate", "cfg.icfg", "mpi.match", "mpi.comm_edges",
                  "analyses.activity_icfg", "analyses.activity_mpi",
                  "experiments.render", "runtime.run", "serving.hit", "serving.miss"):
        out[f"{layer}_pct"] = pct(layer)
    for name, count in (("ir.tokens", "tokens"), ("cfg.nodes", "nodes"),
                        ("cfg.edges", "edges"), ("mpi.candidates", "candidates"),
                        ("mpi.pairs", "pairs"), ("dataflow.passes", "passes"),
                        ("dataflow.visits", "visits"), ("dataflow.meets", "meets"),
                        ("dataflow.transfers", "transfers"),
                        ("dataflow.comm_requeues", "comm_requeues"),
                        ("runtime.steps", "steps"), ("runtime.messages", "messages"),
                        ("runtime.sim_makespan_ticks", "sim_makespan_ticks")):
        out[name] = counts[count] / ops
    return out


def run_workload(workload: str, args, section: list) -> dict:
    rounds = part_rounds(workload, args.seconds, args.trace)
    raws = [child(workload, args.seed, rounds, args.trace, k) for k in range(SUBRUNS)]
    merged = merge(raws)
    for error in merged["errors"][:3]:
        sys.stderr.write(error)
    values = ledger(merged) if args.trace else end_to_end(merged)
    return {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": merged["failed"] == 0,
        "attempted": merged["attempted"],
        "failed": merged["failed"],
        "metrics": {m["name"]: values[m["name"]] for m in section},
    }


def print_rows(record: dict, section: list) -> None:
    workload, metrics = record["workload"], record["metrics"]
    for m in section:
        print(f"{workload:12s} {m['name']:28s} {metrics[m['name']]:16.6g} {m['unit']}")
    if "bench.op_ms" in metrics:
        # Layer shares as self time per op.
        for name, value in metrics.items():
            if name.endswith("_pct") and not name.startswith(("bench.", "serving.server")):
                print(f"{workload:12s} {name[:-4] + '_ms/op':28s} "
                      f"{value * metrics['bench.op_ms'] / 100.0:16.6g} ms")
    rate = record["failed"] / record["attempted"]
    print(f"{workload:12s} {'error_rate':28s} {rate:16.6g} "
          f"({record['failed']} of {record['attempted']} ops failed)")


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"error: no repro source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(spec_path.read_text())

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="timed loop the op counts are sized for (default: run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--out", type=pathlib.Path)
    args = parser.parse_args(argv)

    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    records = []
    for workload in [args.workload] if args.workload else WORKLOADS:
        record = run_workload(workload, args, section)
        print_rows(record, section)
        records.append(record)
        if args.out is not None:
            with args.out.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")

    units = {m["name"]: m["unit"] for m in section}
    prefix = len(records) > 1
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): {
                "value": value, "unit": units[name]
            }
            for r in records
            for name, value in r["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
