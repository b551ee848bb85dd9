"""Regenerate ``expected.json``, the committed outputs the benchmark checks.

    python3 benchmarks/e2e/expected.py

For the default seed and one held-out seed it records:

* ``table1``: per row and arm ``[iterations, active bytes, #indeps]``
  and the digest of the rendered row.  The rows rendered together must
  equal ``benchmarks/results/table1.txt`` byte for byte.
* ``synth``: per program of the synth-scale pools of every part, per arm
  ``[iterations, active bytes]``, the COMM pair count and the ICFG node
  count.  MPI-ICFG active bytes must not exceed ICFG active bytes.
* ``spmd``: makespan, interpreted steps, messages and a digest of every
  rank's final values.  Makespans (and steps, messages where recorded)
  must match ``BENCH_interp.json`` and ``BENCH_overlap.json``.
* ``serve``: the digest of the direct rendering of every hot shape and
  of the first ``NOVEL_PER_CONNECTION`` novel sources of each connection.

Exits non-zero, writing nothing, when a cross-check fails.
"""

import json
import sys

import workloads as w
from run import DEFAULT_SEED, SUBRUNS
from repro.experiments.table1 import render_table1
from repro.obs.trace import NULL_TRACER

RESULTS = w.ROOT / "benchmarks" / "results"
HELDOUT_SEED = 7
NOVEL_PER_CONNECTION = 24


def table1() -> dict:
    out, rows = {}, []
    for spec in w.BENCHMARKS.values():
        done = w.analyse(spec, w.spl_text(spec), NULL_TRACER)
        rows.append(done.row)
        out[spec.name] = {
            "icfg": w.arm_figures(done.row.icfg),
            "mpi": w.arm_figures(done.row.mpi),
            "render_sha256": w.sha256(done.rendered),
        }
    committed = (RESULTS / "table1.txt").read_text().rstrip("\n")
    if render_table1(rows) != committed:
        raise SystemExit("table1 rows differ from benchmarks/results/table1.txt")
    return out


def synth(seed: int) -> dict:
    out = {}
    for program in (p for part in range(SUBRUNS) for p in w.synth_pool(seed, part)):
        done = w.analyse(w.synth_spec(program), program.text, NULL_TRACER)
        figures = w.SynthWorkload.figures(done)
        if figures["mpi"][1] > figures["icfg"][1]:
            raise SystemExit(f"{program.name}: MPI-ICFG activity exceeds ICFG")
        out[program.name] = figures
    return out


def spmd() -> dict:
    out = {
        name: w.run_figures(w.run_program(prog, NULL_TRACER))
        for name, prog in w.spmd_programs().items()
    }
    interp = json.loads((RESULTS / "BENCH_interp.json").read_text())
    overlap = json.loads((RESULTS / "BENCH_overlap.json").read_text())
    for row in interp["benchmarks"]:
        if row["name"] in out and row["nprocs"] == 2:
            for key in ("makespan", "steps", "messages"):
                if abs(row["figures"][key] - out[row["name"]][key]) > 1e-6:
                    raise SystemExit(f"{row['name']}: {key} differs from BENCH_interp")
    for row in overlap["benchmarks"]:
        if abs(row["makespan"]["original"] - out[row["name"]]["makespan"]) > 1e-6:
            raise SystemExit(f"{row['name']}: makespan differs from BENCH_overlap")
    return out


def serve(seed: int) -> dict:
    return {
        f"c{conn}-n{index}": w.sha256(w.direct_text(w.novel_body(seed, conn, index)))
        for conn in range(w.SERVE_CONNECTIONS)
        for index in range(NOVEL_PER_CONNECTION)
    }


def main() -> int:
    seeds = (DEFAULT_SEED, HELDOUT_SEED)
    expected = {
        "seeds": list(seeds),
        "table1": table1(),
        "synth": {str(s): synth(s) for s in seeds},
        "spmd": spmd(),
        "serve": {
            "hot": {
                label: w.sha256(w.direct_text(body))
                for label, body in w.hot_catalog().items()
            },
            "novel": {str(s): serve(s) for s in seeds},
        },
    }
    w.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {w.EXPECTED_PATH.relative_to(w.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
