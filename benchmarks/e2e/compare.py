"""Compare two sets of benchmark runs under the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

``A`` (the parent) and ``B`` (the change) are files written by
``run.py --out``: one record per workload run, several runs per
workload.  Each workload gets one row; each end-to-end metric in it
shows B's median change against A's, oriented so that ``+`` is better,
and a verdict:

* ``ok`` — B is not worse than A by more than the metric's bound;
* ``REGRESSION`` — B is worse by more than the bound;
* ``unresolved`` — A's or B's run-to-run spread (interquartile range
  over median) is wider than the bound, and B is not better on every run;
* ``better`` — B beats A on every run although the spread is wide.

Any rise in the error rate (failed over attempted ops) is flagged.
Exits 1 on a regression or an error-rate rise.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def load(path: pathlib.Path) -> dict:
    """workload -> list of untraced run records."""
    runs: dict = {}
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if not record["trace"]:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: list, b: list, metric: dict) -> tuple:
    """(signed change of B's median against A's, better = positive; verdict)."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    change = sign * (statistics.median(b) / statistics.median(a) - 1.0)
    if max(spread(a), spread(b)) > metric["bound"]:
        all_better = min(sign * x for x in b) > max(sign * x for x in a)
        return change, "better" if all_better else "unresolved"
    return change, "REGRESSION" if change < -metric["bound"] else "ok"


def error_rate(records: list) -> float:
    return sum(r["failed"] for r in records) / sum(r["attempted"] for r in records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=pathlib.Path, help="baseline runs (run.py --out)")
    parser.add_argument("b", type=pathlib.Path, help="changed runs (run.py --out)")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    a_runs, b_runs = load(args.a), load(args.b)

    failing = False
    for workload in sorted(set(a_runs) & set(b_runs)):
        a, b = a_runs[workload], b_runs[workload]
        cells = []
        for metric in metrics:
            name = metric["name"]
            change, word = verdict(
                [r["metrics"][name] for r in a], [r["metrics"][name] for r in b], metric
            )
            failing |= word == "REGRESSION"
            cells.append(f"{name} {100 * change:+.1f}% {word}")
        rate_a, rate_b = error_rate(a), error_rate(b)
        if rate_b > rate_a:
            failing = True
            cells.append(f"error_rate ROSE {rate_a:.4g} -> {rate_b:.4g}")
        else:
            cells.append(f"error_rate {rate_b:.4g}")
        print(f"{workload:12s} runs {len(a)}/{len(b)} | " + " | ".join(cells))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
