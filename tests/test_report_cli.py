"""Smoke tests for ``repro explain`` / ``repro report``, the
``trace --convergence`` skip warning, and the benchmark regression
gate's comparison logic."""

from __future__ import annotations

import re
import sys

import pytest

from repro.cli import main


class TestExplainCli:
    def test_smoke_explains_both_arms(self, capsys):
        assert main(["explain", "--smoke", "--fact", "y"]) == 0
        out = capsys.readouterr().out
        assert "ICFG" in out and "MPI-ICFG" in out
        assert "comm" in out
        assert "mpi_send" in out and "mpi_recv" in out
        assert "main::y" in out

    def test_unknown_fact_fails(self, capsys):
        assert main(["explain", "--smoke", "--fact", "nosuchvar"]) == 1
        assert "nosuchvar" in capsys.readouterr().err

    def test_html_output(self, tmp_path, capsys):
        out = tmp_path / "explain.html"
        assert main(["explain", "--smoke", "--fact", "y", "--html", str(out)]) == 0
        html = out.read_text()
        assert html.lstrip().lower().startswith("<!doctype html")
        assert "main::y" in html

    def test_single_arm_and_backend(self, capsys):
        argv = ["explain", "--smoke", "--fact", "y", "--arm", "mpi",
                "--phase", "vary"]
        # The problem's type picks the fact path: no --backend flag.
        with pytest.raises(SystemExit):
            main(argv + ["--backend", "bitset"])
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "MPI-ICFG" in out
        assert "— ICFG vary" not in out  # ICFG arm suppressed
        assert "useful" not in out


class TestReportCli:
    def test_writes_self_contained_html(self, tmp_path, capsys):
        out = tmp_path / "report.html"
        assert main(["report", "--smoke", "--out", str(out)]) == 0
        assert str(out) in capsys.readouterr().out
        html = out.read_text()
        assert html.lstrip().lower().startswith("<!doctype html")
        # Single file, no external assets: no src/href pointing anywhere
        # but fragment anchors and data: URIs.
        for tag in re.findall(r"<(?:img|script|link|iframe)\b[^>]*>", html):
            assert "http" not in tag and "src=" not in tag, tag
        assert "<style>" in html
        # Report anatomy: summary cards, Table 1, chains, convergence,
        # metrics.
        assert "Table 1" in html or "table1" in html.lower()
        assert "derivation" in html.lower() or "chain" in html.lower()
        assert "convergence" in html.lower()
        assert "metric" in html.lower()
        # Provenance chains cross the matched communication edge.
        assert "mpi_send" in html and "mpi_recv" in html


class TestTraceConvergenceWarning:
    def test_warns_when_convergence_missing(self, monkeypatch, capsys, tmp_path):
        from repro.programs import figure1
        import repro.experiments.table1 as table1

        real = table1.run_benchmark

        def without_convergence(spec, **kwargs):
            kwargs["record_convergence"] = False
            return real(spec, **kwargs)

        monkeypatch.setattr(table1, "run_benchmark", without_convergence)
        path = tmp_path / "fig1.spl"
        path.write_text(figure1.SOURCE)
        assert main(
            ["trace", str(path), "--independent", "x", "--dependent", "f",
             "--convergence"]
        ) == 0
        err = capsys.readouterr().err
        assert "warning: no convergence data recorded" in err
        for entry in ("ICFG/vary", "ICFG/useful", "MPI-ICFG/vary", "MPI-ICFG/useful"):
            assert entry in err

    def test_no_warning_when_recorded(self, capsys):
        assert main(["trace", "--smoke", "--convergence"]) == 0
        captured = capsys.readouterr()
        assert "warning: no convergence data" not in captured.err
        assert "Convergence: MPI-ICFG vary" in captured.out


class TestMetricsRender:
    def test_empty_registry_placeholder(self):
        from repro.obs.metrics import MetricsRegistry

        assert MetricsRegistry().render() == "(no metrics recorded)"

    def test_lists_all_instrument_kinds(self):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("repro.a.count").inc(3)
        reg.gauge("repro.b.gauge").set(1.5)
        h = reg.histogram("repro.c.hist", [1, 10])
        h.observe(0.5)
        h.observe(42)
        text = reg.render()
        assert "repro.a.count" in text and "3" in text
        assert "repro.b.gauge" in text and "1.5" in text
        assert "count=2" in text and "inf:1" in text
        header, rule = text.splitlines()[:2]
        assert header.startswith("metric") and set(rule) <= {"-", " "}


# ---------------------------------------------------------------------------
# Regression gate: pure comparison functions on synthetic reports.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gate():
    import pathlib

    bench_dir = str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks")
    sys.path.insert(0, bench_dir)
    try:
        import check_regression
    finally:
        sys.path.remove(bench_dir)
    return check_regression


def _pipeline_report(cold, **arms):
    return {"timings_s": {"serial_cold": cold, **arms}}


class TestRegressionGate:
    def test_pipeline_passes_within_threshold(self, gate):
        committed = _pipeline_report(1.0, serial_warm=0.01, serial_traced=1.0)
        fresh = _pipeline_report(2.0, serial_warm=0.024, serial_traced=2.2)
        assert gate.compare_pipeline(committed, fresh) == []

    def test_pipeline_fails_on_broken_cache(self, gate):
        committed = _pipeline_report(1.0, serial_warm=0.01)
        fresh = _pipeline_report(1.0, serial_warm=0.9)  # cache broken
        failures = gate.compare_pipeline(committed, fresh)
        assert len(failures) == 1
        assert "serial_warm" in failures[0]

    def test_pipeline_noise_floor_absorbs_tiny_deltas(self, gate):
        committed = _pipeline_report(1.0, serial_warm=0.001)
        fresh = _pipeline_report(1.0, serial_warm=0.003)  # 3× but only +2 ms
        assert gate.compare_pipeline(committed, fresh) == []

    def test_pipeline_parallel_gets_pool_allowance(self, gate):
        committed = _pipeline_report(0.2, parallel_jobs4=0.19)
        fresh = _pipeline_report(0.2, parallel_jobs4=0.30)  # +pool startup
        assert gate.compare_pipeline(committed, fresh) == []
        # A genuinely large parallel slowdown still fails.
        slow = _pipeline_report(0.2, parallel_jobs4=2.5)
        assert gate.compare_pipeline(committed, slow)

    def test_pipeline_ignores_unmatched_arms(self, gate):
        committed = _pipeline_report(1.0, serial_warm=0.01)
        fresh = _pipeline_report(1.0, new_arm=9.0)
        assert gate.compare_pipeline(committed, fresh) == []

    def _solver_report(self, speedups):
        return {
            "benchmarks": [
                {
                    "configs": [
                        {"strategy": s, "backend": b, "speedup": v}
                        for (s, b), v in speedups.items()
                    ]
                }
            ]
        }

    def test_solver_passes_and_fails_on_geomean(self, gate):
        committed = self._solver_report(
            {("priority", "bitset"): 2.5, ("roundrobin", "bitset"): 1.5}
        )
        ok = self._solver_report(
            {("priority", "bitset"): 2.1, ("roundrobin", "bitset"): 1.6}
        )
        assert gate.compare_solver(committed, ok) == []
        bad = self._solver_report(
            {("priority", "bitset"): 1.0, ("roundrobin", "bitset"): 1.6}
        )
        failures = gate.compare_solver(committed, bad)
        assert len(failures) == 1
        assert "priority/bitset" in failures[0]

    def test_geomean(self, gate):
        assert gate.geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert gate.geomean([]) == 0.0

    def _incremental_report(self, speedup, visits=10, cold_visits=100):
        return {
            "benchmarks": [
                {
                    "name": "LU-1",
                    "analysis": "vary",
                    "backend": "bitset",
                    "streams": {"single_stmt": {"speedup": speedup}},
                    "demand": {"visits": visits, "cold_visits": cold_visits},
                }
            ]
        }

    def test_incremental_passes_above_floor(self, gate):
        committed = self._incremental_report(6.0)
        fresh = self._incremental_report(11.0)
        assert gate.compare_incremental(committed, fresh) == []

    def test_incremental_fails_below_floor(self, gate):
        committed = self._incremental_report(6.0)
        fresh = self._incremental_report(3.0)
        failures = gate.compare_incremental(committed, fresh)
        assert len(failures) == 1
        assert "fresh" in failures[0] and "3.0×" in failures[0]

    def test_incremental_demand_must_beat_cold_visits(self, gate):
        report = self._incremental_report(9.0, visits=100, cold_visits=100)
        failures = gate.incremental_failures(report)
        assert len(failures) == 1
        assert "demand" in failures[0]

    @staticmethod
    def _serving_report(**over):
        report = {
            "mode": "full",
            "hit_rate": 0.7,
            "dedup_ratio": 0.35,
            "load": {"errors": 0},
            "byte_identity_shapes": 8,
            "target_met": True,
            "warm_speedup": 137.0,
            "target_warm_speedup": 20.0,
        }
        report.update(over)
        return report

    def test_serving_passes_on_healthy_report(self, gate):
        assert gate.serving_failures(self._serving_report()) == []

    def test_serving_fails_on_low_hit_rate(self, gate):
        failures = gate.serving_failures(self._serving_report(hit_rate=0.1))
        assert len(failures) == 1 and "hit rate" in failures[0]

    def test_serving_dedup_floor_applies_to_full_runs_only(self, gate):
        assert gate.serving_failures(
            self._serving_report(dedup_ratio=0.0)
        ) and not gate.serving_failures(
            self._serving_report(dedup_ratio=0.0, mode="smoke")
        )

    def test_serving_fails_on_load_errors(self, gate):
        failures = gate.serving_failures(
            self._serving_report(load={"errors": 3})
        )
        assert len(failures) == 1 and "non-200" in failures[0]

    def test_serving_requires_byte_identity_samples(self, gate):
        failures = gate.serving_failures(
            self._serving_report(byte_identity_shapes=0)
        )
        assert len(failures) == 1 and "byte-identity" in failures[0]

    def test_serving_fails_when_warm_target_missed(self, gate):
        failures = gate.serving_failures(
            self._serving_report(target_met=False, warm_speedup=12.0)
        )
        assert len(failures) == 1 and "warm speedup" in failures[0]

    @staticmethod
    def _quantiles(count=100, p50=0.5, p99=2.0):
        return {
            "window": 512,
            "aggregate": {"count": count, "p50_ms": p50,
                          "p95_ms": p99, "p99_ms": p99},
            "streams": {},
        }

    def test_serving_quantiles_pass_when_non_degenerate(self, gate):
        report = self._serving_report(server_quantiles=self._quantiles())
        assert gate.serving_failures(report, strict=True) == []

    def test_serving_missing_quantiles_fails_only_in_strict(self, gate):
        report = self._serving_report()
        assert gate.serving_failures(report) == []
        failures = gate.serving_failures(report, strict=True)
        assert len(failures) == 1 and "server_quantiles" in failures[0]

    def test_serving_degenerate_quantiles_always_fail(self, gate):
        for bad in (
            self._quantiles(count=0),
            self._quantiles(p50=0.0),
            self._quantiles(p50=5.0, p99=1.0),
        ):
            failures = gate.serving_failures(
                self._serving_report(server_quantiles=bad)
            )
            assert len(failures) == 1, bad

    def test_strict_mode_fails_on_missing_baseline(self, gate, tmp_path):
        empty = tmp_path / "results"
        empty.mkdir()
        argv = ["--results-dir", str(empty)]
        assert gate.main(argv) == 0
        assert gate.main(argv + ["--strict"]) == 1
