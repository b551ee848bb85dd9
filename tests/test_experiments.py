"""Tests for the experiment harnesses (Table 1 / Figure 4 plumbing)."""

import pytest

from repro.experiments import (
    bars_from_rows,
    render_figure4,
    render_table1,
    run_benchmark,
    run_table1,
)
from repro.programs import benchmark


@pytest.fixture(scope="module")
def small_rows():
    return run_table1(["SOR", "CG", "Sw-3"])


class TestTable1Harness:
    def test_row_structure(self, small_rows):
        row = small_rows[0]
        assert row.name == "SOR"
        assert row.icfg.mpi_model.value == "global-buffer"
        assert row.mpi.mpi_model.value == "comm-edges"

    def test_saved_bytes(self, small_rows):
        for row in small_rows:
            assert row.saved_active_bytes == (
                row.icfg.active_bytes - row.mpi.active_bytes
            )
            assert row.saved_deriv_bytes == (
                row.icfg.deriv_bytes - row.mpi.deriv_bytes
            )

    def test_pct_decrease_bounds(self, small_rows):
        for row in small_rows:
            assert 0.0 <= row.pct_decrease <= 100.0

    def test_render_contains_all_rows(self, small_rows):
        text = render_table1(small_rows)
        for name in ("SOR", "CG", "Sw-3"):
            assert name in text
        assert "MPI-ICFG" in text and "ICFG" in text
        assert "paper" in text

    def test_render_without_paper(self, small_rows):
        text = render_table1(small_rows, with_paper=False)
        assert "paper" not in text

    def test_priority_strategy(self):
        row = run_benchmark(benchmark("CG"), strategy="priority")
        paper = row.spec.paper
        assert row.mpi.active_bytes == paper.mpi_active_bytes


class TestFigure4Harness:
    def test_bars(self, small_rows):
        bars = bars_from_rows(small_rows)
        assert [b.name for b in bars] == ["SOR", "CG", "Sw-3"]
        sor = bars[0]
        assert sor.active_mb_saved == pytest.approx(8032 / 1e6)
        assert sor.paper_active_mb_saved == pytest.approx(8032 / 1e6)

    def test_cg_saves_nothing(self, small_rows):
        bars = bars_from_rows(small_rows)
        cg = bars[1]
        assert cg.active_mb_saved == 0.0
        assert cg.deriv_mb_saved == 0.0

    def test_render(self, small_rows):
        text = render_figure4(bars_from_rows(small_rows))
        assert "Active MB saved" in text
        assert "SOR" in text
