"""The analysis registry: completeness, CLI integration, rendering.

The completeness test scans every module in :mod:`repro.analyses` for
module-level :class:`~repro.dataflow.kernel.AnalysisSpec` instances
and fails if one is not exported through
:func:`repro.analyses.registry.registered_specs` — an analysis author
cannot add a spec without wiring it into the registry (or the
auxiliary list).
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro.analyses
from repro.analyses import registry
from repro.cli import main
from repro.dataflow.framework import Direction
from repro.dataflow.kernel import AnalysisSpec


def _module_level_specs():
    """(module, attr, spec) for every AnalysisSpec in repro.analyses."""
    found = []
    for info in pkgutil.iter_modules(repro.analyses.__path__):
        mod = importlib.import_module(f"repro.analyses.{info.name}")
        for attr, value in vars(mod).items():
            if isinstance(value, AnalysisSpec):
                found.append((mod.__name__, attr, value))
    return found


def test_every_spec_is_registered():
    specs = _module_level_specs()
    assert specs, "expected module-level AnalysisSpec instances"
    registered = registry.registered_specs()
    for mod_name, attr, spec in specs:
        assert spec.name in registered, (
            f"{mod_name}.{attr} defines AnalysisSpec {spec.name!r} that is "
            "not exported through the registry (add an AnalysisEntry or an "
            "AUXILIARY_SPECS entry in repro/analyses/registry.py)"
        )
        assert registered[spec.name] is spec, (mod_name, attr)


def test_registry_has_all_eight_analyses():
    assert len(registry.names()) >= 8
    assert set(registry.names()) >= {
        "vary",
        "useful",
        "activity",
        "taint",
        "liveness",
        "reaching-defs",
        "reaching-constants",
        "bitwidth",
    }


def test_registry_entries_are_consistent():
    for entry in registry.REGISTRY.values():
        assert entry.name and entry.summary
        assert entry.direction in (Direction.FORWARD, Direction.BACKWARD)
        if entry.spec is not None:
            assert entry.spec.direction is entry.direction
            assert entry.spec.name == entry.name
        for field in entry.requires:
            assert field in ("independents", "dependents")


def test_activity_phases_cover_vary_and_useful():
    phases = registry.activity_phases()
    assert [name for name, _ in phases] == ["vary", "useful"]


def test_get_unknown_analysis_lists_available():
    with pytest.raises(KeyError, match="vary"):
        registry.get("nonesuch")


def test_render_list_is_name_first():
    lines = registry.render_list().splitlines()
    assert len(lines) == len(registry.names())
    for line, name in zip(lines, registry.names()):
        assert line.split()[0] == name


def test_analyze_list_enumerates_registry(capsys):
    assert main(["analyze", "--list"]) == 0
    out = capsys.readouterr().out
    for name in registry.names():
        assert name in out


@pytest.mark.parametrize("name", registry.names())
def test_analyze_smoke_every_entry(name, capsys):
    """``repro analyze <name> --smoke`` runs for every registry entry."""
    assert main(["analyze", name, "--smoke"]) == 0
    out = capsys.readouterr().out
    assert f"analysis  : {name}" in out
    assert "solver    :" in out


def test_analyze_requires_name(capsys):
    assert main(["analyze", "--smoke"]) == 1
    assert "analysis NAME" in capsys.readouterr().err


def test_analyze_validates_required_seeds(tmp_path, capsys):
    src = tmp_path / "p.spl"
    src.write_text("program p;\nproc main(real x, real f) {\n  f = x * 2.0;\n}\n")
    assert main(["analyze", "vary", str(src)]) == 1
    assert "--independent" in capsys.readouterr().err
    assert (
        main(
            ["analyze", "vary", str(src), "--independent", "x"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "main::x" in out


def test_analyze_backend_and_model_flags(capsys):
    # The problem's type picks the fact path: no --backend flag.
    with pytest.raises(SystemExit):
        main(["analyze", "vary", "--smoke", "--backend", "bitset"])
    capsys.readouterr()
    assert main(["analyze", "vary", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "backend bitset" in out
    assert (
        main(["analyze", "vary", "--smoke", "--model", "ignore"]) == 0
    )
    out = capsys.readouterr().out
    assert "model     : ignore" in out


def test_run_analysis_cached_hits():
    from repro.pipeline import ArtifactCache, run_analysis_cached
    from repro.programs import figure1
    from repro.mpi import build_mpi_icfg

    program = figure1.program()
    icfg, _ = build_mpi_icfg(program, "main")
    cache = ArtifactCache()
    req = registry.AnalyzeRequest(independents=("x",))
    first = run_analysis_cached("vary", icfg, program, req, cache=cache)
    second = run_analysis_cached("vary", icfg, program, req, cache=cache)
    assert second is first
    # A different request misses.
    other = run_analysis_cached(
        "vary",
        icfg,
        program,
        registry.AnalyzeRequest(independents=("x",), strategy="priority"),
        cache=cache,
    )
    assert other is not first
    assert other.before == first.before
