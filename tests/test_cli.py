"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.programs import figure1


@pytest.fixture()
def fig1_file(tmp_path):
    path = tmp_path / "figure1.spl"
    path.write_text(figure1.SOURCE_LITERAL)
    return str(path)


@pytest.fixture()
def fig1_param_file(tmp_path):
    path = tmp_path / "figure1p.spl"
    path.write_text(figure1.SOURCE)
    return str(path)


class TestCheck:
    def test_ok(self, fig1_file, capsys):
        assert main(["check", fig1_file]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "main" in out

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.spl"]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_program(self, tmp_path, capsys):
        path = tmp_path / "bad.spl"
        path.write_text("program bad;\nproc main() { x = 1.0; }")
        assert main(["check", str(path)]) == 1

    @pytest.mark.parametrize(
        "source, message",
        [
            ("proc main() { real a; real a; }", "2:23: duplicate declaration"),
            ("proc main(real a) {\n  int a;\n}", "3:3: duplicate declaration"),
        ],
        ids=["local-local", "param-local"],
    )
    def test_duplicate_declaration_has_position(
        self, tmp_path, capsys, source, message
    ):
        path = tmp_path / "dup.spl"
        path.write_text("program t;\n" + source)
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message} of 'a' in 'main'\n"


class TestDot:
    def test_dot_output(self, fig1_file, capsys):
        assert main(["dot", fig1_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert 'style="dashed"' in out  # communication edge

    def test_dot_without_comm(self, fig1_file, capsys):
        assert main(["dot", fig1_file, "--model", "global-buffer"]) == 0
        out = capsys.readouterr().out
        assert 'style="dashed"' not in out


class TestConstants:
    def test_received_constant_shown(self, fig1_file, capsys):
        assert main(["constants", fig1_file]) == 0
        out = capsys.readouterr().out
        assert "main::y = 1" in out


class TestActivity:
    def test_comm_edges(self, fig1_param_file, capsys):
        rc = main(
            [
                "activity",
                fig1_param_file,
                "--independent", "x",
                "--dependent", "f",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "active bytes : 32" in out
        assert "main::y" in out

    def test_naive_model(self, fig1_param_file, capsys):
        main(
            [
                "activity",
                fig1_param_file,
                "--independent", "x",
                "--dependent", "f",
                "--model", "ignore",
            ]
        )
        out = capsys.readouterr().out
        assert "active bytes : 0" in out


class TestSlice:
    def test_forward(self, fig1_file, capsys):
        assert main(["slice", fig1_file, "--line", "4"]) == 0
        out = capsys.readouterr().out
        for line in (4, 9, 10, 11, 13, 14, 16):
            assert f"line {line}" in out

    def test_backward(self, fig1_file, capsys):
        assert main(["slice", fig1_file, "--line", "14", "--backward"]) == 0
        out = capsys.readouterr().out
        assert "backward slice" in out
        assert "line 13" in out  # the receive feeds z = b * y

    def test_bad_line(self, fig1_file, capsys):
        assert main(["slice", fig1_file, "--line", "999"]) == 1


class TestFoldAndRun:
    def test_fold(self, fig1_file, capsys):
        assert main(["fold", fig1_file]) == 0
        out = capsys.readouterr().out
        assert "z = 7.0;" in out  # folded through the message

    def test_run(self, fig1_file, capsys):
        assert main(["run", fig1_file, "--nprocs", "2"]) == 0
        out = capsys.readouterr().out
        assert "rank 0" in out and "rank 1" in out
        assert "f=9.0" in out

    def test_run_with_inputs(self, fig1_param_file, capsys):
        rc = main(
            ["run", fig1_param_file, "--nprocs", "2", "--input", "x=1.0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "f=" in out

    def test_run_bad_input(self, fig1_param_file, capsys):
        assert main(["run", fig1_param_file, "--input", "oops"]) == 1


class TestTransform:
    def test_prints_transformed_spl(self, fig1_file, capsys):
        assert main(["transform", "nonblocking", fig1_file]) == 0
        captured = capsys.readouterr()
        assert "mpi_isend" in captured.out
        assert "mpi_wait" in captured.out
        assert "// nonblocking:" in captured.err

    def test_run_compares_makespans(self, capsys):
        rc = main(
            [
                "transform", "nonblocking", "LU-1",
                "--size", "u=600", "--size", "rsd=640", "--size", "flux=400",
                "--size", "jac=100", "--size", "hbuf3=40",
                "--size", "hbuf1=40", "--size", "nfrct=40",
                "--run", "--nprocs", "2",
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "makespan original=" in err
        assert "makespan improved" in err

    def test_unknown_benchmark_is_a_file_error(self, capsys):
        assert main(["transform", "nonblocking", "/nonexistent.spl"]) == 1
        assert "error" in capsys.readouterr().err


class TestBitwidth:
    def test_widths_printed(self, tmp_path, capsys):
        path = tmp_path / "w.spl"
        path.write_text(
            "program t;\nproc main(int n, int out) {\nout = mod(n, 8);\n}"
        )
        assert main(["bitwidth", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[0, 7]" in out and "3 bits" in out


class TestTable1:
    def test_subset(self, capsys):
        assert main(["table1", "CG"]) == 0
        out = capsys.readouterr().out
        assert "CG" in out and "MPI-ICFG" in out
        assert "Deriv MB saved" in out


class TestDce:
    def test_dead_store_removed(self, tmp_path, capsys):
        path = tmp_path / "d.spl"
        path.write_text(
            "program t;\nproc main(real out) {\n"
            "real waste;\nwaste = 9.0;\nout = 1.0;\n}"
        )
        assert main(["dce", str(path), "--live-out", "out"]) == 0
        captured = capsys.readouterr()
        assert "waste = 9.0;" not in captured.out
        assert "1 dead store(s) removed" in captured.err
