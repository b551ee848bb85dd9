"""Unit tests for SPL semantic validation and expression typing."""

import pytest

from repro.ir import ValidationError, parse_program, validate_program
from repro.ir.types import ArrayType, BOOL, INT, REAL
from repro.ir.validate import TypeChecker


def check(source: str):
    return validate_program(parse_program(source))


def expect_error(source: str, fragment: str):
    with pytest.raises(ValidationError) as exc:
        check(source)
    assert fragment in str(exc.value), str(exc.value)


def wrap(body: str, params: str = "") -> str:
    return f"program t;\nproc main({params}) {{\n{body}\n}}\n"


class TestDeclarations:
    def test_valid_program(self):
        symtab = check(wrap("real x = 1.0;\nx = x + 2.0;"))
        assert symtab.lookup("main", "x").type == REAL

    def test_undeclared_variable(self):
        expect_error(wrap("x = 1.0;"), "undeclared variable 'x'")

    def test_undeclared_in_expression(self):
        expect_error(wrap("real x;\nx = y;"), "undeclared variable 'y'")

    def test_duplicate_local(self):
        with pytest.raises(ValueError):
            check(wrap("real x;\nreal x;"))

    def test_duplicate_global(self):
        with pytest.raises(ValueError):
            check("program t;\nglobal real g;\nglobal real g;\nproc main() {}")

    @pytest.mark.parametrize(
        "source, message",
        [
            (
                "program t;\nproc main() { real a; real a; }",
                "2:23: duplicate declaration of 'a' in 'main'",
            ),
            (
                "program t;\nproc main(real a) {\n  int a;\n}",
                "3:3: duplicate declaration of 'a' in 'main'",
            ),
            (
                "program t;\nproc main(real a, int a) {}",
                "2:19: duplicate declaration of 'a' in 'main'",
            ),
            (
                "program t;\nglobal real g;\nglobal real g;\nproc main() {}",
                "3:1: duplicate global 'g'",
            ),
        ],
        ids=["local-local", "param-local", "param-param", "global-global"],
    )
    def test_duplicate_declaration_is_positioned(self, source, message):
        with pytest.raises(ValidationError) as exc:
            check(source)
        assert exc.value.errors == [message]

    def test_local_shadowing_global_rejected(self):
        expect_error(
            "program t;\nglobal real g;\nproc main() { real g; }",
            "shadows a global",
        )

    def test_param_shadowing_global_rejected(self):
        expect_error(
            "program t;\nglobal real g;\nproc main(real g) {}",
            "shadows a global",
        )

    def test_global_initializer_rejected(self):
        from repro.ir import builder as b
        from repro.ir.types import REAL as R

        prog = b.program(
            "t",
            b.proc("main", []),
            globals=[b.decl("g", R, 1.0)],
        )
        with pytest.raises(ValidationError, match="initializer"):
            validate_program(prog)

    def test_program_without_procedures(self):
        expect_error("program t;", "no procedures")


class TestAssignments:
    def test_int_to_real_widening_ok(self):
        check(wrap("real x;\nx = 1;"))

    def test_real_to_int_rejected(self):
        expect_error(wrap("int i;\ni = 1.5;"), "cannot assign real to int")

    def test_bool_to_real_rejected(self):
        expect_error(wrap("real x;\nx = true;"), "cannot assign")

    def test_array_fill_with_scalar_ok(self):
        check(wrap("real a[5];\na = 0.0;"))

    def test_array_whole_copy_same_shape_ok(self):
        check(wrap("real a[5];\nreal b[5];\na = b;"))

    def test_array_shape_mismatch(self):
        expect_error(wrap("real a[5];\nreal b[6];\na = b;"), "shape mismatch")

    def test_array_to_scalar_rejected(self):
        expect_error(wrap("real a[5];\nreal x;\nx = a;"), "cannot assign array")

    def test_element_assignment(self):
        check(wrap("real a[5];\na[2] = 1.0;"))

    def test_subscript_must_be_int(self):
        expect_error(wrap("real a[5];\na[1.5] = 0.0;"), "subscript must be an int")

    def test_rank_mismatch(self):
        expect_error(wrap("real a[5];\na[1, 2] = 0.0;"), "rank 1")

    def test_indexing_scalar_rejected(self):
        expect_error(wrap("real x;\nx[0] = 1.0;"), "not an array")

    def test_assign_to_comm_world_rejected(self):
        expect_error(wrap("comm_world = 1;"), "builtin comm_world")


class TestExpressions:
    def test_arith_requires_numeric(self):
        expect_error(wrap("real x;\nx = true + 1.0;"), "requires numeric")

    def test_condition_must_be_bool(self):
        expect_error(wrap("if (1) {}"), "condition must be bool")

    def test_comparison_yields_bool(self):
        check(wrap("if (1 < 2) {}"))

    def test_compare_bool_with_numeric_rejected(self):
        expect_error(wrap("if (true == 1) {}"), "cannot compare bool")

    def test_logic_requires_bool(self):
        expect_error(wrap("if (1 and 2 < 3) {}"), "must be bool")

    def test_elementwise_array_expression(self):
        check(wrap("real a[4];\nreal b[4];\na = a + b * 2.0;"))

    def test_elementwise_shape_mismatch(self):
        expect_error(
            wrap("real a[4];\nreal b[5];\nreal x;\nx = a + b;"),
            "shape mismatch",
        )

    def test_comparison_of_arrays_rejected(self):
        expect_error(wrap("real a[4];\nif (a < a) {}"), "scalar operands")

    def test_unknown_function(self):
        expect_error(wrap("real x;\nx = frobnicate(1.0);"), "unknown function")

    def test_intrinsic_arity(self):
        expect_error(wrap("real x;\nx = sin(1.0, 2.0);"), "expects 1 argument")

    def test_intrinsic_on_array_elementwise(self):
        check(wrap("real a[4];\na = sin(a);"))

    def test_division_yields_real(self):
        expect_error(wrap("int i;\ni = 4 / 2;"), "cannot assign real to int")

    def test_mod_yields_int(self):
        check(wrap("int i;\ni = mod(7, 3);"))


class TestForLoops:
    def test_valid_for(self):
        check(wrap("int i;\nreal s;\nfor i = 0 to 9 { s = s + 1.0; }"))

    def test_loop_var_must_be_declared(self):
        expect_error(wrap("for i = 0 to 9 {}"), "undeclared loop variable")

    def test_loop_var_must_be_int(self):
        expect_error(wrap("real i;\nfor i = 0 to 9 {}"), "must be an int scalar")

    def test_bounds_must_be_int(self):
        expect_error(wrap("int i;\nfor i = 0 to 9.5 {}"), "must be int")


class TestCalls:
    SRC = """
    program t;
    proc helper(real x, real a[3]) {}
    proc main() {
      real y;
      real b[3];
      %s
    }
    """

    def test_valid_call(self):
        check(self.SRC % "call helper(y, b);")

    def test_undefined_procedure(self):
        expect_error(self.SRC % "call nosuch(y, b);", "undefined procedure")

    def test_arity_mismatch(self):
        expect_error(self.SRC % "call helper(y);", "expects 2 argument")

    def test_scalar_expression_actual_ok(self):
        check(self.SRC % "call helper(y + 1.0, b);")

    def test_array_requires_whole_variable(self):
        expect_error(self.SRC % "call helper(y, b[0]);", "whole-array variable")

    def test_array_shape_must_match(self):
        src = self.SRC % "real c[4];\ncall helper(y, c);"
        expect_error(src, "must be real[3]")

    def test_scalar_type_must_match(self):
        expect_error(self.SRC % "int n;\ncall helper(n, b);", "must be real")

    def test_array_to_scalar_param_rejected(self):
        expect_error(self.SRC % "call helper(b, b);", "cannot pass array")


class TestMpiCalls:
    def test_valid_send_recv(self):
        check(wrap("real x;\ncall mpi_send(x, 1, 9, comm_world);"))
        check(wrap("real x;\ncall mpi_recv(x, 0, 9, comm_world);"))

    def test_send_arity(self):
        expect_error(wrap("real x;\ncall mpi_send(x, 1, 9);"), "expects 4")

    def test_buffer_must_be_lvalue(self):
        expect_error(
            wrap("real x;\ncall mpi_send(x + 1.0, 1, 9, comm_world);"),
            "must be a variable",
        )

    def test_tag_must_be_int(self):
        expect_error(
            wrap("real x;\ncall mpi_send(x, 1, 1.5, comm_world);"),
            "must be int",
        )

    def test_reduce_op_names(self):
        check(wrap("real x;\nreal y;\ncall mpi_reduce(x, y, sum, 0, comm_world);"))
        check(wrap("real x;\nreal y;\ncall mpi_reduce(x, y, max, 0, comm_world);"))

    def test_reduce_bad_op(self):
        expect_error(
            wrap("real x;\nreal y;\ncall mpi_reduce(x, y, avg, 0, comm_world);"),
            "must be one of",
        )

    def test_reduce_buffer_types_must_agree(self):
        expect_error(
            wrap(
                "real x;\nreal y[3];\ncall mpi_reduce(x, y, sum, 0, comm_world);"
            ),
            "differs from",
        )

    def test_bcast(self):
        check(wrap("real a[5];\ncall mpi_bcast(a, 0, comm_world);"))

    def test_barrier_and_wait(self):
        check(wrap("call mpi_barrier(comm_world);"))
        check(
            wrap(
                "real x;\nint req;\n"
                "call mpi_irecv(x, 0, 9, comm_world, req);\n"
                "call mpi_wait(req);"
            )
        )

    def test_array_element_buffer_ok(self):
        check(wrap("real a[5];\ncall mpi_send(a[2], 1, 9, comm_world);"))


class TestTypeChecker:
    def test_type_of_literals(self, fig1_program):
        from repro.ir import IntLit, RealLit, BoolLit, SymbolTable

        checker = TypeChecker(SymbolTable(fig1_program))
        assert checker.type_of(IntLit(1), "main") == INT
        assert checker.type_of(RealLit(1.0), "main") == REAL
        assert checker.type_of(BoolLit(True), "main") == BOOL

    def test_type_of_array_var(self):
        prog = parse_program("program t;\nproc f(real a[3]) { a[0] = 1.0; }")
        symtab = validate_program(prog)
        from repro.ir import VarRef
        checker = TypeChecker(symtab)
        assert checker.type_of(VarRef("a"), "f") == ArrayType(REAL, (3,))
