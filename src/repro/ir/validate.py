"""Semantic validation and expression typing for SPL programs.

:func:`validate_program` checks, program-wide:

* every referenced variable is declared (local/param/global);
* expression and assignment type correctness (with Fortran-90-style
  elementwise array expressions and scalar broadcast);
* intrinsic and MPI-operation arity and argument roles;
* user-procedure call arity and by-reference argument compatibility;
* structural rules (``for`` variable is an int scalar, conditions are
  boolean, array reference rank matches declaration);
* request discipline: every non-blocking post's request handle is
  waited exactly once on every path (no double wait, no wait on a
  request that was never posted, no leaked in-flight request).

All problems are collected and reported together in a single
:class:`ValidationError`.
"""

from __future__ import annotations

from .ast_nodes import (
    ArrayRef,
    Assign,
    BinOp,
    Block,
    BoolLit,
    CallStmt,
    Expr,
    For,
    If,
    IntLit,
    IntrinsicCall,
    Procedure,
    Program,
    RealLit,
    Return,
    Stmt,
    UnOp,
    VarDecl,
    VarRef,
    While,
)
from .intrinsics import INTRINSICS
from .mpi_ops import ArgRole, COMM_WORLD_NAME, MPI_OPS, REDUCE_OPS
from .symtab import SymbolTable, ValidationError, positioned
from .types import ArrayType, BOOL, INT, REAL, BoolType, IntType, RealType, Type

__all__ = ["ValidationError", "validate_program", "TypeChecker"]

_ARITH = ("+", "-", "*", "/", "**")
_CMP = ("==", "!=", "<", "<=", ">", ">=")
_LOGIC = ("and", "or")


def _is_numeric(ty: Type) -> bool:
    return isinstance(ty.base, (IntType, RealType))


class TypeChecker:
    """Types expressions and records errors for one program.

    Also usable standalone by later phases (the CFG builder asks it for
    expression types when classifying definitions and uses).
    """

    def __init__(self, symtab: SymbolTable):
        self.symtab = symtab
        self.errors: list[str] = []

    # -- error helpers ---------------------------------------------------

    def error(self, node, message: str) -> None:
        self.errors.append(positioned(getattr(node, "loc", None), message))

    # -- expression typing -----------------------------------------------

    def type_of(self, e: Expr, proc: str) -> Type | None:
        """Type of ``e`` in procedure ``proc``; None if ill-typed.

        Errors are recorded; callers may treat ``None`` as "already
        reported".
        """
        if isinstance(e, IntLit):
            return INT
        if isinstance(e, RealLit):
            return REAL
        if isinstance(e, BoolLit):
            return BOOL
        if isinstance(e, VarRef):
            if e.name == COMM_WORLD_NAME:
                return INT
            sym = self.symtab.try_lookup(proc, e.name)
            if sym is None:
                self.error(e, f"undeclared variable {e.name!r} in {proc!r}")
                return None
            return sym.type
        if isinstance(e, ArrayRef):
            return self._type_array_ref(e, proc)
        if isinstance(e, BinOp):
            return self._type_binop(e, proc)
        if isinstance(e, UnOp):
            return self._type_unop(e, proc)
        if isinstance(e, IntrinsicCall):
            return self._type_intrinsic(e, proc)
        self.error(e, f"cannot type expression {e!r}")
        return None

    def _type_array_ref(self, e: ArrayRef, proc: str) -> Type | None:
        sym = self.symtab.try_lookup(proc, e.name)
        if sym is None:
            self.error(e, f"undeclared variable {e.name!r} in {proc!r}")
            return None
        if not isinstance(sym.type, ArrayType):
            self.error(e, f"{e.name!r} is not an array")
            return None
        if len(e.indices) != len(sym.type.shape):
            self.error(
                e,
                f"{e.name!r} has rank {len(sym.type.shape)}, "
                f"indexed with {len(e.indices)} subscripts",
            )
        for idx in e.indices:
            ity = self.type_of(idx, proc)
            if ity is not None and not isinstance(ity, IntType):
                self.error(idx, f"array subscript must be an int scalar, got {ity}")
        return sym.type.elem

    def _merge_shapes(self, node, lt: Type, rt: Type) -> tuple[int, ...] | None:
        """Elementwise shape of a binary op; ``None`` marks a scalar."""
        lsh = lt.shape if isinstance(lt, ArrayType) else None
        rsh = rt.shape if isinstance(rt, ArrayType) else None
        if lsh is not None and rsh is not None and lsh != rsh:
            self.error(node, f"array shape mismatch: {lsh} vs {rsh}")
            return lsh
        return lsh if lsh is not None else rsh

    def _type_binop(self, e: BinOp, proc: str) -> Type | None:
        lt = self.type_of(e.left, proc)
        rt = self.type_of(e.right, proc)
        if lt is None or rt is None:
            return None
        if e.op in _ARITH:
            if not (_is_numeric(lt) and _is_numeric(rt)):
                self.error(e, f"operator {e.op!r} requires numeric operands")
                return None
            base = REAL if (lt.base == REAL or rt.base == REAL or e.op == "/") else INT
            shape = self._merge_shapes(e, lt, rt)
            return ArrayType(base, shape) if shape else base
        if e.op in _CMP:
            if isinstance(lt, ArrayType) or isinstance(rt, ArrayType):
                self.error(e, "comparisons require scalar operands")
                return None
            if isinstance(lt, BoolType) != isinstance(rt, BoolType):
                self.error(e, "cannot compare bool with numeric")
                return None
            return BOOL
        if e.op in _LOGIC:
            for side, ty in (("left", lt), ("right", rt)):
                if not isinstance(ty, BoolType):
                    self.error(e, f"{side} operand of {e.op!r} must be bool, got {ty}")
            return BOOL
        self.error(e, f"unknown operator {e.op!r}")
        return None

    def _type_unop(self, e: UnOp, proc: str) -> Type | None:
        ty = self.type_of(e.operand, proc)
        if ty is None:
            return None
        if e.op == "-":
            if not _is_numeric(ty):
                self.error(e, "unary '-' requires a numeric operand")
                return None
            return ty
        if e.op == "not":
            if not isinstance(ty, BoolType):
                self.error(e, "'not' requires a bool operand")
                return None
            return BOOL
        self.error(e, f"unknown unary operator {e.op!r}")
        return None

    def _type_intrinsic(self, e: IntrinsicCall, proc: str) -> Type | None:
        info = INTRINSICS.get(e.name)
        if info is None:
            self.error(e, f"unknown function {e.name!r} (user procedures use 'call')")
            for a in e.args:
                self.type_of(a, proc)
            return None
        if len(e.args) != info.arity:
            self.error(
                e, f"{e.name} expects {info.arity} argument(s), got {len(e.args)}"
            )
        arg_types = [self.type_of(a, proc) for a in e.args]
        shape: tuple[int, ...] | None = None
        bases: list = []
        for a, ty in zip(e.args, arg_types):
            if ty is None:
                continue
            if not _is_numeric(ty):
                self.error(a, f"argument of {e.name} must be numeric, got {ty}")
                continue
            bases.append(ty.base)
            if isinstance(ty, ArrayType):
                if shape is not None and ty.shape != shape:
                    self.error(e, f"array shape mismatch in {e.name} arguments")
                shape = ty.shape
        base = info.result_type(tuple(bases))
        return ArrayType(base, shape) if shape else base

    # -- statements --------------------------------------------------------

    def check_stmt(self, s: Stmt, proc: str) -> None:
        if isinstance(s, VarDecl):
            if s.init is not None:
                self._check_store(s, s.name, None, s.init, proc)
        elif isinstance(s, Assign):
            if isinstance(s.target, ArrayRef):
                self._type_array_ref(s.target, proc)
                self._check_store(s, s.target.name, s.target, s.value, proc)
            else:
                self._check_store(s, s.target.name, None, s.value, proc)
        elif isinstance(s, Block):
            for inner in s.body:
                self.check_stmt(inner, proc)
        elif isinstance(s, If):
            self._check_cond(s.cond, proc)
            self.check_stmt(s.then, proc)
            if s.els is not None:
                self.check_stmt(s.els, proc)
        elif isinstance(s, While):
            self._check_cond(s.cond, proc)
            self.check_stmt(s.body, proc)
        elif isinstance(s, For):
            self._check_for(s, proc)
        elif isinstance(s, CallStmt):
            self._check_call(s, proc)
        elif isinstance(s, Return):
            pass
        else:
            self.error(s, f"unknown statement {s!r}")

    def _check_cond(self, cond: Expr, proc: str) -> None:
        ty = self.type_of(cond, proc)
        if ty is not None and not isinstance(ty, BoolType):
            self.error(cond, f"condition must be bool, got {ty}")

    def _check_for(self, s: For, proc: str) -> None:
        sym = self.symtab.try_lookup(proc, s.var)
        if sym is None:
            self.error(s, f"undeclared loop variable {s.var!r}")
        elif not isinstance(sym.type, IntType):
            self.error(s, f"loop variable {s.var!r} must be an int scalar")
        for label, bound in (("lower", s.lo), ("upper", s.hi), ("step", s.step)):
            if bound is None:
                continue
            ty = self.type_of(bound, proc)
            if ty is not None and not isinstance(ty, IntType):
                self.error(bound, f"{label} bound of 'for' must be int, got {ty}")
        self.check_stmt(s.body, proc)

    def _check_store(
        self, node, name: str, elem_ref: ArrayRef | None, value: Expr, proc: str
    ) -> None:
        """Check assignment to ``name`` (whole or ``elem_ref`` element)."""
        if name == COMM_WORLD_NAME:
            self.error(node, "cannot assign to the builtin comm_world")
            return
        sym = self.symtab.try_lookup(proc, name)
        if sym is None:
            self.error(node, f"undeclared variable {name!r} in {proc!r}")
            return
        vt = self.type_of(value, proc)
        if vt is None:
            return
        target_ty: Type = sym.type
        if elem_ref is not None:
            if isinstance(sym.type, ArrayType):
                target_ty = sym.type.elem
            else:
                return  # already reported by _type_array_ref
        self._check_assignable(node, target_ty, vt)

    def _check_assignable(self, node, target: Type, value: Type) -> None:
        if isinstance(target, ArrayType):
            if isinstance(value, ArrayType) and value.shape != target.shape:
                self.error(
                    node, f"shape mismatch: cannot assign {value} to {target}"
                )
                return
            self._check_assignable(node, target.elem, _scalar_of(value))
            return
        if isinstance(value, ArrayType):
            self.error(node, f"cannot assign array {value} to scalar {target}")
            return
        if isinstance(target, BoolType) != isinstance(value, BoolType):
            self.error(node, f"cannot assign {value} to {target}")
            return
        if isinstance(target, IntType) and isinstance(value, RealType):
            self.error(node, "cannot assign real to int (use int(...) )")

    def _check_call(self, s: CallStmt, proc: str) -> None:
        if s.name in MPI_OPS:
            self._check_mpi_call(s, proc)
            return
        if not self.symtab.program.has_proc(s.name):
            self.error(s, f"call to undefined procedure {s.name!r}")
            for a in s.args:
                self.type_of(a, proc)
            return
        callee = self.symtab.program.proc(s.name)
        if len(s.args) != len(callee.params):
            self.error(
                s,
                f"{s.name} expects {len(callee.params)} argument(s), "
                f"got {len(s.args)}",
            )
        for actual, formal in zip(s.args, callee.params):
            at = self.type_of(actual, proc)
            if at is None:
                continue
            ft = formal.type
            if isinstance(ft, ArrayType):
                if not isinstance(actual, VarRef):
                    self.error(
                        actual,
                        f"array parameter {formal.name!r} of {s.name} requires "
                        "a whole-array variable argument",
                    )
                elif not isinstance(at, ArrayType) or at.shape != ft.shape:
                    self.error(
                        actual,
                        f"argument for {formal.name!r} of {s.name} must be "
                        f"{ft}, got {at}",
                    )
                elif at.elem != ft.elem:
                    self.error(
                        actual,
                        f"element type mismatch for {formal.name!r}: "
                        f"{at.elem} vs {ft.elem}",
                    )
            else:
                if isinstance(at, ArrayType):
                    self.error(
                        actual,
                        f"cannot pass array to scalar parameter {formal.name!r}",
                    )
                elif at.base != ft.base:
                    self.error(
                        actual,
                        f"argument for {formal.name!r} of {s.name} must be "
                        f"{ft}, got {at}",
                    )

    def _check_mpi_call(self, s: CallStmt, proc: str) -> None:
        op = MPI_OPS[s.name]
        if len(s.args) != op.arity:
            self.error(
                s, f"{s.name} expects {op.arity} argument(s), got {len(s.args)}"
            )
            return
        for spec, actual in zip(op.args, s.args):
            if spec.role in (ArgRole.DATA_IN, ArgRole.DATA_OUT, ArgRole.DATA_INOUT):
                if not isinstance(actual, (VarRef, ArrayRef)):
                    self.error(
                        actual,
                        f"{spec.name!r} argument of {s.name} must be a variable "
                        "or array element",
                    )
                    continue
                self.type_of(actual, proc)
            elif spec.role == ArgRole.REDOP:
                if not (isinstance(actual, VarRef) and actual.name in REDUCE_OPS):
                    self.error(
                        actual,
                        f"{spec.name!r} argument of {s.name} must be one of "
                        f"{sorted(REDUCE_OPS)}",
                    )
            elif spec.role in (ArgRole.REQ_OUT, ArgRole.REQ_IN):
                if not isinstance(actual, VarRef) or actual.name == COMM_WORLD_NAME:
                    self.error(
                        actual,
                        f"{spec.name!r} argument of {s.name} must be an int "
                        "scalar variable (the request handle)",
                    )
                    continue
                ty = self.type_of(actual, proc)
                if ty is not None and not isinstance(ty, IntType):
                    self.error(
                        actual,
                        f"{spec.name!r} argument of {s.name} must be an int "
                        f"scalar, got {ty}",
                    )
            else:  # DEST / SRC / TAG / ROOT / COMM — integer expressions
                ty = self.type_of(actual, proc)
                if ty is not None and not isinstance(ty, IntType):
                    self.error(
                        actual,
                        f"{spec.name!r} argument of {s.name} must be int, got {ty}",
                    )
        # Send and receive buffers of reduce-like ops must agree in type;
        # gather/scatter only need matching element types (the counts
        # differ by the process-count factor, checked at runtime).
        if op.kind.value in ("reduce", "allreduce", "gather", "scatter"):
            din = op.position(ArgRole.DATA_IN)
            dout = op.position(ArgRole.DATA_OUT)
            if din is not None and dout is not None:
                t_in = self.type_of(s.args[din], proc)
                t_out = self.type_of(s.args[dout], proc)
                if t_in is None or t_out is None:
                    return
                if op.kind.value in ("reduce", "allreduce"):
                    if t_in != t_out:
                        self.error(
                            s,
                            f"{s.name}: sendbuf type {t_in} differs from "
                            f"recvbuf type {t_out}",
                        )
                elif t_in.base != t_out.base:
                    self.error(
                        s,
                        f"{s.name}: sendbuf element type {t_in.base} differs "
                        f"from recvbuf element type {t_out.base}",
                    )


def _scalar_of(ty: Type) -> Type:
    return ty.base if isinstance(ty, ArrayType) else ty


class _RequestLint:
    """Every request is waited exactly once on every path.

    A conservative path-sensitive walk over one procedure, tracking the
    set of request variables with an un-waited post ("in flight").  The
    discipline enforced:

    * ``mpi_wait(r)`` requires ``r`` in flight (rejects double waits
      and waits on never-posted requests);
    * re-posting or assigning to an in-flight request loses the handle;
    * both arms of an ``if`` must agree on what is in flight at the
      join (unless an arm returns);
    * loop bodies must be request-balanced;
    * nothing may be in flight at a ``return`` or at the end of the
      body (leaked request);
    * requests are procedure-local — passing an in-flight one to a
      callee is rejected.

    ``walk`` returns ``(pending, live)``: the in-flight set after the
    statement and whether the path falls through (``live=False`` after
    a ``return``).
    """

    def __init__(self, checker: TypeChecker, proc: Procedure):
        self.checker = checker
        self.proc = proc

    def run(self) -> None:
        pending, live = self.walk(self.proc.body, frozenset())
        if live:
            for name in sorted(pending):
                self.checker.error(
                    self.proc.body,
                    f"request {name!r} never waited on "
                    f"(leaked at end of {self.proc.name!r})",
                )

    def error(self, node, message: str) -> None:
        self.checker.error(node, f"in {self.proc.name!r}: {message}")

    def walk(
        self, s: Stmt, pending: frozenset[str]
    ) -> tuple[frozenset[str], bool]:
        if isinstance(s, Block):
            for inner in s.body:
                pending, live = self.walk(inner, pending)
                if not live:
                    return pending, False
            return pending, True
        if isinstance(s, CallStmt):
            return self._call(s, pending), True
        if isinstance(s, (VarDecl, Assign)):
            target = s.name if isinstance(s, VarDecl) else s.target.name
            if target in pending:
                self.error(
                    s,
                    f"request {target!r} overwritten while in flight "
                    "(missing mpi_wait)",
                )
                pending = pending - {target}
            return pending, True
        if isinstance(s, If):
            then_p, then_live = self.walk(s.then, pending)
            els_p, els_live = (
                self.walk(s.els, pending) if s.els is not None else (pending, True)
            )
            if then_live and els_live:
                for name in sorted(then_p ^ els_p):
                    self.error(
                        s,
                        f"request {name!r} is in flight on only one branch "
                        "of 'if' (every path must wait exactly once)",
                    )
                return then_p & els_p, True
            if then_live:
                return then_p, True
            if els_live:
                return els_p, True
            return frozenset(), False
        if isinstance(s, (While, For)):
            body_p, body_live = self.walk(s.body, pending)
            if body_live:
                for name in sorted(body_p - pending):
                    self.error(
                        s,
                        f"request {name!r} posted in loop body but not "
                        "waited before the next iteration",
                    )
                for name in sorted(pending - body_p):
                    self.error(
                        s,
                        f"request {name!r} waited in loop body but posted "
                        "outside it (double wait when the loop repeats)",
                    )
            return pending, True
        if isinstance(s, Return):
            for name in sorted(pending):
                self.error(
                    s, f"request {name!r} still in flight at 'return'"
                )
            return frozenset(), False
        return pending, True

    def _call(self, s: CallStmt, pending: frozenset[str]) -> frozenset[str]:
        op = MPI_OPS.get(s.name)
        if op is None:
            for a in s.args:
                if isinstance(a, VarRef) and a.name in pending:
                    self.error(
                        a,
                        f"request {a.name!r} passed to {s.name!r} while in "
                        "flight (requests are procedure-local)",
                    )
            return pending
        pos = op.position(ArgRole.REQ_OUT)
        if pos is not None and pos < len(s.args):
            a = s.args[pos]
            if isinstance(a, VarRef) and a.name != COMM_WORLD_NAME:
                if a.name in pending:
                    self.error(
                        a,
                        f"request {a.name!r} re-posted while in flight "
                        "(missing mpi_wait)",
                    )
                return pending | {a.name}
            return pending
        pos = op.position(ArgRole.REQ_IN)
        if pos is not None and pos < len(s.args):
            a = s.args[pos]
            if isinstance(a, VarRef) and a.name != COMM_WORLD_NAME:
                if a.name not in pending:
                    self.error(
                        a,
                        f"mpi_wait on request {a.name!r} that is not in "
                        "flight (double wait or never-posted request)",
                    )
                    return pending
                return pending - {a.name}
        return pending


def validate_program(program: Program) -> SymbolTable:
    """Validate ``program``; returns its symbol table on success.

    Raises :class:`ValidationError` listing every problem found, or
    naming the first duplicate declaration (detected while building the
    symbol table, before any other check).
    """
    symtab = SymbolTable(program)
    checker = TypeChecker(symtab)
    if not program.procedures:
        checker.error(program, "program has no procedures")
    for g in program.globals:
        if g.init is not None:
            checker.error(g, f"global {g.name!r} may not have an initializer")
    for proc in program.procedures:
        _check_param_shadowing(checker, proc, symtab)
        checker.check_stmt(proc.body, proc.name)
        _RequestLint(checker, proc).run()
    if checker.errors:
        raise ValidationError(checker.errors)
    return symtab


def _check_param_shadowing(
    checker: TypeChecker, proc: Procedure, symtab: SymbolTable
) -> None:
    for p in proc.params:
        if p.name in symtab.globals:
            checker.error(
                p, f"parameter {p.name!r} of {proc.name!r} shadows a global"
            )
    for decl in proc.local_decls():
        if decl.name in symtab.globals:
            checker.error(
                decl, f"local {decl.name!r} in {proc.name!r} shadows a global"
            )
