"""Symbol tables and qualified variable names.

Data-flow facts in this library are keyed by *qualified names*:

* ``"::g"`` — a program global (COMMON-style),
* ``"p::v"`` — parameter or local ``v`` of procedure ``p``.

Interprocedural edge mappings (:mod:`repro.dataflow.interproc`) rename
between caller and callee qualified names; globals pass through
unchanged.  When procedures are cloned for partial context sensitivity,
the clone's name appears in the qualified name, while
:attr:`Symbol.origin_proc` still identifies the *declared* procedure so
byte accounting never double-counts a cloned symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .ast_nodes import Procedure, Program, SourceLoc, VarDecl
from .types import Type

__all__ = [
    "GLOBAL_SCOPE",
    "qualify",
    "split_qname",
    "is_global_qname",
    "Symbol",
    "ProcSymbols",
    "SymbolTable",
]

#: Scope marker used in qualified names for globals.
GLOBAL_SCOPE = ""


def qualify(scope: str, var: str) -> str:
    """Build a qualified name; ``scope`` is a procedure name or ``""``."""
    return f"{scope}::{var}"


def split_qname(qname: str) -> tuple[str, str]:
    """Inverse of :func:`qualify`: returns ``(scope, var)``."""
    scope, sep, var = qname.partition("::")
    if not sep:
        raise ValueError(f"not a qualified name: {qname!r}")
    return scope, var


def is_global_qname(qname: str) -> bool:
    return qname.startswith("::")


@dataclass(frozen=True)
class Symbol:
    """One declared variable (global, parameter, or local)."""

    name: str
    type: Type
    kind: str  # "global" | "param" | "local"
    #: Procedure the symbol belongs to ("" for globals).  For clones
    #: this is the clone's name.
    proc: str
    #: Declared procedure before any cloning (equals ``proc`` for
    #: un-cloned symbols).  Byte accounting deduplicates on
    #: ``(origin_proc, name)``.
    origin_proc: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("global", "param", "local"):
            raise ValueError(f"bad symbol kind {self.kind!r}")

    @property
    def qname(self) -> str:
        scope = GLOBAL_SCOPE if self.kind == "global" else self.proc
        return qualify(scope, self.name)

    @property
    def origin_key(self) -> tuple[str, str]:
        scope = GLOBAL_SCOPE if self.kind == "global" else self.origin_proc
        return (scope, self.name)

    def sizeof(self) -> int:
        return self.type.sizeof()


class ValidationError(ValueError):
    """One or more semantic errors in an SPL program.

    Raised by :func:`repro.ir.validate.validate_program`, and by the
    symbol table itself for duplicate declarations.
    """

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("\n".join(errors))


def positioned(loc: Optional[SourceLoc], message: str) -> str:
    """``message`` prefixed with ``L:C: `` when ``loc`` is known."""
    prefix = f"{loc}: " if loc and (loc.line or loc.col) else ""
    return prefix + message


class ProcSymbols:
    """Symbols visible inside one procedure: params, locals, globals."""

    def __init__(self, proc_name: str, origin_proc: Optional[str] = None):
        self.proc_name = proc_name
        self.origin_proc = origin_proc if origin_proc is not None else proc_name
        self.params: dict[str, Symbol] = {}
        self.locals: dict[str, Symbol] = {}

    def _check_fresh(self, name: str, loc: Optional[SourceLoc]) -> None:
        if name in self.params or name in self.locals:
            raise ValidationError(
                [
                    positioned(
                        loc,
                        f"duplicate declaration of {name!r} in {self.proc_name!r}",
                    )
                ]
            )

    def add_param(
        self, name: str, ty: Type, loc: Optional[SourceLoc] = None
    ) -> Symbol:
        self._check_fresh(name, loc)
        sym = Symbol(name, ty, "param", self.proc_name, self.origin_proc)
        self.params[name] = sym
        return sym

    def add_local(
        self, name: str, ty: Type, loc: Optional[SourceLoc] = None
    ) -> Symbol:
        self._check_fresh(name, loc)
        sym = Symbol(name, ty, "local", self.proc_name, self.origin_proc)
        self.locals[name] = sym
        return sym

    def own(self, name: str) -> Optional[Symbol]:
        """Parameter or local named ``name`` (no global fallback)."""
        return self.params.get(name) or self.locals.get(name)

    @property
    def param_list(self) -> list[Symbol]:
        return list(self.params.values())

    def __iter__(self) -> Iterator[Symbol]:
        yield from self.params.values()
        yield from self.locals.values()


class SymbolTable:
    """Program-wide symbol information built from an AST.

    Lookup resolves a bare name within a procedure to a :class:`Symbol`,
    with locals/params shadowing globals (as in Fortran COMMON).
    """

    def __init__(self, program: Program):
        self.program = program
        self.globals: dict[str, Symbol] = {}
        self.procs: dict[str, ProcSymbols] = {}
        for decl in program.globals:
            if decl.name in self.globals:
                raise ValidationError(
                    [positioned(decl.loc, f"duplicate global {decl.name!r}")]
                )
            self.globals[decl.name] = Symbol(decl.name, decl.type, "global", "")
        for proc in program.procedures:
            self.procs[proc.name] = self._build_proc(proc)

    @staticmethod
    def _build_proc(proc: Procedure, clone_name: Optional[str] = None) -> ProcSymbols:
        ps = ProcSymbols(clone_name or proc.name, origin_proc=proc.name)
        for p in proc.params:
            ps.add_param(p.name, p.type, p.loc)
        for decl in proc.local_decls():
            # Re-declaration inside nested blocks is rejected: SPL has
            # flat, procedure-wide scoping like Fortran.
            ps.add_local(decl.name, decl.type, decl.loc)
        return ps

    def add_clone(self, original: str, clone_name: str) -> ProcSymbols:
        """Register symbols for a cloned procedure body."""
        proc = self.program.proc(original)
        ps = self._build_proc(proc, clone_name=clone_name)
        # Preserve the true origin even for clones of clones.
        orig_ps = self.procs.get(original)
        if orig_ps is not None:
            ps.origin_proc = orig_ps.origin_proc
            for sym_map in (ps.params, ps.locals):
                for name, sym in list(sym_map.items()):
                    sym_map[name] = Symbol(
                        sym.name, sym.type, sym.kind, sym.proc, ps.origin_proc
                    )
        self.procs[clone_name] = ps
        return ps

    def lookup(self, proc: str, name: str) -> Symbol:
        """Resolve bare ``name`` used inside ``proc``."""
        ps = self.procs.get(proc)
        if ps is not None:
            sym = ps.own(name)
            if sym is not None:
                return sym
        if name in self.globals:
            return self.globals[name]
        raise KeyError(f"undeclared variable {name!r} in procedure {proc!r}")

    def try_lookup(self, proc: str, name: str) -> Optional[Symbol]:
        try:
            return self.lookup(proc, name)
        except KeyError:
            return None

    def qname(self, proc: str, name: str) -> str:
        """Qualified name of bare ``name`` as used inside ``proc``."""
        return self.lookup(proc, name).qname

    def symbol_of_qname(self, qname: str) -> Symbol:
        scope, var = split_qname(qname)
        if scope == GLOBAL_SCOPE:
            return self.globals[var]
        sym = self.procs[scope].own(var)
        if sym is None:
            raise KeyError(f"no symbol for {qname!r}")
        return sym

    def all_symbols(self) -> Iterator[Symbol]:
        yield from self.globals.values()
        for ps in self.procs.values():
            yield from ps
