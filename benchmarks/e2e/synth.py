"""Seeded, size-parameterised synthetic SPL programs.

Every program has the shape of a halo-exchanging SPMD solver with a
``main(real x, real out)`` context routine (independent ``x``,
dependent ``out``):

* one wrapper chain ``x<f>_1 … x<f>_<depth>`` per two phases.  Level 1
  packs a buffer and runs the rank-0/rank-1 halo exchange on its ``tag``
  formal; each level above calls the one below twice (tags ``tag`` and
  ``tag + 1``).
* ``phases`` procedures called once each from ``main``.  A phase does
  elementwise work on global fields, exchanges one field (two on even
  phases) through a family's chain with literal tags, and folds a norm
  with ``mpi_allreduce``.
* Half of the fields are seeded from ``x``; the other half are state
  that never varies with ``x`` but is exchanged and feeds ``out`` — the
  data the MPI-ICFG can prove inactive and the global-buffer ICFG cannot.

Two regimes, chosen by ``depth`` against ``clone_level``:

* **resolved** (``depth <= clone_level``): every chain level is cloned
  per call site, each literal tag reaches its ``mpi_send``/``mpi_recv``,
  and the COMM edges stay sparse (a few per exchange).
* **merged** (``depth > clone_level``): the chain's upper levels are
  shared, their ``tag`` formals merge to unknown, and every exchange of
  every family can match every other — the COMM edges go dense, growing
  with the square of the exchange count.

:func:`generate` is deterministic: the same arguments give
byte-identical text.  The seed picks the array extent, statement
forms and constants, which fields each phase touches and the tag
numbers; the structure (and so the size and density) comes from the
other arguments, which keeps programs of one shape comparable across
seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["SynthProgram", "generate"]

#: Offset of the reply tag; above every forward tag, so resolved
#: exchanges never pair with one another.
BACK_TAG = 5000


@dataclass(frozen=True)
class SynthProgram:
    """One generated program and the analysis settings it is meant for."""

    name: str
    text: str
    depth: int
    clone_level: int
    root: str = "main"
    independents: tuple[str, ...] = ("x",)
    dependents: tuple[str, ...] = ("out",)

    @property
    def merged(self) -> bool:
        """Tags merge to unknown (dense COMM edges)."""
        return self.depth > self.clone_level


def _chain(f: int, depth: int, n: int, buf: int) -> list[str]:
    """Wrapper chain of family ``f``: level 1 holds the exchange."""
    lines = [
        f"proc x{f}_1(real g[{n}], int tag) {{",
        f"  real buf[{buf}];",
        "  int rank; int i;",
        "  rank = mpi_comm_rank();",
        f"  for i = 0 to {buf - 1} {{",
        "    buf[i] = g[i];",
        "  }",
        "  if (rank == 0) {",
        "    call mpi_send(buf, 1, tag, comm_world);",
        f"    call mpi_recv(buf, 1, tag + {BACK_TAG}, comm_world);",
        "  } else {",
        "    call mpi_recv(buf, 0, tag, comm_world);",
        f"    call mpi_send(buf, 0, tag + {BACK_TAG}, comm_world);",
        "  }",
        f"  for i = 0 to {buf - 1} {{",
        f"    g[{n - buf} + i] = buf[i];",
        "  }",
        "}",
        "",
    ]
    for level in range(2, depth + 1):
        lines += [
            f"proc x{f}_{level}(real g[{n}], int tag) {{",
            f"  call x{f}_{level - 1}(g, tag);",
            f"  call x{f}_{level - 1}(g, tag + 1);",
            "}",
            "",
        ]
    return lines


def _expr(rng: random.Random, a: str, b: str) -> str:
    """One elementwise right-hand side over fields ``a`` and ``b``."""
    c = f"{rng.randint(1, 9)}.{rng.randint(0, 9)}"
    return rng.choice(
        [
            f"{a} * {c} + {b}",
            f"{a} + {b} * {c}",
            f"({a} - {b}) * {c}",
            f"{a} * {b} + {c}",
        ]
    )


def generate(seed: int, phases: int, depth: int, clone_level: int) -> SynthProgram:
    """A program with ``phases`` phase procedures and one wrapper chain
    of ``depth`` levels per two phases, analysed at ``clone_level``.

    Raises ``ValueError`` on arguments outside the supported ranges.
    """
    if phases < 1 or not 1 <= depth <= 3 or not 0 <= clone_level <= 3:
        raise ValueError(
            f"unsupported shape: phases={phases} depth={depth} "
            f"clone_level={clone_level}"
        )
    families = (phases + 1) // 2
    rng = random.Random(seed * 1_000_003 + phases * 101 + depth * 11 + clone_level)
    n = rng.choice([48, 64, 80, 96])
    buf = 8
    nfields = max(4, min(12, phases))
    varying = [f"v{k}" for k in range(nfields // 2)]
    state = [f"s{k}" for k in range(nfields - nfields // 2)]
    name = f"synth_{seed}_{phases}_{depth}{clone_level}"

    lines = [f"program {name};"]
    lines += [f"global real {fld}[{n}];" for fld in varying + state]
    lines += ["global real norm;", ""]
    for f in range(families):
        lines += _chain(f, depth, n, buf)

    tag = rng.randint(1, 9) * 100
    for p in range(phases):
        fam = p % families
        v1, v2 = rng.sample(varying, 2) if len(varying) > 1 else (varying[0],) * 2
        s1, s2 = rng.sample(state, 2)
        lines += [
            f"proc phase{p}(real x, real s) {{",
            "  real t;",
            "  int i;",
            f"  {v1} = {_expr(rng, v2, v1)};",
            f"  for i = 0 to {n - 1} {{",
            f"    {v1}[i] = {v1}[i] + x * {rng.randint(1, 9)}.0;",
            "  }",
            f"  {s1} = {_expr(rng, s2, s1)};",
            f"  call x{fam}_{depth}({s1}, {tag});",
        ]
        tag += 2 ** depth
        if p % 2 == 0:
            lines.append(f"  call x{fam}_{depth}({v1}, {tag});")
            tag += 2 ** depth
        lines += [
            f"  t = {v1}[{rng.randrange(n)}] * {s1}[{rng.randrange(n)}];",
            "  call mpi_allreduce(t, norm, sum, comm_world);",
            "  s = s + norm;",
            "}",
            "",
        ]

    lines += [
        "proc main(real x, real out) {",
        "  real s;",
        "  int i;",
        f"  for i = 0 to {n - 1} {{",
    ]
    lines += [f"    {fld}[i] = x * {k + 1}.0;" for k, fld in enumerate(varying)]
    lines += [f"    {fld}[i] = {k + 1}.5;" for k, fld in enumerate(state)]
    lines += ["  }", "  s = 0.0;"]
    lines += [f"  call phase{p}(x, s);" for p in range(phases)]
    lines += [
        f"  out = s + {state[0]}[0] + {state[-1]}[{n - 1}];",
        "}",
        "",
    ]
    return SynthProgram(
        name=name,
        text="\n".join(lines),
        depth=depth,
        clone_level=clone_level,
    )
