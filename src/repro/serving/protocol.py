"""The serving wire protocol: request parsing, validation, cache keys.

A :class:`ServeRequest` is the JSON body of every ``POST`` endpoint,
normalised into a frozen dataclass.  It travels to worker processes as
a plain dict (:meth:`ServeRequest.to_dict` /
:meth:`ServeRequest.from_dict`), and its :meth:`ServeRequest.key` is
the content-addressed identity used by the sharded LRU and the request
coalescer: two requests with equal keys are the same computation, so
one may serve the other's response byte-for-byte.

Four kinds:

* ``analyze`` — run a registered analysis
  (:mod:`repro.analyses.registry`); the response text is byte-identical
  to rendering :func:`~repro.analyses.registry.run_entry` directly.
* ``table1``  — one benchmark's Table 1 row (both arms).
* ``explain`` — provenance derivation chains for a fact.
* ``report``  — the self-contained HTML report.

Programs are named benchmarks (``bench``) or inline SPL text
(``source``); source is identified in cache keys by its SHA-256, so
two clients posting the same program share cache entries.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import Optional, Tuple

from ..analyses.mpi_model import MpiModel
from ..dataflow.solver import STRATEGIES

__all__ = ["KINDS", "ServeError", "ServeRequest"]

KINDS = ("analyze", "table1", "explain", "report")



class ServeError(ValueError):
    """A client error: bad request shape, unknown name, missing field.

    Carries the HTTP status the server should answer with.
    """

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class ServeRequest:
    """One normalised serving request (see module docstring)."""

    kind: str = "analyze"
    analysis: str = "activity"
    bench: Optional[str] = None
    source: Optional[str] = None
    root: str = "main"
    clone_level: int = 0
    independents: Tuple[str, ...] = ()
    dependents: Tuple[str, ...] = ()
    model: str = "comm-edges"
    strategy: str = "roundrobin"
    query: Optional[str] = None
    #: ``explain`` only: the fact to derive and (optionally) the node.
    fact: Optional[str] = None
    node: Optional[int] = None

    _FIELDS = (
        "kind",
        "analysis",
        "bench",
        "source",
        "root",
        "clone_level",
        "independents",
        "dependents",
        "model",
        "strategy",
        "query",
        "fact",
        "node",
    )

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: object) -> "ServeRequest":
        """Parse + validate a JSON body.  Raises :class:`ServeError`."""
        if not isinstance(raw, dict):
            raise ServeError("request body must be a JSON object")
        unknown = sorted(set(raw) - set(cls._FIELDS))
        if unknown:
            raise ServeError(f"unknown request field(s): {', '.join(unknown)}")
        data = dict(raw)
        for seeds in ("independents", "dependents"):
            value = data.get(seeds, ())
            if isinstance(value, str):
                value = (value,)
            if not isinstance(value, (list, tuple)) or not all(
                isinstance(v, str) for v in value
            ):
                raise ServeError(f"{seeds} must be a list of strings")
            data[seeds] = tuple(value)
        try:
            req = cls(**data)
        except TypeError as exc:
            raise ServeError(f"bad request: {exc}") from None
        req.validate()
        return req

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ServeError(
                f"unknown kind {self.kind!r}; expected one of {', '.join(KINDS)}"
            )
        if (self.bench is None) == (self.source is None):
            raise ServeError("exactly one of 'bench' or 'source' is required")
        if self.model not in {m.value for m in MpiModel}:
            raise ServeError(
                f"unknown model {self.model!r}; expected one of "
                f"{', '.join(m.value for m in MpiModel)}"
            )
        if self.strategy not in STRATEGIES:
            raise ServeError(
                f"unknown strategy {self.strategy!r}; expected one of "
                f"{', '.join(STRATEGIES)}"
            )
        if self.kind == "explain" and not self.fact:
            raise ServeError("explain requests need a 'fact'")
        if not isinstance(self.clone_level, int) or self.clone_level < 0:
            raise ServeError("clone_level must be a non-negative integer")
        if self.node is not None and not isinstance(self.node, int):
            raise ServeError("node must be an integer node id")

    # -- identity ------------------------------------------------------------

    def ident(self) -> str:
        """Stable program identity: the benchmark name, or the source
        text's SHA-256 (structurally equal programs posted by different
        clients coalesce)."""
        if self.bench is not None:
            return f"bench:{self.bench}"
        digest = hashlib.sha256(self.source.encode("utf-8")).hexdigest()
        return f"src:{digest}"

    def key(self) -> tuple:
        """The full content-addressed serving key — every field that
        can change the response text."""
        return (
            "serve",
            self.kind,
            self.analysis,
            self.ident(),
            self.root,
            self.clone_level,
            self.independents,
            self.dependents,
            self.model,
            self.strategy,
            self.query,
            self.fact,
            self.node,
        )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["independents"] = list(self.independents)
        d["dependents"] = list(self.dependents)
        return d
