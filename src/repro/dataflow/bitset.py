"""Fact interning and bitset execution for set-lattice problems.

Every set-based analysis in this repo (liveness, reaching definitions,
Vary, Useful, taint) works over the same lattice shape: facts are
``frozenset``s of hashable atoms, ``top()`` is the empty set, and meet
is union.  Python-int bitmasks are a dramatically cheaper carrier for
that lattice — meet becomes a single ``|`` on machine words, equality a
word compare — and because every hook of a :class:`DataFlowProblem` is
pure, transfer and edge mappings can be memoised per ``(node, fact)``
once facts are small hashable ints.

Three pieces live here:

* :class:`FactUniverse` — a bidirectional atom ↔ bit-index interner
  that encodes ``frozenset`` facts as ints and decodes them back;
* :class:`BitsetFacts` — the opt-in marker mixin.  Subclassing it
  declares "my facts are frozensets of hashable atoms, my meet is
  union, my ``top`` is empty, and my hooks are pure", which is what
  the solver needs to run the problem on int bitmask facts without
  any semantic change;
* :class:`BitsetAdapter` — the wrapper the solver applies: it presents
  an int-fact :class:`DataFlowProblem` whose transfer/edge/comm hooks
  decode, delegate to the wrapped set-based problem, re-encode, and
  memoise.

The adapter is created fresh per :func:`repro.dataflow.solver.solve`
call, so memo tables never leak across solves, and the final result is
decoded back to ``frozenset``s — fixed points are bit-identical to a
plain frozenset solve (``benchmarks/seed_solver.py`` keeps one as the
reference the tests compare against).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional, Sequence

from ..cfg.node import Edge, EdgeKind, Node
from .framework import DataFlowProblem

__all__ = ["FactUniverse", "BitsetFacts", "BitsetAdapter"]

#: Cache-miss sentinel (``None`` and ``0`` are legitimate cached values).
_MISS = object()


class FactUniverse:
    """Bidirectional map between fact atoms and bit positions.

    Bit indices are handed out on first sight, so the universe grows
    lazily with the atoms an analysis actually produces; decoding is
    order-independent (a decoded ``frozenset`` compares equal no matter
    when its atoms were interned).
    """

    __slots__ = ("_index", "_atoms")

    def __init__(self) -> None:
        self._index: dict[Hashable, int] = {}
        self._atoms: list[Hashable] = []

    def __len__(self) -> int:
        return len(self._atoms)

    def bit_of(self, atom: Hashable) -> int:
        """Bit index of ``atom``, interning it if new."""
        index = self._index
        i = index.get(atom)
        if i is None:
            i = len(self._atoms)
            index[atom] = i
            self._atoms.append(atom)
        return i

    def atom_of(self, bit: int) -> Hashable:
        return self._atoms[bit]

    def encode(self, atoms: Iterable[Hashable]) -> int:
        """Intern ``atoms`` and return their bitmask."""
        index = self._index
        interned = self._atoms
        mask = 0
        for atom in atoms:
            i = index.get(atom)
            if i is None:
                i = len(interned)
                index[atom] = i
                interned.append(atom)
            mask |= 1 << i
        return mask

    def decode(self, mask: int) -> frozenset:
        """Inverse of :meth:`encode` (total on any mask it produced)."""
        atoms = self._atoms
        out = []
        while mask:
            low = mask & -mask
            out.append(atoms[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)


class BitsetFacts:
    """Opt-in marker mixin for the solver's bitmask fact path.

    A :class:`~repro.dataflow.framework.DataFlowProblem` may subclass
    this when all of the following hold (they do for every set-based
    analysis in :mod:`repro.analyses`):

    * facts are ``frozenset``s (or sets) of hashable atoms;
    * ``top()`` is the empty set and ``meet`` is set union;
    * ``eq`` is plain set equality;
    * ``transfer``/``edge_fact``/``comm_value`` are pure functions of
      their arguments (no hidden mutable state), so memoisation by
      ``(node id, fact)`` is sound;
    * communication values are hashable (``bool``/``None`` in practice);
    * ``edge_fact`` is the identity on FLOW edges (set
      :attr:`flow_identity` to ``False`` if yours is not).

    The mixin changes nothing by itself: the solver runs every
    subclass on a :class:`BitsetAdapter`, and every other problem on its
    own fact type.
    """

    #: FLOW-edge ``edge_fact`` is the identity, so the adapter may skip
    #: the call entirely on the hot path.
    flow_identity = True


class BitsetAdapter(DataFlowProblem):
    """Run a set-based problem on int bitmask facts.

    Presents the wrapped problem's semantics with facts re-represented
    as interned bitmasks.  Meet and equality run as int ops; transfer,
    edge mapping and communication values are delegated to the wrapped
    problem at frozenset granularity and memoised — in a fixed-point
    solve most visits recompute a node on unchanged inputs, which the
    memo turns into a dict hit instead of a set rebuild.

    ``universe`` lets several adapters share one :class:`FactUniverse`:
    the universe is append-only and decoding is order-independent, so
    two solves over the same variable population (e.g. Vary and Useful
    inside one activity analysis) reuse each other's interning instead
    of rebuilding the atom ↔ bit map from scratch.  Memo tables stay
    per-adapter either way.
    """

    def __init__(
        self, inner: DataFlowProblem, universe: Optional[FactUniverse] = None
    ):
        if not isinstance(inner, BitsetFacts):
            raise ValueError(
                f"{inner.name}: not bitset-capable (subclass BitsetFacts "
                "to declare set-lattice semantics)"
            )
        self.inner = inner
        self.direction = inner.direction
        self.name = inner.name
        self.universe = universe if universe is not None else FactUniverse()
        # Re-exported so the solver engine can skip FLOW edge_fact calls.
        self.flow_identity = getattr(inner, "flow_identity", False)
        self._flow_identity = self.flow_identity
        self._boundary: Optional[int] = None
        self._transfer_cache: dict = {}
        self._edge_cache: dict = {}
        self._comm_cache: dict = {}

    # -- lattice (pure int ops) ---------------------------------------------

    def top(self) -> int:
        return 0

    def boundary(self) -> int:
        if self._boundary is None:
            self._boundary = self.universe.encode(self.inner.boundary())
        return self._boundary

    def meet(self, a: int, b: int) -> int:
        return a | b

    def eq(self, a: int, b: int) -> bool:
        return a == b

    # -- memoised delegation -------------------------------------------------

    def transfer(self, node: Node, fact: int, comm) -> int:
        key = (node.id, fact, comm)
        out = self._transfer_cache.get(key)
        if out is None:
            universe = self.universe
            out = universe.encode(
                self.inner.transfer(node, universe.decode(fact), comm)
            )
            self._transfer_cache[key] = out
        return out

    def edge_fact(self, edge: Edge, fact: int) -> int:
        if self._flow_identity and edge.kind is EdgeKind.FLOW:
            return fact
        # Edges are stable objects for the life of one solve (the engine
        # snapshots adjacency up front), so identity-keying skips the
        # 4-field value hash on every lookup.
        key = (id(edge), fact)
        out = self._edge_cache.get(key)
        if out is None:
            universe = self.universe
            out = universe.encode(
                self.inner.edge_fact(edge, universe.decode(fact))
            )
            self._edge_cache[key] = out
        return out

    # -- communication -------------------------------------------------------

    def has_comm(self) -> bool:
        return self.inner.has_comm()

    def comm_value(self, node: Node, before: int):
        key = (node.id, before)
        out = self._comm_cache.get(key, _MISS)
        if out is _MISS:
            out = self.inner.comm_value(node, self.universe.decode(before))
            self._comm_cache[key] = out
        return out

    def comm_meet(self, values: Sequence):
        return self.inner.comm_meet(values)

    # -- result decoding -----------------------------------------------------

    def decode_facts(self, facts: dict[int, int]) -> dict[int, frozenset]:
        """Decode a node-id → bitmask map back to frozenset facts."""
        decode = self.universe.decode
        return {nid: decode(mask) for nid, mask in facts.items()}
