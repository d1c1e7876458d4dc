"""Immutable directed communication graphs on the process set ``{0,...,n-1}``.

A *communication graph* (Section 2 of the paper) is a directed graph whose
nodes are the ``n`` processes; an edge ``(p, q)`` means that a message sent by
``p`` in the current round is delivered to ``q``.  Following the standard
convention for full-information protocols, every process always "hears"
itself: self-loops are implicit and are therefore *stripped* from the stored
edge set but *included* by :meth:`Digraph.in_neighbors` and all reachability
computations.

Bitmask kernel
--------------
Internally a graph is a tuple of integer bit rows: ``out_bits[u]`` has bit
``v`` set iff ``u``'s message reaches ``v`` (the self bit is always set), and
symmetrically ``in_bits``.  The canonical identity of a graph is the pair
``(n, key)`` where ``key`` packs the non-self edge bits as ``u * n + v``.
Graphs on ``n <= _INTERN_MAX_N`` nodes are *interned*: structurally equal
graphs are the same object and share every cached derived quantity
(transitive closures, root components, broadcasters, sort keys).  All reachability queries reduce to a
handful of bitwise operations on the rows:

* the reflexive-transitive closure is computed by repeated squaring on the
  bit rows (``O(log n)`` row-products);
* ``p`` is a *broadcaster* iff its closure row covers all ``n`` bits;
* the SCC of ``u`` is ``closure[u] & transpose_closure[u]``;
* the SCC of ``u`` is a *root component* iff
  ``transpose_closure[u] & ~closure[u] == 0`` (nothing outside reaches in).

The set-based accessors (:attr:`edges`, :meth:`in_neighbors`, Tarjan-ordered
:meth:`strongly_connected_components`) are kept as a thin compatibility
layer, materialized lazily from the bit rows.

The class is immutable and hashable, so graphs can be used as alphabet
symbols of adversary automata, dictionary keys of decision tables, and
members of oblivious adversary sets.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.errors import InvalidGraphError

__all__ = [
    "Digraph",
    "ARROW_NAMES_N2",
    "arrow",
]

#: Conventional names for the four communication graphs on two processes,
#: matching the paper's lossy-link notation.  ``"->"`` is "process 0's message
#: reaches process 1" (the paper's ``→`` with processes renumbered to 0/1).
ARROW_NAMES_N2 = {
    frozenset(): "none",
    frozenset({(0, 1)}): "->",
    frozenset({(1, 0)}): "<-",
    frozenset({(0, 1), (1, 0)}): "<->",
}

_ARROW_EDGES = {name: edges for edges, name in ARROW_NAMES_N2.items()}
# Accept a few unicode/typed aliases for convenience.
_ARROW_EDGES["→"] = _ARROW_EDGES["->"]
_ARROW_EDGES["←"] = _ARROW_EDGES["<-"]
_ARROW_EDGES["↔"] = _ARROW_EDGES["<->"]
_ARROW_EDGES["<>"] = _ARROW_EDGES["<->"]
_ARROW_EDGES["empty"] = _ARROW_EDGES["none"]
_ARROW_EDGES["∅"] = _ARROW_EDGES["none"]

#: Graphs on at most this many nodes are hash-consed into a process-wide
#: table.  Bit rows and packed edge keys are arbitrary-precision Python
#: ints, so every graph operation is width-generic; the cap only bounds
#: the intern table.  ``16`` covers the large-``n`` prefix spaces the
#: columnar extension kernel can walk, while ``n <= 8`` keys stay
#: within one machine word — that fast path is bit-for-bit unchanged
#: (same key packing, same hashes, same interned identities).
_INTERN_MAX_N = 16

_UNSET = object()


class Digraph:
    """An immutable directed graph on nodes ``0..n-1`` with implicit self-loops.

    Parameters
    ----------
    n:
        Number of processes (nodes).  Must be positive.
    edges:
        Iterable of directed edges ``(u, v)``.  Self-loops are allowed in the
        input but normalized away (they are semantically always present).

    Examples
    --------
    >>> g = Digraph(2, [(0, 1)])
    >>> g.in_neighbors(1)
    frozenset({0, 1})
    >>> g.name
    '->'
    >>> g is Digraph(2, [(0, 1)])
    True
    """

    __slots__ = (
        "n",
        "out_bits",
        "in_bits",
        "_key",
        "_hash",
        "_edges",
        "_in",
        "_out",
        "_in_lists",
        "_sort_key",
        "_closure",
        "_tclosure",
        "_bcast_mask",
        "_root_comps",
        "_scc_cache",
    )

    #: Process-wide intern table ``(n, key) -> Digraph`` for small ``n``.
    _intern: dict[tuple[int, int], "Digraph"] = {}

    def __new__(cls, n: int, edges: Iterable[tuple[int, int]] = ()) -> "Digraph":
        if n <= 0:
            raise InvalidGraphError(f"graph needs at least one node, got n={n}")
        key = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidGraphError(
                    f"edge ({u}, {v}) out of range for n={n} (nodes are 0..{n - 1})"
                )
            if u != v:
                key |= 1 << (u * n + v)
        return cls._from_key(n, key)

    @classmethod
    def _from_key(cls, n: int, key: int) -> "Digraph":
        """The canonical graph for a packed non-self edge key (interned)."""
        if n <= 0:
            raise InvalidGraphError(f"graph needs at least one node, got n={n}")
        if n <= _INTERN_MAX_N:
            cached = cls._intern.get((n, key))
            if cached is not None:
                return cached
        self = object.__new__(cls)
        sset = object.__setattr__
        sset(self, "n", n)
        sset(self, "_key", key)
        row_mask = (1 << n) - 1
        out_bits = []
        for u in range(n):
            out_bits.append(((key >> (u * n)) & row_mask) | (1 << u))
        in_bits = []
        for v in range(n):
            bit = 1 << v
            row = bit
            for u in range(n):
                if out_bits[u] & bit:
                    row |= 1 << u
            in_bits.append(row)
        sset(self, "out_bits", tuple(out_bits))
        sset(self, "in_bits", tuple(in_bits))
        sset(self, "_hash", hash((n, key)))
        sset(self, "_edges", _UNSET)
        sset(self, "_in", _UNSET)
        sset(self, "_out", _UNSET)
        sset(self, "_in_lists", _UNSET)
        sset(self, "_sort_key", _UNSET)
        sset(self, "_closure", _UNSET)
        sset(self, "_tclosure", _UNSET)
        sset(self, "_bcast_mask", _UNSET)
        sset(self, "_root_comps", _UNSET)
        sset(self, "_scc_cache", _UNSET)
        if n <= _INTERN_MAX_N:
            cls._intern[(n, key)] = self
        return self

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_out_bits(cls, n: int, rows: Sequence[int]) -> "Digraph":
        """Build from per-node out-neighbor bit rows (self bits optional)."""
        if len(rows) != n:
            raise InvalidGraphError(f"expected {n} bit rows, got {len(rows)}")
        row_mask = (1 << n) - 1
        key = 0
        for u, row in enumerate(rows):
            if row & ~row_mask:
                raise InvalidGraphError(f"row {u} has bits outside 0..{n - 1}")
            key |= (row & ~(1 << u) & row_mask) << (u * n)
        return cls._from_key(n, key)

    @classmethod
    def empty(cls, n: int) -> "Digraph":
        """The graph with no (non-self) edges: every process is isolated."""
        return cls._from_key(n, 0)

    @classmethod
    def complete(cls, n: int) -> "Digraph":
        """The complete graph: every message is delivered."""
        full = (1 << (n * n)) - 1
        for u in range(n):
            full &= ~(1 << (u * n + u))
        return cls._from_key(n, full)

    @classmethod
    def from_arrow(cls, name: str) -> "Digraph":
        """Build one of the four two-process graphs from its arrow name.

        Accepted names: ``"->"``, ``"<-"``, ``"<->"``, ``"none"`` and the
        unicode aliases ``"→"``, ``"←"``, ``"↔"``, ``"∅"``.
        """
        try:
            return cls(2, _ARROW_EDGES[name])
        except KeyError:
            raise InvalidGraphError(f"unknown two-process arrow name: {name!r}") from None

    @classmethod
    def star_out(cls, n: int, center: int) -> "Digraph":
        """The out-star: ``center`` sends to everyone, no other edges."""
        return cls(n, [(center, q) for q in range(n) if q != center])

    @classmethod
    def star_in(cls, n: int, center: int) -> "Digraph":
        """The in-star: everyone sends to ``center``, no other edges."""
        return cls(n, [(q, center) for q in range(n) if q != center])

    @classmethod
    def directed_cycle(cls, n: int, order: Sequence[int] | None = None) -> "Digraph":
        """The directed cycle visiting ``order`` (default ``0,1,...,n-1``)."""
        seq = list(order) if order is not None else list(range(n))
        return cls(n, [(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq))])

    @classmethod
    def directed_path(cls, n: int, order: Sequence[int] | None = None) -> "Digraph":
        """The directed path visiting ``order`` (default ``0,1,...,n-1``)."""
        seq = list(order) if order is not None else list(range(n))
        return cls(n, [(seq[i], seq[i + 1]) for i in range(len(seq) - 1)])

    @classmethod
    def from_matrix(cls, matrix: Sequence[Sequence[int]]) -> "Digraph":
        """Build from an adjacency matrix; ``matrix[u][v]`` truthy adds (u,v)."""
        n = len(matrix)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(len(matrix[u]))
            if u != v and matrix[u][v]
        ]
        return cls(n, edges)

    @classmethod
    def from_dict(cls, n: int, out_neighbors: Mapping[int, Iterable[int]]) -> "Digraph":
        """Build from a mapping ``u -> iterable of v`` of out-neighborhoods."""
        edges = [(u, v) for u, vs in out_neighbors.items() for v in vs]
        return cls(n, edges)

    @classmethod
    def interned_count(cls) -> int:
        """How many distinct graphs the process-wide intern table holds."""
        return len(cls._intern)

    @classmethod
    def clear_intern_cache(cls) -> None:
        """Drop the process-wide intern table.

        Long-running processes that *sample* large graph spaces (rejection
        sampling at ``n >= 5`` can touch millions of distinct keys) may
        call this to release the retained graphs and their cached
        closures.  Existing instances stay valid: equality and hashing
        compare ``(n, key)``, so a pre-clear graph still compares equal to
        a freshly interned duplicate — only the ``is`` identity between
        graphs constructed before and after the clear is lost.
        """
        cls._intern.clear()

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def key(self) -> int:
        """The packed non-self edge bitmask (bit ``u * n + v`` = edge u→v).

        Together with ``n`` this is the graph's canonical identity:
        ``Digraph.from_key(g.n, g.key) is g`` for interned sizes.  The key
        is a plain non-negative integer, which makes it the JSON-portable
        graph encoding used by adversary specs and sweep manifests.
        """
        return self._key

    @classmethod
    def from_key(cls, n: int, key: int) -> "Digraph":
        """The graph for a packed edge key (the inverse of :attr:`key`)."""
        if key < 0 or key >> (n * n):
            raise InvalidGraphError(f"edge key {key} out of range for n={n}")
        for u in range(n):
            if key >> (u * n + u) & 1:
                raise InvalidGraphError(
                    f"edge key {key} has a self-loop bit set (node {u})"
                )
        return cls._from_key(n, key)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The non-self edges as a frozenset of ``(u, v)`` pairs."""
        cached = self._edges
        if cached is _UNSET:
            n, key = self.n, self._key
            cached = frozenset(
                (u, v)
                for u in range(n)
                for v in range(n)
                if key >> (u * n + v) & 1
            )
            object.__setattr__(self, "_edges", cached)
        return cached

    def in_neighbors(self, p: int) -> frozenset[int]:
        """Processes whose round message reaches ``p`` (always contains ``p``)."""
        cached = self._in
        if cached is _UNSET:
            cached = tuple(_bits_to_frozenset(row) for row in self.in_bits)
            object.__setattr__(self, "_in", cached)
        return cached[p]

    def out_neighbors(self, p: int) -> frozenset[int]:
        """Processes that receive ``p``'s round message (always contains ``p``)."""
        cached = self._out
        if cached is _UNSET:
            cached = tuple(_bits_to_frozenset(row) for row in self.out_bits)
            object.__setattr__(self, "_out", cached)
        return cached[p]

    @property
    def in_neighbor_lists(self) -> tuple[tuple[int, ...], ...]:
        """Per-process sorted tuples of in-neighbors (self included).

        The tuple form is the fast iteration order used by the view-interner
        and heard-of hot paths.
        """
        cached = self._in_lists
        if cached is _UNSET:
            cached = tuple(_bits_to_tuple(row) for row in self.in_bits)
            object.__setattr__(self, "_in_lists", cached)
        return cached

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the (possibly implicit self-) edge ``(u, v)`` is present."""
        return bool(self.out_bits[u] >> v & 1)

    @property
    def name(self) -> str:
        """Human-readable name; arrow notation for ``n == 2``."""
        if self.n == 2:
            return ARROW_NAMES_N2[self.edges]
        return f"Digraph(n={self.n}, m={len(self.edges)})"

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #

    def transpose(self) -> "Digraph":
        """The graph with every edge reversed."""
        return Digraph.from_out_bits(self.n, self.in_bits)

    def union(self, other: "Digraph") -> "Digraph":
        """Edge-union of two graphs on the same node set."""
        self._check_same_n(other)
        return Digraph._from_key(self.n, self._key | other._key)

    def intersection(self, other: "Digraph") -> "Digraph":
        """Edge-intersection of two graphs on the same node set."""
        self._check_same_n(other)
        return Digraph._from_key(self.n, self._key & other._key)

    def compose(self, other: "Digraph") -> "Digraph":
        """The round product ``self ∘ other``: first ``self``, then ``other``.

        The result has edge ``(u, w)`` iff information can flow from ``u``
        to ``w`` through one round of ``self`` followed by one round of
        ``other`` (self-loops implicit in both rounds), i.e. its
        out-neighborhoods are the bit-row product of the two graphs.
        """
        self._check_same_n(other)
        other_rows = other.out_bits
        rows = []
        for row in self.out_bits:
            acc = 0
            rest = row
            while rest:
                low = rest & -rest
                acc |= other_rows[low.bit_length() - 1]
                rest ^= low
            rows.append(acc)
        return Digraph.from_out_bits(self.n, rows)

    def with_edge(self, u: int, v: int) -> "Digraph":
        """A copy with edge ``(u, v)`` added."""
        n = self.n
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidGraphError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            return self
        return Digraph._from_key(n, self._key | 1 << (u * n + v))

    def without_edge(self, u: int, v: int) -> "Digraph":
        """A copy with edge ``(u, v)`` removed (self-loops cannot be removed)."""
        n = self.n
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidGraphError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            return self
        return Digraph._from_key(n, self._key & ~(1 << (u * n + v)))

    def is_subgraph_of(self, other: "Digraph") -> bool:
        """Whether every edge of ``self`` is an edge of ``other``."""
        self._check_same_n(other)
        return self._key & ~other._key == 0

    def _check_same_n(self, other: "Digraph") -> None:
        if self.n != other.n:
            raise InvalidGraphError(
                f"graphs have different sizes: {self.n} != {other.n}"
            )

    # ------------------------------------------------------------------ #
    # Reachability and component structure
    # ------------------------------------------------------------------ #

    def closure_bits(self) -> tuple[int, ...]:
        """Reflexive-transitive closure rows: bit ``v`` of row ``u`` iff
        ``u`` reaches ``v`` (cached; repeated squaring on the bit rows)."""
        cached = self._closure
        if cached is _UNSET:
            cached = _close_rows(self.out_bits)
            object.__setattr__(self, "_closure", cached)
        return cached

    def transpose_closure_bits(self) -> tuple[int, ...]:
        """Rows of the transposed closure: bit ``v`` of row ``u`` iff
        ``v`` reaches ``u`` (cached)."""
        cached = self._tclosure
        if cached is _UNSET:
            cached = _close_rows(self.in_bits)
            object.__setattr__(self, "_tclosure", cached)
        return cached

    def reaches(self, u: int, v: int) -> bool:
        """Whether there is a directed path from ``u`` to ``v``."""
        return bool(self.closure_bits()[u] >> v & 1)

    def reachable_from(self, p: int) -> frozenset[int]:
        """All processes reachable from ``p`` along directed edges (incl. p)."""
        return _bits_to_frozenset(self.closure_bits()[p])

    @property
    def broadcasters_mask(self) -> int:
        """Bitmask of processes whose message (transitively) reaches all."""
        cached = self._bcast_mask
        if cached is _UNSET:
            full = (1 << self.n) - 1
            cached = 0
            for p, row in enumerate(self.closure_bits()):
                if row == full:
                    cached |= 1 << p
            object.__setattr__(self, "_bcast_mask", cached)
        return cached

    @property
    def broadcasters(self) -> frozenset[int]:
        """Processes whose message (transitively) reaches every process.

        Nonempty iff :attr:`is_rooted` holds, in which case it equals the
        single root component.
        """
        return _bits_to_frozenset(self.broadcasters_mask)

    @property
    def is_rooted(self) -> bool:
        """Whether there is a single root component (some node reaches all)."""
        return self.broadcasters_mask != 0

    @property
    def root_components(self) -> tuple[frozenset[int], ...]:
        """Source components: SCCs with no incoming edge from another SCC.

        Every digraph has at least one root component.  If there is exactly
        one, each of its members reaches every node.  Ordered by smallest
        member.
        """
        cached = self._root_comps
        if cached is _UNSET:
            closure = self.closure_bits()
            tclosure = self.transpose_closure_bits()
            comps = []
            seen = 0
            for u in range(self.n):
                bit = 1 << u
                if seen & bit:
                    continue
                # u's SCC is a root component iff everything reaching u is
                # also reached by u.
                if tclosure[u] & ~closure[u] == 0:
                    comp = closure[u] & tclosure[u]
                    comps.append(_bits_to_frozenset(comp))
                    seen |= comp
                else:
                    seen |= bit
            cached = tuple(comps)
            object.__setattr__(self, "_root_comps", cached)
        return cached

    @property
    def roots(self) -> frozenset[int]:
        """Union of all root-component members."""
        return frozenset().union(*self.root_components)

    def _scc_data(self) -> tuple[tuple[frozenset[int], ...], tuple[int, ...]]:
        """SCCs in reverse topological order, plus node -> component index."""
        cached = self._scc_cache
        if cached is _UNSET:
            n = self.n
            closure = self.closure_bits()
            tclosure = self.transpose_closure_bits()
            comp_masks: list[int] = []
            comp_of = [-1] * n
            for u in range(n):
                if comp_of[u] != -1:
                    continue
                comp = closure[u] & tclosure[u]
                cid = len(comp_masks)
                comp_masks.append(comp)
                rest = comp
                while rest:
                    low = rest & -rest
                    comp_of[low.bit_length() - 1] = cid
                    rest ^= low
            # Reverse topological: a component before everything that can
            # reach it; sorting by closure size achieves this because a
            # reachable component's closure is strictly contained.
            order = sorted(
                range(len(comp_masks)),
                key=lambda cid: bin(closure[(comp_masks[cid] & -comp_masks[cid]).bit_length() - 1]).count("1"),
            )
            rank = {cid: i for i, cid in enumerate(order)}
            components = tuple(
                _bits_to_frozenset(comp_masks[cid]) for cid in order
            )
            cached = (components, tuple(rank[c] for c in comp_of))
            object.__setattr__(self, "_scc_cache", cached)
        return cached

    def strongly_connected_components(self) -> tuple[frozenset[int], ...]:
        """All strongly connected components (order: reverse topological)."""
        return self._scc_data()[0]

    def component_of(self, p: int) -> frozenset[int]:
        """The strongly connected component containing ``p``."""
        comps, comp_of = self._scc_data()
        return comps[comp_of[p]]

    @property
    def is_strongly_connected(self) -> bool:
        """Whether the whole graph forms a single SCC."""
        full = (1 << self.n) - 1
        return self.closure_bits()[0] == full and self.transpose_closure_bits()[0] == full

    # ------------------------------------------------------------------ #
    # Dunder protocol
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Digraph") -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def sort_key(self) -> tuple[int, int, tuple[tuple[int, int], ...]]:
        """A deterministic total-order key (used to canonicalize alphabets)."""
        cached = self._sort_key
        if cached is _UNSET:
            edges = self.edges
            cached = (self.n, len(edges), tuple(sorted(edges)))
            object.__setattr__(self, "_sort_key", cached)
        return cached

    def __repr__(self) -> str:
        if self.n == 2:
            return f"Digraph.from_arrow({self.name!r})"
        return f"Digraph({self.n}, {sorted(self.edges)!r})"

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Digraph is immutable")

    def __reduce__(self) -> tuple[Any, ...]:
        return (_rebuild_digraph, (self.n, self._key))


def _rebuild_digraph(n: int, key: int) -> Digraph:
    """Pickle support routing through the intern table."""
    return Digraph._from_key(n, key)


def _close_rows(rows: Sequence[int]) -> tuple[int, ...]:
    """Reflexive-transitive closure of bit rows by repeated squaring."""
    current = list(rows)
    n = len(current)
    while True:
        changed = False
        squared = []
        for row in current:
            acc = 0
            rest = row
            while rest:
                low = rest & -rest
                acc |= current[low.bit_length() - 1]
                rest ^= low
            if acc != row:
                changed = True
            squared.append(acc)
        if not changed:
            return tuple(current)
        current = squared
        if n <= 2:
            return tuple(current)


def _bits_to_frozenset(mask: int) -> frozenset[int]:
    """The set of positions of set bits."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def _bits_to_tuple(mask: int) -> tuple[int, ...]:
    """The sorted tuple of positions of set bits."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def arrow(name: str) -> Digraph:
    """Shorthand for :meth:`Digraph.from_arrow`."""
    return Digraph.from_arrow(name)
