"""Connected components of the depth-``t`` prefix space in the minimum topology.

Two depth-``t`` prefixes are *indistinguishable* when some process has the
same view in both through round ``t`` — equivalently, their ``d_min``
distance is below ``2^{-t}``, i.e. each lies in the other's ``2^{-t}``-ball.
The transitive closure of indistinguishability partitions the layer into
components; these are exactly the ``ε = 2^{-t}`` approximations of
Definition 6.2 (a fact checked against the literal iterative construction in
:mod:`repro.topology.approximation` and its tests).

For each component the analysis records the data the consensus
characterizations need:

* the *valences*: which unanimous input values ``v`` occur among members
  (a component containing two different valences is "bivalent" — by
  Corollary 5.6 its persistence at every depth is exactly consensus
  impossibility);
* the *broadcasters*: processes heard by every process in every member
  (Definition 5.8 / Theorem 5.11 / Theorem 6.6);
* the broadcaster input values (Theorem 5.9 predicts they are constant per
  component — asserted here, making the theorem an executable invariant).

Columnar pipeline
-----------------
The analysis consumes the layer's flat columns directly — the
:class:`~repro.core.views.LayerTable` view-id column, the input-index
column, and the interner's origin-mask column — and produces columns: a
per-prefix component-id column (``comp_ids``) plus per-component member
index arrays.  Two equivalent paths sit behind the interner's
``layer_backend`` switch:

* ``"numpy"`` — per process column, a scatter/gather over the view ids
  links every prefix to one representative sharing its ``(view, p)``
  key; connectivity is solved on these star edges over the prefixes
  alone (scipy's ``connected_components``, else a numpy root-hooking
  loop), and the per-component masks/valences fold with ``reduceat``;
* ``"python"`` — the batched union-find pass over the flat column (one
  dict probe per cell, inlined union by size with path halving).

Both paths order components canonically by smallest member index, so
component ids, member order, and every downstream decision table are
identical regardless of backend.  :class:`Component` objects stay thin
wrappers; their member *lists* (and any
:class:`~repro.topology.prefixspace.PrefixNode`) materialize lazily.
"""

from __future__ import annotations

from array import array
from typing import Iterator

from repro.core.graphword import full_mask
from repro.core.views import numpy_module, plain_ids
from repro.errors import AnalysisError
from repro.topology.prefixspace import PrefixNode, PrefixSpace

__all__ = ["Component", "ComponentAnalysis", "UnionFind"]

#: Below this many (prefix, process) cells the vectorized component pass
#: is not worth its fixed overhead; small layers run the Python pass.
#: Measured per layer on the sweep-family layers (2-core x86): the passes
#: break even at 512-1024 cells, numpy is 1.6x faster at 1024-1536 and 3x
#: at 1536-2048, and Python is ~4x faster below 256.
_COMPONENT_NUMPY_MIN_CELLS = 1024

#: The vectorized pass encodes valence sets as int64 bitmaps; spaces with
#: more distinct unanimity values run the Python pass instead.
_NUMPY_MAX_VALENCES = 62


def _scipy_csgraph():
    """scipy's sparse connected-components, when installed (else None).

    scipy is strictly optional (``dependencies = []`` holds): with it, the
    star-edge prefix graph solves in one C-level pass; without it the
    numpy root-hooking fallback (:meth:`ComponentAnalysis._sv_labels`)
    runs on the same edges.
    """
    try:
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components
    except ImportError:  # pragma: no cover - exercised where scipy is absent
        return None
    return csr_matrix, connected_components


class UnionFind:
    """Array-based union-find with path halving and union by size."""

    __slots__ = ("parent", "size")

    def __init__(self, count: int) -> None:
        self.parent = list(range(count))
        self.size = [1] * count

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


class Component:
    """One connected component of a depth-``t`` layer.

    Member indices are held as whatever column the analysis produced (an
    int64 numpy array on the vectorized path, a list on the Python path);
    :attr:`member_indices` materializes — and caches — the plain-int list
    on first access, so columnar consumers never pay for it.
    """

    __slots__ = (
        "id",
        "depth",
        "valences",
        "broadcast_mask",
        "_space",
        "_members",
    )

    def __init__(
        self,
        component_id: int,
        depth: int,
        member_indices,
        valences: frozenset,
        broadcast_mask: int,
        space: PrefixSpace,
    ) -> None:
        self.id = component_id
        self.depth = depth
        self._members = member_indices
        self.valences = valences
        self.broadcast_mask = broadcast_mask
        self._space = space

    # -- membership -----------------------------------------------------

    @property
    def member_indices(self) -> list[int]:
        """The member prefix indices as a plain list (lazily materialized)."""
        members = self._members
        if not isinstance(members, list):
            members = self._members = list(
                members.tolist() if hasattr(members, "tolist") else members
            )
        return members

    def member_input_indices(self) -> Iterator[int]:
        """Input-vector index of every member, without node wrappers."""
        input_idx = self._space.layer_store(self.depth).input_idx
        for i in self._members:
            yield int(input_idx[i])

    def members(self) -> Iterator[PrefixNode]:
        """Iterate over the member prefix nodes."""
        layer = self._space.layer(self.depth)
        return (layer[i] for i in self._members)

    def __len__(self) -> int:
        return len(self._members)

    @property
    def representative(self) -> PrefixNode:
        """An arbitrary (first-indexed) member."""
        return self._space.layer(self.depth)[self._members[0]]

    # -- consensus-relevant structure ------------------------------------

    @property
    def is_bivalent(self) -> bool:
        """Whether members include two differently-valent prefixes."""
        return len(self.valences) >= 2

    @property
    def broadcasters(self) -> frozenset[int]:
        """Processes that have broadcast by depth ``t`` in *every* member."""
        n = self._space.adversary.n
        return frozenset(p for p in range(n) if self.broadcast_mask >> p & 1)

    @property
    def is_broadcastable(self) -> bool:
        """Whether some process has broadcast in every member (Thm 6.6 test)."""
        return self.broadcast_mask != 0

    def broadcaster_value(self, p: int):
        """The input value of broadcaster ``p`` (constant by Theorem 5.9)."""
        store = self._space.layer_store(self.depth)
        input_idx = store.input_idx
        input_vectors = self._space.input_vectors
        values = {
            input_vectors[input_idx[i]][p] for i in self._members
        }
        if len(values) != 1:
            raise AnalysisError(
                f"Theorem 5.9 violation: broadcaster {p} has values {values} "
                f"within one connected component"
            )
        return next(iter(values))

    def __repr__(self) -> str:
        return (
            f"Component(#{self.id}, depth={self.depth}, "
            f"size={len(self)}, valences={set(self.valences)}, "
            f"broadcasters={set(self.broadcasters)})"
        )


class ComponentAnalysis:
    """Components of one layer of a :class:`PrefixSpace`.

    Attributes
    ----------
    components:
        The :class:`Component` partition, ordered by smallest member index.
    comp_ids:
        Per-prefix component-id column (int64 numpy array on the
        vectorized path, list on the Python path) — the columnar handoff
        the decision-table builder consumes.
    member_order, comp_starts:
        Vectorized path only (``None`` on the Python path): the prefix
        indices grouped by component, ascending within each group, and
        each group's start offset — the layer's one sort, which the
        decision table's value assignment reuses.

    Examples
    --------
    >>> from repro.adversaries.lossylink import lossy_link_no_hub
    >>> analysis = ComponentAnalysis(PrefixSpace(lossy_link_no_hub()), 1)
    >>> analysis.bivalent_components() == []
    True
    """

    def __init__(self, space: PrefixSpace, depth: int) -> None:
        self.space = space
        self.depth = depth
        store = space.layer_store(depth)
        table = store.levels
        interner = space.interner
        n = space.adversary.n
        np = numpy_module()
        count = len(table)
        # The vectorized pass folds valences as int64 bitmaps; instances
        # with more distinct unanimity values than fit take the Python
        # pass (arbitrary-precision sets).
        distinct_values = len(
            {v for v in space.unanimity_by_index if v is not None}
        )
        if (
            np is not None
            and interner.layer_backend == "numpy"
            and isinstance(interner._origin_mask, array)
            and distinct_values <= _NUMPY_MAX_VALENCES
            and count * n >= _COMPONENT_NUMPY_MIN_CELLS
        ):
            self._analyze_numpy(np, store, table, interner, n, count)
        else:
            self._analyze_python(store, table, interner, n, count)
        self._view_map: dict[tuple[int, int], int] | None = None

    # ------------------------------------------------------------------ #
    # The two component passes
    # ------------------------------------------------------------------ #

    def _analyze_python(self, store, table, interner, n: int, count: int) -> None:
        """Batched union-find over the flat layer column (pure Python)."""
        ids = plain_ids(table.ids)
        union_find = UnionFind(count)
        parent = union_find.parent
        size = union_find.size
        origin_masks = interner._origin_mask
        everyone = full_mask(n)
        # One pass: bucket cells by the packed key ``view_id * n + p`` (two
        # prefixes sharing a bucket are indistinguishable) and fold the
        # per-node broadcast mask while the views are at hand.
        buckets: dict[int, int] = {}
        bucket_get = buckets.get
        node_masks: list[int] = []
        node_masks_append = node_masks.append
        base = 0
        for index in range(count):
            common = everyone
            for p in range(n):
                vid = ids[base + p]
                common &= origin_masks[vid]
                key = vid * n + p
                first = bucket_get(key)
                if first is None:
                    buckets[key] = index
                    continue
                # Inline union by size with path halving.
                a, b = first, index
                while parent[a] != a:
                    parent[a] = a = parent[parent[a]]
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                if a != b:
                    if size[a] < size[b]:
                        a, b = b, a
                    parent[b] = a
                    size[a] += size[b]
            node_masks_append(common)
            base += n

        # Gather per-root data in a second pass over the columns.  Because
        # nodes are visited in index order, each root is first reached
        # through its smallest member, so the insertion order of
        # ``members_of`` is already the canonical (first-member) component
        # order — no sort needed.
        unanimity = self.space.unanimity_by_index
        input_idx = store.input_idx
        members_of: dict[int, list[int]] = {}
        valences_of: dict[int, set] = {}
        mask_of: dict[int, int] = {}
        for index, common in enumerate(node_masks):
            root = index
            while parent[root] != root:
                parent[root] = root = parent[parent[root]]
            members = members_of.get(root)
            if members is None:
                members_of[root] = [index]
                mask_of[root] = common
            else:
                members.append(index)
                mask_of[root] &= common
            value = unanimity[input_idx[index]]
            if value is not None:
                held = valences_of.get(root)
                if held is None:
                    valences_of[root] = {value}
                else:
                    held.add(value)

        empty: frozenset = frozenset()
        valences_get = valences_of.get
        space = self.space
        depth = self.depth
        self.components: list[Component] = []
        components_append = self.components.append
        component_of_root: dict[int, int] = {}
        for component_id, (root, members) in enumerate(members_of.items()):
            held = valences_get(root)
            components_append(
                Component(
                    component_id=component_id,
                    depth=depth,
                    member_indices=members,
                    valences=frozenset(held) if held else empty,
                    broadcast_mask=mask_of[root],
                    space=space,
                )
            )
            component_of_root[root] = component_id
        comp_ids = [0] * count
        for cid, component in enumerate(self.components):
            for index in component._members:
                comp_ids[index] = cid
        self.comp_ids = comp_ids
        self.member_order = self.comp_starts = None
        # view bucket -> first node index (the universal algorithm's
        # lookup); the (p, view) -> component map is built lazily because
        # the solvability checker never queries it.
        self._buckets = buckets

    def _analyze_numpy(self, np, store, table, interner, n: int, count: int) -> None:
        """Vectorized component pass over the flat layer column.

        Two prefixes are adjacent iff they share a ``(view, p)`` key.  Per
        process column, one scatter ``rep[view] = cell`` and one gather
        ``rep[view]`` give every prefix a representative holding the same
        key; the star edges ``cell -> rep`` (self-loops kept, so the CSR
        matrix has exactly ``n`` entries per row and builds without a COO
        pass) span a graph over the ``count`` prefixes alone.  scipy's
        weak ``connected_components`` solves it in one C-level pass;
        without scipy, :meth:`_sv_labels` hooks roots along the same
        edges.  Both number components in first-member order; an O(count)
        check confirms it, and the unique/argsort remap runs only if it
        fails.  Masks and valence bitmaps then fold with ``reduceat``.
        """
        mat = table.array()
        origin_masks = np.frombuffer(interner._origin_mask, dtype=np.int64)
        index_dtype = np.int32 if count * n < 2**31 else np.int64
        cells = np.arange(count, dtype=index_dtype)
        reps = np.empty((count, n), dtype=index_dtype)
        node_masks = np.full(count, full_mask(n), dtype=np.int64)
        for p in range(n):
            views = mat[:, p]
            node_masks &= origin_masks[views]
            shifted = views - views.min()
            rep = np.empty(int(shifted.max()) + 1, dtype=index_dtype)
            rep[shifted] = cells
            reps[:, p] = rep[shifted]
        del shifted, rep
        csgraph = _scipy_csgraph()
        if csgraph is not None:
            csr_matrix, connected_components = csgraph
            indptr = np.arange(0, count * n + 1, n, dtype=index_dtype)
            graph = csr_matrix(
                (np.ones(count * n), reps.reshape(-1), indptr), shape=(count, count)
            )
            labels = connected_components(graph, directed=True, connection="weak")[1]
            del graph, indptr
        else:
            cross = reps != cells[:, None]
            src = np.broadcast_to(cells[:, None], reps.shape)[cross]
            labels = self._sv_labels(np, src, reps[cross], count)
            del cross, src
        del reps
        comp_ids = labels.astype(np.int64, copy=False)
        running = np.maximum.accumulate(comp_ids)
        if comp_ids[0] == 0 and not (np.diff(running) > 1).any():
            ncomp = int(running[-1]) + 1
        else:
            _, first, inverse = np.unique(
                comp_ids, return_index=True, return_inverse=True
            )
            ncomp = len(first)
            remap = np.empty(ncomp, dtype=np.int64)
            remap[np.argsort(first, kind="stable")] = np.arange(ncomp)
            comp_ids = remap[inverse.reshape(-1)]

        # Valence bitmaps: one bit per distinct unanimity value, coded per
        # input vector once and gathered per prefix.
        space = self.space
        unanimity = space.unanimity_by_index
        value_list = list(dict.fromkeys(v for v in unanimity if v is not None))
        bit_of = {value: 1 << i for i, value in enumerate(value_list)}
        input_bits = np.array([bit_of.get(v, 0) for v in unanimity], dtype=np.int64)
        node_bits = input_bits[store.input_array()]

        if ncomp == 1:
            member_order = np.arange(count, dtype=np.int64)
            comp_starts = np.zeros(1, dtype=np.int64)
            members_split = [member_order]
        else:
            member_order = np.argsort(comp_ids, kind="stable")
            comp_starts = np.zeros(ncomp, dtype=np.int64)
            np.cumsum(
                np.bincount(comp_ids, minlength=ncomp)[:-1], out=comp_starts[1:]
            )
            node_masks = node_masks[member_order]
            node_bits = node_bits[member_order]
            members_split = np.split(member_order, comp_starts[1:].tolist())
        comp_masks = np.bitwise_and.reduceat(node_masks, comp_starts).tolist()
        comp_bits = np.bitwise_or.reduceat(node_bits, comp_starts).tolist()

        # Valence frozensets are interned per bitmap.
        valences_of: dict[int, frozenset] = {0: frozenset()}
        depth = self.depth
        self.components = []
        components_append = self.components.append
        for cid, (members, bits, mask) in enumerate(
            zip(members_split, comp_bits, comp_masks)
        ):
            valences = valences_of.get(bits)
            if valences is None:
                valences = valences_of[bits] = frozenset(
                    value for i, value in enumerate(value_list) if bits >> i & 1
                )
            components_append(Component(cid, depth, members, valences, mask, space))
        self.comp_ids = comp_ids
        self.member_order = member_order
        self.comp_starts = comp_starts
        # The (p, view) -> component lookup recomputes its key index
        # lazily from the store (cold path; the checker never calls it).
        self._buckets = None

    @staticmethod
    def _sv_labels(np, src, dst, count: int):
        """Root-hooking connectivity in pure numpy (the no-scipy solver).

        Takes the star edge list of :meth:`_analyze_numpy`.  Per round:
        edges whose endpoints already share a root are dropped for good,
        the larger root of every remaining edge hooks onto the smaller
        (``np.minimum.at``), and parent pointers fully compress.  Roots
        only ever hook downward, so each final root is its component's
        smallest member, and ranking the roots yields labels already in
        first-member order.
        """
        parent = np.arange(count, dtype=np.int64)
        while len(src):
            a = parent[src]
            b = parent[dst]
            cross = a != b
            src, a, b = src[cross], a[cross], b[cross]
            dst = dst[cross]
            np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
            while True:
                grand = parent[parent]
                if np.array_equal(grand, parent):
                    break
                parent = grand
        is_root = parent == np.arange(count, dtype=np.int64)
        return (np.cumsum(is_root) - 1)[parent]

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def component_of(self, node: PrefixNode) -> Component:
        """The component containing a node of this layer."""
        return self.components[int(self.comp_ids[node.index])]

    def component_of_view(self, p: int, view_id: int) -> Component | None:
        """The component determined by process ``p`` holding ``view_id``.

        Every admissible prefix in which ``p`` has this view lies in the
        returned component (that is what indistinguishability means); `None`
        if the view does not occur at this depth.
        """
        view_map = self._view_map
        if view_map is None:
            n = self.space.adversary.n
            comp_ids = self.comp_ids
            if self._buckets is not None:
                view_map = {
                    (key % n, key // n): int(comp_ids[first])
                    for key, first in self._buckets.items()
                }
            else:
                np = numpy_module()
                mat = self.space.layer_store(self.depth).levels.array()
                keys = (mat * n + np.arange(n, dtype=np.int64)).reshape(-1)
                uniq_keys, first_cells = np.unique(keys, return_index=True)
                reps = (first_cells // n).tolist()
                view_map = {
                    (key % n, key // n): int(comp_ids[rep])
                    for key, rep in zip(uniq_keys.tolist(), reps)
                }
            self._view_map = view_map
        cid = view_map.get((p, view_id))
        return None if cid is None else self.components[cid]

    def bivalent_components(self) -> list[Component]:
        """Components whose members include at least two valences."""
        return [c for c in self.components if c.is_bivalent]

    def non_broadcastable_components(self) -> list[Component]:
        """Components with no common broadcaster."""
        return [c for c in self.components if not c.is_broadcastable]

    def valent_components(self) -> list[Component]:
        """Components containing at least one unanimous prefix."""
        return [c for c in self.components if c.valences]

    def summary(self) -> dict:
        """Aggregate statistics for reports and benchmarks."""
        return {
            "depth": self.depth,
            "prefixes": len(self.space.layer(self.depth)),
            "components": len(self.components),
            "bivalent": len(self.bivalent_components()),
            "non_broadcastable": len(self.non_broadcastable_components()),
            "largest": max((len(c) for c in self.components), default=0),
        }

    def __repr__(self) -> str:
        info = self.summary()
        return (
            f"ComponentAnalysis(depth={info['depth']}, "
            f"components={info['components']}, bivalent={info['bivalent']})"
        )
