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
The analysis consumes the layer's word columns directly — the
:class:`~repro.core.views.LayerTable` of input-free word views, the input
vectors, and the interner's origin-mask column — and produces columns: a
per-prefix component-id column (``comp_ids``) plus per-component member
index arrays.  Prefix ``x * W + w`` (input vector ``x``, word ``w``) and
prefix ``x' * W + w'`` share the view of ``p`` iff the word views of ``p``
agree and ``x``, ``x'`` agree on that view's origin mask, so the first
prefix holding the view of a cell is arithmetic: the first input vector
with the same projection (``xrep``) times ``W`` plus the first word with
the same word view (``wordrep``).  Two equivalent paths sit behind the
interner's ``layer_backend`` switch:

* ``"numpy"`` — per process, one scatter/gather over the word views and
  one ``np.unique`` over the (input, mask) projections give every prefix
  its representative; connectivity is solved on these star edges over the
  prefixes alone (scipy's ``connected_components``, else a numpy
  root-hooking loop), and the per-component masks/valences fold with
  ``reduceat``;
* ``"python"`` — the batched union-find pass over the same
  representatives (inlined union by size with path halving).

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
        width = self._space.layer_store(self.depth).width
        for i in self._members:
            yield int(i) // width

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
        input_vectors = self._space.input_vectors
        values = {
            input_vectors[index][p] for index in self.member_input_indices()
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
        interner = space.interner
        n = space.adversary.n
        np = numpy_module()
        count = len(store)
        # The vectorized pass folds valences as int64 bitmaps and codes
        # input projections as int64; instances with more distinct
        # unanimity values or wider keys than fit take the Python pass
        # (arbitrary-precision sets and ints).
        distinct_values = len(
            {v for v in space.unanimity_by_index if v is not None}
        )
        if (
            np is not None
            and interner.layer_backend == "numpy"
            and isinstance(interner._origin_mask, array)
            and distinct_values <= _NUMPY_MAX_VALENCES
            and count * n >= _COMPONENT_NUMPY_MIN_CELLS
            and space.keys_fit_int64()
        ):
            self._analyze_numpy(np, store, interner, n, count)
        else:
            self._analyze_python(store, interner, n, count)
        self._view_map: dict[int, int] | None = None

    # ------------------------------------------------------------------ #
    # The two component passes
    # ------------------------------------------------------------------ #

    def _analyze_python(self, store, interner, n: int, count: int) -> None:
        """Batched union-find over the factored layer (pure Python)."""
        words = plain_ids(store.word_levels.ids)
        width = store.width
        origin_masks = interner._origin_mask
        everyone = full_mask(n)
        # Word pass: per cell of the word table the first word holding the
        # same view, its origin mask, and per word the broadcast mask.
        first_word: dict[int, int] = {}
        first_setdefault = first_word.setdefault
        word_rep = [first_setdefault(vid, base // n) for base, vid in enumerate(words)]
        cell_masks = [origin_masks[vid] for vid in words]
        word_common = []
        for base in range(0, len(words), n):
            common = everyone
            for mask in cell_masks[base : base + n]:
                common &= mask
            word_common.append(common)
        # Input pass: per distinct mask, the first input vector with the
        # same projection onto it.
        xrep_of: dict[int, list[int]] = {}
        for mask in set(cell_masks):
            first_input: dict[int, int] = {}
            xrep_of[mask] = [
                first_input.setdefault(proj, x)
                for x, proj in enumerate(self.space.projections(mask))
            ]
        cell_xrep = [xrep_of[mask] for mask in cell_masks]
        union_find = UnionFind(count)
        parent = union_find.parent
        size = union_find.size
        for x in range(store.inputs):
            base = x * width
            cell = 0
            for index in range(base, base + width):
                for _ in range(n):
                    first = cell_xrep[cell][x] * width + word_rep[cell]
                    cell += 1
                    if first == index:
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

        # Gather per-root data in a second pass.  Because prefixes are
        # visited in index order, each root is first reached through its
        # smallest member, so the insertion order of ``members_of`` is
        # already the canonical (first-member) component order.
        unanimity = self.space.unanimity_by_index
        members_of: dict[int, list[int]] = {}
        valences_of: dict[int, set] = {}
        mask_of: dict[int, int] = {}
        index = 0
        for x in range(store.inputs):
            value = unanimity[x]
            for common in word_common:
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
                if value is not None:
                    held = valences_of.get(root)
                    if held is None:
                        valences_of[root] = {value}
                    else:
                        held.add(value)
                index += 1

        empty: frozenset = frozenset()
        valences_get = valences_of.get
        space = self.space
        depth = self.depth
        self.components: list[Component] = []
        components_append = self.components.append
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
        comp_ids = [0] * count
        for cid, component in enumerate(self.components):
            for index in component._members:
                comp_ids[index] = cid
        self.comp_ids = comp_ids
        self.member_order = self.comp_starts = None

    def _analyze_numpy(self, np, store, interner, n: int, count: int) -> None:
        """Vectorized component pass over the factored layer.

        Two prefixes are adjacent iff they share a view.  Per process, the
        representative of prefix ``x * W + w`` is ``xrep[x, mask] * W +
        wordrep[w]`` (module docstring): one scatter/gather over the word
        views gives ``wordrep``, one ``np.unique`` over the coded (mask,
        projection) pairs gives ``xrep``.  The star edges ``cell -> rep``
        (self-loops kept, so the CSR matrix has exactly ``n`` entries per
        row and builds without a COO pass) span a graph over the
        ``count`` prefixes alone.  scipy's weak ``connected_components``
        solves it in one C-level pass; without scipy, :meth:`_sv_labels`
        hooks roots along the same edges.  Both number components in
        first-member order; an O(count) check confirms it, and the
        unique/argsort remap runs only if it fails.  Masks and valence
        bitmaps then fold with ``reduceat``.
        """
        words = store.word_levels.array()
        width = store.width
        inputs = store.inputs
        mask_view = np.frombuffer(interner._origin_mask, dtype=np.int64)
        masks = mask_view[words]
        del mask_view
        word_masks = np.bitwise_and.reduce(masks, axis=1)
        # xrep[x, u]: the first input vector projecting like x onto the
        # u-th distinct mask, pre-scaled to its first prefix.
        uniq, mask_codes = np.unique(masks, return_inverse=True)
        mask_codes = mask_codes.reshape(words.shape)
        proj = self.space.projection_matrix(np, uniq)
        index_dtype = np.int32 if count * n < 2**31 else np.int64
        xrep = np.empty((inputs, len(uniq)), dtype=index_dtype)
        for u in range(len(uniq)):
            _, first, inverse = np.unique(
                proj[:, u], return_index=True, return_inverse=True
            )
            xrep[:, u] = first[inverse.reshape(-1)] * width
        word_cells = np.arange(width, dtype=index_dtype)
        reps = np.empty((inputs, width, n), dtype=index_dtype)
        for p in range(n):
            views = words[:, p]
            shifted = views - views.min()
            rep = np.empty(int(shifted.max()) + 1, dtype=index_dtype)
            rep[shifted] = word_cells
            reps[:, :, p] = xrep[:, mask_codes[:, p]] + rep[shifted][None, :]
        del shifted, rep, xrep
        reps = reps.reshape(count, n)
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
            cells = np.arange(count, dtype=index_dtype)
            cross = reps != cells[:, None]
            src = np.broadcast_to(cells[:, None], reps.shape)[cross]
            labels = self._sv_labels(np, src, reps[cross], count)
            del cross, src, cells
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
        # input vector once and gathered per member.
        space = self.space
        unanimity = space.unanimity_by_index
        value_list = list(dict.fromkeys(v for v in unanimity if v is not None))
        bit_of = {value: 1 << i for i, value in enumerate(value_list)}
        input_bits = np.array([bit_of.get(v, 0) for v in unanimity], dtype=np.int64)

        if ncomp == 1:
            member_order = np.arange(count, dtype=np.int64)
            comp_starts = np.zeros(1, dtype=np.int64)
            members_split = [member_order]
            comp_masks = [int(np.bitwise_and.reduce(word_masks))]
            comp_bits = [int(np.bitwise_or.reduce(input_bits))]
        else:
            member_order = np.argsort(comp_ids, kind="stable")
            comp_starts = np.zeros(ncomp, dtype=np.int64)
            np.cumsum(
                np.bincount(comp_ids, minlength=ncomp)[:-1], out=comp_starts[1:]
            )
            member_inputs, member_words = np.divmod(member_order, width)
            comp_masks = np.bitwise_and.reduceat(
                word_masks[member_words], comp_starts
            ).tolist()
            comp_bits = np.bitwise_or.reduceat(
                input_bits[member_inputs], comp_starts
            ).tolist()
            del member_inputs, member_words
            members_split = np.split(member_order, comp_starts[1:].tolist())

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
        """The component containing a node of this layer.

        Raises :class:`~repro.errors.AnalysisError` for a node of another
        layer or another prefix space (its index means nothing here).
        """
        if not self.space.owns_node(self.depth, node):
            raise AnalysisError(
                f"{node!r} is not a node of depth {self.depth} of this prefix space"
            )
        return self.components[int(self.comp_ids[node.index])]

    def component_of_view(self, p: int, view_id: int) -> Component | None:
        """The component determined by process ``p`` holding ``view_id``.

        Every admissible prefix in which ``p`` has this view lies in the
        returned component (that is what indistinguishability means); `None`
        if the view does not occur at this depth.
        """
        space = self.space
        key = space.view_key(view_id)
        if key is None or space.interner.pid(view_id) != p:
            return None
        view_map = self._view_map
        if view_map is None:
            # Cold path (the checker never queries it): factored key of
            # every cell -> the component of its prefix.
            n = space.adversary.n
            comp_ids = plain_ids(self.comp_ids)
            keys = plain_ids(space.view_keys(self.depth))
            view_map = self._view_map = {
                key: comp_ids[cell // n] for cell, key in enumerate(keys)
            }
        cid = view_map.get(key)
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
