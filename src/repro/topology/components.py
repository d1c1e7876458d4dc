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

Word-factored components
------------------------
Prefix ``x * W + w`` of a layer is input vector ``x`` with graph word ``w``
(:mod:`repro.topology.prefixspace`), and the view of ``p`` in it is the
input-free *word view* of ``p`` in ``w`` plus the inputs of ``x`` at that
view's origins.  So ``(x, w)`` and ``(x', w')`` share the view of ``p``
iff ``w`` and ``w'`` share the word view of ``p`` and ``x``, ``x'`` agree
on its origin mask.  Call two words adjacent when some process has the same
word view in both, and let ``C`` range over the components of that *word
graph* (``W`` nodes).  Then:

* for a fixed ``x``, ``{x} × C`` is connected (``x`` agrees with itself on
  every mask);
* no edge crosses word components;
* inside ``C``, ``(x, w)`` and ``(x', w)`` are connected exactly when ``x``
  and ``x'`` are related by the equivalence generated by "agree on some
  origin mask occurring in ``C``".

So the components of the layer are the products ``K × C`` with ``K`` a
class of the input vectors under the masks of ``C``.  The classes depend on
``C`` only through its set of masks (its *signature*), and a layer has few
signatures.  The analysis runs in three steps:

1. label the word graph (``W`` nodes, ``W * n`` star edges: every word
   linked, per process, to one word holding the same word view);
2. per distinct signature, partition the input vectors by union-find (at
   most ``|X|`` nodes; cached per signature on the prefix space);
3. number the pairs ``(C, K)`` canonically: the smallest member of
   ``K × C`` is ``min(K) * W + min(C)``, and components are ordered by it.

Step 1 has two equivalent passes behind the interner's ``layer_backend``
switch: ``"numpy"`` solves the star edges with the root-hooking loop of
:meth:`ComponentAnalysis._sv_labels` and folds masks and signatures with
ufuncs; ``"python"`` runs union-find over the words.  Steps 2 and 3 are
shared and touch only word components and input classes.  Component ids,
member order, valences and broadcast masks are therefore identical on both
backends and equal to the per-prefix indistinguishability partition.
The per-prefix component-id column (:attr:`ComponentAnalysis.comp_ids`) is
a lazily built gather, and :class:`Component` member lists (and any
:class:`~repro.topology.prefixspace.PrefixNode`) materialize lazily as
``K × C``.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Any, Iterator

from repro.core.graphword import full_mask
from repro.core.views import numpy_module, plain_ids
from repro.errors import AnalysisError
from repro.topology.prefixspace import PrefixNode, PrefixSpace

__all__ = ["Component", "ComponentAnalysis", "UnionFind"]

#: Below this many (word, process) cells the vectorized word-graph pass is
#: not worth its fixed overhead; small layers run the Python pass.
#: Measured per layer on the sweep-family layers of seeds 3 and 5 (2-core
#: x86, numpy 2.4): the passes break even at 256-1023 word cells, numpy is
#: 1.3-1.6x faster at 1024-2047 and 2x or more above 4096, and Python is 2x
#: faster below 128.
_COMPONENT_NUMPY_MIN_CELLS = 1024


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


def _agreement_classes(space: PrefixSpace, masks: frozenset) -> tuple:
    """The input vectors partitioned by "agree on some mask of ``masks``".

    Returns the classes (ascending index tuples, ordered by smallest
    member), each vector's class index, and each class's valences (the
    unanimity values of its vectors); cached per mask set on the space.
    Agreement on a mask implies agreement on its subsets, so only
    inclusion-minimal masks link: each vector to the first vector with the
    same projection onto that mask.
    """
    cached = space._agreement.get(masks)
    if cached is None:
        count = len(space.input_vectors)
        sets = UnionFind(count)
        for mask in masks:
            if any(other != mask and other & mask == other for other in masks):
                continue
            first: dict[int, int] = {}
            for x, proj in enumerate(space.projections(mask)):
                sets.union(first.setdefault(proj, x), x)
        index_of: dict[int, int] = {}
        class_of = [
            index_of.setdefault(sets.find(x), len(index_of)) for x in range(count)
        ]
        members: list[list[int]] = [[] for _ in index_of]
        for x, k in enumerate(class_of):
            members[k].append(x)
        unanimity = space.unanimity_by_index
        cached = space._agreement[masks] = (
            [tuple(group) for group in members],
            class_of,
            [
                frozenset(unanimity[x] for x in group if unanimity[x] is not None)
                for group in members
            ],
        )
    return cached


class Component:
    """One connected component ``K × C`` of a depth-``t`` layer.

    ``input_indices`` is the input class ``K`` (ascending input-vector
    indices) and the word component ``C`` is held by index into the
    analysis; the member list — ``x * W + w`` for ``x`` in ``K``, then
    ``w`` in ``C``, which is ascending — materializes on first access of
    :attr:`member_indices`.
    """

    __slots__ = (
        "id",
        "valences",
        "broadcast_mask",
        "input_indices",
        "_analysis",
        "_word_component",
        "_members",
    )

    def __init__(
        self,
        component_id: int,
        analysis: ComponentAnalysis,
        word_component: int,
        input_indices: tuple,
        valences: frozenset,
        broadcast_mask: int,
    ) -> None:
        self.id = component_id
        self._analysis = analysis
        self._word_component = word_component
        self.input_indices = input_indices
        self.valences = valences
        self.broadcast_mask = broadcast_mask
        self._members: list[int] | None = None

    @property
    def depth(self) -> int:
        """The depth ``t`` of the layer."""
        return self._analysis.depth

    # -- membership -----------------------------------------------------

    @property
    def words(self) -> list[int]:
        """The word indices of the word component ``C``, ascending."""
        return self._analysis._component_words(self._word_component)

    @property
    def member_indices(self) -> list[int]:
        """The member prefix indices, ascending (lazily materialized)."""
        members = self._members
        if members is None:
            width = self._analysis.space.layer_store(self.depth).width
            words = self.words
            members = self._members = [
                x * width + w for x in self.input_indices for w in words
            ]
        return members

    def input_vectors(self) -> list[tuple]:
        """The input assignments of the class ``K``, one per input index."""
        vectors = self._analysis.space.input_vectors
        return [vectors[x] for x in self.input_indices]

    def members(self) -> Iterator[PrefixNode]:
        """Iterate over the member prefix nodes."""
        layer = self._analysis.space.layer(self.depth)
        return (layer[i] for i in self.member_indices)

    def __len__(self) -> int:
        sizes = self._analysis._word_sizes
        return len(self.input_indices) * sizes[self._word_component]

    @property
    def representative(self) -> PrefixNode:
        """An arbitrary (first-indexed) member."""
        space = self._analysis.space
        width = space.layer_store(self.depth).width
        return space.node(self.depth, self.input_indices[0] * width + self.words[0])

    # -- consensus-relevant structure ------------------------------------

    @property
    def is_bivalent(self) -> bool:
        """Whether members include two differently-valent prefixes."""
        return len(self.valences) >= 2

    @property
    def broadcasters(self) -> frozenset[int]:
        """Processes that have broadcast by depth ``t`` in *every* member."""
        n = self._analysis.space.adversary.n
        return frozenset(p for p in range(n) if self.broadcast_mask >> p & 1)

    @property
    def is_broadcastable(self) -> bool:
        """Whether some process has broadcast in every member (Thm 6.6 test)."""
        return self.broadcast_mask != 0

    def broadcaster_value(self, p: int):
        """The input value of broadcaster ``p`` (constant by Theorem 5.9)."""
        values = {vec[p] for vec in self.input_vectors()}
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
        Per-prefix component-id column (int64 numpy array after the
        vectorized pass, list after the Python pass), gathered on first
        access — the columnar handoff the decision-table builder consumes.
    input_classes, component_classes:
        The input classes ``K`` of every signature (ascending index
        tuples), and per component the index of its class — what the
        decision table's value assignment folds over.

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
        # The vectorized pass reads the origin masks as an int64 buffer and
        # packs (word component, mask) pairs into one int64.
        if (
            np is not None
            and interner.layer_backend == "numpy"
            and isinstance(interner._origin_mask, array)
            and store.width * n >= _COMPONENT_NUMPY_MIN_CELLS
            and store.width << n < 1 << 63
        ):
            passed = self._analyze_numpy(np, store, interner, n)
        else:
            passed = self._analyze_python(store, interner, n)
        self._number(*passed)
        self._comp_ids: Any = None
        self._word_groups: tuple[list[int], list[int]] | None = None
        self._view_words: dict[int, int] | None = None

    # ------------------------------------------------------------------ #
    # Step 1: the word graph (two passes)
    # ------------------------------------------------------------------ #

    def _analyze_python(self, store, interner, n: int) -> tuple:
        """Union-find over the words (pure Python).

        Returns the per-word component labels (first-member order), and per
        word component its size, broadcast mask and set of origin masks.
        """
        words = plain_ids(store.word_levels.ids)
        width = store.width
        parent = list(range(width))
        size = [1] * width
        first_word: dict[int, int] = {}
        first_setdefault = first_word.setdefault
        for cell, vid in enumerate(words):
            a = first_setdefault(vid, cell // n)
            b = cell // n
            if a == b:
                continue
            # Inline union by size with path halving.
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                if size[a] < size[b]:
                    a, b = b, a
                parent[b] = a
                size[a] += size[b]
        del first_word
        # Label words by first appearance of their root: the canonical
        # (first-member) order.  Fold masks per word component.
        origin_masks = interner._origin_mask
        cell_masks = [origin_masks[vid] for vid in words]
        everyone = full_mask(n)
        label_of: dict[int, int] = {}
        labels: list[int] = []
        word_sizes: list[int] = []
        comp_masks: list[int] = []
        mask_sets: list[set] = []
        for w in range(width):
            root = w
            while parent[root] != root:
                parent[root] = root = parent[parent[root]]
            label = label_of.get(root)
            if label is None:
                label = label_of[root] = len(word_sizes)
                word_sizes.append(0)
                comp_masks.append(everyone)
                mask_sets.append(set())
            labels.append(label)
            word_sizes[label] += 1
            row = cell_masks[w * n : w * n + n]
            common = comp_masks[label]
            for mask in row:
                common &= mask
            comp_masks[label] = common
            mask_sets[label].update(row)
        return labels, word_sizes, comp_masks, mask_sets

    def _analyze_numpy(self, np, store, interner, n: int) -> tuple:
        """Vectorized word-graph pass; same results as :meth:`_analyze_python`.

        Per process one scatter over the word views links every word to a
        word holding the same view; :meth:`_sv_labels` solves the star
        edges in first-member order.  Broadcast masks fold with
        ``bitwise_and.at`` and the mask sets come from one ``np.unique``
        over packed (component, mask) pairs.
        """
        words = store.word_levels.array()
        width = store.width
        mask_view = np.frombuffer(interner._origin_mask, dtype=np.int64)
        masks = mask_view[words]
        del mask_view
        cells = np.arange(width, dtype=np.int64)
        # Process 0 seeds the forest: every word points at the first word
        # holding its view (a root, and the smallest of its star).  The
        # other processes contribute star edges to any such word.
        views = words[:, 0]
        shifted = views - views.min()
        first = np.full(int(shifted.max()) + 1, width, dtype=np.int64)
        np.minimum.at(first, shifted, cells)
        parent = first[shifted]
        sources, targets = [], []
        for p in range(1, n):
            views = words[:, p]
            shifted = views - views.min()
            rep = np.empty(int(shifted.max()) + 1, dtype=np.int64)
            rep[shifted] = cells
            target = rep[shifted]
            cross = target != cells
            sources.append(cells[cross])
            targets.append(target[cross])
            del rep, target, cross
        del views, shifted, first
        empty = cells[:0]
        labels = self._sv_labels(
            np,
            np.concatenate([empty, *sources]),
            np.concatenate([empty, *targets]),
            parent,
        )
        del sources, targets, parent
        word_sizes = np.bincount(labels)
        word_masks = masks[:, 0].copy()
        for p in range(1, n):
            word_masks &= masks[:, p]
        comp_masks_arr = np.full(len(word_sizes), full_mask(n), dtype=np.int64)
        np.bitwise_and.at(comp_masks_arr, labels, word_masks)
        # The distinct (component, mask) pairs, component-major.
        pairs = np.unique((labels[:, None] << n) | masks)
        _, starts = np.unique(pairs >> n, return_index=True)
        mask_sets = [
            group.tolist() for group in np.split(pairs & full_mask(n), starts[1:])
        ]
        return labels, word_sizes.tolist(), comp_masks_arr.tolist(), mask_sets

    @staticmethod
    def _sv_labels(np, src, dst, parent):
        """Root-hooking connectivity in pure numpy.

        Takes an edge list and an initial forest ``parent`` whose roots are
        the smallest members of their trees.  Per round: the endpoints of
        the remaining edges chase their roots (only those nodes, not the
        whole forest), edges whose endpoints already share a root are
        dropped for good, and the larger root of every remaining edge
        hooks onto the smaller (``np.minimum.at``); one full compression
        follows the last round.  Roots only ever hook downward, so each
        final root is its component's smallest member, and ranking the
        roots yields labels already in first-member order.
        """

        def roots(nodes):
            found = parent[nodes]
            while True:
                up = parent[found]
                if np.array_equal(up, found):
                    return found
                found = up

        while len(src):
            a = roots(src)
            b = roots(dst)
            cross = a != b
            src, dst, a, b = src[cross], dst[cross], a[cross], b[cross]
            np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        is_root = parent == np.arange(len(parent), dtype=np.int64)
        return (np.cumsum(is_root) - 1)[parent]

    # ------------------------------------------------------------------ #
    # Steps 2 and 3: input classes per signature, canonical numbering
    # ------------------------------------------------------------------ #

    def _number(self, labels, word_sizes, comp_masks, mask_sets) -> None:
        """Partition the inputs per signature and number the ``(C, K)`` pairs.

        Pair ``(C, K)`` has smallest member ``min(K) * W + min(C)``; word
        components are labelled in first-member order, so sorting the pairs
        by ``(min(K), C)`` is the canonical component order.
        """
        signature_of: dict[frozenset, int] = {}
        comp_sig = [
            signature_of.setdefault(frozenset(masks), len(signature_of))
            for masks in mask_sets
        ]
        input_classes: list[tuple] = []
        valences: list[frozenset] = []
        class_base: list[int] = []
        class_counts: list[int] = []
        sig_class_of: list[list[int]] = []
        for masks in signature_of:
            classes, class_of, class_valences = _agreement_classes(self.space, masks)
            class_base.append(len(input_classes))
            class_counts.append(len(classes))
            input_classes.extend(classes)
            valences.extend(class_valences)
            sig_class_of.append(class_of)
        # Pair ``offsets[C] + k`` is word component C with class k of its
        # signature (word-component-major order).
        word_count = len(comp_sig)
        offsets, pair_words, pair_classes = [], [], []
        for label, sig in enumerate(comp_sig):
            offsets.append(len(pair_words))
            pair_words.extend(repeat(label, class_counts[sig]))
            pair_classes.extend(
                range(class_base[sig], class_base[sig] + class_counts[sig])
            )
        keys = [
            input_classes[k][0] * word_count + label
            for label, k in zip(pair_words, pair_classes)
        ]
        # Keys are distinct (one class per (C, min K)); sort pairs by key,
        # and the inverse permutation maps pair -> component id.
        order = sorted(range(len(keys)), key=keys.__getitem__)
        pair_cid = sorted(range(len(order)), key=order.__getitem__)
        pair_words = [pair_words[pair] for pair in order]
        pair_classes = [pair_classes[pair] for pair in order]
        self.components: list[Component] = list(
            map(
                Component,
                range(len(pair_words)),
                repeat(self),
                pair_words,
                map(input_classes.__getitem__, pair_classes),
                map(valences.__getitem__, pair_classes),
                map(comp_masks.__getitem__, pair_words),
            )
        )
        self.input_classes = input_classes
        self.component_classes = pair_classes
        self._labels = labels
        self._word_sizes = word_sizes
        self._comp_sig = comp_sig
        self._offsets = offsets
        self._sig_class_of = sig_class_of
        self._pair_cid = pair_cid

    # ------------------------------------------------------------------ #
    # Lazy per-prefix and per-word views of the result
    # ------------------------------------------------------------------ #

    @property
    def comp_ids(self):
        """Per-prefix component ids, gathered once from the factored result.

        Prefix ``x * W + w`` lies in pair ``(C(w), class of x)``: one gather
        through the per-word pair offsets and the per-signature input
        classes.
        """
        comp_ids = self._comp_ids
        if comp_ids is None:
            comp_ids = self._comp_ids = self._gather_comp_ids()
        return comp_ids

    def _gather_comp_ids(self):
        labels = self._labels
        np = numpy_module()
        if np is not None and isinstance(labels, np.ndarray):
            pair_cid = np.asarray(self._pair_cid, dtype=np.int64)
            word_offsets = np.asarray(self._offsets, dtype=np.int64)[labels]
            class_of = np.asarray(self._sig_class_of, dtype=np.int64)
            comp_sig = np.asarray(self._comp_sig, dtype=np.int64)
            local = class_of[comp_sig[labels]].T
            return pair_cid[local + word_offsets[None, :]].reshape(-1)
        word_offsets = [self._offsets[label] for label in labels]
        word_classes = [self._sig_class_of[self._comp_sig[label]] for label in labels]
        pair_cid = self._pair_cid
        comp_ids: list[int] = []
        for x in range(len(self.space.input_vectors)):
            comp_ids.extend(
                [
                    pair_cid[offset + classes[x]]
                    for offset, classes in zip(word_offsets, word_classes)
                ]
            )
        return comp_ids

    def _component_id(self, x: int, w: int) -> int:
        """The component id of prefix ``x * W + w``, arithmetically."""
        label = int(self._labels[w])
        classes = self._sig_class_of[self._comp_sig[label]]
        return self._pair_cid[self._offsets[label] + classes[x]]

    def _component_words(self, label: int) -> list[int]:
        """The words of word component ``label``, ascending (grouped once)."""
        groups = self._word_groups
        if groups is None:
            labels = self._labels
            np = numpy_module()
            if np is not None and isinstance(labels, np.ndarray):
                order = np.argsort(labels, kind="stable").tolist()
            else:
                order = sorted(range(len(labels)), key=labels.__getitem__)
            starts = [0]
            for size in self._word_sizes:
                starts.append(starts[-1] + size)
            groups = self._word_groups = (order, starts)
        order, starts = groups
        return order[starts[label] : starts[label + 1]]

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
        x, w = divmod(node.index, self.space.layer_store(self.depth).width)
        return self.components[self._component_id(x, w)]

    def component_of_view(self, p: int, view_id: int) -> Component | None:
        """The component determined by process ``p`` holding ``view_id``.

        Every admissible prefix in which ``p`` has this view lies in the
        returned component (that is what indistinguishability means); `None`
        if the view does not occur at this depth.  Answered from the factored
        key: its word view names a word holding it (hence the word
        component), its projection names an input vector with those origin
        inputs (hence the class).
        """
        space = self.space
        key = space.view_key(view_id)
        if key is None or space.interner.pid(view_id) != p:
            return None
        free, proj = divmod(key, space.key_radix)
        view_words = self._view_words
        if view_words is None:
            # Cold path (the checker never queries it): word view -> a word
            # holding it, over the layer's word cells.
            n = space.adversary.n
            words = plain_ids(space.layer_store(self.depth).word_levels.ids)
            view_words = self._view_words = {
                vid: cell // n for cell, vid in enumerate(words)
            }
        word = view_words.get(free)
        if word is None:
            return None
        projections = space.projections(space.interner.origin_mask(free))
        try:
            x = projections.index(proj)
        except ValueError:
            return None
        return self.components[self._component_id(x, word)]

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
