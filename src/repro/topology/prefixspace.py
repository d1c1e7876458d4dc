"""Layered enumeration of the admissible prefix space of ``PS``.

The paper's characterizations reduce to questions about finite prefixes: the
ball ``B_{2^{-t}}(a)`` in the minimum topology is determined by the depth-t
views, and for compact adversaries Theorem 6.6 explicitly reduces consensus
solvability to ``t``-prefixes.  :class:`PrefixSpace` materializes, layer by
layer, every admissible pair (input assignment, graph word of length ``t``)
together with its interned views — the depth-``t`` skeleton of the space
``PS`` of admissible process-time graph sequences.

Each node keeps the adversary's reachable state set, so extension by one
round enumerates exactly the admissible continuations (including the
liveness pruning for non-compact adversaries: prefixes that could never be
completed to an admissible infinite sequence are not generated — they are
not prefixes of points of ``PS`` at all).

Storage layout
--------------
Layers are stored *columnar* (:class:`LayerStore`) and stay arrays end to
end: the view levels of a layer are one flat
:class:`~repro.core.views.LayerTable` column (``count * n`` interned view
ids), parent and input indices are machine-integer columns, and the
round-graph/state columns never materialize per-child Python objects:
single-alphabet layers store a constant-width tile, state-grouped layers
a small item table plus one integer code per prefix.  This is the
representation the hot analyses (components, decision tables,
ε-approximations) consume directly — the whole-layer extension kernel
produces it, the component analysis unions over it, and the decision-table
builder folds over it, so a solvability check never expands a layer into
per-prefix Python objects.  The :class:`PrefixNode` wrappers of the
original API are materialized lazily (and cached) when a consumer asks for
them, with full-history :class:`~repro.core.ptg.PTGPrefix` objects whose
construction is amortized O(1) per node through parent-history sharing.

Streaming and eviction
----------------------
Deep spaces are consumed frontier-by-frontier through
:meth:`PrefixSpace.iter_layers`, which constructs (and yields) one
:class:`LayerStore` at a time.  With the opt-in ``retain="frontier"``
eviction mode, only the newest layer keeps its heavy columns; as the
frontier advances, historical layers are *condensed* down to the columnar
history the layered analyses actually touch — parent links and input
indices.  The contract:

* ``parents``, ``input_idx``, and ``len(store)`` stay valid at every depth;
* ``levels``, ``graphs``, and ``states`` are only available on the frontier
  layer; touching them on a condensed layer raises
  :class:`~repro.errors.AnalysisError`;
* :class:`PrefixNode` / :class:`~repro.core.ptg.PTGPrefix` materialization
  needs the graph history of *every* ancestor layer, so it is unavailable
  in frontier mode altogether (it raises once any ancestor is condensed).

``retain="all"`` (the default) keeps every layer, exactly as before.
"""

from __future__ import annotations

from array import array
from itertools import chain, repeat
from typing import Any, Iterable, Iterator, Sequence

from repro.adversaries.base import MessageAdversary
from repro.core.inputs import (
    all_assignments,
    binary_domain,
    unanimity_value,
    validate_assignment,
)
from repro.core.ptg import PTGPrefix
from repro.core.views import (
    LayerTable,
    ViewInterner,
    int64_column,
    numpy_module,
    plain_ids,
)
from repro.errors import AnalysisError

__all__ = ["PrefixNode", "PrefixSpace", "LayerStore", "LayerView"]


class PrefixNode:
    """One admissible prefix: input assignment + graph word + views + states."""

    __slots__ = ("index", "parent", "input_index", "prefix", "states")

    def __init__(
        self,
        index: int,
        parent: int | None,
        input_index: int,
        prefix: PTGPrefix,
        states: frozenset,
    ) -> None:
        self.index = index
        self.parent = parent
        self.input_index = input_index
        self.prefix = prefix
        self.states = states

    @property
    def inputs(self) -> tuple:
        """The input assignment of this prefix."""
        return self.prefix.inputs

    @property
    def depth(self) -> int:
        """The number of completed rounds."""
        return self.prefix.depth

    @property
    def unanimous_value(self):
        """The common input value, or ``None`` for mixed assignments."""
        return self.prefix.unanimous_value

    def __repr__(self) -> str:
        return (
            f"PrefixNode(#{self.index}, inputs={self.inputs!r}, "
            f"depth={self.depth})"
        )


class _TiledColumn(Sequence):
    """A constant-tile column: ``pattern`` repeated ``repeats`` times.

    Single-alphabet layers repeat the same per-parent graph/state tile for
    every parent, so the column stores the tile once instead of one Python
    reference per child (at depth 14 that is the difference between a few
    dozen bytes and a 150 MB pointer list).  Reads behave exactly like the
    materialized list: ``column[i] == pattern[i % len(pattern)]``.
    """

    __slots__ = ("items", "repeats")

    def __init__(self, items: list, repeats: int) -> None:
        self.items = list(items)
        self.repeats = repeats

    def __len__(self) -> int:
        return len(self.items) * self.repeats

    def __getitem__(self, item):
        width = len(self.items)
        if isinstance(item, slice):
            return [self.items[i % width] for i in range(len(self))[item]]
        return self.items[range(len(self))[item] % width]

    def __iter__(self):
        items = self.items
        for _ in range(self.repeats):
            yield from items

    def __repr__(self) -> str:
        return f"_TiledColumn({self.items!r} x {self.repeats})"


class _CodedColumn(Sequence):
    """A dictionary-coded column: ``column[i] == items[codes[i]]``.

    State-grouped layers store a small table of distinct graphs or state
    sets once plus one int64 code per prefix (numpy or ``array('q')``), so
    grouping the next layer's parents by state is a pass over the codes.
    """

    __slots__ = ("items", "codes")

    def __init__(self, items: list, codes) -> None:
        self.items = items
        self.codes = codes

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [self.items[c] for c in self.codes[item]]
        return self.items[self.codes[item]]

    def __iter__(self):
        return map(self.items.__getitem__, plain_ids(self.codes))

    def __eq__(self, other) -> bool:
        if isinstance(other, Sequence):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"_CodedColumn({len(self.items)} items, {len(self)} codes)"


class LayerStore:
    """Columnar storage of one layer: parallel per-prefix columns.

    Attributes
    ----------
    levels:
        The :class:`~repro.core.views.LayerTable` of this depth — one flat
        view-id column; ``levels[i]`` materializes the level tuple of
        prefix ``i`` on demand.
    parents:
        Per prefix, the index of its depth ``t - 1`` truncation (``-1`` on
        the root layer); an ``array('q')`` or int64 numpy column.
    input_idx:
        Per prefix, the index into ``space.input_vectors`` (same column
        kinds as ``parents``).
    graphs:
        Per prefix, the communication graph of the last round (``None`` on
        the root layer).  Single-alphabet layers store a tiled column (the
        per-parent tile repeated); state-grouped layers a coded column: a
        small table of distinct graphs plus one integer code per prefix.
    states:
        Per prefix, the adversary's reachable state set (tiled or coded
        likewise; the codes of a coded state column are what the next
        extension groups parents by).
    """

    __slots__ = ("levels", "parents", "input_idx", "graphs", "states", "nodes", "count")

    def __init__(self, levels, parents, input_idx, graphs, states) -> None:
        if not isinstance(levels, LayerTable) and levels is not None:
            levels = LayerTable.from_levels(
                len(levels[0]) if levels else 0, levels
            )
        self.levels: LayerTable | None = levels
        self.parents = parents
        self.input_idx = input_idx
        self.graphs = graphs
        self.states = states
        #: Lazy cache of materialized :class:`PrefixNode` wrappers (sparse:
        #: deep layers hold millions of prefixes, wrappers are rare).
        self.nodes: dict[int, PrefixNode] | None = {}
        #: Layer size; survives :meth:`condense`.
        self.count: int = len(levels) if levels is not None else 0

    def __len__(self) -> int:
        return self.count

    @property
    def condensed(self) -> bool:
        """Whether the heavy columns have been evicted (``retain="frontier"``)."""
        return self.levels is None

    def condense(self) -> None:
        """Drop the heavy columns, keeping parents/input indices and the size."""
        self.levels = None
        self.graphs = None
        self.states = None
        self.nodes = None

    def parent_array(self):
        """The parents column as an int64 numpy array (vectorized paths)."""
        return int64_column(self.parents)

    def input_array(self):
        """The input-index column as an int64 numpy array."""
        return int64_column(self.input_idx)


class LayerView(Sequence):
    """Sequence facade over one layer; nodes materialize on access."""

    __slots__ = ("_space", "_depth")

    def __init__(self, space: "PrefixSpace", depth: int) -> None:
        self._space = space
        self._depth = depth

    def __len__(self) -> int:
        return len(self._space._stores[self._depth])

    def __getitem__(self, item):
        indices = range(len(self))[item]
        if isinstance(item, slice):
            return [self._space._materialize(self._depth, i) for i in indices]
        return self._space._materialize(self._depth, indices)

    def __iter__(self) -> Iterator[PrefixNode]:
        materialize = self._space._materialize
        depth = self._depth
        for i in range(len(self)):
            yield materialize(depth, i)

    def __repr__(self) -> str:
        return f"LayerView(depth={self._depth}, size={len(self)})"


class PrefixSpace:
    """The admissible prefixes of ``PS`` up to a growing depth.

    Parameters
    ----------
    adversary:
        The message adversary generating the space.
    input_vectors:
        The input assignments to consider; defaults to all assignments over
        the binary domain ``{0, 1}``.  (The paper's ``PS`` ranges over all
        assignments of the input domain.)
    interner:
        Optionally share a view interner with other analyses.
    max_nodes:
        Safety valve: :meth:`extend` raises once a layer would exceed this
        many prefixes.
    retain:
        ``"all"`` (default) keeps every constructed layer; ``"frontier"``
        condenses historical layers to parents + input indices as the
        frontier advances (see module docstring for the eviction contract).
    layer_backend:
        Columnar-pipeline kernel backend (``"numpy"``/``"python"``/``None``
        for the import-time default) of the interner this space creates
        when none is shared in; ignored — the shared interner's own
        backend wins — when ``interner`` is given.  The same switch also
        selects the vectorized vs pure-Python paths of the component
        analysis and decision-table construction over this space's layers.
    plan_cache_size:
        Capacity of the created interner's per-alphabet extension-plan LRU
        (``None`` = library default; ignored when ``interner`` is given).
    extension_workers:
        Process count for the created interner's sharded whole-layer
        extension (``None``/``1`` = serial; ignored when ``interner`` is
        given — the shared interner's own knob wins).  Orthogonal to
        ``layer_backend``: only the numpy kernel shards, and results are
        bit-identical to the serial numpy kernel for any worker count.

    Examples
    --------
    >>> from repro.adversaries.lossylink import lossy_link_no_hub
    >>> space = PrefixSpace(lossy_link_no_hub())
    >>> space.ensure_depth(2)
    >>> len(space.layer(2))
    16
    """

    def __init__(
        self,
        adversary: MessageAdversary,
        input_vectors: Iterable[Sequence] | None = None,
        interner: ViewInterner | None = None,
        max_nodes: int = 2_000_000,
        retain: str = "all",
        layer_backend: str | None = None,
        plan_cache_size: int | None = None,
        extension_workers: int | None = None,
    ) -> None:
        self.adversary = adversary
        if retain not in ("all", "frontier"):
            raise AnalysisError(f"retain must be 'all' or 'frontier', got {retain!r}")
        self.retain = retain
        # Not ``interner or ...``: an empty interner is falsy via __len__
        # and must still be adopted (the sweep engine shares fresh ones).
        if interner is None:
            interner = ViewInterner(
                adversary.n,
                layer_backend=layer_backend,
                plan_cache_size=plan_cache_size,
                extension_workers=extension_workers,
            )
        self.interner = interner
        if self.interner.n != adversary.n:
            raise AnalysisError("interner and adversary disagree on n")
        if input_vectors is None:
            vectors = all_assignments(adversary.n, binary_domain)
        else:
            domain = {v for vec in input_vectors for v in vec}
            vectors = tuple(
                validate_assignment(vec, adversary.n, domain)
                for vec in input_vectors
            )
        if not vectors:
            raise AnalysisError("a prefix space needs at least one assignment")
        if len(set(vectors)) != len(vectors):
            raise AnalysisError("duplicate input assignments")
        self.input_vectors = vectors
        #: Unanimity value per input index (None for mixed assignments),
        #: precomputed so per-node valence queries are a tuple lookup.
        self.unanimity_by_index = tuple(unanimity_value(vec) for vec in vectors)
        self.max_nodes = max_nodes
        initial_states = frozenset(
            adversary.initial_states() & adversary.live_states()
        )
        if not initial_states:
            raise AnalysisError(
                f"adversary {adversary.name} admits no infinite sequences"
            )
        leaf_level = self.interner.leaf_level
        count = len(vectors)
        flat = array("q")
        for vec in vectors:
            flat.extend(leaf_level(vec))
        self._stores: list[LayerStore] = [
            LayerStore(
                levels=LayerTable(adversary.n, flat),
                parents=array("q", [-1]) * count,
                input_idx=array("q", range(count)),
                graphs=_TiledColumn([None], count),
                states=_TiledColumn([initial_states], count),
            )
        ]

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @property
    def depth(self) -> int:
        """The deepest fully constructed layer."""
        return len(self._stores) - 1

    def extend(self) -> None:
        """Construct the next layer (depth + 1).

        Parents are grouped by the adversary's reachable state set —
        oblivious adversaries collapse the whole layer into one group,
        stabilizing/eventually-forever adversaries into a few state-keyed
        groups, in order of first occurrence — and each group's successor
        levels are interned by one whole-layer kernel call
        (:meth:`~repro.core.views.ViewInterner.extend_layer_table`), whose
        column output goes straight into the child layer's flat columns.
        Children are emitted in the same parent-major, alphabet-minor
        order as always, so layer indexing is unchanged.
        """
        current = self._stores[-1]
        if current.condensed:
            raise AnalysisError("cannot extend: the frontier layer was condensed")
        adversary = self.adversary
        count = len(current)
        np = numpy_module() if self.interner.layer_backend == "numpy" else None
        items, codes = _state_codes(current.states, np)
        exts_of = [adversary.admissible_extensions(states) for states in items]
        # The node budget is checkable before any interning happens: every
        # parent contributes exactly one child per admissible extension of
        # its state set.
        width_of = [len(exts) for exts in exts_of]
        widths: Any  # one count for the whole layer, else one per parent
        if codes is None:
            widths = width_of[0]
            child_count = widths * count
        elif np is not None:
            widths = np.asarray(width_of, dtype=np.int64)[codes]
            child_count = int(widths.sum())
        else:
            codes = plain_ids(codes)
            widths = list(map(width_of.__getitem__, codes))
            child_count = sum(widths)
        if child_count > self.max_nodes:
            raise AnalysisError(
                f"prefix space exceeds max_nodes={self.max_nodes} at "
                f"depth {self.depth + 1}; reduce depth or inputs"
            )
        if child_count == 0:
            raise AnalysisError(
                f"{adversary.name}: no admissible extension at depth {self.depth}"
            )
        if codes is None:
            # One kernel call over the whole layer; columns interleave flat.
            tables = self.interner.extend_layer_table(
                current.levels, adversary.extension_alphabet(items[0])
            )
            levels = _interleave_tables(adversary.n, count, tables)
            graphs = _TiledColumn([graph for graph, _ in exts_of[0]], count)
            states = _TiledColumn([nxt for _, nxt in exts_of[0]], count)
        else:
            levels, graphs, states = self._extend_grouped(
                current.levels, items, codes, exts_of, widths, child_count, np
            )
        if np is not None:
            parents = np.repeat(np.arange(count, dtype=np.int64), widths)
            input_idx = np.repeat(current.input_array(), widths)
        elif codes is None:
            parents = array("q", bytes(8 * child_count))
            input_idx = array("q", bytes(8 * child_count))
            base = array("q", range(count))
            for j in range(widths):
                parents[j::widths] = base
                input_idx[j::widths] = current.input_idx
        else:
            parents = array("q", chain.from_iterable(map(repeat, range(count), widths)))
            input_idx = array(
                "q", chain.from_iterable(map(repeat, current.input_idx, widths))
            )
        self._stores.append(LayerStore(levels, parents, input_idx, graphs, states))
        if self.retain == "frontier":
            self._stores[-2].condense()

    def _extend_grouped(
        self, cur_table: LayerTable, items, codes, exts_of, widths, child_count, np
    ) -> tuple:
        """One kernel call per state group, merged parent-major.

        ``codes[i]`` is parent ``i``'s state group (an index into
        ``items``) and ``widths[i]`` its child count.  Child offsets are
        the cumulative sum of the widths, so the levels of group ``g`` and
        graph ``j`` land at rows ``starts[members] + j`` of the child
        block.  Returns the child levels and the coded graph and state
        columns.
        """
        alphabet_of = self.adversary.extension_alphabet
        extend_layer_table = self.interner.extend_layer_table
        n = cur_table.n
        # Kernel calls (and hence view interning) follow the groups' first
        # occurrence among the parents.
        if np is not None:
            present, first = np.unique(codes, return_index=True)
            order = present[np.argsort(first)].tolist()
        else:
            order = list(dict.fromkeys(codes))
        # The groups' extension lists concatenated in group order: child
        # ``k`` of a parent in group ``g`` takes entry ``base_of[g] + k``.
        base_of = [0] * len(items)
        exts: list = []
        for code in order:
            base_of[code] = len(exts)
            exts.extend(exts_of[code])
        if np is not None:
            level_matrix = cur_table.array()
            starts = np.cumsum(widths) - widths
            block = np.empty((child_count, n), dtype=np.int64)
            for code in order:
                if not exts_of[code]:
                    continue  # liveness-pruned: these parents end here
                members = np.flatnonzero(codes == code)
                sub = LayerTable(n, level_matrix[members].reshape(-1))
                rows = starts[members]
                tables = extend_layer_table(sub, alphabet_of(items[code]))
                for j, table in enumerate(tables):
                    block[rows + j] = table.array()
            levels = LayerTable(n, block.reshape(-1))
            ext_codes = np.repeat(
                np.asarray(base_of, dtype=np.int64)[codes] - starts, widths
            ) + np.arange(child_count, dtype=np.int64)
        else:
            # One pass gathers each group's parent rows, the kernel turns
            # them into runs of children, one pass copies each parent's run
            # back in parent order.
            ids = cur_table.ids
            runs = {code: array("q") for code in order}
            for code, start in zip(codes, range(0, len(ids), n)):
                runs[code] += ids[start : start + n]
            for code in order:
                if exts_of[code]:
                    sub = LayerTable(n, runs[code])
                    tables = extend_layer_table(sub, alphabet_of(items[code]))
                    runs[code] = _interleave_tables(n, len(sub), tables).ids
            flat = array("q")
            cursor = [0] * len(items)
            span_of = [len(group_exts) * n for group_exts in exts_of]
            for code in codes:
                pos = cursor[code]
                end = cursor[code] = pos + span_of[code]
                flat += runs[code][pos:end]
            levels = LayerTable(n, flat)
            ext_runs = [range(b, b + len(e)) for b, e in zip(base_of, exts_of)]
            ext_codes = array("q", chain.from_iterable(map(ext_runs.__getitem__, codes)))
        graphs = _coded_column([graph for graph, _ in exts], ext_codes, np)
        states = _coded_column([nxt for _, nxt in exts], ext_codes, np)
        return levels, graphs, states

    def ensure_depth(self, t: int) -> None:
        """Construct layers up to depth ``t``."""
        while self.depth < t:
            self.extend()

    def iter_layers(
        self, max_depth: int | None = None
    ) -> Iterator[tuple[int, LayerStore]]:
        """Stream ``(depth, LayerStore)`` pairs, constructing on demand.

        Yields layer 0, then extends one round at a time up to ``max_depth``
        (unbounded when ``None`` — the caller breaks out of the loop).
        Already-constructed layers are yielded first, so resuming iteration
        on a partially built space is cheap.  In ``retain="frontier"`` mode
        each yielded store is condensed as soon as the next layer is built,
        so consumers must finish with a layer before advancing — and
        re-iterating a space whose early layers were already condensed
        raises :class:`~repro.errors.AnalysisError` instead of silently
        yielding gutted stores.
        """
        t = 0
        while max_depth is None or t <= max_depth:
            if t > self.depth:
                self.extend()
            store = self._stores[t]
            if store.condensed:
                raise AnalysisError(
                    f"layer {t} was condensed (retain='frontier'); "
                    "iteration can only resume from the frontier layer "
                    f"(depth {self.depth})"
                )
            yield t, store
            t += 1

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #

    def layer_store(self, t: int) -> LayerStore:
        """The columnar data of layer ``t`` (constructing if needed).

        This is the fast-path API: analyses that only need view levels,
        input indices, or parent links should iterate the store's columns
        instead of materializing :class:`PrefixNode` objects.
        """
        self.ensure_depth(t)
        store = self._stores[t]
        if store.condensed:
            raise AnalysisError(
                f"layer {t} was condensed (retain='frontier'); only the "
                f"frontier layer (depth {self.depth}) retains its columns"
            )
        return store

    def layer(self, t: int) -> LayerView:
        """All admissible prefixes of depth ``t`` (constructing if needed)."""
        self.ensure_depth(t)
        return LayerView(self, t)

    def node(self, t: int, index: int) -> PrefixNode:
        """The ``index``-th node of layer ``t``."""
        self.ensure_depth(t)
        return self._materialize(t, index)

    def _materialize(self, t: int, index: int) -> PrefixNode:
        """Build (and cache) the node wrapper for one columnar entry."""
        store = self._stores[t]
        if store.condensed:
            raise AnalysisError(
                f"cannot materialize a node of condensed layer {t} "
                "(retain='frontier' drops levels/graphs below the frontier)"
            )
        index = int(index)
        node = store.nodes.get(index)
        if node is not None:
            return node
        input_index = int(store.input_idx[index])
        if t == 0:
            prefix = PTGPrefix._make(
                self.interner,
                self.input_vectors[input_index],
                (),
                (store.levels[index],),
            )
            node = PrefixNode(index, None, input_index, prefix, store.states[index])
        else:
            parent_index = int(store.parents[index])
            parent = self._materialize(t - 1, parent_index)
            parent_prefix = parent.prefix
            prefix = PTGPrefix._make(
                self.interner,
                parent_prefix.inputs,
                parent_prefix.graphs + (store.graphs[index],),
                parent_prefix._view_history + (store.levels[index],),
            )
            node = PrefixNode(
                index, parent_index, input_index, prefix, store.states[index]
            )
        store.nodes[index] = node
        return node

    def parent_of(self, t: int, index: int) -> PrefixNode | None:
        """The depth ``t - 1`` truncation of a node (None at the root)."""
        self.ensure_depth(t)
        parent = int(self._stores[t].parents[index])
        if parent < 0:
            return None
        return self._materialize(t - 1, parent)

    def unanimous_nodes(self, t: int) -> dict:
        """Map value -> list of unanimous (``v``-valent) nodes at depth ``t``."""
        store = self.layer_store(t)
        unanimity = self.unanimity_by_index
        result: dict = {}
        for index, inp in enumerate(store.input_idx):
            value = unanimity[inp]
            if value is not None:
                result.setdefault(value, []).append(self._materialize(t, index))
        return result

    def layer_sizes(self) -> list[int]:
        """Sizes of all constructed layers."""
        return [len(store) for store in self._stores]

    def find_node(self, t: int, inputs: Sequence, word) -> PrefixNode:
        """The node with the given inputs and graph word at depth ``t``."""
        inputs = tuple(inputs)
        graphs = tuple(word)
        for node in self.layer(t):
            if node.inputs == inputs and node.prefix.graphs == graphs:
                return node
        raise AnalysisError("no such admissible prefix")

    def __repr__(self) -> str:
        return (
            f"PrefixSpace({self.adversary.name}, depth={self.depth}, "
            f"sizes={self.layer_sizes()})"
        )


def _interleave_tables(n: int, count: int, tables: list[LayerTable]) -> LayerTable:
    """Merge per-graph layer tables parent-major into one flat column.

    ``tables[j][i]`` becomes child ``i * width + j`` — a stack/ravel on the
    numpy backend, strided array-slice assignment on pure Python; no
    per-child tuples either way.
    """
    width = len(tables)
    if width == 1:
        return LayerTable(n, tables[0].ids)
    np = numpy_module()
    if np is not None and isinstance(tables[0].ids, np.ndarray):
        stacked = np.stack([t.array() for t in tables], axis=1)
        return LayerTable(n, stacked.reshape(-1))
    flat = array("q", bytes(8 * count * width * n))
    stride = width * n
    for j, t in enumerate(tables):
        for p in range(n):
            flat[j * n + p :: stride] = t.ids[p::n]
    return LayerTable(n, flat)


def _distinct(entries: list) -> tuple[list, list[int]]:
    """The distinct entries in first-occurrence order, and each one's index."""
    index: dict = {}
    codes = [index.setdefault(entry, len(index)) for entry in entries]
    return list(index), codes


def _state_codes(states, np) -> tuple[list, Any]:
    """Distinct state sets of a layer and each parent's code into them.

    The codes are ``None`` when the whole layer shares one state set.  A
    tile may repeat a set, so tiled columns map the tile onto the distinct
    sets; coded columns are distinct already.
    """
    if isinstance(states, _CodedColumn):
        return states.items, states.codes if len(states.items) > 1 else None
    items, tile = _distinct(states.items)
    if len(items) == 1:
        return items, None
    if np is not None:
        return items, np.tile(np.asarray(tile, dtype=np.int64), states.repeats)
    return items, array("q", tile) * states.repeats


def _coded_column(entries: list, ext_codes, np) -> _CodedColumn:
    """The column ``entries[ext_codes[i]]``, coded over its distinct items."""
    items, codes = _distinct(entries)
    if np is not None:
        return _CodedColumn(items, np.asarray(codes, dtype=np.int64)[ext_codes])
    return _CodedColumn(items, array("q", map(codes.__getitem__, ext_codes)))
