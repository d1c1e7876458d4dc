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
A prefix is a pair (input assignment ``x``, graph word ``w``), and the
layer is the full cross product of the input vectors with the admissible
words: the views of ``w`` do not depend on ``x`` except at their origins.
So a layer stores *words only* (:class:`LayerStore`): one flat
:class:`~repro.core.views.LayerTable` of input-free views per word, the
word-parent column, and the round-graph/state columns (single-alphabet
layers a constant-width tile, state-grouped layers a small item table plus
one integer code per word).  The full layer is implicit: prefix
``x * W_t + w`` is input vector ``x`` with word ``w`` (``W_t`` words at
depth ``t``), and its parent is ``x * W_{t-1} + parent(w)`` — the same
order the per-assignment layers always had.  The process-``p`` view of a
prefix is in bijection with its *factored key*::

    key = word_view * R + sum(digit(x_q) * D**q for q in origin_mask(word_view))

with ``D`` the number of distinct input values and ``R = D**n`` (for the
binary domain this is ``word_view << n | (x_bits & origin_mask)``);
:meth:`PrefixSpace.view_keys` builds the key column of a layer and
:meth:`PrefixSpace.view_key` keys one full view.  The component analysis,
the decision tables, and their validation consume the word columns and
the keys, so a solvability check extends each word once, not once per
input assignment, and never expands a layer into per-prefix Python
objects.  Full view ids are materialized only on demand: the
:attr:`LayerStore.levels` accessor (cold) and the lazily cached
:class:`PrefixNode` wrappers, whose full-history
:class:`~repro.core.ptg.PTGPrefix` objects are amortized O(1) per node
through parent-history sharing.

Streaming and eviction
----------------------
Deep spaces are consumed frontier-by-frontier through
:meth:`PrefixSpace.iter_layers`, which constructs (and yields) one
:class:`LayerStore` at a time.  With the opt-in ``retain="frontier"``
eviction mode, only the newest layer keeps its heavy columns; as the
frontier advances, historical layers are *condensed* down to the columnar
history the layered analyses actually touch — the word-parent links and
the layer's shape.  The contract:

* ``word_parents``, ``inputs``, ``width``, and ``len(store)`` stay valid
  at every depth;
* ``word_levels``, ``levels``, ``word_graphs``, and ``word_states`` are
  only available on the frontier layer (``None`` on a condensed one);
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
    INPUT_FREE,
    LayerTable,
    ViewInterner,
    numpy_module,
    plain_ids,
)
from repro.errors import AnalysisError

__all__ = ["PrefixNode", "PrefixSpace", "LayerStore", "LayerView"]

#: Below this many (prefix, process) cells the key column is built in
#: plain Python: the vectorized builder's fixed cost (a few ``np.unique``
#: and broadcast calls, about 35 us) dominates small layers.
_KEYS_NUMPY_MIN_CELLS = 1024


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
    """Columnar storage of one layer, factored as input vectors x graph words.

    Prefix ``i`` of the layer is input vector ``i // width`` with word
    ``i % width``; ``len(store)`` counts the full prefixes.

    Attributes
    ----------
    word_levels:
        The :class:`~repro.core.views.LayerTable` of the input-free views
        of each word — one flat view-id column, ``width * n`` ids.
    word_parents:
        Per word, the index of its depth ``t - 1`` truncation in the
        previous layer's words (``-1`` on the root layer); an
        ``array('q')`` or int64 numpy column.
    word_graphs:
        Per word, the communication graph of the last round (``None`` on
        the root layer).  Single-alphabet layers store a tiled column (the
        per-parent tile repeated); state-grouped layers a coded column: a
        small table of distinct graphs plus one integer code per word.
    word_states:
        Per word, the adversary's reachable state set (tiled or coded
        likewise; the codes of a coded state column are what the next
        extension groups parents by).
    inputs, width, parent_width:
        The number of input vectors, of words, and of words one layer up.

    Prefix ``i`` has parent ``i // width * parent_width +
    word_parents[i % width]``; the full view ids of the unfactored layout
    are the cold :attr:`levels` accessor.
    """

    __slots__ = (
        "word_levels",
        "word_parents",
        "word_graphs",
        "word_states",
        "nodes",
        "inputs",
        "width",
        "parent_width",
        "_space",
        "_full",
    )

    def __init__(
        self, space: "PrefixSpace", word_levels, word_parents, graphs, states,
        parent_width: int,
    ) -> None:
        self.word_levels: LayerTable | None = word_levels
        self.word_parents = word_parents
        self.word_graphs = graphs
        self.word_states = states
        self.inputs: int = len(space.input_vectors)
        self.width: int = len(word_levels)
        self.parent_width = parent_width
        self._space = space
        #: Lazy cache of materialized :class:`PrefixNode` wrappers (sparse:
        #: deep layers hold millions of prefixes, wrappers are rare).
        self.nodes: dict[int, PrefixNode] | None = {}
        #: Lazy cache of the per-prefix columns (full views, factored keys).
        self._full: dict[str, Any] = {}

    def __len__(self) -> int:
        return self.inputs * self.width

    @property
    def condensed(self) -> bool:
        """Whether the heavy columns have been evicted (``retain="frontier"``)."""
        return self.word_levels is None

    def condense(self) -> None:
        """Drop the heavy columns, keeping the word parents and the sizes."""
        self.word_levels = None
        self.word_graphs = None
        self.word_states = None
        self.nodes = None
        self._full = {}

    def _per_prefix(self, name: str, build) -> Any:
        """A cached per-prefix column (``None`` once condensed)."""
        column = self._full.get(name)
        if column is None:
            if self.condensed:
                return None
            column = self._full[name] = build()
        return column

    @property
    def levels(self) -> LayerTable | None:
        """The full view ids of every prefix (cold; ``None`` when condensed).

        Materialized once, on first access, by placing each input vector
        at the origins of the word views
        (:meth:`~repro.core.views.ViewInterner.with_inputs`); the hot
        analyses read :attr:`word_levels` and the factored keys instead.
        """
        return self._per_prefix("levels", self._full_levels)

    def _full_levels(self) -> LayerTable:
        space = self._space
        words = plain_ids(self.word_levels.ids)
        flat = array("q")
        for vec in space.input_vectors:
            flat.extend(space.interner.with_inputs(words, vec))
        return LayerTable(space.adversary.n, flat)


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
        # The factored-key coding: input values get digits in first
        # occurrence order, and vector x contributes digit(x_q) * D**q at
        # every origin q (see the module docstring).
        digit_of: dict = {}
        for vec in vectors:
            for value in vec:
                digit_of.setdefault(value, len(digit_of))
        radix = len(digit_of)
        self._digit_of = digit_of
        #: ``R = D**n``: the factored key of a view is ``word_view * R + proj``.
        self.key_radix = radix**adversary.n
        self._input_weights = [
            [digit_of[value] * radix**q for q, value in enumerate(vec)]
            for vec in vectors
        ]
        self._projections: dict[int, list[int]] = {}
        self._classes: dict[int, tuple[list[int], list[int]]] = {}
        #: Input partitions per origin-mask signature, filled by the
        #: component analysis (:mod:`repro.topology.components`).
        self._agreement: dict[frozenset, tuple] = {}
        root = self.interner.leaf_level((INPUT_FREE,) * adversary.n)
        self._stores: list[LayerStore] = [
            LayerStore(
                self,
                word_levels=LayerTable(adversary.n, array("q", root)),
                word_parents=array("q", [-1]),
                graphs=_TiledColumn([None], 1),
                states=_TiledColumn([initial_states], 1),
                parent_width=0,
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

        Only the graph words are extended.  Parent words are grouped by the
        adversary's reachable state set — oblivious adversaries collapse
        the whole layer into one group, stabilizing/eventually-forever
        adversaries into a few state-keyed groups, in order of first
        occurrence — and each group's successor levels are interned by one
        whole-layer kernel call
        (:meth:`~repro.core.views.ViewInterner.extend_layer_table`), whose
        column output goes straight into the child layer's flat columns.
        Children are emitted parent-major, alphabet-minor, so the implicit
        full layer keeps its ``x * W_t + w`` order.
        """
        current = self._stores[-1]
        if current.condensed:
            raise AnalysisError("cannot extend: the frontier layer was condensed")
        adversary = self.adversary
        count = current.width
        np = numpy_module() if self.interner.layer_backend == "numpy" else None
        items, codes = _state_codes(current.word_states, np)
        exts_of = [adversary.admissible_extensions(states) for states in items]
        # The node budget (full prefixes) is checkable before any interning
        # happens: every parent word contributes exactly one child word per
        # admissible extension of its state set.
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
        if child_count * len(self.input_vectors) > self.max_nodes:
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
                current.word_levels, adversary.extension_alphabet(items[0])
            )
            words = _interleave_tables(adversary.n, count, tables)
            graphs = _TiledColumn([graph for graph, _ in exts_of[0]], count)
            states = _TiledColumn([nxt for _, nxt in exts_of[0]], count)
        else:
            words, graphs, states = self._extend_grouped(
                current.word_levels, items, codes, exts_of, widths, child_count, np
            )
        if np is not None:
            parents = np.repeat(np.arange(count, dtype=np.int64), widths)
        else:
            per_parent = repeat(widths, count) if codes is None else widths
            parents = array(
                "q", chain.from_iterable(map(repeat, range(count), per_parent))
            )
        self._stores.append(
            LayerStore(self, words, parents, graphs, states, parent_width=count)
        )
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
        """Build (and cache) the node wrapper for one implicit prefix.

        The full views are interned here, one level per node, by extending
        the parent node's last level by the word's graph.
        """
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
        if not 0 <= index < len(store):
            raise IndexError(index)
        input_index, word = divmod(index, store.width)
        if t == 0:
            inputs = self.input_vectors[input_index]
            prefix = PTGPrefix._make(
                self.interner, inputs, (), (self.interner.leaf_level(inputs),)
            )
            node = PrefixNode(index, None, input_index, prefix, store.word_states[word])
        else:
            parent_index = (
                input_index * store.parent_width + int(store.word_parents[word])
            )
            parent = self._materialize(t - 1, parent_index)
            parent_prefix = parent.prefix
            graph = store.word_graphs[word]
            level = self.interner.extend_level(parent_prefix._view_history[-1], graph)
            prefix = PTGPrefix._make(
                self.interner,
                parent_prefix.inputs,
                parent_prefix.graphs + (graph,),
                parent_prefix._view_history + (level,),
            )
            node = PrefixNode(
                index, parent_index, input_index, prefix, store.word_states[word]
            )
        store.nodes[index] = node
        return node

    def owns_node(self, t: int, node: object) -> bool:
        """Whether ``node`` is the materialized node of layer ``t`` of this space."""
        if not 0 <= t <= self.depth:
            return False
        nodes = self._stores[t].nodes
        index = getattr(node, "index", None)
        return nodes is not None and index is not None and nodes.get(index) is node

    def parent_of(self, t: int, index: int) -> PrefixNode | None:
        """The depth ``t - 1`` truncation of a node (None at the root)."""
        self.ensure_depth(t)
        if t == 0:
            return None
        store = self._stores[t]
        input_index, word = divmod(int(index), store.width)
        parent = input_index * store.parent_width + int(store.word_parents[word])
        return self._materialize(t - 1, parent)

    def unanimous_nodes(self, t: int) -> dict:
        """Map value -> list of unanimous (``v``-valent) nodes at depth ``t``."""
        width = self.layer_store(t).width
        result: dict = {}
        for x, value in enumerate(self.unanimity_by_index):
            if value is not None:
                result.setdefault(value, []).extend(
                    self._materialize(t, x * width + w) for w in range(width)
                )
        return result

    def view_keys(self, t: int):
        """The factored key of every (prefix, process) cell of layer ``t``.

        A flat column laid out like the full view ids (cell ``i * n + p``
        is process ``p`` of prefix ``i``): an int64 numpy array on the
        numpy backend when the layer is large and the keys fit 63 bits,
        else a list of ints (consumers normalize either way).
        Keys are in bijection with the full views of the layer, and keys of
        different depths or processes never collide (see the module
        docstring for the encoding).  Cached on the layer store, so the
        decision maps and their validation build it once.
        """
        store = self.layer_store(t)
        np = numpy_module()
        if (
            np is not None
            and self.interner.layer_backend == "numpy"
            and len(store) * self.adversary.n >= _KEYS_NUMPY_MIN_CELLS
            and self.keys_fit_int64()
        ):
            return store._per_prefix("keys", lambda: _view_keys_numpy(np, self, store))
        return store._per_prefix("keys", lambda: _view_keys_python(self, store))

    def keys_fit_int64(self) -> bool:
        """Whether every factored key of this space fits a signed int64."""
        return (len(self.interner) + 1) * self.key_radix < 2**63

    def projections(self, mask: int) -> list[int]:
        """Per input vector, the low part of its factored key under ``mask``.

        Two vectors agree on the processes of an origin mask iff their
        projections onto it are equal.
        """
        projections = self._projections.get(mask)
        if projections is None:
            columns = [
                column
                for q, column in enumerate(zip(*self._input_weights))
                if mask >> q & 1
            ]
            projections = self._projections[mask] = (
                list(map(sum, zip(*columns)))
                if columns
                else [0] * len(self._input_weights)
            )
        return projections

    def projection_matrix(self, np, masks):
        """:meth:`projections` for an int64 column of masks, as one
        ``(inputs, len(masks))`` integer matrix product."""
        bits = (masks[:, None] >> np.arange(self.adversary.n, dtype=np.int64)) & 1
        return np.asarray(self._input_weights, dtype=np.int64) @ bits.T

    def projection_classes(self, mask: int) -> tuple[list[int], list[int]]:
        """The input vectors grouped by their projection onto ``mask``.

        Returns each vector's class index (classes numbered in order of
        their smallest member) and each class's projection; cached per
        mask.  The decision maps fold value bits over these classes.
        """
        classes = self._classes.get(mask)
        if classes is None:
            index_of: dict[int, int] = {}
            class_of = [
                index_of.setdefault(proj, len(index_of))
                for proj in self.projections(mask)
            ]
            classes = self._classes[mask] = (class_of, list(index_of))
        return classes

    def view_key(self, view_id: int) -> int | None:
        """The factored key of one full view (None if no layer holds it).

        Translates through the interner's memoized input-free lookup and
        the view's observed origin values.
        """
        interner = self.interner
        if not 0 <= view_id < len(interner):
            return None
        free = interner.input_free(view_id)
        if free < 0:
            return None
        digit_of = self._digit_of
        radix = len(digit_of)
        proj = 0
        for q, value in interner.origins(view_id):
            digit = digit_of.get(value)
            if digit is None:
                return None
            proj += digit * radix**q
        return free * self.key_radix + proj

    def layer_sizes(self) -> list[int]:
        """Sizes of all constructed layers."""
        return [len(store) for store in self._stores]

    def find_node(self, t: int, inputs: Sequence, word) -> PrefixNode:
        """The node with the given inputs and graph word at depth ``t``."""
        inputs = tuple(inputs)
        graphs = tuple(word)
        width = self.layer_store(t).width
        if inputs in self.input_vectors:
            base = self.input_vectors.index(inputs) * width
            for index in range(base, base + width):
                node = self._materialize(t, index)
                if node.prefix.graphs == graphs:
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


def _view_keys_python(space: PrefixSpace, store: LayerStore) -> list[int]:
    """Factored keys of a layer, in plain Python (see :meth:`view_keys`)."""
    radix = space.key_radix
    masks = space.interner._origin_mask
    words = plain_ids(store.word_levels.ids)
    word_keys = [vid * radix for vid in words]
    word_masks = [masks[vid] for vid in words]
    projections = {mask: space.projections(mask) for mask in set(word_masks)}
    keys: list[int] = []
    for x in range(store.inputs):
        proj_of = {mask: proj[x] for mask, proj in projections.items()}
        keys.extend(map(int.__add__, word_keys, map(proj_of.__getitem__, word_masks)))
    return keys


def _view_keys_numpy(np, space: PrefixSpace, store: LayerStore):
    """Factored keys of a layer as one int64 column (numpy backend).

    The origin masks of the word views are coded densely; the projection
    of every input vector onto every distinct mask is one small integer
    matrix product, and the keys broadcast as ``(inputs, words, n)``.
    """
    words = store.word_levels.array()
    mask_view = np.frombuffer(space.interner._origin_mask, dtype=np.int64)
    masks = mask_view[words]
    del mask_view
    uniq, mask_codes = np.unique(masks, return_inverse=True)
    proj = space.projection_matrix(np, uniq)
    keys = words * space.key_radix
    return (keys[None] + proj[:, mask_codes.reshape(words.shape)]).reshape(-1)
