"""Interned full-information views (local causal pasts).

The paper reasons about the *view* ``V_{p}(PT^t)`` of a process ``p`` in a
process-time graph: the causal past of the node ``(p, t)``, i.e. the subgraph
of all process-time nodes with a path to ``(p, t)`` (Section 4, Figure 2).

For full-information protocols the causal past admits an equivalent recursive
representation, which is what this module implements:

* at time 0, the view of ``p`` is the leaf ``(p, x_p)``;
* at time ``t >= 1``, the view of ``p`` is ``(p, {view(q, t-1) : q ∈
  In_{G_t}(p)})`` where the in-neighborhood includes ``p`` itself.

Because every sub-view records its owner, the recursive representation and
the causal-past subgraph determine each other (a fact the test suite checks
by brute force).  Views are *hash-consed* through :class:`ViewInterner`:
structurally equal views receive the same integer id, so the view-equality
tests that underlie every distance function in the paper become integer
comparisons.

Array-backed view tables
------------------------
The interner is columnar: per view id, parallel ``array`` columns hold the
owner (``_pid``), the depth (``_depth``), the origin bitmask
(``_origin_mask``), and a *row id* (``_row``) that indexes one of two side
tables — the leaf payload list for time-0 views, or the interned *child-row
arena* for later views.  Child rows (sorted view-id sets) live flat in the
arena (``_row_data`` + ``_row_starts`` offsets): no per-row Python tuple is
ever stored.  Row interning goes through a packed-key open-addressing table
(``_row_slots``): a 64-bit mix of the child ids is the probe key, collisions
resolve by comparing against the arena, and the per-row hash is kept
(``_row_hashes``) so table growth rehashes without touching row contents.
Because row ids are allocated consecutively, the node lookup key
``row_id * n + p`` stays dense and the node "table" remains a flat slot
array indexed directly.

The interner also maintains, per view, the bitmask of processes whose
*initial* node ``(q, 0, x_q)`` occurs in the causal past, together with the
observed input values.  This is precisely the information needed to decide
broadcastability (Definition 5.8): ``p`` has broadcast in a prefix iff the
bit of ``p`` is set in every process's view mask.

The whole-layer extension kernel
--------------------------------
:meth:`ViewInterner.extend_layer_table` interns the successors of an
*entire* prefix-space layer in one call and returns them *columnar*: one
:class:`LayerTable` per graph — a flat view-id column, the exchange format
the prefix space, the component analysis, and the decision-table builder
all consume directly, so a layer never expands into per-child Python
tuples on the hot path.  The kernel deduplicates parent levels, then works
per distinct *in-neighborhood* of the alphabet (child rows depend on the
in-list only, never on the owner): it builds every candidate child row of
the layer, deduplicates rows across all parents at once, interns each
distinct row a single time through the open-addressing row table, and
allocates new views at unique-row granularity.  Two backends implement the
batch:

* ``"numpy"`` — the layer column becomes one int64 matrix; candidate rows
  are gathered/sorted/uniqued as packed key columns (``np.unique``-based
  bulk interning: row hashes for the open-addressing probe are computed
  vectorized over the distinct rows), and view slots resolve through
  vectorized gathers over the interner's buffer-backed columns.  Selected
  by default when numpy imports (set ``REPRO_PURE_PYTHON=1`` to veto at
  import time).
* ``"python"`` — the same batched structure in pure Python, so
  ``dependencies = []`` stays true and the kernel is always available.

:meth:`ViewInterner.extend_layer` remains as the tuple-returning
compatibility wrapper.  Both backends produce structurally identical views
over the same shared row arena, so they may be mixed freely with the
per-parent :meth:`ViewInterner.extend_level_multi` path on one interner;
only the view-id *numbering* may differ between backends.  Interning makes
every extension idempotent: re-extending a level or a layer returns the
same view ids and allocates nothing, so no extension cache is kept.
"""

from __future__ import annotations

import os
import sys
import warnings
from array import array
from typing import Iterable, Sequence

from repro.core.digraph import Digraph
from repro.errors import AnalysisError

try:  # Optional acceleration; REPRO_PURE_PYTHON=1 forces the fallback.
    if os.environ.get("REPRO_PURE_PYTHON"):
        _np = None
    else:
        import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

__all__ = [
    "LayerTable",
    "ViewInterner",
    "ViewStats",
    "LAYER_BACKENDS",
    "DEFAULT_LAYER_BACKEND",
    "DEFAULT_PLAN_CACHE_SIZE",
    "numpy_available",
    "numpy_module",
]

#: Origin masks are stored in a signed-64-bit array column when they fit;
#: interners on more processes fall back to a plain list column.
_MASK_ARRAY_MAX_N = 62

#: The layer-kernel backends an interner can run on.
LAYER_BACKENDS = ("numpy", "python")

#: Backend used when a :class:`ViewInterner` is built without an explicit
#: choice: ``"numpy"`` when numpy imported at module load, else ``"python"``.
DEFAULT_LAYER_BACKEND = "python" if _np is None else "numpy"

#: Default LRU capacity of the per-alphabet extension-plan cache.  Real
#: adversary families use a handful of alphabets, so the cap only matters
#: for long-lived sessions sweeping many distinct alphabets — exactly the
#: case that used to grow the cache without bound.
DEFAULT_PLAN_CACHE_SIZE = 128

#: Below this many (parent, pattern) cells the numpy batch is not worth its
#: fixed per-call overhead; tiny layers stay on the pure-Python kernel.
_NUMPY_MIN_CELLS = 192

#: Below this many cells even the batched Python kernel loses to the plain
#: per-parent loop (batch bookkeeping dominates microscopic layers).
_BATCH_MIN_CELLS = 48

#: Below this many (parent, pattern) cells the sharded multiprocess map
#: phase cannot amortize its fixed dispatch cost (shared-memory setup, one
#: pool round trip); smaller layers stay on the serial numpy kernel even
#: when ``extension_workers > 1``.  Tests monkeypatch this to force the
#: sharded path onto small layers.
_MP_MIN_CELLS = 65536

#: Environment cap on per-interner extension workers.  Process-pool sweep
#: workers set this to ``"1"`` so a ``workers x extension_workers``
#: oversubscription cannot happen by accident; users can set it to bound
#: fan-out globally.  Read at dispatch time, so it also applies to
#: interners constructed before the variable was set.
_WORKER_CAP_ENV = "REPRO_MAX_EXTENSION_WORKERS"

#: Multiplier/seed of the fallback 64-bit row mix (FNV offset basis
#: seeded, golden-ratio multiplier).  The same fold runs scalar in Python
#: and vectorized in numpy, so both kernels probe identical slots.
_ROW_HASH_SEED = 0xCBF29CE484222325
_ROW_HASH_MULT = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

#: CPython's tuple-hash constants (xxHash-style, CPython >= 3.8).  When
#: the running interpreter's ``hash(tuple_of_ints)`` matches this scheme
#: (verified at import below), the scalar side uses the C-speed builtin
#: hash and the numpy kernel emulates it vectorized — ~7x cheaper per row
#: than the Python-level fold.  Int lanes hash to themselves below
#: ``2**61 - 1``, far above any reachable view id.
_XXPRIME_1 = 11400714785074694791
_XXPRIME_2 = 14029467366897019727
_XXPRIME_5 = 2870177450012600261
_XX_SUFFIX = _XXPRIME_5 ^ 3527539


def numpy_available() -> bool:
    """Whether the numpy layer-kernel backend can be selected."""
    return _np is not None


def numpy_module():
    """The numpy module honoring ``REPRO_PURE_PYTHON`` (None when vetoed).

    The columnar consumers of layer tables (component analysis, decision
    tables) share the interner's import gate through this accessor instead
    of re-importing numpy with their own policy.
    """
    return _np


def int64_column(column):
    """A flat column as a 1-D int64 numpy array (zero-copy where possible).

    ndarray passes through, ``array('q')`` becomes a buffer view, anything
    else copies.  The single normalizer behind :meth:`LayerTable.array`
    and the layer stores' parent/input column accessors.
    """
    if _np is None:
        raise AnalysisError("int64_column() requires numpy")
    if isinstance(column, _np.ndarray):
        return column
    if isinstance(column, array):
        return _np.frombuffer(column, dtype=_np.int64)
    return _np.array(column, dtype=_np.int64)


def plain_ids(ids) -> list:
    """A flat id column as a plain-int list (shared refs, dict-key safe).

    List indexing returns shared references, while array/ndarray element
    reads allocate a fresh int per access — and ndarray ints would wrap
    64-bit hash folds.  The columnar consumers (layer kernels, component
    analysis, decision maps) normalize through this one helper.
    """
    if isinstance(ids, list):
        return ids
    return ids.tolist() if hasattr(ids, "tolist") else list(ids)


def _emulated_tuple_hash(kids: Sequence[int]) -> int:
    """CPython's int-tuple hash, reimplemented (the numpy kernel's spec)."""
    acc = _XXPRIME_5
    for x in kids:
        acc = (acc + x * _XXPRIME_2) & _MASK64
        acc = ((acc << 31) | (acc >> 33)) & _MASK64
        acc = (acc * _XXPRIME_1) & _MASK64
    acc = (acc + (len(kids) ^ _XX_SUFFIX)) & _MASK64
    if acc == _MASK64:  # (Py_uhash_t)-1 is reserved
        acc = 1546275796
    return acc


#: Whether the interpreter's builtin tuple hash matches the emulation —
#: the scalar and vectorized kernels must probe identical slots, so a
#: mismatching interpreter (PyPy, a future CPython) falls back to the
#: shared Python-level fold on both sides.
_TUPLE_HASH_OK = all(
    (hash(probe) & _MASK64) == _emulated_tuple_hash(probe)
    for probe in ((0,), (1, 2, 3), (5, 2**40, 17, 3), tuple(range(9)))
)


def _fnv_row_hash(kids: Sequence[int]) -> int:
    """Fallback 64-bit packed probe key (order-sensitive multiply-fold)."""
    h = _ROW_HASH_SEED
    for c in kids:
        h = ((h ^ c) * _ROW_HASH_MULT) & _MASK64
    return h


def _builtin_row_hash(kids) -> int:
    """Probe key via the interpreter's C tuple hash (verified above)."""
    return hash(kids if type(kids) is tuple else tuple(kids)) & _MASK64


_row_hash = _builtin_row_hash if _TUPLE_HASH_OK else _fnv_row_hash


def _bulk_row_hashes(np, uniq, k: int):
    """Vectorized probe keys for a ``(count, k)`` int64 row matrix.

    Bit-identical to :func:`_row_hash` on every row (the xxHash emulation
    when the builtin tuple hash is in play, the fold otherwise), so rows
    interned by either kernel resolve through the same slots.
    """
    count = len(uniq)
    if _TUPLE_HASH_OK:
        acc = np.full(count, _XXPRIME_5, dtype=np.uint64)
        p2 = np.uint64(_XXPRIME_2)
        p1 = np.uint64(_XXPRIME_1)
        s31 = np.uint64(31)
        s33 = np.uint64(33)
        for c in range(k):
            acc = acc + uniq[:, c].astype(np.uint64) * p2
            acc = ((acc << s31) | (acc >> s33)) * p1
        acc = acc + np.uint64(k ^ _XX_SUFFIX)
        acc[acc == np.uint64(_MASK64)] = np.uint64(1546275796)
        return acc
    acc = np.full(count, _ROW_HASH_SEED, dtype=np.uint64)
    mult = np.uint64(_ROW_HASH_MULT)
    for c in range(k):
        acc = (acc ^ uniq[:, c].astype(np.uint64)) * mult
    return acc


def _unique_rows(np, cand):
    """Distinct rows of a row-sorted int64 matrix, plus the inverse map.

    Rows dedup through a packed int64 key column when the ids fit one
    word, and through ``np.unique(..., axis=0)`` otherwise.  Both paths
    return the distinct rows in *lexicographic* order — an order that
    depends only on the row set, never on the packing bit width or on how
    the input rows were partitioned.  That invariance is what lets the
    sharded map phase (:mod:`repro.core.parallel`) re-unique the union of
    per-shard dedups and recover exactly the serial kernel's output.
    """
    k = cand.shape[1]
    if k == 1:
        _, first_idx, inv = np.unique(
            cand[:, 0], return_index=True, return_inverse=True
        )
        return cand[first_idx], inv
    max_id = int(cand[:, -1].max())
    bits = max(1, max_id.bit_length())
    if k * bits <= 63:
        # Pack each sorted row into one int64 key: unique on 1-D ints is
        # far cheaper than row-wise unique.
        keys = cand[:, 0]
        for c in range(1, k):
            keys = (keys << bits) | cand[:, c]
        _, first_idx, inv = np.unique(
            keys, return_index=True, return_inverse=True
        )
        return cand[first_idx], inv
    return np.unique(cand, axis=0, return_inverse=True)


def _candidate_uniq_inv(np, level_matrix, in_list):
    """One in-neighborhood's candidate-row dedup over a layer matrix.

    Gathers the in-list columns of every parent level, sorts each row
    (child rows are *sets* of view ids), and dedups.  This is the
    embarrassingly parallel map phase of the layer kernel: it reads only
    the parent matrix, so shards of the row range can run it in worker
    processes and merge afterwards.
    """
    k = len(in_list)
    cand = level_matrix[:, in_list]
    if k > 1:
        cand = np.ascontiguousarray(cand)
        cand.sort(axis=1)
        return _unique_rows(np, cand)
    _, first_idx, inv = np.unique(
        cand[:, 0], return_index=True, return_inverse=True
    )
    return cand[first_idx], inv


class LayerTable(Sequence):
    """Columnar view-id levels of one layer: the array-native exchange format.

    A layer table is ``count`` levels of ``n`` view ids stored as one flat
    column (``ids``; row-major, so level ``i`` occupies
    ``ids[i*n : (i+1)*n]``).  The column is an ``array('q')``, a plain
    list, or an int64 numpy array — producers pick whatever they built,
    consumers normalize through :meth:`array` (numpy matrix) or plain
    indexing.  Tuple materialization is strictly on demand: indexing or
    iterating yields per-level tuples for the object-level APIs
    (:class:`~repro.topology.prefixspace.PrefixNode` wrappers, tests), but
    the hot analyses read the flat column and never build them.
    """

    __slots__ = ("n", "ids")

    def __init__(self, n: int, ids) -> None:
        self.n = n
        self.ids = ids

    @classmethod
    def from_levels(cls, n: int, levels: Iterable[Sequence[int]]) -> "LayerTable":
        """Pack an iterable of length-``n`` levels into one flat column."""
        flat = array("q")
        for level in levels:
            flat.extend(level)
        return cls(n, flat)

    def __len__(self) -> int:
        return len(self.ids) // self.n

    def __getitem__(self, item):
        n = self.n
        if isinstance(item, slice):
            return [self[i] for i in range(*item.indices(len(self)))]
        size = len(self)
        if item < 0:
            item += size
        if not 0 <= item < size:
            raise IndexError(item)
        base = item * n
        chunk = self.ids[base : base + n]
        if _np is not None and isinstance(chunk, _np.ndarray):
            chunk = chunk.tolist()  # plain ints: hashable keys, no wraparound
        return tuple(chunk)

    def __iter__(self):
        n = self.n
        ids = self.ids
        if _np is not None and isinstance(ids, _np.ndarray):
            ids = ids.tolist()
        for base in range(0, len(ids), n):
            yield tuple(ids[base : base + n])

    def __eq__(self, other) -> bool:
        if isinstance(other, LayerTable):
            return self.n == other.n and list(self.ids) == list(other.ids)
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                a == tuple(b) for a, b in zip(self, other)
            )
        return NotImplemented

    def __hash__(self):  # pragma: no cover - tables are not dict keys
        raise TypeError("LayerTable is unhashable; use tolist() levels")

    def array(self):
        """The ``(count, n)`` int64 numpy matrix over the flat column.

        Zero-copy for numpy-backed and ``array('q')``-backed columns
        (buffer view); requires numpy.
        """
        return int64_column(self.ids).reshape(-1, self.n)

    def tolist(self) -> list[tuple[int, ...]]:
        """Materialize the per-level tuples (compat/diagnostic path)."""
        return list(self)

    def __repr__(self) -> str:
        kind = type(self.ids).__name__
        return f"LayerTable(n={self.n}, count={len(self)}, ids={kind})"


class ViewStats:
    """A small report on the contents of a :class:`ViewInterner`.

    Beyond the view counts, the stats expose the table geometry that the
    benchmarks and the CLI use to watch interner pressure: ``rows`` is the
    number of distinct interned child sets, ``cached_plans`` the number of
    per-alphabet extension plans currently held (an LRU with
    ``plan_cache_size`` capacity), and ``approx_bytes`` an estimate of the
    resident size of all tables (columns, side tables and plan keys;
    Python object headers of shared children are not counted).
    ``cached_extensions`` is always ``0``: the interner keeps no extension
    cache, and the field stays for readers of older reports.
    ``mp_fallbacks`` counts sharded extension dispatches that fell back to
    the serial kernel because the worker pool failed — nonzero means the
    run silently lost its parallelism (each fallback also raises a
    ``RuntimeWarning`` at the dispatch site).
    """

    __slots__ = (
        "total",
        "leaves",
        "max_depth",
        "rows",
        "cached_extensions",
        "cached_plans",
        "approx_bytes",
        "mp_fallbacks",
    )

    def __init__(
        self,
        total: int,
        leaves: int,
        max_depth: int,
        rows: int = 0,
        approx_bytes: int = 0,
        cached_plans: int = 0,
        mp_fallbacks: int = 0,
    ) -> None:
        self.total = total
        self.leaves = leaves
        self.max_depth = max_depth
        self.rows = rows
        self.cached_extensions = 0
        self.cached_plans = cached_plans
        self.approx_bytes = approx_bytes
        self.mp_fallbacks = mp_fallbacks

    def __repr__(self) -> str:
        return (
            f"ViewStats(total={self.total}, leaves={self.leaves}, "
            f"max_depth={self.max_depth}, rows={self.rows}, "
            f"cached_plans={self.cached_plans}, "
            f"approx_bytes={self.approx_bytes}, "
            f"mp_fallbacks={self.mp_fallbacks})"
        )


class ViewInterner:
    """Hash-consing store for full-information views of an ``n``-process system.

    All prefixes participating in one analysis must share one interner; view
    ids are only comparable within the interner that produced them.  Because
    views depend only on inputs and in-neighborhoods — never on the
    adversary that generated a prefix — one interner may also be shared
    *across* adversaries of the same ``n``, which is how the sweep engine
    reuses view tables between jobs of one shard.

    ``layer_backend`` selects the whole-layer extension kernel backend:
    ``"numpy"`` (vectorized; requires numpy), ``"python"`` (the batched
    pure-Python fallback), or ``None`` for the import-time default
    (:data:`DEFAULT_LAYER_BACKEND`).  The choice affects speed and view-id
    numbering only, never the interned structure.  ``plan_cache_size``
    bounds the per-alphabet extension-plan LRU (``None`` =
    :data:`DEFAULT_PLAN_CACHE_SIZE`; plans are pure functions of the
    alphabet, so eviction never changes results).

    Examples
    --------
    >>> interner = ViewInterner(2)
    >>> a = interner.leaf(0, 1)
    >>> b = interner.leaf(0, 1)
    >>> a == b
    True
    """

    __slots__ = (
        "n",
        "layer_backend",
        "plan_cache_size",
        "extension_workers",
        "_mp_dispatches",
        "_mp_fallbacks",
        "_pid",
        "_depth",
        "_row",
        "_origin_mask",
        "_origin_values",
        "_leaf_table",
        "_leaf_values",
        "_node_slots",
        "_empty_row",
        "_row_data",
        "_row_starts",
        "_row_hashes",
        "_row_slots",
        "_row_slot_mask",
        "_row_masks",
        "_leaf_count",
        "_plan_cache",
    )

    def __init__(
        self,
        n: int,
        layer_backend: str | None = None,
        plan_cache_size: int | None = None,
        extension_workers: int | None = None,
    ) -> None:
        if n <= 0:
            raise AnalysisError("a view interner needs n >= 1 processes")
        if layer_backend is None:
            layer_backend = DEFAULT_LAYER_BACKEND
        if layer_backend not in LAYER_BACKENDS:
            raise AnalysisError(
                f"unknown layer backend {layer_backend!r}; "
                f"choose from {LAYER_BACKENDS}"
            )
        if layer_backend == "numpy" and _np is None:
            raise AnalysisError(
                "layer backend 'numpy' requested but numpy is not importable "
                "(install numpy or pick the 'python' backend)"
            )
        if plan_cache_size is None:
            plan_cache_size = DEFAULT_PLAN_CACHE_SIZE
        if plan_cache_size < 1:
            raise AnalysisError("plan_cache_size must be >= 1")
        if extension_workers is None:
            extension_workers = 1
        if extension_workers < 1:
            raise AnalysisError("extension_workers must be >= 1")
        self.layer_backend = layer_backend
        self.plan_cache_size = plan_cache_size
        self.extension_workers = extension_workers
        self._mp_dispatches = 0
        self._mp_fallbacks = 0
        self.n = n
        # Parallel per-view columns.  Owners and depths are plain lists of
        # (interpreter-shared) small ints — same 8 bytes per slot as an
        # array, faster appends; row ids grow unbounded, so that column is
        # a machine-integer array, as are the origin masks while they fit.
        self._pid: list[int] = []
        self._depth: list[int] = []
        self._row = array("q")
        self._origin_mask = array("q") if n <= _MASK_ARRAY_MAX_N else []
        self._origin_values: list = []
        # Leaf side table: (p, value) -> vid, plus payload storage.
        self._leaf_table: dict = {}
        self._leaf_values: list = []
        # Node side tables.  Child rows live flat in an arena
        # (``_row_data`` + ``_row_starts`` offsets) and are interned through
        # a packed-key open-addressing table: ``_row_slots`` holds row ids,
        # probed at ``hash & mask`` with linear probing, ``_row_hashes``
        # keeps each row's 64-bit key so growth rehashes by gather.  The
        # dense slot column ``row_id * n + p -> vid`` (-1 = not yet
        # interned) stays a flat array indexed directly.
        self._node_slots = array("q")
        self._empty_row = array("q", [-1]) * n
        self._row_data = array("q")
        self._row_starts = array("q", [0])
        self._row_hashes = array("Q")
        self._row_slots = array("q", [-1]) * 64
        self._row_slot_mask = 63
        # Per-row origin-mask cache: a view's mask is the union of its
        # children's masks, which depends on the row only — never on the
        # owner — so views sharing a row skip the fold.  Machine-int array
        # while masks fit so the numpy kernel can gather it by buffer.
        self._row_masks = array("q") if n <= _MASK_ARRAY_MAX_N else []
        self._leaf_count = 0
        # Per-alphabet extension plan LRU: distinct (p, in-neighborhood)
        # patterns in first-occurrence order + per-graph assembly layouts.
        self._plan_cache: dict[tuple, tuple] = {}

    # ------------------------------------------------------------------ #
    # The interned child-row arena
    # ------------------------------------------------------------------ #

    def _row_find(self, kids: Sequence[int], h: int) -> tuple[int, int]:
        """Probe the open-addressing table for a row.

        Returns ``(rid, slot)``: ``rid >= 0`` when the row is interned;
        otherwise ``rid == -1`` and ``slot`` is the insertion point (valid
        until the next insert or rehash).
        """
        slots = self._row_slots
        mask = self._row_slot_mask
        hashes = self._row_hashes
        starts = self._row_starts
        data = self._row_data
        k = len(kids)
        idx = h & mask
        while True:
            rid = slots[idx]
            if rid < 0:
                return -1, idx
            if hashes[rid] == h:
                s = starts[rid]
                if starts[rid + 1] - s == k:
                    for j in range(k):
                        if data[s + j] != kids[j]:
                            break
                    else:
                        return rid, idx
            idx = (idx + 1) & mask

    def _row_add_bare(self, kids: Sequence[int], h: int, slot: int) -> int:
        """Append a fresh row to the arena + probe table only.

        The caller is responsible for extending ``_node_slots`` and
        ``_row_masks`` (the numpy kernel does both in bulk).
        """
        rid = len(self._row_hashes)
        self._row_data.extend(kids)
        self._row_starts.append(len(self._row_data))
        self._row_hashes.append(h)
        self._row_slots[slot] = rid
        if (rid + 2) * 3 >= len(self._row_slots) * 2:
            self._row_rehash()
        return rid

    def _row_add(self, kids: Sequence[int], h: int, slot: int, mask_value: int) -> int:
        """Append a fresh row including its node slots and origin mask."""
        rid = self._row_add_bare(kids, h, slot)
        self._node_slots.extend(self._empty_row)
        self._row_masks.append(mask_value)
        return rid

    def _row_rehash(self, size: int | None = None) -> None:
        """Grow the probe table (4x by default) and re-place every row.

        Placement goes by the stored per-row hash — row contents are never
        re-read.  With numpy available and enough rows, placement runs as
        iterated last-write-wins scatter with collision retry instead of a
        per-row Python loop.
        """
        if size is None:
            size = len(self._row_slots) * 4
        mask = size - 1
        nrows = len(self._row_hashes)
        slots = array("q", [-1]) * size
        if _np is not None and nrows >= 4096:
            np = _np
            slots_np = np.frombuffer(slots, dtype=np.int64)
            hashes_np = np.frombuffer(self._row_hashes, dtype=np.uint64)
            idx = (hashes_np & np.uint64(mask)).astype(np.int64)
            pending = np.arange(nrows, dtype=np.int64)
            while len(pending):
                pi = idx[pending]
                slots_np[pi] = pending
                lost = slots_np[pi] != pending
                pending = pending[lost]
                if not len(pending):
                    break
                nxt = (idx[pending] + 1) & mask
                while True:
                    occupied = slots_np[nxt] >= 0
                    if not occupied.any():
                        break
                    nxt[occupied] = (nxt[occupied] + 1) & mask
                idx[pending] = nxt
            del slots_np
        else:
            hashes = self._row_hashes
            for rid in range(nrows):
                idx = hashes[rid] & mask
                while slots[idx] >= 0:
                    idx = (idx + 1) & mask
                slots[idx] = rid
        self._row_slots = slots
        self._row_slot_mask = mask

    def _intern_rows_numpy(self, np, uniq, hashes, k: int):
        """Bulk-intern distinct candidate rows, fully vectorized.

        ``uniq`` is the ``(count, k)`` int64 matrix of distinct sorted
        rows, ``hashes`` their 64-bit fold keys.  Probing gathers the
        open-addressing table through transient buffer windows (hash hits
        verify against the arena, mismatches advance their probe cursor),
        fresh rows append to the arena in one contiguous copy, and their
        slot placement resolves contention by iterated last-write-wins
        scatter.  Returns ``(rids, fresh_rows)``: the row id per input
        row, and the input positions that were freshly interned (their
        node slots/row masks are extended by the caller, as in the scalar
        path).
        """
        count = len(uniq)
        nrows = len(self._row_hashes)
        # Pre-grow for the all-fresh worst case: at most one rehash per
        # batch, and the probe below never observes a resize.
        size = len(self._row_slots)
        while (nrows + count + 2) * 3 >= size * 2:
            size *= 2
        if size != len(self._row_slots):
            self._row_rehash(size=size)
        slot_mask = self._row_slot_mask
        slots_np = np.frombuffer(self._row_slots, dtype=np.int64)
        row_hashes_np = np.frombuffer(self._row_hashes, dtype=np.uint64)
        starts_np = np.frombuffer(self._row_starts, dtype=np.int64)
        data_np = np.frombuffer(self._row_data, dtype=np.int64)
        idx = (hashes & np.uint64(slot_mask)).astype(np.int64)
        rids = np.full(count, -1, dtype=np.int64)
        found_slot = np.full(count, -1, dtype=np.int64)
        unresolved = np.arange(count, dtype=np.int64)
        while len(unresolved):
            cur_idx = idx[unresolved]
            cur = slots_np[cur_idx]
            empty = cur < 0
            if empty.any():
                found_slot[unresolved[empty]] = cur_idx[empty]
            occupied = unresolved[~empty]
            if not len(occupied):
                break
            occ_rids = cur[~empty]
            resolved = np.zeros(len(occupied), dtype=bool)
            hit_pos = np.flatnonzero(row_hashes_np[occ_rids] == hashes[occupied])
            if len(hit_pos):
                cand_rows = occupied[hit_pos]
                cand_rids = occ_rids[hit_pos]
                s = starts_np[cand_rids]
                length_ok = (starts_np[cand_rids + 1] - s) == k
                eq = np.zeros(len(hit_pos), dtype=bool)
                sub = np.flatnonzero(length_ok)
                if len(sub):
                    ss = s[sub]
                    sub_eq = np.ones(len(sub), dtype=bool)
                    for j in range(k):
                        sub_eq &= data_np[ss + j] == uniq[cand_rows[sub], j]
                    eq[sub] = sub_eq
                match_sel = hit_pos[eq]
                rids[occupied[match_sel]] = occ_rids[match_sel]
                resolved[match_sel] = True
            advance = occupied[~resolved]
            idx[advance] = (idx[advance] + 1) & slot_mask
            unresolved = advance
        del starts_np, data_np, row_hashes_np
        fresh_rows = np.flatnonzero(rids < 0)
        total_fresh = len(fresh_rows)
        if total_fresh:
            new_rids = np.arange(nrows, nrows + total_fresh, dtype=np.int64)
            rids[fresh_rows] = new_rids
            payload = np.ascontiguousarray(uniq[fresh_rows], dtype=np.int64)
            old_len = len(self._row_data)
            self._row_data.frombytes(payload.tobytes())
            self._row_starts.frombytes(
                np.arange(
                    old_len + k, old_len + k * total_fresh + 1, k, dtype=np.int64
                ).tobytes()
            )
            self._row_hashes.frombytes(hashes[fresh_rows].tobytes())
            # Slot placement: last-write-wins scatter with collision retry
            # (the table was pre-grown, so the load factor bound holds).
            place_idx = found_slot[fresh_rows]
            pending = np.arange(total_fresh, dtype=np.int64)
            while len(pending):
                pi = place_idx[pending]
                slots_np[pi] = new_rids[pending]
                lost = slots_np[pi] != new_rids[pending]
                pending = pending[lost]
                if not len(pending):
                    break
                nxt = (place_idx[pending] + 1) & slot_mask
                while True:
                    occupied = slots_np[nxt] >= 0
                    if not occupied.any():
                        break
                    nxt[occupied] = (nxt[occupied] + 1) & slot_mask
                place_idx[pending] = nxt
        del slots_np
        return rids, fresh_rows

    def _row_tuple(self, rid: int) -> tuple[int, ...]:
        """Materialize one interned row as a tuple (accessor path only)."""
        starts = self._row_starts
        return tuple(self._row_data[starts[rid] : starts[rid + 1]])

    @property
    def _row_count(self) -> int:
        return len(self._row_hashes)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def leaf(self, p: int, value) -> int:
        """Intern the time-0 view ``(p, value)`` and return its id."""
        self._check_pid(p)
        key = (p, value)
        vid = self._leaf_table.get(key)
        if vid is None:
            vid = len(self._pid)
            self._leaf_table[key] = vid
            self._pid.append(p)
            self._depth.append(0)
            self._row.append(len(self._leaf_values))
            self._leaf_values.append(value)
            self._origin_mask.append(1 << p)
            self._origin_values.append(((p, value),))
            self._leaf_count += 1
        return vid

    def node(self, p: int, children: Iterable[int]) -> int:
        """Intern the view of ``p`` whose in-neighborhood saw ``children``.

        ``children`` are the ids of the previous-round views of ``p``'s
        in-neighbors (including ``p`` itself); they must all have the same
        depth.
        """
        self._check_pid(p)
        kids = tuple(sorted(set(children)))
        if not kids:
            raise AnalysisError("a non-leaf view needs at least its own previous view")
        h = _row_hash(kids)
        rid, slot = self._row_find(kids, h)
        if rid >= 0:
            vid = self._node_slots[rid * self.n + p]
            if vid >= 0:
                return vid
        # Validate *before* interning the row, so a rejected call leaves no
        # phantom row behind in the tables (or the stats).
        depths = {self._depth[c] for c in kids}
        if len(depths) != 1:
            raise AnalysisError(f"children of a view must share a depth, got {sorted(depths)}")
        mask = 0
        values: dict[int, object] = {}
        for c in kids:
            mask |= self._origin_mask[c]
            for q, value in self.origins(c):
                previous = values.setdefault(q, value)
                if previous != value:
                    raise AnalysisError(
                        f"inconsistent input values for process {q}: {previous!r} vs {value!r}"
                    )
        if rid < 0:
            rid = self._row_add(kids, h, slot, mask)
        vid = len(self._pid)
        self._node_slots[rid * self.n + p] = vid
        self._pid.append(p)
        self._depth.append(depths.pop() + 1)
        self._row.append(rid)
        self._origin_mask.append(mask)
        self._origin_values.append(
            tuple(sorted(values.items(), key=lambda kv: kv[0]))
        )
        return vid

    def leaf_level(self, inputs: Sequence) -> tuple[int, ...]:
        """Intern the whole time-0 level ``(leaf(0, x_0), ..., leaf(n-1, x_{n-1}))``."""
        if len(inputs) != self.n:
            raise AnalysisError(
                f"assignment of length {len(inputs)} for n={self.n} interner"
            )
        leaf_table = self._leaf_table
        leaf_table_get = leaf_table.get
        pids = self._pid
        leaf_values = self._leaf_values
        level = []
        for p, value in enumerate(inputs):
            key = (p, value)
            vid = leaf_table_get(key)
            if vid is None:
                vid = len(pids)
                leaf_table[key] = vid
                pids.append(p)
                self._depth.append(0)
                self._row.append(len(leaf_values))
                leaf_values.append(value)
                self._origin_mask.append(1 << p)
                self._origin_values.append(((p, value),))
                self._leaf_count += 1
            level.append(vid)
        return tuple(level)

    def extend_level(self, level: tuple[int, ...], graph: Digraph) -> tuple[int, ...]:
        """One synchronous round: the views of all processes after ``graph``.

        ``level`` must be the full view-id tuple of one prefix at some time
        ``t`` (so the children of each new view are mutually consistent by
        construction); the result is the level at time ``t + 1``.  Origin
        *values* of the new views are materialized lazily (only
        :meth:`origins` and :meth:`input_of` force them) — the prefix-space
        hot path needs only the origin masks.
        """
        return self._extend_batch(level, (graph,))[0]

    def extend_level_multi(
        self, level: tuple[int, ...], graphs: Sequence[Digraph]
    ) -> list[tuple[int, ...]]:
        """Extend one level by every graph of an alphabet in a single pass.

        Equivalent to ``[self.extend_level(level, g) for g in graphs]`` but
        shares the per-``(p, in-neighborhood)`` work across graphs: alphabets
        typically repeat in-rows (e.g. every graph in which ``p`` hears
        everyone produces the same view of ``p``), so each distinct row is
        interned once.
        """
        return self._extend_batch(level, graphs)

    def _alphabet_plan(self, graphs: Sequence[Digraph]) -> tuple:
        """The distinct ``(p, in-neighborhood)`` patterns of an alphabet.

        Alphabets repeat in-rows across their graphs (e.g. every graph in
        which ``p`` hears everyone shares a row); which rows coincide is a
        property of the *alphabet alone*, so the dedup is hoisted out of
        the per-parent hot loop and cached per graphs-tuple.  Returns
        ``(patterns, layouts, inlists, pats_of_inlist)``: the distinct
        patterns in first-occurrence order, per graph the pattern indices
        assembling its level, the distinct in-neighborhoods of the
        patterns, and per in-neighborhood the indices of the patterns it
        serves — the layer kernels share candidate-row work across owners
        through the last two.

        The cache is an LRU holding at most ``plan_cache_size`` entries,
        keyed by graphs-tuple (the adversary alphabets).  Real families
        use a handful of alphabets, so the working set fits the cap;
        eviction merely
        recomputes (plans are pure functions of the alphabet) and
        :class:`ViewStats` reports the live count as ``cached_plans``.
        """
        key = tuple(graphs)
        cache = self._plan_cache
        plan = cache.get(key)
        if plan is not None:
            if next(reversed(cache)) != key:
                # LRU touch: re-append as the most recently used entry.
                del cache[key]
                cache[key] = plan
            return plan
        patterns: list[tuple[int, tuple[int, ...]]] = []
        index_of: dict = {}
        layouts = []
        for graph in key:
            layout = []
            for p, in_list in enumerate(graph.in_neighbor_lists):
                pattern = (p, in_list)
                i = index_of.get(pattern)
                if i is None:
                    i = len(patterns)
                    index_of[pattern] = i
                    patterns.append(pattern)
                layout.append(i)
            layouts.append(layout)
        # Child rows depend on the in-neighborhood only, never on the
        # owner: group patterns by in-list so the layer kernels build
        # and dedup each candidate-row column once per in-list.
        inlist_index: dict = {}
        inlists: list[tuple[int, ...]] = []
        pats_of_inlist: list[list[int]] = []
        for pi, (_, in_list) in enumerate(patterns):
            s = inlist_index.get(in_list)
            if s is None:
                s = inlist_index[in_list] = len(inlists)
                inlists.append(in_list)
                pats_of_inlist.append([])
            pats_of_inlist[s].append(pi)
        plan = (
            patterns,
            layouts,
            tuple(inlists),
            tuple(tuple(pis) for pis in pats_of_inlist),
        )
        while len(cache) >= self.plan_cache_size:
            del cache[next(iter(cache))]
        cache[key] = plan
        return plan

    def _extend_batch(
        self, level: tuple[int, ...], graphs: Sequence[Digraph]
    ) -> list[tuple[int, ...]]:
        """Batched extension of one level (the per-parent columnar hot loop)."""
        patterns, layouts, _, _ = self._alphabet_plan(graphs)
        node_slots = self._node_slots
        row_masks = self._row_masks
        pids = self._pid
        pids_append = pids.append
        depths_append = self._depth.append
        row_col_append = self._row.append
        masks = self._origin_mask
        masks_append = masks.append
        values_append = self._origin_values.append
        row_find = self._row_find
        row_add = self._row_add
        depth = self._depth[level[0]] + 1
        n = self.n
        sorted_level: tuple[int, ...] | None = None
        vids = []
        vids_append = vids.append
        for p, in_list in patterns:
            size = len(in_list)
            if size == 2:
                a = level[in_list[0]]
                b = level[in_list[1]]
                kids = (a, b) if a < b else (b, a)
            elif size == 1:
                kids = (level[in_list[0]],)
            elif size == n:
                # Dense row: every pattern in which p hears everyone
                # shares the sorted full level.
                if sorted_level is None:
                    sorted_level = tuple(sorted(level))
                kids = sorted_level
            else:
                kids = tuple(sorted([level[q] for q in in_list]))
            h = _row_hash(kids)
            rid, slot = row_find(kids, h)
            if rid < 0:
                # Fresh row: the view cannot exist yet — allocate row and
                # view without re-reading the slot, folding the row mask
                # once for every future owner.
                mask = 0
                for c in kids:
                    mask |= masks[c]
                rid = row_add(kids, h, slot, mask)
                vid = len(pids)
                node_slots[rid * n + p] = vid
                pids_append(p)
                depths_append(depth)
                row_col_append(rid)
                masks_append(mask)
                values_append(None)
            else:
                slot_index = rid * n + p
                vid = node_slots[slot_index]
                if vid < 0:
                    # Every row-creation path stores the row mask, so a
                    # known row always has its mask on hand.
                    mask = row_masks[rid]
                    vid = len(pids)
                    node_slots[slot_index] = vid
                    pids_append(p)
                    depths_append(depth)
                    row_col_append(rid)
                    masks_append(mask)
                    values_append(None)
            vids_append(vid)
        return [tuple([vids[i] for i in layout]) for layout in layouts]

    # ------------------------------------------------------------------ #
    # The whole-layer extension kernel
    # ------------------------------------------------------------------ #

    def extend_layer_table(
        self,
        table: "LayerTable | Sequence[Sequence[int]]",
        graphs: Sequence[Digraph],
    ) -> list[LayerTable]:
        """Intern the successors of an entire layer, columns in — columns out.

        ``table`` is the :class:`LayerTable` of one layer (or any sequence
        of full length-``n`` levels, which is packed first); ``graphs`` the
        alphabet to extend every parent by.  Returns one :class:`LayerTable`
        per graph, aligned with the parents: ``result[j][i]`` is parent
        ``i`` extended by ``graphs[j]`` — element-wise equal to per-parent
        :meth:`extend_level_multi` calls, but the batch deduplicates parent
        levels, builds and dedups every candidate child row of the layer
        per distinct in-neighborhood, interns each distinct row once
        through the open-addressing row table, and allocates new views at
        unique-row granularity — without materializing any per-child level
        tuple.  The backend (numpy or pure Python) follows
        ``self.layer_backend``; tiny layers always run the per-parent loop.

        """
        graphs = tuple(graphs)
        if not isinstance(table, LayerTable):
            table = LayerTable.from_levels(self.n, [tuple(lv) for lv in table])
        if table.n != self.n:
            raise AnalysisError(
                f"layer table of n={table.n} levels for n={self.n} interner"
            )
        if len(table.ids) % self.n:
            raise AnalysisError(
                f"layer column of {len(table.ids)} ids is not a multiple of "
                f"n={self.n}"
            )
        if not graphs:
            return []
        if not len(table):
            return [LayerTable(self.n, array("q")) for _ in graphs]
        return [
            LayerTable(self.n, column)
            for column in self._extend_layer_columns(table, graphs)
        ]

    def extend_layer(
        self,
        levels: Sequence[tuple[int, ...]],
        graphs: Sequence[Digraph],
    ) -> list[list[tuple[int, ...]]]:
        """Tuple-returning batched layer extension (compat wrapper).

        Equivalent to :meth:`extend_layer_table` but accepts and returns
        per-level tuples: ``result[j][i]`` is ``levels[i]`` extended by
        ``graphs[j]``.

        Levels must be full (length ``n``) view-id tuples of one common
        depth, as produced by :meth:`leaf_level` or a previous extension;
        this hot-path contract is checked only cheaply.  Duplicate levels
        are fine: candidate rows dedup across the whole batch anyway.
        """
        graphs = tuple(graphs)
        if not graphs:
            return []
        levels = [
            level if type(level) is tuple else tuple(level) for level in levels
        ]
        if not levels:
            return [[] for _ in graphs]
        if len(levels[0]) != self.n:
            raise AnalysisError(
                f"level of length {len(levels[0])} for n={self.n} interner"
            )
        table = LayerTable.from_levels(self.n, levels)
        return [
            LayerTable(self.n, column).tolist()
            for column in self._extend_layer_columns(table, graphs)
        ]

    def _extend_layer_columns(
        self, table: LayerTable, graphs: tuple[Digraph, ...]
    ) -> list:
        """Dispatch one layer batch to the backend that wins at its size.

        Returns one flat view-id column per graph (``array('q')`` from the
        Python kernel, int64 numpy arrays from the vectorized one).
        """
        plan = self._alphabet_plan(graphs)
        count = len(table)
        cells = count * len(plan[0])
        if cells < _BATCH_MIN_CELLS:
            # Microscopic layers: batch bookkeeping costs more than the
            # plain per-parent loop it replaces.
            results = [
                self._extend_batch(table[i], graphs) for i in range(count)
            ]
            columns = []
            for j in range(len(graphs)):
                flat = array("q")
                for result in results:
                    flat.extend(result[j])
                columns.append(flat)
            return columns
        if (
            self.layer_backend == "numpy"
            and self.n <= _MASK_ARRAY_MAX_N
            and cells >= _NUMPY_MIN_CELLS
        ):
            workers = self._effective_workers(cells)
            if workers > 1:
                columns = self._extend_layer_numpy_mp(table, plan, workers)
                if columns is not None:
                    return columns
            return self._extend_layer_numpy(table, plan)
        return self._extend_layer_python(table, plan)

    def _effective_workers(self, cells: int) -> int:
        """Worker count actually usable for one layer dispatch.

        Resolves the interner's ``extension_workers`` knob against every
        graceful-fallback condition: layers below :data:`_MP_MIN_CELLS`,
        the :data:`_WORKER_CAP_ENV` environment cap (set to ``1`` inside
        process-pool sweep workers), and shared-memory availability.  A
        result of ``1`` means the serial kernel runs.
        """
        workers = self.extension_workers
        if workers <= 1 or cells < _MP_MIN_CELLS:
            return 1
        cap = os.environ.get(_WORKER_CAP_ENV)
        if cap is not None:
            try:
                workers = min(workers, int(cap))
            except ValueError:
                pass
        if workers <= 1:
            return 1
        from repro.core import parallel

        if not parallel.shared_memory_available():
            return 1
        return workers

    def _extend_layer_python(self, table: LayerTable, plan: tuple) -> list:
        """The batched pure-Python layer kernel.

        Same structure as the numpy backend — candidate rows dedup per
        in-neighborhood across the whole layer, views resolve at
        unique-row granularity — in plain loops over the flat layer
        column.  Small per-row key tuples are built transiently for the
        batch-local dedup dict; nothing tuple-shaped is stored or
        returned.
        """
        patterns, layouts, inlists, pats_of_inlist = plan
        n = self.n
        ids = plain_ids(table.ids)
        total = len(ids)
        depth = self._depth[ids[0]] + 1
        row_masks = self._row_masks
        node_slots = self._node_slots
        empty_row = self._empty_row
        masks = self._origin_mask
        pids = self._pid
        depth_col = self._depth
        row_col = self._row
        values = self._origin_values
        vid_arrs: list = [None] * len(patterns)
        for si, in_list in enumerate(inlists):
            k = len(in_list)
            # Column pass: candidate child row per parent, dedup in place.
            uniq_index: dict = {}
            uniq_rows: list[tuple[int, ...]] = []
            inv: list[int] = []
            uniq_setdefault = uniq_index.setdefault
            inv_append = inv.append
            uniq_append = uniq_rows.append
            if k == 1:
                q = in_list[0]
                for base in range(0, total, n):
                    kids = (ids[base + q],)
                    u = uniq_setdefault(kids, len(uniq_rows))
                    if u == len(uniq_rows):
                        uniq_append(kids)
                    inv_append(u)
            elif k == 2:
                qa, qb = in_list
                for base in range(0, total, n):
                    a = ids[base + qa]
                    b = ids[base + qb]
                    kids = (a, b) if a < b else (b, a)
                    u = uniq_setdefault(kids, len(uniq_rows))
                    if u == len(uniq_rows):
                        uniq_append(kids)
                    inv_append(u)
            elif k == n:
                for base in range(0, total, n):
                    kids = tuple(sorted(ids[base : base + n]))
                    u = uniq_setdefault(kids, len(uniq_rows))
                    if u == len(uniq_rows):
                        uniq_append(kids)
                    inv_append(u)
            else:
                for base in range(0, total, n):
                    kids = tuple(sorted([ids[base + q] for q in in_list]))
                    u = uniq_setdefault(kids, len(uniq_rows))
                    if u == len(uniq_rows):
                        uniq_append(kids)
                    inv_append(u)
            # Intern the distinct rows of this column once.  The probe
            # loop is inlined — one multiply-fold hash, linear probing,
            # arena compare on hash hits — because at deep layers most
            # distinct rows are globally fresh and per-row call overhead
            # dominates.
            urids: list[int] = []
            urids_append = urids.append
            slots = self._row_slots
            slot_mask = self._row_slot_mask
            hashes = self._row_hashes
            starts = self._row_starts
            data = self._row_data
            row_hash = _row_hash
            for kids in uniq_rows:
                h = row_hash(kids)
                idx = h & slot_mask
                while True:
                    rid = slots[idx]
                    if rid < 0:
                        rid = len(hashes)
                        data.extend(kids)
                        starts.append(len(data))
                        hashes.append(h)
                        slots[idx] = rid
                        node_slots.extend(empty_row)
                        mask = 0
                        for c in kids:
                            mask |= masks[c]
                        row_masks.append(mask)
                        if (rid + 2) * 3 >= len(slots) * 2:
                            self._row_rehash()
                            slots = self._row_slots
                            slot_mask = self._row_slot_mask
                        break
                    if hashes[rid] == h:
                        s = starts[rid]
                        if starts[rid + 1] - s == k:
                            for j in range(k):
                                if data[s + j] != kids[j]:
                                    break
                            else:
                                break
                    idx = (idx + 1) & slot_mask
                urids_append(rid)
            # Resolve (allocate) views per owner at unique-row scale.
            for pi in pats_of_inlist[si]:
                p = patterns[pi][0]
                vid_u: list[int] = []
                vid_u_append = vid_u.append
                for rid in urids:
                    slot = rid * n + p
                    vid = node_slots[slot]
                    if vid < 0:
                        vid = len(pids)
                        node_slots[slot] = vid
                        pids.append(p)
                        depth_col.append(depth)
                        row_col.append(rid)
                        masks.append(row_masks[rid])
                        values.append(None)
                    vid_u_append(vid)
                vid_arrs[pi] = array("q", [vid_u[u] for u in inv])
        # Interleave the per-pattern columns into one flat column per
        # graph: strided array-slice assignment, no per-child tuples.
        columns = []
        zeros = array("q", bytes(8 * total))
        for layout in layouts:
            out = zeros[:]
            for p, pi in enumerate(layout):
                out[p::n] = vid_arrs[pi]
            columns.append(out)
        return columns

    def _extend_layer_numpy(self, table: LayerTable, plan: tuple) -> list:
        """The vectorized layer kernel (numpy backend).

        Candidate rows of each in-neighborhood gather/sort as one int64
        matrix and dedup via ``np.unique`` on packed key columns; row
        hashes for the open-addressing probe are computed vectorized over
        the distinct rows, only the distinct rows touch the Python probe
        loop, fresh arena rows append in bulk, and view allocation happens
        in bulk on the interner's buffer-backed columns.  Views over those
        columns are strictly transient: every ``frombuffer`` window is
        dropped before the underlying array can resize.
        """
        np = _np
        level_matrix = table.array()
        depth = self._depth[int(level_matrix[0, 0])] + 1
        uniq_inv = [
            _candidate_uniq_inv(np, level_matrix, in_list)
            for in_list in plan[2]
        ]
        return self._finish_layer_numpy(np, plan, depth, uniq_inv)

    def _extend_layer_numpy_mp(
        self, table: LayerTable, plan: tuple, workers: int
    ):
        """The sharded front end of the vectorized kernel.

        Runs the per-in-neighborhood candidate dedup (the map phase of
        :meth:`_extend_layer_numpy`) across ``workers`` processes over
        shared-memory shards of the parent layer column, merges the
        per-shard dedups back into exactly the serial kernel's
        ``(uniq, inv)`` pairs, and hands them to the shared back half.
        The merge is canonical — distinct rows come back in the same
        lexicographic order regardless of shard count — so the interner
        mutations and output columns are bit-identical to the serial
        numpy kernel (see :mod:`repro.core.parallel`).

        Returns ``None`` when the map phase cannot run (shared-memory or
        pool failure); the dispatcher then falls back to the serial
        kernel, which recomputes from the untouched interner state.  The
        fallback is correct but silently serial, so it is counted
        (``stats().mp_fallbacks``) and surfaced as a ``RuntimeWarning``
        carrying the original cause — a sweep that lost its workers
        should look degraded, not healthy.
        """
        np = _np
        from repro.core import parallel

        level_matrix = np.ascontiguousarray(table.array())
        try:
            uniq_inv = parallel.map_layer_shards(
                level_matrix, plan[2], workers
            )
        except Exception as exc:
            self._mp_fallbacks += 1
            warnings.warn(
                f"sharded layer extension fell back to the serial kernel "
                f"(fallback #{self._mp_fallbacks}): "
                f"{type(exc).__name__}: {exc}",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        self._mp_dispatches += 1
        depth = self._depth[int(level_matrix[0, 0])] + 1
        return self._finish_layer_numpy(np, plan, depth, uniq_inv)

    def _finish_layer_numpy(
        self, np, plan: tuple, depth: int, uniq_inv: list
    ) -> list:
        """The reduce half of the vectorized kernel: intern and allocate.

        Consumes one ``(uniq, inv)`` candidate dedup per in-neighborhood
        — produced serially by :meth:`_extend_layer_numpy` or sharded by
        :meth:`_extend_layer_numpy_mp` — and performs every interner
        mutation: bulk row hashing, vectorized probe/insert into the row
        arena, bulk view allocation, and the final per-graph interleave.
        Identical inputs yield bit-identical interner state, which is the
        sharded path's correctness contract.
        """
        patterns, layouts, inlists, pats_of_inlist = plan
        n = self.n
        row_masks = self._row_masks
        node_slots = self._node_slots
        pids = self._pid
        depth_col = self._depth
        vid_cols: list = [None] * len(patterns)
        for si in range(len(inlists)):
            uniq, inv = uniq_inv[si]
            k = uniq.shape[1]
            # Bulk-hash the distinct rows (same fold as _row_hash), then
            # probe and insert entirely vectorized: the open-addressing
            # table is gathered through transient buffer windows, fresh
            # rows append to the arena in one contiguous copy, and slot
            # placement resolves collisions by iterated last-write-wins
            # scatter.  No per-row Python at all.
            hashes = _bulk_row_hashes(np, uniq, k)
            urid_arr, fresh_rows = self._intern_rows_numpy(np, uniq, hashes, k)
            if len(fresh_rows):
                mask_view = np.frombuffer(self._origin_mask, dtype=np.int64)
                fresh_masks = np.bitwise_or.reduce(
                    mask_view[uniq[fresh_rows]].reshape(len(fresh_rows), k),
                    axis=1,
                )
                del mask_view
                node_slots.extend(self._empty_row * len(fresh_rows))
                row_masks.frombytes(fresh_masks.tobytes())
            for pi in pats_of_inlist[si]:
                p = patterns[pi][0]
                cand_slots = urid_arr * n + p
                slot_view = np.frombuffer(node_slots, dtype=np.int64)
                vid_u = slot_view[cand_slots]
                del slot_view
                missing = np.flatnonzero(vid_u < 0)
                if len(missing):
                    count_missing = len(missing)
                    base = len(pids)
                    new_vids = np.arange(
                        base, base + count_missing, dtype=np.int64
                    )
                    missing_rids = urid_arr[missing]
                    pids.extend([p] * count_missing)
                    depth_col.extend([depth] * count_missing)
                    self._row.frombytes(missing_rids.tobytes())
                    row_mask_view = np.frombuffer(row_masks, dtype=np.int64)
                    self._origin_mask.frombytes(
                        row_mask_view[missing_rids].tobytes()
                    )
                    del row_mask_view
                    self._origin_values.extend([None] * count_missing)
                    slot_view = np.frombuffer(node_slots, dtype=np.int64)
                    slot_view[cand_slots[missing]] = new_vids
                    del slot_view
                    vid_u[missing] = new_vids
                vid_cols[pi] = vid_u[inv]
        # Interleave per-pattern columns into one flat int64 column per
        # graph — a stack/ravel, no per-child tuples and no tolist().
        return [
            np.stack([vid_cols[pi] for pi in layout], axis=1).reshape(-1)
            for layout in layouts
        ]

    def _check_pid(self, p: int) -> None:
        if not 0 <= p < self.n:
            raise AnalysisError(f"process id {p} outside 0..{self.n - 1}")

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    def pid(self, vid: int) -> int:
        """The process that owns view ``vid``."""
        return self._pid[vid]

    def depth(self, vid: int) -> int:
        """The time (round number) at which view ``vid`` is taken."""
        return self._depth[vid]

    def is_leaf(self, vid: int) -> bool:
        """Whether ``vid`` is a time-0 view."""
        return self._depth[vid] == 0

    def leaf_value(self, vid: int):
        """The input value of a time-0 view."""
        if not self.is_leaf(vid):
            raise AnalysisError(f"view {vid} is not a leaf")
        return self._leaf_values[self._row[vid]]

    def children(self, vid: int) -> frozenset[int]:
        """The previous-round views visible in ``vid`` (empty for leaves)."""
        if self.is_leaf(vid):
            return frozenset()
        rid = self._row[vid]
        starts = self._row_starts
        return frozenset(self._row_data[starts[rid] : starts[rid + 1]])

    def child_row(self, vid: int) -> tuple[int, ...]:
        """The sorted interned child tuple of a non-leaf view."""
        if self.is_leaf(vid):
            raise AnalysisError(f"view {vid} is a leaf and has no child row")
        return self._row_tuple(self._row[vid])

    def origin_mask(self, vid: int) -> int:
        """Bitmask of processes whose initial node lies in the causal past."""
        return self._origin_mask[vid]

    def origins(self, vid: int) -> tuple:
        """Sorted tuple of ``(q, x_q)`` pairs visible in the causal past."""
        cached = self._origin_values[vid]
        if cached is None:
            cached = self._force_origins(vid)
        return cached

    def _force_origins(self, vid: int) -> tuple:
        """Materialize lazily-deferred origin values (fast-path views only).

        Views created through :meth:`extend_level` defer the value merge;
        their children are mutually consistent by construction, so a plain
        union suffices.
        """
        values = self._origin_values
        row_data = self._row_data
        row_starts = self._row_starts
        row_col = self._row
        merged: dict[int, object] = {}
        stack = [vid]
        seen = {vid}
        pending: list[int] = []
        while stack:
            current = stack.pop()
            if values[current] is None:
                pending.append(current)
                rid = row_col[current]
                for child in row_data[row_starts[rid] : row_starts[rid + 1]]:
                    if child not in seen:
                        seen.add(child)
                        stack.append(child)
            else:
                merged.update(values[current])
        # Fill in post-order so deeper views are cached too.
        for current in reversed(pending):
            mask = self._origin_mask[current]
            entry = tuple(
                (q, merged[q]) for q in range(self.n) if mask >> q & 1
            )
            values[current] = entry
        return values[vid]

    def knows_input_of(self, vid: int, q: int) -> bool:
        """Whether the causal past of ``vid`` contains ``(q, 0, x_q)``."""
        return bool(self._origin_mask[vid] >> q & 1)

    def input_of(self, vid: int, q: int):
        """The input value of ``q`` as recorded in the causal past of ``vid``."""
        for owner, value in self.origins(vid):
            if owner == q:
                return value
        raise AnalysisError(f"view {vid} has not heard of process {q}")

    def stats(self) -> ViewStats:
        """Summary statistics and table geometry of the interner's contents."""
        total = len(self._pid)
        max_depth = max(self._depth) if total else 0
        getsizeof = sys.getsizeof
        approx = (
            getsizeof(self._pid)
            + getsizeof(self._depth)
            + getsizeof(self._row)
            + getsizeof(self._origin_mask)
            + getsizeof(self._origin_values)
            + getsizeof(self._leaf_table)
            + getsizeof(self._leaf_values)
            + getsizeof(self._node_slots)
            + getsizeof(self._row_data)
            + getsizeof(self._row_starts)
            + getsizeof(self._row_hashes)
            + getsizeof(self._row_slots)
            + getsizeof(self._row_masks)
        )
        # The forced origin-value tuples; child ids live flat in the arena
        # (already counted above) and shared small ints are not charged.
        tuple_header = getsizeof(())
        for entry in self._origin_values:
            if entry is not None:
                approx += tuple_header + len(entry) * (tuple_header + 16)
        # The per-alphabet extension plans: graphs-tuple keys plus the
        # pattern/layout/in-list structures (an LRU capped at
        # ``plan_cache_size``; the stats report the live entries).
        approx += getsizeof(self._plan_cache)
        for key, (patterns, layouts, inlists, pats) in self._plan_cache.items():
            approx += tuple_header + 8 * len(key)
            for _, in_list in patterns:
                approx += 2 * tuple_header + 16 + 8 * len(in_list)
            for layout in layouts:
                approx += getsizeof(layout)
            for in_list in inlists:
                approx += tuple_header + 8 * len(in_list)
            for pis in pats:
                approx += tuple_header + 8 * len(pis)
        return ViewStats(
            total,
            self._leaf_count,
            max_depth,
            rows=len(self._row_hashes),
            cached_plans=len(self._plan_cache),
            approx_bytes=approx,
            mp_fallbacks=self._mp_fallbacks,
        )

    def __len__(self) -> int:
        return len(self._pid)

    # ------------------------------------------------------------------ #
    # Causal-cone reconstruction (used by viz and by the test suite)
    # ------------------------------------------------------------------ #

    def cone(self, vid: int) -> tuple[set, set]:
        """The causal past of ``vid`` as explicit process-time nodes/edges.

        Returns ``(nodes, edges)`` where nodes are ``(q, s)`` pairs (``s`` the
        time coordinate, with ``s = 0`` nodes standing for ``(q, 0, x_q)``)
        and edges are ``((q, s), (r, s + 1))`` pairs.  The apex is
        ``(pid(vid), depth(vid))``.
        """
        nodes: set = set()
        edges: set = set()
        seen: set[int] = set()
        stack = [vid]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            p, d = self._pid[current], self._depth[current]
            nodes.add((p, d))
            for child in self.children(current):
                edges.add(((self._pid[child], d - 1), (p, d)))
                stack.append(child)
        return nodes, edges
