"""Decision tables: the executable form of the universal algorithm.

Theorem 5.5's universal algorithm decides as soon as the ``2^{-t}``-ball
around the sequences compatible with the local view is contained in one
decision set.  Once a certification depth ``t`` and a value assignment to
the depth-``t`` components are fixed, that rule becomes a pure lookup:

* a process's view at depth ``t`` determines the component of every
  compatible admissible prefix, hence the decision value;
* a view at an earlier depth ``s < t`` determines a *set* of reachable
  depth-``t`` components; when all of them carry the same value the ball is
  already contained in one decision set and the process may decide early —
  this is exactly the paper's decision rule, evaluated eagerly.

:class:`DecisionTable` materializes both maps and validates itself against
the prefix space (agreement, validity, termination by round ``t``).

Columnar construction
---------------------
:func:`build_decision_table` folds directly over the layer columns: the
per-prefix component-id column of the
:class:`~repro.topology.components.ComponentAnalysis` becomes a per-prefix
value-bit column, the final map reads the depth-``t`` factored view keys
(:meth:`~repro.topology.prefixspace.PrefixSpace.view_keys`: one key per
(prefix, process) cell, in bijection with the full views), and the early
map pushes value bitmaps bottom-up through the word-parent columns — per
layer one ``np.unique`` + ``reduceat`` fold on the numpy backend, one flat
loop on pure Python.  Both maps are keyed by factored keys;
:meth:`DecisionTable.decision_for_view` keeps the full-view-id interface
of the universal algorithm by translating through the interner.  No
:class:`~repro.topology.prefixspace.PrefixNode` is ever materialized
except to format a validation error.
"""

from __future__ import annotations

from repro.consensus.spec import STRONG, ConsensusSpec
from repro.core.views import int64_column, numpy_module, plain_ids
from repro.errors import AnalysisError, CertificateError
from repro.topology.components import ComponentAnalysis
from repro.topology.prefixspace import PrefixSpace

__all__ = ["DecisionTable", "build_decision_table"]


#: Below this many (prefix, process) cells at the certification depth the
#: per-layer unique/reduceat folds lose to the plain dict loops.
_DECISION_NUMPY_MIN_CELLS = 2048

#: The vectorized validation looks decisions up in a dense table over the
#: layer's key range when the range is at most this many times the number
#: of (prefix, process) cells, else by binary search.  Measured (2-core
#: x86, numpy 2.4): the dense lookup is 12-28x faster at a range of one
#: cell count (70k-500k cells), 10x at 16 and 1.2x at 64; inside the
#: check-deep checks it takes 55-72 ms against 213-236 ms for binary search
#: (three alternating runs), at ranges up to 0.14 cell counts.  The factor
#: caps the table at 8 int64 slots per cell: on a shared interner a
#: layer's word views can be interned far apart (a 4-graph oblivious n=4
#: space after Santoro-Widmayer n=4 reads 9.2 at 4096 cells, 152 at 256).
_DENSE_SPAN_FACTOR = 8

#: The vectorized folds encode value sets as int64 bitmaps; instances with
#: more distinct decision values than this fall back to the Python maps
#: (whose bitmaps are arbitrary-precision ints).
_NUMPY_MAX_VALUES = 62


def _use_numpy_maps(space, store, value_count: int) -> bool:
    """Whether the vectorized decision folds should run for this layer."""
    np = numpy_module()
    return (
        np is not None
        and space.interner.layer_backend == "numpy"
        and value_count <= _NUMPY_MAX_VALUES
        and len(store) * space.adversary.n >= _DECISION_NUMPY_MIN_CELLS
        and space.keys_fit_int64()
    )


class DecisionTable:
    """View-to-value decision map certified at a given depth.

    Attributes
    ----------
    depth:
        The certification depth ``t`` (every process decides by round
        ``t``).
    assignment:
        Component id -> decision value at depth ``t``.
    final:
        Factored view key (at depth ``t``) -> decision value.
    early:
        Factored view key (any depth ``<= t``) -> decision value, present
        only when the value is already determined (the ε-ball rule).

    The keys are those of
    :meth:`~repro.topology.prefixspace.PrefixSpace.view_key`, one per full
    view; look full view ids up through :meth:`decision_for_view`.
    """

    __slots__ = ("space", "depth", "spec", "assignment", "final", "early")

    def __init__(
        self,
        space: PrefixSpace,
        depth: int,
        spec: ConsensusSpec,
        assignment: dict[int, object],
        final: dict[int, object],
        early: dict[int, object],
    ) -> None:
        self.space = space
        self.depth = depth
        self.spec = spec
        self.assignment = assignment
        self.final = final
        self.early = early

    # ------------------------------------------------------------------ #
    # Lookup interface (used by the universal algorithm)
    # ------------------------------------------------------------------ #

    def decision_for_view(self, view_id: int):
        """The decided value for a view, or None when not yet determined.

        Accepts full view ids of any depth up to the certification depth;
        views at the certification depth always decide.  The id translates
        to its factored key through the interner's memoized input-free
        lookup.
        """
        key = self.space.view_key(view_id)
        return None if key is None else self.early.get(key)

    def decided_values(self) -> frozenset:
        """All values the table can output."""
        return frozenset(self.assignment.values())

    # ------------------------------------------------------------------ #
    # Self-validation (executable Theorem 5.5 correctness argument)
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Check termination, agreement, and validity over the prefix space.

        Raises :class:`CertificateError` on any violation; passing is an
        end-to-end check of the universal construction at this depth.
        Runs columnar on the numpy backend (one lookup of the
        layer's factored keys) with the flat Python loop as the fallback;
        nodes are only materialized to format a failure.
        """
        space = self.space
        store = space.layer_store(self.depth)
        value_count = len(self.decided_values())
        if _use_numpy_maps(space, store, value_count) and len(self.early) > 0:
            self._validate_numpy(numpy_module(), store)
        else:
            self._validate_python(store)
        # Early decisions must be consistent with final ones.
        for view, value in self.final.items():
            if self.early.get(view) != value:
                raise CertificateError("early/final decision mismatch")

    def _validate_python(self, store) -> None:
        space = self.space
        unanimity = space.unanimity_by_index
        input_vectors = space.input_vectors
        strong = self.spec.validity == "strong"
        early_get = self.early.get
        missing = object()
        n = space.adversary.n
        keys = plain_ids(space.view_keys(self.depth))
        for index in range(len(store)):
            base = index * n
            value = early_get(keys[base], missing)
            for p in range(n):
                decided = early_get(keys[base + p], missing)
                if decided is missing:
                    raise CertificateError(
                        f"termination violation: no decision for process {p} "
                        f"in {space.node(self.depth, index)!r}"
                    )
                if decided != value:
                    raise CertificateError(
                        f"agreement violation in "
                        f"{space.node(self.depth, index)!r}: "
                        f"{{{value!r}, {decided!r}}}"
                    )
            input_index = index // store.width
            unanimous = unanimity[input_index]
            if unanimous is not None and value != unanimous:
                raise CertificateError(
                    f"validity violation in {space.node(self.depth, index)!r}: "
                    f"decided {value!r}"
                )
            if strong and value not in input_vectors[input_index]:
                raise CertificateError(
                    f"strong validity violation in "
                    f"{space.node(self.depth, index)!r}: decided {value!r}"
                )

    def _validate_numpy(self, np, store) -> None:
        space = self.space
        value_list = sorted(set(self.early.values()), key=repr)
        code_of = {value: i for i, value in enumerate(value_list)}
        # Value code per layer key (-1 = undecided): a dense table over
        # the layer's key range when it is compact, else a binary search
        # over the sorted decided keys.
        early_keys = np.fromiter(self.early.keys(), dtype=np.int64, count=len(self.early))
        early_codes = np.fromiter(
            (code_of[value] for value in self.early.values()),
            dtype=np.int64,
            count=len(self.early),
        )
        keys = int64_column(space.view_keys(self.depth)).reshape(len(store), -1)
        low = int(keys.min())
        span = int(keys.max()) - low + 1
        if span <= _DENSE_SPAN_FACTOR * keys.size:
            dense = np.full(span, -1, dtype=np.int64)
            inside = (early_keys >= low) & (early_keys < low + span)
            dense[early_keys[inside] - low] = early_codes[inside]
            codes = dense[keys - low]
            del dense, inside
        else:
            order = np.argsort(early_keys)
            early_keys = early_keys[order]
            early_codes = early_codes[order]
            pos = np.minimum(np.searchsorted(early_keys, keys), len(early_keys) - 1)
            codes = np.where(early_keys[pos] == keys, early_codes[pos], -1)
            del pos
        del keys
        undecided = codes < 0
        if undecided.any():
            index, p = np.argwhere(undecided)[0]
            raise CertificateError(
                f"termination violation: no decision for process {int(p)} "
                f"in {space.node(self.depth, int(index))!r}"
            )
        first = codes[:, :1]
        disagree = (codes != first).any(axis=1)
        if disagree.any():
            index = int(np.flatnonzero(disagree)[0])
            row = codes[index]
            raise CertificateError(
                f"agreement violation in "
                f"{space.node(self.depth, index)!r}: "
                f"{{{value_list[int(row[0])]!r}, "
                f"{value_list[int(row[row != row[0]][0])]!r}}}"
            )
        # Prefix x * W + w: the node codes as an (inputs, words) matrix.
        node_codes = first.reshape(store.inputs, store.width)
        # Validity: unanimity forces the value; strong validity requires
        # membership in the member's input assignment.
        unanimity = space.unanimity_by_index
        unan_codes = np.array(
            [code_of.get(value, -1) if value is not None else -2 for value in unanimity],
            dtype=np.int64,
        )
        expected = unan_codes[:, None]
        bad = ((expected != -2) & (expected != node_codes)).reshape(-1)
        if bad.any():
            index = int(np.flatnonzero(bad)[0])
            raise CertificateError(
                f"validity violation in {space.node(self.depth, index)!r}: "
                f"decided {value_list[int(node_codes.flat[index])]!r}"
            )
        if self.spec.validity == "strong":
            input_vectors = space.input_vectors
            allowed_bits = np.array(
                [
                    sum(
                        1 << code_of[v]
                        for v in set(vec)
                        if v in code_of
                    )
                    for vec in input_vectors
                ],
                dtype=np.int64,
            )
            node_bits = np.left_shift(1, node_codes)
            bad = ((allowed_bits[:, None] & node_bits) == 0).reshape(-1)
            if bad.any():
                index = int(np.flatnonzero(bad)[0])
                raise CertificateError(
                    f"strong validity violation in "
                    f"{space.node(self.depth, index)!r}: decided "
                    f"{value_list[int(node_codes.flat[index])]!r}"
                )

    def decision_round_for(self, node) -> int:
        """The earliest round at which all processes have decided in a prefix."""
        n = self.space.adversary.n
        last = 0
        for p in range(n):
            for s in range(self.depth + 1):
                if self.decision_for_view(node.prefix.view(p, s)) is not None:
                    last = max(last, s)
                    break
            else:
                raise CertificateError("process never decides")
        return last

    def __repr__(self) -> str:
        return (
            f"DecisionTable(depth={self.depth}, components={len(self.assignment)}, "
            f"views={len(self.early)})"
        )


def build_decision_table(
    analysis: ComponentAnalysis, spec: ConsensusSpec
) -> DecisionTable:
    """Assign values to components and derive the view decision maps.

    Raises :class:`~repro.errors.AnalysisError` (via the spec) when some
    component admits no value — i.e. when consensus is not certified at
    this depth.
    """
    space = analysis.space
    depth = analysis.depth
    assignment = _assign_values(analysis, spec)
    # Value sets are encoded as bitmaps over the (small, finite) set of
    # assigned values; both backends share the coding.
    value_list = sorted(set(assignment.values()), key=repr)
    bit_of = {value: 1 << i for i, value in enumerate(value_list)}
    if _use_numpy_maps(space, space.layer_store(depth), len(value_list)):
        final, early = _decision_maps_numpy(
            numpy_module(), space, depth, analysis, assignment, value_list, bit_of
        )
    else:
        final, early = _decision_maps_python(
            space, depth, analysis, assignment, value_list, bit_of
        )
    table = DecisionTable(space, depth, spec, assignment, final, early)
    table.validate()
    return table


def _assign_values(analysis: ComponentAnalysis, spec: ConsensusSpec) -> dict:
    """Value per component id, columnar when the spec allows it.

    The vectorized pass below reproduces :meth:`ConsensusSpec.pick_value`
    for the library spec; subclasses overriding ``pick_value`` or
    ``allowed_values`` keep the per-component calls (their overrides must
    observe every component).  The columnar pass also needs the numpy
    backend and the domain to fit the int64 value bitmaps.  It runs after
    either component pass: on the layers below the vectorized pass's cell
    floor it costs 10-30 us more than the scalar picks under 32 word cells
    and 10-30% less from 64 on (sweep-family and check-deep layers, 2-core
    x86).
    """
    np = numpy_module()
    if (
        np is None
        or type(spec).pick_value is not ConsensusSpec.pick_value
        or type(spec).allowed_values is not ConsensusSpec.allowed_values
        or analysis.space.interner.layer_backend != "numpy"
        or len(spec.domain) > _NUMPY_MAX_VALUES
    ):
        return {
            component.id: spec.pick_value(component)
            for component in analysis.components
        }
    return _assign_values_numpy(np, analysis, spec)


#: Distinct-from-everything marker for the vectorized tie-break (``None``
#: is a legitimate input value, so it cannot signal "nothing chosen yet").
_NO_VALUE = object()


def _assign_values_numpy(np, analysis: ComponentAnalysis, spec: ConsensusSpec) -> dict:
    """Whole-layer value assignment: forced valences + broadcaster pass.

    Every member of a component ``K × C`` carries an input vector of its
    class ``K``, so everything :meth:`ConsensusSpec.pick_value` asks
    member-by-member folds once per input class with ``reduceat``: the
    strong-validity allowed sets (AND of per-input-vector value bitmaps)
    and each broadcaster's input value (min/max folds over per-process
    value codes, equal iff constant — the Theorem 5.9 check).  Preference
    order, raised errors, and chosen values match the scalar path
    exactly; only components whose allowed set stays ambiguous take the
    (cheap) per-component tie-break loop.
    """
    space = analysis.space
    components = analysis.components
    ncomp = len(components)
    classes = analysis.input_classes
    component_classes = analysis.component_classes
    class_inputs = np.fromiter(
        (x for members in classes for x in members), dtype=np.int64
    )
    class_starts = np.cumsum(
        [0] + [len(members) for members in classes[:-1]], dtype=np.int64
    )
    input_vectors = space.input_vectors
    domain = spec.domain
    code_of = {value: i for i, value in enumerate(domain)}
    assignment: dict = {}
    allowed_sets: dict[int, frozenset] = {}
    pending: list[int] = []
    if spec.validity == STRONG:
        vec_bits = np.fromiter(
            (
                sum(1 << code_of[v] for v in set(vec) if v in code_of)
                for vec in input_vectors
            ),
            dtype=np.int64,
            count=len(input_vectors),
        )
        allowed_bits = np.bitwise_and.reduceat(
            vec_bits[class_inputs], class_starts
        ).tolist()
        for cid in range(ncomp):
            bits = allowed_bits[component_classes[cid]]
            component = components[cid]
            if not bits:
                raise AnalysisError(
                    f"component {component.id} admits no decision value "
                    f"(valences {set(component.valences)})"
                )
            if bits & (bits - 1) == 0:
                assignment[component.id] = domain[bits.bit_length() - 1]
            else:
                allowed_sets[cid] = frozenset(
                    value for i, value in enumerate(domain) if bits >> i & 1
                )
                pending.append(cid)
    else:
        full = frozenset(domain)
        for cid in range(ncomp):
            component = components[cid]
            valences = component.valences
            if not valences:
                allowed_sets[cid] = full
                pending.append(cid)
            elif len(valences) == 1:
                assignment[component.id] = next(iter(valences))
            else:
                raise AnalysisError(
                    f"component {component.id} admits no decision value "
                    f"(valences {set(valences)})"
                )
    if pending:
        # Per-process broadcaster folds, computed lazily (at most n of
        # them) and shared by every pending component.
        stats_cache: dict[int, tuple] = {}

        def broadcaster_stats(p: int) -> tuple:
            stats = stats_cache.get(p)
            if stats is None:
                codes = np.empty(len(input_vectors), dtype=np.int64)
                index_of: dict = {}
                uniq_values: list = []
                for i, vec in enumerate(input_vectors):
                    value = vec[p]
                    code = index_of.get(value)
                    if code is None:
                        code = index_of[value] = len(uniq_values)
                        uniq_values.append(value)
                    codes[i] = code
                class_codes = codes[class_inputs]
                stats = stats_cache[p] = (
                    uniq_values,
                    np.minimum.reduceat(class_codes, class_starts).tolist(),
                    np.maximum.reduceat(class_codes, class_starts).tolist(),
                )
            return stats

        for cid in pending:
            component = components[cid]
            allowed = allowed_sets[cid]
            chosen = _NO_VALUE
            k = component_classes[cid]
            for p in sorted(component.broadcasters):
                uniq_values, lo, hi = broadcaster_stats(p)
                if lo[k] != hi[k]:
                    # Non-constant broadcaster: delegate to the class scan
                    # for the exact Theorem 5.9 violation error.
                    component.broadcaster_value(p)
                value = uniq_values[lo[k]]
                if value in allowed:
                    chosen = value
                    break
            if chosen is _NO_VALUE:
                for value in domain:
                    if value in allowed:
                        chosen = value
                        break
            assignment[component.id] = chosen
    return assignment


def _decision_maps_python(
    space, depth, analysis, assignment, value_list, bit_of
) -> tuple[dict, dict]:
    """Bottom-up decision maps over the factored layer columns (pure Python).

    The value set of a view is the union over its depth-``t`` descendants,
    pushed through the word-parent columns layer by layer (prefix
    ``x * W + w`` has parent ``x * W' + parent(w)``), so the whole map
    costs O(total views) instead of O(nodes * depth).
    """
    n = space.adversary.n
    # Final map: every view occurring at the certification depth.
    comp_values = [assignment[c.id] for c in analysis.components]
    comp_bits = [bit_of[value] for value in comp_values]
    value_bits = [comp_bits[cid] for cid in analysis.comp_ids]
    final: dict[int, object] = {}
    keys = plain_ids(space.view_keys(depth))
    for index, bits in enumerate(value_bits):
        value = value_list[bits.bit_length() - 1]
        base = index * n
        for key in keys[base : base + n]:
            final[key] = value
    # Early map, bottom-up through the word-parent columns.
    possible: dict[int, int] = {}
    possible_get = possible.get
    for s in range(depth, -1, -1):
        level_store = space.layer_store(s)
        keys = plain_ids(space.view_keys(s))
        base = 0
        for bits in value_bits:
            for key in keys[base : base + n]:
                possible[key] = possible_get(key, 0) | bits
            base += n
        if s:
            width = level_store.width
            parent_width = level_store.parent_width
            word_parents = plain_ids(level_store.word_parents)
            parent_bits = [0] * (level_store.inputs * parent_width)
            for x in range(level_store.inputs):
                row = value_bits[x * width : (x + 1) * width]
                offset = x * parent_width
                for wp, bits in zip(word_parents, row):
                    parent_bits[offset + wp] |= bits
            value_bits = parent_bits
    early = {
        key: value_list[bits.bit_length() - 1]
        for key, bits in possible.items()
        if bits and bits & (bits - 1) == 0
    }
    return final, early


def _decision_maps_numpy(
    np, space, depth, analysis, assignment, value_list, bit_of
) -> tuple[dict, dict]:
    """Vectorized decision maps, grouped by word view before input class.

    A key is ``word_view * R + projection``.  Per layer the ``W * n`` word
    cells sort by word view (no sort over the ``|X| * W * n`` keys), the
    value bits OR per word view across every input row at once, and then,
    per origin mask, across the projection classes of the input vectors
    (:meth:`~repro.topology.prefixspace.PrefixSpace.projection_classes`,
    the classes the component analysis links inputs by).  Keys of
    different depths never collide, so the per-layer ``(key, OR of value
    bits)`` pairs concatenate into the early map without cross-layer
    merging; the parent push is a segment OR over the
    (parent-major-sorted) word-parent column, applied to every input row
    of the ``(inputs, words)`` value-bit matrix at once.
    """
    store = space.layer_store(depth)
    comp_bits = np.array(
        [bit_of[assignment[c.id]] for c in analysis.components], dtype=np.int64
    )
    comp_ids = analysis.comp_ids
    if not isinstance(comp_ids, np.ndarray):
        comp_ids = np.array(comp_ids, dtype=np.int64)
    value_bits = comp_bits[comp_ids].reshape(store.inputs, store.width)
    n = space.adversary.n
    radix = space.key_radix
    origin_masks = np.frombuffer(space.interner._origin_mask, dtype=np.int64)
    final: dict[int, object] = {}
    all_keys: list = []
    all_bits: list = []
    for s in range(depth, -1, -1):
        level_store = space.layer_store(s)
        cells = level_store.word_levels.array().reshape(-1)
        order = np.argsort(cells)
        views, starts = _segments(np, cells[order])
        view_bits = np.bitwise_or.reduceat(value_bits[:, order // n], starts, axis=1)
        masks = origin_masks[views]
        by_mask = np.argsort(masks, kind="stable")
        mask_values, mask_starts = _segments(np, masks[by_mask])
        layer_keys: list = []
        layer_bits: list = []
        for mask, columns in zip(
            mask_values.tolist(), np.split(by_mask, mask_starts[1:])
        ):
            class_of, projections = space.projection_classes(mask)
            bits = view_bits[:, columns]
            if len(projections) < len(class_of):
                inputs_by_class = np.argsort(class_of, kind="stable")
                _, class_starts = _segments(
                    np, np.asarray(class_of, dtype=np.int64)[inputs_by_class]
                )
                bits = np.bitwise_or.reduceat(bits[inputs_by_class], class_starts)
            layer_keys.append(
                (
                    views[columns][None, :] * radix
                    + np.asarray(projections, dtype=np.int64)[:, None]
                ).reshape(-1)
            )
            layer_bits.append(bits.reshape(-1))
        keys = np.concatenate(layer_keys)
        bits = np.concatenate(layer_bits)
        all_keys.append(keys)
        all_bits.append(bits)
        if s == depth:
            # The depth-t views are single-valued by construction; they
            # are exactly the final map.
            final_codes = _bit_codes(np, bits)
            final = {
                key: value_list[code]
                for key, code in zip(keys.tolist(), final_codes.tolist())
            }
        if s:
            parents = int64_column(level_store.word_parents)
            _, seg_starts = _segments(np, parents)
            parent_bits = np.zeros(
                (level_store.inputs, level_store.parent_width), dtype=np.int64
            )
            parent_bits[:, parents[seg_starts]] = np.bitwise_or.reduceat(
                value_bits, seg_starts, axis=1
            )
            value_bits = parent_bits
    keys = np.concatenate(all_keys)
    bits = np.concatenate(all_bits)
    # Single-bit AND nonzero: a view reachable only through dead-end
    # prefixes (a state group with no admissible extensions) accumulates
    # bits 0 and must stay undecided, exactly as on the Python path.
    decided = (bits != 0) & ((bits & (bits - 1)) == 0)
    decided_keys = keys[decided]
    decided_codes = _bit_codes(np, bits[decided])
    early = {
        key: value_list[code]
        for key, code in zip(decided_keys.tolist(), decided_codes.tolist())
    }
    return final, early


def _segments(np, column):
    """The run heads of a grouped column and the index where each run starts."""
    boundary = np.empty(len(column), dtype=bool)
    boundary[0] = True
    np.not_equal(column[1:], column[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    return column[starts], starts


def _bit_codes(np, bits):
    """Index of the highest set bit per entry (entries are single-bit)."""
    codes = np.zeros(len(bits), dtype=np.int64)
    shifted = bits >> 1
    while shifted.any():
        nonzero = shifted > 0
        codes[nonzero] += 1
        shifted = shifted >> 1
    return codes
