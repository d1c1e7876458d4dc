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
value-bit column, the final map reads the depth-``t``
:class:`~repro.core.views.LayerTable` flat column, and the early map pushes
value bitmaps bottom-up through the parent-index columns — per layer one
``np.unique`` + ``reduceat`` fold on the numpy backend, one flat loop on
pure Python.  No :class:`~repro.topology.prefixspace.PrefixNode` is ever
materialized except to format a validation error.
"""

from __future__ import annotations

from repro.consensus.spec import STRONG, ConsensusSpec
from repro.core.views import numpy_module, plain_ids
from repro.errors import AnalysisError, CertificateError
from repro.topology.components import ComponentAnalysis
from repro.topology.prefixspace import PrefixSpace

__all__ = ["DecisionTable", "build_decision_table"]


#: Below this many (prefix, process) cells at the certification depth the
#: per-layer unique/reduceat folds lose to the plain dict loops.
_DECISION_NUMPY_MIN_CELLS = 2048

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
        and len(store) * store.levels.n >= _DECISION_NUMPY_MIN_CELLS
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
        View id (at depth ``t``) -> decision value.
    early:
        View id (any depth ``<= t``) -> decision value, present only when
        the value is already determined (the ε-ball rule).
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

        Accepts views of any depth up to the certification depth; views at
        the certification depth always decide.
        """
        return self.early.get(view_id)

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
        Runs columnar on the numpy backend (one gather over the layer's
        flat view column) with the flat Python loop as the fallback; nodes
        are only materialized to format a failure.
        """
        space = self.space
        store = space.layer_store(self.depth)
        table = store.levels
        value_count = len(self.decided_values())
        if _use_numpy_maps(space, store, value_count) and len(self.early) > 0:
            self._validate_numpy(numpy_module(), store, table)
        else:
            self._validate_python(store, table)
        # Early decisions must be consistent with final ones.
        for view, value in self.final.items():
            if self.early.get(view) != value:
                raise CertificateError("early/final decision mismatch")

    def _validate_python(self, store, table) -> None:
        space = self.space
        unanimity = space.unanimity_by_index
        input_vectors = space.input_vectors
        strong = self.spec.validity == "strong"
        early_get = self.early.get
        missing = object()
        input_idx = store.input_idx
        n = table.n
        ids = plain_ids(table.ids)
        for index in range(len(table)):
            base = index * n
            value = early_get(ids[base], missing)
            for p in range(n):
                decided = early_get(ids[base + p], missing)
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
            input_index = input_idx[index]
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

    def _validate_numpy(self, np, store, table) -> None:
        space = self.space
        value_list = sorted(set(self.early.values()), key=repr)
        code_of = {value: i for i, value in enumerate(value_list)}
        # Dense view-id -> value-code column over the decided views.
        interner_size = len(space.interner)
        vid_codes = np.full(interner_size, -1, dtype=np.int64)
        early_vids = np.fromiter(self.early.keys(), dtype=np.int64, count=len(self.early))
        early_codes = np.fromiter(
            (code_of[value] for value in self.early.values()),
            dtype=np.int64,
            count=len(self.early),
        )
        vid_codes[early_vids] = early_codes
        mat = table.array()
        codes = vid_codes[mat]
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
        node_codes = first.reshape(-1)
        # Validity: unanimity forces the value; strong validity requires
        # membership in the member's input assignment.
        unanimity = space.unanimity_by_index
        unan_codes = np.array(
            [code_of.get(value, -1) if value is not None else -2 for value in unanimity],
            dtype=np.int64,
        )
        input_idx = store.input_array()
        expected = unan_codes[input_idx]
        bad = (expected != -2) & (expected != node_codes)
        if bad.any():
            index = int(np.flatnonzero(bad)[0])
            raise CertificateError(
                f"validity violation in {space.node(self.depth, index)!r}: "
                f"decided {value_list[int(node_codes[index])]!r}"
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
            bad = (allowed_bits[input_idx] & node_bits) == 0
            if bad.any():
                index = int(np.flatnonzero(bad)[0])
                raise CertificateError(
                    f"strong validity violation in "
                    f"{space.node(self.depth, index)!r}: decided "
                    f"{value_list[int(node_codes[index])]!r}"
                )

    def decision_round_for(self, node) -> int:
        """The earliest round at which all processes have decided in a prefix."""
        n = self.space.adversary.n
        last = 0
        for p in range(n):
            for s in range(self.depth + 1):
                if node.prefix.view(p, s) in self.early:
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
    observe every component).  The columnar pass also needs the
    vectorized component analysis to have run (``comp_ids`` is then an
    int64 column) and the domain to fit the int64 value bitmaps.
    """
    np = numpy_module()
    if (
        np is None
        or type(spec).pick_value is not ConsensusSpec.pick_value
        or type(spec).allowed_values is not ConsensusSpec.allowed_values
        or analysis.space.interner.layer_backend != "numpy"
        or not isinstance(analysis.comp_ids, np.ndarray)
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

    The analysis's component-grouped member order (the one sort of the
    layer) drives ``reduceat`` folds that answer, per component, everything
    :meth:`ConsensusSpec.pick_value` asks member-by-member: the
    strong-validity allowed sets (AND of per-input-vector value bitmaps)
    and each broadcaster's input value (min/max folds over per-process
    value codes, equal iff constant — the Theorem 5.9 check).  Preference
    order, raised errors, and chosen values match the scalar path
    exactly; only components whose allowed set stays ambiguous take the
    (cheap) per-component tie-break loop.
    """
    space = analysis.space
    store = space.layer_store(analysis.depth)
    components = analysis.components
    ncomp = len(components)
    member_order = analysis.member_order
    comp_starts = analysis.comp_starts
    member_inputs = store.input_array()[member_order]
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
            vec_bits[member_inputs], comp_starts
        )
        for cid in range(ncomp):
            bits = int(allowed_bits[cid])
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
                member_codes = codes[member_inputs]
                stats = stats_cache[p] = (
                    uniq_values,
                    np.minimum.reduceat(member_codes, comp_starts),
                    np.maximum.reduceat(member_codes, comp_starts),
                )
            return stats

        for cid in pending:
            component = components[cid]
            allowed = allowed_sets[cid]
            chosen = _NO_VALUE
            for p in sorted(component.broadcasters):
                uniq_values, lo, hi = broadcaster_stats(p)
                if lo[cid] != hi[cid]:
                    # Non-constant broadcaster: delegate to the member
                    # scan for the exact Theorem 5.9 violation error.
                    component.broadcaster_value(p)
                value = uniq_values[int(lo[cid])]
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
    """Bottom-up decision maps over the flat layer columns (pure Python).

    The value set of a node is the union over its depth-``t`` descendants,
    pushed through the parent-index columns layer by layer, so the whole
    map costs O(total views) instead of O(nodes * depth).
    """
    store = space.layer_store(depth)
    table = store.levels
    n = table.n
    # Final map: every view occurring at the certification depth.
    comp_values = [assignment[c.id] for c in analysis.components]
    comp_bits = [bit_of[value] for value in comp_values]
    value_bits = [comp_bits[cid] for cid in analysis.comp_ids]
    final: dict[int, object] = {}
    ids = plain_ids(table.ids)
    for index, bits in enumerate(value_bits):
        value = value_list[bits.bit_length() - 1]
        base = index * n
        for vid in ids[base : base + n]:
            final[vid] = value
    # Early map, bottom-up through the parent columns.
    possible: dict[int, int] = {}
    possible_get = possible.get
    for s in range(depth, -1, -1):
        level_store = space.layer_store(s)
        ids = plain_ids(level_store.levels.ids)
        base = 0
        for bits in value_bits:
            for vid in ids[base : base + n]:
                possible[vid] = possible_get(vid, 0) | bits
            base += n
        if s:
            parents = level_store.parents
            parent_bits = [0] * len(space.layer_store(s - 1))
            for index, bits in enumerate(value_bits):
                parent_bits[parents[index]] |= bits
            value_bits = parent_bits
    early = {
        view: value_list[bits.bit_length() - 1]
        for view, bits in possible.items()
        if bits and bits & (bits - 1) == 0
    }
    return final, early


def _decision_maps_numpy(
    np, space, depth, analysis, assignment, value_list, bit_of
) -> tuple[dict, dict]:
    """Vectorized decision maps: per layer one sort/``reduceat`` fold.

    Views of different depths have distinct ids, so the per-layer
    ``(unique view, OR of value bits)`` pairs concatenate into the early
    map without cross-layer merging; the parent push is a segment OR over
    the (already parent-major-sorted) parent column.
    """
    store = space.layer_store(depth)
    comp_bits = np.array(
        [bit_of[assignment[c.id]] for c in analysis.components], dtype=np.int64
    )
    comp_ids = analysis.comp_ids
    if not isinstance(comp_ids, np.ndarray):
        comp_ids = np.array(comp_ids, dtype=np.int64)
    value_bits = comp_bits[comp_ids]
    n = store.levels.n
    final: dict[int, object] = {}
    all_vids: list = []
    all_bits: list = []
    for s in range(depth, -1, -1):
        level_store = space.layer_store(s)
        flat = level_store.levels.array().reshape(-1)
        cell_bits = np.repeat(value_bits, n)
        order = np.argsort(flat, kind="stable")
        sorted_vids = flat[order]
        boundary = np.empty(len(sorted_vids), dtype=bool)
        boundary[0] = True
        np.not_equal(sorted_vids[1:], sorted_vids[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        uniq_vids = sorted_vids[starts]
        uniq_bits = np.bitwise_or.reduceat(cell_bits[order], starts)
        all_vids.append(uniq_vids)
        all_bits.append(uniq_bits)
        if s == depth:
            # The depth-t views are single-valued by construction; they
            # are exactly the final map.
            final_codes = _bit_codes(np, uniq_bits)
            final = {
                vid: value_list[code]
                for vid, code in zip(uniq_vids.tolist(), final_codes.tolist())
            }
        if s:
            parents = level_store.parent_array()
            prev_count = len(space.layer_store(s - 1))
            seg_boundary = np.empty(len(parents), dtype=bool)
            seg_boundary[0] = True
            np.not_equal(parents[1:], parents[:-1], out=seg_boundary[1:])
            seg_starts = np.flatnonzero(seg_boundary)
            seg_parents = parents[seg_starts]
            parent_bits = np.zeros(prev_count, dtype=np.int64)
            parent_bits[seg_parents] = np.bitwise_or.reduceat(
                value_bits, seg_starts
            )
            value_bits = parent_bits
    vids = np.concatenate(all_vids)
    bits = np.concatenate(all_bits)
    # Single-bit AND nonzero: a view reachable only through dead-end
    # prefixes (a state group with no admissible extensions) accumulates
    # bits 0 and must stay undecided, exactly as on the Python path.
    decided = (bits != 0) & ((bits & (bits - 1)) == 0)
    decided_vids = vids[decided]
    decided_codes = _bit_codes(np, bits[decided])
    early = {
        vid: value_list[code]
        for vid, code in zip(decided_vids.tolist(), decided_codes.tolist())
    }
    return final, early


def _bit_codes(np, bits):
    """Index of the highest set bit per entry (entries are single-bit)."""
    codes = np.zeros(len(bits), dtype=np.int64)
    shifted = bits >> 1
    while shifted.any():
        nonzero = shifted > 0
        codes[nonzero] += 1
        shifted = shifted >> 1
    return codes
