"""Equivalence: columnar components/decision tables vs the PR-4 reference.

The columnar pipeline (``ComponentAnalysis`` solving the word graph and
the input classes, ``build_decision_table`` folding over component-id
columns) replaced the object-based construction.  These tests pin it — on
both kernel backends — to a self-contained reimplementation of the PR-4 algorithm: per-node bucket
union-find over materialized level tuples, eager member lists, and the
tuple-driven decision-map construction.  The contract is exact: identical
component partitions (member lists in canonical first-member order),
valences, broadcast masks, and identical decision tables (assignment,
final map, early map) under both validity conditions.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.topology.components as components_module
from repro.adversaries import (
    ObliviousAdversary,
    eventually_one_direction,
    lossy_link_full,
    lossy_link_no_hub,
    one_directional_and_both,
    out_star_set,
    random_oblivious_adversary,
    santoro_widmayer_family,
)
from repro.adversaries.stabilizing import StabilizingAdversary
from repro.consensus.decision import build_decision_table
from repro.consensus.spec import STRONG, WEAK, ConsensusSpec
from repro.core.digraph import Digraph, arrow
from repro.core.graphword import full_mask
from repro.core.views import numpy_available
from repro.errors import AnalysisError
from repro.topology.components import ComponentAnalysis, UnionFind
from repro.topology.prefixspace import PrefixSpace

TO, FRO = arrow("->"), arrow("<-")

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


@pytest.fixture(autouse=True)
def vectorize_even_tiny_layers(monkeypatch):
    """Drop the cell floors so test-sized layers exercise the numpy passes."""
    import repro.consensus.decision as decision_module

    monkeypatch.setattr(components_module, "_COMPONENT_NUMPY_MIN_CELLS", 0)
    monkeypatch.setattr(decision_module, "_DECISION_NUMPY_MIN_CELLS", 0)


# --------------------------------------------------------------------- #
# Reference implementation: the PR-4 object-based construction, verbatim
# semantics (bucket union-find over level tuples, eager member lists,
# tuple-driven decision maps).
# --------------------------------------------------------------------- #


class ReferenceComponents:
    def __init__(self, space, depth):
        store = space.layer_store(depth)
        levels = [tuple(level) for level in store.levels]
        n = space.adversary.n
        uf = UnionFind(len(levels))
        everyone = full_mask(n)
        buckets = {}
        node_masks = []
        for index, views in enumerate(levels):
            common = everyone
            for p in range(n):
                vid = views[p]
                common &= space.interner.origin_mask(vid)
                key = vid * n + p
                first = buckets.setdefault(key, index)
                if first != index:
                    uf.union(first, index)
            node_masks.append(common)
        unanimity = space.unanimity_by_index
        input_idx = [index // store.width for index in range(len(store))]
        members_of = {}
        valences_of = {}
        mask_of = {}
        for index, common in enumerate(node_masks):
            root = uf.find(index)
            members_of.setdefault(root, []).append(index)
            mask_of[root] = mask_of.get(root, everyone) & common
            value = unanimity[input_idx[index]]
            if value is not None:
                valences_of.setdefault(root, set()).add(value)
        self.members = list(members_of.values())
        self.valences = [
            frozenset(valences_of.get(root, ())) for root in members_of
        ]
        self.masks = [mask_of[root] for root in members_of]
        self.comp_of_node = {}
        for cid, members in enumerate(self.members):
            for index in members:
                self.comp_of_node[index] = cid
        self.space = space
        self.depth = depth
        self.input_idx = input_idx

    # -- the PR-4 spec logic over reference data ------------------------

    def allowed_values(self, cid, spec):
        if spec.validity == WEAK:
            valences = self.valences[cid]
            if not valences:
                return frozenset(spec.domain)
            if len(valences) == 1:
                return valences
            return frozenset()
        allowed = set(spec.domain)
        vectors = self.space.input_vectors
        for index in self.members[cid]:
            allowed &= set(vectors[self.input_idx[index]])
            if not allowed:
                break
        return frozenset(allowed)

    def broadcaster_value(self, cid, p):
        vectors = self.space.input_vectors
        values = {
            vectors[self.input_idx[index]][p] for index in self.members[cid]
        }
        assert len(values) == 1
        return next(iter(values))

    def pick_value(self, cid, spec):
        allowed = self.allowed_values(cid, spec)
        if not allowed:
            raise AnalysisError(f"component {cid} admits no decision value")
        if len(allowed) == 1:
            return next(iter(allowed))
        n = self.space.adversary.n
        for p in range(n):
            if self.masks[cid] >> p & 1:
                value = self.broadcaster_value(cid, p)
                if value in allowed:
                    return value
        for value in spec.domain:
            if value in allowed:
                return value
        raise AssertionError("nonempty allowed set")

    def decision_maps(self, spec):
        """The PR-4 ``build_decision_table`` loops, tuple-driven."""
        space, depth = self.space, self.depth
        assignment = {
            cid: self.pick_value(cid, spec) for cid in range(len(self.members))
        }
        store = space.layer_store(depth)
        levels = [tuple(level) for level in store.levels]
        final = {}
        node_values = [None] * len(levels)
        for cid, members in enumerate(self.members):
            value = assignment[cid]
            for index in members:
                node_values[index] = value
                for vid in levels[index]:
                    final[vid] = value
        value_list = sorted(set(assignment.values()), key=repr)
        bit_of = {value: 1 << i for i, value in enumerate(value_list)}
        possible = {}
        value_bits = [bit_of[value] for value in node_values]
        for s in range(depth, -1, -1):
            level_store = space.layer_store(s)
            for index, bits in enumerate(value_bits):
                for vid in level_store.levels[index]:
                    possible[vid] = possible.get(vid, 0) | bits
            if s:
                parents = [
                    index // level_store.width * level_store.parent_width
                    + int(level_store.word_parents[index % level_store.width])
                    for index in range(len(level_store))
                ]
                parent_bits = [0] * len(space.layer_store(s - 1))
                for index, bits in enumerate(value_bits):
                    parent_bits[parents[index]] |= bits
                value_bits = parent_bits
        early = {
            view: value_list[bits.bit_length() - 1]
            for view, bits in possible.items()
            if bits and bits & (bits - 1) == 0
        }
        return assignment, final, early


def assert_components_match(space, depth):
    analysis = ComponentAnalysis(space, depth)
    reference = ReferenceComponents(space, depth)
    got = [
        (c.member_indices, c.valences, c.broadcast_mask)
        for c in analysis.components
    ]
    expected = list(zip(reference.members, reference.valences, reference.masks))
    assert got == expected
    assert [int(cid) for cid in analysis.comp_ids] == [
        reference.comp_of_node[i] for i in range(len(space.layer_store(depth)))
    ]
    return analysis, reference


def assert_tables_match(analysis, reference, spec):
    try:
        expected = reference.decision_maps(spec)
    except AnalysisError:
        with pytest.raises(AnalysisError):
            build_decision_table(analysis, spec)
        return
    table = build_decision_table(analysis, spec)
    assignment, final, early = expected
    assert table.assignment == assignment
    # The table keys its maps by factored view keys; the reference by full
    # view ids.  The translation is a bijection, so the maps must agree
    # entry for entry once the reference is re-keyed.
    key = analysis.space.view_key
    assert table.final == {key(vid): value for vid, value in final.items()}
    assert table.early == {key(vid): value for vid, value in early.items()}
    assert all(table.decision_for_view(vid) == value for vid, value in early.items())


FAMILIES = [
    ("lossy-full", lossy_link_full, 4),
    ("no-hub", lossy_link_no_hub, 4),
    ("to-and-both", lambda: one_directional_and_both("->"), 4),
    ("stars-n3", lambda: ObliviousAdversary(3, out_star_set(3)), 3),
    ("sw-n3-1", lambda: santoro_widmayer_family(3, 1), 2),
    ("eventually-to", lambda: eventually_one_direction("->"), 4),
    (
        "stabilizing-w2",
        lambda: StabilizingAdversary(2, [TO, FRO], window=2),
        4,
    ),
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "label, factory, depth", FAMILIES, ids=[f[0] for f in FAMILIES]
)
def test_columnar_components_match_reference(label, factory, depth, backend):
    space = PrefixSpace(factory(), layer_backend=backend)
    for t in range(depth + 1):
        assert_components_match(space, t)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("validity", [WEAK, STRONG])
@pytest.mark.parametrize(
    "label, factory, depth", FAMILIES, ids=[f[0] for f in FAMILIES]
)
def test_columnar_decision_tables_match_reference(
    label, factory, depth, backend, validity
):
    spec = ConsensusSpec(validity=validity)
    space = PrefixSpace(factory(), layer_backend=backend)
    for t in range(depth + 1):
        analysis, reference = assert_components_match(space, t)
        assert_tables_match(analysis, reference, spec)


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=4),
    size=st.integers(min_value=1, max_value=4),
    rooted=st.booleans(),
    depth=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=20, deadline=None)
def test_columnar_pipeline_matches_on_random_oblivious(
    backend, seed, n, size, rooted, depth
):
    rng = random.Random(seed)
    try:
        adversary = random_oblivious_adversary(
            rng, n, size=size, rooted_only=rooted
        )
    except Exception:
        return  # some (n, size, rooted) draws admit no family
    space = PrefixSpace(adversary, layer_backend=backend)
    analysis, reference = assert_components_match(space, depth)
    assert_tables_match(analysis, reference, ConsensusSpec())


@pytest.mark.skipif(not numpy_available(), reason="numpy-only guard")
def test_many_valued_domains_fall_back_to_exact_valences():
    """>=64 distinct unanimity values overflow int64 bitmaps; the numpy
    dispatch must route such spaces to the arbitrary-precision pass."""
    vectors = [(v, v) for v in range(70)] + [(0, 1)]
    space = PrefixSpace(
        lossy_link_no_hub(), input_vectors=vectors, layer_backend="numpy"
    )
    for t in (0, 1):
        analysis, _ = assert_components_match(space, t)
        for component in analysis.components:
            if len(component) == 1:
                index = component.member_indices[0]
                store = space.layer_store(t)
                value = space.unanimity_by_index[index // store.width]
                expected = frozenset() if value is None else frozenset({value})
                assert component.valences == expected


@pytest.mark.skipif(not numpy_available(), reason="needs both backends")
def test_backends_agree_on_summaries():
    for factory in (lossy_link_full, lambda: santoro_widmayer_family(3, 1)):
        summaries = {}
        for backend in ("python", "numpy"):
            space = PrefixSpace(factory(), layer_backend=backend)
            summaries[backend] = [
                ComponentAnalysis(space, t).summary() for t in range(3)
            ]
        assert summaries["python"] == summaries["numpy"]


@pytest.mark.skipif(not numpy_available(), reason="numpy-only lookups")
@pytest.mark.parametrize("span_factor", [0, 8], ids=["binary-search", "dense"])
def test_vectorized_validation_lookups(monkeypatch, span_factor):
    """Both key lookups of the vectorized validation (a dense table over a
    compact key range, binary search over a wide one) accept a certified
    table and reject it once a decided view is dropped."""
    import repro.consensus.decision as decision_module
    from repro.errors import CertificateError

    monkeypatch.setattr(decision_module, "_DENSE_SPAN_FACTOR", span_factor)
    space = PrefixSpace(santoro_widmayer_family(3, 1), layer_backend="numpy")
    table = build_decision_table(ComponentAnalysis(space, 2), ConsensusSpec())
    table.validate()
    del table.early[next(iter(table.final))]
    with pytest.raises(CertificateError, match="termination"):
        table.validate()


@pytest.mark.skipif(not numpy_available(), reason="numpy-only guard")
def test_keys_wider_than_int64_fall_back_to_python_ints():
    """240 input values on n=8 make R = D**n exceed int64: the vectorized
    component and decision passes must route to the Python passes."""
    vectors = [(v,) + (0,) * 7 for v in range(240)]
    adversary = ObliviousAdversary(8, [Digraph.complete(8)])
    space = PrefixSpace(adversary, input_vectors=vectors, layer_backend="numpy")
    assert not space.keys_fit_int64()
    analysis, _ = assert_components_match(space, 1)
    table = build_decision_table(analysis, ConsensusSpec(range(240)))
    node = space.layer(1)[3]
    assert table.decision_for_view(node.prefix.view(4, 1)) == (
        table.assignment[analysis.component_of(node).id]
    )
