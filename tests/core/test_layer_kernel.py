"""Equivalence tests of the whole-layer extension kernel.

``ViewInterner.extend_layer`` batches the successor interning of an entire
prefix-space layer; these tests pin it — on both the numpy and the
pure-Python backend — to the per-parent ``extend_level_multi`` path across
every adversary family shape (oblivious single-group layers, eventually/
stabilizing multi-group layers, randomized oblivious alphabets).

View-id *numbering* is explicitly not part of the contract (backends
allocate in different orders), so levels are compared through a canonical
structural form; view/row *counts* are part of the contract (the kernel
must intern exactly the views the per-parent path interns — no phantom
(owner, row) pairs for combinations no parent requested).
"""

import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries import (
    ObliviousAdversary,
    eventually_one_direction,
    lossy_link_full,
    lossy_link_no_hub,
    out_star_set,
    random_oblivious_adversary,
    santoro_widmayer_family,
)
from repro.adversaries.stabilizing import StabilizingAdversary
from repro.core.digraph import arrow
from repro.core.inputs import all_assignments, binary_domain
from repro.core.views import (
    LAYER_BACKENDS,
    LayerTable,
    ViewInterner,
    numpy_available,
)
from repro.errors import AnalysisError
from repro.topology.prefixspace import PrefixSpace

TO, FRO = arrow("->"), arrow("<-")

#: Backends available in this environment (the numpy leg only when numpy
#: imports; the CI matrix runs a leg without it).
BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


@pytest.fixture(autouse=True)
def batch_even_tiny_layers(monkeypatch):
    """Drop the batch-size floors so test-sized layers actually exercise
    the batched kernels instead of the tiny-layer per-parent fallback."""
    import repro.core.views as views_module

    monkeypatch.setattr(views_module, "_NUMPY_MIN_CELLS", 0)
    monkeypatch.setattr(views_module, "_BATCH_MIN_CELLS", 0)


def canonical(interner, vid, cache):
    """Structural identity of a view, independent of id numbering."""
    got = cache.get(vid)
    if got is None:
        if interner.is_leaf(vid):
            got = (interner.pid(vid), interner.leaf_value(vid))
        else:
            got = (
                interner.pid(vid),
                tuple(
                    sorted(
                        canonical(interner, child, cache)
                        for child in interner.child_row(vid)
                    )
                ),
            )
        cache[vid] = got
    return got


def canonical_levels(interner, levels):
    cache: dict = {}
    return [
        tuple(canonical(interner, vid, cache) for vid in level)
        for level in levels
    ]


def per_parent_layers(adversary, depth, interner, input_vectors=None):
    """The PR-3 reference: one ``extend_level_multi`` call per parent.

    Returns per depth the ``(levels, parents, graphs)`` columns in the
    exact order the original ``PrefixSpace.extend`` emitted them.
    """
    if input_vectors is None:
        input_vectors = all_assignments(adversary.n, binary_domain)
    levels = [interner.leaf_level(vec) for vec in input_vectors]
    initial = frozenset(adversary.initial_states() & adversary.live_states())
    states = [initial] * len(levels)
    layers = [(levels, [-1] * len(levels), [None] * len(levels))]
    for _ in range(depth):
        new_levels, new_states, parents, graphs = [], [], [], []
        for i, node_states in enumerate(states):
            exts = adversary.admissible_extensions(node_states)
            outs = interner.extend_level_multi(
                levels[i], adversary.extension_alphabet(node_states)
            )
            for (graph, nxt), level in zip(exts, outs):
                new_levels.append(level)
                new_states.append(nxt)
                parents.append(i)
                graphs.append(graph)
        levels, states = new_levels, new_states
        layers.append((levels, parents, graphs))
    return layers


def assert_space_matches_reference(adversary, depth, backend):
    space = PrefixSpace(adversary, layer_backend=backend)
    space.ensure_depth(depth)
    reference = ViewInterner(adversary.n)
    layers = per_parent_layers(adversary, depth, reference)
    for t, (levels, parents, graphs) in enumerate(layers):
        store = space.layer_store(t)
        # Ordering columns are id-free and must match exactly (columns may
        # be arrays/tiles; compare their materialized contents).
        assert list(store.parents) == parents
        if t:
            assert list(store.graphs) == graphs
        assert canonical_levels(space.interner, store.levels) == (
            canonical_levels(reference, levels)
        )
    # No phantom views/rows: the kernel interns exactly the per-parent set.
    assert len(space.interner) == len(reference)
    assert space.interner.stats().rows == reference.stats().rows


FAMILIES = [
    ("lossy-full", lossy_link_full, 4),
    ("no-hub", lossy_link_no_hub, 4),
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
def test_layer_kernel_matches_per_parent_path(label, factory, depth, backend):
    assert_space_matches_reference(factory(), depth, backend)


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=4),
    size=st.integers(min_value=1, max_value=4),
    rooted=st.booleans(),
    depth=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=25, deadline=None)
def test_layer_kernel_matches_on_random_oblivious(
    backend, seed, n, size, rooted, depth
):
    rng = random.Random(seed)
    try:
        adversary = random_oblivious_adversary(
            rng, n, size=size, rooted_only=rooted
        )
    except Exception:
        return  # some (n, size, rooted) draws admit no family
    assert_space_matches_reference(adversary, depth, backend)


@pytest.mark.skipif(not numpy_available(), reason="numpy backend unavailable")
def test_backends_agree_structurally():
    for factory in (lossy_link_full, lambda: santoro_widmayer_family(3, 1)):
        spaces = {}
        for backend in ("python", "numpy"):
            space = PrefixSpace(factory(), layer_backend=backend)
            space.ensure_depth(3)
            spaces[backend] = space
        py, np_ = spaces["python"], spaces["numpy"]
        assert len(py.interner) == len(np_.interner)
        assert py.interner.stats().rows == np_.interner.stats().rows
        for t in range(4):
            assert canonical_levels(
                py.interner, py.layer_store(t).levels
            ) == canonical_levels(np_.interner, np_.layer_store(t).levels)


@pytest.mark.parametrize("backend", BACKENDS)
def test_extend_layer_column_alignment_and_duplicates(backend):
    interner = ViewInterner(2, layer_backend=backend)
    level_a = interner.leaf_level((0, 1))
    level_b = interner.leaf_level((1, 0))
    graphs = lossy_link_full().alphabet()
    by_graph = interner.extend_layer([level_a, level_b, level_a], graphs)
    assert len(by_graph) == len(graphs)
    for j, graph in enumerate(graphs):
        column = by_graph[j]
        assert len(column) == 3
        # Duplicate parents map to identical results...
        assert column[0] == column[2]
        # ...and every cell equals the per-parent extension.
        assert column[0] == interner.extend_level_multi(level_a, graphs)[j]
        assert column[1] == interner.extend_level_multi(level_b, graphs)[j]


@pytest.mark.parametrize("backend", BACKENDS)
def test_extend_layer_edge_cases(backend):
    interner = ViewInterner(2, layer_backend=backend)
    level = interner.leaf_level((0, 1))
    graphs = lossy_link_full().alphabet()
    assert interner.extend_layer([level], ()) == []
    assert interner.extend_layer([], graphs) == [[], [], []]
    with pytest.raises(AnalysisError):
        interner.extend_layer([(level[0],)], graphs)


@pytest.mark.parametrize("backend", BACKENDS)
def test_reextending_a_layer_is_idempotent(backend):
    interner = ViewInterner(2, layer_backend=backend)
    levels = [interner.leaf_level((0, 1)), interner.leaf_level((1, 0))]
    graphs = lossy_link_full().alphabet()
    first = interner.extend_layer(levels, graphs)
    views = len(interner)
    # Interning makes every re-extension return the same ids and allocate
    # nothing, whichever entry point repeats it.
    assert interner.extend_layer(levels, graphs) == first
    tables = interner.extend_layer_table(LayerTable.from_levels(2, levels), graphs)
    assert [table.tolist() for table in tables] == first
    for i, level in enumerate(levels):
        assert interner.extend_level_multi(level, graphs) == [
            column[i] for column in first
        ]
        for j, graph in enumerate(graphs):
            assert interner.extend_level(level, graph) == first[j][i]
    assert len(interner) == views


@pytest.mark.parametrize("backend", BACKENDS)
def test_extend_layer_is_the_tuple_wrapper_of_the_table_kernel(backend):
    # The benchmark harness wraps this entry point by name.
    extend_layer = getattr(ViewInterner, "extend_layer")
    assert list(inspect.signature(extend_layer).parameters) == [
        "self",
        "levels",
        "graphs",
    ]
    interner = ViewInterner(2, layer_backend=backend)
    levels = [interner.leaf_level((0, 1)), interner.leaf_level((1, 1))]
    graphs = lossy_link_full().alphabet()
    by_graph = extend_layer(interner, levels, graphs)
    table = LayerTable.from_levels(2, levels)
    assert by_graph == [
        t.tolist() for t in interner.extend_layer_table(table, graphs)
    ]
    assert all(
        type(level) is tuple and all(type(vid) is int for vid in level)
        for column in by_graph
        for level in column
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_extend_layer_without_memo_leaves_cache_empty(backend):
    interner = ViewInterner(2, layer_backend=backend)
    levels = [interner.leaf_level((0, 1))]
    interner.extend_layer(levels, lossy_link_full().alphabet())
    assert interner.stats().cached_extensions == 0


def test_plan_cache_reported_in_stats():
    interner = ViewInterner(2)
    assert interner.stats().cached_plans == 0
    level = interner.leaf_level((0, 1))
    before = interner.stats().approx_bytes
    interner.extend_layer([level], lossy_link_full().alphabet())
    stats = interner.stats()
    assert stats.cached_plans == 1
    assert stats.approx_bytes > before
    # Sub-alphabets create further plans; the count tracks them.
    interner.extend_layer([level], lossy_link_full().alphabet()[:2])
    assert interner.stats().cached_plans == 2


def test_layer_backend_validation():
    with pytest.raises(AnalysisError):
        ViewInterner(2, layer_backend="cython")
    assert ViewInterner(2, layer_backend="python").layer_backend == "python"
    for backend in BACKENDS:
        assert ViewInterner(2, layer_backend=backend).layer_backend == backend
    assert ViewInterner(2).layer_backend in LAYER_BACKENDS


@pytest.mark.skipif(numpy_available(), reason="only without numpy")
def test_numpy_backend_requested_without_numpy_raises():
    with pytest.raises(AnalysisError):
        ViewInterner(2, layer_backend="numpy")
