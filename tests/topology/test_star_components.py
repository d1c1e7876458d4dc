"""The star-edge component kernel against a union-find reference.

``ComponentAnalysis._analyze_numpy`` links every prefix to one
representative per ``(view, p)`` key and solves connectivity over the
prefixes alone, with scipy or with the numpy root-hooking fallback.  These
tests pin both solvers to a plain :class:`UnionFind` over the layer's
level tuples on layers of several specs extended through one shared
:class:`ViewInterner` — the wide, sparse view-id ranges a sweep produces —
and cover the remap that runs when a solver's labels are not in
first-member order.
"""

import random
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.topology.components as components_module
from repro.adversaries import lossy_link_no_hub, random_oblivious_adversary
from repro.adversaries.generators import all_digraphs
from repro.adversaries.stabilizing import StabilizingAdversary
from repro.core.graphword import full_mask
from repro.core.views import ViewInterner, numpy_available
from repro.errors import AdversaryError
from repro.topology.components import ComponentAnalysis, UnionFind
from repro.topology.prefixspace import PrefixSpace

pytestmark = pytest.mark.skipif(not numpy_available(), reason="numpy kernel")


def _scipy_available() -> bool:
    return components_module._scipy_csgraph() is not None


SOLVERS = [
    pytest.param(
        "scipy",
        marks=pytest.mark.skipif(not _scipy_available(), reason="needs scipy"),
    ),
    "fallback",
]


def _solver(solver: str) -> ExitStack:
    """Patches that force the numpy pass (and the no-scipy solver)."""
    stack = ExitStack()
    stack.enter_context(
        mock.patch.object(components_module, "_COMPONENT_NUMPY_MIN_CELLS", 0)
    )
    if solver == "fallback":
        stack.enter_context(
            mock.patch.object(components_module, "_scipy_csgraph", lambda: None)
        )
    return stack


def reference(space, depth):
    """(member lists, valences, masks) by union-find over level tuples."""
    store = space.layer_store(depth)
    levels = [tuple(level) for level in store.levels]
    n = space.adversary.n
    uf = UnionFind(len(levels))
    first_of: dict = {}
    for index, views in enumerate(levels):
        for p, vid in enumerate(views):
            uf.union(first_of.setdefault((vid, p), index), index)
    members: dict = {}
    for index in range(len(levels)):
        members.setdefault(uf.find(index), []).append(index)
    valences, masks = [], []
    for group in members.values():
        mask = full_mask(n)
        values = set()
        for index in group:
            for vid in levels[index]:
                mask &= space.interner.origin_mask(vid)
            value = space.unanimity_by_index[store.input_idx[index]]
            if value is not None:
                values.add(value)
        valences.append(frozenset(values))
        masks.append(mask)
    return list(members.values()), valences, masks


def assert_matches_reference(space, depth):
    analysis = ComponentAnalysis(space, depth)
    members, valences, masks = reference(space, depth)
    assert [c.member_indices for c in analysis.components] == members
    assert [c.valences for c in analysis.components] == valences
    assert [c.broadcast_mask for c in analysis.components] == masks
    comp_of = {i: cid for cid, group in enumerate(members) for i in group}
    assert analysis.comp_ids.tolist() == [comp_of[i] for i in range(len(comp_of))]
    order = analysis.member_order.tolist()
    assert order == [i for group in members for i in group]
    sizes = [len(group) for group in members]
    assert analysis.comp_starts.tolist() == [sum(sizes[:k]) for k in range(len(sizes))]


def _adversary(rng, n):
    if n == 2 and rng.random() < 0.4:
        graphs = rng.sample(list(all_digraphs(2)), rng.randint(2, 4))
        return StabilizingAdversary(2, graphs, window=rng.randint(1, 2))
    return random_oblivious_adversary(rng, n, size=rng.randint(1, 4))


@pytest.mark.parametrize("solver", SOLVERS)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=2, max_value=3),
    specs=st.integers(min_value=2, max_value=3),
    depth=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=15, deadline=None)
def test_shared_interner_layers_match_union_find(solver, seed, n, specs, depth):
    rng = random.Random(seed)
    try:
        adversaries = [_adversary(rng, n) for _ in range(specs)]
    except AdversaryError:
        return  # too few distinct graphs for the drawn size
    interner = ViewInterner(n, layer_backend="numpy")
    spaces = [PrefixSpace(adv, interner=interner) for adv in adversaries]
    # Interleaved extension: each space's layers draw view ids from
    # ranges shared with the others, so their key ranges are sparse.
    for t in range(1, depth + 1):
        for space in spaces:
            space.ensure_depth(t)
    with _solver(solver):
        for space in spaces:
            for t in range(depth + 1):
                assert_matches_reference(space, t)


@pytest.mark.skipif(not _scipy_available(), reason="needs scipy")
def test_non_canonical_labels_are_remapped(monkeypatch):
    """A solver numbering components out of first-member order must not
    change ``comp_ids``: the fallback remap restores canonical order."""
    csr_matrix, connected_components = components_module._scipy_csgraph()
    calls = []

    def reversed_labels(graph, **kwargs):
        ncomp, labels = connected_components(graph, **kwargs)
        calls.append(ncomp)
        return ncomp, ncomp - 1 - labels

    space = PrefixSpace(lossy_link_no_hub(), layer_backend="numpy")
    space.ensure_depth(4)
    with _solver("scipy"):
        expected = [ComponentAnalysis(space, t).comp_ids for t in range(5)]
        monkeypatch.setattr(
            components_module,
            "_scipy_csgraph",
            lambda: (csr_matrix, reversed_labels),
        )
        for t in range(5):
            analysis = ComponentAnalysis(space, t)
            assert analysis.comp_ids.tolist() == expected[t].tolist()
            assert_matches_reference(space, t)
    assert max(calls) > 1  # some layer really had its labels permuted
