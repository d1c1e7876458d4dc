"""Word-factored components against an unfactored reference.

``ComponentAnalysis`` labels the word graph, partitions the input vectors
per mask signature and numbers the products ``K × C``.  The reference here
never factors: it runs union-find over the *full* view ids of every prefix
(materialized through ``LayerStore.levels``) and reads broadcast masks off
those full views.  Partition, member order, ``comp_ids``, valences,
broadcast masks and the lookups must agree exactly, on both layer
backends, for random oblivious adversaries on n = 2..3, stabilizing and
eventually-forever (state-grouped) families, binary and ternary domains,
random subsets of the input vectors, and layers extended through one
shared interner (wide, sparse view-id ranges).
"""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import repro.topology.components as components_module
from repro.adversaries import lossy_link_no_hub, random_oblivious_adversary
from repro.adversaries.generators import all_digraphs, all_rooted_digraphs
from repro.adversaries.stabilizing import (
    EventuallyForeverAdversary,
    StabilizingAdversary,
)
from repro.core.inputs import all_assignments
from repro.core.views import ViewInterner, numpy_available
from repro.errors import AdversaryError
from repro.topology.components import ComponentAnalysis
from repro.topology.prefixspace import PrefixSpace

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(autouse=True)
def vectorize_even_tiny_layers(monkeypatch):
    """Drop the cell floor so test-sized layers exercise the numpy pass."""
    monkeypatch.setattr(components_module, "_COMPONENT_NUMPY_MIN_CELLS", 0)


def reference(space, depth):
    """(member lists, valences, broadcast masks) from full view ids."""
    store = space.layer_store(depth)
    levels = [tuple(level) for level in store.levels]
    interner = space.interner
    parent = list(range(len(levels)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    first_of: dict = {}
    for index, views in enumerate(levels):
        for vid in views:
            a, b = find(first_of.setdefault(vid, index)), find(index)
            parent[max(a, b)] = min(a, b)
    groups: dict = {}
    for index in range(len(levels)):
        groups.setdefault(find(index), []).append(index)
    members = list(groups.values())
    valences, masks = [], []
    for group in members:
        mask = (1 << space.adversary.n) - 1
        values = set()
        for index in group:
            for vid in levels[index]:
                mask &= interner.origin_mask(vid)
            value = space.unanimity_by_index[index // store.width]
            if value is not None:
                values.add(value)
        valences.append(frozenset(values))
        masks.append(mask)
    return levels, members, valences, masks


def assert_matches_reference(space, depth):
    analysis = ComponentAnalysis(space, depth)
    levels, members, valences, masks = reference(space, depth)
    components = analysis.components
    assert [c.member_indices for c in components] == members
    assert [len(c) for c in components] == [len(group) for group in members]
    assert [c.valences for c in components] == valences
    assert [c.broadcast_mask for c in components] == masks
    comp_of = {i: cid for cid, group in enumerate(members) for i in group}
    assert [int(cid) for cid in analysis.comp_ids] == [
        comp_of[i] for i in range(len(levels))
    ]
    width = space.layer_store(depth).width
    for component, group in zip(components, members):
        assert list(component.input_indices) == sorted({i // width for i in group})
    for index, views in enumerate(levels):
        node = space.node(depth, index)
        assert analysis.component_of(node).id == comp_of[index]
        for p, vid in enumerate(views):
            assert analysis.component_of_view(p, vid).id == comp_of[index]
    return analysis


@st.composite
def instances(draw):
    kind = draw(st.sampled_from(["oblivious", "stabilizing", "eventually"]))
    n = draw(st.sampled_from([2, 3]))
    rng = random.Random(draw(st.integers(0, 2**31)))
    if kind == "oblivious":
        try:
            adversary = random_oblivious_adversary(
                rng, n, size=draw(st.integers(1, 4)), rooted_only=draw(st.booleans())
            )
        except AdversaryError:
            reject()  # too few distinct graphs for the drawn size
    elif kind == "stabilizing":
        graphs = rng.sample(list(all_rooted_digraphs(n)), draw(st.integers(2, 3)))
        adversary = StabilizingAdversary(n, graphs, window=draw(st.integers(1, 2)))
    else:
        graphs = list(all_digraphs(n))
        adversary = EventuallyForeverAdversary(
            n,
            rng.sample(graphs, draw(st.integers(1, 3))),
            rng.sample(graphs, draw(st.integers(1, 2))),
        )
    domain = draw(st.sampled_from([(0, 1), (0, 1, 2)]))
    vectors = list(all_assignments(n, domain))
    subset = draw(
        st.lists(st.sampled_from(vectors), min_size=1, max_size=12, unique=True)
    )
    depth = draw(st.integers(0, 3 if n == 2 else 2))
    return adversary, subset, depth


@pytest.mark.parametrize("backend", BACKENDS)
@given(instance=instances())
@settings(max_examples=40, deadline=None)
def test_word_factored_components_match_full_view_union_find(backend, instance):
    adversary, subset, depth = instance
    space = PrefixSpace(adversary, input_vectors=subset, layer_backend=backend)
    space.ensure_depth(depth)
    for t in range(depth + 1):
        assert_matches_reference(space, t)


def _adversary(rng, n):
    if n == 2 and rng.random() < 0.4:
        graphs = rng.sample(list(all_digraphs(2)), rng.randint(2, 4))
        return StabilizingAdversary(2, graphs, window=rng.randint(1, 2))
    return random_oblivious_adversary(rng, n, size=rng.randint(1, 4))


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=2, max_value=3),
    specs=st.integers(min_value=2, max_value=3),
    depth=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=15, deadline=None)
def test_shared_interner_layers_match_full_view_union_find(
    backend, seed, n, specs, depth
):
    rng = random.Random(seed)
    try:
        adversaries = [_adversary(rng, n) for _ in range(specs)]
    except AdversaryError:
        return  # too few distinct graphs for the drawn size
    interner = ViewInterner(n, layer_backend=backend)
    spaces = [PrefixSpace(adv, interner=interner) for adv in adversaries]
    # Interleaved extension: each space's layers draw view ids from
    # ranges shared with the others, so their view ranges are sparse.
    for t in range(1, depth + 1):
        for space in spaces:
            space.ensure_depth(t)
    for space in spaces:
        for t in range(depth + 1):
            assert_matches_reference(space, t)


@pytest.mark.parametrize("backend", BACKENDS)
def test_component_of_view_rejects_other_processes_and_depths(backend):
    space = PrefixSpace(lossy_link_no_hub(), layer_backend=backend)
    space.ensure_depth(3)
    analysis = ComponentAnalysis(space, 2)
    for index in range(len(space.layer(2))):
        node = space.node(2, index)
        for p in range(2):
            view = node.prefix.view(p, 2)
            assert analysis.component_of_view(p, view) is not None
            # The same view asked for the other process.
            assert analysis.component_of_view(1 - p, view) is None
            # A view of the same process one round earlier or later.
            assert analysis.component_of_view(p, node.prefix.view(p, 1)) is None
        deeper = space.node(3, index)
        assert analysis.component_of_view(0, deeper.prefix.view(0, 3)) is None
    assert analysis.component_of_view(0, -1) is None


@pytest.mark.parametrize("backend", BACKENDS)
def test_component_of_view_rejects_inputs_outside_the_space(backend):
    """A view whose origins carry an input combination no vector of the
    space has does not occur; one whose origins agree with some vector
    does, whatever the other inputs."""
    space = PrefixSpace(
        lossy_link_no_hub(), input_vectors=[(0, 0), (1, 1)], layer_backend=backend
    )
    space.ensure_depth(2)
    analysis = ComponentAnalysis(space, 2)
    interner = space.interner
    words = list(space.layer_store(2).word_levels.ids)
    outside = interner.with_inputs(words, (0, 1))
    for cell, vid in enumerate(outside):
        found = analysis.component_of_view(cell % 2, vid)
        if interner.origin_mask(vid) == 0b11:
            assert found is None
        else:
            assert found is not None


@pytest.mark.skipif(not numpy_available(), reason="the numpy pass needs numpy")
def test_a_check_never_imports_scipy():
    """Components solve on the word graph in numpy alone: a fresh process
    running checks whose layers take the vectorized passes (components,
    decision maps) must not import scipy, which would cost every process
    its import time."""
    code = textwrap.dedent(
        """
        import sys
        from repro.adversaries import lossy_link_full, santoro_widmayer_family
        from repro.consensus.solvability import (
            CheckOptions,
            check_consensus_with_options,
        )
        from repro.topology.components import ComponentAnalysis
        from repro.topology.prefixspace import PrefixSpace

        options = CheckOptions(max_depth=8, use_impossibility_provers=False)
        for adversary in (lossy_link_full(), santoro_widmayer_family(4, 1)):
            print(check_consensus_with_options(adversary, options).status.name)
        space = PrefixSpace(lossy_link_full(), layer_backend="numpy")
        space.ensure_depth(8)
        print(type(ComponentAnalysis(space, 8).comp_ids).__module__)
        print("scipy" in sys.modules)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["UNDECIDED", "SOLVABLE", "numpy", "False"]
