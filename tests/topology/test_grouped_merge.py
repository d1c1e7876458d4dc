"""Parity of the columnar state-grouped layer merge with a per-parent reference.

``PrefixSpace._extend_grouped`` interns each state group's children with one
whole-layer kernel call and scatters them back parent-major.  These
properties pin it, on both kernel backends, to the simplest possible
construction of the same layer: one ``ViewInterner._extend_batch`` call per
parent, children appended in parent order.  Interning is idempotent, so the
reference runs on the space's own interner and view ids compare exactly.
Every column is compared: levels, parents, input indices, graphs and
states — including eventually-forever and stabilizing families, a state
group with no admissible extension (its parents end the prefix), and
``retain="frontier"``.
"""

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries.generators import all_digraphs, all_rooted_digraphs
from repro.adversaries.stabilizing import (
    EventuallyForeverAdversary,
    StabilizingAdversary,
)
from repro.core.digraph import arrow
from repro.core.views import ViewInterner, numpy_available
from repro.topology.prefixspace import PrefixSpace, _CodedColumn

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


class _PrunedAdversary(EventuallyForeverAdversary):
    """Eventually-forever, but one reachable state set admits no extension.

    Real adversaries never reach such a set (liveness pruning keeps every
    reachable set live); this one forces the merge to skip a whole group.
    """

    def __init__(self, n, base, eventual, dead_graph):
        super().__init__(n, base, eventual, name="pruned")
        self._dead = None
        for graph, nxt in super().admissible_extensions(
            frozenset(self.initial_states())
        ):
            if graph == dead_graph:
                self._dead = nxt

    def admissible_extensions(self, states):
        if frozenset(states) == self._dead:
            return ()
        return super().admissible_extensions(states)


def reference_layer(space, t):
    """Columns of layer ``t + 1`` built one parent at a time.

    Also returns the kernel calls the extension must make: one per state
    group with an extension, in order of first occurrence among the
    parents, as ``(alphabet, level of the group's first parent)``.
    """
    adversary = space.adversary
    store = space._stores[t]
    levels, parents, inputs, graphs, states = [], [], [], [], []
    calls = {}
    for i in range(len(store)):
        node_states = store.states[i]
        exts = adversary.admissible_extensions(node_states)
        if not exts:
            continue
        calls.setdefault(
            node_states, (adversary.extension_alphabet(node_states), store.levels[i])
        )
        outs = space.interner._extend_batch(
            store.levels[i], adversary.extension_alphabet(node_states)
        )
        for (graph, nxt), level in zip(exts, outs):
            levels.append(level)
            parents.append(i)
            inputs.append(int(store.input_idx[i]))
            graphs.append(graph)
            states.append(nxt)
    return (levels, parents, inputs, graphs, states), list(calls.values())


@contextmanager
def kernel_calls():
    """Record ``(alphabet, first level)`` of every whole-layer kernel call."""
    calls = []
    original = ViewInterner.extend_layer_table

    def recording(self, table, graphs):
        calls.append((tuple(graphs), table[0]))
        return original(self, table, graphs)

    ViewInterner.extend_layer_table = recording
    try:
        yield calls
    finally:
        ViewInterner.extend_layer_table = original


def check_space(adversary, depth, backend, retain="all"):
    """Build ``adversary``'s space layer by layer against the reference."""
    space = PrefixSpace(adversary, layer_backend=backend, retain=retain)
    for t in range(depth):
        # The reference reads layer t, which frontier mode condenses as
        # soon as layer t + 1 exists, so it runs first and interns layer
        # t + 1's views; interning is idempotent, so the extension must
        # then produce exactly those ids.
        expected, expected_calls = reference_layer(space, t)
        with kernel_calls() as calls:
            space.extend()
        # Kernel-call order fixes the interning order, hence every view id.
        assert calls == expected_calls
        child = space._stores[t + 1]
        levels, parents, inputs, graphs, states = expected
        assert child.levels.tolist() == levels
        assert [int(p) for p in child.parents] == parents
        assert [int(i) for i in child.input_idx] == inputs
        assert list(child.graphs) == graphs
        assert list(child.states) == states
        # Coded columns keep a table of distinct items.
        for column in (child.graphs, child.states):
            if isinstance(column, _CodedColumn):
                assert len(set(column.items)) == len(column.items)
        if retain == "frontier":
            assert space._stores[t].condensed
    return space


def _graph_subsets(draw, graphs):
    return draw(
        st.lists(st.sampled_from(graphs), min_size=1, max_size=len(graphs), unique=True)
    )


GRAPHS_N2 = tuple(all_digraphs(2))
ROOTED_N2 = tuple(all_rooted_digraphs(2))


@st.composite
def eventually_forever(draw):
    n = draw(st.sampled_from([2, 3]))
    if n == 2:
        pool = GRAPHS_N2
    else:
        rng = random.Random(draw(st.integers(0, 10_000)))
        pool = tuple(rng.sample(tuple(all_digraphs(3)), 6))
    base = _graph_subsets(draw, pool)
    eventual = _graph_subsets(draw, pool)
    return EventuallyForeverAdversary(n, base, eventual)


@st.composite
def stabilizing(draw):
    graphs = _graph_subsets(draw, ROOTED_N2)
    window = draw(st.integers(1, 3))
    return StabilizingAdversary(2, graphs, window)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(eventually_forever(), stabilizing()),
    st.integers(1, 5),
    st.sampled_from(BACKENDS),
    st.sampled_from(["all", "frontier"]),
)
def test_grouped_merge_matches_per_parent_reference(adversary, depth, backend, retain):
    check_space(adversary, depth, backend, retain)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("retain", ["all", "frontier"])
def test_group_without_extension_ends_its_prefixes(backend, retain):
    to = arrow("->")
    adversary = _PrunedAdversary(
        2, [to, arrow("<-"), arrow("<->")], [to], dead_graph=to
    )
    assert adversary._dead is not None
    space = check_space(adversary, 4, backend, retain)
    # The pruned group contributes parents but no children.
    assert space.layer_sizes()[:3] == [4, 12, 24]


@pytest.mark.parametrize("backend", BACKENDS)
def test_many_groups_on_a_large_layer(backend):
    """A layer big enough for the vectorized kernels, several groups deep."""
    graphs = tuple(all_rooted_digraphs(3))[:5]
    space = check_space(StabilizingAdversary(3, graphs, 2), 4, backend)
    assert isinstance(space.layer_store(4).states, _CodedColumn)
    assert len(space.layer_store(4).states.items) > 1
