"""Independent parity of the input-factored pipeline.

The prefix space extends graph words only and keys every view by
``(word view, inputs restricted to its origin mask)``.  These properties
re-derive the same answers from *materialized* full views — the literal
ε-approximation of Definition 6.2 and a decision map built node by node —
so they check the key identity instead of re-running the kernels that
rely on it.  Random oblivious adversaries on n = 2..3, binary and ternary
domains, random subsets of the input vectors, both layer backends.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.consensus.decision as decision_module
import repro.topology.components as components_module
from repro.adversaries.generators import random_oblivious_adversary
from repro.consensus.decision import build_decision_table
from repro.consensus.spec import ConsensusSpec
from repro.core.inputs import all_assignments
from repro.core.views import numpy_available
from repro.simulation.algorithms import UniversalAlgorithm
from repro.simulation.runner import run_word
from repro.topology.approximation import EpsApproximation
from repro.topology.components import ComponentAnalysis
from repro.topology.prefixspace import PrefixSpace

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


@pytest.fixture(autouse=True)
def vectorize_even_tiny_layers(monkeypatch):
    """Drop the cell floors so test-sized layers exercise the numpy passes."""
    monkeypatch.setattr(components_module, "_COMPONENT_NUMPY_MIN_CELLS", 0)
    monkeypatch.setattr(decision_module, "_DECISION_NUMPY_MIN_CELLS", 0)


@st.composite
def instances(draw):
    n = draw(st.sampled_from([2, 3]))
    rng = random.Random(draw(st.integers(0, 2**31)))
    adversary = random_oblivious_adversary(
        rng, n, size=draw(st.integers(1, 3)), rooted_only=draw(st.booleans())
    )
    domain = draw(st.sampled_from([(0, 1), (0, 1, 2)]))
    vectors = list(all_assignments(n, domain))
    subset = draw(
        st.lists(st.sampled_from(vectors), min_size=2, max_size=12, unique=True)
    )
    depth = draw(st.integers(1, 3 if n == 2 else 2))
    return adversary, domain, subset, depth


def _full_broadcast_mask(space, node, depth):
    mask = (1 << space.adversary.n) - 1
    for p in range(space.adversary.n):
        mask &= space.interner.origin_mask(node.prefix.view(p, depth))
    return mask


def _reference_early(space, analysis, table):
    """The early map from materialized nodes: full view -> decided value."""
    possible: dict[int, set] = {}
    for node in space.layer(table.depth):
        value = table.assignment[analysis.component_of(node).id]
        for s in range(table.depth + 1):
            for view in node.prefix.views(s):
                possible.setdefault(view, set()).add(value)
    return {
        view: next(iter(values))
        for view, values in possible.items()
        if len(values) == 1
    }


@pytest.mark.parametrize("backend", BACKENDS)
@given(instance=instances(), runs=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_factored_pipeline_matches_materialized_views(backend, instance, runs):
    adversary, domain, subset, depth = instance
    space = PrefixSpace(adversary, input_vectors=subset, layer_backend=backend)
    analysis = ComponentAnalysis(space, depth)
    layer = space.layer(depth)
    covered: list[int] = []
    for component in analysis.components:
        literal = EpsApproximation(space, depth, component.representative)
        assert sorted(literal.member_indices) == component.member_indices
        members = literal.members()
        assert component.valences == frozenset(
            node.unanimous_value
            for node in members
            if node.unanimous_value is not None
        )
        expected_mask = (1 << adversary.n) - 1
        for node in members:
            expected_mask &= _full_broadcast_mask(space, node, depth)
        assert component.broadcast_mask == expected_mask
        covered.extend(literal.member_indices)
    assert sorted(covered) == list(range(len(layer)))

    spec = ConsensusSpec(domain)
    if not all(spec.allowed_values(c) for c in analysis.components):
        return
    table = build_decision_table(analysis, spec)
    reference = _reference_early(space, analysis, table)
    assert len(table.early) == len(reference)
    algorithm = UniversalAlgorithm(table)
    rng = random.Random(runs)
    for _ in range(4):
        inputs = rng.choice(subset)
        word = adversary.sample_word(rng, depth + 1)
        result = run_word(algorithm, inputs, word, record_states=True)
        for states in result.states:
            for view in states:
                assert table.decision_for_view(view) == reference.get(view)
