"""Parity of the table-driven product search with the per-letter scan.

``provers._product_lasso_search`` keeps, per product node, only the first
letter per (successor masks, successor set) key, and runs a numpy or a
Python body for that step.  The reference below is the per-letter scan it
replaced, kept verbatim.  The tests compare the lasso words of the
nobody-broadcast search and of the per-process searches, and the
guaranteed broadcaster, with the numpy body and the Python body forced in
turn (by moving the letter floor).
"""

import functools
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversaries.base import MessageAdversary
from repro.adversaries.combinators import IntersectionAdversary, UnionAdversary
from repro.adversaries.generators import all_digraphs, random_oblivious_adversary
from repro.adversaries.heardof import (
    no_split_adversary,
    nonempty_kernel_adversary,
    rooted_adversary,
)
from repro.adversaries.lossylink import lossy_link_no_hub
from repro.adversaries.oblivious import ObliviousAdversary
from repro.adversaries.stabilizing import (
    EventuallyForeverAdversary,
    StabilizingAdversary,
)
from repro.consensus import provers
from repro.consensus.provers import (
    _find_cycle,
    _find_path,
    find_guaranteed_broadcaster,
    find_lasso_avoiding_broadcast_by,
    find_nonbroadcastable_lasso,
)
from repro.core.digraph import Digraph
from repro.core.graphword import GraphWord, heard_of_step
from repro.core.views import numpy_available
from repro.errors import AnalysisError
from repro.specs import random_rooted_specs

# --------------------------------------------------------------------- #
# Reference: the per-letter scan
# --------------------------------------------------------------------- #


def _product_lasso_search(
    adversary: MessageAdversary, forbidden_mask_test
) -> tuple[GraphWord, GraphWord] | None:
    """Find an admissible lasso whose heard-of masks always satisfy a test.

    ``forbidden_mask_test(masks)`` must return True while the masks are
    still "interesting" (e.g. nobody broadcast / process p did not
    broadcast).  Because masks are monotone, a node failing the test can
    never recover, so such nodes are pruned.  Returns (stem, cycle) graph
    words of an admissible (Büchi-accepting) lasso all of whose product
    nodes satisfy the test, or None if no such lasso exists (an exact
    answer).
    """
    n = adversary.n
    accepting = adversary.accepting_states()
    initial_masks = tuple(1 << p for p in range(n))
    if not forbidden_mask_test(initial_masks):
        return None

    # Forward exploration of the reachable, test-satisfying product graph.
    start_nodes = {
        (state, initial_masks)
        for state in adversary.initial_states() & adversary.live_states()
    }
    edges: dict[tuple, list[tuple[Digraph, tuple]]] = {}
    stack = list(start_nodes)
    seen = set(start_nodes)
    while stack:
        state, masks = stack.pop()
        rows = adversary.transitions(state)
        out: list[tuple[Digraph, tuple]] = []
        for graph, successors in rows.items():
            nxt_masks = heard_of_step(graph, masks)
            if not forbidden_mask_test(nxt_masks):
                continue
            for nxt_state in successors:
                node = (nxt_state, nxt_masks)
                out.append((graph, node))
                if node not in seen:
                    seen.add(node)
                    stack.append(node)
        edges[(state, masks)] = out

    # Look for a cycle through an accepting state.  Masks are constant on
    # cycles, so it is enough to find an accepting node that reaches itself.
    for node in sorted(seen, key=repr):
        state, _ = node
        if state not in accepting:
            continue
        cycle = _find_cycle(edges, node)
        if cycle is None:
            continue
        stem = _find_path(edges, start_nodes, node)
        if stem is None:
            continue
        return (
            GraphWord(stem, n=n),
            GraphWord(cycle, n=n),
        )
    return None


# --------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------- #


def _words(lasso):
    return None if lasso is None else (lasso[0].graphs, lasso[1].graphs)


def _results(adversary, processes=None, broadcaster=True):
    """Words of every search the provers run, plus the broadcaster."""
    out = {"nobody": _words(find_nonbroadcastable_lasso(adversary))}
    for p in range(adversary.n) if processes is None else processes:
        out[p] = _words(find_lasso_avoiding_broadcast_by(adversary, p))
    if broadcaster:
        out["broadcaster"] = find_guaranteed_broadcaster(adversary)
    return out


def _reference_results(adversary, **kwargs):
    with mock.patch.object(provers, "_product_lasso_search", _product_lasso_search):
        return _results(adversary, **kwargs)


BODIES = [
    "python",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(not numpy_available(), reason="numpy not installed"),
    ),
]


@pytest.fixture(params=BODIES)
def body(request, monkeypatch):
    """Force one per-node body; returns (name, per-body call counts).

    Every state takes the letter table here, however few its letters; the
    per-letter step of small alphabets has its own test below."""
    floor = 0 if request.param == "numpy" else float("inf")
    monkeypatch.setattr(provers, "_LASSO_NUMPY_MIN_LETTERS", floor)
    monkeypatch.setattr(provers, "_LASSO_TABLE_MIN_LETTERS", 0)
    calls = {"python": 0, "numpy": 0}
    for name in calls:
        original = getattr(provers, f"_distinct_successors_{name}")

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(provers, f"_distinct_successors_{name}", counted)
    return request.param, calls


def _assert_parity(adversary, body):
    assert _results(adversary) == _reference_results(adversary)
    name, calls = body
    # An adversary with no admissible sequence has nothing to search.
    if adversary.initial_states() & adversary.live_states():
        assert calls[name] > 0


G3 = tuple(all_digraphs(3))
ROOTED3 = tuple(g for g in G3 if g.is_rooted)

# --------------------------------------------------------------------- #
# Oblivious alphabets
# --------------------------------------------------------------------- #

#: Small alphabets, and large ones reaching the floor (64 = every graph).
#: Without the empty graph, whose self-loop ends most searches at once,
#: the lasso words depend on which letter is kept per key.
oblivious3 = st.one_of(
    st.lists(st.sampled_from(G3[1:]), min_size=1, max_size=16, unique=True),
    st.lists(st.sampled_from(G3[1:]), min_size=40, max_size=63, unique=True),
    st.lists(st.sampled_from(G3), min_size=60, max_size=64, unique=True),
).map(lambda graphs: ObliviousAdversary(3, graphs))


@given(adversary=oblivious3)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_oblivious_n3_parity(adversary, body):
    _assert_parity(adversary, body)


def _star_alphabet(n, size):
    """Out-stars of process 0 onto ``size`` subsets of the others."""
    rng = random.Random(8)
    subsets = rng.sample(range(1 << (n - 1)), size)
    return ObliviousAdversary(
        n,
        [
            Digraph.from_dict(
                n, {0: [q for q in range(1, n) if subset >> (q - 1) & 1]}
            )
            for subset in subsets
        ],
    )


NOBODY_ONLY = {"processes": (), "broadcaster": False}

#: name -> (adversary factory, which searches to compare).
FIXED = {
    "all n=3 graphs": (lambda: ObliviousAdversary(3, G3), {}),
    "heard-of n=3 no-split": (lambda: no_split_adversary(3), {}),
    "heard-of n=3 kernel": (lambda: nonempty_kernel_adversary(3), {}),
    "heard-of n=3 rooted": (lambda: rooted_adversary(3), {}),
    # 2156 and 1695 letters; their per-process searches are recorded below.
    "heard-of n=4 no-split": (lambda: no_split_adversary(4), NOBODY_ONLY),
    "heard-of n=4 kernel": (lambda: nonempty_kernel_adversary(4), NOBODY_ONLY),
    "random n=4 |D|=72": (
        lambda: random_oblivious_adversary(random.Random(14), 4, size=72),
        {"processes": (0,), "broadcaster": False},
    ),
    "random n=4 rooted |D|=72": (
        lambda: random_oblivious_adversary(
            random.Random(4), 4, size=72, rooted_only=True
        ),
        {},
    ),
    # Letters with several successor sets, successor sets of two states.
    "eventually-forever n=3": (
        lambda: EventuallyForeverAdversary(3, G3, ROOTED3[::3]),
        {},
    ),
    "stabilizing n=3 window 2": (
        lambda: StabilizingAdversary(3, G3[::5], window=2, require_rooted=False),
        {},
    ),
    "union": (
        lambda: UnionAdversary(
            EventuallyForeverAdversary(3, G3[1::2], ROOTED3[:6]),
            ObliviousAdversary(3, G3[:20]),
        ),
        {},
    ),
    "intersection": (
        lambda: IntersectionAdversary(
            StabilizingAdversary(3, ROOTED3[::3], window=2),
            EventuallyForeverAdversary(3, ROOTED3[::2], ROOTED3[::4]),
        ),
        {},
    ),
    # n·n = 64 key bits do not fit an int64.
    "out-stars n=8 |D|=64": (lambda: _star_alphabet(8, 64), {}),
}


@functools.lru_cache(maxsize=None)
def _fixed_reference(name):
    factory, searches = FIXED[name]
    return _reference_results(factory(), **searches)


@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_parity(name, body):
    factory, searches = FIXED[name]
    adversary = factory()
    assert _results(adversary, **searches) == _fixed_reference(name)
    body_name, calls = body
    if adversary.n * adversary.n > provers._NUMPY_KEY_BITS:
        # The packed key does not fit an int64: the Python body runs.
        assert calls["numpy"] == 0
        body_name = "python"
    assert calls[body_name] > 0


@pytest.mark.parametrize("spec", random_rooted_specs(4, 4, 8), ids=lambda s: s.seed)
def test_sweep_pool_parity(spec, body):
    """The seeded random-rooted n=4 alphabets of the sweep workload."""
    _assert_parity(spec.build(), body)


# --------------------------------------------------------------------- #
# Automata with several successor sets
# --------------------------------------------------------------------- #


@st.composite
def automata(draw):
    base = draw(st.lists(st.sampled_from(G3), min_size=2, max_size=24, unique=True))
    eventual = draw(st.lists(st.sampled_from(base), min_size=1, unique=True))
    window = draw(st.integers(1, 3))
    forever = EventuallyForeverAdversary(3, base, eventual)
    stabilizing = StabilizingAdversary(3, base, window, require_rooted=False)
    kind = draw(st.sampled_from(["forever", "stabilizing", "union", "intersection"]))
    if kind == "forever":
        return forever
    if kind == "stabilizing":
        return stabilizing
    if kind == "union":
        return UnionAdversary(forever, ObliviousAdversary(3, eventual))
    return IntersectionAdversary(stabilizing, forever)


@given(adversary=automata())
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_automata_parity(adversary, body):
    _assert_parity(adversary, body)


# --------------------------------------------------------------------- #
# Heard-of n=4 predicate sets (1695-3614 letters)
# --------------------------------------------------------------------- #

HEARD_OF_4 = {
    "no-split": no_split_adversary,
    "kernel": nonempty_kernel_adversary,
    "rooted": rooted_adversary,
}


#: Reference words of searches that take the per-letter scan 4-36 s each
#: on heard-of n=4, as (stem, cycle) tuples of ``Digraph.key`` values,
#: recorded with ``_reference_results``.  The cheaper nobody-broadcast
#: searches of the first two sets run against the live reference above.
HEARD_OF_4_WORDS = {
    ("no-split", 0): ((28688,), (28672,)),
    ("kernel", 3): ((24718,), (14,)),
    ("rooted", "nobody"): None,
}


@pytest.mark.parametrize("predicate, search", sorted(HEARD_OF_4_WORDS, key=repr))
def test_heard_of_n4_recorded_parity(predicate, search, body):
    adversary = HEARD_OF_4[predicate](4)
    recorded = HEARD_OF_4_WORDS[(predicate, search)]
    expected = None if recorded is None else tuple(
        tuple(Digraph.from_key(4, key) for key in keys) for keys in recorded
    )
    if search == "nobody":
        lasso = find_nonbroadcastable_lasso(adversary)
    else:
        lasso = find_lasso_avoiding_broadcast_by(adversary, search)
    assert _words(lasso) == expected
    assert body[1][body[0]] > 0


# --------------------------------------------------------------------- #
# Small alphabets: the per-letter step
# --------------------------------------------------------------------- #


@given(
    adversary=st.one_of(
        st.lists(st.sampled_from(G3), min_size=1, max_size=11, unique=True).map(
            lambda graphs: ObliviousAdversary(3, graphs)
        ),
        st.builds(
            lambda base, window: StabilizingAdversary(
                3, base, window, require_rooted=False
            ),
            st.lists(st.sampled_from(G3), min_size=2, max_size=11, unique=True),
            st.integers(1, 3),
        ),
    )
)
@settings(max_examples=25, deadline=None)
def test_small_alphabets_step_per_letter(adversary):
    """Below the table floor no letter table is built, and the searches
    return the per-letter scan's words."""
    built = []
    original = provers._LetterTable

    def recording(*args):
        built.append(args)
        return original(*args)

    with mock.patch.object(provers, "_LetterTable", recording):
        got = _results(adversary)
    assert built == []
    assert got == _reference_results(adversary)


# --------------------------------------------------------------------- #
# Dispatch
# --------------------------------------------------------------------- #


def test_body_dispatch_follows_the_floor():
    """The numpy body runs from the floor up, when numpy imports."""
    floor = provers._LASSO_NUMPY_MIN_LETTERS

    def table(size):
        adversary = ObliviousAdversary(3, G3[:size])
        (state,) = adversary.initial_states()
        return provers._LetterTable(3, adversary.transitions(state))

    assert table(floor - 1).arrays is None
    assert (table(floor).arrays is not None) == numpy_available()


# --------------------------------------------------------------------- #
# Argument validation
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("p", [5, 2, -1])
def test_out_of_range_process_is_rejected(p):
    with pytest.raises(AnalysisError):
        find_lasso_avoiding_broadcast_by(lossy_link_no_hub(), p)
