"""Randomized equivalence: array-backed view tables vs the dict interner.

The array-backed :class:`~repro.core.views.ViewInterner` (parallel columns,
interned child-row table, compact-integer node keys and extension-cache
keys) replaced the PR-1 dict-of-tuples storage.  These property tests pin
the new tables to a self-contained reimplementation of the dict interner:
identical id allocation, owners, depths, origin masks, origin values,
children, and stats on randomized construction sequences — plus the
idempotence of re-extension and the table-geometry stats.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.digraph import Digraph
from repro.core.views import ViewInterner, numpy_available
from repro.errors import AnalysisError

# --------------------------------------------------------------------- #
# Reference implementation: the dict-keyed interner of PR 1, verbatim
# semantics (tuple-keyed table, payload column, eager leaf storage).
# --------------------------------------------------------------------- #


class DictInterner:
    def __init__(self, n):
        self.n = n
        self._table = {}
        self._pid = []
        self._depth = []
        self._payload = []
        self._origin_mask = []
        self._origin_values = []
        self._leaf_count = 0

    def leaf(self, p, value):
        key = (p, value)
        vid = self._table.get(key)
        if vid is None:
            vid = self._store(key, p, 0, value, 1 << p, ((p, value),))
            self._leaf_count += 1
        return vid

    def node(self, p, children):
        kids = tuple(sorted(set(children)))
        key = (~p, kids)
        vid = self._table.get(key)
        if vid is not None:
            return vid
        depth = self._depth[kids[0]] + 1
        mask = 0
        values = {}
        for c in kids:
            mask |= self._origin_mask[c]
            for q, value in self.origins(c):
                values.setdefault(q, value)
        return self._store(
            key, p, depth, kids, mask,
            tuple(sorted(values.items(), key=lambda kv: kv[0])),
        )

    def leaf_level(self, inputs):
        return tuple(self.leaf(p, value) for p, value in enumerate(inputs))

    def extend_level(self, level, graph):
        out = []
        for p, in_list in enumerate(graph.in_neighbor_lists):
            out.append(self.node(p, [level[q] for q in in_list]))
        return tuple(out)

    def extend_level_multi(self, level, graphs):
        return [self.extend_level(level, g) for g in graphs]

    def origins(self, vid):
        return self._origin_values[vid]

    def _store(self, key, pid, depth, payload, mask, values):
        vid = len(self._pid)
        self._table[key] = vid
        self._pid.append(pid)
        self._depth.append(depth)
        self._payload.append(payload)
        self._origin_mask.append(mask)
        self._origin_values.append(values)
        return vid

    def children(self, vid):
        if self._depth[vid] == 0:
            return frozenset()
        return frozenset(self._payload[vid])


# --------------------------------------------------------------------- #
# Strategies: a construction *script* of levels and random extensions
# --------------------------------------------------------------------- #


@st.composite
def construction_scripts(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    domain = draw(st.sampled_from([(0, 1), (0, 1, 2), ("a", "b")]))
    vectors = draw(
        st.lists(
            st.tuples(*[st.sampled_from(domain)] * n),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rounds = draw(st.integers(min_value=0, max_value=4))
    alphabet_size = draw(st.integers(min_value=1, max_value=3))
    return n, vectors, seed, rounds, alphabet_size


def _random_graphs(rng, n, count):
    graphs = []
    for _ in range(count):
        edges = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.5
        ]
        graphs.append(Digraph(n, edges))
    return graphs


def _run_script(interner, script):
    """Drive one interner through a script, returning all produced ids."""
    n, vectors, seed, rounds, alphabet_size = script
    rng = random.Random(seed)
    produced = []
    levels = [interner.leaf_level(vec) for vec in vectors]
    produced.extend(vid for level in levels for vid in level)
    for _ in range(rounds):
        alphabet = _random_graphs(rng, n, alphabet_size)
        nxt = []
        for level in levels:
            extended = interner.extend_level_multi(level, alphabet)
            nxt.extend(extended)
            # Exercise the single-graph path too.
            assert interner.extend_level(level, alphabet[0]) == extended[0]
        levels = nxt
        produced.extend(vid for level in levels for vid in level)
    return produced


@settings(max_examples=120, deadline=None)
@given(construction_scripts())
def test_ids_and_columns_match_dict_reference(script):
    n = script[0]
    table = ViewInterner(n)
    reference = DictInterner(n)
    got = _run_script(table, script)
    expected = _run_script(reference, script)
    assert got == expected
    assert len(table) == len(reference._pid)
    for vid in range(len(table)):
        assert table.pid(vid) == reference._pid[vid]
        assert table.depth(vid) == reference._depth[vid]
        assert table.origin_mask(vid) == reference._origin_mask[vid]
        assert table.children(vid) == reference.children(vid)
        assert table.origins(vid) == reference._origin_values[vid]
    stats = table.stats()
    assert stats.total == len(reference._pid)
    assert stats.leaves == reference._leaf_count
    assert stats.max_depth == (max(reference._depth) if reference._depth else 0)


@settings(max_examples=60, deadline=None)
@given(
    construction_scripts(),
    st.sampled_from(["python"] + (["numpy"] if numpy_available() else [])),
)
def test_reextension_is_idempotent(script, backend):
    """Re-running a script returns the same ids and interns nothing new."""
    n = script[0]
    interner = ViewInterner(n, layer_backend=backend)
    first = _run_script(interner, script)
    size = len(interner)
    assert _run_script(interner, script) == first
    assert len(interner) == size
    assert interner.stats().cached_extensions == 0


@settings(max_examples=60, deadline=None)
@given(construction_scripts(), st.integers(min_value=0, max_value=5))
def test_node_api_matches_reference(script, subset_seed):
    """Manual node() construction from level subsets allocates identically."""
    n = script[0]
    table = ViewInterner(n)
    reference = DictInterner(n)
    _run_script(table, script)
    _run_script(reference, script)
    rng = random.Random(subset_seed)
    # Group ids by depth so children share a depth (an interner invariant).
    by_depth = {}
    for vid in range(len(table)):
        by_depth.setdefault(table.depth(vid), []).append(vid)
    for depth, vids in sorted(by_depth.items()):
        # Build a value-consistent child sample (the interner rejects
        # children that disagree on some process's input).
        pool = vids[:]
        rng.shuffle(pool)
        sample: list[int] = []
        merged: dict[int, object] = {}
        for vid in pool:
            origins = dict(table.origins(vid))
            if all(merged.get(q, value) == value for q, value in origins.items()):
                merged.update(origins)
                sample.append(vid)
            if len(sample) >= n:
                break
        p = rng.randrange(n)
        assert table.node(p, sample) == reference.node(p, sample)
        assert len(table) == len(reference._pid)


# --------------------------------------------------------------------- #
# Table-specific behavior
# --------------------------------------------------------------------- #


def test_child_rows_are_interned_once():
    interner = ViewInterner(3)
    level = interner.leaf_level((0, 1, 0))
    complete = Digraph.complete(3)
    a = interner.extend_level(level, complete)
    # All three views of the complete round share one child row.
    rows = {interner.child_row(vid) for vid in a}
    assert len(rows) == 1
    assert interner.stats().rows == 1
    with pytest.raises(AnalysisError):
        interner.child_row(level[0])


def test_stats_report_table_geometry():
    interner = ViewInterner(2)
    stats = interner.stats()
    assert stats.total == stats.leaves == stats.rows == 0
    assert stats.approx_bytes > 0
    level = interner.leaf_level((0, 1))
    interner.extend_level(level, Digraph(2, [(0, 1)]))
    grown = interner.stats()
    assert grown.total == 4
    assert grown.leaves == 2
    assert grown.rows == 2
    assert grown.cached_extensions == 0
    assert grown.approx_bytes > stats.approx_bytes


def test_rejected_node_leaves_no_phantom_row():
    """A node() call that fails validation must not grow the tables."""
    interner = ViewInterner(2)
    level = interner.leaf_level((0, 1))
    deeper = interner.extend_level(level, Digraph(2, [(0, 1)]))
    before = interner.stats()
    with pytest.raises(AnalysisError):
        interner.node(0, [level[0], deeper[0]])  # mixed depths
    with pytest.raises(AnalysisError):
        interner.node(0, [level[0], interner.leaf(0, "other")])  # value clash
    after = interner.stats()
    assert after.rows == before.rows
    assert after.total == before.total + 1  # only the explicit extra leaf


def test_empty_interner_is_falsy_but_adoptable():
    """Regression: PrefixSpace must adopt a shared *empty* interner."""
    from repro.adversaries.lossylink import lossy_link_no_hub
    from repro.topology.prefixspace import PrefixSpace

    interner = ViewInterner(2)
    assert len(interner) == 0 and not interner
    space = PrefixSpace(lossy_link_no_hub(), interner=interner)
    assert space.interner is interner
    space.ensure_depth(2)
    assert len(interner) > 0
