"""Sound impossibility and solvability provers.

The iterative-deepening checker certifies *solvability* with an explicit
decision table, but cannot certify *impossibility* from any finite depth
alone.  This module contributes sound certificates:

* :func:`find_nonbroadcastable_lasso` — an admissible ultimately periodic
  sequence on which no process is ever heard by everyone.  By the
  input-flipping chain in the proof of Theorem 5.11 this connects ``z_v``
  to ``z_w`` inside one component, so consensus is impossible.  The search
  is exact over the finite product (adversary state × heard-of masks):
  heard-of masks are monotone, hence constant on cycles.

* :class:`SingleComponentInduction` — for *oblivious* adversaries: if the
  depth-0 layer is connected and (C1) every process has a graph in which it
  hears only itself, and (C2) the graphs of ``D`` are chained by shared
  in-neighborhoods, then *every* layer is one connected component (proved by
  a one-round induction, see :meth:`SingleComponentInduction.explain`), so
  consensus is impossible by Corollary 5.6.  This automates the classic
  bivalence arguments: it fires on the Santoro–Widmayer lossy link
  {←, ↔, →} [21] and on the ``n-1``-loss families, and provably cannot fire
  on solvable sets like {←, →}.

* :func:`find_guaranteed_broadcaster` — a process ``p`` heard by everyone
  eventually in *every* admissible sequence.  Then every connected
  component is broadcastable by ``p`` and "decide ``x_p`` upon hearing
  ``p``" solves consensus (Theorem 5.11/6.7, sufficiency).  Exact over the
  same product construction, honouring Büchi liveness — this is the prover
  that resolves the non-compact, liveness-dependent families such as
  "eventually → forever" over base {←, ↔, →}.

* :func:`two_process_oblivious_verdict` — the exact classification of
  two-process oblivious adversaries from the literature ([21], [8], [9]):
  impossible iff the empty graph is available or D = {←, ↔, →}; used as an
  independent ground-truth oracle in tests and the census.

Product search
--------------
Both product provers share :func:`_product_lasso_search`.  Its cost per
product node follows the node's *distinct* successors, not the alphabet:
each automaton state is coded once per search as a letter table (the
distinct in-rows per process, each letter's index into them, a code per
distinct successor set), and a node folds its masks once per distinct
in-row, packs one (masks, successor set) key per letter and keeps the
*first* letter per key.  States with fewer than
``_LASSO_TABLE_MIN_LETTERS`` letters step every letter instead, which is
cheaper on small alphabets.  States with at least
``_LASSO_NUMPY_MIN_LETTERS`` letters whose key fits an int64 run the numpy
body when numpy imports; all others run the pure-Python body.  Both return
the same keys in the same order, and the kept edges are exactly the ones
the exploration and the cycle/path searches follow, so the witnesses equal
those of a per-letter scan whichever body ran.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.adversaries.base import MessageAdversary
from repro.adversaries.oblivious import ObliviousAdversary
from repro.core.digraph import Digraph
from repro.core.graphword import GraphWord, full_mask, heard_of_step
from repro.core.views import numpy_module
from repro.errors import AnalysisError

__all__ = [
    "find_nonbroadcastable_lasso",
    "find_lasso_avoiding_broadcast_by",
    "find_guaranteed_broadcaster",
    "SingleComponentInduction",
    "two_process_oblivious_verdict",
]


# --------------------------------------------------------------------- #
# Product search: adversary automaton × heard-of masks
# --------------------------------------------------------------------- #

#: Below this many letters in a state the per-node step runs the Python
#: body; the numpy body's fixed cost only pays off on large alphabets.
#: Measured per expanded node on the nodes real searches visit (heard-of
#: and random oblivious n=3/4 alphabets of 8-512 letters, two draws,
#: 2-core x86): Python is 2x faster at 8 letters, 1.7x at 16 and 1.3x at
#: 32; the bodies break even at 48-64; numpy is 1.3x faster at 96, 1.5x at
#: 128, 2.1x at 256 and 3.1x at 512.
_LASSO_NUMPY_MIN_LETTERS = 64

#: Below this many letters a state's successors are stepped letter by
#: letter instead of through a :class:`_LetterTable`.  Measured on the
#: lasso plus broadcaster searches of random oblivious n=2/3/4 alphabets
#: (five draws per size, 2-core x86): per-letter stepping takes 0.54-0.67x
#: the table's time at 2-4 letters, 0.6-0.7x at 6, 0.8-0.9x at 8, breaks
#: even at 12 (0.99-1.07x), and is 1.2x slower at 16, 1.3-1.6x at 24 and
#: 2.3-2.4x at 64.  The per-letter step wins on small alphabets per node,
#: not only by skipping the table's construction.
_LASSO_TABLE_MIN_LETTERS = 12

#: The numpy body packs a successor key into one int64 (sign bit unused).
_NUMPY_KEY_BITS = 63


class _LetterTable:
    """The letters of one automaton state, coded for the per-node step.

    ``graphs[i]`` and ``successors[i]`` are letter ``i`` in the state's
    mapping order; ``base[i]`` is the code of its successor set, shifted
    above the ``n * n`` mask bits.  ``rows[q]`` maps the distinct
    in-neighbor tuples of process ``q`` over the letters, in
    first-occurrence order, to their positions, and ``index[q][i]`` is
    letter ``i``'s position.  ``arrays`` holds numpy copies of ``base``
    and ``index`` when the numpy body runs for this state, else None.
    """

    __slots__ = ("graphs", "successors", "base", "rows", "index", "arrays")

    def __init__(self, n: int, transitions: Mapping[Digraph, frozenset]) -> None:
        graphs = self.graphs = list(transitions)
        successors = self.successors = list(transitions.values())
        codes: dict[frozenset, int] = {}
        shift = n * n
        self.base = [codes.setdefault(succ, len(codes)) << shift for succ in successors]
        rows: list[dict[tuple[int, ...], int]] = []
        index: list[list[int]] = []
        for column in zip(*[g.in_neighbor_lists for g in graphs]):
            position: dict[tuple[int, ...], int] = {}
            index.append([position.setdefault(row, len(position)) for row in column])
            rows.append(position)
        self.rows, self.index = rows, index
        self.arrays: Any = None
        np = numpy_module() if len(graphs) >= _LASSO_NUMPY_MIN_LETTERS else None
        if np is not None:
            key_bits = shift + max(1, (len(codes) - 1).bit_length())
            if key_bits <= _NUMPY_KEY_BITS:
                self.arrays = (
                    np.array(self.base, dtype=np.int64),
                    [np.array(idx, dtype=np.intp) for idx in index],
                )

    def folded(self, masks: tuple[int, ...]) -> list[list[int]]:
        """Per process, ``masks`` OR-ed over each of its distinct in-rows.

        Process ``q``'s values are shifted to its key bits, ``n * q``.
        """
        n = len(masks)
        out = []
        for q, rows in enumerate(self.rows):
            shift = n * q
            values = []
            for row in rows:
                mask = 0
                for r in row:
                    mask |= masks[r]
                values.append(mask << shift)
            out.append(values)
        return out


def _distinct_successors_python(
    table: _LetterTable, masks: tuple[int, ...]
) -> Iterable[tuple[int, int]]:
    """(packed key, first letter) per distinct successor key, in letter order.

    A process whose folds all agree adds the same bits to every key, so
    it is OR-ed in after the deduplication instead of per letter.
    """
    keys = table.base
    common = 0
    for values, index in zip(table.folded(masks), table.index):
        if values.count(values[0]) == len(values):
            common |= values[0]
        else:
            keys = [key | values[i] for key, i in zip(keys, index)]
    first: dict[int, int] = {}
    for letter, key in enumerate(keys):
        if key not in first:
            first[key] = letter
    if common:
        return [(key | common, letter) for key, letter in first.items()]
    return first.items()


def _distinct_successors_numpy(
    table: _LetterTable, masks: tuple[int, ...]
) -> Iterable[tuple[int, int]]:
    """The numpy twin of :func:`_distinct_successors_python` (same output)."""
    np = numpy_module()
    keys = table.arrays[0]
    common = 0
    for values, letters in zip(table.folded(masks), table.arrays[1]):
        if values.count(values[0]) == len(values):
            common |= values[0]
        else:
            keys = keys | np.array(values, dtype=np.int64)[letters]
    _, first = np.unique(keys, return_index=True)
    first.sort()
    return [
        (key | common, letter)
        for key, letter in zip(keys[first].tolist(), first.tolist())
    ]


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

    Work per product node scales with its distinct successors, not with
    the letters.  Each automaton state gets a :class:`_LetterTable` once
    per search.  A node folds its masks once per distinct in-row and
    gathers the folds per letter into one packed (masks, successor set)
    key; only the *first* letter per key is kept.  The test then runs once
    per kept key, and the node stores one edge per distinct successor
    node, in first-occurrence order.  The exploration and the cycle/path
    searches only ever follow the first edge to each successor in a
    node's edge list, which is exactly the edge the first letter gives, so
    the returned words equal those of a per-letter scan.  States with
    fewer than ``_LASSO_TABLE_MIN_LETTERS`` letters skip the table and step
    every letter; a repeated successor node keeps its first letter's edge,
    so the edges are the same.
    States with at least ``_LASSO_NUMPY_MIN_LETTERS`` letters whose key
    fits an int64 run the numpy body when numpy is available; all others
    run the Python body, with identical results.
    """
    n = adversary.n
    accepting = adversary.accepting_states()
    initial_masks = tuple(1 << p for p in range(n))
    if not forbidden_mask_test(initial_masks):
        return None
    full = full_mask(n)
    shifts = range(0, n * n, n)

    # Forward exploration of the reachable, test-satisfying product graph.
    start_nodes = {
        (state, initial_masks)
        for state in adversary.initial_states() & adversary.live_states()
    }
    tables: dict[Any, _LetterTable] = {}
    edges: dict[tuple, list[tuple[Digraph, tuple]]] = {}
    stack = list(start_nodes)
    seen = set(start_nodes)
    while stack:
        state, masks = stack.pop()
        transitions = adversary.transitions(state)
        if len(transitions) < _LASSO_TABLE_MIN_LETTERS:
            # A small alphabet steps faster letter by letter than by table.
            steps: Iterable[tuple] = [
                (heard_of_step(graph, masks), graph, successors)
                for graph, successors in transitions.items()
            ]
        else:
            table = tables.get(state)
            if table is None:
                table = tables[state] = _LetterTable(n, transitions)
            if table.arrays is None:
                distinct = _distinct_successors_python(table, masks)
            else:
                distinct = _distinct_successors_numpy(table, masks)
            steps = [
                (
                    tuple([key >> shift & full for shift in shifts]),
                    table.graphs[letter],
                    table.successors[letter],
                )
                for key, letter in distinct
            ]
        out: list[tuple[Digraph, tuple]] = []
        targets: set[tuple] = set()
        for nxt_masks, graph, successors in steps:
            if not forbidden_mask_test(nxt_masks):
                continue
            for nxt_state in successors:
                node = (nxt_state, nxt_masks)
                if node in targets:
                    continue
                targets.add(node)
                out.append((graph, node))
                if node not in seen:
                    seen.add(node)
                    stack.append(node)
        edges[(state, masks)] = out

    # Look for a cycle through an accepting state.  Masks are constant on
    # cycles, so it is enough to find an accepting node that reaches itself
    # (a node without out-edges cannot).
    candidates = [
        node for node, out in edges.items() if out and node[0] in accepting
    ]
    for node in sorted(candidates, key=repr):
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


def _find_cycle(edges, node) -> list[Digraph] | None:
    """A graph-labelled cycle from ``node`` back to itself (None if absent)."""
    back: dict[tuple, tuple[tuple, Digraph]] = {}
    stack = [node]
    visited = set()
    while stack:
        current = stack.pop()
        for graph, nxt in edges.get(current, ()):
            if nxt == node:
                # Reconstruct node -> ... -> current -> node.
                labels = [graph]
                walk = current
                while walk != node:
                    walk, label = back[walk]
                    labels.append(label)
                labels.reverse()
                return labels
            if nxt not in visited:
                visited.add(nxt)
                back[nxt] = (current, graph)
                stack.append(nxt)
    return None


def _find_path(edges, sources: set, target) -> list[Digraph] | None:
    """A graph-labelled path from any source to ``target`` (None if absent)."""
    if target in sources:
        return []
    back: dict[tuple, tuple[tuple, Digraph]] = {}
    stack = list(sources)
    visited = set(sources)
    while stack:
        current = stack.pop()
        for graph, nxt in edges.get(current, ()):
            if nxt in visited:
                continue
            visited.add(nxt)
            back[nxt] = (current, graph)
            if nxt == target:
                labels = []
                walk = nxt
                while walk not in sources:
                    walk, label = back[walk]
                    labels.append(label)
                labels.reverse()
                return labels
            stack.append(nxt)
    return None


def find_nonbroadcastable_lasso(
    adversary: MessageAdversary,
) -> tuple[GraphWord, GraphWord] | None:
    """An admissible lasso on which *no* process is ever heard by everyone.

    A non-None result proves consensus impossible (input-flipping chain in
    the proof of Theorem 5.11); ``None`` means every admissible ultimately
    periodic sequence eventually has a broadcaster — and since the search is
    exact over the finite product, every admissible sequence does.
    """

    def nobody_broadcast(masks: tuple[int, ...]) -> bool:
        common = full_mask(adversary.n)
        for mask in masks:
            common &= mask
        return common == 0

    return _product_lasso_search(adversary, nobody_broadcast)


def find_lasso_avoiding_broadcast_by(
    adversary: MessageAdversary, p: int
) -> tuple[GraphWord, GraphWord] | None:
    """An admissible lasso on which process ``p`` is never heard by everyone.

    Raises :class:`~repro.errors.AnalysisError` unless ``0 <= p < n``.
    """
    if not 0 <= p < adversary.n:
        raise AnalysisError(
            f"process {p} out of range for n = {adversary.n}"
        )

    def p_not_broadcast(masks: tuple[int, ...]) -> bool:
        return any(not (mask >> p & 1) for mask in masks)

    return _product_lasso_search(adversary, p_not_broadcast)


def find_guaranteed_broadcaster(adversary: MessageAdversary) -> int | None:
    """A process heard by everyone, eventually, in every admissible sequence.

    If such a ``p`` exists, "decide ``x_p`` upon hearing ``p``" solves
    consensus (every component is broadcastable by ``p``; Theorem 5.11),
    even for non-compact adversaries whose prefix spaces never separate.
    Returns the smallest such process, or None.
    """
    for p in range(adversary.n):
        if find_lasso_avoiding_broadcast_by(adversary, p) is None:
            return p
    return None


# --------------------------------------------------------------------- #
# Single-component induction (oblivious adversaries)
# --------------------------------------------------------------------- #


def oblivious_cores(adversary: MessageAdversary) -> list[frozenset[Digraph]]:
    """Candidate sets ``D`` with ``D^ω`` contained in a *limit-closed* language.

    For an oblivious adversary the only candidate is its graph set.  For a
    general limit-closed (safety) adversary two kinds of sound candidates
    are produced:

    * the *global core*: letters enabled, with a live successor, from
      every live state (any word over them can always be continued);
    * per initial state ``s``: the letters that loop at ``s`` — staying in
      ``s`` forever keeps the run alive, so that letter set iterated from
      round one is a sub-adversary.

    Non-limit-closed adversaries yield no candidates: a liveness promise
    could exclude parts of ``D^ω``, so no oblivious core is sound there.

    Consensus impossibility is monotone in the admissible set (a larger
    adversary is stronger), so an impossibility certificate for any
    candidate ``D^ω`` lifts to the full adversary.
    """
    if isinstance(adversary, ObliviousAdversary):
        return [adversary.graphs]
    if not adversary.is_limit_closed():
        return []
    live = adversary.live_states()
    candidates: list[frozenset[Digraph]] = []
    core: set[Digraph] | None = None
    for state in live:
        enabled = {
            g
            for g, successors in adversary.transitions(state).items()
            if set(successors) & live
        }
        core = enabled if core is None else core & enabled
    if core:
        candidates.append(frozenset(core))
    for state in adversary.initial_states() & live:
        looping = frozenset(
            g
            for g, successors in adversary.transitions(state).items()
            if state in successors
        )
        if looping and looping not in candidates:
            candidates.append(looping)
    # Prefer larger candidates: they make C1/C2 easier to satisfy.
    candidates.sort(key=len, reverse=True)
    return candidates


def oblivious_core(adversary: MessageAdversary) -> frozenset[Digraph]:
    """The largest sound oblivious core (empty when none exists)."""
    candidates = oblivious_cores(adversary)
    return candidates[0] if candidates else frozenset()


class SingleComponentInduction:
    """Certified impossibility by inductive connectivity.

    Applies to the oblivious core ``D`` of a limit-closed adversary (for an
    oblivious adversary, ``D`` is its graph set).  Checks three finite
    conditions, with the full input space over a domain with >= 2 values:

    * (C0) the depth-0 layer is one component — always true for n >= 2
      because assignments differing in one coordinate share the others;
    * (C1) for every process ``p`` there is ``G ∈ D`` with
      ``In_G(p) = {p}``;
    * (C2) the "shared in-neighborhood" graph on ``D`` (G ~ H iff some
      process has the same in-neighborhood in both) is connected.

    Induction step: if layer ``t`` is one component then so is layer
    ``t+1``: (i) extensions ``a·G`` and ``a·H`` of the same prefix are
    linked through C2-chains (views of other processes are equal because
    the prefix is shared); (ii) a link ``a ~_p b`` survives extension by the
    C1 graph ``G_p``, since ``V_p(a·G_p) = (p, {V_p(a)})``.  Hence ``z_0``
    and ``z_1`` stay connected at every depth and consensus is impossible
    by Corollary 5.6 — for ``D^ω`` and, by monotonicity, for the full
    adversary.
    """

    def __init__(self, adversary: MessageAdversary) -> None:
        self.adversary = adversary
        self.n = adversary.n
        self.core: frozenset[Digraph] = frozenset()
        self._c1_witnesses: dict[int, Digraph] = {}
        self._c2_connected = False
        for candidate in oblivious_cores(adversary):
            witnesses, connected = self._evaluate(candidate)
            if self.core == frozenset():
                # Remember the first (largest) candidate for reporting even
                # when the certificate does not fire.
                self.core, self._c1_witnesses, self._c2_connected = (
                    candidate,
                    witnesses,
                    connected,
                )
            if len(witnesses) == self.n and connected:
                self.core, self._c1_witnesses, self._c2_connected = (
                    candidate,
                    witnesses,
                    connected,
                )
                break

    def _evaluate(
        self, core: frozenset[Digraph]
    ) -> tuple[dict[int, Digraph], bool]:
        graphs = sorted(core)
        witnesses: dict[int, Digraph] = {}
        if not graphs:
            return witnesses, False
        # C1 on the bitmask rows: ``In_G(p) = {p}`` iff the in-bit row of p
        # is exactly p's own bit.
        for p in range(self.n):
            own = 1 << p
            for g in graphs:
                if g.in_bits[p] == own:
                    witnesses[p] = g
                    break
        # C2: connectivity of the shared-in-neighborhood relation.  Instead
        # of the O(|D|^2 n) pairwise scan, bucket graphs by (p, in-row):
        # all graphs sharing a bucket are pairwise related, so chaining each
        # bucket is enough — O(|D| n) unions.
        from repro.topology.components import UnionFind

        uf = UnionFind(len(graphs))
        buckets: dict[tuple[int, int], int] = {}
        for i, g in enumerate(graphs):
            rows = g.in_bits
            for p in range(self.n):
                key = (p, rows[p])
                first = buckets.setdefault(key, i)
                if first != i:
                    uf.union(first, i)
        root = uf.find(0)
        connected = all(uf.find(i) == root for i in range(len(graphs)))
        return witnesses, connected

    @property
    def c1_holds(self) -> bool:
        """Every process has a graph in which it hears only itself."""
        return len(self._c1_witnesses) == self.n

    @property
    def c2_holds(self) -> bool:
        """The shared-in-neighborhood graph on ``D`` is connected."""
        return self._c2_connected

    @property
    def applies(self) -> bool:
        """Whether the certificate fires (n >= 2 ensures C0)."""
        return bool(self.core) and self.n >= 2 and self.c1_holds and self.c2_holds

    def explain(self) -> str:
        """A human-readable account of the certificate."""
        lines = [
            f"Single-component induction on {self.adversary.name} "
            f"(oblivious core of {len(self.core)} graphs):",
            f"  C1 (self-isolating graph per process): {self.c1_holds} "
            f"{{{', '.join(f'{p}:{g.name}' for p, g in sorted(self._c1_witnesses.items())) }}}",
            f"  C2 (shared in-neighborhood chain over D): {self.c2_holds}",
        ]
        if self.applies:
            lines.append(
                "  => every depth-t layer is one connected component; "
                "consensus impossible (Corollary 5.6)."
            )
        else:
            lines.append("  => certificate does not apply.")
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# Two-process exact verdict (literature oracle)
# --------------------------------------------------------------------- #


def two_process_oblivious_verdict(adversary: ObliviousAdversary) -> bool:
    """Exact solvability of two-process oblivious consensus ([21], [8], [9]).

    Returns True iff consensus is solvable: impossible exactly when the
    empty graph is available (processes may never communicate) or when
    ``D = {←, ↔, →}`` (the Santoro–Widmayer lossy link).
    """
    if adversary.n != 2:
        raise AnalysisError("this verdict is specific to n = 2")
    empty = Digraph.empty(2)
    if empty in adversary.graphs:
        return False
    full_set = {
        Digraph.from_arrow("->"),
        Digraph.from_arrow("<-"),
        Digraph.from_arrow("<->"),
    }
    return not adversary.graphs >= full_set
