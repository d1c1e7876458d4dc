"""k-set agreement under message adversaries (extension study).

The paper's conclusion names the generalization "to other decision
problems" as future work; k-set agreement is the canonical next problem:
every process decides a valid value, and at most ``k`` distinct values are
decided *per execution* (``k = 1`` is consensus).

Unlike consensus, processes in one execution may legally decide different
values, so the decision structure is not a component labelling but a
per-view assignment subject to per-execution cardinality constraints.  On a
depth-``t`` prefix space this is a finite constraint-satisfaction problem:

* variables: the views occurring at depth ``t`` (each owned by a process),
  keyed by their factored keys
  (:meth:`~repro.topology.prefixspace.PrefixSpace.view_keys`, one per full
  view), so the check materializes no prefix node except to report a
  failure;
* per admissible prefix: the set of its ``n`` views' values has size ≤ k;
* validity: weak — a view occurring in a unanimous-``v`` prefix is forced
  to ``v``; strong — a view's value must be an input of every prefix it
  occurs in.

:func:`check_kset_by_depth` decides, exactly, whether a k-set agreement
algorithm exists *that decides by round ``t``* (the analogue of the
consensus decision-table certificate).  A positive answer yields an
executable :class:`KSetTable`; a negative answer at increasing depths is
evidence (not proof) of unsolvability, reported honestly.
"""

from __future__ import annotations

from repro.adversaries.base import MessageAdversary
from repro.consensus.spec import STRONG, ConsensusSpec
from repro.core.views import ViewInterner, plain_ids
from repro.errors import AnalysisError, CertificateError
from repro.topology.prefixspace import PrefixSpace

__all__ = ["KSetTable", "check_kset_by_depth", "kset_depth_sweep"]


class KSetTable:
    """A certified per-view decision map for k-set agreement at a depth.

    ``assignment`` maps the factored key of every depth-``depth`` view to
    its value; :meth:`decision_for_view` takes full view ids.
    """

    __slots__ = ("space", "depth", "k", "spec", "assignment")

    def __init__(
        self,
        space: PrefixSpace,
        depth: int,
        k: int,
        spec: ConsensusSpec,
        assignment: dict[int, object],
    ) -> None:
        self.space = space
        self.depth = depth
        self.k = k
        self.spec = spec
        self.assignment = assignment

    def decision_for_view(self, view_id: int):
        """The decided value of the process holding ``view_id``.

        Raises :class:`KeyError` for a view that does not occur at the
        table's depth.
        """
        return self.assignment[self.space.view_key(view_id)]

    def validate(self) -> None:
        """Re-check the k-set contract over the whole prefix layer."""
        space = self.space
        depth = self.depth
        width = space.layer_store(depth).width
        input_sets = [set(vec) for vec in space.input_vectors]
        strong = self.spec.validity == STRONG
        for index, views in enumerate(_prefix_keys(space, depth)):
            values = {self.assignment[v] for v in views}
            x = index // width
            if len(values) > self.k:
                raise CertificateError(
                    f"{len(values)} > k = {self.k} values in "
                    f"{space.node(depth, index)!r}"
                )
            unanimous = space.unanimity_by_index[x]
            if unanimous is not None and values != {unanimous}:
                raise CertificateError(
                    f"validity violation in {space.node(depth, index)!r}"
                )
            if strong and not values <= input_sets[x]:
                raise CertificateError(
                    f"strong validity violation in {space.node(depth, index)!r}"
                )

    def __repr__(self) -> str:
        return f"KSetTable(k={self.k}, depth={self.depth}, views={len(self.assignment)})"


def _prefix_keys(space: PrefixSpace, depth: int) -> list[tuple[int, ...]]:
    """Per prefix of layer ``depth``, the factored keys of its ``n`` views."""
    n = space.adversary.n
    keys = plain_ids(space.view_keys(depth))
    return [tuple(keys[cell : cell + n]) for cell in range(0, len(keys), n)]


def _view_domains(
    space: PrefixSpace, depth: int, spec: ConsensusSpec
) -> tuple[dict[int, set], list[tuple[int, ...]]]:
    """Per-view value domains and the per-prefix view-key tuples."""
    width = space.layer_store(depth).width
    domains: dict[int, set] = {}
    prefix_views = _prefix_keys(space, depth)
    strong = spec.validity == STRONG
    for index, views in enumerate(prefix_views):
        x = index // width
        unanimous = space.unanimity_by_index[x]
        inputs = space.input_vectors[x]
        for v in views:
            domain = domains.setdefault(v, set(spec.domain))
            if unanimous is not None:
                domain &= {unanimous}
            if strong:
                domain &= set(inputs)
    return domains, prefix_views


def check_kset_by_depth(
    adversary: MessageAdversary,
    k: int,
    depth: int,
    spec: ConsensusSpec | None = None,
    interner: ViewInterner | None = None,
    max_nodes: int = 2_000_000,
) -> KSetTable | None:
    """Exact existence of a k-set agreement algorithm deciding by ``depth``.

    Returns a validated :class:`KSetTable` or ``None`` when no assignment
    exists (no algorithm whose decisions are functions of round-``depth``
    views can achieve k-agreement; deeper algorithms may still exist).
    """
    if k < 1:
        raise AnalysisError("k must be >= 1")
    spec = spec or ConsensusSpec()
    from repro.core.inputs import all_assignments

    space = PrefixSpace(
        adversary,
        input_vectors=all_assignments(adversary.n, spec.domain),
        interner=interner,
        max_nodes=max_nodes,
    )
    if k == 1:
        # Consensus: exact and fast via components (Theorem 5.5).
        from repro.topology.components import ComponentAnalysis

        analysis = ComponentAnalysis(space, depth)
        if not all(spec.allowed_values(c) for c in analysis.components):
            return None
        picked = [spec.pick_value(c) for c in analysis.components]
        comp_ids = plain_ids(analysis.comp_ids)
        assignment: dict[int, object] = {}
        for index, views in enumerate(_prefix_keys(space, depth)):
            value = picked[comp_ids[index]]
            for v in views:
                assignment[v] = value
        table = KSetTable(space, depth, k, spec, assignment)
        table.validate()
        return table

    domains, prefix_views = _view_domains(space, depth, spec)
    if any(not domain for domain in domains.values()):
        return None

    constraints_of: dict[int, list[int]] = {v: [] for v in domains}
    for index, views in enumerate(prefix_views):
        for v in views:
            constraints_of[v].append(index)

    assignment = {
        v: next(iter(domain)) for v, domain in domains.items() if len(domain) == 1
    }

    def consistent(view: int) -> bool:
        for index in constraints_of[view]:
            views = prefix_views[index]
            assigned = {assignment[v] for v in views if v in assignment}
            if len(assigned) > k:
                return False
        return True

    for view in list(assignment):
        if not consistent(view):
            return None

    # Forward-checking backtracking with dynamic most-constrained-first
    # variable selection.  A static variable order is fragile — its
    # tie-break depends on the view-key numbering, which the layer-kernel
    # backends deliberately do not fix — so the search instead prunes as
    # it assigns: once a prefix has ``k`` distinct assigned values, every
    # unassigned view of that prefix is restricted to those values, and an
    # emptied domain backtracks immediately.  Values already used in a
    # variable's prefixes are tried first to keep the per-execution value
    # sets small.
    dom: dict[int, set] = {
        v: set(domain) for v, domain in domains.items() if v not in assignment
    }
    budget = [2_000_000]

    def propagate(view: int, log: list) -> bool:
        """Forward-check one assignment; log restrictions for undo."""
        for index in constraints_of[view]:
            views = prefix_views[index]
            used = {assignment[w] for w in views if w in assignment}
            if len(used) > k:
                return False
            if len(used) == k:
                for w in views:
                    if w in assignment:
                        continue
                    d = dom[w]
                    removed = d - used
                    if removed:
                        d -= removed
                        log.append((w, removed))
                        if not d:
                            return False
        return True

    # Seed the domains from the forced views before searching.
    seed_log: list = []
    for view in list(assignment):
        if not propagate(view, seed_log):
            return None

    def value_order(view: int) -> list:
        used = set()
        for index in constraints_of[view]:
            for w in prefix_views[index]:
                if w in assignment:
                    used.add(assignment[w])
        ordered = sorted(dom[view], key=repr)
        return [value for value in ordered if value in used] + [
            value for value in ordered if value not in used
        ]

    def try_values(frame: list) -> bool:
        """Advance one frame to its next propagating value."""
        view, values, _ = frame
        while values:
            if budget[0] <= 0:
                raise AnalysisError(
                    "k-set backtracking exceeded its step budget; "
                    "reduce the depth or the input domain"
                )
            budget[0] -= 1
            assignment[view] = values.pop(0)
            log: list = []
            if propagate(view, log):
                frame[2] = log
                return True
            for w, removed in log:
                dom[w] |= removed
            del assignment[view]
        return False

    unassigned = set(dom)
    frames: list[list] = []
    while unassigned:
        view = min(
            unassigned,
            key=lambda w: (len(dom[w]), -len(constraints_of[w]), w),
        )
        unassigned.discard(view)
        frames.append([view, value_order(view), None])
        while frames and not try_values(frames[-1]):
            unassigned.add(frames.pop()[0])
            if not frames:
                return None
            previous = frames[-1]
            for w, removed in previous[2]:
                dom[w] |= removed
            previous[2] = None
            del assignment[previous[0]]
    table = KSetTable(space, depth, k, spec, dict(assignment))
    table.validate()
    return table


def kset_depth_sweep(
    adversary: MessageAdversary,
    k: int,
    max_depth: int = 5,
    spec: ConsensusSpec | None = None,
) -> tuple[int | None, list[bool]]:
    """First depth with a k-set certificate, plus the per-depth outcomes."""
    outcomes = []
    found = None
    for depth in range(max_depth + 1):
        table = check_kset_by_depth(adversary, k, depth, spec=spec)
        outcomes.append(table is not None)
        if table is not None and found is None:
            found = depth
            break
    return found, outcomes
