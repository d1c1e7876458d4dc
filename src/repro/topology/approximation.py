"""The ε-approximation of Definition 6.2, implemented literally.

``PS^ε_z`` is defined by iterating ball unions: start from ``{z}``, repeatedly
add every admissible prefix within ``ε`` of a member, until a fixpoint.  For
``ε = 2^{-t}`` on the depth-``t`` layer this fixpoint coincides with the
connected component of the indistinguishability graph, which
:class:`~repro.topology.components.ComponentAnalysis` computes with
union-find.  This module keeps the *literal* iterative construction — useful
both as an executable rendering of the definition and as an independent
cross-check (the test suite asserts the two computations agree on every
example).

It also provides the per-value approximation ``PS^ε(v) = ∪ PS^ε_{z_v}`` and
Lemma 6.3's properties as executable checks.
"""

from __future__ import annotations

from repro.errors import AnalysisError
from repro.topology.prefixspace import PrefixNode, PrefixSpace

__all__ = ["EpsApproximation", "eps_ball", "eps_approximation_of_value"]


def eps_ball(space: PrefixSpace, depth: int, center: PrefixNode) -> list[PrefixNode]:
    """The ball ``B_{2^{-depth}}(center) ∩ PS`` on the depth-``depth`` layer.

    A prefix is in the ball iff some process's views agree with ``center``'s
    through round ``depth`` (i.e. ``d_min < 2^{-depth}``).
    """
    store = space.layer_store(depth)
    center_views = center.prefix.views(depth)
    n = space.adversary.n
    ball = []
    for index, views in enumerate(store.levels):
        if any(views[p] == center_views[p] for p in range(n)):
            ball.append(space.node(depth, index))
    return ball


class EpsApproximation:
    """The iterative construction ``PS^ε_z`` of Definition 6.2.

    Parameters
    ----------
    space:
        The admissible prefix space.
    depth:
        Determines ``ε = 2^{-depth}`` and the layer on which to work.
    seed:
        The starting prefix ``z``.

    Attributes
    ----------
    iterations:
        Number of ball-union rounds until the fixpoint (the ``m`` of
        Definition 6.2).
    member_indices:
        Indices of the members on the layer, in first-reached order.
    """

    def __init__(self, space: PrefixSpace, depth: int, seed: PrefixNode) -> None:
        self.space = space
        self.depth = depth
        self.seed = seed
        store = space.layer_store(depth)
        if not space.owns_node(depth, seed):
            raise AnalysisError("seed must be a node of the chosen layer of this space")
        levels = store.levels

        n = space.adversary.n
        # Index views once: packed (view id, p) key -> node indices.
        buckets: dict[int, list[int]] = {}
        for index, views in enumerate(levels):
            for p in range(n):
                buckets.setdefault(views[p] * n + p, []).append(index)

        member_flags = [False] * len(levels)
        member_flags[seed.index] = True
        frontier = [seed.index]
        order = [seed.index]
        iterations = 0
        while frontier:
            iterations += 1
            nxt: list[int] = []
            for index in frontier:
                views = levels[index]
                for p in range(n):
                    for other in buckets[views[p] * n + p]:
                        if not member_flags[other]:
                            member_flags[other] = True
                            nxt.append(other)
                            order.append(other)
            frontier = nxt
        self.iterations = iterations
        self.member_indices = order
        self._member_set = frozenset(order)

    def members(self) -> list[PrefixNode]:
        """The member prefixes, in the order the construction reached them."""
        layer = self.space.layer(self.depth)
        return [layer[i] for i in self.member_indices]

    def __contains__(self, node: PrefixNode) -> bool:
        """Membership of a node of this layer; nodes of another layer or
        another prefix space are never members (their indices mean
        nothing here)."""
        return (
            self.space.owns_node(self.depth, node)
            and node.index in self._member_set
        )

    def __len__(self) -> int:
        return len(self.member_indices)

    def contains_valence(self, value) -> bool:
        """Whether some unanimous-``value`` prefix belongs to the set."""
        return any(node.unanimous_value == value for node in self.members())

    def __repr__(self) -> str:
        return (
            f"EpsApproximation(depth={self.depth}, size={len(self)}, "
            f"iterations={self.iterations})"
        )


def eps_approximation_of_value(
    space: PrefixSpace, depth: int, value
) -> list[PrefixNode]:
    """``PS^ε(v)``: the union of ``PS^ε_{z_v}`` over all ``v``-valent seeds.

    Definition 6.2's per-value approximation, computed by seeding the
    iteration at every unanimous-``value`` prefix of the layer.
    """
    seeds = space.unanimous_nodes(depth).get(value, [])
    if not seeds:
        raise AnalysisError(f"no unanimous-{value!r} prefix at depth {depth}")
    seen: set[int] = set()
    result: list[PrefixNode] = []
    for seed in seeds:
        if seed.index in seen:
            continue
        approx = EpsApproximation(space, depth, seed)
        for node in approx.members():
            if node.index not in seen:
                seen.add(node.index)
                result.append(node)
    return result
