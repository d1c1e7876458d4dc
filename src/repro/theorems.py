"""Executable statements of the paper's theorems.

Each function checks one theorem/lemma on concrete objects and raises
:class:`~repro.errors.AnalysisError` with a precise message when the
claimed property fails.  They serve three purposes: (i) the test suite runs
them on randomized instances, turning the paper's proofs into regression
tests; (ii) the benchmarks call them to document which claim each artifact
certifies; (iii) they are living documentation — the statement of each
theorem in code, next to its section number.

Implemented statements:

* :func:`theorem_4_3`   — properties of the P-pseudo-metric;
* :func:`lemma_4_8`     — the min-formula for ``d_min``;
* :func:`lemma_4_5`     — continuity of the transition function ``τ``
  (state divergence can never precede view divergence);
* :func:`lemma_5_2`     — continuity (local constancy) of the decision map;
* :func:`theorem_5_4`   — decision sets are clopen: unions of components;
* :func:`theorem_5_9`   — broadcastable connected sets have diameter ≤ 1/2
  and a constant broadcaster input;
* :func:`corollary_6_1` — for compact adversaries the (algorithm's)
  decision sets are positively separated at every depth.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.consensus.decision import DecisionTable
from repro.core.distances import d_max, d_min, d_p, d_view, divergence_time
from repro.core.ptg import PTGPrefix
from repro.errors import AnalysisError
from repro.simulation.algorithms import ConsensusAlgorithm
from repro.simulation.traces import trace_divergence_time, trace_of
from repro.topology.components import Component, ComponentAnalysis
from repro.topology.separation import node_set_diameter, node_set_distance

__all__ = [
    "theorem_4_3",
    "lemma_4_5",
    "lemma_4_8",
    "lemma_5_2",
    "theorem_5_4",
    "theorem_5_9",
    "corollary_6_1",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise AnalysisError(f"theorem violation: {message}")


def theorem_4_3(a: PTGPrefix, b: PTGPrefix, c: PTGPrefix) -> None:
    """Properties of the P-pseudo-metric (symmetry, triangle, monotonicity,
    common-prefix identity), checked on a concrete triple."""
    n = a.n
    processes = tuple(range(n))
    for p in processes:
        _require(d_p(a, b, p) == d_p(b, a, p), "symmetry of d_p")
        _require(
            d_p(a, c, p) <= d_p(a, b, p) + d_p(b, c, p) + 1e-12,
            "triangle inequality of d_p",
        )
    for size in range(1, n):
        small = processes[:size]
        large = processes[: size + 1]
        _require(
            d_view(a, b, small) <= d_view(a, b, large),
            "monotonicity of d_P in P",
        )
    _require(d_view(a, b, processes) == d_max(a, b), "d_[n] equals d_max")


def lemma_4_8(a: PTGPrefix, b: PTGPrefix) -> None:
    """``d_min = min_p d_p`` (the product-formula of Lemma 4.8)."""
    _require(
        d_min(a, b) == min(d_p(a, b, p) for p in range(a.n)),
        "min-formula for d_min",
    )


def lemma_4_5(
    algorithm: ConsensusAlgorithm,
    a: PTGPrefix,
    b: PTGPrefix,
    processes: Iterable[int] | None = None,
) -> None:
    """Continuity of ``τ``: states cannot diverge before views do.

    For any deterministic algorithm, the local state of ``p`` at time ``t``
    is a function of ``p``'s view at time ``t``; hence if the views of
    every ``p ∈ P`` agree up to ``t``, so do the states, i.e.
    ``d_P(τ(a), τ(b)) <= d_P(a, b)``.
    """
    trace_a = trace_of(algorithm, a.inputs, a.word)
    trace_b = trace_of(algorithm, b.inputs, b.word)
    subset = tuple(range(a.n)) if processes is None else tuple(processes)
    view_time = divergence_time(a, b, subset)
    state_time = trace_divergence_time(trace_a, trace_b, subset)
    if state_time is not None:
        _require(
            view_time is not None and state_time >= view_time,
            f"states diverge at {state_time} before views "
            f"({view_time}) — τ not continuous",
        )


def lemma_5_2(table: DecisionTable, a, b) -> None:
    """Local constancy of the decision map ``Δ`` (continuity).

    If two admissible prefixes are within ``2^{-depth}`` of each other in
    the minimum topology (some process shares its full view), their runs
    decide the same value under the table's algorithm.
    """
    depth = table.depth
    views_a = a.prefix.views(depth)
    views_b = b.prefix.views(depth)
    if not any(views_a[p] == views_b[p] for p in range(a.prefix.n)):
        return
    decision_a = {table.decision_for_view(v) for v in views_a}
    decision_b = {table.decision_for_view(v) for v in views_b}
    _require(
        decision_a == decision_b and len(decision_a) == 1,
        "decision map not locally constant on an indistinguishable pair",
    )


def theorem_5_4(analysis: ComponentAnalysis, table: DecisionTable) -> None:
    """Decision sets are clopen: every component maps to a single value."""
    _require(analysis.depth == table.depth, "analysis/table depth mismatch")
    for component in analysis.components:
        values = set()
        for node in component.members():
            values.update(
                table.decision_for_view(v) for v in node.prefix.views(table.depth)
            )
        _require(
            len(values) == 1 and None not in values,
            f"component {component.id} crosses decision sets: {values}",
        )


def theorem_5_9(component: Component) -> None:
    """Broadcastable connected sets have diameter ≤ 1/2 and constant input."""
    if not component.is_broadcastable:
        return
    members = list(component.members())
    _require(
        node_set_diameter(members) <= 0.5,
        "broadcastable component has d_min-diameter > 1/2",
    )
    for p in component.broadcasters:
        component.broadcaster_value(p)  # raises on non-constant inputs


def corollary_6_1(
    analysis: ComponentAnalysis,
    table: DecisionTable,
    values: Sequence,
) -> None:
    """Compact decision sets are positively separated (via Theorem 5.13)."""
    depth = analysis.depth
    _require(depth >= table.depth, "analysis must be at least as deep as the table")
    space = analysis.space
    groups: dict = {value: [] for value in values}
    for node in space.layer(depth):
        value = table.decision_for_view(node.prefix.view(0, table.depth))
        groups[value].append(node)
    labels = [v for v in values if groups[v]]
    for i, left in enumerate(labels):
        for right in labels[i + 1 :]:
            _require(
                node_set_distance(groups[left], groups[right]) > 0.0,
                f"decision sets PS({left!r}) and PS({right!r}) touch",
            )
