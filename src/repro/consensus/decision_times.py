"""Decision-time analysis of certified consensus algorithms.

The certification depth of a decision table bounds the *worst-case*
decision round, but the universal algorithm's early-decision rule
(Theorem 5.5: decide once the ε-ball around your view fits one decision
set) often decides sooner on most executions.  This module quantifies
that:

* :func:`decision_round_histogram` — for each admissible depth-``t``
  prefix, the round by which all processes have decided; the histogram
  is the "latency distribution" of the certified algorithm;
* :func:`worst_case_decision_round` — its maximum, i.e. the exact
  worst-case decision time of the certificate (the quantity studied for
  oblivious adversaries in the follow-up time-complexity literature);
* :func:`earliest_possible_round` — a lower bound for *any* algorithm:
  no process can decide while its view is still compatible with two
  decision values, so the max-min over prefixes of the first
  value-determined round bounds every correct algorithm from below.
"""

from __future__ import annotations

from collections import Counter

from repro.consensus.decision import DecisionTable

__all__ = [
    "decision_round_histogram",
    "worst_case_decision_round",
    "earliest_possible_round",
]


def decision_round_histogram(table: DecisionTable) -> dict[int, int]:
    """Histogram {round: #prefixes} of all-decided rounds at the table depth."""
    space = table.space
    counts: Counter = Counter()
    for node in space.layer(table.depth):
        counts[table.decision_round_for(node)] += 1
    return dict(sorted(counts.items()))


def worst_case_decision_round(table: DecisionTable) -> int:
    """The exact worst-case decision round of the certified algorithm."""
    histogram = decision_round_histogram(table)
    return max(histogram)


def earliest_possible_round(table: DecisionTable) -> int:
    """A lower bound on the decision time of *any* correct algorithm.

    For each admissible prefix, no process can decide before its view
    determines the decision value (otherwise an indistinguishable
    continuation with a different value violates agreement with the
    execution where the adversary plays it).  The bound is the maximum
    over prefixes of the first round at which *some* process's view is
    value-determined under the table's assignment.

    The table's assignment realizes a particular algorithm; since every
    correct algorithm induces *some* clopen partition, the bound is exact
    for this partition and indicative in general.
    """
    space = table.space
    worst = 0
    for node in space.layer(table.depth):
        earliest = None
        for s in range(table.depth + 1):
            views = node.prefix.views(s)
            if any(table.decision_for_view(view) is not None for view in views):
                earliest = s
                break
        if earliest is None:  # pragma: no cover - table.validate() forbids it
            earliest = table.depth
        worst = max(worst, earliest)
    return worst
