"""Consensus problem specification (Definition 5.1).

Processes start with inputs from a finite domain ``V_I`` and must
irrevocably decide a common output value subject to termination, agreement,
and a validity condition.  Two validity conditions are supported, following
the paper's remark after Definition 5.1:

* ``"weak"`` — if all processes start with ``v``, the decision is ``v``;
* ``"strong"`` — every decision value is the input of some process in the
  execution.

The spec turns the abstract conditions into constraints on the value a
decision procedure may assign to a connected component of the prefix space.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import AnalysisError
from repro.topology.components import Component

__all__ = ["ConsensusSpec", "WEAK", "STRONG"]

WEAK = "weak"
STRONG = "strong"


class ConsensusSpec:
    """Input domain and validity condition of a consensus instance.

    Examples
    --------
    >>> spec = ConsensusSpec()
    >>> spec.domain
    (0, 1)
    """

    __slots__ = ("domain", "validity")

    def __init__(self, domain: Iterable = (0, 1), validity: str = WEAK) -> None:
        values = tuple(domain)
        if len(values) < 2:
            raise AnalysisError(
                "consensus needs an input domain with at least two values"
            )
        if len(set(values)) != len(values):
            raise AnalysisError("input domain has duplicate values")
        if validity not in (WEAK, STRONG):
            raise AnalysisError(f"unknown validity condition {validity!r}")
        self.domain = values
        self.validity = validity

    def allowed_values(self, component: Component) -> frozenset:
        """The decision values a correct algorithm may map this component to.

        * Weak validity constrains only components containing unanimous
          prefixes: a unanimous-``v`` member forces value ``v``; two
          different valences force the empty set (bivalence).
        * Strong validity intersects, over all members, the sets of input
          values present in the member's assignment — members share their
          assignments with the component's input class, so only the class
          is read.
        """
        if self.validity == WEAK:
            if not component.valences:
                return frozenset(self.domain)
            if len(component.valences) == 1:
                return component.valences
            return frozenset()
        allowed = set(self.domain)
        for vector in component.input_vectors():
            allowed &= set(vector)
            if not allowed:
                break
        return frozenset(allowed)

    def pick_value(self, component: Component) -> object:
        """A deterministic choice among the allowed values of a component.

        Preference order: the forced valence; the (constant, by Theorem 5.9)
        input of the smallest broadcaster; the smallest allowed domain value.
        Raises when the allowed set is empty (bivalent component).
        """
        allowed = self.allowed_values(component)
        if not allowed:
            raise AnalysisError(
                f"component {component.id} admits no decision value "
                f"(valences {set(component.valences)})"
            )
        if len(allowed) == 1:
            return next(iter(allowed))
        for p in sorted(component.broadcasters):
            value = component.broadcaster_value(p)
            if value in allowed:
                return value
        for value in self.domain:
            if value in allowed:
                return value
        raise AnalysisError("unreachable: nonempty allowed set")  # pragma: no cover

    def __repr__(self) -> str:
        return f"ConsensusSpec(domain={self.domain!r}, validity={self.validity!r})"
