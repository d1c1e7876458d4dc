"""The consensus solvability checker (Theorems 5.5, 5.11, 6.6, 6.7).

:func:`check_consensus` orchestrates every certificate the library knows:

1. **Impossibility provers** (sound, exact where they apply):
   an admissible lasso with no broadcaster ever
   (:func:`~repro.consensus.provers.find_nonbroadcastable_lasso`,
   Theorem 5.11) and, for oblivious adversaries, the single-component
   induction (:class:`~repro.consensus.provers.SingleComponentInduction`,
   Corollary 5.6).

2. **Guaranteed-broadcaster solvability** (Theorem 5.11/6.7 sufficiency):
   a process heard by all in every admissible sequence yields the
   "decide x_p upon hearing p" algorithm — the certificate that resolves
   non-compact adversaries whose prefix spaces never separate.

3. **Iterative deepening** over the prefix space: at each depth ``t``
   compute the indistinguishability components (= ``ε = 2^{-t}``
   approximations); if a valid value assignment exists, consensus is
   certified SOLVABLE with an executable decision table (Theorem 5.5's
   universal algorithm).  En route the checker records the equivalence
   data of Theorem 6.6 (bivalence vs broadcastability per depth).

If no certificate fires by ``max_depth`` the result is UNDECIDED, with the
full depth history as evidence (for the paper's impossible examples the
impossibility provers fire, so UNDECIDED indicates either a too-small depth
bound or an adversary outside the library's certified classes).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from enum import Enum
from typing import Iterable, Sequence

from repro.adversaries.base import MessageAdversary
from repro.consensus.decision import DecisionTable, build_decision_table
from repro.consensus.provers import (
    SingleComponentInduction,
    find_guaranteed_broadcaster,
    find_nonbroadcastable_lasso,
)
from repro.consensus.spec import ConsensusSpec
from repro.core.inputs import all_assignments
from repro.core.views import ViewInterner
from repro.errors import AnalysisError
from repro.topology.components import ComponentAnalysis
from repro.topology.prefixspace import PrefixSpace

__all__ = [
    "SolvabilityStatus",
    "CheckOptions",
    "DepthReport",
    "ImpossibilityWitness",
    "BroadcasterCertificate",
    "SolvabilityResult",
    "check_consensus",
    "check_consensus_with_options",
]


@dataclass(frozen=True)
class CheckOptions:
    """Tuning knobs of the solvability checker, as one value object.

    Absorbs what used to be a flat pile of ``check_consensus`` keyword
    arguments, so sessions, sweep backends, and manifests can carry,
    serialize, and compare checker configurations as a whole.

    Attributes
    ----------
    max_depth:
        Iterative-deepening bound for the decision-table search.
    max_nodes:
        Prefix-space node budget; exceeding it aborts the deepening.
    use_impossibility_provers / use_broadcaster_certificate:
        Allow disabling individual certificates (useful for ablations).
    memo_extensions:
        Accepted and ignored.  It used to switch a ``(level, graph)``
        extension cache that no longer exists (interning already makes
        re-extension idempotent); the field stays so existing callers and
        manifests that carry the key keep working.  It is not part of the
        result-store key.
    layer_backend:
        Columnar-pipeline kernel backend for interners created by the
        checker (``"numpy"``/``"python"``; ``None`` = import-time
        default).  One switch drives the whole-layer extension kernel,
        the component analysis, and the decision-table construction.
        Serializes with the options, so sweep manifests carry the backend
        choice to shard runners.  Ignored when the caller shares an
        interner — the interner's own backend wins.
    plan_cache_size:
        LRU capacity of the created interner's per-alphabet extension-plan
        cache (``None`` = library default,
        :data:`repro.core.views.DEFAULT_PLAN_CACHE_SIZE`).  Plans are pure
        functions of the alphabet, so the cap trades recomputation for
        memory and never changes results.  Ignored when the caller shares
        an interner.
    extension_workers:
        Process count for the created interner's sharded whole-layer
        extension (``1`` = serial, the default).  Orthogonal to
        ``layer_backend``: only the numpy kernel shards, the sharded path
        is bit-identical to the serial numpy kernel for any worker count,
        and small layers fall back to serial automatically.  Serializes
        with the options like ``layer_backend``; manifests written before
        this field existed simply omit it and load with the serial
        default.  Process-pool sweeps clamp it to ``1`` inside their
        workers via :data:`repro.core.views._WORKER_CAP_ENV`.  Ignored
        when the caller shares an interner.
    """

    max_depth: int = 10
    max_nodes: int = 2_000_000
    use_impossibility_provers: bool = True
    use_broadcaster_certificate: bool = True
    memo_extensions: bool | None = None
    layer_backend: str | None = None
    plan_cache_size: int | None = None
    extension_workers: int = 1

    def replace(self, **changes) -> "CheckOptions":
        """A copy with the given fields changed."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-able form (sweep manifests embed this)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CheckOptions":
        """Inverse of :meth:`to_dict`; unknown keys are rejected by name."""
        known = {field: data[field] for field in cls.__dataclass_fields__ if field in data}
        unknown = set(data) - set(known)
        if unknown:
            raise AnalysisError(f"unknown CheckOptions fields: {sorted(unknown)}")
        return cls(**known)


class SolvabilityStatus(Enum):
    """Outcome of the solvability analysis."""

    SOLVABLE = "solvable"
    IMPOSSIBLE = "impossible"
    UNDECIDED = "undecided"


class DepthReport:
    """Per-depth component statistics gathered during iterative deepening."""

    __slots__ = (
        "depth",
        "prefixes",
        "components",
        "bivalent",
        "non_broadcastable",
    )

    def __init__(self, summary: dict) -> None:
        self.depth = summary["depth"]
        self.prefixes = summary["prefixes"]
        self.components = summary["components"]
        self.bivalent = summary["bivalent"]
        self.non_broadcastable = summary["non_broadcastable"]

    def __repr__(self) -> str:
        return (
            f"DepthReport(t={self.depth}, prefixes={self.prefixes}, "
            f"components={self.components}, bivalent={self.bivalent}, "
            f"non_broadcastable={self.non_broadcastable})"
        )


class ImpossibilityWitness:
    """Why consensus is impossible.

    ``kind`` is one of:

    * ``"nonbroadcastable-lasso"`` — ``lasso`` holds an admissible
      (stem, cycle) on which no process is ever heard by all;
    * ``"single-component-induction"`` — ``induction`` holds the
      certificate object with the C1/C2 witnesses.
    """

    __slots__ = ("kind", "lasso", "induction")

    def __init__(self, kind: str, lasso=None, induction=None) -> None:
        self.kind = kind
        self.lasso = lasso
        self.induction = induction

    def explain(self) -> str:
        """Human-readable account of the certificate."""
        if self.kind == "nonbroadcastable-lasso":
            stem, cycle = self.lasso
            return (
                "Admissible sequence with no broadcaster: "
                f"stem={stem!r}, cycle={cycle!r}; by the input-flipping "
                "chain of Theorem 5.11 its component joins all valences."
            )
        return self.induction.explain()

    def __repr__(self) -> str:
        return f"ImpossibilityWitness(kind={self.kind!r})"


class BroadcasterCertificate:
    """Why consensus is solvable without a finite-depth decision table.

    ``process`` is heard by everyone eventually in every admissible
    sequence; "decide ``x_process`` upon hearing it" is a correct
    algorithm (every connected component is broadcastable by ``process``).
    """

    __slots__ = ("process",)

    def __init__(self, process: int) -> None:
        self.process = process

    def explain(self) -> str:
        return (
            f"Process {self.process} is a guaranteed broadcaster: every "
            "admissible sequence eventually delivers its input to all; "
            "decide x_{p} upon hearing it (Theorem 5.11/6.7)."
        )

    def __repr__(self) -> str:
        return f"BroadcasterCertificate(process={self.process})"


class SolvabilityResult:
    """Complete outcome of :func:`check_consensus`."""

    __slots__ = (
        "adversary",
        "spec",
        "status",
        "decision_table",
        "broadcaster",
        "impossibility",
        "history",
        "certified_depth",
        "max_depth",
    )

    def __init__(self, **kwargs) -> None:
        for key in self.__slots__:
            setattr(self, key, kwargs.get(key))

    @property
    def solvable(self) -> bool:
        """True iff status is SOLVABLE."""
        return self.status is SolvabilityStatus.SOLVABLE

    def algorithm(self):
        """The executable consensus algorithm of the certificate.

        Returns a ready-to-run
        :class:`~repro.simulation.algorithms.ConsensusAlgorithm`: the
        universal algorithm for a decision-table certificate, or the
        decide-on-broadcaster rule for a guaranteed-broadcaster
        certificate.  Raises for non-solvable results.
        """
        from repro.simulation.algorithms import (
            BroadcastValueAlgorithm,
            UniversalAlgorithm,
        )

        if self.decision_table is not None:
            return UniversalAlgorithm(self.decision_table)
        if self.broadcaster is not None:
            return BroadcastValueAlgorithm(
                ViewInterner(self.adversary.n), self.broadcaster.process
            )
        raise AnalysisError(
            f"{self.adversary.name} is {self.status.value}: no algorithm"
        )

    def theorem_6_6_consistency(self) -> list[bool]:
        """Per-depth agreement of "no bivalence" with "all broadcastable".

        For compact adversaries Theorem 6.6 predicts the two certificates
        coincide in the limit; on the paper's examples they coincide at
        every depth, which the tests assert.
        """
        return [
            (report.bivalent == 0) == (report.non_broadcastable == 0)
            for report in self.history
        ]

    def explain(self) -> str:
        """One-paragraph summary of the verdict and its certificate."""
        lines = [
            f"{self.adversary.name}: {self.status.value.upper()} "
            f"(explored depth <= {self.max_depth})"
        ]
        if self.decision_table is not None:
            lines.append(
                f"  decision table certified at depth {self.certified_depth} "
                f"with {len(self.decision_table.assignment)} components"
            )
        if self.broadcaster is not None:
            lines.append("  " + self.broadcaster.explain())
        if self.impossibility is not None:
            lines.append("  " + self.impossibility.explain().replace("\n", "\n  "))
        for report in self.history:
            lines.append(f"  {report!r}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"SolvabilityResult({self.adversary.name}, {self.status.name}, "
            f"depth={self.certified_depth})"
        )


_UNSET = object()


def check_consensus(
    adversary: MessageAdversary,
    spec: ConsensusSpec | None = None,
    input_vectors: Iterable[Sequence] | None = None,
    max_depth: int | object = _UNSET,
    interner: ViewInterner | None = None,
    max_nodes: int | object = _UNSET,
    use_impossibility_provers: bool | object = _UNSET,
    use_broadcaster_certificate: bool | object = _UNSET,
    options: CheckOptions | None = None,
) -> SolvabilityResult:
    """Decide consensus solvability under a message adversary.

    This is the keyword-compatibility wrapper over
    :func:`check_consensus_with_options`: the tuning keywords
    (``max_depth=10``, ``max_nodes=2_000_000``, the certificate toggles —
    defaults as in :class:`CheckOptions`) are folded
    into a :class:`CheckOptions`, overriding ``options`` field-by-field
    when both are given.  New code should pass ``options`` (or use
    :class:`repro.api.Session`).

    Parameters
    ----------
    adversary:
        The message adversary.
    spec:
        Input domain and validity condition (default binary, weak validity).
    input_vectors:
        Restrict the input assignments (default: the full assignment space
        of the spec's domain, as in the paper).
    options:
        A :class:`CheckOptions` bundle; explicit keywords win over it.

    Returns
    -------
    SolvabilityResult
        With an executable certificate: a validated
        :class:`~repro.consensus.decision.DecisionTable`, a
        :class:`BroadcasterCertificate`, or an
        :class:`ImpossibilityWitness`; UNDECIDED carries the depth history.
    """
    overrides = {
        name: value
        for name, value in (
            ("max_depth", max_depth),
            ("max_nodes", max_nodes),
            ("use_impossibility_provers", use_impossibility_provers),
            ("use_broadcaster_certificate", use_broadcaster_certificate),
        )
        if value is not _UNSET
    }
    effective = options or CheckOptions()
    if overrides:
        effective = effective.replace(**overrides)
    return check_consensus_with_options(
        adversary,
        effective,
        spec=spec,
        input_vectors=input_vectors,
        interner=interner,
    )


def check_consensus_with_options(
    adversary: MessageAdversary,
    options: CheckOptions,
    spec: ConsensusSpec | None = None,
    input_vectors: Iterable[Sequence] | None = None,
    interner: ViewInterner | None = None,
) -> SolvabilityResult:
    """The options-driven checker core behind :func:`check_consensus`."""
    max_depth = options.max_depth
    max_nodes = options.max_nodes
    use_impossibility_provers = options.use_impossibility_provers
    use_broadcaster_certificate = options.use_broadcaster_certificate
    spec = spec or ConsensusSpec()
    if input_vectors is None:
        input_vectors = all_assignments(adversary.n, spec.domain)

    history: list[DepthReport] = []

    # 1. Sound impossibility certificates.
    impossibility = None
    if use_impossibility_provers:
        lasso = find_nonbroadcastable_lasso(adversary)
        if lasso is not None:
            impossibility = ImpossibilityWitness(
                "nonbroadcastable-lasso", lasso=lasso
            )
        else:
            # Applies to oblivious adversaries and, via the oblivious core,
            # to any limit-closed adversary.
            induction = SingleComponentInduction(adversary)
            if induction.applies:
                impossibility = ImpossibilityWitness(
                    "single-component-induction", induction=induction
                )
    if impossibility is not None:
        return SolvabilityResult(
            adversary=adversary,
            spec=spec,
            status=SolvabilityStatus.IMPOSSIBLE,
            impossibility=impossibility,
            history=history,
            certified_depth=None,
            max_depth=max_depth,
        )

    # 2. Iterative deepening for a decision-table certificate.
    space = PrefixSpace(
        adversary,
        input_vectors=input_vectors,
        interner=interner,
        max_nodes=max_nodes,
        layer_backend=options.layer_backend,
        plan_cache_size=options.plan_cache_size,
        extension_workers=options.extension_workers,
    )
    table: DecisionTable | None = None
    certified_depth = None
    for depth in range(max_depth + 1):
        try:
            analysis = ComponentAnalysis(space, depth)
        except AnalysisError:
            break
        history.append(DepthReport(analysis.summary()))
        if all(spec.allowed_values(c) for c in analysis.components):
            table = build_decision_table(analysis, spec)
            certified_depth = depth
            break

    if table is not None:
        return SolvabilityResult(
            adversary=adversary,
            spec=spec,
            status=SolvabilityStatus.SOLVABLE,
            decision_table=table,
            history=history,
            certified_depth=certified_depth,
            max_depth=max_depth,
        )

    # 3. Guaranteed-broadcaster certificate (decisive for non-compact
    #    adversaries whose prefix spaces never separate).
    if use_broadcaster_certificate:
        broadcaster = find_guaranteed_broadcaster(adversary)
        if broadcaster is not None:
            return SolvabilityResult(
                adversary=adversary,
                spec=spec,
                status=SolvabilityStatus.SOLVABLE,
                broadcaster=BroadcasterCertificate(broadcaster),
                history=history,
                certified_depth=None,
                max_depth=max_depth,
            )

    return SolvabilityResult(
        adversary=adversary,
        spec=spec,
        status=SolvabilityStatus.UNDECIDED,
        history=history,
        certified_depth=None,
        max_depth=max_depth,
    )
