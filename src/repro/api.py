"""The stable public experiment API: sessions, specs, backends, records.

This module is the one import an experiment script needs.  It groups the
library's workflow around four ideas:

* :class:`~repro.specs.AdversarySpec` — a *serializable* description of a
  message adversary (family name + JSON params + optional seed) that any
  worker can rebuild; the unit sweep manifests are made of.
* :class:`~repro.consensus.solvability.CheckOptions` — the checker's
  tuning knobs as one value object, instead of a pile of kwargs.
* :class:`Session` — owns per-``n`` view interners plus default options,
  so consecutive checks share view tables the way a sweep shard does;
  ``session.check(...)`` accepts specs or live adversaries,
  ``session.sweep(...)`` fans a family out through any
  :class:`~repro.backends.SweepBackend` — including the crash-tolerant
  :class:`~repro.fleet.FleetBackend`.
* :class:`~repro.records.RunRecord` — the single versioned result schema
  every sweep, census, and benchmark writes, with :mod:`repro.analysis`
  reports on top.

Quickstart
----------
>>> from repro.api import AdversarySpec, CheckOptions, Session
>>> session = Session(CheckOptions(max_depth=6))
>>> spec = AdversarySpec("oblivious", {"n": 2, "graphs": [2, 4]})
>>> session.check(spec).status.name
'SOLVABLE'
>>> [r.status for r in session.sweep([spec])]
['solvable']

The compatibility wrappers (:func:`repro.consensus.check_consensus` with
keywords, ``repro.sweep.SweepRecord``, headerless JSONL reading) remain in
place; see README "Public API" for the old → new migration table.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.adversaries.base import MessageAdversary
from repro.analysis import (
    SweepReport,
    json_report_jsonl,
    render_report,
    report_jsonl,
    summarize,
)
from repro.backends import (
    ManifestBackend,
    ProcessBackend,
    SerialBackend,
    SweepBackend,
    SweepJob,
    jobs_for,
    load_manifest,
    retry_jobs,
    run_manifest,
    write_manifest,
)
from repro.consensus.solvability import (
    CheckOptions,
    SolvabilityResult,
    check_consensus,
    check_consensus_with_options,
)
from repro.consensus.spec import ConsensusSpec
from repro.core.views import ViewInterner
from repro.errors import AdversaryError
from repro.fleet import FleetBackend
from repro.records import (
    RunRecord,
    certificate_summary,
    read_jsonl,
    write_jsonl,
)
from repro.specs import (
    AdversarySpec,
    build_adversary,
    families,
    random_rooted_specs,
    register_family,
)
from repro.store.backend import CachedBackend
from repro.store.cache import ResultStore
from repro.sweep import run_sweep

__all__ = [
    "AdversarySpec",
    "CheckOptions",
    "Session",
    "RunRecord",
    "SweepJob",
    "SweepBackend",
    "SerialBackend",
    "ProcessBackend",
    "ManifestBackend",
    "FleetBackend",
    "CachedBackend",
    "ResultStore",
    "SweepReport",
    "build_adversary",
    "certificate_summary",
    "check_consensus",
    "check_consensus_with_options",
    "families",
    "jobs_for",
    "json_report_jsonl",
    "load_manifest",
    "random_rooted_specs",
    "read_jsonl",
    "register_family",
    "render_report",
    "report_jsonl",
    "retry_jobs",
    "run_manifest",
    "run_sweep",
    "summarize",
    "write_jsonl",
    "write_manifest",
]


class Session:
    """A reusable checking context: per-``n`` view interners + options.

    Views depend only on inputs and in-neighborhoods, never on the
    adversary, so every check the session runs for the same process count
    shares one :class:`~repro.core.views.ViewInterner`: a view interned by
    one check is found, not rebuilt, by the next.  Checking a family
    through one session therefore costs what one sweep shard costs,
    instead of rebuilding view tables per call.

    Parameters
    ----------
    options:
        Default :class:`CheckOptions` for every check (individual calls
        may override).
    store:
        Optional content-addressed result store
        (:class:`~repro.store.cache.ResultStore`, or a path that opens
        one).  With a store, :meth:`check_record` and :meth:`sweep`
        serve previously-computed verdicts as O(1) lookups — no checker
        work, no interner growth — and write every newly computed
        cacheable verdict back.  :meth:`check` always computes: its
        :class:`SolvabilityResult` carries live certificate objects a
        stored record cannot rebuild.
    """

    def __init__(
        self,
        options: CheckOptions | None = None,
        store: ResultStore | str | Path | None = None,
    ) -> None:
        self.options = options or CheckOptions()
        self.store: ResultStore | None
        if store is None or isinstance(store, ResultStore):
            self.store = store
        else:
            self.store = ResultStore(store)
        self._interners: dict[int, ViewInterner] = {}

    def interner(self, n: int) -> ViewInterner:
        """The session's shared view interner for ``n`` processes.

        Created with the session options' ``layer_backend`` and
        ``extension_workers``, so one switch configures the whole-layer
        kernel — and its sharded multiprocess path — for every check the
        session runs.
        """
        interner = self._interners.get(n)
        if interner is None:
            interner = self._interners[n] = ViewInterner(
                n,
                layer_backend=self.options.layer_backend,
                plan_cache_size=self.options.plan_cache_size,
                extension_workers=self.options.extension_workers,
            )
        return interner

    @staticmethod
    def _resolve(target: AdversarySpec | MessageAdversary) -> MessageAdversary:
        if isinstance(target, AdversarySpec):
            return target.build()
        return target

    def check(
        self,
        target: AdversarySpec | MessageAdversary,
        options: CheckOptions | None = None,
        spec: ConsensusSpec | None = None,
    ) -> SolvabilityResult:
        """Check one adversary (or spec) with the session's shared tables."""
        adversary = self._resolve(target)
        return check_consensus_with_options(
            adversary,
            options or self.options,
            spec=spec,
            interner=self.interner(adversary.n),
        )

    def check_record(
        self,
        target: AdversarySpec | MessageAdversary,
        options: CheckOptions | None = None,
        tags: dict[str, Any] | None = None,
    ) -> RunRecord:
        """Check one adversary to a :class:`RunRecord`, via the store.

        The record-granular sibling of :meth:`check`: with a session
        ``store``, an already-cached (spec, options) pair is answered
        without any checker work — the session interners are not even
        consulted, which the cache tests assert through
        :meth:`stats`.  Misses run through :meth:`check` (sharing the
        session's interners as usual) and are written back, so the
        second identical call is a hit.  Timing fields are always zero:
        a record that may be served from cache must not depend on when
        it was computed.  Adversaries without a canonical spec are
        checked but never cached.
        """
        effective = options or self.options
        adversary_spec: AdversarySpec | None
        if isinstance(target, AdversarySpec):
            adversary_spec = target
        else:
            try:
                adversary_spec = AdversarySpec.from_adversary(target)
            except AdversaryError:
                adversary_spec = None
        if self.store is not None and adversary_spec is not None:
            cached = self.store.get(adversary_spec, effective)
            if cached is not None:
                data = cached.to_dict()
                data["tags"] = {} if tags is None else dict(tags)
                return RunRecord.from_dict(data)
        resolved = (
            adversary_spec.build()
            if isinstance(target, AdversarySpec) and adversary_spec is not None
            else target
        )
        assert not isinstance(resolved, AdversarySpec)  # resolved above
        result = self.check(resolved, options=effective)
        record = RunRecord(
            index=0,
            adversary=resolved.name,
            n=resolved.n,
            alphabet=len(resolved.alphabet()),
            max_depth=effective.max_depth,
            status=result.status.value,
            certified_depth=result.certified_depth,
            certificate=certificate_summary(result),
            elapsed_s=0.0,
            views_interned=0,
            shard=0,
            tags={} if tags is None else dict(tags),
            family=adversary_spec.family if adversary_spec is not None else None,
            seed=adversary_spec.seed if adversary_spec is not None else None,
            spec=adversary_spec.to_dict() if adversary_spec is not None else None,
        )
        if self.store is not None and adversary_spec is not None:
            self.store.put(adversary_spec, effective, record)
        return record

    def sweep(
        self,
        targets: Iterable[AdversarySpec | MessageAdversary] | Sequence[SweepJob],
        backend: SweepBackend | None = None,
        workers: int = 1,
        jsonl_path: str | Path | None = None,
        tags: dict[str, Any] | None = None,
        options: CheckOptions | None = None,
        store: ResultStore | str | Path | None = None,
    ) -> list[RunRecord]:
        """Classify a family of specs/adversaries on a sweep backend.

        ``targets`` may be ready-made :class:`SweepJob` lists or plain
        iterables of specs/adversaries (indexed in order, with the
        effective options' ``max_depth`` as each job's depth budget).
        Backend selection matches :func:`repro.sweep.run_sweep`; shards
        use their own interners — process boundaries cannot share the
        session's tables.  The session's ``store`` (or the per-call
        ``store`` override) turns repeat sweeps of equal specs into pure
        cache reads — see :func:`repro.sweep.run_sweep`.
        """
        effective = options or self.options
        targets = list(targets)
        if targets and all(isinstance(item, SweepJob) for item in targets):
            jobs = targets
        else:
            jobs = jobs_for(targets, max_depth=effective.max_depth, tags=tags)
        return run_sweep(
            jobs,
            workers=workers,
            jsonl_path=jsonl_path,
            backend=backend,
            options=effective,
            store=store if store is not None else self.store,
        )

    def stats(self) -> dict[int, object]:
        """Per-``n`` view-table statistics of the session's interners."""
        return {n: interner.stats() for n, interner in sorted(self._interners.items())}

    def __repr__(self) -> str:
        sizes = ", ".join(
            f"n={n}:{len(interner)} views"
            for n, interner in sorted(self._interners.items())
        )
        return f"Session({self.options!r}{'; ' + sizes if sizes else ''})"
