"""The traced layer boundaries and the per-layer metrics computed from them.

:func:`install` wraps the public entry point of each layer, from the
outside: class methods are patched on the class, and module functions
under the name their caller looks them up by (the checker's names in
``repro.consensus.solvability``, the store's ``cache_key`` in both
modules that call it, the fleet coordinator's ``state`` functions).

:data:`PER_LAYER` is the metric map: for each per-layer metric, its unit,
which direction is better, and the end-to-end metric and workload it
should move.  ``BENCHMARK.json`` lists the same names; the smoke mode
checks the two agree.
"""

from __future__ import annotations

from typing import Any

from spans import SpanRecorder, summarize, unattributed, window

MB = float(1 << 20)

#: name -> (unit, better, layer, what it should move and where)
PER_LAYER: dict[str, tuple[str, str, str, str]] = {
    "views.extend_s": ("s", "lower", "core.views",
                       "self time of ViewInterner.extend_layer_table -> pass_s on check-deep"),
    "views.extend_memo_s": ("s", "lower", "core.views",
                            "self time of ViewInterner.extend_layer (memo path) -> ops_per_s on "
                            "sweep-family and fleet-sweep, cold latency on service-mixed; ~0 on check-deep"),
    "views.extend_calls": ("count", "lower", "core.views", "extension kernel calls"),
    "views.rows_out": ("count", "lower", "core.views", "child rows returned by the kernel"),
    "views.interned": ("count", "lower", "core.views", "len(interner) growth inside the kernel"),
    "views.memo_entries": ("count", "lower", "core.views",
                           "peak stats().cached_extensions -> ops_per_s on sweep-family and fleet-sweep"),
    "views.table_mb": ("MB", "lower", "core.views",
                       "peak stats().approx_bytes -> peak_rss_mb on check-deep"),
    "prefixspace.extend_s": ("s", "lower", "topology.prefixspace",
                             "self time of PrefixSpace.extend minus views.* -> pass_s on check-deep"),
    "prefixspace.prefixes": ("count", "lower", "topology.prefixspace", "prefixes built by extend"),
    "components.s": ("s", "lower", "topology.components",
                     "ComponentAnalysis self time -> pass_s on check-deep, ops_per_s on sweep-family"),
    "components.calls": ("count", "lower", "topology.components", "analyses run"),
    "components.prefixes": ("count", "lower", "topology.components", "prefixes analyzed"),
    "components.count": ("count", "lower", "topology.components", "components found"),
    "provers.lasso_s": ("s", "lower", "consensus.provers",
                        "find_nonbroadcastable_lasso -> ops_per_s on sweep-family"),
    "provers.induction_s": ("s", "lower", "consensus.provers",
                            "SingleComponentInduction -> pass_s on check-deep (case 3)"),
    "provers.broadcaster_s": ("s", "lower", "consensus.provers",
                              "find_guaranteed_broadcaster -> pass_s on check-deep, ops_per_s on sweep-family"),
    "provers.calls": ("count", "lower", "consensus.provers", "prover calls"),
    "provers.fired_ratio": ("ratio", "higher", "consensus.provers", "certificates returned per prover call"),
    "decision.build_s": ("s", "lower", "consensus.decision",
                         "build_decision_table self time -> pass_s on check-deep (case 4), "
                         "ops_per_s on sweep-family"),
    "decision.validate_s": ("s", "lower", "consensus.decision", "DecisionTable.validate -> same as build_s"),
    "decision.tables": ("count", "lower", "consensus.decision", "decision tables built"),
    "solvability.self_s": ("s", "lower", "consensus.solvability",
                           "check_consensus_with_options minus child spans -> ops_per_s on sweep-family"),
    "solvability.checks": ("count", "lower", "consensus.solvability", "checks run"),
    "solvability.depths": ("count", "lower", "consensus.solvability", "depth reports produced"),
    "backends.job_overhead_s": ("s", "lower", "backends",
                                "iter_job_records time outside the check -> ops_per_s on sweep-family"),
    "backends.jobs": ("count", "lower", "backends", "job records produced in this process"),
    "store.key_s": ("s", "lower", "store", "cache_key -> ops_per_s on service-mixed"),
    "store.get_s": ("s", "lower", "store", "ResultStore.get/get_by_key -> ops_per_s on service-mixed"),
    "store.put_s": ("s", "lower", "store", "ResultStore.put -> cold latency and pass_s on service-mixed"),
    "store.hit_ratio": ("ratio", "higher", "store", "ResultStore hits/(hits+misses) on service-mixed"),
    "store.stale": ("count", "lower", "store", "stale objects met on service-mixed"),
    "service.queue_wait_s": ("s", "lower", "service",
                             "client-observed queued->started -> service.cold_p90_s on service-mixed"),
    "service.execute_s": ("s", "lower", "service",
                          "client-observed started->terminal -> service.cold_p50_s and pass_s on service-mixed"),
    "service.execute_query_s": ("s", "lower", "service",
                                "server-side execute_query -> service.cold_p50_s on service-mixed"),
    "service.coalesced": ("count", "lower", "service", "stats op"),
    "service.rejected": ("count", "lower", "service", "stats op"),
    "service.hot_p50_ms": ("ms", "lower", "service",
                           "untraced hot query latency, median -> ops_per_s on service-mixed"),
    "service.hot_p99_ms": ("ms", "lower", "service",
                           "untraced hot query latency, p99; moved by where cold work runs"),
    "service.cold_p50_s": ("s", "lower", "service", "untraced cold query latency, median -> pass_s"),
    "service.cold_p90_s": ("s", "lower", "service", "untraced cold query latency, p90 -> pass_s"),
    "fleet.attempts": ("count", "lower", "fleet", "shard attempts (snapshot) -> ops_per_s on fleet-sweep"),
    "fleet.retries": ("count", "lower", "fleet", "failed attempts (snapshot) -> ops_per_s on fleet-sweep"),
    "fleet.merge_s": ("s", "lower", "fleet",
                      "coordinator validate_attempt+append_merge+rebuild_merged -> ops_per_s on fleet-sweep"),
    "fleet.busy_ratio": ("ratio", "higher", "fleet",
                         "sum of record elapsed_s / (wall x workers) -> ops_per_s on fleet-sweep"),
    "trace.wall_s": ("s", "lower", "trace", "wall time of the traced pass"),
    "trace.overhead_s": ("s", "lower", "trace", "traced minus untraced pass wall time"),
    "trace.unattributed_s": ("s", "lower", "trace", "traced pass wall time outside every top-level span"),
}


def _interner_size(args: tuple, kwargs: dict) -> int:
    return len(args[0])


def _rows(tables) -> int:
    return sum(len(table) for table in tables)


def install(recorder: SpanRecorder) -> None:
    """Wrap every traced layer entry point (undo with ``uninstall``)."""
    from repro import backends
    from repro.consensus import decision, provers, solvability
    from repro.core import views
    from repro.fleet import state
    from repro.service import server
    from repro.store import cache
    from repro.topology import components, prefixspace

    wrap = recorder.wrap

    def extended(args, kwargs, result, before):
        return {"rows": _rows(result), "interned": len(args[0]) - before}

    wrap(views.ViewInterner, "extend_layer_table", "views.extend_layer_table",
         counts=extended, before=_interner_size)
    wrap(views.ViewInterner, "extend_layer", "views.extend_layer",
         counts=extended, before=_interner_size)
    wrap(prefixspace.PrefixSpace, "extend", "prefixspace.extend",
         counts=lambda args, kwargs, result, before: {"prefixes": args[0].layer_sizes()[-1]})
    wrap(components.ComponentAnalysis, "__init__", "components",
         counts=lambda args, kwargs, result, before: {
             "prefixes": len(args[0].space.layer(args[0].depth)),
             "components": len(args[0].components),
         })

    def fired(args, kwargs, result, before):
        return {"fired": int(result is not None)}

    wrap(solvability, "find_nonbroadcastable_lasso", "provers.lasso", counts=fired)
    wrap(provers.SingleComponentInduction, "__init__", "provers.induction",
         counts=lambda args, kwargs, result, before: {"fired": int(args[0].applies)})
    wrap(solvability, "find_guaranteed_broadcaster", "provers.broadcaster", counts=fired)
    wrap(solvability, "build_decision_table", "decision.build")
    wrap(decision.DecisionTable, "validate", "decision.validate")

    def checked(args, kwargs, result, before):
        counts = {"depths": len(result.history)}
        interner = kwargs.get("interner")
        if interner is not None:
            stats = interner.stats()
            counts["max_memo_entries"] = stats.cached_extensions
            counts["max_table_bytes"] = stats.approx_bytes
        return counts

    wrap(solvability, "check_consensus_with_options", "solvability.check", counts=checked)
    recorder.wrap_iterator(backends, "iter_job_records", "backends.job")

    wrap(server, "cache_key", "store.key")
    wrap(cache, "cache_key", "store.key")
    wrap(cache.ResultStore, "get", "store.get")
    wrap(cache.ResultStore, "get_by_key", "store.get")
    wrap(cache.ResultStore, "put", "store.put")
    wrap(server, "execute_query", "service.execute_query")

    for name in ("validate_attempt", "append_merge", "rebuild_merged"):
        wrap(state, name, "fleet.merge")


def layer_metrics(
    spans: list[list[Any]], start: float, end: float, extra: dict[str, float]
) -> dict[str, float]:
    """Every per-layer metric of one traced pass ``[start, end]``.

    ``extra`` supplies what spans cannot see: client-observed service
    timings, ``stats``-op counters, the fleet snapshot, and the untraced
    wall time; metrics of layers a workload never enters read 0.
    """
    inside = window(spans, start, end)
    by_name = summarize(inside)

    def get(name: str, key: str) -> float:
        return by_name.get(name, {}).get(key, 0.0)

    prover_calls = sum(get(f"provers.{p}", "calls") for p in ("lasso", "induction", "broadcaster"))
    prover_fired = sum(get(f"provers.{p}", "fired") for p in ("lasso", "induction", "broadcaster"))
    wall = end - start
    metrics = {
        "views.extend_s": get("views.extend_layer_table", "self_s"),
        "views.extend_memo_s": get("views.extend_layer", "self_s"),
        "views.extend_calls": get("views.extend_layer_table", "calls") + get("views.extend_layer", "calls"),
        "views.rows_out": get("views.extend_layer_table", "rows") + get("views.extend_layer", "rows"),
        "views.interned": get("views.extend_layer_table", "interned") + get("views.extend_layer", "interned"),
        "views.memo_entries": get("solvability.check", "max_memo_entries"),
        "views.table_mb": get("solvability.check", "max_table_bytes") / MB,
        "prefixspace.extend_s": get("prefixspace.extend", "self_s"),
        "prefixspace.prefixes": get("prefixspace.extend", "prefixes"),
        "components.s": get("components", "self_s"),
        "components.calls": get("components", "calls"),
        "components.prefixes": get("components", "prefixes"),
        "components.count": get("components", "components"),
        "provers.lasso_s": get("provers.lasso", "self_s"),
        "provers.induction_s": get("provers.induction", "self_s"),
        "provers.broadcaster_s": get("provers.broadcaster", "self_s"),
        "provers.calls": prover_calls,
        "provers.fired_ratio": prover_fired / prover_calls if prover_calls else 0.0,
        "decision.build_s": get("decision.build", "self_s"),
        "decision.validate_s": get("decision.validate", "self_s"),
        "decision.tables": get("decision.build", "calls"),
        "solvability.self_s": get("solvability.check", "self_s"),
        "solvability.checks": get("solvability.check", "calls"),
        "solvability.depths": get("solvability.check", "depths"),
        "backends.job_overhead_s": get("backends.job", "self_s"),
        "backends.jobs": get("backends.job", "calls"),
        "store.key_s": get("store.key", "self_s"),
        "store.get_s": get("store.get", "self_s"),
        "store.put_s": get("store.put", "self_s"),
        "service.execute_query_s": get("service.execute_query", "total_s"),
        "fleet.merge_s": get("fleet.merge", "total_s"),
        "trace.wall_s": wall,
        "trace.unattributed_s": unattributed(inside, start, end),
    }
    for name in PER_LAYER:
        metrics.setdefault(name, 0.0)
    metrics.update(extra)
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"metrics missing from PER_LAYER: {sorted(unknown)}")
    return metrics
