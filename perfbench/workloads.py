"""Seeded inputs of the four benchmark workloads.

Everything here is a pure function of ``(workload, seed, smoke)``: the
program under test only ever receives the generated specs.  Seeded
random-rooted samples come from the master seed
``POOL_SEEDS[seed % len(POOL_SEEDS)]``: every generated spec has a
committed verdict in ``reference.json``, which can only cover a finite
set of pools.
"""

from __future__ import annotations

import itertools
import json
import random

from repro.specs import AdversarySpec, random_rooted_specs

#: Master seeds of the seeded random-rooted parts.  Each one's 64 n=4
#: samples hold exactly one spec left UNDECIDED at depth 8, a ~0.4M-view
#: prefix space (about a tenth of the sweep's time and a third of its peak
#: RSS).  About one master seed in five has such a spec; drawing from
#: these keeps that path in every seed's sweep, so the time and memory a
#: run reports do not hinge on whether its seed happened to draw one.
POOL_SEEDS = (1, 4, 14, 36, 38, 56, 58, 73)

#: The four two-process graphs by packed edge key: none, 0->1, 1->0, both.
_TWO_PROCESS_KEYS = (0, 2, 4, 6)

SWEEP_DEPTH = 8
SMOKE_DEPTH = 4
SMOKE_JOBS = 8
HOT_POOL = 64
FLEET_SHARDS = 8
FLEET_WORKERS = 2
SERVICE_WORKERS = 2
#: Think time of the hot client between a response and its next query:
#: a bounded hot load instead of a client that saturates the event loop,
#: where the GIL tug-of-war with cold work decided the throughput.
HOT_THINK_S = 0.005


def _graph_sets(min_size: int) -> list[list[int]]:
    return [
        list(combo)
        for size in range(min_size, len(_TWO_PROCESS_KEYS) + 1)
        for combo in itertools.combinations(_TWO_PROCESS_KEYS, size)
    ]


def eventually_forever_specs() -> list[AdversarySpec]:
    """All 61 n=2 ``B* E^w`` specs with base ⊇ eventual and |base| >= 2."""
    return [
        AdversarySpec("eventually-forever", {"n": 2, "base": base, "eventual": list(eventual)})
        for base in _graph_sets(2)
        for size in range(1, len(base) + 1)
        for eventual in itertools.combinations(base, size)
    ]


def stabilizing_specs() -> list[AdversarySpec]:
    """All 33 n=2 window-stabilizing specs (|graphs| >= 2, window 1-3)."""
    return [
        AdversarySpec(
            "stabilizing",
            {"n": 2, "graphs": graphs, "window": window, "require_rooted": False},
        )
        for graphs in _graph_sets(2)
        for window in (1, 2, 3)
    ]


def check_cases(smoke: bool = False) -> list[tuple[AdversarySpec, dict]]:
    """The ``check-deep`` list: (spec, CheckOptions fields), memo off."""
    if smoke:
        return [
            (AdversarySpec("named", {"name": "lossy-full"}),
             {"max_depth": SMOKE_DEPTH, "use_impossibility_provers": False,
              "use_broadcaster_certificate": False}),
            (AdversarySpec("named", {"name": "eventually-to-full-base"}),
             {"max_depth": SMOKE_DEPTH}),
            (AdversarySpec("heard-of", {"n": 3, "predicate": "no-split"}),
             {"max_depth": SMOKE_DEPTH}),
            (AdversarySpec("santoro-widmayer", {"n": 4, "losses": 1}),
             {"max_depth": SMOKE_DEPTH}),
        ]
    return [
        (AdversarySpec("named", {"name": "lossy-full"}),
         {"max_depth": 12, "max_nodes": 8_000_000,
          "use_impossibility_provers": False, "use_broadcaster_certificate": False}),
        (AdversarySpec("named", {"name": "eventually-to-full-base"}), {"max_depth": 11}),
        (AdversarySpec("heard-of", {"n": 4, "predicate": "no-split"}), {"max_depth": 4}),
        (AdversarySpec("santoro-widmayer", {"n": 7, "losses": 1}), {"max_depth": 4}),
    ]


def pool_seed(seed: int) -> int:
    """The random-rooted master seed a workload seed draws from."""
    return POOL_SEEDS[seed % len(POOL_SEEDS)]


def sweep_specs(seed: int, smoke: bool = False) -> list[AdversarySpec]:
    """The 158-job sweep list (61 eventually-forever, 33 stabilizing, 64 n=4)."""
    seeded = random_rooted_specs(pool_seed(seed), 4, 64)
    if smoke:
        return eventually_forever_specs()[:3] + stabilizing_specs()[:3] + seeded[:2]
    return eventually_forever_specs() + stabilizing_specs() + seeded


def sweep_depth(smoke: bool = False) -> int:
    return SMOKE_DEPTH if smoke else SWEEP_DEPTH


def hot_specs(seed: int, smoke: bool = False) -> list[AdversarySpec]:
    """The pre-warmed pool of ``service-mixed``: seeded random-rooted n=3."""
    pool = random_rooted_specs(pool_seed(seed), 3, HOT_POOL)
    return pool[:SMOKE_JOBS] if smoke else pool


def cold_specs(seed: int, smoke: bool = False) -> list[AdversarySpec]:
    """The cold stream of ``service-mixed``: the sweep list, seed-shuffled."""
    specs = sweep_specs(seed, smoke)
    random.Random(seed).shuffle(specs)
    return specs


def verdict_key(spec: AdversarySpec, max_depth: int) -> str:
    """Reference lookup key of one (spec, depth) verdict."""
    return f"{max_depth}|{json.dumps(spec.to_dict(), sort_keys=True)}"
