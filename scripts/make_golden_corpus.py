"""Regenerate the golden verdict corpus (``tests/data/golden_corpus.jsonl``).

Every line is one small check: the adversary spec, the semantic check
options, optional consensus-spec / input-vector / k-set parameters, and
the expected outcome — status, certified depth, certificate summary, the
decision table's sizes, and the per-depth
``(prefixes, components, bivalent, non_broadcastable)`` history.

``tests/test_golden_corpus.py`` re-runs every entry through each entry
path and pins the file's sha256 next to ``KERNEL_EPOCH``
(``repro.store.keys.GOLDEN_CORPUS_SHA256``).  A change that moves a
verdict must bump ``KERNEL_EPOCH``, regenerate this file, and pin the new
digest under the new epoch::

    PYTHONPATH=src python scripts/make_golden_corpus.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.adversaries.generators import out_star_set
from repro.adversaries.lossylink import lossy_link_full, lossy_link_no_hub
from repro.adversaries.oblivious import ObliviousAdversary
from repro.consensus.kset import check_kset_by_depth
from repro.consensus.solvability import CheckOptions, check_consensus_with_options
from repro.consensus.spec import ConsensusSpec
from repro.core.digraph import arrow
from repro.records import certificate_summary
from repro.specs import NAMED_ADVERSARIES, AdversarySpec
from repro.store.keys import KERNEL_EPOCH, semantic_options

CORPUS = Path(__file__).resolve().parents[1] / "tests" / "data" / "golden_corpus.jsonl"


def _keys(*names: str) -> list[int]:
    return [arrow(name).key for name in names]


def cases() -> list[dict]:
    """The corpus cases: every registered family at n <= 3, depth <= 6."""
    out: list[dict] = []

    def add(spec: AdversarySpec, max_depth: int, **extra) -> None:
        case = {"spec": spec.to_dict(), "max_depth": max_depth}
        case.update(extra)
        out.append(case)

    add(AdversarySpec("oblivious", {"n": 2, "graphs": _keys("<-", "->")}), 4)
    add(AdversarySpec("oblivious", {"n": 2, "graphs": _keys("<-", "<->")}), 4)
    stars = ObliviousAdversary(3, out_star_set(3)[:2])
    add(AdversarySpec.from_adversary(stars), 4)
    for index in range(15):
        add(AdversarySpec("two-process", {"index": index}), 5)
    add(AdversarySpec("santoro-widmayer", {"n": 2, "losses": 1}), 5)
    add(AdversarySpec("santoro-widmayer", {"n": 3, "losses": 1}), 3)
    add(AdversarySpec("santoro-widmayer", {"n": 3, "losses": 2}), 3)
    for predicate in ("kernel", "no-split", "rooted"):
        add(AdversarySpec("heard-of", {"n": 3, "predicate": predicate}), 2)
    add(AdversarySpec("heard-of", {"n": 3, "predicate": "min-degree", "k": 2}), 2)
    for name in sorted(NAMED_ADVERSARIES):
        add(AdversarySpec("named", {"name": name}), 4)
    add(
        AdversarySpec(
            "eventually-forever",
            {"n": 2, "base": _keys("<-", "<->", "->"), "eventual": _keys("->")},
        ),
        6,
    )
    add(
        AdversarySpec(
            "eventually-forever",
            {"n": 2, "base": _keys("<-", "->"), "eventual": _keys("<-", "<->")},
        ),
        5,
    )
    add(
        AdversarySpec(
            "stabilizing", {"n": 2, "graphs": _keys("<-", "->"), "window": 2}
        ),
        5,
    )
    add(
        AdversarySpec(
            "stabilizing",
            {"n": 2, "graphs": _keys("<-", "->", "<->"), "window": 3},
        ),
        5,
    )
    for seed in (1, 2, 3):
        add(AdversarySpec("random-rooted", {"n": 3, "size": 2}, seed=seed), 3)
        add(AdversarySpec("random-rooted", {"n": 2, "size": 2}, seed=seed), 5)
    for seed in (4, 5):
        add(AdversarySpec("random-oblivious", {"n": 3, "size": 2}, seed=seed), 3)
        add(AdversarySpec("random-oblivious", {"n": 2, "size": 3}, seed=seed), 5)
    add(AdversarySpec("random-oblivious", {"n": 3, "size": 2, "rooted_only": True},
                      seed=6), 3)
    # The deepening path on impossible adversaries (provers off): every
    # depth stays bivalent, so the history carries the layer counts.
    add(AdversarySpec("named", {"name": "lossy-full"}), 6,
        options={"use_impossibility_provers": False,
                 "use_broadcaster_certificate": False})
    add(AdversarySpec("named", {"name": "eventually-to-full-base"}), 6,
        options={"use_impossibility_provers": False,
                 "use_broadcaster_certificate": False})
    add(AdversarySpec("heard-of", {"n": 3, "predicate": "no-split"}), 2,
        options={"use_impossibility_provers": False})
    # A ternary-domain consensus spec, with weak and with strong validity.
    no_hub = AdversarySpec.from_adversary(lossy_link_no_hub())
    add(no_hub, 4, consensus={"domain": [0, 1, 2], "validity": "weak"})
    add(AdversarySpec("santoro-widmayer", {"n": 3, "losses": 1}), 3,
        consensus={"domain": [0, 1, 2], "validity": "strong"})
    # A restricted input-vector set.
    add(AdversarySpec.from_adversary(lossy_link_full()), 4,
        options={"use_impossibility_provers": False},
        input_vectors=[[0, 0], [0, 1], [1, 1]])
    add(AdversarySpec("santoro-widmayer", {"n": 3, "losses": 2}), 2,
        options={"use_impossibility_provers": False},
        input_vectors=[[0, 0, 0], [0, 1, 1], [1, 1, 1], [1, 0, 0]])
    add(AdversarySpec("santoro-widmayer", {"n": 3, "losses": 1}), 3,
        input_vectors=[[0, 0, 0], [0, 0, 1], [1, 1, 1], [0, 1, 1]])
    # k-set agreement over a ternary domain.
    add(AdversarySpec("santoro-widmayer", {"n": 3, "losses": 2}), 2,
        consensus={"domain": [0, 1, 2], "validity": "weak"}, kset=2)
    return out


def run_case(case: dict, layer_backend: str | None = None) -> dict:
    """The outcome of one corpus case (the fields the corpus pins)."""
    spec = AdversarySpec.from_dict(case["spec"])
    adversary = spec.build()
    consensus = case.get("consensus")
    cspec = (
        ConsensusSpec(consensus["domain"], consensus["validity"])
        if consensus is not None
        else None
    )
    if case.get("kset") is not None:
        table = check_kset_by_depth(
            adversary, case["kset"], case["max_depth"], spec=cspec
        )
        return {
            "found": table is not None,
            "views": None if table is None else len(table.assignment),
        }
    options = CheckOptions(
        max_depth=case["max_depth"],
        layer_backend=layer_backend,
        **case.get("options", {}),
    )
    vectors = case.get("input_vectors")
    result = check_consensus_with_options(
        adversary,
        options,
        spec=cspec,
        input_vectors=None if vectors is None else [tuple(v) for v in vectors],
    )
    table = result.decision_table
    return {
        "status": result.status.value,
        "certified_depth": result.certified_depth,
        "certificate": certificate_summary(result),
        "table": None
        if table is None
        else {
            "components": len(table.assignment),
            "values": sorted(
                [repr(v), list(table.assignment.values()).count(v)]
                for v in set(table.assignment.values())
            ),
            "final_views": len(table.final),
            "decided_views": len(table.early),
        },
        "history": [
            [r.prefixes, r.components, r.bivalent, r.non_broadcastable]
            for r in result.history
        ],
    }


def build_lines() -> list[str]:
    lines = []
    for case in cases():
        options = CheckOptions(max_depth=case["max_depth"], **case.get("options", {}))
        entry = dict(case)
        entry["semantic_options"] = semantic_options(options)
        entry["kernel_epoch"] = KERNEL_EPOCH
        entry["expected"] = run_case(case)
        lines.append(json.dumps(entry, sort_keys=True, separators=(",", ":")))
    return lines


def main() -> int:
    text = "\n".join(build_lines()) + "\n"
    CORPUS.parent.mkdir(parents=True, exist_ok=True)
    CORPUS.write_text(text)
    digest = hashlib.sha256(text.encode()).hexdigest()
    print(f"{CORPUS}: {text.count(chr(10))} entries, sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
