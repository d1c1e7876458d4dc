"""The golden verdict corpus, asserted through every in-process entry path.

``tests/data/golden_corpus.jsonl`` holds small checks over every
registered family (n <= 3, depth <= 6) plus a ternary-domain consensus
spec, a k-set case and restricted input-vector sets, each with its
expected status, certified depth, certificate, decision-table sizes and
per-depth component history.  Every entry re-runs through
``check_consensus_with_options`` on each layer backend and, for plain
specs, through :class:`~repro.backends.SerialBackend`.  The file's digest
is pinned per :data:`~repro.store.keys.KERNEL_EPOCH`, so a verdict change
that regenerates the corpus without bumping the epoch fails here.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from repro.backends import SerialBackend, SweepJob
from repro.consensus.solvability import CheckOptions
from repro.core.views import numpy_available
from repro.specs import AdversarySpec
from repro.store.keys import GOLDEN_CORPUS_SHA256, KERNEL_EPOCH

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "data" / "golden_corpus.jsonl"
_spec = importlib.util.spec_from_file_location(
    "make_golden_corpus", ROOT / "scripts" / "make_golden_corpus.py"
)
make_golden_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden_corpus)

ENTRIES = [json.loads(line) for line in CORPUS.read_text().splitlines()]
BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


#: (index, entry, layer backend); the k-set path does not take a layer
#: backend, so its entries run once.
CASES = [
    (index, entry, backend)
    for index, entry in enumerate(ENTRIES)
    for backend in (BACKENDS[-1:] if entry.get("kset") else BACKENDS)
]


def test_corpus_digest_is_pinned_to_the_kernel_epoch():
    digest = hashlib.sha256(CORPUS.read_bytes()).hexdigest()
    assert GOLDEN_CORPUS_SHA256.get(KERNEL_EPOCH) == digest, (
        "golden corpus changed without a KERNEL_EPOCH bump (or the new "
        "digest is not pinned under the current epoch)"
    )
    assert {entry["kernel_epoch"] for entry in ENTRIES} == {KERNEL_EPOCH}


def test_corpus_covers_every_builtin_family():
    # Other tests register throwaway families, so compare against the
    # families the library itself registers.
    builtin = {
        "oblivious", "two-process", "santoro-widmayer", "heard-of", "named",
        "eventually-forever", "stabilizing", "random-rooted", "random-oblivious",
    }
    assert {entry["spec"]["family"] for entry in ENTRIES} == builtin
    assert any(entry.get("kset") for entry in ENTRIES)
    assert any(entry.get("input_vectors") for entry in ENTRIES)
    assert any(
        len(entry.get("consensus", {}).get("domain", ())) == 3 for entry in ENTRIES
    )


@pytest.mark.parametrize(
    "index, entry, backend",
    CASES,
    ids=[f"{i:02d}-{e['spec']['family']}-{b}" for i, e, b in CASES],
)
def test_direct_check_matches_corpus(index, entry, backend):
    assert make_golden_corpus.run_case(entry, layer_backend=backend) == entry["expected"]


def test_serial_backend_matches_corpus():
    groups: dict[str, list[tuple[int, dict]]] = {}
    for index, entry in enumerate(ENTRIES):
        if entry.get("consensus") or entry.get("input_vectors") or entry.get("kset"):
            continue  # the sweep path runs default-spec checks only
        key = json.dumps(entry.get("options", {}), sort_keys=True)
        groups.setdefault(key, []).append((index, entry))
    checked = 0
    for key, members in groups.items():
        jobs = [
            SweepJob(
                index,
                spec=AdversarySpec.from_dict(entry["spec"]),
                max_depth=entry["max_depth"],
            )
            for index, entry in members
        ]
        records = SerialBackend(record_timing=False).run(
            jobs, CheckOptions(**json.loads(key))
        )
        for record, (_, entry) in zip(records, members):
            expected = entry["expected"]
            assert (
                record.status,
                record.certified_depth,
                record.certificate,
            ) == (
                expected["status"],
                expected["certified_depth"],
                expected["certificate"],
            ), entry["spec"]
            checked += 1
    assert checked >= 50
