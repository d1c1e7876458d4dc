"""Rebuild ``reference.json``: the verdict of every spec the workloads generate.

Run from the repository root: ``python3 perfbench/make_reference.py``.
Sweep and service verdicts come from ``SerialBackend(record_timing=False)``,
the reference backend, whose JSONL bytes are also the fleet merge's
reference (one sha256 per ``POOL_SEEDS`` entry).  ``check-deep`` cases record status,
certified depth, certificate and the final layer's prefix count from the
CLI ``check`` path: a fresh interner per check, memo off.  Regenerate only
when a change is meant to alter verdicts.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402
from procs import BENCH_DIR  # noqa: E402
from repro.backends import SerialBackend, jobs_for  # noqa: E402
from repro.consensus.solvability import CheckOptions, check_consensus_with_options  # noqa: E402
from repro.core.views import ViewInterner  # noqa: E402
from repro.records import certificate_summary, write_jsonl  # noqa: E402


def serial(specs, depth: int, verdicts: dict) -> str:
    """Record the verdicts of ``specs``; returns the sha256 of their JSONL."""
    records = SerialBackend(record_timing=False).run(
        jobs_for(specs, max_depth=depth), CheckOptions(max_depth=depth)
    )
    for spec, record in zip(specs, records):
        verdicts[workloads.verdict_key(spec, depth)] = [
            record.status, record.certified_depth, record.certificate
        ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        write_jsonl(records, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def checks(smoke: bool) -> list:
    rows = []
    for spec, fields in workloads.check_cases(smoke):
        adversary = spec.build()
        result = check_consensus_with_options(
            adversary,
            CheckOptions(**fields, memo_extensions=False),
            interner=ViewInterner(adversary.n),
        )
        prefixes = result.history[-1].prefixes if result.history else None
        rows.append([spec.to_dict(), result.status.value, result.certified_depth,
                     certificate_summary(result), prefixes])
    return rows


def main() -> int:
    verdicts: dict[str, list] = {}
    sha256: dict[str, dict[str, str]] = {"full": {}, "smoke": {}}
    for pool in range(len(workloads.POOL_SEEDS)):
        for size, smoke in (("full", False), ("smoke", True)):
            depth = workloads.sweep_depth(smoke)
            sha256[size][str(pool)] = serial(workloads.sweep_specs(pool, smoke), depth, verdicts)
            serial(workloads.hot_specs(pool, smoke), depth, verdicts)
        print(f"pool {pool} done", flush=True)
    reference = {
        "verdicts": dict(sorted(verdicts.items())),
        "checks": {"full": checks(False), "smoke": checks(True)},
        "sweep_sha256": sha256,
    }
    with open(BENCH_DIR / "reference.json", "w", encoding="utf-8") as out:
        json.dump(reference, out, indent=0, sort_keys=True)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
