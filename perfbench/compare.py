"""Compare two sets of benchmark results: ``compare.py OLD_DIR NEW_DIR``.

Each directory holds result documents as ``run.py`` keeps them under
``.perfbench/results/``.  Prints, per workload and metric, both medians
and their ratio.  Results whose environment stamps differ (CPU count,
Python, numpy/scipy availability, layer backend, or a calibration time
more than 20% apart) are flagged NOT COMPARABLE: on another stamp a
different kernel path or machine speed can move every number.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

CALIBRATION_TOLERANCE = 0.20


def load(directory: str) -> list[dict]:
    return [json.loads(path.read_text()) for path in sorted(Path(directory).glob("*.json"))]


def comparable(a: dict, b: dict) -> bool:
    fixed = ("nproc", "python", "numpy", "scipy", "layer_backend")
    if any(a.get(key) != b.get(key) for key in fixed):
        return False
    ratio = a["calibration_s"] / b["calibration_s"]
    return abs(ratio - 1.0) <= CALIBRATION_TOLERANCE


def medians(docs: list[dict]) -> dict[tuple[str, int], dict[str, float]]:
    values: dict[tuple[str, int], dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for doc in docs:
        for name, metric in doc["metrics"].items():
            values[(doc["workload"], int(doc["trace"]))][name].append(metric["value"])
    return {
        group: {name: statistics.median(samples) for name, samples in metrics.items()}
        for group, metrics in values.items()
    }


def main(argv: list[str]) -> int:
    old, new = load(argv[0]), load(argv[1])
    stamps_ok = all(comparable(a["stamp"], b["stamp"]) for a in old for b in new)
    if not stamps_ok:
        print("NOT COMPARABLE: the two sets were measured under different environment stamps")
    old_medians, new_medians = medians(old), medians(new)
    for group in sorted(set(old_medians) & set(new_medians)):
        print(f"{group[0]} (trace={group[1]})")
        for name, before in sorted(old_medians[group].items()):
            after = new_medians[group].get(name)
            if after is None:
                continue
            ratio = after / before if before else float("nan")
            print(f"  {name:28s} {before:14.6g} {after:14.6g}  x{ratio:.3f}")
    return 0 if stamps_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
