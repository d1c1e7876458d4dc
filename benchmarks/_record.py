"""Shared benchmark recording / regression-gating helper.

Runs one or more ``bench_*.py`` modules under pytest-benchmark, distills
the raw report into a compact ``BENCH_<suite>.json`` (per-test mean/min
seconds plus environment metadata), and optionally compares the fresh run
against a committed baseline, failing on regressions beyond a tolerance.

Usage
-----
Record a suite (quick mode skips the ``bench_deep``-marked scenarios)::

    python benchmarks/_record.py --suite scaling_checker --out BENCH_scaling_checker.json

Gate against a committed baseline (CI smoke job)::

    python benchmarks/_record.py --suite scaling_checker --quick \
        --out bench-out/BENCH_scaling_checker.json \
        --compare benchmarks/BENCH_scaling_checker.json --tolerance 0.30

The committed ``benchmarks/BENCH_*.json`` files double as the PR's speedup
evidence: each entry carries the historical means (``seed_mean_s``,
``pr3_mean_s``, ``pr4_mean_s``, ... — measured on the corresponding trees)
next to the current mean and the resulting speedups.  Re-recording with
``--carry OLD_BASELINE.json`` copies those annotations forward and
recomputes every ``speedup_vs_*`` against the fresh means, so the whole
performance trajectory stays reconstructable from one file.  Each record
also notes ``peak_rss_kb`` — the high-water resident set of the benchmark
subprocess — so memory trends are tracked alongside wall-clock.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

try:  # POSIX-only; the recorder still works (without RSS) elsewhere.
    import resource
except ImportError:  # pragma: no cover - Windows
    resource = None

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


def calibrate() -> float:
    """Best-of-five timing of a fixed pure-Python workload, in seconds.

    The committed baselines were recorded on a different machine than the
    CI runners; scaling every baseline mean by the ratio of calibration
    times turns the absolute gate into a machine-relative one.  The
    workload deliberately exercises nothing from this repository, so code
    changes cannot shift the calibration.
    """
    import time

    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        x = 0
        for i in range(200_000):
            x = (x * 1103515245 + i) & 0xFFFFFFFF
        best = min(best, time.perf_counter() - start)
    return best

#: Suite name -> benchmark modules it runs.
SUITES = {
    "scaling_checker": ["bench_scaling_checker.py"],
    "fig2_ptg": ["bench_fig2_ptg.py"],
    "census": ["bench_census.py"],
    "service": ["bench_service.py"],
    "figures": [
        "bench_fig1_spaces.py",
        "bench_fig2_ptg.py",
        "bench_fig3_distances.py",
        "bench_fig4_compact_components.py",
        "bench_fig5_noncompact.py",
    ],
}


def run_suite(
    suite: str,
    quick: bool = False,
    extra_args: list[str] | None = None,
    keyword: str | None = None,
) -> dict:
    """Run a suite under pytest-benchmark and return the distilled record."""
    modules = SUITES[suite]
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        raw_path = Path(handle.name)
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        *[str(BENCH_DIR / module) for module in modules],
        "--benchmark-only",
        "-q",
        "-p",
        "no:cacheprovider",
        f"--benchmark-json={raw_path}",
    ]
    if quick:
        cmd += ["-m", "not bench_deep"]
    if keyword:
        cmd += ["-k", keyword]
    if extra_args:
        cmd += extra_args
    result = subprocess.run(cmd, cwd=REPO_ROOT)
    if result.returncode != 0:
        raise SystemExit(f"benchmark run failed with exit code {result.returncode}")
    # High-water resident set of the benchmark subprocess.  ru_maxrss is
    # KiB on Linux but *bytes* on macOS; normalize to KiB (None where the
    # resource module is unavailable).  A max over all children of this
    # recorder process, which is exactly the benchmark run it just spawned.
    if resource is None:  # pragma: no cover - Windows
        peak_rss_kb = None
    else:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if sys.platform == "darwin":  # pragma: no cover
            peak_rss_kb //= 1024
    raw = json.loads(raw_path.read_text())
    raw_path.unlink(missing_ok=True)
    benchmarks = distill(raw)
    return {
        "suite": suite,
        "quick": quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "calibration_s": calibrate(),
        "peak_rss_kb": peak_rss_kb,
        "benchmarks": benchmarks,
        "measured_extra_keys": sorted(
            {key for stats in benchmarks.values() for key in stats}
            - _MEASURED_KEYS
        ),
    }


def distill(raw: dict) -> dict:
    """Per-test entries of a raw pytest-benchmark JSON report.

    Each entry holds the timing stats plus every numeric ``extra_info``
    field its scenario declared (worker counts, latency percentiles,
    derived speedups): all of them are measurements of this run.
    """
    benchmarks = {}
    for bench in raw["benchmarks"]:
        entry = {
            "mean_s": bench["stats"]["mean"],
            "min_s": bench["stats"]["min"],
            "rounds": bench["stats"]["rounds"],
            # Worker count of the sharded extension kernel (1 = serial).
            "extension_workers": 1,
        }
        for key, value in bench.get("extra_info", {}).items():
            if (
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and math.isfinite(value)
            ):
                entry[key] = value
        benchmarks[bench["name"]] = entry
    return benchmarks


#: Per-entry keys produced by the run itself; everything else in a baseline
#: entry is an annotation eligible for carry-forward.  The ``extra_info``
#: keys a run copied in are measured too: the record lists them under
#: ``measured_extra_keys``, and the carry skips them.
_MEASURED_KEYS = {"mean_s", "min_s", "rounds", "extension_workers"}


def carry_annotations(record: dict, baseline: dict) -> int:
    """Copy historical annotations from ``baseline`` into ``record``.

    For every benchmark present in both files, annotation keys (anything
    beyond the freshly measured ``mean_s``/``min_s``/``rounds`` and the
    ``extra_info`` measurements of either run, except the stale
    ``speedup_vs_*`` ratios) are carried forward, and every carried
    ``<era>_mean_s`` gets its ``speedup_vs_<era>`` recomputed against the
    fresh mean — so re-recording never loses the seed/PR-N trajectory.
    Returns the number of entries that received annotations.
    """
    carried = 0
    measured = (
        _MEASURED_KEYS
        | set(baseline.get("measured_extra_keys", ()))
        | set(record.get("measured_extra_keys", ()))
    )
    for name, stats in record["benchmarks"].items():
        base = baseline["benchmarks"].get(name)
        if base is None:
            continue
        annotations = {
            key: value
            for key, value in base.items()
            if key not in measured
            and key not in stats
            and not key.startswith("speedup_vs_")
        }
        if not annotations:
            continue
        stats.update(annotations)
        for key, value in annotations.items():
            if key.endswith("_mean_s") and value and stats["mean_s"] > 0:
                era = key[: -len("_mean_s")]
                stats[f"speedup_vs_{era}"] = round(value / stats["mean_s"], 2)
        carried += 1
    for key in ("seed_commit", "aggregate_note", "note"):
        if key in baseline and key not in record:
            record[key] = baseline[key]
    # Refresh the aggregate headline from the carried seed annotations so
    # the whole trajectory really does survive a re-recording.
    seed_speedups = [
        stats["speedup_vs_seed"]
        for stats in record["benchmarks"].values()
        if stats.get("speedup_vs_seed")
    ]
    if seed_speedups:
        record["aggregate_speedup_vs_seed"] = round(
            math.exp(sum(math.log(r) for r in seed_speedups) / len(seed_speedups)),
            2,
        )
    return carried


def compare(record: dict, baseline_path: Path, tolerance: float) -> list[str]:
    """Regressions of ``record`` against a baseline file, as messages.

    A test regresses when its fresh mean exceeds the (machine-normalized)
    baseline mean by more than ``tolerance`` (relative).  Tests present on
    only one side are reported informationally but are not failures.
    """
    baseline = json.loads(baseline_path.read_text())
    base_benchmarks = baseline["benchmarks"]
    scale = 1.0
    base_calibration = baseline.get("calibration_s")
    if base_calibration:
        scale = record["calibration_s"] / base_calibration
        print(f"machine calibration scale vs baseline: {scale:.2f}x")
    failures = []
    for name, stats in record["benchmarks"].items():
        base = base_benchmarks.get(name)
        if base is None:
            print(f"note: no baseline for {name}")
            continue
        # Gate on the per-round minimum: means of microsecond kernels are
        # dominated by scheduler noise, minima are stable.
        budget = base["min_s"] * scale * (1.0 + tolerance)
        if stats["min_s"] > budget:
            failures.append(
                f"{name}: min {stats['min_s'] * 1e6:.1f} us exceeds baseline "
                f"{base['min_s'] * 1e6:.1f} us by more than {tolerance:.0%}"
            )
    for name in base_benchmarks:
        if name not in record["benchmarks"]:
            print(f"note: baseline entry {name} not exercised in this run")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", required=True, choices=sorted(SUITES))
    parser.add_argument("--out", type=Path, required=True, help="distilled JSON output path")
    parser.add_argument("--quick", action="store_true", help="skip bench_deep-marked scenarios")
    parser.add_argument(
        "--filter",
        dest="keyword",
        help="pytest -k expression restricting which benchmarks run "
        "(e.g. \"python\" on the without-numpy CI leg, where only the "
        "backend=python params are comparable to the committed baselines)",
    )
    parser.add_argument(
        "--carry",
        type=Path,
        help="previous BENCH_*.json whose per-entry annotations "
        "(seed/pr3/pr4 means etc.) are carried into --out with speedups "
        "recomputed against the fresh means",
    )
    parser.add_argument("--compare", type=Path, help="baseline BENCH_*.json to gate against")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed relative slowdown vs the baseline (default 0.30)",
    )
    args = parser.parse_args(argv)

    record = run_suite(args.suite, quick=args.quick, keyword=args.keyword)
    if args.carry:
        carried = carry_annotations(record, json.loads(args.carry.read_text()))
        print(f"carried annotations for {carried} entries from {args.carry}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out} ({len(record['benchmarks'])} benchmarks)")

    if args.compare:
        failures = compare(record, args.compare, args.tolerance)
        if failures:
            for message in failures:
                print(f"REGRESSION: {message}", file=sys.stderr)
            return 1
        print(f"no regressions beyond {args.tolerance:.0%} vs {args.compare}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
