"""The repository benchmark (see ``BENCHMARK.json`` and ``perfbench/README.md``).

Run from the repository root::

    python3 perfbench/run.py --workload check-deep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Every pass runs in a fresh process (``work.py``), so set-up and peak RSS
belong to that pass alone.  ``--trace 0`` repeats untraced passes until
``--seconds`` have elapsed (at least one) and prints the end-to-end
metrics; ``--trace 1`` runs one untraced and one traced pass, checks that
their outputs are identical, and prints the per-layer metrics.  The last
stdout line is the result object; earlier ``#`` lines carry the
environment stamp and per-pass detail, and the whole result document is
also kept under ``.perfbench/results/`` for ``compare.py``.  The exit
code is non-zero when any output disagrees with ``reference.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import procs  # noqa: E402
from layers import PER_LAYER  # noqa: E402

WORKLOADS = ("check-deep", "sweep-family", "service-mixed", "fleet-sweep")

#: End-to-end metrics: name -> unit.
END_TO_END = {"setup_s": "s", "pass_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

SETUP_SAMPLES = 5
PASS_TIMEOUT_S = 170.0
#: Service latencies are reported from the untraced pass of a traced run.
UNTRACED_SERVICE = ("service.hot_p50_ms", "service.hot_p99_ms",
                    "service.cold_p50_s", "service.cold_p90_s")


def calibrate() -> float:
    """Best of five timings of a fixed pure-Python loop (machine speed)."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        x = 0
        for i in range(200_000):
            x = (x * 1103515245 + i) & 0xFFFFFFFF
        best = min(best, time.perf_counter() - start)
    return best


def environment_stamp(root: Path) -> dict[str, Any]:
    """What a result depends on besides the code: compare only equal stamps."""
    stamp: dict[str, Any] = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }
    for module, probe in (("numpy", "numpy"), ("scipy", "scipy.sparse.csgraph")):
        try:
            importlib.import_module(probe)
            stamp[module] = importlib.import_module(module).__version__
        except ImportError:
            stamp[module] = None
    sys.path.insert(0, str(root / "src"))
    from repro.core.views import DEFAULT_LAYER_BACKEND

    stamp["layer_backend"] = DEFAULT_LAYER_BACKEND
    stamp["calibration_s"] = calibrate()
    return stamp


# ------------------------------------------------------------------ #
# Passes and set-up probes
# ------------------------------------------------------------------ #


def _launch(root: Path, args: list[str]) -> subprocess.Popen:
    # Own process group: a pass that must be killed takes its fleet
    # workers or server down with it.
    return subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "work.py"), *args],
        cwd=root, env=procs.child_env(root), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )


def _reap(proc: subprocess.Popen) -> int | None:
    """Wait for a pass process, then make sure nothing of its group is left."""
    try:
        code = proc.wait(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    proc.stdout.close()
    return code


def run_pass(root: Path, tmp: Path, workload: str, seed: int, smoke: bool, traced: bool) -> dict[str, Any]:
    """One pass in a fresh process; a crashed pass counts as one failure."""
    out = tmp / f"pass-{time.perf_counter_ns()}.json"
    started = time.perf_counter()
    proc = _launch(root, [workload, str(seed), str(int(smoke)), str(int(traced)), str(out)])
    try:
        procs.wait_for_line(proc, "ready")
        setup_s = time.perf_counter() - started
    except (RuntimeError, TimeoutError):
        setup_s = None
    code = _reap(proc)
    if code != 0 or setup_s is None or not out.exists():
        return {"crashed": code, "attempted": 1, "failures": [f"{workload} pass exited with {code}"]}
    result = json.loads(out.read_text())
    result.setdefault("setup_s", setup_s)
    return result


def probe_setup(root: Path, tmp: Path, workload: str, seed: int, smoke: bool) -> float:
    """One more set-up sample without a pass."""
    if workload == "service-mixed":
        proc, _, setup_s = procs.start_server(
            root, tmp / f"probe-{time.perf_counter_ns()}", 2)
        procs.stop(proc)
        return setup_s
    started = time.perf_counter()
    proc = _launch(root, [workload, str(seed), str(int(smoke)), "0", str(tmp / "probe"), "probe"])
    try:
        procs.wait_for_line(proc, "ready")
        return time.perf_counter() - started
    finally:
        _reap(proc)


# ------------------------------------------------------------------ #
# One benchmark run
# ------------------------------------------------------------------ #


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict[str, Any]:
    tmp = root / ".perfbench" / "tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            plain = run_pass(root, tmp, workload, seed, smoke, False)
            traced = run_pass(root, tmp, workload, seed, smoke, True)
            passes = [plain, traced]
            metrics, failures = _trace_metrics(plain, traced)
        else:
            passes = []
            began = time.perf_counter()
            while not passes or time.perf_counter() - began < seconds:
                passes.append(run_pass(root, tmp, workload, seed, smoke, False))
            failures = []
            metrics = _end_to_end(passes, root, tmp, workload, seed, smoke)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for result in passes:
        failures = failures + result["failures"]
    # A traced run also attempts one comparison: traced vs untraced outputs.
    attempted = sum(result["attempted"] for result in passes) + int(trace)
    units = {**END_TO_END, **{name: spec[0] for name, spec in PER_LAYER.items()}}
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "failures": failures[:20],
        "passes": [
            {key: result.get(key) for key in ("wall_s", "ops", "setup_s", "rss_mb", "samples", "crashed")}
            for result in passes
        ],
    }


def _end_to_end(passes, root, tmp, workload, seed, smoke) -> dict[str, float]:
    good = [result for result in passes if "crashed" not in result]
    if not good:
        return {}
    setups = [result["setup_s"] for result in good]
    while len(setups) < SETUP_SAMPLES:
        setups.append(probe_setup(root, tmp, workload, seed, smoke))
    return {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(result["wall_s"] for result in good),
        "ops_per_s": statistics.median(result["ops"] / result["wall_s"] for result in good),
        "peak_rss_mb": statistics.median(result["rss_mb"] for result in good),
    }


def _trace_metrics(plain, traced) -> tuple[dict[str, float], list[str]]:
    if "crashed" in plain or "crashed" in traced:
        return {}, []
    failures = []
    if plain["outputs"] != traced["outputs"]:
        failures.append("traced and untraced passes produced different outputs")
    metrics = dict(traced["layer"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    for name in UNTRACED_SERVICE:
        if name in plain["extra"]:
            metrics[name] = plain["extra"][name]
    return metrics, failures


def report(root: Path, workload: str, seed: int, trace: bool, doc: dict[str, Any], stamp) -> None:
    """Print the detail lines and the result object; keep the document."""
    print(f"# stamp {json.dumps(stamp, sort_keys=True)}")
    print(f"# passes {json.dumps(doc['passes'])}")
    for failure in doc["failures"]:
        print(f"# FAILED {failure}")
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    (results / name).write_text(json.dumps(
        {"workload": workload, "seed": seed, "trace": trace, "stamp": stamp, **doc}, indent=1))
    print(json.dumps({key: doc[key] for key in ("correct", "attempted", "failed", "metrics")}))


def smoke(root: Path) -> int:
    """Every workload on tiny inputs, both modes: names and correctness."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            doc = run(root, workload, 0, 0.0, trace, smoke=True)
            units = {name: metric["unit"] for name, metric in doc["metrics"].items()}
            good = doc["correct"] and units == expected[trace]
            ok = ok and good
            print(f"{'ok  ' if good else 'FAIL'} {workload} trace={int(trace)} "
                  f"attempted={doc['attempted']} failed={doc['failed']} metrics={len(units)}")
            for failure in doc["failures"]:
                print(f"     {failure}")
            if units != expected[trace]:
                print(f"     metric names/units differ from BENCHMARK.json: "
                      f"{sorted(set(units.items()) ^ set(expected[trace].items()))}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload on tiny inputs and check the metric names")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (no src/repro here)", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required")
    stamp = environment_stamp(root)
    doc = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    report(root, args.workload, args.seed, bool(args.trace), doc, stamp)
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
