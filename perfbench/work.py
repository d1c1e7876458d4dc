"""One measured pass of one workload, in a fresh process.

``work.py WORKLOAD SEED SMOKE TRACE OUT`` imports the program, builds the
workload's inputs, prints ``ready`` (the end of set-up), runs one pass,
checks every output against ``reference.json`` and writes a JSON result
to ``OUT``.  ``TRACE=1`` installs the layer wrappers after ``ready`` and
adds the per-layer metrics; any sixth argument (``probe``) stops right
after ``ready``, a set-up sample only.  A ``service-mixed``
pass starts its own server; its set-up is the server's, not this process's.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

import layers
import procs
import workloads
from spans import SpanRecorder, percentile

REFERENCE = procs.BENCH_DIR / "reference.json"


class Checker:
    """Counts operations and failures against the committed reference."""

    def __init__(self, smoke: bool) -> None:
        with open(REFERENCE, encoding="utf-8") as handle:
            reference = json.load(handle)
        self.verdicts: dict[str, list] = reference["verdicts"]
        self.checks = reference["checks"]["smoke" if smoke else "full"]
        self.sweep_sha256 = reference["sweep_sha256"]["smoke" if smoke else "full"]
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def verdict(self, key: str, record: dict[str, Any]) -> list:
        """Check one record's verdict (``key`` from ``verdict_key``)."""
        self.attempted += 1
        got = [record["status"], record["certified_depth"], record["certificate"]]
        if self.verdicts.get(key) != got:
            self.fail(f"verdict {got} != reference {self.verdicts.get(key)} for {key}")
        return [key, *got]


def _rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ #
# In-process workloads
# ------------------------------------------------------------------ #


def run_check_deep(inputs, checker: Checker) -> dict[str, Any]:
    from repro.consensus import solvability
    from repro.core.views import ViewInterner
    from repro.records import certificate_summary

    outputs = []
    start = time.perf_counter()
    for spec, fields in inputs:
        adversary = spec.build()
        options = solvability.CheckOptions(**fields, memo_extensions=False)
        # Looked up on the module at call time, so a traced pass sees the wrapper.
        result = solvability.check_consensus_with_options(
            adversary, options, interner=ViewInterner(adversary.n)
        )
        prefixes = result.history[-1].prefixes if result.history else None
        outputs.append([spec.to_dict(), result.status.value, result.certified_depth,
                        certificate_summary(result), prefixes])
    end = time.perf_counter()
    for got, expected in zip(outputs, checker.checks):
        checker.attempted += 1
        if got != expected:
            checker.fail(f"check {got} != reference {expected}")
    return {"start": start, "end": end, "ops": len(outputs), "outputs": outputs,
            "rss_mb": _rss_self_mb(), "extra": {}}


def _sweep_jobs(inputs, smoke: bool):
    from repro.backends import jobs_for

    return jobs_for(inputs, max_depth=workloads.sweep_depth(smoke))


def run_sweep_family(inputs, checker: Checker, smoke: bool) -> dict[str, Any]:
    from repro.backends import SerialBackend
    from repro.consensus.solvability import CheckOptions

    depth = workloads.sweep_depth(smoke)
    jobs = _sweep_jobs(inputs, smoke)
    start = time.perf_counter()
    records = SerialBackend().run(jobs, CheckOptions(max_depth=depth))
    end = time.perf_counter()
    outputs = [checker.verdict(workloads.verdict_key(job.spec, depth), record.to_dict())
               for job, record in zip(jobs, records)]
    if len(records) != len(jobs):
        checker.fail(f"{len(records)} records for {len(jobs)} jobs")
    return {"start": start, "end": end, "ops": len(records), "outputs": outputs,
            "rss_mb": _rss_self_mb(), "extra": {}}


def _jsonl_sha256(records, scratch: Path) -> str:
    from repro.records import write_jsonl

    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        path = Path(tmp) / "records.jsonl"
        write_jsonl(records, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def run_fleet_sweep(
    inputs, checker: Checker, seed: int, traced: bool, smoke: bool, scratch: Path
) -> dict[str, Any]:
    from repro.consensus.solvability import CheckOptions
    from repro.fleet import state
    from repro.fleet.runner import FleetBackend
    from repro.records import RunRecord

    depth = workloads.sweep_depth(smoke)
    jobs = _sweep_jobs(inputs, smoke)
    workdir = scratch / "fleet"
    backend = FleetBackend(
        workdir, shards=workloads.FLEET_SHARDS, workers=workloads.FLEET_WORKERS,
        record_timing=traced, timeout_s=150.0,
    )
    start = time.perf_counter()
    records = backend.run(jobs, CheckOptions(max_depth=depth))
    end = time.perf_counter()
    if traced:
        # Timing on: compare the merge after zeroing the run-dependent fields.
        busy = sum(record.elapsed_s for record in records)
        normalized = [
            RunRecord.from_dict({**r.to_dict(), "elapsed_s": 0.0, "views_interned": 0})
            for r in records
        ]
        digest = _jsonl_sha256(normalized, scratch)
    else:
        busy = 0.0
        digest = hashlib.sha256((workdir / "merged.jsonl").read_bytes()).hexdigest()
    ledger = state.snapshot(workdir)["attempts"].values()
    outputs = [checker.verdict(workloads.verdict_key(job.spec, depth), record.to_dict())
               for job, record in zip(jobs, records)]
    checker.attempted += 1
    expected = checker.sweep_sha256[str(seed % len(workloads.POOL_SEEDS))]
    if digest != expected:
        checker.fail(f"fleet merge sha256 {digest} != serial reference {expected}")
    outputs.append(digest)
    rss = max(_rss_self_mb(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    wall = end - start
    extra = {
        "fleet.attempts": float(sum(entry["attempt"] for entry in ledger)),
        "fleet.retries": float(sum(entry["failures"] for entry in ledger)),
        "fleet.busy_ratio": busy / (wall * workloads.FLEET_WORKERS),
    }
    return {"start": start, "end": end, "ops": len(records), "outputs": outputs,
            "rss_mb": rss, "extra": extra}


# ------------------------------------------------------------------ #
# service-mixed: two closed-loop clients against a spawned server
# ------------------------------------------------------------------ #


class _Connection:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "_Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        await reader.readline()  # hello
        return cls(reader, writer)

    async def request(self, payload: dict[str, Any]) -> tuple[dict[str, Any], list[tuple[str, float]]]:
        """Send one request; returns its terminal response and timed events."""
        self.writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await self.writer.drain()
        events = []
        while True:
            line = await self.reader.readline()
            if not line:
                raise ConnectionError("server closed mid-request")
            response = json.loads(line)
            if response.get("id") != payload["id"]:
                raise RuntimeError(f"response id {response.get('id')!r} for {payload['id']!r}")
            if "ok" in response:
                return response, events
            events.append((response.get("event"), time.perf_counter()))

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


async def _drive(port: int, inputs, checker: Checker, smoke: bool) -> dict[str, Any]:
    hot, cold = inputs
    depth = workloads.sweep_depth(smoke)
    options = {"max_depth": depth}
    hot_keys = [workloads.verdict_key(spec, depth) for spec in hot]
    hot_payloads = [spec.to_dict() for spec in hot]
    cold_client = await _Connection.open(port)
    hot_client = await _Connection.open(port)
    outputs = []
    for index, spec in enumerate(hot):
        response, _ = await cold_client.request(
            {"op": "query", "id": f"warm-{index}", "spec": hot_payloads[index],
             "options": options, "wait": True})
        if not response.get("ok"):
            checker.attempted += 1
            checker.fail(f"warm-up error {response}")
            continue
        outputs.append(checker.verdict(hot_keys[index], response["record"]))
    hot_ms: list[float] = []
    cold_s: list[float] = []
    queue_wait = execute = 0.0
    done = False

    async def hot_loop() -> None:
        index = 0
        while not done:
            slot = index % len(hot)
            sent = time.perf_counter()
            response, _ = await hot_client.request(
                {"op": "query", "id": f"hot-{index}", "spec": hot_payloads[slot],
                 "options": options})
            hot_ms.append((time.perf_counter() - sent) * 1000.0)
            index += 1
            if response.get("ok") and response.get("hot"):
                checker.verdict(hot_keys[slot], response["record"])
            else:
                checker.attempted += 1
                checker.fail(f"pre-warmed key answered {response}")
            await asyncio.sleep(workloads.HOT_THINK_S)

    async def cold_loop() -> None:
        nonlocal done, queue_wait, execute
        try:
            for index, spec in enumerate(cold):
                sent = time.perf_counter()
                response, events = await cold_client.request(
                    {"op": "query", "id": f"cold-{index}", "spec": spec.to_dict(),
                     "options": options, "wait": True})
                finished = time.perf_counter()
                cold_s.append(finished - sent)
                if not response.get("ok") or response.get("hot"):
                    checker.attempted += 1
                    checker.fail(f"cold query answered {response}")
                    outputs.append(None)
                    continue
                outputs.append(
                    checker.verdict(workloads.verdict_key(spec, depth), response["record"]))
                times = dict(events)
                begun = times.get("started", times.get("running", sent))
                queue_wait += begun - times.get("queued", begun)
                execute += finished - begun
        finally:
            done = True

    start = time.perf_counter()
    await asyncio.gather(hot_loop(), cold_loop())
    end = time.perf_counter()
    response, _ = await cold_client.request({"op": "stats", "id": "stats"})
    stats = response["stats"]
    await hot_client.close()
    await cold_client.close()
    lookups = stats["hits"] + stats["misses"]
    extra = {
        "store.hit_ratio": stats["hits"] / lookups if lookups else 0.0,
        "store.stale": float(stats["stale"]),
        "service.coalesced": float(stats["coalesced"]),
        "service.rejected": float(stats["rejected"]),
        "service.queue_wait_s": queue_wait,
        "service.execute_s": execute,
        "service.hot_p50_ms": statistics.median(hot_ms),
        "service.hot_p99_ms": percentile(hot_ms, 99.0),
        "service.cold_p50_s": statistics.median(cold_s),
        "service.cold_p90_s": percentile(cold_s, 90.0),
    }
    return {"start": start, "end": end, "ops": len(hot_ms) + len(cold_s),
            "outputs": outputs, "extra": extra,
            "samples": {"hot": len(hot_ms), "cold": len(cold_s)}}


def run_service_mixed(
    root: Path, inputs, checker: Checker, traced: bool, smoke: bool, scratch: Path
) -> dict[str, Any]:
    spans_out = scratch / "spans.json" if traced else None
    proc, port, setup_s = procs.start_server(
        root, scratch / "store", workloads.SERVICE_WORKERS, spans_out)
    try:
        result = asyncio.run(_drive(port, inputs, checker, smoke))
        result["rss_mb"] = procs.peak_rss_mb(proc.pid)
    finally:
        procs.stop(proc)
    result["setup_s"] = setup_s
    if traced:
        with open(spans_out, encoding="utf-8") as handle:
            result["spans"] = json.load(handle)
    return result


# ------------------------------------------------------------------ #


def build_inputs(workload: str, seed: int, smoke: bool):
    if workload == "check-deep":
        return workloads.check_cases(smoke)
    if workload == "service-mixed":
        return workloads.hot_specs(seed, smoke), workloads.cold_specs(seed, smoke)
    return workloads.sweep_specs(seed, smoke)


def main(argv: list[str]) -> int:
    workload, seed, smoke, traced = argv[0], int(argv[1]), argv[2] == "1", argv[3] == "1"
    out = Path(argv[4])
    inputs = build_inputs(workload, seed, smoke)
    print("ready", flush=True)
    if len(argv) > 5:  # set-up probe
        return 0
    root = Path.cwd()
    scratch = Path(tempfile.mkdtemp(dir=out.parent))
    checker = Checker(smoke)
    recorder = None
    if traced and workload != "service-mixed":
        recorder = SpanRecorder()
        layers.install(recorder)
    try:
        if workload == "check-deep":
            result = run_check_deep(inputs, checker)
        elif workload == "sweep-family":
            result = run_sweep_family(inputs, checker, smoke)
        elif workload == "fleet-sweep":
            result = run_fleet_sweep(inputs, checker, seed, traced, smoke, scratch)
        else:
            result = run_service_mixed(root, inputs, checker, traced, smoke, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if recorder is not None:
        recorder.uninstall()
        result["spans"] = recorder.dump()
    if traced:
        result["layer"] = layers.layer_metrics(
            result.pop("spans"), result["start"], result["end"], result["extra"])
    result.update(attempted=checker.attempted, failures=checker.failures,
                  wall_s=result["end"] - result["start"])
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
