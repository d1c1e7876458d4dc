"""Child-process plumbing shared by ``run.py`` and its pass processes.

Imports nothing from the program, so ``run.py`` can start and stop
processes before (and without) importing it.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
SERVE_READY = "serving on "


def child_env(root: Path) -> dict[str, str]:
    """Environment whose ``repro`` is the checkout's own ``src`` tree."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(BENCH_DIR)])
    return env


def wait_for_line(proc: subprocess.Popen, marker: str, timeout: float = READY_TIMEOUT_S) -> str:
    """Read ``proc``'s stdout until a line containing ``marker``."""
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(f"no {marker!r} line within {timeout}s")
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if not ready:
            continue
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"process exited ({proc.wait()}) before {marker!r}")
        if marker in line:
            return line.strip()


def stop(proc: subprocess.Popen, sig: int = signal.SIGINT) -> None:
    """Signal ``proc`` and wait for it; kill it if it does not exit."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def start_server(root: Path, store: Path, workers: int, spans_out: Path | None = None):
    """Start ``repro-consensus serve`` (or its traced launcher) on ``store``.

    Returns ``(proc, port, setup_s)``; ``setup_s`` runs from the spawn to
    the server's ready line.
    """
    serve = ["serve", "--store", str(store), "--workers", str(workers), "--port", "0"]
    if spans_out is None:
        command = [sys.executable, "-m", "repro.cli", *serve]
    else:
        command = [sys.executable, str(BENCH_DIR / "serve_traced.py"), str(spans_out), *serve]
    started = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True
    )
    try:
        line = wait_for_line(proc, SERVE_READY)
    except BaseException:
        stop(proc, signal.SIGKILL)
        raise
    setup_s = time.perf_counter() - started
    return proc, int(line.rsplit(":", 1)[1]), setup_s
