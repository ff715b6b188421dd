"""End-to-end ``gpu-aco serve --shards N``: real router process, real
worker fleet, real stats/health scrapes, real SIGINT drain."""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGINT") or os.name == "nt",
    reason="POSIX signal semantics required",
)


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _env() -> dict:
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
    )
    return env


def _spawn_router(port: int, shards: int) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--shards", str(shards), "--port", str(port),
            "--max-batch", "4",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_env(),
        start_new_session=True,
    )


def _scrape(port: int, *extra: str) -> str:
    out = subprocess.run(
        [sys.executable, "-m", "repro.cli", "stats", "--port", str(port),
         *extra],
        env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_shards_flag_rejects_negative():
    out = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "--shards", "-1"],
        env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "--shards must be >= 0" in out.stderr


def test_shards_config_error_is_a_usage_message():
    """A bad service knob is caught before any worker spawns."""
    out = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "--shards", "1",
         "--max-batch", "0", "--port", "0"],
        env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "error: max_batch must be >= 1" in out.stderr
    assert "Traceback" not in out.stderr


def test_serve_shards_cli_roundtrip_stats_and_sigint_drain():
    port = _free_port()
    proc = _spawn_router(port, shards=2)
    try:
        banner = proc.stdout.readline()
        assert "routing on" in banner and "2 worker shard(s)" in banner

        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        rng = np.random.default_rng(42)
        for i, n in enumerate((20, 26)):
            request = {
                "id": f"t{i}",
                "instance": {
                    "name": f"u{n}",
                    "coords": rng.uniform(0, 100, size=(n, 2)).tolist(),
                },
                "iterations": 4,
                "params": {"seed": 3},
            }
            sock.sendall((json.dumps(request) + "\n").encode())
        stream = sock.makefile()
        finals = {}
        while len(finals) < 2:
            obj = json.loads(stream.readline())
            assert obj["type"] != "error", obj
            if obj["type"] == "result":
                finals[obj["id"]] = obj
        sock.close()
        assert all(f["best_length"] > 0 for f in finals.values())

        snap = json.loads(_scrape(port, "--json"))
        assert snap["source"] == "router"
        assert snap["submitted"] == 2
        assert snap["request_latency_seconds"]["count"] == 2
        assert snap["router"]["requests_routed"] == 2

        health = json.loads(_scrape(port, "--health", "--json"))
        assert health["source"] == "router"
        assert health["shards"] == 2
        assert health["shards_healthy"] == 2

        rendered = _scrape(port)
        assert "router stats" in rendered
        assert "router[requests_routed]" in rendered
        rendered = _scrape(port, "--health")
        assert "router health" in rendered
        assert "shard[0]" in rendered and "shard[1]" in rendered
    finally:
        os.killpg(proc.pid, signal.SIGINT)
        out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0, out
    assert "drained; fleet stopped." in out


def test_single_process_stats_json_stamps_service_source():
    """``--shards 0`` (the default) keeps today's path: the stats and
    health planes answer with ``source: service``."""
    port = _free_port()
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", str(port), "--max-batch", "2",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=_env(), start_new_session=True,
    )
    try:
        banner = proc.stdout.readline()
        assert "serving on" in banner
        deadline = time.monotonic() + 15
        while True:
            try:
                socket.create_connection(("127.0.0.1", port), timeout=5).close()
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.1)
        snap = json.loads(_scrape(port, "--json"))
        assert snap["source"] == "service"
        health = json.loads(_scrape(port, "--health", "--json"))
        assert health["source"] == "service"
        assert "per_shard" not in health
    finally:
        os.killpg(proc.pid, signal.SIGINT)
        proc.communicate(timeout=60)
