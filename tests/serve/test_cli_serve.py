"""End-to-end test of the ``gpu-aco serve`` CLI: real process, real TCP,
real SIGINT graceful drain."""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGINT") or os.name == "nt",
    reason="POSIX signal semantics required",
)


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _spawn_server(port: int) -> subprocess.Popen:
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", str(port), "--max-batch", "2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        start_new_session=True,  # keep the test runner's signals away
    )


def _connect(port: int, deadline: float = 15.0) -> socket.socket:
    end = time.monotonic() + deadline
    while True:
        try:
            return socket.create_connection(("127.0.0.1", port), timeout=5)
        except OSError:
            if time.monotonic() > end:
                raise
            time.sleep(0.1)


def test_serve_cli_roundtrip_and_graceful_sigint_drain():
    port = _free_port()
    proc = _spawn_server(port)
    try:
        sock = _connect(port)
        request = {
            "id": "t1",
            "instance": {"suite": "att48"},
            "iterations": 4,
            "report_every": 2,
            "params": {"seed": 3},
        }
        sock.sendall((json.dumps(request) + "\n").encode())
        stream = sock.makefile()
        kinds, final = [], None
        while final is None:
            obj = json.loads(stream.readline())
            kinds.append(obj["type"])
            if obj["type"] == "result":
                final = obj
            assert obj["type"] != "error", obj
        sock.close()

        assert kinds[0] == "accepted"
        assert kinds.count("update") == 2  # one per report_every boundary
        assert final["best_length"] > 0
        assert len(final["best_tour"]) == 49

        os.killpg(proc.pid, signal.SIGINT)
        rc = proc.wait(timeout=30)
        out = proc.stdout.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    assert rc == 0, out
    assert "draining" in out
    assert "drained" in out
    assert "drained. submitted=1 completed=1 failed=0 timed_out=0 shed=0" in out
    assert "Traceback" not in out


def test_instance_naming_a_foreign_segment_is_refused_and_left_alone():
    """An instance object naming a POSIX shared-memory segment the server
    did not create gets one error line; the server neither attaches the
    segment nor has it unlinked when it shuts down."""
    import uuid
    from multiprocessing import shared_memory

    name = f"aco-foreign-{uuid.uuid4().hex[:12]}"
    segment = shared_memory.SharedMemory(name=name, create=True, size=48)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        banner = proc.stdout.readline()
        assert banner.startswith("serving on "), banner
        port = int(banner.split()[2].rsplit(":", 1)[1])
        sock = _connect(port)
        request = {
            "id": "x",
            "instance": {"shm": name, "digest": "0" * 64, "rows": 3},
            "iterations": 1,
        }
        sock.sendall((json.dumps(request) + "\n").encode())
        stream = sock.makefile()
        reply = json.loads(stream.readline())
        assert reply["type"] == "error" and reply["id"] == "x", reply
        assert "instance needs 'suite' or 'coords'" in reply["message"], reply
        sock.close()

        os.killpg(proc.pid, signal.SIGINT)
        proc.wait(timeout=30)
        out = proc.stdout.read()
        # A resource tracker unlinks what it holds only after its server
        # exits, so keep checking for a while.
        end = time.monotonic() + 2.0
        while time.monotonic() < end:
            shared_memory.SharedMemory(name=name).close()
            time.sleep(0.1)
        assert "leaked shared_memory" not in out, out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:
            pass
