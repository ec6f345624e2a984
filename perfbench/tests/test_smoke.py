"""Tiny-scale smoke of every workload through the command the benchmark runs."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench.run import HELD_OUT_SEED

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def command(workload: str, trace: int, seconds: float = 1) -> list[str]:
    return [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(HELD_OUT_SEED), "--seconds", str(seconds), "--trace", str(trace),
        "--scale", "tiny",
    ]


def run(workload: str, trace: int, cwd: Path = ROOT, timeout: float = 300):
    return subprocess.run(command(workload, trace), cwd=cwd, capture_output=True, text=True, timeout=timeout)


def session_members(sid: int) -> list[str]:
    """Command lines of the live processes in session ``sid`` (Linux /proc)."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:
            continue
        # Fields after the parenthesised name: state ppid pgrp session ...
        fields = text[text.rindex(")") + 2:].split()
        if fields[0] != "Z" and int(fields[3]) == sid:
            members.append((stat.parent / "cmdline").read_bytes().replace(b"\0", b" ").decode())
    return members


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    completed = run(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] != 0, metric["name"]
        # The table above the JSON line names every metric too.
        assert metric["name"] in completed.stdout


def test_fails_without_the_rest_of_the_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = run("solve-cold", 0, cwd=tmp_path, timeout=180)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


needs_proc = pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")


@needs_proc
def test_serve_http_leaves_no_process_behind(tmp_path):
    # No pipes: waiting for their end of file would also wait for any child
    # that inherited them, and hide it.
    stderr = tmp_path / "stderr.txt"
    with stderr.open("w") as sink:
        child = subprocess.Popen(
            command("serve-http", 0), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=sink,
            start_new_session=True,
        )
        assert child.wait(timeout=300) == 0
    assert session_members(child.pid) == []
    # Stopping the resource tracker early must not strand the semaphores it tracks.
    assert "Traceback" not in stderr.read_text()
    assert "leaked" not in stderr.read_text()


@needs_proc
def test_sigterm_mid_run_leaves_no_process_behind():
    child = subprocess.Popen(
        command("serve-http", 0, seconds=60), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        # Wait until the worker process is up, then interrupt the run.
        deadline = time.monotonic() + 120
        while len(session_members(child.pid)) < 3 and time.monotonic() < deadline:
            time.sleep(0.2)
        assert len(session_members(child.pid)) >= 3, "worker never started"
        child.send_signal(signal.SIGTERM)
        stdout, _ = child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    assert child.returncode != 0
    assert stdout.strip() == b""
    assert session_members(child.pid) == []
