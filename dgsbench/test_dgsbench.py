"""Self-test of the benchmark itself (not collected by the tier-1 run):

    python -m pytest dgsbench/test_dgsbench.py -q

Generator determinism, the ``--smoke`` pass over every workload, the
corrupted-output path, and process hygiene after a timeout and a
SIGTERM.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import _env  # noqa: E402  (sys.path for repro)
from repro.data.adversarial import assert_collision_free  # noqa: E402

import workloads  # noqa: E402

RUN = [sys.executable, os.path.join(_env.BENCH_DIR, "run.py")]
with open(os.path.join(_env.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


#: Everything the benchmark starts runs one of these by absolute path
#: (forked workers keep their parent's command line).
SCRIPTS = [os.path.join(_env.BENCH_DIR, f) for f in ("run.py", "child.py", "serve_host.py")]


def leftovers() -> list:
    """Live processes of this benchmark."""
    found = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read().replace(b"\0", b" ").decode(errors="replace")
            with open(f"/proc/{entry}/stat") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if any(script in cmdline for script in SCRIPTS) and state != "Z":
            found.append((int(entry), cmdline))
    return found


def run_bench(*argv: str, out: str) -> tuple:
    proc = subprocess.run([*RUN, *argv, "--out", out], capture_output=True, text=True,
                          timeout=120)
    with open(out) as fh:
        return proc, json.load(fh)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_seeded(name):
    wl = workloads.WORKLOADS[name]
    a = workloads.generate(wl, 7, scale=0.05)
    b = workloads.generate(wl, 7, scale=0.05)
    c = workloads.generate(wl, 8, scale=0.05)
    assert a.sha256 == b.sha256 and a.events == b.events
    assert a.sha256 != c.sha256
    assert len(a.events) == len(c.events)
    assert [e.payload for e in a.events] != [e.payload for e in c.events]
    # Same structure whatever the seed: synchronizing events sit at the
    # same positions and both leaves get the same share.
    assert [e.stream in ("b", "r") for e in a.events] == [
        e.stream in ("b", "r") for e in c.events]
    for inputs in (a, c):
        per_stream = {}
        for e in inputs.events:
            per_stream.setdefault(e.itag, []).append(e)
        assert_collision_free({t: tuple(evs) for t, evs in per_stream.items()})
        ts = [e.ts for e in inputs.events]
        assert ts == sorted(ts) and len(set(ts)) == len(ts)  # globally ordered
        shares = [sum(e.stream.endswith(str(leaf)) for e in inputs.events) for leaf in (0, 1)]
        assert abs(shares[0] - shares[1]) <= 1


def test_smoke_every_workload(tmp_path):
    proc, record = run_bench("--smoke", "--workload", "all", out=str(tmp_path / "e2e.json"))
    assert proc.returncode == 0, proc.stderr
    assert [r["workload"] for r in record["runs"]] == [w["name"] for w in SPEC["workloads"]]
    for run in record["runs"]:
        assert run["failed"] == 0 and run["attempted"] > 0, run["errors"]
        assert len(run["input_sha256"]) == 64
        for m in SPEC["end_to_end"]:
            got = run["metrics"][m["name"]]
            assert got["unit"] == m["unit"] and got["n"] >= 1 and got["median"] > 0
    assert {"nproc", "affinity", "python", "platform", "loadavg_at_start", "seed"} <= set(
        record["provenance"])
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"} and last["correct"]
    assert leftovers() == []


def test_smoke_layer_pass(tmp_path):
    proc, record = run_bench("--smoke", "--workload", "kc_sync", "--trace", "1",
                             out=str(tmp_path / "layers.json"))
    assert proc.returncode == 0, proc.stderr
    (run,) = record["runs"]
    assert run["failed"] == 0, run["errors"]
    for m in SPEC["per_layer"]:
        got = run["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["n"] >= 1
    with open(os.path.join(_env.RESULTS, "trace-kc_sync.json")) as fh:
        trace = json.load(fh)
    assert all(s["end_ns"] >= s["start_ns"] for s in trace["spans"])
    assert leftovers() == []


def test_corrupted_output_is_a_failure_not_a_speed(tmp_path):
    proc, record = run_bench("--smoke", "--workload", "kc_sync,serve_closed", "--corrupt",
                             out=str(tmp_path / "bad.json"))
    assert proc.returncode != 0
    for run in record["runs"]:
        assert run["failed"] == run["attempted"] > 0  # failed_share == 1.0
        assert "events_per_s" not in run["metrics"]
    assert leftovers() == []


def test_timeout_leaves_nothing_running(tmp_path):
    proc, record = run_bench("--workload", "serve_open", "--seconds", "30",
                             "--timeout", "4", out=str(tmp_path / "late.json"))
    assert proc.returncode != 0
    assert record["runs"][0]["failed"] == record["runs"][0]["attempted"]
    assert leftovers() == []


def test_sigterm_mid_serve_open_leaves_nothing_running(tmp_path):
    proc = subprocess.Popen([*RUN, "--workload", "serve_open", "--seconds", "30",
                             "--out", str(tmp_path / "term.json")],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 30
    while not any("serve_host.py" in c for _p, c in leftovers()):
        assert time.monotonic() < deadline, "service host never started"
        time.sleep(0.1)
    time.sleep(6.0)  # past the three set-ups and the warm-up: inside the open loop
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=30) != 0
    assert leftovers() == []
