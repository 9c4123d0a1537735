#!/usr/bin/env python
"""CI smoke for the robustness layer (`make faults-smoke`).

1. boots a journaled `drep-sim serve` subprocess, pushes the first 1k
   jobs of an 8k trace, SIGKILLs it mid-workload;
2. restarts the server on the same journal directory, pushes the rest,
   drains, and checks the per-job flow times equal an uninterrupted
   in-process run **bit for bit**;
3. checks the checkpoint stays flat: the live ``snapshot.json`` after 8k
   served jobs is less than 1.5x the one after 1k (finished jobs live in
   the append-only ``history.jsonl``, not in every snapshot, so the size
   follows the live-job count, which may as well shrink);
4. runs a tiny `drep-sim faults` resilience grid to make sure the fault
   injection CLI is alive.

Exits non-zero (with a message) on any mismatch.  Needs only the
package itself — no pytest.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.serve.server import ServeConfig  # noqa: E402
from repro.workloads.traces import generate_trace  # noqa: E402

SERVE = [
    sys.executable, "-m", "repro.cli", "serve",
    "--m", "2", "--policy", "drep", "--seed", "11",
    "--port", "0", "--snapshot-every", "64",
]
N_JOBS = 8000
KILL_AT = 1000
#: bound on snapshot.json growth from KILL_AT to N_JOBS served jobs; an
#: O(history) checkpoint grows ~N_JOBS / KILL_AT times
FLAT_RATIO = 1.5


def spawn(journal_dir: str) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.Popen(
        SERVE + ["--journal-dir", journal_dir],
        env=env, cwd=REPO, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        sys.stdout.write(f"  [server] {line}")
        match = re.search(r"listening on [\d.]+:(\d+)", line)
        if match:
            return proc, int(match.group(1))
    proc.kill()
    raise SystemExit("server never reported a port")


def call(sock_file, sock, **request) -> dict:
    sock.sendall(json.dumps(request).encode() + b"\n")
    line = sock_file.readline()
    if not line:
        raise SystemExit("server closed the connection")
    return json.loads(line)


def main() -> None:
    trace = generate_trace(N_JOBS, "finance", 0.7, 2, seed=11)
    cut = KILL_AT

    ref = ServeConfig(m=2, policy="drep", seed=11).build_scheduler()
    for spec in trace.jobs:
        ref.advance_to(spec.release)
        ref.submit(work=spec.work, release=spec.release)
    ref_flows = ref.drain().flow_times

    with tempfile.TemporaryDirectory() as tmp:
        print("== phase 1: journaled server, SIGKILL mid-workload")
        proc, port = spawn(tmp)
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        fh = sock.makefile("rb")
        for spec in trace.jobs[:cut]:
            resp = call(fh, sock, op="submit", work=spec.work,
                        release=spec.release)
            assert resp["ok"] and resp["accepted"], resp
        snapshot = Path(tmp) / "snapshot.json"
        sizes = [snapshot.stat().st_size]
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        print(f"   killed after {cut} submits")

        print("== phase 2: restart on the same journal, finish the trace")
        proc, port = spawn(tmp)
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=10)
            fh = sock.makefile("rb")
            for spec in trace.jobs[cut:]:
                resp = call(fh, sock, op="submit", work=spec.work,
                            release=spec.release)
                assert resp["ok"] and resp["accepted"], resp
            sizes.append(snapshot.stat().st_size)
            done = call(fh, sock, op="drain", include_flows=True)
            assert done["ok"], done
            call(fh, sock, op="shutdown")
        finally:
            if proc.poll() is None:
                proc.terminate()
            proc.wait(timeout=30)

    got = done["flow_times"]
    if len(got) != len(ref_flows) or any(
        a != b for a, b in zip(got, ref_flows)
    ):
        raise SystemExit("FAIL: recovered flow times differ from the "
                         "uninterrupted run")
    print(f"   bit-for-bit: {len(got)} flow times identical")
    ratio = sizes[1] / sizes[0]
    print(f"   snapshot.json after {cut} / {N_JOBS} jobs: {sizes[0]} / "
          f"{sizes[1]} bytes ({ratio:.2f}x)")
    if ratio >= FLAT_RATIO:
        raise SystemExit(f"FAIL: checkpoint grew {ratio:.2f}x with jobs "
                         f"served (bound {FLAT_RATIO}x): it is O(history)")

    print("== phase 3: resilience CLI")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "faults",
         "--m", "2", "--n-jobs", "40", "--policies", "drep", "srpt",
         "--plans", "rolling"],
        env=env, cwd=REPO, check=True,
    )
    print("faults-smoke: OK")


if __name__ == "__main__":
    main()
