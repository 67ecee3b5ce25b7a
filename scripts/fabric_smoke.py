#!/usr/bin/env python
"""CI fabric smoke: a 2-host distributed sweep survives a SIGKILL bit-identically.

The orchestration (default mode):

1. **reference** — the matrix swept fault-free, serial, in-process (ground truth);
2. **coordinator** — a real ``python -m repro serve`` subprocess on a free port
   with a short lease window, its address parsed from the banner line;
3. **host A** — a host subprocess (this script with ``--host``) that starts
   draining the queue and is **SIGKILLed while it provably holds a lease** (the
   orchestrator watches the coordinator's lease journal for an open grant);
4. **hosts B and C** — two more host subprocesses that drain the rest; B is a
   *straggler* whose ChaosMonkey delays one heartbeat (within the lease window);
5. the coordinator is stopped and the gates run: host A's death left a ``requeue``
   in the journal, the coordinator's store is **bit-identical** to the reference,
   and ``repro results merge`` over the three hosts' partial local replicas —
   the offline fallback — reconstructs the reference exactly;
6. **poison phase** — in-process: a workload whose factory always raises is swept
   by two fabric Sessions under a *global* 2-attempt budget; each host burns one
   attempt, the cell quarantines as ``status="failed"``, and the sibling cells
   drain to ``ok`` meanwhile.

Exit status is non-zero on any violation, so the hosted ``fabric_smoke`` job (and
``scripts/ci_dryrun.py``) fail loudly::

    PYTHONPATH=src python scripts/fabric_smoke.py
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.api import (  # noqa: E402
    RetryPolicy,
    Session,
    SweepSpec,
    open_result_store,
    register_workload,
    tiny_workload,
)
from repro.core.chaos import ChaosMonkey  # noqa: E402

MATRIX = {
    "base": {"kind": "ga", "wafer": "tiny", "workload": "fabric-smoke-slow",
             "population": 4, "generations": 2},
    "seeds": 8,
}

LEASE_S = 1.0


def register_slow_workload() -> None:
    """The smoke matrix's workload: plain tiny, resolved ~0.3s slowly.

    The sleep sits at *resolve* time, so every cell provably takes long enough
    for the orchestrator to SIGKILL host A mid-lease — while pricing itself stays
    pure and the rows stay bit-identical to any other walk of the matrix.
    """

    def slow_tiny():
        time.sleep(0.3)
        return tiny_workload()

    register_workload("fabric-smoke-slow", slow_tiny)


def rows(path: str) -> dict:
    """Deterministic result rows of a store, canonical JSON per cell."""
    with open_result_store(path) as store:
        return {
            cell_id: json.dumps(record["result"], sort_keys=True)
            for cell_id, record in store.load().items()
        }


def fail(message: str) -> "sys.NoReturn":
    print(f"fabric_smoke: FAIL — {message}", file=sys.stderr)
    sys.exit(1)


# ---------------------------------------------------------------------- host mode
def run_host(args: argparse.Namespace) -> int:
    """One sweep host: drain the coordinator's queue, optionally as a straggler."""
    register_slow_workload()
    sweep = SweepSpec.from_payload(json.load(open(args.spec, encoding="utf-8")))
    chaos = None
    if args.hb_delay:
        chaos = ChaosMonkey(args.chaos_dir, seed=0).install()
        chaos.delay_heartbeat(args.hb_delay, times=1)
    try:
        with Session(store=args.host) as session:
            runs = list(session.sweep(sweep, results=args.results))
    finally:
        if chaos is not None:
            chaos.uninstall()
    print(f"host: completed {len(runs)} cells")
    return 0


# ----------------------------------------------------------------- orchestration
def journal_events(path: str) -> list:
    """The journal's parseable events (torn tail and header skipped)."""
    events = []
    if not os.path.exists(path):
        return events
    with open(path, "rb") as handle:
        for line in handle:
            if not line.endswith(b"\n"):
                break
            try:
                row = json.loads(line)
            except ValueError:
                continue
            if isinstance(row, dict) and "e" in row:
                events.append(row)
    return events


def open_grants(events: list) -> set:
    """Cells granted but neither settled nor requeued — leases live right now."""
    live = set()
    for event in events:
        if event["e"] == "grant":
            live.add(event["c"])
        elif event["e"] in ("done", "requeue"):
            live.discard(event["c"])
    return live


def spawn_host(script: str, address: str, spec: str, results: str, **extra) -> subprocess.Popen:
    command = [sys.executable, script, "--host", address, "--spec", spec,
               "--results", results]
    for key, value in extra.items():
        command += [f"--{key.replace('_', '-')}", str(value)]
    return subprocess.Popen(
        command,
        env={**os.environ, "PYTHONPATH": "src"},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def run_orchestrator() -> int:
    script = os.path.abspath(__file__)
    register_slow_workload()
    sweep = SweepSpec.from_payload(MATRIX)
    cells = sweep.expand()
    with tempfile.TemporaryDirectory(prefix="fabric-smoke-") as tmp:
        reference = os.path.join(tmp, "reference.jsonl")
        with Session() as session:
            ran = list(session.sweep(sweep, results=reference))
        if len(ran) != len(cells):
            fail(f"reference run priced {len(ran)} of {len(cells)} cells")

        spec_path = os.path.join(tmp, "matrix.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(MATRIX, handle)

        store_dir = os.path.join(tmp, "coordinator")
        coordinator = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", store_dir,
             "--bind", "127.0.0.1:0", "--lease-s", str(LEASE_S)],
            env={**os.environ, "PYTHONPATH": "src"},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = coordinator.stdout.readline()
            if " on " not in banner:
                fail(f"unparseable serve banner: {banner!r}")
            address = banner.split(" on ")[1].split()[0]
            journal = os.path.join(store_dir, "leases.jsonl")

            # Host A drains alone until it provably holds a lease, then dies hard.
            replica_a = os.path.join(tmp, "hostA.jsonl")
            host_a = spawn_host(script, address, spec_path, replica_a)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                events = journal_events(journal)
                done = sum(1 for event in events if event["e"] == "done")
                live = open_grants(events)
                if done >= 1 and live:
                    # Double-check the same lease is still open a beat later, so
                    # the SIGKILL lands mid-pricing, not in the claim gap.
                    time.sleep(0.05)
                    if live & open_grants(journal_events(journal)):
                        break
                time.sleep(0.02)
            else:
                fail("host A never held a lease with one cell done")
            host_a.send_signal(signal.SIGKILL)
            host_a.wait(timeout=30)
            print(f"fabric_smoke: SIGKILLed host A holding {sorted(live)}")

            # Hosts B (heartbeat-delayed straggler) and C drain the remainder,
            # including host A's requeued in-flight cell once its lease expires.
            replica_b = os.path.join(tmp, "hostB.jsonl")
            replica_c = os.path.join(tmp, "hostC.jsonl")
            chaos_dir = os.path.join(tmp, "chaos-b")
            host_b = spawn_host(script, address, spec_path, replica_b,
                                hb_delay=0.6, chaos_dir=chaos_dir)
            host_c = spawn_host(script, address, spec_path, replica_c)
            for name, host in (("B", host_b), ("C", host_c)):
                output, _ = host.communicate(timeout=240)
                if host.returncode != 0:
                    fail(f"host {name} exited {host.returncode}:\n{output}")
        finally:
            coordinator.send_signal(signal.SIGINT)
            try:
                coordinator.wait(timeout=15)
            except subprocess.TimeoutExpired:
                coordinator.kill()
                coordinator.wait()

        if not any(name.startswith("hb-delay") for name in os.listdir(chaos_dir)):
            fail("the heartbeat-delay injection never fired on host B")
        events = journal_events(journal)
        requeues = sum(1 for event in events if event["e"] == "requeue")
        if requeues < 1:
            fail("host A's death never requeued its leased cell")

        authoritative = os.path.join(store_dir, "results.jsonl")
        if rows(authoritative) != rows(reference):
            fail("coordinator store is not bit-identical to the serial reference")

        # Offline fallback: the three partial local replicas (A's cut short by
        # the SIGKILL) merge back into exactly the reference.
        merged = os.path.join(tmp, "merged.sqlite")
        merge = subprocess.run(
            [sys.executable, "-m", "repro", "results", "merge",
             replica_a, replica_b, replica_c, "-o", merged],
            env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True,
            text=True,
        )
        if merge.returncode != 0:
            fail(f"results merge failed:\n{merge.stdout}{merge.stderr}")
        if rows(merged) != rows(reference):
            fail("merged host replicas are not bit-identical to the reference")

        poison_quarantines = run_poison_phase(os.path.join(tmp, "poison"))

    print(
        f"fabric_smoke: OK — {len(cells)} cells bit-identical to serial through a "
        f"SIGKILLed host ({requeues} requeue(s)) and a heartbeat-delayed straggler; "
        f"replica merge matched; poison cell quarantined "
        f"({poison_quarantines} quarantine(s)) while siblings drained"
    )
    return 0


def run_poison_phase(store_dir: str) -> int:
    """A cell that raises on every host must quarantine under the global budget."""
    from repro.fabric.server import FabricCoordinator

    def poison_factory():
        raise RuntimeError("poisoned workload factory")

    register_workload("fabric-smoke-poison", poison_factory)
    matrix = {
        "base": {"kind": "ga", "wafer": "tiny", "workload": "tiny",
                 "population": 4, "generations": 1},
        "zip": {"workload": ["fabric-smoke-poison", "tiny", "tiny"],
                "population": [4, 4, 6]},
    }
    sweep = SweepSpec.from_payload(matrix)
    coordinator = FabricCoordinator(store_dir, lease_s=5.0)
    address = coordinator.start("127.0.0.1:0")
    runs, errors = [], []

    def drain() -> None:
        try:
            with Session(store=address) as session:
                runs.extend(
                    session.sweep(sweep, retry=RetryPolicy(max_attempts=2))
                )
        except Exception as exc:  # surfaced after the join
            errors.append(exc)

    threads = [threading.Thread(target=drain) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stats = coordinator.snapshot()
    coordinator.stop()
    if errors:
        fail(f"poison-phase host raised: {errors[0]}")
    statuses = sorted(run.status for run in runs)
    if statuses != ["failed", "ok", "ok"]:
        fail(f"expected one quarantined cell and two ok, got {statuses}")
    quarantined = next(run for run in runs if run.status == "failed")
    if quarantined.attempts != 2:
        fail(f"quarantine after {quarantined.attempts} attempts, wanted the "
             "global budget of 2")
    if "poisoned workload factory" not in quarantined.error:
        fail("quarantine row lost the captured traceback")
    if stats.get("quarantines") != 1:
        fail(f"coordinator counted {stats.get('quarantines')} quarantines, not 1")
    return int(stats["quarantines"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", metavar="ADDR", default=None,
                        help="run as one sweep host against this coordinator")
    parser.add_argument("--spec", default=None, help="matrix file (host mode)")
    parser.add_argument("--results", default=None,
                        help="local replica store (host mode)")
    parser.add_argument("--hb-delay", type=float, default=0.0,
                        help="stall one heartbeat this long (host mode)")
    parser.add_argument("--chaos-dir", default=None,
                        help="chaos token directory (host mode)")
    args = parser.parse_args(argv)
    if args.host:
        return run_host(args)
    return run_orchestrator()


if __name__ == "__main__":
    sys.exit(main())
