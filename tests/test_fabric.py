"""Distributed sweep fabric under test (ISSUE 8).

The contract:

* Lease semantics — a host that stops heartbeating has its leased cells requeued
  with the attempt count **carried** (the retry budget is global across hosts); a
  requeued cell can never be double-claimed; a cell whose granted attempt already
  reached the budget quarantines as a ``status="failed"`` row.
* Coordinator restart recovers the queue from the result store plus the append-only
  lease journal: completed cells stay completed, pending cells stay pending, cells
  that were mid-lease at the crash are requeued with attempts carried.
* ``Session(store="host:port/ns")`` drains the coordinator's queue with no other
  API change, and a multi-host sweep stores rows **bit-identical** to a single-host
  serial walk.
* Degradation: unreachable coordinator → actionable error naming ``repro serve``
  and the offline merge fallback; bad port / stale namespace / version-mismatched
  peer → did-you-mean-style messages; connection lost mid-sweep → bounded reconnect
  then local quarantine of the in-flight cell.
* ``repro results merge`` folds partial stores with later-duplicates-win.
* Network chaos (seeded drops, heartbeat delay, torn mid-frame writes) is bounded
  by the same O_EXCL token convention as the process-level monkey.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.api import (
    Session,
    SweepSpec,
    close_default_session,
    merge_stores,
    open_result_store,
)
from repro.api.cli import main as repro_main
from repro.api.registry import register_workload
from repro.core.chaos import ChaosMonkey
from repro.core.retry import RetryPolicy
from repro.fabric.client import FabricClient
from repro.fabric.leases import LeaseJournal, LeaseTable
from repro.fabric.protocol import (
    FabricConnectionError,
    FabricProtocolError,
    looks_like_endpoint,
    parse_endpoint,
)
from repro.fabric.server import FabricCoordinator


@pytest.fixture(autouse=True)
def _clean_runtime():
    close_default_session()
    yield
    close_default_session()


GA_SWEEP = {
    "base": {"kind": "ga", "wafer": "tiny", "workload": "tiny",
             "population": 4, "generations": 2},
    "seeds": 2,
}

#: A short lease so expiry paths run in test time, with a generous margin over
#: the reap tick.
LEASE_S = 0.3


def _rows(path):
    """The deterministic result rows of a store, as canonical JSON per cell."""
    with open_result_store(path) as store:
        return {
            cell_id: json.dumps(record["result"], sort_keys=True)
            for cell_id, record in store.load().items()
        }


def _free_port() -> int:
    """A port that was just free — connecting to it should be refused."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _cell(cell_id, **meta):
    payload = {"id": cell_id, "kind": "ga", "label": cell_id, "spec": {"x": 1}}
    payload.update(meta)
    return payload


def _record(cell_id, status="ok"):
    return {
        "result": {"kind": "ga", "label": cell_id, "cell_id": cell_id, "plan": None,
                   "oom": None, "status": status, "error": "", "metrics": {}},
        "spec": {"x": 1},
        "seconds": 0.0,
        "attempts": 1,
        "written_at": time.time(),
    }


# ------------------------------------------------------------------- endpoints
class TestEndpoints:
    def test_shapes(self):
        assert looks_like_endpoint("127.0.0.1:7077")
        assert looks_like_endpoint("localhost:7077/prod")
        assert looks_like_endpoint("localhost:70b7")  # typoed address, not a file
        assert not looks_like_endpoint("results.jsonl")
        assert not looks_like_endpoint("sweep.jsonl:old")
        assert not looks_like_endpoint("dir/sweep.jsonl")
        assert not looks_like_endpoint(None)

    def test_parse(self):
        endpoint = parse_endpoint("127.0.0.1:7077/prod")
        assert (endpoint.host, endpoint.port, endpoint.namespace) == (
            "127.0.0.1", 7077, "prod")
        assert parse_endpoint("h:1").namespace == "default"

    def test_bad_port_is_actionable(self):
        with pytest.raises(ValueError, match="bad port '70b7'.*host:port"):
            parse_endpoint("localhost:70b7")

    def test_empty_namespace_is_actionable(self):
        with pytest.raises(ValueError, match="empty namespace"):
            parse_endpoint("localhost:7077/")


# ---------------------------------------------------------------- retry policy
class TestRetryPolicyWireForm:
    def test_round_trip(self):
        policy = RetryPolicy(max_attempts=5, backoff_s=1.0, timeout_s=2.0, seed=7)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy

    def test_unknown_field_is_rejected_with_field_list(self):
        with pytest.raises(ValueError, match="unknown RetryPolicy field.*attemps"):
            RetryPolicy.from_dict({"attemps": 4})


# --------------------------------------------------------------------- leases
class TestLeaseTable:
    def test_grant_renew_expire(self):
        table = LeaseTable(lease_s=10.0)
        lease = table.grant("c1", "hostA", attempt=1)
        assert not lease.expired()
        assert table.renew("hostA") == 1 and table.renew("hostB") == 0
        assert table.expired(now=lease.expires_at + 1) == [lease]
        assert table.release("c1") is lease and "c1" not in table

    def test_double_grant_is_a_bug(self):
        table = LeaseTable(lease_s=10.0)
        table.grant("c1", "hostA", attempt=1)
        with pytest.raises(RuntimeError, match="already leased to hostA"):
            table.grant("c1", "hostB", attempt=2)


class TestLeaseJournal:
    def test_replay_rebuilds_queue(self, tmp_path):
        journal = LeaseJournal(str(tmp_path / "leases.jsonl"))
        journal.append("reg", "c1", m={"kind": "ga"})
        journal.append("reg", "c2", m={})
        journal.append("reg", "c3", m={})
        journal.append("grant", "c1", h="hostA", a=1)
        journal.append("grant", "c2", h="hostA", a=1)
        journal.append("requeue", "c2", a=1)
        journal.append("grant", "c3", h="hostB", a=1)
        journal.append("done", "c3")
        journal.close()

        cells, pending, interrupted = LeaseJournal(journal.path).replay()
        assert set(cells) == {"c1", "c2"}  # c3 settled
        assert pending == ["c2"] and interrupted == ["c1"]
        assert cells["c1"].attempts == 1 and cells["c1"].meta == {"kind": "ga"}

    def test_torn_tail_is_skipped(self, tmp_path):
        journal = LeaseJournal(str(tmp_path / "leases.jsonl"))
        journal.append("reg", "c1", m={})
        journal.append("reg", "c2", m={})
        journal.close()
        with open(journal.path, "ab") as handle:
            handle.write(b'{"e": "done", "c"')  # killed mid-frame
        replayed = LeaseJournal(journal.path)
        cells, pending, _ = replayed.replay()
        assert set(cells) == {"c1", "c2"} and pending == ["c1", "c2"]
        assert replayed.replay_errors == 1


# ---------------------------------------------------------- coordinator queue
class TestCoordinatorQueue:
    """Queue semantics driven through the dispatcher ops directly (no sockets)."""

    def _coord(self, tmp_path, **kwargs):
        kwargs.setdefault("lease_s", 0.05)
        return FabricCoordinator(str(tmp_path / "store"), **kwargs)

    def test_lease_expiry_requeues_with_attempts_carried(self, tmp_path):
        coord = self._coord(tmp_path)
        coord._op_register({"host": "hostA", "cells": [_cell("c1")], "max_attempts": 3})
        grant = coord._op_claim({"host": "hostA"})
        assert grant["cell"] == "c1" and grant["attempt"] == 1
        time.sleep(0.08)  # let the lease expire (no heartbeat)
        coord._op_tick({})
        assert coord.requeues == 1 and coord.expiries == 1
        again = coord._op_claim({"host": "hostA"})
        assert again["cell"] == "c1" and again["attempt"] == 2  # budget is global
        coord.stop()

    def test_double_claim_impossible_after_requeue(self, tmp_path):
        coord = self._coord(tmp_path)
        for host in ("hostA", "hostB"):
            coord._op_register({"host": host, "cells": [_cell("c1")], "max_attempts": 5})
        assert coord._op_claim({"host": "hostA"})["cell"] == "c1"
        time.sleep(0.08)
        coord._op_tick({})  # hostA presumed dead; c1 requeued
        assert coord._op_claim({"host": "hostB"})["cell"] == "c1"
        # The cell is leased to hostB now: nobody can claim it again.
        assert coord._op_claim({"host": "hostA"}).get("wait") is True
        assert coord._op_claim({"host": "hostB"}).get("wait") is True
        # A stale failure report from the dead host must not burn an attempt.
        before = coord._cells["c1"].attempts
        reply = coord._op_fail({"host": "hostA", "cell": "c1", "record": None})
        assert reply.get("stale") is True
        assert coord._cells["c1"].attempts == before and coord.requeues == 1
        coord.stop()

    def test_dead_host_quarantines_after_global_budget(self, tmp_path):
        coord = self._coord(tmp_path)
        coord._op_register({"host": "hostA", "cells": [_cell("c1")], "max_attempts": 1})
        coord._op_claim({"host": "hostA"})
        time.sleep(0.08)
        coord._op_tick({})
        assert coord.quarantines == 1
        record = coord.results.get("c1")
        assert record is not None and record["result"]["status"] == "failed"
        assert "hostA" in record["result"]["error"]
        assert "missed the heartbeat window" in record["result"]["error"]
        assert coord._op_claim({"host": "hostA"}).get("drained") is True
        coord.stop()

    def test_completed_rows_settle_registration(self, tmp_path):
        coord = self._coord(tmp_path)
        coord._op_complete({"host": "hostA", "cell": "c1", "record": _record("c1")})
        reply = coord._op_register(
            {"host": "hostA", "cells": [_cell("c1"), _cell("c2")], "max_attempts": 3}
        )
        assert reply["completed"] == ["c1"] and reply["registered"] == 1
        coord.stop()

    def test_failed_rows_requeue_unless_skip_failed(self, tmp_path):
        coord = self._coord(tmp_path)
        coord._op_complete(
            {"host": "hostA", "cell": "c1", "record": _record("c1", status="failed")}
        )
        skip = coord._op_register(
            {"host": "hostA", "cells": [_cell("c1")], "max_attempts": 3,
             "skip_failed": True}
        )
        assert skip["completed"] == ["c1"]
        retry = coord._op_register(
            {"host": "hostA", "cells": [_cell("c1")], "max_attempts": 3}
        )
        assert retry["completed"] == [] and retry["registered"] == 1
        coord.stop()

    def test_restart_recovers_from_journal_and_store(self, tmp_path):
        coord = self._coord(tmp_path)
        coord._op_register(
            {"host": "hostA", "cells": [_cell("c1"), _cell("c2"), _cell("c3")],
             "max_attempts": 3}
        )
        assert coord._op_claim({"host": "hostA"})["cell"] == "c1"  # left mid-lease
        assert coord._op_claim({"host": "hostA"})["cell"] == "c2"
        coord._op_complete({"host": "hostA", "cell": "c2", "record": _record("c2")})
        coord.stop()  # coordinator "crash" (journal and store survive)

        revived = self._coord(tmp_path)
        assert revived._completed == {"c2"}
        # The reconnecting host re-registers its matrix (journal replay does not
        # carry host affiliations): c2 reports settled, c1/c3 merge into the queue.
        reply = revived._op_register(
            {"host": "hostA", "cells": [_cell("c1"), _cell("c2"), _cell("c3")],
             "max_attempts": 3}
        )
        assert reply["completed"] == ["c2"] and reply["registered"] == 0
        # c3 was pending, c1 was mid-lease: both claimable again, c1's attempt carried.
        claims = {
            revived._op_claim({"host": "hostA"})["cell"],
            revived._op_claim({"host": "hostA"})["cell"],
        }
        assert claims == {"c1", "c3"}
        assert revived._cells["c1"].attempts == 2  # attempt 1 died with the crash
        assert revived._op_claim({"host": "hostA"}).get("wait") is True
        revived.stop()


# ------------------------------------------------------------- live end-to-end
class TestSessionFabric:
    def test_two_hosts_bit_identical_to_serial(self, tmp_path):
        serial = str(tmp_path / "serial.jsonl")
        with Session() as session:
            list(session.sweep(SweepSpec.from_dict(GA_SWEEP), results=serial))

        coord = FabricCoordinator(str(tmp_path / "fabric"), lease_s=5.0)
        address = coord.start("127.0.0.1:0")
        sessions = [Session(store=address), Session(store=address)]
        done = [[] for _ in sessions]

        def drain(index):
            done[index].extend(
                sessions[index].sweep(SweepSpec.from_dict(GA_SWEEP))
            )

        threads = [
            threading.Thread(target=drain, args=(index,))
            for index in range(len(sessions))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for session in sessions:
            session.close()
        coord.stop()
        total = sum(len(batch) for batch in done)
        assert total == len(SweepSpec.from_dict(GA_SWEEP).expand())
        assert _rows(str(tmp_path / "fabric" / "results.jsonl")) == _rows(serial)

    def test_fabric_resume_skips_completed(self, tmp_path):
        coord = FabricCoordinator(str(tmp_path / "fabric"), lease_s=5.0)
        address = coord.start("127.0.0.1:0")
        with Session(store=address) as session:
            first = list(session.sweep(SweepSpec.from_dict(GA_SWEEP)))
        assert len(first) == 2
        with Session(store=address) as session:
            again = list(session.sweep(SweepSpec.from_dict(GA_SWEEP)))
        assert again == []  # the coordinator's store already settles every cell
        coord.stop()

    def test_poison_cell_quarantines_under_global_budget(self, tmp_path):
        coord = FabricCoordinator(str(tmp_path / "fabric"), lease_s=5.0)
        address = coord.start("127.0.0.1:0")
        poison, good = _cell("poison"), _cell("good")
        clients = [
            FabricClient(address, host_id=f"host{index}") for index in range(2)
        ]
        for client in clients:
            client.register([poison, good], max_attempts=2)
        # host0 burns attempt 1, host1 gets the requeue and exhausts the budget.
        grant = clients[0].claim()
        assert grant["cell"] == "poison" and grant["attempt"] == 1
        assert clients[0].fail("poison", _record("poison", "failed")) == {
            "ok": True, "quarantined": False}
        assert clients[1].claim()["cell"] == "good"  # siblings keep draining
        clients[1].complete("good", _record("good"))
        second = clients[1].claim()
        assert second["cell"] == "poison" and second["attempt"] == 2
        reply = clients[1].fail("poison", _record("poison", "failed"))
        assert reply["quarantined"] is True
        assert clients[0].claim().get("drained") is True
        stats = clients[0].stats()
        assert stats["quarantines"] == 1 and stats["completed"] == 2
        for client in clients:
            client.close()
        coord.stop()
        rows = _rows(str(tmp_path / "fabric" / "results.jsonl"))
        assert set(rows) == {"poison", "good"}
        assert json.loads(rows["poison"])["status"] == "failed"


# ------------------------------------------------------------ degradation paths
class TestDegradation:
    def test_unreachable_coordinator_names_the_fallback(self):
        port = _free_port()
        with pytest.raises(FabricConnectionError) as excinfo:
            Session(store=f"127.0.0.1:{port}/default")
        message = str(excinfo.value)
        assert "repro serve" in message
        assert "offline fallback" in message and "repro results merge" in message

    def test_bad_port_in_session_store(self):
        with pytest.raises(ValueError, match="bad port"):
            Session(store="localhost:70b7")

    def test_namespace_conflict_between_kwarg_and_endpoint(self):
        with pytest.raises(ValueError, match="conflicts with the endpoint"):
            Session(store="127.0.0.1:1/prod", namespace="dev")

    @staticmethod
    def _record_client_sockets(monkeypatch):
        """Wrap ``socket.create_connection`` so a test can see every socket opened."""
        opened = []
        create_connection = socket.create_connection

        def recording(*args, **kwargs):
            sock = create_connection(*args, **kwargs)
            opened.append(sock)
            return sock

        monkeypatch.setattr(socket, "create_connection", recording)
        return opened

    def test_stale_namespace_gets_did_you_mean(self, tmp_path, monkeypatch):
        coord = FabricCoordinator(str(tmp_path / "fabric"), namespace="prod")
        address = coord.start("127.0.0.1:0")
        opened = self._record_client_sockets(monkeypatch)
        with pytest.raises(FabricProtocolError, match="did you mean 'prod'"):
            Session(store=f"{address}/prodd")
        coord.stop()
        # The rejected handshake closed its socket instead of leaking it.
        assert len(opened) == 1
        assert opened[0].fileno() == -1

    def test_version_mismatch_is_actionable(self, tmp_path, monkeypatch):
        coord = FabricCoordinator(str(tmp_path / "fabric"))
        address = coord.start("127.0.0.1:0")
        monkeypatch.setattr("repro.fabric.client.PROTOCOL_VERSION", 99)
        opened = self._record_client_sockets(monkeypatch)
        with pytest.raises(FabricProtocolError, match="v99.*upgrade"):
            Session(store=address)
        coord.stop()
        assert len(opened) == 1
        assert opened[0].fileno() == -1

    def test_connection_lost_mid_sweep_quarantines_locally(self, tmp_path):
        coord = FabricCoordinator(str(tmp_path / "fabric"), lease_s=5.0)
        address = coord.start("127.0.0.1:0")
        local = str(tmp_path / "local.jsonl")
        session = Session(store=address)
        session.fabric.reconnect_attempts = 1
        session.fabric.backoff_s = 0.01
        with ChaosMonkey(tmp_path / "chaos") as chaos:
            # Every `complete` send dies: the cell prices fine but its ack can
            # never reach the coordinator — reconnect budget spent mid-flight.
            chaos.drop_connection(op="complete", times=None)
            with pytest.raises(FabricConnectionError, match="quarantined\\s+locally"):
                list(session.sweep(SweepSpec.from_dict(GA_SWEEP), results=local))
        session.close()
        coord.stop()
        # The in-flight cell's real row was salvaged into the local store, so the
        # offline merge fallback can fold it back later.
        rows = _rows(local)
        assert len(rows) == 1
        assert json.loads(next(iter(rows.values())))["status"] == "ok"


# ------------------------------------------------------------------- net chaos
class TestNetworkChaos:
    def test_drop_tokens_are_bounded(self, tmp_path):
        chaos = ChaosMonkey(tmp_path).drop_connection(op="claim", times=1)
        with pytest.raises(ConnectionResetError, match="chaos: dropped"):
            chaos._on_net("send", "claim")
        assert chaos._on_net("send", "claim") is None  # budget spent
        assert chaos._on_net("send", "complete") is None  # op filter
        assert chaos.claimed("drop") == 1

    def test_heartbeat_delay_only_hits_heartbeats(self, tmp_path):
        chaos = ChaosMonkey(tmp_path).delay_heartbeat(0.0, times=1)
        assert chaos._on_net("send", "claim") is None
        assert chaos.claimed("hb-delay") == 0
        assert chaos._on_net("send", "heartbeat") is None
        assert chaos.claimed("hb-delay") == 1

    def test_dropped_connection_mid_sweep_reconnects(self, tmp_path):
        coord = FabricCoordinator(str(tmp_path / "fabric"), lease_s=5.0)
        address = coord.start("127.0.0.1:0")
        serial = str(tmp_path / "serial.jsonl")
        with Session() as session:
            list(session.sweep(SweepSpec.from_dict(GA_SWEEP), results=serial))
        with ChaosMonkey(tmp_path / "chaos") as chaos:
            chaos.drop_connection(op="claim", times=1)
            session = Session(store=address)
            session.fabric.backoff_s = 0.01
            runs = list(session.sweep(SweepSpec.from_dict(GA_SWEEP)))
            session.close()
        assert len(runs) == 2 and chaos.claimed("drop") == 1
        coord.stop()
        assert _rows(str(tmp_path / "fabric" / "results.jsonl")) == _rows(serial)

    def test_torn_frame_heals_like_a_dropped_connection(self, tmp_path):
        coord = FabricCoordinator(str(tmp_path / "fabric"), lease_s=5.0)
        address = coord.start("127.0.0.1:0")
        serial = str(tmp_path / "serial.jsonl")
        with Session() as session:
            list(session.sweep(SweepSpec.from_dict(GA_SWEEP), results=serial))
        with ChaosMonkey(tmp_path / "chaos") as chaos:
            chaos.tear_frame(op="complete", times=1)
            session = Session(store=address)
            session.fabric.backoff_s = 0.01
            runs = list(session.sweep(SweepSpec.from_dict(GA_SWEEP)))
            session.close()
        # The torn `complete` never half-parsed: the server saw EOF, the client
        # reconnected and retried, and the idempotent put absorbed any double.
        assert len(runs) == 2 and chaos.claimed("tear") == 1
        coord.stop()
        assert _rows(str(tmp_path / "fabric" / "results.jsonl")) == _rows(serial)


# ------------------------------------------------------------------------ merge
class TestMerge:
    def test_later_duplicates_win_in_argument_order(self, tmp_path):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.sqlite")
        out = str(tmp_path / "merged.sqlite")
        with open_result_store(a) as store:
            store.put("c1", _record("c1"))
            store.put("c2", _record("c2", status="failed"))
        with open_result_store(b) as store:
            store.put("c2", _record("c2"))  # the healed re-run wins
            store.put("c3", _record("c3"))
        summary = merge_stores([a, b], out)
        assert summary == {
            "stores": 2, "cells": 3, "duplicates": 1, "statuses": {"ok": 3}}
        rows = _rows(out)
        assert set(rows) == {"c1", "c2", "c3"}
        assert json.loads(rows["c2"])["status"] == "ok"

    def test_cli_merge_prints_histogram(self, tmp_path, capsys):
        a = str(tmp_path / "a.jsonl")
        with open_result_store(a) as store:
            store.put("c1", _record("c1"))
            store.put("c2", _record("c2", status="failed"))
        out = str(tmp_path / "merged.jsonl")
        assert repro_main(["results", "merge", a, "-o", out]) == 0
        printed = capsys.readouterr().out
        assert "2 cells" in printed and "ok=1" in printed and "failed=1" in printed

    def test_cli_merge_missing_input(self, tmp_path, capsys):
        assert repro_main(
            ["results", "merge", str(tmp_path / "ghost.jsonl"),
             "-o", str(tmp_path / "out.jsonl")]
        ) == 1
        assert "no store at" in capsys.readouterr().err


# -------------------------------------------------------------------- CLI paths
class TestCli:
    def test_sweep_against_coordinator(self, tmp_path, capsys):
        coord = FabricCoordinator(str(tmp_path / "fabric"), lease_s=5.0)
        address = coord.start("127.0.0.1:0")
        spec = tmp_path / "matrix.json"
        spec.write_text(json.dumps(GA_SWEEP))
        assert repro_main(["sweep", "--spec", str(spec), "--store", address]) == 0
        coord.stop()
        assert len(_rows(str(tmp_path / "fabric" / "results.jsonl"))) == 2
        assert "2 cells" in capsys.readouterr().out

    def test_sweep_bad_store_endpoint_is_a_clean_error(self, tmp_path):
        spec = tmp_path / "matrix.json"
        spec.write_text(json.dumps(GA_SWEEP))
        with pytest.raises(SystemExit, match="bad port"):
            repro_main(["sweep", "--spec", str(spec), "--store", "localhost:70b7"])

    def test_sweep_unreachable_coordinator_exit_code(self, tmp_path, capsys):
        spec = tmp_path / "matrix.json"
        spec.write_text(json.dumps(GA_SWEEP))
        port = _free_port()
        code = repro_main(
            ["sweep", "--spec", str(spec), "--store", f"127.0.0.1:{port}"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "repro serve" in err and "offline fallback" in err

    def test_serve_bad_bind_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="bad port"):
            repro_main(["serve", str(tmp_path / "store"), "--bind", "0.0.0.0:http"])


def test_poison_workload_quarantines_through_public_sweep(tmp_path):
    """End-to-end: a cell that raises on every host quarantines with the global
    budget while its sibling completes, through the public Session API only."""
    register_workload("fabric-poison", lambda: (_ for _ in ()).throw(
        RuntimeError("poisoned workload factory")))
    matrix = {
        "base": {"kind": "ga", "wafer": "tiny", "workload": "tiny",
                 "population": 4, "generations": 1},
        "grid": {"workload": ["fabric-poison", "tiny"]},
    }
    coord = FabricCoordinator(str(tmp_path / "fabric"), lease_s=5.0)
    address = coord.start("127.0.0.1:0")
    with Session(store=address) as session:
        runs = list(session.sweep(
            SweepSpec.from_dict(matrix), retry=RetryPolicy(max_attempts=2)))
    coord.stop()
    by_status = {run.status: run for run in runs}
    assert set(by_status) == {"ok", "failed"}
    assert by_status["failed"].attempts == 2
    assert "poisoned workload factory" in by_status["failed"].error
    rows = _rows(str(tmp_path / "fabric" / "results.jsonl"))
    statuses = {json.loads(row)["status"] for row in rows.values()}
    assert statuses == {"ok", "failed"}
