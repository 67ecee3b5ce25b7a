"""The online scenario engine: trace replay determinism, policies, and metrics rows.

The contract under test (PR 9): a trace is a replayable request stream — same
trace + same seed ⇒ a bit-identical run, byte for byte in the result store,
whether served serially or on a warm worker pool; the generator is pure given its
arguments (the golden file pins the byte format); EDF and FCFS genuinely reorder
completions; fault storms preempt running jobs through the same §VI-D fault model
the static robustness study uses; and every row lands in the ordinary
:class:`~repro.api.results.ResultStore` (tail ``--kind``, CSV union, resume skip).
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.api import Session
from repro.api.cli import main as repro_main
from repro.api.results import export_csv, open_result_store
from repro.hardware.faults import FaultEvent, FaultInjector, FaultModel
from repro.online import (
    EventQueue,
    JobRequest,
    StormSpec,
    Trace,
    TraceEvent,
    VirtualClock,
    generate_trace,
    read_trace,
    resolve_policy,
    write_trace,
)
from repro.online.metrics import FLEET_SUMMARY_JOB, JobMetrics, trace_cell_id
from repro.online.policy import CacheAffinityPolicy, EdfPolicy, FcfsPolicy

GOLDEN_TRACE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden_trace.jsonl")


@pytest.fixture(autouse=True)
def _clean_runtime():
    from repro.api import close_default_session

    close_default_session()
    yield
    close_default_session()


def golden_trace() -> Trace:
    """The pinned generator call behind ``tests/data/golden_trace.jsonl``.

    Regenerate the file (only after an *intentional* format change) with::

        PYTHONPATH=src:tests python -c \
            "import test_online as t; t.write_trace(t.golden_trace(), t.GOLDEN_TRACE)"
    """
    return generate_trace(
        jobs=8,
        rate=2.0,
        seed=7,
        arrival="diurnal",
        workloads=("tiny", "llama2-30b"),
        iterations=(1, 5),
        deadline_s=20.0,
        fleet=("tiny", "tiny"),
        storms=(
            StormSpec(
                wafer=1, at=1.0, duration=4.0,
                die_fault_rate=0.25, link_fault_rate=0.1, mean_repair_s=2.0,
            ),
        ),
        name="golden",
    )


# ------------------------------------------------------------- event substrate
class TestEventQueue:
    def test_orders_by_time_then_push_order(self):
        queue = EventQueue()
        queue.push(2.0, "late")
        queue.push(1.0, "tie-first")
        queue.push(1.0, "tie-second")
        popped = [queue.pop(), queue.pop(), queue.pop()]
        assert [payload for _, _, payload in popped] == ["tie-first", "tie-second", "late"]
        times = [time for time, _, _ in popped]
        seqs = [seq for _, seq, _ in popped]
        assert times == [1.0, 1.0, 2.0]
        assert seqs[0] < seqs[1]  # equal instants resolved by insertion order

    def test_rejects_negative_time_and_empty_pop(self):
        queue = EventQueue()
        with pytest.raises(ValueError, match="non-negative"):
            queue.push(-0.5, "x")
        with pytest.raises(IndexError):
            queue.pop()
        with pytest.raises(IndexError):
            queue.peek_time()
        queue.push(3.0, "x")
        assert queue.peek_time() == 3.0
        assert len(queue) == 1 and bool(queue)


class TestVirtualClock:
    def test_advances_forward_only(self):
        clock = VirtualClock()
        assert clock.advance(1.5) == 1.5
        assert clock.advance(1.5) == 1.5  # same instant is fine
        with pytest.raises(ValueError, match="backwards"):
            clock.advance(1.0)
        assert clock.now == 1.5


# ---------------------------------------------------------------- fault stream
class TestFaultInjector:
    def _injector(self, **overrides) -> FaultInjector:
        config = dict(
            dies_x=4, dies_y=4, die_fault_rate=0.25, link_fault_rate=0.25,
            degraded_fraction=0.5, dead_share=0.5,
        )
        config.update(overrides)
        return FaultInjector(**config)

    def test_schedule_is_deterministic(self):
        injector = self._injector(mean_repair_s=3.0)
        first = injector.schedule(seed=13, horizon=10.0)
        second = injector.schedule(seed=13, horizon=10.0)
        assert first == second
        assert first != injector.schedule(seed=14, horizon=10.0)

    def test_folded_stream_equals_static_snapshot(self):
        """With no repairs, the storm folds down to FaultModel.random exactly."""
        injector = self._injector(mean_repair_s=0.0)
        events = injector.schedule(seed=5, horizon=10.0, start=2.0)
        folded = FaultInjector.model_at(events, time=12.0)
        static = FaultModel.random(
            4, 4, link_fault_rate=0.25, die_fault_rate=0.25,
            degraded_fraction=0.5, dead_share=0.5, seed=5,
        )
        assert folded.die_faults == static.die_faults
        assert folded.link_faults == static.link_faults

    def test_repairs_follow_onsets_inside_the_horizon(self):
        injector = self._injector(mean_repair_s=1.0)
        events = injector.schedule(seed=3, horizon=50.0)
        onsets = {}
        for event in events:
            assert 0.0 <= event.time < 50.0
            target = event.die if event.die is not None else event.link
            if event.kind.endswith("repair"):
                assert event.time > onsets[target]
            else:
                onsets[target] = event.time
        assert any(event.kind.endswith("repair") for event in events)

    def test_event_dict_round_trip_and_validation(self):
        event = FaultEvent(time=1.5, kind="die_degrade", die=(1, 2), value=0.5)
        assert FaultEvent.from_dict(1.5, event.to_dict()) == event
        link = FaultEvent(time=0.0, kind="link_fail", link=((0, 0), (0, 1)))
        assert FaultEvent.from_dict(0.0, link.to_dict()) == link
        with pytest.raises(ValueError, match="kind"):
            FaultEvent(time=0.0, kind="meteor", die=(0, 0))
        with pytest.raises(ValueError, match="exactly one"):
            FaultEvent(time=0.0, kind="die_fail")
        with pytest.raises(ValueError, match="target a die"):
            FaultEvent(time=0.0, kind="die_fail", link=((0, 0), (0, 1)))


# ---------------------------------------------------------------- trace format
class TestJobRequest:
    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            JobRequest(id="", workload="tiny")
        with pytest.raises(ValueError, match="iterations"):
            JobRequest(id="j", workload="tiny", iterations=0)
        with pytest.raises(ValueError, match="deadline"):
            JobRequest(id="j", workload="tiny", deadline_s=0.0)

    def test_dict_round_trip_is_compact(self):
        job = JobRequest(id="j", workload="tiny")
        assert job.to_dict() == {"id": "j", "workload": "tiny"}  # defaults omitted
        rich = JobRequest(id="k", workload={"model": "llama2-30b"}, iterations=3, deadline_s=9.0)
        assert JobRequest.from_dict(rich.to_dict()) == rich
        with pytest.raises(ValueError, match="workload"):
            JobRequest.from_dict({"id": "j"})


class TestTraceFormat:
    def test_generation_is_pure(self):
        first, second = golden_trace(), golden_trace()
        assert [e.to_dict() for e in first.events] == [e.to_dict() for e in second.events]
        assert first.fingerprint == second.fingerprint

    def test_golden_file_pins_the_byte_format(self, tmp_path):
        """The committed golden file byte-matches a fresh generation — generator
        drift (RNG discipline, rounding, serialization) fails here first."""
        regenerated = tmp_path / "regenerated.jsonl"
        write_trace(golden_trace(), regenerated)
        with open(GOLDEN_TRACE, "rb") as handle:
            golden_bytes = handle.read()
        assert regenerated.read_bytes() == golden_bytes

    def test_write_read_round_trip(self, tmp_path):
        trace = golden_trace()
        path = tmp_path / "trace.jsonl"
        assert write_trace(trace, path) == len(trace.events)
        back = read_trace(path)
        assert back.fingerprint == trace.fingerprint
        assert back.fleet == trace.fleet and back.seed == trace.seed
        assert back.name == "golden"
        assert [e.to_dict() for e in back.events] == [e.to_dict() for e in trace.events]

    def test_fingerprint_is_name_blind(self):
        trace = golden_trace()
        renamed = Trace(
            events=trace.events, fleet=trace.fleet, seed=trace.seed, name="other"
        )
        assert renamed.fingerprint == trace.fingerprint

    def test_read_rejects_foreign_and_versioned_files(self, tmp_path):
        foreign = tmp_path / "foreign.jsonl"
        foreign.write_text('{"hello": "world"}\n')
        with pytest.raises(ValueError, match="not a watos-trace file"):
            read_trace(foreign)
        future = tmp_path / "future.jsonl"
        future.write_text('{"format": "watos-trace", "version": 99}\n')
        with pytest.raises(ValueError, match="version 99"):
            read_trace(future)

    def test_read_reports_the_bad_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text(
            '{"format": "watos-trace", "version": 1, "fleet": ["tiny"]}\n'
            '{"t": 0.5, "event": "arrival", "job": {"id": "ok", "workload": "tiny"}}\n'
            '{"t": 1.0, "event": "meteor"}\n'
        )
        with pytest.raises(ValueError, match=r":3: bad trace event"):
            read_trace(path)

    def test_trace_validates_order_and_fleet_bounds(self):
        a = TraceEvent(time=2.0, kind="arrival", job=JobRequest(id="a", workload="tiny"))
        b = TraceEvent(time=1.0, kind="arrival", job=JobRequest(id="b", workload="tiny"))
        with pytest.raises(ValueError, match="non-decreasing"):
            Trace(events=[a, b], fleet=["tiny"])
        fault = TraceEvent(
            time=0.0, kind="fault", wafer=2,
            fault=FaultEvent(time=0.0, kind="die_fail", die=(0, 0)),
        )
        with pytest.raises(ValueError, match="only 1 wafers"):
            Trace(events=[fault], fleet=["tiny"])

    def test_generator_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="rate"):
            generate_trace(jobs=1, rate=0.0)
        with pytest.raises(ValueError, match="arrival"):
            generate_trace(jobs=1, arrival="weekly")
        with pytest.raises(ValueError, match="storm 0"):
            generate_trace(jobs=0, fleet=("tiny",), storms=(StormSpec(wafer=5),))


# -------------------------------------------------------------------- policies
def _pending(seq, deadline_abs=None, workload="tiny"):
    job = JobRequest(id=f"j{seq}", workload=workload)
    return SimpleNamespace(
        seq=seq, deadline_abs=deadline_abs, arrival=float(seq),
        job=job, workload_key=job.workload_key(),
    )


def _idle(index, last_workload_key=None):
    return SimpleNamespace(index=index, name="tiny", speed=1.0, last_workload_key=last_workload_key)


class TestPolicies:
    def test_fcfs_takes_oldest_job_lowest_wafer(self):
        pending = [_pending(2), _pending(0), _pending(1)]
        idle = [_idle(3), _idle(1)]
        assert FcfsPolicy().select(pending, idle) == (1, 1)

    def test_edf_takes_soonest_deadline_deadline_free_last(self):
        pending = [_pending(0, deadline_abs=None), _pending(1, deadline_abs=50.0),
                   _pending(2, deadline_abs=10.0)]
        assert EdfPolicy().select(pending, [_idle(0)]) == (2, 0)
        # all deadline-free → falls back to FCFS order
        free = [_pending(1), _pending(0)]
        assert EdfPolicy().select(free, [_idle(0)]) == (1, 0)

    def test_affinity_prefers_the_warm_wafer(self):
        pending = [_pending(0, workload="tiny")]
        key = pending[0].job.workload_key()
        idle = [_idle(0, last_workload_key=None), _idle(1, last_workload_key=key)]
        assert CacheAffinityPolicy().select(pending, idle) == (0, 1)
        # no warm history → lowest index
        cold = [_idle(1), _idle(0)]
        assert CacheAffinityPolicy().select(pending, cold) == (0, 1)

    def test_empty_views_decline(self):
        assert FcfsPolicy().select([], [_idle(0)]) is None
        assert EdfPolicy().select([_pending(0)], []) is None

    def test_resolve_policy_suggests_near_misses(self):
        assert resolve_policy("edf").name == "edf"
        policy = EdfPolicy()
        assert resolve_policy(policy) is policy
        with pytest.raises(ValueError, match="did you mean 'fcfs'"):
            resolve_policy("fcsf")


# ------------------------------------------------------------------ the engine
def _small_trace():
    return generate_trace(
        jobs=12,
        rate=5.0,
        seed=3,
        workloads=("tiny",),
        fleet=("tiny", "tiny"),
        iterations=(5, 15),
        deadline_s=30.0,
        storms=(
            StormSpec(
                wafer=0, at=1.0, duration=3.0,
                die_fault_rate=0.25, dead_share=0.5, mean_repair_s=2.0,
            ),
        ),
        name="unit",
    )


def _serve(trace, store_path, *, pool=None, **kwargs):
    with Session(pool=pool) as session:
        return session.serve(trace, results=str(store_path), **kwargs)


class TestReplayDeterminism:
    def test_two_serves_are_byte_identical(self, tmp_path):
        trace = _small_trace()
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        report = _serve(trace, first)
        _serve(trace, second)
        assert report.jobs == 12
        assert first.read_bytes() == second.read_bytes()

    def test_warm_pool_serve_is_byte_identical(self, tmp_path):
        """Pool pricing is pure memoization: pool size must not change a byte."""
        trace = _small_trace()
        serial, pooled = tmp_path / "serial.jsonl", tmp_path / "pooled.jsonl"
        _serve(trace, serial)
        _serve(trace, pooled, pool=2)
        assert serial.read_bytes() == pooled.read_bytes()

    def test_reserve_resumes_and_rewrites_nothing(self, tmp_path):
        trace = _small_trace()
        store = tmp_path / "store.jsonl"
        first = _serve(trace, store)
        before = store.read_bytes()
        again = _serve(trace, store)
        assert again.rows_written == 0
        assert again.rows_skipped == first.rows_written == 13  # 12 jobs + fleet row
        assert store.read_bytes() == before

    def test_no_resume_is_an_error_free_overwrite(self, tmp_path):
        trace = _small_trace()
        store = tmp_path / "store.jsonl"
        _serve(trace, store)
        again = _serve(trace, store, resume=False)
        assert again.rows_written == 13 and again.rows_skipped == 0


class TestServeCost:
    """A serve fingerprints the trace once and each job's workload once."""

    @pytest.mark.parametrize("policy", ["fcfs", "edf", "affinity"])
    def test_fingerprints_once_per_serve_and_once_per_job(self, tmp_path, monkeypatch, policy):
        from repro.online import trace as trace_module

        reads = []
        original_property = Trace.fingerprint
        monkeypatch.setattr(
            Trace,
            "fingerprint",
            property(lambda self: reads.append(1) or original_property.fget(self)),
        )
        hashed = []
        original_fingerprint = trace_module.fingerprint
        monkeypatch.setattr(
            trace_module,
            "fingerprint",
            lambda *values: hashed.append(values) or original_fingerprint(*values),
        )
        trace = _small_trace()
        report = _serve(trace, tmp_path / "store.jsonl", policy=policy)
        assert report.jobs == 12
        assert len(reads) == 1
        # The one trace digest, then one workload digest per job.
        assert len(hashed) == 1 + len(trace.jobs)
        assert [values[0] for values in hashed[1:]] == [job.workload for job in trace.jobs]

    def test_store_bytes_are_pinned(self, tmp_path):
        """Replays are byte-identical, and so are replays of an earlier build.

        The digest was taken before the serve path fingerprinted once per serve,
        the canonical form gained its fast path and appends skipped the
        torn-line read; none of that may change a stored byte.
        """
        import hashlib

        pinned = "4fc93c5b02da34854d68c0b1c787f24c154c03f0a50e72b9e0d92d49c14ae411"
        store = tmp_path / "store.jsonl"
        report = _serve(_small_trace(), store, policy="edf")
        assert report.fingerprint == "cd73368d2fda2fbf"
        assert hashlib.sha256(store.read_bytes()).hexdigest() == pinned


class TestEngineSemantics:
    def _ordering_trace(self, deadlines):
        """Three same-instant arrivals on one wafer; deadlines passed per job."""
        events = [
            TraceEvent(
                time=0.0, kind="arrival",
                job=JobRequest(id=f"job-{i}", workload="tiny", iterations=5,
                               deadline_s=deadline),
            )
            for i, deadline in enumerate(deadlines)
        ]
        return Trace(events=events, fleet=["tiny"], name="ordering")

    def test_edf_and_fcfs_complete_in_different_orders(self, tmp_path):
        # job-0 is placed on arrival (the wafer is idle) under either policy; the
        # policies differ on who goes next: FCFS picks job-1, EDF picks job-2.
        trace = self._ordering_trace([1000.0, 100.0, 10.0])
        fcfs = _serve(trace, tmp_path / "fcfs.jsonl", policy="fcfs")
        edf = _serve(trace, tmp_path / "edf.jsonl", policy="edf")
        fcfs_finish = {job.job_id: job.finish for job in fcfs.job_metrics}
        edf_finish = {job.job_id: job.finish for job in edf.job_metrics}
        assert fcfs_finish["job-1"] < fcfs_finish["job-2"]
        assert edf_finish["job-2"] < edf_finish["job-1"]
        assert edf.policy == "edf" and fcfs.policy == "fcfs"

    def test_die_fail_preempts_and_counts_attempts(self, tmp_path):
        events = [
            TraceEvent(time=0.0, kind="arrival",
                       job=JobRequest(id="victim", workload="tiny", iterations=50)),
            TraceEvent(time=0.0, kind="fault", wafer=0,
                       fault=FaultEvent(time=0.0, kind="die_fail", die=(0, 0))),
            TraceEvent(time=0.0, kind="fault", wafer=0,
                       fault=FaultEvent(time=0.0, kind="die_repair", die=(0, 0), value=1.0)),
        ]
        trace = Trace(events=events, fleet=["tiny"], name="preempt")
        store = tmp_path / "store.jsonl"
        report = _serve(trace, store)
        assert report.completed == 1 and report.failed == 0
        assert report.preemptions == 1
        with open_result_store(str(store)) as handle:
            record = handle.get(trace_cell_id(_run_key(report), "victim"))
        assert record is not None
        assert record["attempts"] == 2  # 1 + the preemption
        assert record["result"]["metrics"]["preemptions"] == 1

    def test_degrade_slows_without_preempting(self, tmp_path):
        degrade = [
            TraceEvent(time=0.0, kind="arrival",
                       job=JobRequest(id="slow", workload="tiny", iterations=50)),
            TraceEvent(time=0.0, kind="fault", wafer=0,
                       fault=FaultEvent(time=0.0, kind="die_degrade", die=(0, 0), value=0.5)),
        ]
        healthy = [degrade[0]]
        slow = _serve(Trace(events=degrade, fleet=["tiny"]), tmp_path / "slow.jsonl")
        fast = _serve(Trace(events=healthy, fleet=["tiny"]), tmp_path / "fast.jsonl")
        assert slow.preemptions == 0 and slow.completed == 1
        assert slow.makespan_s > fast.makespan_s  # half a die down → longer service

    def test_downed_wafer_fails_runner_and_queued_jobs(self, tmp_path):
        # die_degrade to 0 stalls the runner in place (a die_fail would preempt
        # it back into the queue instead — that path is covered above).
        kill_all = [
            TraceEvent(time=0.0, kind="fault", wafer=0,
                       fault=FaultEvent(time=0.0, kind="die_degrade", die=(x, y), value=0.0))
            for x in range(4)
            for y in range(4)
        ]
        events = [
            TraceEvent(time=0.0, kind="arrival",
                       job=JobRequest(id="runner", workload="tiny", iterations=50)),
            *kill_all,
            TraceEvent(time=0.0, kind="arrival",
                       job=JobRequest(id="stranded", workload="tiny")),
        ]
        report = _serve(Trace(events=events, fleet=["tiny"]), tmp_path / "down.jsonl")
        assert report.completed == 0 and report.failed == 2
        by_id = {job.job_id: job for job in report.job_metrics}
        assert "down" in by_id["runner"].error
        assert "still queued" in by_id["stranded"].error

    def test_fault_beyond_fleet_is_rejected(self, tmp_path):
        trace = golden_trace()  # faults target wafer 1
        with Session() as session:
            with pytest.raises(ValueError, match="only 1 wafers"):
                session.serve(trace, fleet=["tiny"], results=str(tmp_path / "x.jsonl"))

    def test_pricing_is_memoized_across_jobs(self, tmp_path):
        report = _serve(_small_trace(), tmp_path / "store.jsonl")
        assert report.prices <= 2  # one real search per (wafer name, workload)
        assert report.price_hits > 0


def _run_key(report):
    """The engine's store run key (trace fingerprint x fleet x policy)."""
    from repro.core.evalcache import fingerprint

    return fingerprint(
        {"trace": report.fingerprint, "fleet": list(report.fleet), "policy": report.policy}
    )[:16]


# --------------------------------------------------------------- store plumbing
class TestStoreIntegration:
    def test_rows_carry_queueing_metrics(self, tmp_path):
        trace = _small_trace()
        store_path = tmp_path / "store.jsonl"
        report = _serve(trace, store_path)
        with open_result_store(str(store_path)) as store:
            records = store.load()
            fleet_rows = [
                record for record in records.values()
                if record["result"]["kind"] == "trace_fleet"
            ]
            job_rows = [
                record for record in records.values()
                if record["result"]["kind"] == "trace"
            ]
            tailed = store.tail(50, kind="trace_fleet")
        assert len(job_rows) == 12 and len(fleet_rows) == 1
        completed = [r for r in job_rows if r["result"]["status"] == "ok"]
        assert completed and all(
            "wait_s" in r["result"]["metrics"] and "slo_miss" in r["result"]["metrics"]
            for r in completed
        )
        summary = fleet_rows[0]["result"]["metrics"]
        assert 0.0 < summary["util"] <= 1.0
        assert summary["jobs"] == 12
        # written_at is the virtual clock, not the wall clock — the byte-identity invariant
        assert fleet_rows[0]["written_at"] == report.makespan_s
        assert len(tailed) == 1 and tailed[0][1]["result"]["label"] == "fleet[fcfs]"

    def test_csv_export_unions_trace_and_sweep_columns(self, tmp_path):
        from repro.api.result import RunResult
        from repro.api.results import make_record

        store_path = tmp_path / "store.jsonl"
        _serve(_small_trace(), store_path)
        with open_result_store(str(store_path)) as store:
            sweep_row = RunResult(
                kind="scheduler", metrics={"throughput": 123.0}, seconds=1.0,
                label="sweep-cell", cell_id="sweepcell0000000",
            )
            store.put(sweep_row.cell_id, make_record(sweep_row, None, now=0.0))
            buffer = io.StringIO()
            rows = export_csv(store, buffer)
        header = buffer.getvalue().splitlines()[0].split(",")
        assert rows == 14  # 12 jobs + fleet summary + the sweep cell
        for column in ("wait_s", "slo_miss", "util", "throughput"):
            assert column in header

    def test_put_many_matches_per_put(self, tmp_path):
        from repro.api.results import make_record

        rows = []
        for index in range(5):
            metrics = JobMetrics(
                job_id=f"job-{index}", workload_key="k", arrival=float(index),
                start=float(index), finish=index + 1.0,
            )
            run = metrics.to_run_result("fp")
            rows.append((run.cell_id, make_record(run, None, now=index + 1.0)))

        one_path, many_path = str(tmp_path / "one.jsonl"), str(tmp_path / "many.jsonl")
        with open_result_store(one_path) as one:
            for cell_id, record in rows:
                one.put(cell_id, record)
        with open_result_store(many_path) as many:
            many.put_many(rows)
        with open(one_path, "rb") as a, open(many_path, "rb") as b:
            assert a.read() == b.read()

        with open_result_store(str(tmp_path / "batch.sqlite")) as sqlite_store:
            sqlite_store.put_many(rows)
            loaded = sqlite_store.load()
        assert list(loaded) == [cell_id for cell_id, _ in rows]
        assert loaded[rows[0][0]] == rows[0][1]

    def test_fleet_summary_cell_id_is_stable(self):
        assert trace_cell_id("fp", FLEET_SUMMARY_JOB) == trace_cell_id("fp", FLEET_SUMMARY_JOB)
        assert trace_cell_id("fp", "job-1") != trace_cell_id("other", "job-1")


# ------------------------------------------------------------------ front doors
class TestSessionAndCli:
    def test_session_serve_accepts_a_path(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        write_trace(_small_trace(), trace_path)
        with Session() as session:
            report = session.serve(str(trace_path), results=str(tmp_path / "s.jsonl"))
        assert report.jobs == 12 and report.trace == "unit"

    def test_serve_on_a_closed_session_is_an_error(self, tmp_path):
        session = Session()
        session.close()
        with pytest.raises(RuntimeError):
            session.serve(_small_trace(), results=str(tmp_path / "s.jsonl"))

    def test_trace_gen_serve_tail_round_trip(self, tmp_path, capsys):
        trace_path = str(tmp_path / "cli-trace.jsonl")
        store_path = str(tmp_path / "cli-store.jsonl")
        out_path = str(tmp_path / "report.json")
        assert repro_main(
            ["trace", "gen", "--out", trace_path, "--jobs", "5", "--rate", "4",
             "--seed", "3", "--deadline", "10", "--fleet", "tiny",
             "--storm", "wafer=0,at=0.5,duration=2,die_rate=0.25,repair_s=1"]
        ) == 0
        trace = read_trace(trace_path)
        assert len(trace.jobs) == 5 and trace.fleet == ["tiny"]
        assert any(event.kind == "fault" for event in trace.events)

        assert repro_main(
            ["serve-trace", trace_path, "--policy", "edf",
             "--results", store_path, "--json", out_path]
        ) == 0
        payload = json.loads(Path(out_path).read_text())
        assert payload["jobs"] == 5 and payload["policy"] == "edf"
        capsys.readouterr()

        assert repro_main(["results", "tail", store_path, "--kind", "trace_fleet"]) == 0
        assert "fleet[edf]" in capsys.readouterr().out

    def test_bad_storm_spec_is_a_clear_cli_error(self, tmp_path):
        with pytest.raises(SystemExit):
            repro_main(
                ["trace", "gen", "--out", str(tmp_path / "t.jsonl"),
                 "--jobs", "1", "--storm", "wafer=0,meteor=1"]
            )

    def test_unknown_policy_is_a_clear_error(self, tmp_path):
        trace_path = str(tmp_path / "trace.jsonl")
        write_trace(_small_trace(), trace_path)
        with pytest.raises(SystemExit):
            repro_main(["serve-trace", trace_path, "--policy", "lifo",
                        "--results", str(tmp_path / "s.jsonl")])
