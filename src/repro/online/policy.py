"""Pluggable online placement policies: which pending job goes on which idle wafer.

The engine keeps the mechanism (event loop, preemption, pricing) and delegates the
*choice* to an :class:`OnlinePolicy`.  A policy sees immutable views of the pending
queue and of the currently idle wafers, and names one ``(job, wafer)`` pairing per
call; the engine re-asks while both lists are non-empty, so a policy never has to
plan more than one placement ahead.

Three policies ship (the registry is :data:`POLICIES`):

* ``fcfs`` — first-come, first-served: oldest arrival onto the lowest-numbered
  idle wafer.  The baseline every queueing comparison starts from.
* ``edf`` — earliest-deadline-first: the pending job with the soonest absolute
  deadline goes first (jobs without a deadline sort last, then by arrival).
* ``affinity`` — cache-warmed affinity: FCFS job order, but prefer an idle wafer
  that last served the same workload, so repeat workloads land where the pricing
  memo (and the evaluation cache under it) is already warm.

Policies must be deterministic — same views in, same choice out — or replay
bit-identity is forfeited; none of the built-ins holds state across calls.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple, Union

__all__ = [
    "CacheAffinityPolicy",
    "EdfPolicy",
    "FcfsPolicy",
    "OnlinePolicy",
    "POLICIES",
    "resolve_policy",
]


class OnlinePolicy:
    """Base class: override :meth:`select` (and optionally :attr:`name`).

    ``pending`` entries expose ``.job`` (:class:`~repro.online.trace.JobRequest`),
    ``.workload_key`` (``job.workload_key()``, computed once at admission),
    ``.arrival``, ``.seq`` (admission order) and ``.deadline_abs`` (absolute SLO
    instant, or ``None``); ``idle`` entries expose ``.index``, ``.name``,
    ``.speed`` and ``.last_workload_key``.  Return ``(pending_index, idle_index)``
    to place, or ``None`` to deliberately leave the queue waiting.
    """

    name = "base"

    def select(
        self, pending: Sequence, idle: Sequence
    ) -> Optional[Tuple[int, int]]:  # pragma: no cover - interface
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class FcfsPolicy(OnlinePolicy):
    """Oldest arrival first, lowest-numbered idle wafer."""

    name = "fcfs"

    def select(self, pending: Sequence, idle: Sequence) -> Optional[Tuple[int, int]]:
        if not pending or not idle:
            return None
        job_index = min(range(len(pending)), key=lambda i: pending[i].seq)
        wafer_index = min(range(len(idle)), key=lambda i: idle[i].index)
        return job_index, wafer_index


class EdfPolicy(OnlinePolicy):
    """Earliest absolute deadline first; deadline-free jobs last, then FCFS."""

    name = "edf"

    def select(self, pending: Sequence, idle: Sequence) -> Optional[Tuple[int, int]]:
        if not pending or not idle:
            return None
        job_index = min(
            range(len(pending)),
            key=lambda i: (
                pending[i].deadline_abs
                if pending[i].deadline_abs is not None
                else float("inf"),
                pending[i].seq,
            ),
        )
        wafer_index = min(range(len(idle)), key=lambda i: idle[i].index)
        return job_index, wafer_index


class CacheAffinityPolicy(OnlinePolicy):
    """FCFS job order, but steer repeat workloads onto the wafer that last ran them.

    A wafer that just served workload *W* holds the warm pricing memo (and the
    evaluation-cache entries under it) for *W*; landing the next *W* job there
    turns its placement into a dictionary hit.  Falls back to the lowest-numbered
    idle wafer when no idle wafer has matching history.
    """

    name = "affinity"

    def select(self, pending: Sequence, idle: Sequence) -> Optional[Tuple[int, int]]:
        if not pending or not idle:
            return None
        job_index = min(range(len(pending)), key=lambda i: pending[i].seq)
        key = pending[job_index].workload_key
        matches = [i for i in range(len(idle)) if idle[i].last_workload_key == key]
        pool = matches if matches else range(len(idle))
        wafer_index = min(pool, key=lambda i: idle[i].index)
        return job_index, wafer_index


POLICIES: Dict[str, Callable[[], OnlinePolicy]] = {
    "fcfs": FcfsPolicy,
    "edf": EdfPolicy,
    "affinity": CacheAffinityPolicy,
}


def resolve_policy(policy: Union[str, OnlinePolicy]) -> OnlinePolicy:
    """Coerce a policy name or instance to an :class:`OnlinePolicy`."""
    if isinstance(policy, OnlinePolicy):
        return policy
    factory = POLICIES.get(policy)
    if factory is None:
        from repro.api.spec import did_you_mean  # late: avoids import cycles

        close = did_you_mean(str(policy), sorted(POLICIES))
        hint = f"; did you mean {close!r}?" if close else ""
        known = ", ".join(sorted(POLICIES))
        raise ValueError(f"unknown online policy {policy!r} (known: {known}){hint}")
    return factory()
