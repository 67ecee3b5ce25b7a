"""Host-speed gauge: a fixed pure-Python kernel timed next to every operation.

On a shared host the same pass can take 1.4 s in one stretch and 2.4 s in the
next, while CPU time follows wall time: the machine itself runs slower, not the
process waiting more.  Over 25 s windows this moved the raw median pass rate by
20–26% between windows of identical work.  A kernel that uses none of the
program's code slows down with the host and not with the program, so the ratio
of the two removes most of the host's drift:

    seconds at reference speed = seconds / slowdown
    slowdown = kernel seconds / REFERENCE_S

Each stretch of timed work is divided by the mean slowdown measured just
before and just after it.  ``REFERENCE_S`` is fixed, so times and rates read
as on a host where the kernel takes ``REFERENCE_S``; a program that gets
faster moves them, a host that gets slower does not.

The kernel mixes what the program's hot paths do: small-object construction,
method and function calls, float arithmetic, dict memo look-ups, sorting, and
the canonicalise / ``repr`` / JSON / SHA-256 path of fingerprints and result
rows.  It takes about 50 ms.
"""

from __future__ import annotations

import hashlib
import json
import math
import time

#: Kernel seconds on the reference host (2-core x86-64 VM, CPython 3.11).
REFERENCE_S = 0.052


class _Stage:
    __slots__ = ("flops", "bytes", "tp")

    def __init__(self, flops: float, bytes_: float, tp: int) -> None:
        self.flops = flops
        self.bytes = bytes_
        self.tp = tp

    def time(self, bandwidth: float, peak: float) -> float:
        return max(self.flops / (peak * self.tp), self.bytes / bandwidth)


def _calls(n: int = 300_000) -> float:
    def step(x: float, y: float) -> float:
        return x * y + 1.0

    total = 0.0
    for _ in range(n):
        total = step(total * 0.5, 1.0001)
    return total


def _objects(n: int = 2_000) -> float:
    memo = {}
    total = 0.0
    for i in range(n):
        stages = [_Stage(1e9 * (1 + (i * j) % 7), 1e6 * (1 + j), 1 + j % 4) for j in range(16)]
        key = (i % 61, len(stages))
        if key in memo:
            total += memo[key]
            continue
        times = sorted(stage.time(2e12, 1e14) for stage in stages)
        value = sum(times) + math.log1p(times[-1])
        memo[key] = value
        total += value
    return total


def _canonical(value):
    if isinstance(value, dict):
        return tuple(sorted((key, _canonical(item)) for key, item in value.items()))
    if isinstance(value, list):
        return tuple(_canonical(item) for item in value)
    return value


def _serialise(n: int = 300) -> int:
    size = 0
    for i in range(n):
        record = {
            "job": i,
            "wafer": f"config{i % 4 + 1}",
            "metrics": {"wait_s": i * 0.25, "slo": i % 3 == 0, "dies": [i % 7, i % 5, i % 3]},
            "plan": [{"stage": j, "tp": 1 + j % 4, "time_s": j * 1.5e-3} for j in range(8)],
        }
        digest = hashlib.sha256(repr(_canonical(record)).encode("utf-8"))
        digest.update(json.dumps(record, sort_keys=True).encode("utf-8"))
        size += len(digest.hexdigest())
    return size


def kernel() -> float:
    return _calls() + _objects() + _serialise()


def slowdown(samples: int = 1) -> float:
    """Mean kernel seconds over ``samples`` runs, as a multiple of ``REFERENCE_S``."""
    start = time.perf_counter()
    for _ in range(samples):
        kernel()
    return (time.perf_counter() - start) / samples / REFERENCE_S


class ScaledClock:
    """Times work in segments, each at the host speed measured at both its ends.

    ``split()`` closes a segment and samples the gauge, which also opens the
    next one; the gauge's own time falls in no segment.  ``seconds`` is the sum
    of the segments at reference speed, ``wall`` their sum as measured.
    """

    def __init__(self, edge_samples: int) -> None:
        self.edge_samples = edge_samples
        self.seconds = 0.0
        self.wall = 0.0

    def start(self) -> None:
        self._before = slowdown(self.edge_samples)
        self._start = time.perf_counter()

    def split(self, samples: int = 1) -> None:
        segment = time.perf_counter() - self._start
        after = slowdown(samples)
        self.wall += segment
        self.seconds += segment * 2.0 / (self._before + after)
        self._before = after
        self._start = time.perf_counter()

    def stop(self) -> None:
        self.split(self.edge_samples)
