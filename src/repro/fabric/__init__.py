"""Distributed sweep fabric: a ``repro serve`` coordinator plus connecting hosts.

The single-box sweep runtime (supervised :class:`~repro.core.parallel_map.WorkerPool`,
cell retry/quarantine, the two-level scheduler) is promoted to many hosts here: one
``repro serve`` daemon owns the authoritative result/cache stores and a leased cell
queue, and any number of ``Session(store="host:port/ns")`` hosts claim cells from it
under heartbeat-renewed leases.  The detect/requeue/quarantine semantics are the same
ones PR 6 proved locally — a host that misses its heartbeat window has its leased
cells requeued with the attempt count carried, and a cell that keeps killing hosts is
quarantined as a ``status="failed"`` row under the *global* retry budget.

Layering: :mod:`repro.fabric.protocol` (framing, endpoints, errors) and
:mod:`repro.fabric.leases` (lease table + append-only journal) are stdlib-only and
import nothing from the rest of the package, so the chaos harness can hook the wire
without cycles; :mod:`repro.fabric.server` and :mod:`repro.fabric.client` sit above
the API stores.  This package re-exports only the protocol names: import
``FabricCoordinator`` and ``FabricClient`` from their submodules.
"""

from repro.fabric.protocol import (
    PROTOCOL_VERSION,
    Endpoint,
    FabricConnectionError,
    FabricError,
    FabricProtocolError,
    looks_like_endpoint,
    parse_endpoint,
)

__all__ = [
    "PROTOCOL_VERSION",
    "Endpoint",
    "FabricConnectionError",
    "FabricError",
    "FabricProtocolError",
    "looks_like_endpoint",
    "parse_endpoint",
]
