"""Host-side fabric client: one socket, bounded reconnect, heartbeat thread.

A :class:`FabricClient` is what a ``Session(store="host:port/ns")`` talks through.
It owns one TCP connection to the coordinator, replays the hello handshake on every
(re)connect, and keeps all requests on one lock so the heartbeat thread and the
claim loop share the socket without interleaving frames.

Degradation ladder, in order:

1. coordinator unreachable at connect → :class:`FabricConnectionError` immediately,
   naming ``repro serve`` and the offline fallback — nothing half-starts;
2. connection lost mid-sweep → bounded reconnect with exponential backoff (the
   hello is replayed, so a restarted coordinator is picked up transparently);
3. reconnect budget spent → :class:`FabricConnectionError` again, and the session
   locally quarantines whatever cell was in flight.
"""

from __future__ import annotations

import itertools
import os
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Union

from repro.core.evalcache import decode_value, encode_value
from repro.obs import tracer as _obs
from repro.fabric.protocol import (
    PROTOCOL_VERSION,
    Endpoint,
    FabricConnectionError,
    FabricError,
    FabricProtocolError,
    offline_fallback_hint,
    parse_endpoint,
    recv_frame,
    send_frame,
)

__all__ = ["FabricClient"]

#: Distinguishes two Sessions in one process — host identity must be unique per
#: client, or the coordinator would renew both clients' leases on one heartbeat.
_CLIENT_COUNTER = itertools.count(1)


class FabricClient:
    """One host's connection to a ``repro serve`` coordinator."""

    def __init__(
        self,
        endpoint: Union[str, Endpoint],
        connect_timeout: float = 5.0,
        request_timeout: float = 30.0,
        reconnect_attempts: int = 3,
        backoff_s: float = 0.25,
        host_id: Optional[str] = None,
    ) -> None:
        self.endpoint = parse_endpoint(endpoint) if isinstance(endpoint, str) else endpoint
        self.connect_timeout = float(connect_timeout)
        self.request_timeout = float(request_timeout)
        self.reconnect_attempts = int(reconnect_attempts)
        self.backoff_s = float(backoff_s)
        self.host_id = host_id or (
            f"{socket.gethostname()}-{os.getpid()}-{next(_CLIENT_COUNTER)}"
        )
        self._lock = threading.RLock()
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._wfile = None
        self._hb_stop = threading.Event()
        self._hb_thread: Optional[threading.Thread] = None
        self._closed = False
        #: Set when the reconnect budget was spent; further requests fail fast.
        self.lost = False
        #: The coordinator's lease window, learned from the hello reply — the
        #: heartbeat interval derives from it so clients never tune two knobs.
        self.lease_s = 10.0
        self._connect()  # fail at construction, not first claim

    # ------------------------------------------------------------------ transport
    def _connect(self) -> None:
        try:
            sock = socket.create_connection(
                (self.endpoint.host, self.endpoint.port), timeout=self.connect_timeout
            )
        except OSError as exc:
            raise FabricConnectionError(
                f"could not reach coordinator at {self.endpoint.address}: {exc}. "
                f"Is `repro serve <store-dir> --bind {self.endpoint.address}` running "
                f"there? {offline_fallback_hint()}"
            ) from exc
        sock.settimeout(self.request_timeout)
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._wfile = sock.makefile("wb")
        try:
            self._hello()
        except BaseException:
            # A rejected (or broken) handshake must not leave a half-open,
            # un-handshaken connection behind for the next request to reuse.
            self._teardown()
            raise

    def _hello(self) -> None:
        send_frame(
            self._wfile,
            {
                "op": "hello",
                "version": PROTOCOL_VERSION,
                "namespace": self.endpoint.namespace,
                "host": self.host_id,
            },
        )
        reply = recv_frame(self._rfile)
        if reply is None:
            raise ConnectionResetError("coordinator closed the connection during hello")
        if reply.get("ok"):
            self.lease_s = float(reply.get("lease_s", self.lease_s))
            return
        kind = reply.get("kind")
        if kind == "version":
            raise FabricProtocolError(
                f"coordinator at {self.endpoint.address} speaks fabric protocol "
                f"v{reply.get('version')}, this client speaks v{PROTOCOL_VERSION} — "
                "upgrade the older side (client and `repro serve` must come from "
                "compatible checkouts)"
            )
        if kind == "namespace":
            served = str(reply.get("namespace", ""))
            from repro.api.spec import did_you_mean

            suggestion = did_you_mean(self.endpoint.namespace, [served])
            hint = (
                f"; did you mean '{suggestion}'?"
                if suggestion
                else f" (it serves namespace '{served}')"
            )
            raise FabricProtocolError(
                f"coordinator at {self.endpoint.address} does not serve namespace "
                f"'{self.endpoint.namespace}'{hint} Connect with "
                f"{self.endpoint.address}/{served} or start a coordinator for "
                f"'{self.endpoint.namespace}'."
            )
        raise FabricProtocolError(
            f"coordinator at {self.endpoint.address} rejected the handshake: "
            f"{reply.get('error', 'unknown error')}"
        )

    def _teardown(self) -> None:
        for closer in (self._rfile, self._wfile, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._rfile = self._wfile = self._sock = None

    def request(self, op: str, **payload: Any) -> Dict[str, Any]:
        """One command/reply round trip, reconnecting with backoff on a dead link.

        Protocol-level rejections (version, namespace, malformed frames) raise
        :class:`FabricProtocolError` immediately — reconnecting cannot fix them.
        Transport failures consume the reconnect budget; once it is spent the
        client is marked :attr:`lost` and raises :class:`FabricConnectionError`.
        """
        frame = {"op": op, **payload}
        with _obs.span("fabric.request", tag=op), self._lock:
            if self._closed:
                raise FabricConnectionError("fabric client is closed")
            if self.lost:
                raise FabricConnectionError(
                    f"connection to {self.endpoint.address} was already lost "
                    f"(reconnect budget spent). {offline_fallback_hint()}"
                )
            last_error: Optional[BaseException] = None
            for attempt in range(self.reconnect_attempts + 1):
                if attempt:
                    time.sleep(self.backoff_s * (2 ** (attempt - 1)))
                try:
                    if self._sock is None:
                        self._connect()
                    send_frame(self._wfile, frame)
                    reply = recv_frame(self._rfile)
                    if reply is None:
                        raise ConnectionResetError("coordinator closed the connection")
                except FabricConnectionError as exc:
                    last_error = exc  # reconnect refused; keep burning the budget
                    continue
                except (ConnectionError, OSError) as exc:
                    last_error = exc
                    self._teardown()
                    continue
                if not reply.get("ok", False):
                    raise FabricError(
                        f"coordinator rejected {op}: {reply.get('error', 'unknown error')}"
                    )
                return reply
            self.lost = True
            self._teardown()
            raise FabricConnectionError(
                f"lost connection to coordinator at {self.endpoint.address} and could "
                f"not reconnect after {self.reconnect_attempts} attempts "
                f"(last error: {last_error}). In-flight cells will be quarantined "
                f"locally. {offline_fallback_hint()}"
            )

    # ------------------------------------------------------------------ heartbeats
    def start_heartbeats(self, interval_s: Optional[float] = None) -> None:
        """Renew this host's leases on a daemon thread (default: a third of the
        coordinator's lease window, so two beats can be lost before expiry).

        Heartbeat failures are swallowed — the claim loop sees the same dead link on
        its next request and owns the error path; two threads racing to report one
        failure would double-quarantine.
        """
        if self._hb_thread is not None:
            return
        if interval_s is None:
            interval_s = max(self.lease_s / 3.0, 0.05)

        def beat() -> None:
            while not self._hb_stop.wait(interval_s):
                try:
                    self.request("heartbeat", host=self.host_id)
                except FabricError:
                    pass

        self._hb_thread = threading.Thread(target=beat, name="fabric-heartbeat", daemon=True)
        self._hb_thread.start()

    # ------------------------------------------------------------------ commands
    def register(
        self,
        cells: List[Dict[str, Any]],
        max_attempts: int,
        skip_failed: bool = False,
    ) -> Dict[str, Any]:
        return self.request(
            "register",
            host=self.host_id,
            cells=cells,
            max_attempts=max_attempts,
            skip_failed=skip_failed,
        )

    def claim(self) -> Dict[str, Any]:
        return self.request("claim", host=self.host_id)

    def complete(self, cell_id: str, record: Dict[str, Any]) -> Dict[str, Any]:
        return self.request("complete", host=self.host_id, cell=cell_id, record=record)

    def fail(self, cell_id: str, record: Dict[str, Any]) -> Dict[str, Any]:
        return self.request("fail", host=self.host_id, cell=cell_id, record=record)

    def cache_pull(self) -> Dict[str, Any]:
        """The coordinator's cache, decoded and ready to seed a local cache."""
        reply = self.request("cache_pull")
        return {
            str(key): decode_value(value)
            for key, value in (reply.get("entries") or {}).items()
        }

    def cache_push(self, entries: Dict[str, Any]) -> int:
        """Ship freshly priced entries; returns how many the coordinator adopted."""
        if not entries:
            return 0
        encoded = {key: encode_value(value) for key, value in entries.items()}
        return int(self.request("cache_push", entries=encoded).get("adopted", 0))

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        if self._closed:
            return
        self._hb_stop.set()
        if self._hb_thread is not None:
            self._hb_thread.join(timeout=2.0)
        with self._lock:
            self._closed = True
            if self._wfile is not None:
                try:
                    send_frame(self._wfile, {"op": "bye"})
                except (ConnectionError, OSError):
                    pass
            self._teardown()

    def __enter__(self) -> "FabricClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
