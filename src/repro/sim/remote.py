"""Remote worker endpoints: supervised dispatch across host boundaries.

The persistent pool (:mod:`repro.sim.supervisor`) made workers
long-lived; this module makes them *remote*. A ``repro worker serve``
process on another host listens on TCP, and the parent's supervisor
streams cells to it over a small length-prefixed protocol, with every
supervision semantic promoted to host granularity: per-endpoint
heartbeat policing, classified retries when a connection drops
mid-cell, endpoint quarantine after repeated failures, and graceful
degradation to the local pool (and ultimately in-process serial) when
every remote is gone.

Protocol (version :data:`REMOTE_PROTOCOL_VERSION`)
--------------------------------------------------

Every frame is an 8-byte big-endian length followed by a pickled
Python object; frames above :data:`MAX_FRAME_BYTES` are rejected as
protocol corruption. One connection carries one *session*:

1. client → ``{"kind": "repro-remote-hello", "protocol": ...,
   "fingerprint": ...}``
2. server → ``{"kind": "repro-remote-welcome", ...}`` when both sides
   agree on protocol revision *and* code fingerprint, else a
   ``repro-remote-reject`` frame and a close. The fingerprint covers
   the package version, the protocol revision, and the result-store
   schema — two builds that could disagree on bytes never exchange
   cells, so distributed grids stay byte-identical by construction.
3. client → task frames ``{"target", "payload", "key", "attempt",
   "heartbeat_every"}``; server answers each with zero or more
   ``{"hb": n}`` heartbeats followed by exactly one final frame using
   the same schema as the local pool worker (``ok``/``value``/
   ``error``/``retryable``/``sim_seconds``/``wall_seconds``). Results
   carry their ``backend_stats`` delta inside the value, exactly as
   local workers do.
4. client → ``{"stop": True}`` ends the session; the server returns to
   ``accept()`` so a *different* parent (any host sharing the result
   store) can take over the campaign.

Clock skew never matters: no absolute timestamp crosses the wire. The
server reports durations measured on its own clock; the parent polices
timeouts and heartbeats by local arrival time only.

Like :mod:`multiprocessing.connection`, frames are unpickled — only
point endpoints at hosts you trust (a cooperating cluster), never at
the open internet.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import select
import signal
import socket
import struct
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..errors import EnvKnobError, RemoteError, RemoteProtocolError

#: Bumped whenever a frame or message schema changes; both ends must
#: match exactly (there is no negotiation — simulation clusters deploy
#: one build, and byte-identity across builds is not a promise we can
#: keep).
REMOTE_PROTOCOL_VERSION = 1
#: Comma-separated ``host:port`` list; the CLI's ``--endpoints`` flag
#: exports it so nested fan-out inherits the endpoint roster.
ENDPOINTS_ENV_VAR = "REPRO_ENDPOINTS"
#: Ceiling on one frame's payload. Cells and results are kilobytes;
#: anything near this is a corrupt or hostile length header.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_HEADER = struct.Struct(">Q")
_HELLO_KIND = "repro-remote-hello"
_WELCOME_KIND = "repro-remote-welcome"
_REJECT_KIND = "repro-remote-reject"
#: Handshake frames must arrive within this budget even when the
#: caller's connect timeout is unbounded; a listener whose single
#: session is wedged accepts nothing, and the parent must classify
#: that as endpoint failure rather than block forever.
_HANDSHAKE_TIMEOUT_SECONDS = 10.0


def code_fingerprint() -> str:
    """A digest two processes must share to exchange cells.

    Covers the package version, the wire-protocol revision, and the
    result-store schema version: the three coordinates that decide
    whether two builds produce interchangeable, byte-identical results.
    """
    from .. import __version__
    from .result_store import RESULT_STORE_SCHEMA_VERSION

    blob = repr((
        __version__,
        REMOTE_PROTOCOL_VERSION,
        RESULT_STORE_SCHEMA_VERSION,
    )).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


# -- Endpoint specs -------------------------------------------------------------


@dataclass(frozen=True)
class Endpoint:
    """One remote worker listener, as ``host:port``."""

    host: str
    port: int

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.address


def parse_endpoint(text: str) -> Endpoint:
    """Parse one ``host:port`` spec; raises :class:`RemoteError`."""
    spec = text.strip()
    host, sep, raw_port = spec.rpartition(":")
    if not sep or not host:
        raise RemoteError(
            f"endpoint {spec!r} is not host:port (e.g. 10.0.0.2:7463)"
        )
    try:
        port = int(raw_port)
    except ValueError as exc:
        raise RemoteError(
            f"endpoint {spec!r} has a non-numeric port {raw_port!r}"
        ) from exc
    if not 1 <= port <= 65535:
        raise RemoteError(
            f"endpoint {spec!r} port {port} is outside [1, 65535]"
        )
    return Endpoint(host=host, port=port)


def parse_endpoints(text: Optional[str]) -> List[Endpoint]:
    """Parse a comma-separated endpoint list; empty input → ``[]``."""
    if not text or not text.strip():
        return []
    endpoints = [
        parse_endpoint(part)
        for part in text.split(",")
        if part.strip()
    ]
    seen = set()
    for endpoint in endpoints:
        if endpoint.address in seen:
            raise RemoteError(
                f"endpoint {endpoint.address} is listed more than once"
            )
        seen.add(endpoint.address)
    return endpoints


def endpoints_from_env() -> List[Endpoint]:
    """Endpoints from ``REPRO_ENDPOINTS``, or ``[]`` when unset."""
    text = os.environ.get(ENDPOINTS_ENV_VAR)
    try:
        return parse_endpoints(text)
    except RemoteError as exc:
        raise EnvKnobError(
            f"{ENDPOINTS_ENV_VAR}={text!r} is invalid: {exc}; expected a "
            "comma-separated host:port list (e.g. 10.0.0.2:7463,10.0.0.3:7463)"
        ) from exc


def resolve_endpoints(
    endpoints: Optional[Sequence[Union[str, Endpoint]]],
) -> List[Endpoint]:
    """Normalize an explicit endpoint argument, or fall back to the env.

    ``None`` defers to :func:`endpoints_from_env`; an explicit (possibly
    empty) sequence wins over the environment, so a caller can force
    local dispatch with ``endpoints=[]`` even under ``REPRO_ENDPOINTS``.
    """
    if endpoints is None:
        return endpoints_from_env()
    resolved: List[Endpoint] = []
    seen = set()
    for item in endpoints:
        endpoint = item if isinstance(item, Endpoint) else parse_endpoint(item)
        if endpoint.address in seen:
            raise RemoteError(
                f"endpoint {endpoint.address} is listed more than once"
            )
        seen.add(endpoint.address)
        resolved.append(endpoint)
    return resolved


# -- Framing --------------------------------------------------------------------


class FramedConnection:
    """Length-prefixed pickle frames over one TCP socket.

    Exposes the same surface the supervisor uses on local pipes —
    ``send``/``recv``/``poll``/``fileno``/``close`` — so remote sessions
    run through the same supervision loop as pool workers. ``recv`` raises
    :class:`EOFError` on a clean peer close and ``OSError`` on an
    unclean one, exactly the families the supervisor already classifies
    as retryable.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._closed = False
        with contextlib.suppress(OSError):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def fileno(self) -> int:
        return self._sock.fileno()

    def send(self, obj: object) -> None:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        if len(payload) > MAX_FRAME_BYTES:
            raise RemoteProtocolError(
                f"refusing to send a {len(payload)}-byte frame "
                f"(limit {MAX_FRAME_BYTES})"
            )
        self._sock.sendall(_HEADER.pack(len(payload)) + payload)

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = self._sock.recv(min(remaining, 1 << 20))
            if not chunk:
                raise EOFError("connection closed by peer")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv(self) -> object:
        header = self._recv_exact(_HEADER.size)
        (length,) = _HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise RemoteProtocolError(
                f"frame header claims {length} bytes (limit "
                f"{MAX_FRAME_BYTES}); stream is corrupt"
            )
        payload = self._recv_exact(length)
        try:
            return pickle.loads(payload)
        except Exception as exc:
            raise RemoteProtocolError(
                f"frame payload failed to unpickle: {exc}"
            ) from exc

    def poll(self, timeout: float = 0.0) -> bool:
        """Whether at least one byte is readable (frame *start*, not
        necessarily a whole frame; senders write frames atomically, so
        the remainder follows promptly)."""
        if self._closed:
            return False
        try:
            ready, _, _ = select.select([self._sock], [], [], timeout)
        except (OSError, ValueError):
            return True  # let recv() surface the real error
        return bool(ready)

    def settimeout(self, timeout: Optional[float]) -> None:
        self._sock.settimeout(timeout)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self._sock.close()


# -- Client side (the parent's supervisor) --------------------------------------


def connect_endpoint(
    endpoint: Endpoint,
    timeout: float = 10.0,
) -> Tuple[FramedConnection, dict]:
    """Connect and handshake; returns ``(connection, welcome)``.

    Raises :class:`RemoteProtocolError` on version/fingerprint skew (a
    deterministic mismatch — callers quarantine the endpoint
    immediately) and ``OSError``/``EOFError`` on transient trouble
    (refused, reset, handshake timeout — callers retry with backoff).
    """
    sock = socket.create_connection(
        (endpoint.host, endpoint.port), timeout=timeout,
    )
    conn = FramedConnection(sock)
    try:
        conn.send({
            "kind": _HELLO_KIND,
            "protocol": REMOTE_PROTOCOL_VERSION,
            "fingerprint": code_fingerprint(),
        })
        welcome = conn.recv()
        if not isinstance(welcome, dict):
            raise RemoteProtocolError(
                f"endpoint {endpoint.address} answered the hello with "
                f"{type(welcome).__name__}, not a handshake frame"
            )
        if welcome.get("kind") == _REJECT_KIND:
            raise RemoteProtocolError(
                f"endpoint {endpoint.address} rejected the handshake: "
                f"{welcome.get('reason', 'no reason given')}"
            )
        if welcome.get("kind") != _WELCOME_KIND:
            raise RemoteProtocolError(
                f"endpoint {endpoint.address} sent frame kind "
                f"{welcome.get('kind')!r} where a welcome was expected"
            )
        # The server echoes its identity; verify symmetrically so a
        # *newer* server also refuses an older parent.
        if welcome.get("protocol") != REMOTE_PROTOCOL_VERSION:
            raise RemoteProtocolError(
                f"endpoint {endpoint.address} speaks protocol "
                f"{welcome.get('protocol')!r}, this parent speaks "
                f"{REMOTE_PROTOCOL_VERSION} (version skew)"
            )
        if welcome.get("fingerprint") != code_fingerprint():
            raise RemoteProtocolError(
                f"endpoint {endpoint.address} runs a different simulator "
                "build (fingerprint skew); results would not be "
                "byte-identical"
            )
    except BaseException:
        conn.close()
        raise
    # Handshake done: hand a blocking socket to the supervisor's
    # poll/recv loops.
    conn.settimeout(None)
    return conn, welcome


# -- Server side (`repro worker serve`) -----------------------------------------


class _SessionSabotaged(Exception):
    """Injected connection drop: abort this session, keep serving."""


def _maybe_inject_endpoint_fault(faults, key: str, attempt: int) -> None:
    """Chaos for the serving process, drawn per (cell, attempt).

    ``endpoint_kill`` takes the whole server down (host death);
    ``crash`` drops only this connection (the parent sees a mid-cell
    EOF and the server survives to ``accept()`` again); ``hang`` wedges
    the session so the parent's heartbeat police fires.
    """
    from .supervisor import INJECTED_CRASH_EXIT_CODE, _unit_hash

    if attempt > faults.max_attempt:
        return
    draw = _unit_hash("inject-worker", faults.seed, key, attempt)
    threshold = faults.endpoint_kill_rate
    if draw < threshold:
        os._exit(INJECTED_CRASH_EXIT_CODE)
    if draw < threshold + faults.crash_rate:
        raise _SessionSabotaged(f"injected connection drop on {key!r}")
    threshold += faults.crash_rate
    if draw < threshold + faults.hang_rate:
        while True:  # a genuine wedge: alive, silent, never returns
            time.sleep(3600)


def _serve_session(conn: FramedConnection, peer: str,
                   log: Callable[[str], None]) -> None:
    """One parent's session: handshake, then run cells until stop/EOF."""
    from .supervisor import (
        FAULTS_ENV_VAR,
        _install_heartbeat_hook,
        _run_cell,
        parse_injected_faults,
    )

    conn.settimeout(_HANDSHAKE_TIMEOUT_SECONDS)
    try:
        hello = conn.recv()
    except (EOFError, OSError, RemoteProtocolError) as exc:
        log(f"rejected {peer}: no valid hello ({exc})")
        return
    if not isinstance(hello, dict) or hello.get("kind") != _HELLO_KIND:
        conn.send({"kind": _REJECT_KIND, "reason": "expected a hello frame"})
        log(f"rejected {peer}: not a repro-remote hello")
        return
    if hello.get("protocol") != REMOTE_PROTOCOL_VERSION:
        conn.send({
            "kind": _REJECT_KIND,
            "reason": (
                f"protocol {hello.get('protocol')!r} != server's "
                f"{REMOTE_PROTOCOL_VERSION} (version skew)"
            ),
        })
        log(f"rejected {peer}: protocol version skew")
        return
    if hello.get("fingerprint") != code_fingerprint():
        conn.send({
            "kind": _REJECT_KIND,
            "reason": "simulator build fingerprint mismatch "
                      "(results would not be byte-identical)",
        })
        log(f"rejected {peer}: build fingerprint skew")
        return
    conn.send({
        "kind": _WELCOME_KIND,
        "protocol": REMOTE_PROTOCOL_VERSION,
        "fingerprint": code_fingerprint(),
        "server": f"{socket.gethostname()}:{os.getpid()}",
    })
    conn.settimeout(None)
    log(f"session from {peer}")
    faults = parse_injected_faults(os.environ.get(FAULTS_ENV_VAR))
    cells = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, RemoteProtocolError) as exc:
            log(f"session from {peer} ended: {exc}")
            return
        if not isinstance(message, dict) or message.get("stop"):
            log(f"session from {peer} closed after {cells} cell(s)")
            return
        key = str(message.get("key", ""))
        attempt = int(message.get("attempt", 1))
        if faults is not None and faults.active:
            try:
                _maybe_inject_endpoint_fault(faults, key, attempt)
            except _SessionSabotaged as exc:
                log(f"chaos: {exc}")
                return  # abrupt close = connection drop mid-cell
        _install_heartbeat_hook(
            conn, int(message.get("heartbeat_every", 2000)),
        )
        try:
            # Durations only: this host's clock never leaves this host.
            _run_cell(conn, message, time.monotonic())
        except Exception:
            log(f"session from {peer} lost mid-result")
            return
        cells += 1


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    log: Optional[Callable[[str], None]] = None,
    once: bool = False,
    on_bound: Optional[Callable[[Endpoint], None]] = None,
) -> None:
    """Serve simulation cells to remote parents until terminated.

    Binds ``host:port`` (``port=0`` picks a free one), reports the
    bound endpoint via ``on_bound`` and a ``listening on host:port``
    log line, then accepts one session at a time — when a parent
    disconnects (or dies) the server returns to ``accept()``, so a
    fresh parent on any host can resume the campaign. ``once`` exits
    after the first session instead (used by tests). SIGTERM exits
    cleanly.
    """
    emit = log if log is not None else (lambda message: None)
    listener = socket.create_server((host, port), backlog=4, reuse_port=False)
    bound = Endpoint(host=host, port=listener.getsockname()[1])
    if on_bound is not None:
        on_bound(bound)
    emit(f"listening on {bound.address} "
         f"(protocol {REMOTE_PROTOCOL_VERSION}, "
         f"fingerprint {code_fingerprint()})")

    def terminate(signum, frame):  # pragma: no cover - signal path
        raise SystemExit(0)

    with contextlib.suppress(ValueError, OSError):
        signal.signal(signal.SIGTERM, terminate)
    try:
        while True:
            try:
                sock, addr = listener.accept()
            except OSError as exc:
                emit(f"accept failed: {exc}")
                continue
            conn = FramedConnection(sock)
            try:
                _serve_session(conn, f"{addr[0]}:{addr[1]}", emit)
            finally:
                conn.close()
            if once:
                return
    finally:
        with contextlib.suppress(OSError):
            listener.close()


def _serve_reporting_port(host: str, report_conn) -> None:
    """Subprocess body for :func:`start_endpoint_process`."""
    serve(
        host=host,
        port=0,
        on_bound=lambda endpoint: report_conn.send(endpoint.port),
    )


def start_endpoint_process(host: str = "127.0.0.1", ctx=None):
    """Spawn a local ``serve()`` subprocess on a free port (for tests).

    Returns ``(process, endpoint)`` once the listener is bound; the
    caller owns termination.
    """
    import multiprocessing

    if ctx is None:
        ctx = multiprocessing.get_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=_serve_reporting_port, args=(host, child_conn), daemon=True,
    )
    process.start()
    child_conn.close()
    if not parent_conn.poll(30.0):
        process.terminate()
        raise RemoteError("worker endpoint process never bound its port")
    port = parent_conn.recv()
    parent_conn.close()
    return process, Endpoint(host=host, port=port)
