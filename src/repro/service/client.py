"""A small blocking client for the campaign service.

:class:`ServiceClient` speaks the JSONL protocol over a plain
``socket`` — no asyncio on the client side, so notebooks, the CLI and
load-test threads can all use it directly.  One request is in flight
per connection at a time; responses are read line-by-line until a
terminal type arrives.  Failures are typed:

* :class:`ServiceUnavailable` — nothing is listening (dead daemon,
  wrong endpoint, connection refused);
* :class:`JobRejected` / :class:`JobTimeout` / :class:`JobFailed` —
  the daemon's typed terminal responses, raised by :meth:`result`;
  :meth:`submit` returns the raw terminal message instead for callers
  that want to branch on shedding;
* :class:`~.protocol.ProtocolError` — the daemon sent a frame that is
  not a JSON object or does not carry this build's
  :data:`~.protocol.PROTOCOL_VERSION` (the connection is closed: the
  stream cannot be trusted after it).
"""

from __future__ import annotations

import socket
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional

from ..specs import Spec, load_spec, spec_from_dict
from .protocol import (
    PROTOCOL_VERSION,
    TERMINAL_TYPES,
    ProtocolError,
    decode,
    encode,
)

__all__ = [
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
    "JobRejected",
    "JobTimeout",
    "JobFailed",
]


class ServiceError(RuntimeError):
    """Base class for client-visible service failures."""


class ServiceUnavailable(ServiceError):
    """No daemon answered at the endpoint."""


class JobRejected(ServiceError):
    """Admission control shed the job (typed ``rejected`` terminal)."""

    def __init__(self, response: Mapping[str, Any]):
        super().__init__(f"job rejected: {response.get('reason')}")
        self.response = dict(response)


class JobTimeout(ServiceError):
    """The daemon timed the job out (typed ``timeout`` terminal)."""

    def __init__(self, response: Mapping[str, Any]):
        super().__init__(
            f"job timed out after {response.get('timeout_s')}s"
        )
        self.response = dict(response)


class JobFailed(ServiceError):
    """The daemon answered with a typed ``error`` terminal."""

    def __init__(self, response: Mapping[str, Any]):
        super().__init__(
            f"{response.get('kind')} error: {response.get('detail')}"
        )
        self.response = dict(response)


def _normalize_spec(spec: "Spec | Mapping | str | Path") -> Dict[str, Any]:
    """Client-side strict validation; ships the canonical payload."""
    if isinstance(spec, (str, Path)):
        spec = load_spec(spec)
    elif isinstance(spec, Mapping):
        spec = spec_from_dict(spec)
    return spec.to_dict()


class ServiceClient:
    """Blocking JSONL client; one lazily-opened connection."""

    def __init__(
        self,
        socket_path: "str | Path | None" = None,
        *,
        host: Optional[str] = None,
        port: Optional[int] = None,
        connect_timeout: float = 5.0,
    ):
        if (socket_path is None) == (port is None):
            raise ValueError(
                "pass exactly one endpoint: socket_path or host/port"
            )
        self._socket_path = str(socket_path) if socket_path else None
        self._host = host or "127.0.0.1"
        self._port = port
        self._connect_timeout = connect_timeout
        self._sock: Optional[socket.socket] = None
        self._reader = None

    @property
    def endpoint(self) -> str:
        if self._socket_path is not None:
            return self._socket_path
        return f"{self._host}:{self._port}"

    # -- connection --------------------------------------------------------

    def _connect(self) -> None:
        if self._sock is not None:
            return
        sock = None
        try:
            if self._socket_path is not None:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self._connect_timeout)
                sock.connect(self._socket_path)
            else:
                sock = socket.create_connection(
                    (self._host, self._port), timeout=self._connect_timeout
                )
        except OSError as exc:
            if sock is not None:
                sock.close()
            raise ServiceUnavailable(
                f"cannot reach repro service at {self.endpoint}: {exc}"
            ) from None
        sock.settimeout(None)  # job waits are unbounded client-side
        self._sock = sock
        self._reader = sock.makefile("rb")

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._reader.close()
                self._sock.close()
            except OSError:  # pragma: no cover - already torn down
                pass
            self._sock = None
            self._reader = None

    def __enter__(self) -> "ServiceClient":
        self._connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- protocol ----------------------------------------------------------

    def _request(self, message: Dict[str, Any]) -> None:
        self._connect()
        try:
            self._sock.sendall(encode(message))
        except OSError as exc:
            self.close()
            raise ServiceUnavailable(
                f"lost repro service at {self.endpoint}: {exc}"
            ) from None

    def _read(self) -> Dict[str, Any]:
        try:
            line = self._reader.readline()
        except OSError as exc:
            self.close()
            raise ServiceUnavailable(
                f"lost repro service at {self.endpoint}: {exc}"
            ) from None
        if not line:
            self.close()
            raise ServiceUnavailable(
                f"repro service at {self.endpoint} closed the connection"
            )
        try:
            payload = decode(line)
            version = payload.get("protocol")
            if type(version) is not int or version != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"daemon speaks protocol {version!r}, this client "
                    f"speaks {PROTOCOL_VERSION}"
                )
        except ProtocolError:
            self.close()
            raise
        return payload

    # -- operations --------------------------------------------------------

    def submit(
        self,
        spec: "Spec | Mapping | str | Path",
        *,
        stream: bool = False,
        timeout: Optional[float] = None,
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Dict[str, Any]:
        """Submit one workload; returns the terminal response message.

        With ``stream=True``, progress events (``chunk``/``adaptive``)
        are passed to ``on_event`` as they arrive.  The ``accepted``
        handshake is also surfaced through ``on_event``.
        """
        request: Dict[str, Any] = {
            "op": "submit",
            "spec": _normalize_spec(spec),
            "stream": stream,
        }
        if timeout is not None:
            request["timeout"] = timeout
        self._request(request)
        while True:
            message = self._read()
            mtype = message.get("type")
            if mtype in TERMINAL_TYPES:
                return message
            if on_event is not None:
                on_event(message)

    def result(self, spec, **kwargs) -> Dict[str, Any]:
        """Submit and return the result payload, raising on any other
        terminal (:class:`JobRejected` / :class:`JobTimeout` /
        :class:`JobFailed`)."""
        terminal = self.submit(spec, **kwargs)
        mtype = terminal.get("type")
        if mtype == "result":
            return terminal["result"]
        if mtype == "rejected":
            raise JobRejected(terminal)
        if mtype == "timeout":
            raise JobTimeout(terminal)
        raise JobFailed(terminal)

    def ping(self) -> Dict[str, Any]:
        self._request({"op": "ping"})
        return self._read()

    def metrics_text(self) -> str:
        """The daemon's OpenMetrics exposition."""
        self._request({"op": "metrics"})
        return self._read()["openmetrics"]

    def shutdown(self, *, drain: bool = True) -> Dict[str, Any]:
        """Ask the daemon to stop; returns the ``shutdown-ack``."""
        self._request({"op": "shutdown", "drain": drain})
        ack = self._read()
        self.close()
        return ack
