"""The service wire protocol: newline-delimited JSON, typed both ways.

One request or response per line (JSONL).  The framing is deliberately
primitive — ``readline`` on both ends, no length prefixes, no binary —
because every payload the service moves is already JSON-native: specs
serialize through :meth:`~repro.specs.Spec.to_dict`, results through
:func:`result_payload`.  Python's ``json`` round-trips ``float64``
exactly (``repr`` shortest-representation), which is what lets the
daemon promise **bitwise identical** answers to a direct
``repro.run(spec)`` over a text protocol.

Requests (``op`` selects):

* ``submit`` — ``spec`` (a strict :func:`~repro.specs.spec_from_dict`
  payload), optional ``stream`` (send per-chunk progress), optional
  ``timeout`` (override the service default for a *new* job).
* ``ping`` / ``metrics`` / ``shutdown`` (optional ``drain``).

Responses (``type`` tags):

* ``accepted`` — job admitted; carries ``job`` (the spec's content
  hash) plus ``coalesced`` / ``cached`` provenance flags.
* ``chunk`` / ``adaptive`` — streamed progress riding the engines'
  SAMPLE_BLOCK / epoch-window boundaries and the adaptive-sampling
  stop decision.
* ``result`` / ``rejected`` / ``timeout`` / ``error`` — the terminal
  types.  Every admitted conversation ends in exactly one terminal
  message; overload sheds with ``rejected``, never a hung socket.
* ``pong`` / ``metrics`` / ``shutdown-ack`` — control-plane answers.

Unknown ops, non-object lines, and unknown request keys are protocol
errors — the same strictness discipline as the spec parsers.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Mapping, Optional

from ..specs import CampaignSpec, ChaosSpec, Spec, SurvivalSpec

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "TERMINAL_TYPES",
    "REQUEST_OPS",
    "ProtocolError",
    "encode",
    "encode_result",
    "result_frame",
    "decode",
    "parse_request",
    "result_payload",
    "summarize_result",
]

#: Stamped into every response; clients reject other versions.
PROTOCOL_VERSION = 1

#: Upper bound on one JSONL frame — a guard against a garbage client
#: streaming an unbounded line into daemon memory.
MAX_LINE_BYTES = 64 * 1024 * 1024

#: Response types that end a submit conversation.
TERMINAL_TYPES = frozenset({"result", "rejected", "timeout", "error"})

#: Allowed request keys per op (strict: unknown keys are rejected).
REQUEST_OPS: Dict[str, frozenset] = {
    "submit": frozenset({"op", "spec", "stream", "timeout"}),
    "ping": frozenset({"op"}),
    "metrics": frozenset({"op"}),
    "shutdown": frozenset({"op", "drain"}),
}


class ProtocolError(ValueError):
    """A malformed frame or request."""


def _dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def encode(message: Mapping[str, Any]) -> bytes:
    """One JSONL frame: compact JSON + newline."""
    return (_dumps(message) + "\n").encode("utf-8")


def encode_result(payload: Mapping[str, Any]) -> bytes:
    """The ``result`` member of a terminal frame, encoded once.

    The daemon caches these bytes per spec hash and answers every hit
    by splicing them into a frame with :func:`result_frame`.
    """
    return _dumps(payload).encode("utf-8")


def result_frame(result: bytes, *, cached: bool, coalesced: bool) -> bytes:
    """The terminal ``result`` frame around pre-encoded ``result`` bytes.

    Keys are sorted on the wire, so ``result`` sits between
    ``protocol`` and ``type`` and the splice is byte-identical to
    :func:`encode` of the same frame.
    """
    return b"".join((
        b'{"cached":', b"true" if cached else b"false",
        b',"coalesced":', b"true" if coalesced else b"false",
        b',"protocol":%d,"result":' % PROTOCOL_VERSION, result,
        b',"type":"result"}\n',
    ))


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one frame; must be a JSON object."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def parse_request(line: bytes) -> Dict[str, Any]:
    """Decode and validate one client request frame."""
    request = decode(line)
    op = request.get("op")
    if not isinstance(op, str) or op not in REQUEST_OPS:  # [] is unhashable
        raise ProtocolError(
            f"unknown op {op!r}; known ops: {sorted(REQUEST_OPS)}"
        )
    unknown = set(request) - REQUEST_OPS[op]
    if unknown:
        raise ProtocolError(
            f"unknown keys for op {op!r}: {sorted(unknown)}"
        )
    if op == "submit":
        spec = request.get("spec")
        if not isinstance(spec, dict):
            raise ProtocolError("submit needs a 'spec' object payload")
        stream = request.get("stream", False)
        if not isinstance(stream, bool):
            raise ProtocolError(f"stream must be a bool, got {stream!r}")
        timeout = request.get("timeout")
        if timeout is not None:
            if not isinstance(timeout, (int, float)) or isinstance(
                timeout, bool
            ) or timeout <= 0:
                raise ProtocolError(
                    f"timeout must be a positive number, got {timeout!r}"
                )
    if op == "shutdown" and not isinstance(request.get("drain", True), bool):
        raise ProtocolError("drain must be a bool")
    return request


def _report_dict(report) -> Optional[Dict[str, Any]]:
    """JSON view of an adaptive/stratified report dataclass (or None)."""
    if report is None:
        return None
    import numpy as np

    payload = {"report": type(report).__name__}
    for field in dataclasses.fields(report):
        value = getattr(report, field.name)
        if isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, np.generic):
            value = value.item()
        payload[field.name] = value
    return payload


def result_payload(spec: Spec, outcome: Any) -> Dict[str, Any]:
    """The JSON answer for one evaluated spec — the service's currency.

    Deterministic lowering of every ``repro.run`` return type; floats
    survive the JSON round trip bit-exactly, so re-encoding the same
    outcome always yields the same bytes (the cache/coalesce identity).
    """
    if isinstance(spec, CampaignSpec):
        import numpy as np

        errors = np.asarray(outcome.errors, dtype=np.float64)
        return {
            "kind": "campaign",
            "reduction": outcome.reduction,
            "n_scenarios": int(errors.size),
            "errors": errors.tolist(),
            "adaptive": _report_dict(outcome.adaptive),
        }
    if isinstance(spec, SurvivalSpec):
        if isinstance(outcome, float):
            return {"kind": "survival", "survival": outcome}
        return {
            "kind": "survival",
            "survival": float(outcome.survival),
            "ci_low": float(outcome.ci_low),
            "ci_high": float(outcome.ci_high),
            "n_trials": int(outcome.n_trials),
            "certified_lower_bound": outcome.certified_lower_bound,
            "adaptive": _report_dict(outcome.adaptive),
        }
    if isinstance(spec, ChaosSpec):
        return {"kind": "chaos", "report": outcome.to_dict()}
    raise ProtocolError(
        f"spec kind {type(spec).__name__} is not servable"
    )


def summarize_result(payload: Mapping[str, Any]) -> str:
    """One human line for ``repro submit`` output."""
    kind = payload.get("kind")
    if kind == "campaign":
        errors = payload.get("errors", [])
        peak = max(errors) if errors else float("nan")
        return (
            f"campaign: {payload.get('n_scenarios', len(errors))} scenarios, "
            f"max error {peak:.6g}"
        )
    if kind == "survival":
        line = f"survival: {payload.get('survival'):.6g}"
        if "ci_low" in payload:
            line += (
                f" (CI [{payload['ci_low']:.6g}, {payload['ci_high']:.6g}], "
                f"n={payload.get('n_trials')})"
            )
        return line
    if kind == "chaos":
        report = payload.get("report", {})
        return (
            f"chaos: availability {report.get('availability'):.4f}, "
            f"violations {report.get('violation_fraction'):.4f}"
        )
    return f"result: {kind!r}"
