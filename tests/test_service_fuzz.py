"""JSONL frame fuzz: every mutated submit frame gets one typed terminal.

A valid tiny-net submit frame is damaged four ways — byte flips,
truncations, dropped keys and type swaps on its leaves — and sent to a
live :class:`~repro.service.ServiceThread`.  Whatever the damage, the
daemon answers with exactly one terminal frame carrying the protocol
version, the connection stays usable (``ping`` -> ``pong`` is the very
next frame), and every frame-memo entry re-parses to the spec hash it
stores.  Each frame is sent twice, so frames that survive as valid
specs reach the memo on their second send.

The profile is the fast tier-1 one: a few dozen examples per strategy,
seconds in total.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import ServiceClient, ServiceThread
from repro.service.protocol import (
    PROTOCOL_VERSION,
    TERMINAL_TYPES,
    encode,
    parse_request,
)
from repro.specs import (
    CampaignSpec,
    FaultSpec,
    NetworkRef,
    SamplerSpec,
    ServiceSpec,
    spec_from_dict,
)

FAST = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BASE = {
    "op": "submit",
    "spec": CampaignSpec(
        network=NetworkRef(
            builder="mlp",
            params={"input_dim": 2, "hidden": [4, 3], "seed": 5},
        ),
        sampler=SamplerSpec(kind="fixed", distribution=(1, 1)),
        fault=FaultSpec(kind="crash"),
        n_scenarios=64,
        batch=4,
        seed=3,
    ).to_dict(),
}
FRAME = encode(BASE)

#: Replacement leaves of every JSON type, including the values the
#: integer fields must reject (negative, float, bool, integral float).
SWAPS = st.sampled_from(
    [None, True, False, -1, 0, 1.5, 1e308, "x", "", [], {}, [1], {"a": 1}]
)


def _paths(node, prefix=()):
    """Every key path of a JSON tree, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


#: Every key and list index of the frame: the drop and swap targets.
PATHS = list(_paths(BASE))


def _parent(tree, path):
    for key in path[:-1]:
        tree = tree[key]
    return tree


def _mutated(tree, path, value=None, drop=False):
    tree = json.loads(json.dumps(tree))
    parent = _parent(tree, path)
    if drop and isinstance(parent, dict):
        del parent[path[-1]]
    elif drop:
        parent.pop(path[-1])
    else:
        parent[path[-1]] = value
    return encode(tree)


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "svc.sock"
    with ServiceThread(ServiceSpec(socket=str(path))) as svc:
        yield svc


def _exchange(client: ServiceClient, line: bytes) -> dict:
    """Send one raw frame; the one terminal it gets, then a pong."""
    client._connect()
    client._sock.sendall(line)
    while True:
        message = client._read()  # checks JSON and the protocol version
        if message["type"] in TERMINAL_TYPES:
            break
        assert message["type"] in ("accepted", "chunk", "adaptive")
    assert client.ping()["type"] == "pong"  # nothing else was queued
    return message


def _check(daemon, line: bytes) -> None:
    with ServiceClient(daemon.spec.socket) as client:
        first = _exchange(client, line)
        second = _exchange(client, line)
    assert first["protocol"] == PROTOCOL_VERSION
    assert first["type"] in ("result", "error"), first
    assert second["type"] == first["type"]
    if first["type"] == "result":
        assert second["result"] == first["result"]
        assert second["cached"] is True
    else:
        assert second["kind"] == first["kind"]
    for frame, spec_hash in list(daemon._frames.items()):
        request = parse_request(frame)
        assert spec_from_dict(request["spec"]).content_hash() == spec_hash


@FAST
@given(
    position=st.integers(0, len(FRAME) - 2),
    flip=st.integers(1, 255),
)
def test_byte_flips(daemon, position, flip):
    byte = FRAME[position] ^ flip
    if byte == ord("\n"):  # a newline would split the frame in two
        byte ^= 0x80
    _check(daemon, FRAME[:position] + bytes([byte]) + FRAME[position + 1:])


@FAST
@given(cut=st.integers(0, len(FRAME) - 1))
def test_truncations(daemon, cut):
    _check(daemon, FRAME[:cut] + b"\n")


@FAST
@given(path=st.sampled_from(PATHS))
def test_dropped_keys(daemon, path):
    _check(daemon, _mutated(BASE, path, drop=True))


@FAST
@given(path=st.sampled_from(PATHS), value=SWAPS)
def test_type_swaps(daemon, path, value):
    _check(daemon, _mutated(BASE, path, value))
