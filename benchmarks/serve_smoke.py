"""CI smoke test for the service daemon: one full client round trip.

``make serve-smoke`` boots the daemon on a throwaway unix socket,
submits one streamed campaign (asserting at least one ``chunk`` event
arrives before the ``result``), repeats the same submission and
asserts it comes back from the cache with a bitwise-identical error
vector, then shuts the daemon down with a drain and checks the ack.
It then restarts the daemon on the same ``results_dir`` and asserts a
third submission is answered from the store tier
(``repro_service_cache_hits{tier="store"}`` = 1), again bitwise equal.
Exit code 0 means the serve path — admission, engine hand-off,
streaming, memory and store caching, drain — works end to end on this
platform.

Run from the repo root::

    PYTHONPATH=src python benchmarks/serve_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.service import ServiceClient, ServiceThread
from repro.specs import CampaignSpec, FaultSpec, NetworkRef, SamplerSpec, ServiceSpec


def _bits(terminal) -> bytes:
    """The raw float64 bytes of a campaign terminal's error vector."""
    return np.asarray(terminal["result"]["errors"], dtype=np.float64).tobytes()


def main() -> int:
    spec = CampaignSpec(
        network=NetworkRef(
            builder="mlp", params={"input_dim": 4, "hidden": [12, 8], "seed": 1}
        ),
        sampler=SamplerSpec(kind="fixed", distribution=(2, 1)),
        fault=FaultSpec(kind="stuck", value=0.0),
        n_scenarios=2048,
        seed=7,
    )
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        svc_spec = ServiceSpec(
            socket=str(Path(tmp) / "smoke.sock"),
            max_inflight=2,
            queue_depth=8,
            job_timeout=60.0,
            results_dir=str(Path(tmp) / "results"),
        )
        with ServiceThread(svc_spec):
            with ServiceClient(svc_spec.socket) as client:
                events = []
                first = client.submit(
                    spec, stream=True, on_event=events.append
                )
                assert first["type"] == "result", first
                assert not first["cached"], "first run must hit the engine"
                chunks = [e for e in events if e.get("type") == "chunk"]
                assert chunks, "streamed submit produced no chunk events"
                n_errors = len(first["result"]["errors"])
                print(f"streamed run: {len(chunks)} chunks, "
                      f"{n_errors} scenario errors")

                second = client.submit(spec)
                assert second["type"] == "result", second
                assert second["cached"], "repeat submission missed the cache"
                assert second["result"] == first["result"], (
                    "cached result drifted from the evaluated one"
                )
                print("cached repeat: bitwise identical")

                ack = client.shutdown(drain=True)
                assert ack["type"] == "shutdown-ack", ack
                assert ack["drained"] == 0, ack
                print("drained shutdown: ack ok")

        with ServiceThread(svc_spec) as service:
            with ServiceClient(svc_spec.socket) as client:
                third = client.submit(spec)
                assert third["type"] == "result", third
                assert third["cached"], "restarted daemon missed the store"
                store_hits = service.metrics.value(
                    "repro_service_cache_hits", tier="store"
                )
                assert store_hits == 1, store_hits
                assert _bits(third) == _bits(first), (
                    "store-tier error vector drifted from the evaluated one"
                )
                print("restart, store-tier hit: bitwise identical")
                client.shutdown(drain=True)
    print("serve smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
