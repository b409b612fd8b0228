"""CI smoke test for the service daemon: one full client round trip.

``make serve-smoke`` boots the daemon on a throwaway unix socket,
submits one streamed campaign (asserting at least one ``chunk`` event
arrives before the ``result``) and checks that its stored record
``runs/<hash>.json`` is the canonical compact JSON of the loaded
record — the daemon splices its once-encoded result into the record.
It repeats the same submission and asserts it comes back from the
cache with a bitwise-identical error vector, submits one crash-fault
campaign (the sparse zero-channel scatter) and checks it bitwise
against a direct ``repro.run``, then shuts the daemon down with a
drain and checks the ack.
It then restarts the daemon on the same ``results_dir`` and asserts a
third submission is answered from the store tier
(``repro_service_cache_hits{tier="store"}`` = 1), again bitwise equal.
Exit code 0 means the serve path — admission, engine hand-off,
streaming, record layout, memory and store caching, drain — works end
to end on this platform.

Run from the repo root::

    PYTHONPATH=src python benchmarks/serve_smoke.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.artifacts import ArtifactStore
from repro.service import ServiceClient, ServiceThread
from repro.specs import (
    CampaignSpec,
    FaultSpec,
    NetworkRef,
    SamplerSpec,
    ServiceSpec,
    run,
)


def _bits(terminal) -> bytes:
    """The raw float64 bytes of a campaign terminal's error vector."""
    return np.asarray(terminal["result"]["errors"], dtype=np.float64).tobytes()


def _campaign(fault: FaultSpec, seed: int) -> CampaignSpec:
    return CampaignSpec(
        network=NetworkRef(
            builder="mlp", params={"input_dim": 4, "hidden": [12, 8], "seed": 1}
        ),
        sampler=SamplerSpec(kind="fixed", distribution=(2, 1)),
        fault=fault,
        n_scenarios=2048,
        seed=seed,
    )


def main() -> int:
    spec = _campaign(FaultSpec(kind="stuck", value=0.0), seed=7)
    crash = _campaign(FaultSpec(kind="crash"), seed=11)
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

                store = ArtifactStore(svc_spec.results_dir)
                spec_hash = spec.content_hash()
                record = store.load_run_result(spec_hash)
                canonical = json.dumps(
                    record, sort_keys=True, separators=(",", ":")
                ) + "\n"
                assert store.run_result_path(spec_hash).read_bytes() == (
                    canonical.encode("utf-8")
                ), "stored record is not the canonical compact JSON"
                assert record["result"] == first["result"], record
                print("stored record: canonical bytes")

                second = client.submit(spec)
                assert second["type"] == "result", second
                assert second["cached"], "repeat submission missed the cache"
                assert second["result"] == first["result"], (
                    "cached result drifted from the evaluated one"
                )
                print("cached repeat: bitwise identical")

                crashed = client.submit(crash)
                assert crashed["type"] == "result", crashed
                direct = np.asarray(run(crash).errors, dtype=np.float64)
                assert _bits(crashed) == direct.tobytes(), (
                    "served crash campaign drifted from the direct run"
                )
                print("crash campaign: bitwise identical to direct run")

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
