"""CI smoke test for the service daemon: one full client round trip.

``make serve-smoke`` boots the daemon on a throwaway unix socket,
submits one streamed campaign (asserting at least one ``chunk`` event
arrives before the ``result``) and checks that its stored record
``runs/<hash>.json`` is the canonical compact JSON of the loaded
record — the daemon splices its once-encoded result into the record.
It repeats the same submission and asserts it comes back from the
cache with a bitwise-identical error vector, then resends that submit
as identical raw bytes and asserts the frame memo answers it
(``repro_service_frame_hits`` = 1) with a byte-identical terminal
frame.  It submits one crash-fault
campaign (the sparse zero-channel scatter) and checks it bitwise
against a direct ``repro.run``, then shuts the daemon down with a
drain and checks the ack.
It then restarts the daemon on the same ``results_dir`` and asserts a
third submission is answered from the store tier
(``repro_service_cache_hits{tier="store"}`` = 1), again bitwise equal.
Last, it boots the real entry point, ``python -m repro serve``, as a
child process, prints the seconds from its spawn to its first pong
(reported, never asserted), and submits a certified survival spec
— the daemon's first scipy import, on a job thread — asserting the
served answer equals a direct ``repro.run``, then drains it and checks
the ack and the exit code.
Exit code 0 means the serve path — admission, engine hand-off,
streaming, record layout, memory and store caching, the frame memo,
drain — works end to end on this platform.

Run from the repo root::

    PYTHONPATH=src python benchmarks/serve_smoke.py
"""

from __future__ import annotations

import contextlib
import json
import os
import socket as sockets
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.artifacts import ArtifactStore
from repro.service import ServiceClient, ServiceThread, ServiceUnavailable
from repro.service.protocol import TERMINAL_TYPES, encode, result_payload
from repro.specs import (
    CampaignSpec,
    FaultSpec,
    NetworkRef,
    SamplerSpec,
    ServiceSpec,
    SurvivalSpec,
    run,
)

SRC = Path(__file__).resolve().parent.parent / "src"
#: Seconds the child daemon gets to answer its first ping.
START_TIMEOUT_S = 60.0


def _bits(terminal) -> bytes:
    """The raw float64 bytes of a campaign terminal's error vector."""
    return np.asarray(terminal["result"]["errors"], dtype=np.float64).tobytes()


def _raw_terminal(path: str, line: bytes) -> bytes:
    """Send one raw frame on a fresh connection; the terminal's bytes."""
    with contextlib.closing(
        sockets.socket(sockets.AF_UNIX, sockets.SOCK_STREAM)
    ) as sock:
        sock.connect(path)
        sock.sendall(line)
        with sock.makefile("rb") as reader:
            while True:
                frame = reader.readline()
                if json.loads(frame)["type"] in TERMINAL_TYPES:
                    return frame


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


def _wait_for_pong(
    proc: subprocess.Popen, socket: str, log: Path, t0: float
) -> float:
    """Seconds from ``t0`` (the spawn) until the child daemon answers a
    ping."""
    while True:
        if proc.poll() is not None:
            raise RuntimeError(
                f"daemon exited with {proc.returncode}: "
                + log.read_text(errors="replace")[-2000:]
            )
        try:
            with ServiceClient(socket, connect_timeout=1.0) as client:
                if client.ping().get("type") == "pong":
                    return time.perf_counter() - t0
        except (ServiceUnavailable, ConnectionError):
            pass
        if time.perf_counter() - t0 > START_TIMEOUT_S:
            raise RuntimeError("daemon did not answer a ping in time")
        time.sleep(0.01)


def _child_daemon(tmp: Path) -> None:
    """``python -m repro serve`` in a child process: pong, a certified
    survival job, drain."""
    socket = str(tmp / "child.sock")
    log = tmp / "child.log"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    t0 = time.perf_counter()
    with open(log, "wb") as out:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", socket,
             "--results-dir", str(tmp / "child-results")],
            env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=out,
        )
    try:
        # Reported for the CI log, never asserted: a cold-start figure
        # from run to run, on whatever host the run had.
        print(f"child daemon: spawn -> first pong "
              f"{_wait_for_pong(proc, socket, log, t0):.3f} s")
        survival = SurvivalSpec(
            network=NetworkRef(
                builder="mlp",
                params={"input_dim": 4, "hidden": [12, 8], "seed": 1},
            ),
            p_fail=0.05, epsilon=0.5, epsilon_prime=0.1,
            method="certified",
        )
        with ServiceClient(socket) as client:
            served = client.submit(survival)
            assert served["type"] == "result", served
            direct = result_payload(survival, run(survival))
            assert served["result"] == direct, (served["result"], direct)
            print("certified survival: served equals direct run")
            ack = client.shutdown(drain=True)
        assert ack["type"] == "shutdown-ack", ack
        assert proc.wait(timeout=30) == 0, log.read_text(errors="replace")
        print("child daemon: drained shutdown, exit 0")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


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
        with ServiceThread(svc_spec) as service:
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

                # The hot submit as raw bytes: the parse path answers
                # it from the cache and memoises the frame, then the
                # identical resend is answered by the memo, unparsed.
                hot = encode({"op": "submit", "spec": spec.to_dict()})
                parsed = _raw_terminal(svc_spec.socket, hot)
                second = json.loads(parsed)
                assert second["type"] == "result", second
                assert second["cached"], "repeat submission missed the cache"
                assert second["result"] == first["result"], (
                    "cached result drifted from the evaluated one"
                )
                print("cached repeat: bitwise identical")
                assert service.metrics.value(
                    "repro_service_frame_hits"
                ) is None, "a first sight of a frame hit the memo"
                memoised = _raw_terminal(svc_spec.socket, hot)
                assert memoised == parsed, (
                    "the memo's terminal frame differs from the parse path's"
                )
                frame_hits = service.metrics.value("repro_service_frame_hits")
                assert frame_hits == 1, frame_hits
                print("identical resend: frame-memo hit, byte-identical "
                      "terminal")

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

        _child_daemon(Path(tmp))
    print("serve smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
