"""The campaign service: spec, protocol, daemon lifecycle, CLI hygiene.

The serving contract under test (DESIGN.md, ninth subsystem):

* daemon answers are **bitwise identical** to a direct ``repro.run``;
* N concurrent submissions of one content hash cost one engine run
  (coalescing), repeats after completion cost zero (cache);
* overload and shutdown produce *typed* terminals — rejected/timeout —
  never a hung socket;
* ``repro submit`` exits non-zero with a one-line diagnostic on dead
  daemons and malformed specs.
"""

import asyncio
import gc
import json
import socket
import threading
import time
import warnings

import numpy as np
import pytest

from repro.artifacts import ArtifactStore
from repro.cli import main
from repro.service import (
    CampaignService,
    JobRejected,
    ServiceClient,
    ServiceThread,
    ServiceUnavailable,
    result_payload,
    summarize_result,
)
from repro.service import daemon as daemon_mod
from repro.service.daemon import RUN_RECORD_VERSION, _Job
from repro.service.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    TERMINAL_TYPES,
    ProtocolError,
    encode,
    encode_result,
    parse_request,
    result_frame,
)
from repro.specs import (
    CampaignSpec,
    ChaosSpec,
    FaultSpec,
    NetworkRef,
    ProcessSpec,
    SamplerSpec,
    ServiceSpec,
    SpecError,
    StoppingSpec,
    SurvivalSpec,
    run,
    save_spec,
)

NET = NetworkRef(
    builder="mlp", params={"input_dim": 4, "hidden": [12, 8], "seed": 1}
)


def campaign(n_scenarios=2048, seed=7, **kw):
    base = dict(
        network=NET,
        sampler=SamplerSpec(kind="fixed", distribution=(2, 1)),
        fault=FaultSpec(kind="stuck", value=0.0),
        n_scenarios=n_scenarios,
        seed=seed,
    )
    base.update(kw)
    return CampaignSpec(**base)


#: Top-level campaign values the spec parsers must reject: a wrong type
#: that trips a comparison, and integer fields handed a negative seed,
#: a float, a bool or an integral float.
BAD_TOP_LEVEL = {
    "batch": ("batch", "x"),
    "n_scenarios": ("n_scenarios", [1]),
    "seed-negative": ("seed", -1),
    "seed-float": ("seed", 1.5),
    "batch-1e308": ("batch", 1e308),
    "n_scenarios-bool": ("n_scenarios", True),
}
DAMAGES = list(BAD_TOP_LEVEL) + ["sampler", "components", "tag"]


def badly_typed(damage):
    """A campaign payload with one wrongly typed value."""
    payload = campaign().to_dict()
    if damage in BAD_TOP_LEVEL:
        key, value = BAD_TOP_LEVEL[damage]
        payload[key] = value
    elif damage == "components":
        payload["sampler"]["components"] = 5
    elif damage == "tag":
        payload["spec"] = ["campaign"]
    else:
        payload["sampler"]["distribution"] = "ab"
    return payload


#: Long enough (~0.7s) that admission/coalescing races resolve
#: deterministically while it occupies the single runner.
def blocker(seed=991):
    return campaign(n_scenarios=150_000, seed=seed)


@pytest.fixture
def service(tmp_path):
    spec = ServiceSpec(
        socket=str(tmp_path / "svc.sock"),
        max_inflight=2,
        queue_depth=8,
        results_dir=str(tmp_path / "results"),
    )
    with ServiceThread(spec) as svc:
        yield svc


def client_for(svc: CampaignService) -> ServiceClient:
    return ServiceClient(svc.spec.socket)


def submit_once(socket_path: str, spec) -> dict:
    """Submit ``spec`` on a connection of its own, closed afterwards."""
    with ServiceClient(socket_path) as client:
        return client.submit(spec)


class TestServiceSpec:
    def test_round_trip(self):
        spec = ServiceSpec(
            socket="s.sock", max_inflight=4, queue_depth=16,
            job_timeout=2.5, results_dir="r",
        )
        assert ServiceSpec.from_dict(spec.to_dict()) == spec

    def test_optional_fields_are_omitted_when_none(self):
        payload = ServiceSpec().to_dict()
        for field in ("socket", "host", "port", "job_timeout",
                      "results_dir"):
            assert field not in payload

    def test_socket_and_port_are_exclusive(self):
        with pytest.raises(SpecError, match="mutually exclusive"):
            ServiceSpec(socket="s.sock", host="127.0.0.1", port=7777)

    def test_host_needs_port(self):
        with pytest.raises(SpecError, match="set together"):
            ServiceSpec(host="127.0.0.1")
        with pytest.raises(SpecError, match="set together"):
            ServiceSpec(port=7777)

    def test_host_must_be_loopback(self):
        with pytest.raises(SpecError, match="loopback"):
            ServiceSpec(host="0.0.0.0", port=7777)

    @pytest.mark.parametrize(
        "kw",
        [
            {"max_inflight": 0},
            {"queue_depth": -1},
            {"job_timeout": 0.0},
            {"port": 70000, "host": "127.0.0.1"},
            {"cache_entries": -1},
            {"cache_entries": 1.5},
            {"max_inflight": True},
            {"port": 8080.0, "host": "127.0.0.1"},
        ],
    )
    def test_bounds_rejected(self, kw):
        with pytest.raises(SpecError):
            ServiceSpec(**kw)


class TestProtocol:
    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            parse_request(b'{"op": "launch"}')

    def test_unknown_keys_rejected(self):
        with pytest.raises(ProtocolError, match="unknown keys"):
            parse_request(b'{"op": "ping", "extra": 1}')

    def test_non_object_frame_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_request(b"[1, 2]")
        with pytest.raises(ProtocolError, match="not valid JSON"):
            parse_request(b"{nope")

    def test_submit_payload_validated(self):
        with pytest.raises(ProtocolError, match="'spec' object"):
            parse_request(b'{"op": "submit"}')
        with pytest.raises(ProtocolError, match="stream"):
            parse_request(b'{"op": "submit", "spec": {}, "stream": 1}')
        with pytest.raises(ProtocolError, match="timeout"):
            parse_request(b'{"op": "submit", "spec": {}, "timeout": -1}')

    def test_result_payload_re_encoding_is_stable(self):
        spec = campaign(n_scenarios=256)
        payload = result_payload(spec, run(spec))
        wire = json.dumps(payload, sort_keys=True)
        assert json.dumps(json.loads(wire), sort_keys=True) == wire

    @pytest.mark.parametrize("kind", ["campaign", "adaptive", "certified",
                                      "monte_carlo", "chaos"])
    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("coalesced", [False, True])
    def test_result_frame_splice_equals_encode(self, kind, cached, coalesced):
        spec = {
            "campaign": lambda: campaign(n_scenarios=256),
            "adaptive": lambda: campaign(
                n_scenarios=4096, threshold=0.02,
                stopping=StoppingSpec(method="hoeffding", target_ci=0.05),
            ),
            "certified": lambda: SurvivalSpec(
                network=NET, p_fail=0.05, epsilon=0.5, epsilon_prime=0.1
            ),
            "monte_carlo": lambda: SurvivalSpec(
                network=NET, p_fail=0.05, epsilon=0.5, epsilon_prime=0.1,
                method="monte_carlo", n_trials=256, seed=3,
            ),
            "chaos": lambda: ChaosSpec(
                network=NET, epsilon=0.5, epsilon_prime=0.1,
                processes=(ProcessSpec(kind="lifetime", rate=0.1),),
                epochs=4, replicas=3, batch=4, seed=3,
            ),
        }[kind]()
        payload = result_payload(spec, run(spec))
        frame = {
            "type": "result", "protocol": PROTOCOL_VERSION,
            "cached": cached, "coalesced": coalesced, "result": payload,
        }
        spliced = result_frame(
            encode_result(payload), cached=cached, coalesced=coalesced
        )
        assert spliced == encode(frame)

    def test_summarize_result_covers_every_kind(self):
        camp = campaign(n_scenarios=256)
        assert "campaign" in summarize_result(result_payload(camp, run(camp)))
        surv = SurvivalSpec(
            network=NET, p_fail=0.05, epsilon=0.5, epsilon_prime=0.1
        )
        assert "survival" in summarize_result(result_payload(surv, run(surv)))


class TestServedResults:
    def test_campaign_bitwise_identical_to_direct_run(self, service):
        spec = campaign()
        direct = np.asarray(run(spec).errors, dtype=np.float64)
        with client_for(service) as client:
            served = np.array(client.result(spec)["errors"])
        assert served.dtype == np.float64
        assert np.array_equal(served, direct)

    def test_survival_certified_identical(self, service):
        spec = SurvivalSpec(
            network=NET, p_fail=0.05, epsilon=0.5, epsilon_prime=0.1
        )
        with client_for(service) as client:
            assert client.result(spec)["survival"] == run(spec)

    def test_chaos_report_identical(self, service):
        spec = ChaosSpec(
            network=NET, epsilon=0.5, epsilon_prime=0.1,
            processes=(ProcessSpec(kind="lifetime", rate=0.1),),
            epochs=8, replicas=6, batch=4, seed=3,
        )
        direct = run(spec).to_dict()
        with client_for(service) as client:
            assert client.result(spec)["report"] == direct

    def test_streaming_rides_sample_blocks(self, service):
        spec = campaign(n_scenarios=2048)  # 2 SAMPLE_BLOCK chunks
        events = []
        with client_for(service) as client:
            client.result(spec, stream=True, on_event=events.append)
        chunks = [e for e in events if e["type"] == "chunk"]
        assert all(e["protocol"] == PROTOCOL_VERSION for e in events)
        assert [c["scenarios"] for c in chunks] == [1024, 1024]
        assert chunks[-1]["evaluated"] == 2048

    def test_streaming_reports_adaptive_stop(self, service):
        spec = campaign(
            n_scenarios=40_000,
            threshold=0.02,
            stopping=StoppingSpec(method="hoeffding", target_ci=0.05),
        )
        events = []
        with client_for(service) as client:
            payload = client.result(spec, stream=True, on_event=events.append)
        stops = [e for e in events if e["type"] == "adaptive"]
        assert len(stops) == 1
        assert stops[0]["protocol"] == PROTOCOL_VERSION
        assert stops[0]["n_scenarios"] == payload["adaptive"]["n_scenarios"]

    def test_malformed_spec_is_a_typed_error(self, service):
        with client_for(service) as client:
            client._request(
                {"op": "submit", "spec": {"spec": "campaign"}, "stream": False}
            )
            message = client._read()
        assert message["type"] == "error"
        assert message["kind"] == "spec"

    @pytest.mark.parametrize("damage", DAMAGES)
    def test_wrongly_typed_spec_value_is_a_typed_error(self, service, damage):
        """A value __post_init__ trips over with TypeError/ValueError, or
        a count/seed that is no integer in range, is a typed spec error
        with no ``accepted`` frame (no queue slot, no engine thread),
        and the connection stays usable."""
        payload = badly_typed(damage)
        with client_for(service) as client:
            client._request({"op": "submit", "spec": payload})
            message = client._read()
            assert message["type"] == "error"
            assert message["kind"] == "spec"
            assert client.ping()["type"] == "pong"

    def test_service_spec_itself_is_not_servable(self, service):
        with client_for(service) as client:
            client._request(
                {"op": "submit", "spec": ServiceSpec().to_dict(),
                 "stream": False}
            )
            message = client._read()
        assert message["type"] == "error"
        assert "not a servable workload" in message["detail"]


class TestFrameLimits:
    def test_frame_over_64_kib_gets_a_typed_terminal(self, service):
        """asyncio's default 64 KiB stream limit must not cap frames."""
        spec = {"spec": "campaign", "pad": "x" * 70_000}
        with client_for(service) as client:
            client._request({"op": "submit", "spec": spec, "stream": False})
            message = client._read()
        assert message["type"] == "error"
        assert message["kind"] == "spec"

    def test_over_limit_frame_is_a_typed_protocol_error(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr("repro.service.daemon.MAX_LINE_BYTES", 1024)
        spec = ServiceSpec(socket=str(tmp_path / "svc.sock"))
        with ServiceThread(spec) as svc, client_for(svc) as client:
            client._request({"op": "ping", "pad": "x" * 4096})
            message = client._read()
            assert message["type"] == "error"
            assert message["kind"] == "protocol"
            assert message["detail"] == "frame too large"
            with pytest.raises(ServiceUnavailable, match="closed"):
                client._read()


class TestCacheAndCoalesce:
    def test_second_submit_is_a_cache_hit_without_engine_run(self, service):
        spec = campaign(n_scenarios=1024)
        with client_for(service) as client:
            first = client.submit(spec)
            second = client.submit(spec)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["result"] == first["result"]
        assert service.metrics.value("repro_service_engine_runs") == 1
        assert service.metrics.value(
            "repro_service_cache_hits", tier="memory"
        ) == 1

    def test_store_tier_survives_a_daemon_restart(self, tmp_path):
        spec = campaign(n_scenarios=1024)
        results = str(tmp_path / "results")

        def one_daemon(n):
            svc_spec = ServiceSpec(
                socket=str(tmp_path / f"svc{n}.sock"), results_dir=results
            )
            return ServiceThread(svc_spec)

        with one_daemon(1) as first:
            with client_for(first) as client:
                fresh = client.submit(spec)
        with one_daemon(2) as second:
            with client_for(second) as client:
                repeat = client.submit(spec)
            assert second.metrics.value("repro_service_engine_runs") is None
            assert second.metrics.value(
                "repro_service_cache_hits", tier="store"
            ) == 1
        assert repeat["cached"] is True
        assert repeat["result"] == fresh["result"]

    def test_concurrent_identical_submits_coalesce_to_one_run(self, tmp_path):
        svc_spec = ServiceSpec(
            socket=str(tmp_path / "svc.sock"), max_inflight=1, queue_depth=8
        )
        target = campaign(n_scenarios=1024, seed=5)
        results = []

        def submit_target():
            with ServiceClient(svc_spec.socket) as client:
                results.append(client.submit(target))

        with ServiceThread(svc_spec) as svc:
            with ServiceClient(svc_spec.socket) as client:
                hold = threading.Thread(
                    target=lambda: submit_once(svc_spec.socket, blocker())
                )
                hold.start()
                while not svc._jobs:  # blocker admitted
                    time.sleep(0.005)
                threads = [
                    threading.Thread(target=submit_target) for _ in range(4)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                hold.join(timeout=30)
            # 2 engine runs total: the blocker and exactly one target
            # evaluation; the other three submits attached in flight
            # (coalesced) or answered from the fresh cache entry.
            assert svc.metrics.value("repro_service_engine_runs") == 2
            attached = svc.metrics.value("repro_service_coalesce_hits") or 0
            cached = svc.metrics.value(
                "repro_service_cache_hits", tier="memory"
            ) or 0
            assert attached + cached == 3
        payloads = [r["result"] for r in results]
        assert all(p == payloads[0] for p in payloads)

    def test_coalesced_terminal_carries_each_subscribers_flag(
        self, tmp_path
    ):
        svc_spec = ServiceSpec(
            socket=str(tmp_path / "svc.sock"), max_inflight=1, queue_depth=8
        )
        target = campaign(n_scenarios=1024, seed=5)
        submit = {"op": "submit", "spec": target.to_dict(), "stream": False}
        with ServiceThread(svc_spec) as svc:
            hold = threading.Thread(
                target=lambda: submit_once(svc_spec.socket, blocker())
            )
            hold.start()
            while not svc._jobs:  # blocker admitted, runner busy
                time.sleep(0.005)
            clients = [ServiceClient(svc_spec.socket) for _ in range(3)]
            accepted = []
            for client in clients:  # all three attach before the run
                client._request(submit)
                accepted.append(client._read())
            terminals = [client._read() for client in clients]
            for client in clients:
                client.close()
            hold.join(timeout=30)
        flags = [
            (a["coalesced"], t["coalesced"])
            for a, t in zip(accepted, terminals)
        ]
        assert flags == [(False, False), (True, True), (True, True)]
        assert all(t["result"] == terminals[0]["result"] for t in terminals)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: text[: len(text) // 2],  # truncated JSON
            lambda text: json.dumps(
                {k: v for k, v in json.loads(text).items() if k != "result"}
            ),
            lambda text: json.dumps(
                {**json.loads(text), "version": RUN_RECORD_VERSION + 1}
            ),
        ],
        ids=["truncated", "no-result", "wrong-version"],
    )
    def test_malformed_stored_record_is_a_miss(self, tmp_path, damage):
        spec = campaign(n_scenarios=1024)
        results = str(tmp_path / "results")
        store = ArtifactStore(results)
        path = store.run_result_path(spec.content_hash())

        def one_daemon(n):
            return ServiceThread(ServiceSpec(
                socket=str(tmp_path / f"svc{n}.sock"), results_dir=results
            ))

        with one_daemon(1) as first, client_for(first) as client:
            fresh = client.submit(spec)
        path.write_text(damage(path.read_text()))
        with one_daemon(2) as second:
            with client_for(second) as client:
                rerun = client.submit(spec)
            assert second.metrics.value("repro_service_engine_runs") == 1
            assert second.metrics.value(
                "repro_service_cache_hits", tier="store"
            ) is None
        assert rerun["type"] == "result"
        assert rerun["cached"] is False
        assert rerun["result"] == fresh["result"]
        # The fresh run overwrote the damaged record.
        assert store.load_run_result(spec.content_hash())["result"] == (
            fresh["result"]
        )

    def test_version_1_record_is_a_miss(self, tmp_path):
        """Version-1 records hold results of an older engine, which can
        differ from today's in the last ulp: serving one would break
        served == direct, so the daemon re-runs and overwrites it."""
        assert RUN_RECORD_VERSION == 2
        spec = campaign(n_scenarios=1024)
        spec_hash = spec.content_hash()
        direct = result_payload(spec, run(spec))
        stale = {  # one ulp off, like a result of the older engine
            **direct,
            "errors": [float(np.nextafter(e, 1.0)) for e in direct["errors"]],
        }
        store = ArtifactStore(tmp_path / "results")
        path = store.run_result_path(spec_hash)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({
            "version": 1, "spec_hash": spec_hash, "kind": spec.spec_tag,
            "spec": spec.to_dict(), "result": stale,
        }))
        svc_spec = ServiceSpec(
            socket=str(tmp_path / "svc.sock"),
            results_dir=str(tmp_path / "results"),
        )
        with ServiceThread(svc_spec) as svc, client_for(svc) as client:
            served = client.submit(spec)
            assert svc.metrics.value("repro_service_engine_runs") == 1
            assert svc.metrics.value(
                "repro_service_cache_hits", tier="store"
            ) is None
        assert served["cached"] is False
        assert served["result"] == direct
        record = store.load_run_result(spec_hash)
        assert record["version"] == RUN_RECORD_VERSION
        assert record["result"] == direct

    def test_indented_legacy_record_is_served_bitwise(self, tmp_path):
        """Records written in the old ``indent=2`` layout still answer
        from the store tier, byte-for-byte as the direct run encodes."""
        spec = campaign(n_scenarios=1024)
        spec_hash = spec.content_hash()
        direct = result_payload(spec, run(spec))
        store = ArtifactStore(tmp_path / "results")
        path = store.run_result_path(spec_hash)
        path.parent.mkdir(parents=True)
        record = {
            "version": RUN_RECORD_VERSION, "spec_hash": spec_hash,
            "kind": spec.spec_tag, "spec": spec.to_dict(), "result": direct,
        }
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        svc_spec = ServiceSpec(
            socket=str(tmp_path / "svc.sock"),
            results_dir=str(tmp_path / "results"),
        )
        with ServiceThread(svc_spec) as svc, client_for(svc) as client:
            client._request(
                {"op": "submit", "spec": spec.to_dict(), "stream": False}
            )
            assert client._read()["cached"] is True  # accepted
            line = client._reader.readline()
            assert svc.metrics.value(
                "repro_service_cache_hits", tier="store"
            ) == 1
            assert svc.metrics.value("repro_service_engine_runs") is None
        assert line == encode({
            "type": "result", "protocol": PROTOCOL_VERSION,
            "cached": True, "coalesced": False, "result": direct,
        })


class TestEncodeOnce:
    """A miss encodes its result once; metrics stay on the loop."""

    def test_miss_encodes_the_float_list_once(self, tmp_path, monkeypatch):
        n = 1024
        spec = campaign(n_scenarios=n, seed=41)
        calls = []
        real_dumps, real_encode = json.dumps, daemon_mod.encode_result

        def holds_errors(obj):
            if isinstance(obj, list):
                return len(obj) == n
            if isinstance(obj, dict):
                return any(holds_errors(v) for v in obj.values())
            return False

        def dumps(obj, *args, **kwargs):
            if holds_errors(obj):
                calls.append("json.dumps")
            return real_dumps(obj, *args, **kwargs)

        def encode_result(payload):
            calls.append("encode_result")
            return real_encode(payload)

        monkeypatch.setattr(json, "dumps", dumps)
        monkeypatch.setattr(daemon_mod, "encode_result", encode_result)
        svc_spec = ServiceSpec(
            socket=str(tmp_path / "svc.sock"),
            results_dir=str(tmp_path / "results"),
        )
        with ServiceThread(svc_spec) as svc, client_for(svc) as client:
            served = client.submit(spec)
            again = client.submit(spec)
        monkeypatch.undo()
        assert calls == ["encode_result", "json.dumps"]
        assert served["cached"] is False and again["cached"] is True
        path = svc.store.run_result_path(spec.content_hash())
        record = svc.store.load_run_result(spec.content_hash())
        assert record["result"] == served["result"]
        assert path.read_bytes() == (
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")

    def test_evaluate_leaves_metrics_to_the_loop(self, tmp_path):
        """The job thread must not insert metric families: the loop's
        ``metrics`` op walks the registry without a lock."""
        svc = CampaignService(
            ServiceSpec(
                socket=str(tmp_path / "svc.sock"),
                results_dir=str(tmp_path / "results"),
            )
        )
        spec = campaign(n_scenarios=256)
        job = _Job(spec, spec.content_hash(), None)
        result = svc._evaluate(job, lambda event: None)
        assert len(svc.metrics) == 0
        assert job.evaluated
        assert result == encode_result(result_payload(spec, run(spec)))

    def test_timed_out_run_is_counted_once_it_finishes(self, tmp_path):
        svc_spec = ServiceSpec(
            socket=str(tmp_path / "svc.sock"), max_inflight=1
        )
        with ServiceThread(svc_spec) as svc:
            with ServiceClient(svc_spec.socket) as client:
                first = client.submit(blocker(seed=79), timeout=0.05)
                runs_at_timeout = svc.metrics.value(
                    "repro_service_engine_runs"
                )
                second = client.submit(
                    campaign(n_scenarios=1024, seed=32), timeout=5.0
                )
            runs = svc.metrics.value("repro_service_engine_runs")
        assert first["type"] == "timeout"
        assert runs_at_timeout is None
        assert second["type"] == "result"
        assert runs == 2


class TestAdmissionControl:
    def test_full_queue_sheds_with_typed_rejected(self, tmp_path):
        svc_spec = ServiceSpec(
            socket=str(tmp_path / "svc.sock"), max_inflight=1, queue_depth=1
        )
        with ServiceThread(svc_spec) as svc:
            hold = threading.Thread(
                target=lambda: submit_once(svc_spec.socket, blocker())
            )
            hold.start()
            while svc._queue is None or not svc._jobs:
                time.sleep(0.005)
            filler = threading.Thread(
                target=lambda: submit_once(
                    svc_spec.socket, campaign(n_scenarios=1024, seed=21)
                )
            )
            filler.start()
            while svc._queue.qsize() < 1:  # filler occupies the only slot
                time.sleep(0.005)
            with ServiceClient(svc_spec.socket) as client:
                terminal = client.submit(campaign(n_scenarios=1024, seed=22))
                assert terminal["type"] == "rejected"
                assert terminal["reason"] == "queue-full"
                with pytest.raises(JobRejected):
                    client.result(campaign(n_scenarios=1024, seed=23))
            hold.join(timeout=30)
            filler.join(timeout=30)
            assert svc.metrics.value("repro_service_shed") >= 2

    def test_job_timeout_is_a_typed_terminal(self, tmp_path):
        svc_spec = ServiceSpec(
            socket=str(tmp_path / "svc.sock"),
            max_inflight=1,
            job_timeout=0.05,
        )
        with ServiceThread(svc_spec):
            with ServiceClient(svc_spec.socket) as client:
                terminal = client.submit(blocker(seed=77))
        assert terminal["type"] == "timeout"
        assert terminal["timeout_s"] == 0.05

    def test_timed_out_job_does_not_starve_the_next(self, tmp_path):
        # The abandoned blocker keeps the only executor thread busy for
        # ~0.7s; the next job must wait for it in the admission queue,
        # where its own 0.3s timeout has not started yet.
        svc_spec = ServiceSpec(
            socket=str(tmp_path / "svc.sock"), max_inflight=1
        )
        with ServiceThread(svc_spec):
            with ServiceClient(svc_spec.socket) as client:
                first = client.submit(blocker(seed=78), timeout=0.05)
                second = client.submit(
                    campaign(n_scenarios=1024, seed=31), timeout=0.3
                )
        assert first["type"] == "timeout"
        assert second["type"] == "result"

    def test_overload_burst_answers_every_client(self, tmp_path):
        # 256 simultaneous clients, 32 distinct specs, one runner and a
        # 2-slot queue: each reads one terminal, then a clean close.
        svc_spec = ServiceSpec(
            socket=str(tmp_path / "svc.sock"), max_inflight=1, queue_depth=2
        )
        specs = [campaign(n_scenarios=1024, seed=i % 32) for i in range(256)]

        async def one_client(spec):
            reader, writer = await asyncio.open_unix_connection(
                svc_spec.socket, limit=MAX_LINE_BYTES
            )
            writer.write(encode({"op": "submit", "spec": spec.to_dict()}))
            message = {}
            while message.get("type") not in TERMINAL_TYPES:
                line = await reader.readline()
                assert line, "daemon closed before a terminal"
                message = json.loads(line)
            writer.write_eof()
            assert await reader.read() == b""  # nothing after the terminal
            writer.close()
            await writer.wait_closed()
            return message["type"]

        async def burst():
            return await asyncio.gather(*map(one_client, specs))

        with ServiceThread(svc_spec) as svc:
            kinds = asyncio.run(burst())
            assert set(kinds) <= {"result", "rejected"}
            assert svc.metrics.value("repro_service_shed") > 0
            assert svc.metrics.value("repro_service_coalesce_hits") > 0

    def test_shutdown_drains_in_flight_jobs(self, tmp_path):
        svc_spec = ServiceSpec(
            socket=str(tmp_path / "svc.sock"), max_inflight=1
        )
        terminals = []

        def submit_slow():
            with ServiceClient(svc_spec.socket) as client:
                terminals.append(client.submit(blocker(seed=88)))

        with ServiceThread(svc_spec) as svc:
            worker = threading.Thread(target=submit_slow)
            worker.start()
            while not svc._jobs:
                time.sleep(0.005)
            with ServiceClient(svc_spec.socket) as client:
                ack = client.shutdown(drain=True)
            worker.join(timeout=30)
        assert ack["type"] == "shutdown-ack"
        assert ack["drained"] == 1
        assert terminals and terminals[0]["type"] == "result"

    def test_draining_daemon_rejects_new_submits(self, tmp_path):
        svc_spec = ServiceSpec(
            socket=str(tmp_path / "svc.sock"), max_inflight=1
        )
        with ServiceThread(svc_spec) as svc:
            hold = threading.Thread(
                target=lambda: submit_once(
                    svc_spec.socket, blocker(seed=99)
                )
            )
            hold.start()
            while not svc._jobs:
                time.sleep(0.005)
            down = threading.Thread(
                target=lambda: ServiceClient(svc_spec.socket).shutdown(
                    drain=True
                )
            )
            down.start()
            while not svc._draining:  # the ~0.7s blocker is still running
                time.sleep(0.005)
            with ServiceClient(svc_spec.socket) as client:
                terminal = client.submit(campaign(n_scenarios=1024, seed=9))
            hold.join(timeout=30)
            down.join(timeout=30)
        assert terminal["type"] == "rejected"
        assert terminal["reason"] == "shutting-down"


class TestServiceCLI:
    def test_submit_against_dead_daemon_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "camp.json"
        save_spec(campaign(), spec_path)
        rc = main(
            ["submit", str(spec_path), "--socket", str(tmp_path / "no.sock")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot reach repro service")
        assert len(err.strip().splitlines()) == 1

    def test_submit_malformed_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["submit", str(bad), "--socket", str(tmp_path / "no.sock")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_submit_unknown_spec_fields_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"spec": "campaign", "bogus": 1}\n')
        rc = main(["submit", str(bad), "--socket", str(tmp_path / "no.sock")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("damage", DAMAGES)
    @pytest.mark.parametrize("verb", ["campaign", "submit"])
    def test_wrongly_typed_spec_file_exits_2(
        self, tmp_path, capsys, verb, damage
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(badly_typed(damage)))
        if verb == "submit":
            argv = ["submit", str(bad), "--socket", str(tmp_path / "no.sock")]
        else:
            argv = ["campaign", "--spec", str(bad)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_shutdown_against_dead_daemon_exits_2(self, tmp_path, capsys):
        rc = main(["shutdown", "--socket", str(tmp_path / "no.sock")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_host_without_port_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "camp.json"
        save_spec(campaign(), spec_path)
        rc = main(["submit", str(spec_path), "--host", "127.0.0.1"])
        assert rc == 2
        assert "--host needs --port" in capsys.readouterr().err

    def test_serve_dump_spec_round_trips(self, tmp_path, capsys):
        rc = main(
            ["serve", "--socket", "svc.sock", "--max-inflight", "3",
             "--job-timeout", "1.5", "--dump-spec"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        spec = ServiceSpec.from_dict(payload)
        assert spec.max_inflight == 3
        assert spec.job_timeout == 1.5

    def test_serve_spec_conflicts_with_flags(self, tmp_path, capsys):
        spec_path = tmp_path / "svc.json"
        save_spec(ServiceSpec(socket="s.sock"), spec_path)
        rc = main(["serve", "--spec", str(spec_path), "--max-inflight", "3"])
        assert rc == 2
        assert "--spec conflicts with" in capsys.readouterr().err

    def test_serve_rejects_workload_specs(self, tmp_path, capsys):
        spec_path = tmp_path / "camp.json"
        save_spec(campaign(), spec_path)
        rc = main(["serve", "--spec", str(spec_path)])
        assert rc == 2
        assert "serve needs a ServiceSpec" in capsys.readouterr().err

    def test_submit_round_trip_against_live_daemon(self, tmp_path, capsys):
        spec_path = tmp_path / "camp.json"
        save_spec(campaign(n_scenarios=1024), spec_path)
        svc_spec = ServiceSpec(socket=str(tmp_path / "svc.sock"))
        with ServiceThread(svc_spec):
            rc = main(
                ["submit", str(spec_path), "--socket", svc_spec.socket]
            )
            captured = capsys.readouterr()
            assert rc == 0
            assert captured.out.startswith("[evaluated] campaign:")
            rc = main(
                ["submit", str(spec_path), "--socket", svc_spec.socket,
                 "--json"]
            )
            payload = json.loads(capsys.readouterr().out)
            assert payload["kind"] == "campaign"
            rc = main(["shutdown", "--socket", svc_spec.socket])
            assert rc == 0
            assert "service stopped" in capsys.readouterr().out


class TestTcpEndpoint:
    def test_loopback_tcp_serves_and_shuts_down(self, tmp_path):
        import socket as socket_mod

        with socket_mod.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        svc_spec = ServiceSpec(host="127.0.0.1", port=port)
        spec = campaign(n_scenarios=1024)
        direct = np.asarray(run(spec).errors, dtype=np.float64)
        with ServiceThread(svc_spec):
            with ServiceClient(host="127.0.0.1", port=port) as client:
                served = np.array(client.result(spec)["errors"])
                assert np.array_equal(served, direct)
                assert "repro_service_jobs" in client.metrics_text()
                client.shutdown()


def submit_line(spec, **extra) -> bytes:
    """The canonical submit frame perfbench and ServiceClient send."""
    return encode({"op": "submit", "spec": spec.to_dict(), **extra})


def conversation(client: ServiceClient, line: bytes) -> list:
    """Send one raw frame; every raw answer frame, terminal last."""
    client._connect()
    client._sock.sendall(line)
    frames = []
    while True:
        frames.append(client._reader.readline())
        if json.loads(frames[-1])["type"] in TERMINAL_TYPES:
            return frames


def without_frame_hits(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines()
        if "repro_service_frame_hits" not in line
    )


class TestFrameMemo:
    """A byte-identical repeat of a cache-hit submit frame skips the
    parse and is answered exactly as the parse path would answer it."""

    def test_memo_hit_matches_the_parse_paths_bytes_and_metrics(
        self, tmp_path
    ):
        spec = campaign(n_scenarios=1024, seed=21)
        line = submit_line(spec)
        reordered = json.dumps(
            {"spec": spec.to_dict(), "op": "submit"}
        ).encode() + b"\n"
        results = str(tmp_path / "results")

        def daemon(name):
            return ServiceThread(ServiceSpec(
                socket=str(tmp_path / f"{name}.sock"), results_dir=results
            ))

        with daemon("warm") as svc, client_for(svc) as client:
            assert client.submit(spec)["cached"] is False
        # Both daemons start from the same stored record, so neither
        # runs the engine: their metrics differ only by the memo hit.
        with daemon("memo") as memo, client_for(memo) as client:
            first = conversation(client, line)
            again = conversation(client, line)  # the memo answers
            memo_text = client.metrics_text()
        with daemon("parse") as parse, client_for(parse) as client:
            first_parsed = conversation(client, line)
            reparsed = conversation(client, reordered)  # new bytes: parse
            parse_text = client.metrics_text()
        assert first == first_parsed
        assert again == reparsed == first
        assert json.loads(again[-1])["cached"] is True
        assert memo.metrics.value("repro_service_frame_hits") == 1
        assert parse.metrics.value("repro_service_frame_hits") is None
        assert "repro_service_frame_hits_total 1" in memo_text
        assert without_frame_hits(memo_text) == without_frame_hits(parse_text)

    def test_reordered_or_respaced_frames_hit_through_the_parse_path(
        self, service
    ):
        spec = campaign(n_scenarios=1024, seed=22)
        payload = {"op": "submit", "spec": spec.to_dict()}
        variants = [
            submit_line(spec),
            json.dumps(payload, sort_keys=True).encode() + b"\n",  # spaces
            json.dumps(dict(reversed(payload.items()))).encode() + b"\n",
        ]
        with client_for(service) as client:
            client.submit(spec)
            terminals = [conversation(client, v)[-1] for v in variants]
            assert service.metrics.value("repro_service_frame_hits") is None
            assert conversation(client, variants[1])[-1] == terminals[0]
        assert len(set(terminals)) == 1
        assert json.loads(terminals[0])["cached"] is True
        assert service.metrics.value("repro_service_frame_hits") == 1
        assert service.metrics.value(
            "repro_service_cache_hits", tier="memory"
        ) == 4

    def test_memoised_frame_whose_result_was_evicted_is_rerun(
        self, tmp_path
    ):
        svc_spec = ServiceSpec(
            socket=str(tmp_path / "svc.sock"), cache_entries=1
        )
        target, other = campaign(seed=23), campaign(seed=24)
        line = submit_line(target)
        direct = result_payload(target, run(target))
        with ServiceThread(svc_spec) as svc, client_for(svc) as client:
            conversation(client, line)  # engine run
            conversation(client, line)  # parse-path hit: memoised
            assert list(svc._frames.values()) == [target.content_hash()]
            client.submit(other)  # evicts target's result
            rerun = json.loads(conversation(client, line)[-1])
            assert rerun["cached"] is False
            assert rerun["result"] == direct
            assert svc.metrics.value("repro_service_engine_runs") == 3
            assert svc.metrics.value("repro_service_frame_hits") is None
            conversation(client, line)  # memoised again ...
            hit = json.loads(conversation(client, line)[-1])  # ... and hit
            assert hit["cached"] is True and hit["result"] == direct
            assert svc.metrics.value("repro_service_frame_hits") == 1
            assert len(svc._frames) == 1

    def test_memo_holds_at_most_cache_entries_frames(self, tmp_path):
        svc_spec = ServiceSpec(
            socket=str(tmp_path / "svc.sock"), cache_entries=2
        )
        lines = [submit_line(campaign(n_scenarios=256, seed=s))
                 for s in (31, 32, 33)]
        with ServiceThread(svc_spec) as svc, client_for(svc) as client:
            for line in lines:
                conversation(client, line)  # engine run
                conversation(client, line)  # parse-path hit: memoised
            assert list(svc._frames) == lines[1:]  # the oldest went

    def test_malformed_and_error_frames_never_enter_the_memo(self, service):
        lines = [
            b"{not json\n",
            b'{"op":"submit"}\n',
            submit_line(campaign(), timeout=-1),
            b'{"op":"submit","spec":{"spec":"campaign"}}\n',
            encode({"op": "submit", "spec": badly_typed("seed-negative")}),
            encode({"op": "submit", "spec": ServiceSpec().to_dict()}),
            encode({"op": "ping"}),
        ]
        with client_for(service) as client:
            for line in lines + lines:
                client._connect()
                client._sock.sendall(line)
                assert client._read()["type"] in ("error", "pong")
        assert not service._frames
        assert service.metrics.value("repro_service_frame_hits") is None

    def test_cold_miss_does_not_enter_the_memo(self, service):
        spec = campaign(n_scenarios=1024, seed=25)
        with client_for(service) as client:
            conversation(client, submit_line(spec, stream=True))
            assert not service._frames
            conversation(client, submit_line(spec, stream=True))
        assert list(service._frames.values()) == [spec.content_hash()]

    def test_oversized_frames_are_not_memoised(self, service, monkeypatch):
        monkeypatch.setattr(daemon_mod, "FRAME_MEMO_MAX_BYTES", 64)
        spec = campaign(n_scenarios=1024, seed=26)
        with client_for(service) as client:
            for _ in range(3):
                conversation(client, submit_line(spec))
        assert not service._frames
        assert service.metrics.value(
            "repro_service_cache_hits", tier="memory"
        ) == 2

    def test_drain_waits_for_a_memo_hit_delivery(self, tmp_path):
        svc_spec = ServiceSpec(socket=str(tmp_path / "svc.sock"))
        spec = campaign(n_scenarios=1024, seed=27)
        line = submit_line(spec)
        gate, release = threading.Event(), threading.Event()
        terminals, acks = [], []

        with ServiceThread(svc_spec) as svc:
            write = svc._write

            async def held_write(writer, frame):
                if gate.is_set() and frame.endswith(b'"type":"result"}\n'):
                    while not release.is_set():
                        await asyncio.sleep(0.005)
                await write(writer, frame)

            svc._write = held_write
            with client_for(svc) as client:
                conversation(client, line)
                conversation(client, line)  # memoised
                gate.set()
                hit = threading.Thread(
                    target=lambda: terminals.append(
                        conversation(client, line)[-1]
                    )
                )
                hit.start()
                while not svc._deliveries:
                    time.sleep(0.005)
                down = threading.Thread(
                    target=lambda: acks.append(
                        ServiceClient(svc_spec.socket).shutdown(drain=True)
                    )
                )
                down.start()
                while not svc._draining:
                    time.sleep(0.005)
                time.sleep(0.05)
                assert not acks and not terminals  # held mid-delivery
                release.set()
                hit.join(timeout=30)
                down.join(timeout=30)
                assert not hit.is_alive() and not down.is_alive()
        assert json.loads(terminals[0])["cached"] is True
        assert acks[0]["type"] == "shutdown-ack"
        assert svc.metrics.value("repro_service_frame_hits") == 1


class _OneShotServer:
    """A unix-socket peer that answers the first request line with
    ``reply`` — a stand-in for a daemon that breaks the protocol."""

    def __init__(self, path: str, reply: bytes):
        self.path = path
        self.reply = reply
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(path)
        self._sock.listen(1)
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self):
        conn, _ = self._sock.accept()
        with conn, conn.makefile("rb") as reader:
            reader.readline()
            conn.sendall(self.reply)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._thread.join(timeout=10)
        self._sock.close()


class TestClientProtocol:
    @pytest.mark.parametrize(
        "reply,match",
        [
            (b'{"protocol":2,"type":"pong"}\n', "protocol 2"),
            (b'{"type":"pong"}\n', "protocol None"),
            (b'{"protocol":true,"type":"pong"}\n', "protocol True"),
            (b"\xff\xfe garbage\n", "not valid JSON"),
            (b"{not json\n", "not valid JSON"),
            (b"[1, 2]\n", "must be a JSON object"),
        ],
    )
    def test_bad_daemon_frame_is_a_protocol_error(
        self, tmp_path, reply, match
    ):
        path = str(tmp_path / "fake.sock")
        with _OneShotServer(path, reply), ServiceClient(path) as client:
            with pytest.raises(ProtocolError, match=match):
                client.ping()
            assert client._sock is None  # the stream is not trusted after

    def test_every_daemon_frame_carries_the_version(self, service):
        seen = []
        with client_for(service) as client:
            client.submit(campaign(n_scenarios=2048, seed=28), stream=True,
                          on_event=seen.append)
            seen += [client.ping(), client.shutdown(drain=True)]
        assert {m["type"] for m in seen} >= {
            "accepted", "chunk", "pong", "shutdown-ack"
        }
        assert all(m["protocol"] == PROTOCOL_VERSION for m in seen)

    def test_unreachable_endpoint_closes_its_socket(self, tmp_path):
        client = ServiceClient(tmp_path / "absent.sock", connect_timeout=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ServiceUnavailable, match="cannot reach"):
                client.ping()
            gc.collect()
        leaks = [w for w in caught if w.category is ResourceWarning]
        assert not leaks, leaks[0].message
