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

import json
import threading
import time

import numpy as np
import pytest

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
from repro.service.protocol import ProtocolError, parse_request
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
        assert stops[0]["n_scenarios"] == payload["adaptive"]["n_scenarios"]

    def test_malformed_spec_is_a_typed_error(self, service):
        with client_for(service) as client:
            client._request(
                {"op": "submit", "spec": {"spec": "campaign"}, "stream": False}
            )
            message = client._read()
        assert message["type"] == "error"
        assert message["kind"] == "spec"

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
                    target=lambda: ServiceClient(svc_spec.socket).submit(
                        blocker()
                    )
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


class TestAdmissionControl:
    def test_full_queue_sheds_with_typed_rejected(self, tmp_path):
        svc_spec = ServiceSpec(
            socket=str(tmp_path / "svc.sock"), max_inflight=1, queue_depth=1
        )
        with ServiceThread(svc_spec) as svc:
            hold = threading.Thread(
                target=lambda: ServiceClient(svc_spec.socket).submit(blocker())
            )
            hold.start()
            while svc._queue is None or not svc._jobs:
                time.sleep(0.005)
            filler = threading.Thread(
                target=lambda: ServiceClient(svc_spec.socket).submit(
                    campaign(n_scenarios=1024, seed=21)
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
                target=lambda: ServiceClient(svc_spec.socket).submit(
                    blocker(seed=99)
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
