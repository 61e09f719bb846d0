"""The HTTP + WebSocket surface, driven through a live server on a
threads fleet (fast; the processes leg is the integration suite's)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.service.app import ServiceApp
from repro.service.client import ServiceClient, ServiceError
from repro.service.run_manager import RunState

SMALL = {
    "model": "lotka-volterra",
    "config": {"n_simulations": 4, "t_end": 3.0, "sample_every": 0.25,
               "quantum": 1.0, "window_size": 6, "window_slide": 6,
               "kmeans_k": 2, "seed": 3},
}

SLOW = {
    "model": "lotka-volterra",
    "config": {"n_simulations": 64, "t_end": 60.0, "sample_every": 0.2,
               "quantum": 0.5, "window_size": 50, "window_slide": 50,
               "kmeans_k": 2, "seed": 4},
}


@pytest.fixture(scope="module")
def app():
    with ServiceApp(port=0, n_workers=2, backend="threads")\
            .start_background() as served:
        yield served


@pytest.fixture(scope="module")
def client(app):
    return ServiceClient(*app.address)


class TestRunLifecycle:
    def test_submit_status_stream_complete(self, client):
        run_id = client.submit(SMALL)
        assert run_id.startswith("run-")
        events = list(client.stream(run_id))
        assert events[-1]["type"] == "end"
        assert events[-1]["state"] == RunState.DONE
        windows = [e for e in events if e["type"] == "window"]
        assert windows
        assert [w["seq"] for w in windows] == \
            list(range(1, len(windows) + 1))
        status = client.status(run_id)
        assert status["state"] == RunState.DONE
        assert status["windows_emitted"] == len(windows)
        assert status["fleet"] is None  # tenant released after the run

    def test_stream_replays_after_completion(self, client):
        """A subscriber attaching after the run ended sees the whole
        stream -- and it is identical on every attach."""
        run_id = client.submit(SMALL)
        live = list(client.stream(run_id))
        replay_one = list(client.stream(run_id))
        replay_two = list(client.stream(run_id))
        assert live == replay_one == replay_two

    def test_runs_listing_includes_submissions(self, client):
        run_id = client.submit(SMALL)
        client.wait(run_id)
        assert run_id in {r["run_id"] for r in client.runs()}

    def test_cancel_stops_mid_run(self, client):
        run_id = client.submit(SLOW)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if client.status(run_id)["state"] == RunState.RUNNING:
                break
            time.sleep(0.01)
        status = client.cancel(run_id)
        assert status["cancel_requested"]
        end = [e for e in client.stream(run_id) if e["type"] == "end"][0]
        assert end["state"] == RunState.CANCELLED
        # cancelled well short of the full run
        full = SLOW["config"]["t_end"] / SLOW["config"]["sample_every"] \
            / SLOW["config"]["window_size"]
        assert end["windows_streamed"] < full

    def test_steer_stop_equals_cancel(self, client):
        run_id = client.submit(SLOW)
        status = client.steer(run_id, {"action": "stop"})
        assert status["cancel_requested"]
        end = list(client.stream(run_id))[-1]
        assert end["state"] == RunState.CANCELLED

    def test_steer_repriority_reports_moves(self, client):
        run_id = client.submit(SLOW)
        try:
            status = client.steer(run_id, {"action": "repriority"})
            assert "reprioritized" in status
        finally:
            client.cancel(run_id)
            client.wait(run_id)

    def test_concurrent_streams_of_one_run_agree(self, client):
        run_id = client.submit(SMALL)
        streams: list = [None, None]

        def consume(slot):
            streams[slot] = list(client.stream(run_id))

        threads = [threading.Thread(target=consume, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert streams[0] == streams[1]
        assert streams[0][-1]["type"] == "end"


class TestErrorSurface:
    def test_unknown_run_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.status("run-999999")
        assert err.value.status == 404

    def test_bad_spec_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit({"model": "not-a-model"})
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client.submit({"model": "toggle", "config": {"backend":
                                                         "cluster"}})
        assert err.value.status == 400

    def test_bad_steer_action_400(self, client):
        run_id = client.submit(SMALL)
        client.wait(run_id)
        with pytest.raises(ServiceError) as err:
            client.steer(run_id, {"action": "warp"})
        assert err.value.status == 400

    def test_unknown_route_404_and_method_405(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/nope")
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client._request("DELETE", "/runs")
        assert err.value.status == 405

    def test_stream_without_upgrade_426(self, client):
        run_id = client.submit(SMALL)
        client.wait(run_id)
        with pytest.raises(ServiceError) as err:
            client._request("GET", f"/runs/{run_id}/stream")
        assert err.value.status == 426

    def test_fleet_endpoint(self, client):
        stats = client.fleet()
        assert stats["backend"] == "threads"
        assert stats["n_workers"] == 2
        assert "swept_at_start" in stats

    def test_failed_run_reports_error(self):
        """A run that explodes after validation must surface as a failed
        run with its error in the end event, not a hung one.  (Driven
        through the manager: the HTTP layer validates model names, so
        the build-time failure needs an in-process path.)"""
        from repro.service.fleet import SharedFleet
        from repro.service.protocol import RunSpec
        from repro.service.run_manager import RunManager

        spec = RunSpec.from_jsonable(SMALL)
        spec.model = "vanished"  # validated name removed before build
        fleet = SharedFleet(1, backend="threads").start()
        manager = RunManager(fleet)
        try:
            handle = manager.submit(spec)
            assert handle.wait(timeout=30)
            assert handle.state == RunState.FAILED
            assert "vanished" in handle.error
            end = handle.events()[-1]
            assert end["type"] == "end"
            assert end["state"] == RunState.FAILED
        finally:
            manager.close()
            fleet.close()


def test_service_cli_has_no_transport_flag():
    from repro.service.__main__ import main
    with pytest.raises(SystemExit):
        main(["--no-zero-copy"])
