"""A served round pays only for its own work.

``ServiceClient.run()`` resolves only the results and notifications the
target recorded since the previous run, the client's default arrival
never falls behind the target's clock, and the post-drain wear
publication reads maintained totals instead of scanning every frame --
on a single node and on a cluster alike.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.cluster import ClusterConfig, ClusterRouter
from repro.memsim.mainmem import MainMemory
from repro.service import (
    BitmapQueryService,
    ResultHandle,
    ServiceClient,
    SubscriptionHandle,
)


def vectors(seed=0, n=4, bits=512):
    rng = np.random.default_rng(seed)
    return {
        f"v{i}": rng.integers(0, 2, bits, dtype=np.uint8) for i in range(n)
    }


def make_service():
    return BitmapQueryService()


def make_cluster():
    return ClusterRouter(ClusterConfig(n_nodes=2))


TARGETS = pytest.mark.parametrize(
    "make_target", [make_service, make_cluster], ids=["service", "cluster"]
)


def loaded_client(make_target):
    client = ServiceClient(make_target())
    for tenant in ("t", "u"):
        client.register_tenant(tenant)
        client.load_vectors(tenant, vectors(seed=len(tenant)))
    return client


def memories(target):
    """Every functional memory behind a serving target."""
    nodes = getattr(target, "nodes", None)
    services = [n.service for n in nodes.values()] if nodes else [target]
    return [s.engine.runtime.system.memory for s in services]


def counter(name):
    return telemetry.counter(name).value


def play_round(client, round_index):
    """A few queries, an update and a query on the other tenant."""
    handles = [
        client.query("t", "and", ("v0", "v1")),
        client.query("t", "or", ("v1", "v2", "v3")),
        client.update("t", "v0", vectors(seed=10 + round_index)["v1"]),
        client.query("u", "xor", ("v2", "v3")),
    ]
    client.run()
    return handles


class TestIncrementalResolution:
    @TARGETS
    def test_each_result_resolved_exactly_once(self, make_target, monkeypatch):
        calls = {}
        resolve = ResultHandle._resolve

        def counting(handle, result):
            calls[handle.request_id] = calls.get(handle.request_id, 0) + 1
            resolve(handle, result)

        monkeypatch.setattr(ResultHandle, "_resolve", counting)
        client = loaded_client(make_target)
        first = play_round(client, 0)
        second = play_round(client, 1)
        client.run()  # nothing new: resolves nothing
        handles = first + second
        assert all(h.done for h in handles)
        assert calls == {h.request_id: 1 for h in handles}

    @TARGETS
    def test_notification_lists_mirror_the_target_log(self, make_target):
        client = loaded_client(make_target)
        subs = [
            client.subscribe("t", "xor", ("v0", "v1")),
            client.subscribe("t", "and", ("v0", "v2")),
        ]
        client.run()
        for round_index in range(3):
            play_round(client, round_index)
        log = client.target.notifications
        for sub in subs:
            assert isinstance(sub, SubscriptionHandle) and sub.active
            expected = [n for n in log if n.subscription_id == sub.request_id]
            assert sub.notifications == expected
            assert len({id(n) for n in sub.notifications}) == len(expected)
            # snapshot plus one delta per update of v0
            assert [n.seq for n in sub.notifications] == [0, 1, 2, 3]


class TestDefaultArrivalAfterRun:
    @TARGETS
    def test_query_run_query_run_without_at(self, make_target):
        client = loaded_client(make_target)
        first = client.query("t", "and", ("v0", "v1"))
        client.run()
        now = client.target.loop.now
        assert now > 0
        second = client.query("t", "or", ("v1", "v2"))
        assert second.request.arrival_s == now
        client.run()
        assert first.completed and second.completed
        assert client.target.verify_results() == 2


class TestWearPublication:
    @TARGETS
    def test_wear_counters_track_frame_writes(self, make_target):
        total0 = counter("runtime.wear.total_writes")
        frames0 = counter("runtime.wear.frames_written")
        writes0 = counter("memsim.mainmem.frame_writes")
        client = loaded_client(make_target)
        for round_index in range(4):
            play_round(client, round_index)
            written = counter("memsim.mainmem.frame_writes") - writes0
            assert written > 0
            assert counter("runtime.wear.total_writes") - total0 == written
            mems = memories(client.target)
            assert sum(m.total_writes for m in mems) == written
            assert counter("runtime.wear.frames_written") - frames0 == sum(
                len(m.write_histogram()) for m in mems
            )

    @TARGETS
    def test_finalize_never_scans_the_histogram(self, make_target, monkeypatch):
        def scan(self):
            raise AssertionError("finalize() scanned the write histogram")

        monkeypatch.setattr(MainMemory, "write_histogram", scan)
        client = loaded_client(make_target)
        for round_index in range(3):
            handles = play_round(client, round_index)
            assert all(h.completed for h in handles)
