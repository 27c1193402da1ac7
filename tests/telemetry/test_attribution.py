"""End-to-end attribution: spans reconcile with the cost accounting.

The controller spans are the *leaves* that carry simulated cost on the
functional path, so summing them must reproduce the runtime's own
accounting exactly -- the invariant the ``trace_fig10`` CLI gates CI on.
"""

import pytest

from repro import telemetry
from repro.core.pinatubo import PinatuboSystem
from repro.memsim.geometry import MemoryGeometry
from repro.runtime.api import PimRuntime

GEOM = MemoryGeometry(
    channels=1, ranks_per_channel=1, chips_per_rank=1, banks_per_chip=2,
    subarrays_per_bank=4, rows_per_subarray=32, mats_per_subarray=1,
    cols_per_mat=512, mux_ratio=8,
)


def _run_workload() -> PimRuntime:
    import numpy as np

    rt = PimRuntime(PinatuboSystem.pcm(geometry=GEOM))
    n = GEOM.row_bits
    rng = np.random.default_rng(3)
    handles = [rt.pim_malloc(n) for _ in range(4)]
    for h in handles:
        rt.pim_write(h, rng.integers(0, 2, n, dtype=np.uint8))
    dest = rt.pim_malloc(n)
    rt.pim_op("or", dest, handles[:3])
    rt.pim_op("and", dest, [handles[0], handles[1]])
    rt.pim_op_many([
        ("xor", dest, [handles[2], handles[3]]),
        ("inv", dest, [handles[0]]),
    ])
    rt.pim_read(dest)
    return rt


def _controller_span_totals():
    agg = telemetry.aggregate()["spans"]
    latency = sum(
        s["latency_s"] for n, s in agg.items()
        if n.startswith("memsim.controller.")
    )
    energy = sum(
        s["energy_j"] for n, s in agg.items()
        if n.startswith("memsim.controller.")
    )
    return latency, energy


class TestAttributionReconciles:
    def test_controller_spans_match_runtime_accounting(self, tracer):
        rt = _run_workload()
        latency, energy = _controller_span_totals()
        assert energy == pytest.approx(rt.total_energy(), rel=1e-9)
        assert latency == pytest.approx(rt.total_latency(), rel=1e-9)
        assert energy > 0

    def test_parent_spans_do_not_double_count(self, tracer):
        _run_workload()
        agg = telemetry.aggregate()["spans"]
        # the flush/app layers above the controller carry no energy of
        # their own: attribution happens once, at the leaf that knows it
        assert agg["runtime.driver.flush"]["energy_j"] == 0.0

    def test_span_forest_covers_the_stack(self, tracer):
        _run_workload()
        spans = telemetry.aggregate()["spans"]
        names = set(spans)
        assert "runtime.driver.flush" in names
        # single ops are streams of one: 2 pim_op + 1 pim_op_many
        assert spans["core.executor.bitwise_many"]["count"] == 3
        assert "core.executor.bitwise" not in names
        assert any(n.startswith("memsim.controller.") for n in names)

    def test_driver_counters_track_requests(self, tracer):
        _run_workload()
        counters = telemetry.aggregate()["counters"]
        # 2 pim_op + 1 pim_op_many(2 requests) = 4 requests
        assert counters["runtime.driver.requests"] == 4
        assert counters["runtime.driver.flushes"] >= 3
        assert counters["runtime.driver.mode_switches"] >= 1

    def test_telemetry_does_not_change_simulated_cost(self, tracer):
        rt_traced = _run_workload()
        traced_energy = rt_traced.total_energy()
        tracer.configure(enabled=False)
        rt_plain = _run_workload()
        assert rt_plain.total_energy() == traced_energy
        assert rt_plain.total_latency() == rt_traced.total_latency()
