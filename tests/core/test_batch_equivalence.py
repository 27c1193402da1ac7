"""Batched pricing must agree with the reference interpreter.

The executor emits every operation as one :class:`CommandBatch` priced
by ``MemoryController.execute_batch``.  The scalar
``MemoryController.execute`` is kept as the reference interpreter: each
batch the executor emits is captured through ``record_sink`` and
re-priced one fenced segment at a time through ``execute`` on a fresh
controller.  The two must show

- identical command counts and per-kind energy breakdowns,
- latency and energy within 1e-12 relative,
- identical bus ledgers,

and the memory contents must equal a numpy oracle.
"""

import numpy as np
import pytest

from repro.core.executor import PlacementError
from repro.core.pinatubo import PinatuboSystem
from repro.memsim.address import OpLocality, RowAddress
from repro.memsim.controller import (
    Command,
    CommandBatch,
    CommandKind,
    ExecutionStats,
    MemoryController,
)
from repro.memsim.geometry import MemoryGeometry
from repro.memsim.timing import nvm_timing
from repro.nvm.technology import get_technology

REL = 1e-12

GEOM = MemoryGeometry(
    channels=2,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=2,
    subarrays_per_bank=4,
    rows_per_subarray=64,
    mats_per_subarray=1,
    cols_per_mat=2048,
    mux_ratio=8,
)


_KINDS = tuple(CommandKind)

_UFUNCS = {"or": np.bitwise_or, "and": np.bitwise_and, "xor": np.bitwise_xor}


def make_system(max_rows=4) -> PinatuboSystem:
    return PinatuboSystem(get_technology("pcm"), GEOM, max_rows=max_rows)


def subarray_frames(system: PinatuboSystem, bank: int, sub: int) -> list:
    base = system.mapper.encode(RowAddress(0, 0, bank, sub, 0))
    return list(range(base, base + GEOM.rows_per_subarray))


def fill_frames(systems, frames, seed):
    """Write identical random rows into every system's frames."""
    rng = np.random.default_rng(seed)
    for frame in frames:
        data = rng.integers(0, 256, size=GEOM.row_bytes).astype(np.uint8)
        for system in systems:
            system.memory.write_frame(frame, data)


def assert_accounting_equal(a, b):
    assert a.latency == pytest.approx(b.latency, rel=REL)
    assert a.energy == pytest.approx(b.energy, rel=REL)
    assert a.in_memory_steps == b.in_memory_steps
    assert a.bus_commands == b.bus_commands
    assert a.bus_data_bytes == b.bus_data_bytes
    assert a.bits_processed == b.bits_processed
    assert a.locality_counts == b.locality_counts
    assert set(a.energy_by_kind) == set(b.energy_by_kind)
    for kind, e in a.energy_by_kind.items():
        assert e == pytest.approx(b.energy_by_kind[kind], rel=REL)


def assert_result_equal(a, b):
    assert a.op == b.op
    assert a.steps == b.steps
    assert a.localities == b.localities
    assert_accounting_equal(a.accounting, b.accounting)


def segments_of(batch, start=0, stop=None):
    """The batch's commands in ``[start, stop)`` as one :class:`Command`
    list per fenced segment."""
    stop = len(batch) if stop is None else stop
    out = []
    last = None
    for i in range(start, stop):
        if batch.segments[i] != last:
            out.append([])
            last = batch.segments[i]
        out[-1].append(
            Command(
                _KINDS[batch.kinds[i]],
                channel=batch.channels[i],
                n_bits=batch.n_bits[i],
                n_steps=batch.n_steps[i],
                transfer_bytes=batch.transfer_bytes[i],
            )
        )
    return out


def reference_price(controller, batch, start=0, stop=None) -> ExecutionStats:
    """Re-price ``batch[start:stop]`` through the reference interpreter,
    one ``execute`` call per fenced segment (segment latencies add)."""
    total = ExecutionStats()
    for commands in segments_of(batch, start, stop):
        total = total.merged(controller.execute(commands))
    return total


def op_ranges(batch):
    """``(start, stop)`` command range of every marked operation."""
    bounds = list(batch.op_starts) + [len(batch)]
    return list(zip(bounds[:-1], bounds[1:]))


def assert_stats_match(acct, ref):
    """An executor accounting against its reference re-pricing."""
    assert acct.latency == pytest.approx(ref.latency, rel=REL)
    assert acct.energy == pytest.approx(ref.energy, rel=REL)
    assert acct.bus_commands == ref.bus.commands
    assert acct.bus_data_bytes == ref.bus.data_bytes
    assert set(acct.energy_by_kind) == set(ref.energy_by_kind)
    for kind, e in acct.energy_by_kind.items():
        assert e == pytest.approx(ref.energy_by_kind[kind], rel=REL)


def assert_batch_matches_reference(batch):
    """execute_batch and segment-wise execute agree on a recorded batch."""
    timing = nvm_timing(get_technology("pcm"))
    batched = MemoryController(GEOM, timing).execute_batch(batch)
    ref = reference_price(MemoryController(GEOM, timing), batch)
    assert batched.counts == ref.counts
    assert batched.latency == pytest.approx(ref.latency, rel=REL)
    assert batched.energy == pytest.approx(ref.energy, rel=REL)
    assert set(batched.energy_by_kind) == set(ref.energy_by_kind)
    for kind, e in batched.energy_by_kind.items():
        assert e == pytest.approx(ref.energy_by_kind[kind], rel=REL)


def assert_buses_match(controller, ref_controller):
    for bus_a, bus_b in zip(controller.buses, ref_controller.buses):
        assert bus_a.stats.commands == bus_b.stats.commands
        assert bus_a.stats.data_bytes == bus_b.stats.data_bytes
        assert bus_a.stats.busy_time == pytest.approx(bus_b.stats.busy_time, rel=REL)
        assert bus_a.stats.energy == pytest.approx(bus_b.stats.energy, rel=REL)


def oracle_rows(op, rows):
    """Numpy oracle of one combine over packed rows."""
    if op == "inv":
        return np.bitwise_not(rows[0])
    return _UFUNCS[op].reduce(np.stack(rows), axis=0)


def assert_systems_equal(sys_a, sys_b, frames):
    for frame in frames:
        assert np.array_equal(
            sys_a.memory.frame_bytes(frame), sys_b.memory.frame_bytes(frame)
        )
    for bus_a, bus_b in zip(sys_a.controller.buses, sys_b.controller.buses):
        assert bus_a.stats.commands == bus_b.stats.commands
        assert bus_a.stats.data_bytes == bus_b.stats.data_bytes
        assert bus_a.stats.busy_time == pytest.approx(bus_b.stats.busy_time, rel=REL)
        assert bus_a.stats.energy == pytest.approx(bus_b.stats.energy, rel=REL)


class TestControllerLevel:
    """execute() vs execute_batch() on the same fenced stream."""

    @pytest.fixture
    def timing(self):
        return nvm_timing(get_technology("pcm"))

    def _random_segments(self, seed, n_segments=7):
        rng = np.random.default_rng(seed)
        kinds = list(CommandKind)
        segments = []
        for _ in range(n_segments):
            commands = []
            for _ in range(rng.integers(1, 9)):
                kind = kinds[rng.integers(0, len(kinds))]
                commands.append(
                    Command(
                        kind,
                        channel=int(rng.integers(0, GEOM.channels)),
                        n_bits=int(rng.integers(0, 4096)),
                        n_steps=int(rng.integers(1, 9)),
                        transfer_bytes=int(rng.integers(0, 512)),
                    )
                )
            segments.append(commands)
        return segments

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_matches_segmented_execute(self, timing, seed):
        from repro.memsim.controller import MemoryController

        ctrl_a = MemoryController(GEOM, timing)
        ctrl_b = MemoryController(GEOM, timing)
        segments = self._random_segments(seed)

        total_a = None
        for commands in segments:
            stats = ctrl_a.execute(commands)
            total_a = stats if total_a is None else total_a.merged(stats)

        batch = CommandBatch()
        for commands in segments:
            batch.extend(commands)
            batch.fence()
        total_b = ctrl_b.execute_batch(batch)

        assert total_a.latency == pytest.approx(total_b.latency, rel=REL)
        assert total_a.energy == pytest.approx(total_b.energy, rel=REL)
        assert total_a.counts == total_b.counts
        assert set(total_a.energy_by_kind) == set(total_b.energy_by_kind)
        for kind, e in total_a.energy_by_kind.items():
            assert e == pytest.approx(total_b.energy_by_kind[kind], rel=REL)
        assert total_a.bus.commands == total_b.bus.commands
        assert total_a.bus.data_bytes == total_b.bus.data_bytes
        assert total_a.bus.busy_time == pytest.approx(total_b.bus.busy_time, rel=REL)
        for bus_a, bus_b in zip(ctrl_a.buses, ctrl_b.buses):
            assert bus_a.stats.commands == bus_b.stats.commands
            assert bus_a.stats.busy_time == pytest.approx(
                bus_b.stats.busy_time, rel=REL
            )

    def test_split_ops_sums_to_total(self, timing):
        from repro.memsim.controller import MemoryController

        ctrl = MemoryController(GEOM, timing)
        batch = CommandBatch()
        for commands in self._random_segments(9, n_segments=5):
            batch.mark()
            batch.extend(commands)
            batch.fence()
        total, per_op = ctrl.execute_batch(batch, split_ops=True)
        assert len(per_op) == 5
        assert sum(s.latency for s in per_op) == pytest.approx(
            total.latency, rel=REL
        )
        assert sum(s.energy for s in per_op) == pytest.approx(total.energy, rel=REL)
        merged_counts = {}
        for s in per_op:
            for kind, n in s.counts.items():
                merged_counts[kind] = merged_counts.get(kind, 0) + n
        assert merged_counts == total.counts

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_single_op_split_is_the_total(self, timing, seed):
        """A stream of one prices exactly like the unsplit batch, so a
        single op costs the same whether or not it was split."""
        from repro.memsim.controller import MemoryController

        batch = CommandBatch()
        batch.mark()
        for commands in self._random_segments(seed, n_segments=12):
            batch.extend(commands)
            batch.fence()
        total = MemoryController(GEOM, timing).execute_batch(batch)
        _, (alone,) = MemoryController(GEOM, timing).execute_batch(
            batch, split_ops=True
        )
        assert alone.latency == total.latency
        assert alone.energy == total.energy
        assert alone.energy_by_kind == total.energy_by_kind
        assert alone.bus.busy_time == total.bus.busy_time
        assert alone.bus.energy == total.bus.energy


class TestExecutorLevel:
    """Every batch the executor emits, re-priced through the reference
    interpreter, matches the executor's own accounting."""

    @pytest.fixture(autouse=True)
    def _reference_controllers(self):
        self.refs = {}

    def _run(self, system, call, *args, **kwargs):
        """Run one executor call with batch recording; returns the call's
        result, the recorded batches and the system's reference
        controller (the one its batches are re-priced on)."""
        system.executor.record_sink = recorded = []
        try:
            out = call(*args, **kwargs)
        finally:
            system.executor.record_sink = None
        ref_ctrl = self.refs.setdefault(
            id(system), MemoryController(GEOM, system.timing)
        )
        for entry in recorded:
            assert_batch_matches_reference(entry[1])
        return out, [entry[1] for entry in recorded], ref_ctrl

    def _check_bitwise(self, system, *args, **kwargs):
        result, batches, ref_ctrl = self._run(
            system, system.executor.bitwise, *args, **kwargs
        )
        assert len(batches) == 1
        ref = reference_price(ref_ctrl, batches[0])
        assert_stats_match(result.accounting, ref)
        assert_buses_match(system.controller, ref_ctrl)
        return result

    def test_wide_or_with_accumulation(self):
        system = make_system(max_rows=4)
        frames = subarray_frames(system, bank=0, sub=0)
        sources = [[f] for f in frames[:10]]
        dest = [frames[10]]
        fill_frames((system,), frames[:10], seed=1)
        expect = oracle_rows("or", [system.memory.frame_bytes(f) for f in frames[:10]])
        res = self._check_bitwise(system, "or", dest, sources, GEOM.row_bits)
        assert res.steps > 1  # accumulation actually decomposed
        assert np.array_equal(system.memory.frame_bytes(dest[0]), expect)

    @pytest.mark.parametrize("op,n_src", [("and", 2), ("xor", 2), ("inv", 1)])
    def test_two_operand_ops(self, op, n_src):
        system = make_system()
        frames = subarray_frames(system, bank=0, sub=0)
        fill_frames((system,), frames[: n_src], seed=2)
        expect = oracle_rows(op, [system.memory.frame_bytes(f) for f in frames[:n_src]])
        sources = [[f] for f in frames[:n_src]]
        dest = [frames[n_src]]
        self._check_bitwise(system, op, dest, sources, GEOM.row_bits)
        assert np.array_equal(system.memory.frame_bytes(dest[0]), expect)

    @pytest.mark.parametrize("overlap", [False, True])
    def test_multi_chunk_vector(self, overlap):
        system = make_system()
        frames = subarray_frames(system, bank=0, sub=0)
        n_bits = 2 * GEOM.row_bits + 100  # 3 chunks, last one partial
        src1, src2, dest = frames[0:3], frames[3:6], frames[6:9]
        fill_frames((system,), src1 + src2, seed=3)
        mem = system.memory
        expect = [
            oracle_rows("or", [mem.frame_bytes(a), mem.frame_bytes(b)])
            for a, b in zip(src1, src2)
        ]
        self._check_bitwise(
            system, "or", dest, [src1, src2], n_bits, overlap_chunks=overlap
        )
        for frame, rows in zip(dest, expect):
            assert np.array_equal(mem.frame_bytes(frame), rows)

    def test_inter_subarray_and_inter_bank(self):
        system = make_system()
        mem = system.memory
        f_sub0 = subarray_frames(system, bank=0, sub=0)
        f_sub1 = subarray_frames(system, bank=0, sub=1)
        f_bank1 = subarray_frames(system, bank=1, sub=0)
        fill_frames((system,), [f_sub0[0], f_sub1[0], f_bank1[0]], seed=4)
        a, b, c = (mem.frame_bytes(f) for f in (f_sub0[0], f_sub1[0], f_bank1[0]))
        # inter-subarray: sources in different subarrays of one bank
        res = self._check_bitwise(
            system, "or", [f_sub0[1]], [[f_sub0[0]], [f_sub1[0]]], GEOM.row_bits
        )
        assert set(res.localities) == {OpLocality.INTER_SUBARRAY}
        # inter-bank: sources in different banks of one chip
        res = self._check_bitwise(
            system, "and", [f_sub0[2]], [[f_sub0[0]], [f_bank1[0]]], GEOM.row_bits
        )
        assert set(res.localities) == {OpLocality.INTER_BANK}
        assert np.array_equal(mem.frame_bytes(f_sub0[1]), a | b)
        assert np.array_equal(mem.frame_bytes(f_sub0[2]), a & c)

    def _check_to_host(self, max_rows):
        system = make_system(max_rows=max_rows)
        frames = subarray_frames(system, bank=0, sub=0)
        fill_frames((system,), frames[:6], seed=5)
        sources = [[f] for f in frames[:6]]
        expect = oracle_rows("or", [system.memory.frame_bytes(f) for f in frames[:6]])
        (bits, res), batches, ref_ctrl = self._run(
            system, system.executor.bitwise_to_host,
            "or", [frames[6]], sources, GEOM.row_bits,
        )
        assert len(batches) == 1
        assert_stats_match(res.accounting, reference_price(ref_ctrl, batches[0]))
        assert_buses_match(system.controller, ref_ctrl)
        assert np.array_equal(bits, np.unpackbits(expect, bitorder="little"))
        return res

    def test_bitwise_to_host(self):
        # 6 operands over a 4-row limit: accumulation through the scratch row
        assert self._check_to_host(max_rows=4).steps == 2

    def test_bitwise_to_host_single_step(self):
        # within the sensing limit: the row-parallel fast path
        assert self._check_to_host(max_rows=8).steps == 1

    def test_host_vector_paths(self):
        """write_vector/read_vector batches (not recorded: they carry no
        bitwise op) re-priced through the reference interpreter."""
        system = make_system()
        frames = subarray_frames(system, bank=0, sub=0)
        rng = np.random.default_rng(6)
        n_bits = GEOM.row_bits + 77
        bits = rng.integers(0, 2, size=n_bits).astype(np.uint8)
        priced = []
        execute_batch = system.controller.execute_batch
        system.controller.execute_batch = lambda batch, **kw: (
            priced.append(batch) or execute_batch(batch, **kw)
        )
        ref_ctrl = MemoryController(GEOM, system.timing)
        acct = system.executor.write_vector(frames[:2], bits)
        assert_stats_match(acct, reference_price(ref_ctrl, priced[-1]))
        out, racct = system.executor.read_vector(frames[:2], n_bits)
        assert_stats_match(racct, reference_price(ref_ctrl, priced[-1]))
        assert len(priced) == 2
        for batch in priced:
            assert_batch_matches_reference(batch)
        assert_buses_match(system.controller, ref_ctrl)
        assert np.array_equal(out, bits)


class TestBitwiseMany:
    def _workload(self, system):
        frames = subarray_frames(system, bank=0, sub=0)
        return frames, [
            ("or", [frames[8]], [[frames[0]], [frames[1]], [frames[2]]],
             GEOM.row_bits),
            ("and", [frames[9]], [[frames[8]], [frames[3]]], GEOM.row_bits),
            ("xor", [frames[10]], [[frames[9]], [frames[4]]], GEOM.row_bits),
            ("inv", [frames[11]], [[frames[10]]], GEOM.row_bits),
        ]

    def test_stream_matches_sequential(self):
        sys_a = make_system()
        sys_b = make_system()
        frames, requests = self._workload(sys_a)
        fill_frames((sys_a, sys_b), frames[:5], seed=7)
        seq = [sys_a.executor.bitwise(*req) for req in requests]
        many = sys_b.executor.bitwise_many(requests)
        assert len(many) == len(seq)
        for res_a, res_b in zip(seq, many):
            assert_result_equal(res_a, res_b)
        assert_systems_equal(sys_a, sys_b, frames[:12])

    def test_stream_matches_reference_per_op(self):
        """Each marked operation of one stream, re-priced alone through
        the reference interpreter, matches its split-out result; the
        written rows match a numpy oracle of the dependent chain."""
        system = make_system()
        frames, requests = self._workload(system)
        fill_frames((system,), frames[:5], seed=7)
        rows = {f: system.memory.frame_bytes(f) for f in frames[:5]}
        system.executor.record_sink = recorded = []
        results = system.executor.bitwise_many(requests)
        system.executor.record_sink = None
        assert [entry[0] for entry in recorded] == ["many"]
        batch = recorded[0][1]
        assert_batch_matches_reference(batch)
        ref_ctrl = MemoryController(GEOM, system.timing)
        for result, (start, stop) in zip(results, op_ranges(batch)):
            assert_stats_match(
                result.accounting, reference_price(ref_ctrl, batch, start, stop)
            )
        assert_buses_match(system.controller, ref_ctrl)
        for op, dest, sources, _n in requests:
            rows[dest[0]] = oracle_rows(op, [rows[s[0]] for s in sources])
            assert np.array_equal(system.memory.frame_bytes(dest[0]), rows[dest[0]])

    def test_placement_prevalidation_leaves_state_untouched(self):
        system = make_system()
        frames = subarray_frames(system, bank=0, sub=0)
        fill_frames((system,), frames[:2], seed=8)
        # second request spans channels -> inter-chip -> PlacementError
        other_channel = system.mapper.encode(RowAddress(1, 0, 0, 0, 0))
        requests = [
            ("or", [frames[4]], [[frames[0]], [frames[1]]], GEOM.row_bits),
            ("or", [frames[5]], [[frames[0]], [other_channel]], GEOM.row_bits),
        ]
        before = system.memory.frame_bytes(frames[4])
        writes_before = system.memory.total_writes
        with pytest.raises(PlacementError):
            system.executor.bitwise_many(requests)
        assert np.array_equal(system.memory.frame_bytes(frames[4]), before)
        assert system.memory.total_writes == writes_before
        for bus in system.controller.buses:
            assert bus.stats.commands == 0


class TestOneEmissionPath:
    """The serving stack prices everything through ``execute_batch``:
    nothing above the reference interpreter calls scalar ``execute``."""

    @staticmethod
    def _scalar_calls():
        from repro.memsim.controller import perf_counters

        return (
            perf_counters.streams,
            perf_counters.scalar_commands,
            perf_counters.cache_hits + perf_counters.cache_misses,
        )

    def test_runtime_and_service_make_no_scalar_execute_calls(self):
        from repro.runtime.api import PimRuntime
        from repro.service import BitmapQueryService, ServiceClient

        before = self._scalar_calls()
        rng = np.random.default_rng(12)
        n = 2 * GEOM.row_bits + 100
        for plan in (False, True):
            rt = PimRuntime(make_system(), plan=plan)
            vecs = [rt.pim_malloc(n, "g") for _ in range(4)]
            data = [rng.integers(0, 2, n, dtype=np.uint8) for _ in vecs]
            for handle, bits in zip(vecs, data):
                rt.pim_write(handle, bits)
            a, b, c, d = vecs
            out = [rt.pim_malloc(n, "g") for _ in range(4)]
            rt.pim_op("or", out[0], [a, b])          # single ops
            rt.pim_op("and", out[1], [c, d])
            rt.pim_op("inv", out[2], [a])
            rt.pim_op_many([("xor", out[3], [a, c]), ("or", out[2], [b, d])])
            assert np.array_equal(rt.pim_read(out[0]), data[0] | data[1])
            scratch = rt.pim_malloc(n, "g")
            bits = rt.pim_op_to_host("and", scratch, [a, b])
            assert np.array_equal(bits, data[0] & data[1])
            assert rt.pim_popcount("or", scratch, [c, d]) == int(
                (data[2] | data[3]).sum()
            )
            if plan:
                # overwrite a leaf of the cached OR entry while the mode
                # register holds AND: the repair issues its own MRS
                rt.pim_op("and", out[1], [c, d])
                rt.pim_write(a, rng.integers(0, 2, n, dtype=np.uint8))
                assert rt.plan_stats.repairs >= 1

        service = BitmapQueryService()
        client = ServiceClient(service)
        client.register_tenant("t")
        n_svc = 4096
        client.load_vectors(
            "t", {f"v{i}": rng.integers(0, 2, n_svc, dtype=np.uint8) for i in range(3)}
        )
        client.load_bitslice_column(
            "t", "x", rng.integers(0, 16, n_svc).astype(np.int64), 4
        )
        sub = client.subscribe("t", "or", ("v0", "v1"))
        client.query("t", "and", ("v0", "v1"))
        client.query("t", "xor", ("v1", "v2"))
        client.update("t", "v0", rng.integers(0, 2, n_svc, dtype=np.uint8))
        client.analyze("t", [("cmp", "x", "ge", 5, 4)], ("count",))
        client.run()
        assert sub.notifications

        assert self._scalar_calls() == before
