"""Engine microbenchmark: batched pricing vs the reference interpreter.

The perf-regression harness for the batched execution engine.  A fixed
FastBit workload -- bitmap vectors spanning **64 rank-row chunks**, a
stream of **100 conjunctive range queries** -- runs once through
``PimFastBit.query_many``, and every command batch the executor emits
is recorded through ``PinatuboExecutor.record_sink``.  The recorded
batches are then priced twice on fresh controllers:

- *batched*: one ``MemoryController.execute_batch`` per batch (the
  engine's own pricing);
- *per-command*: the reference interpreter, one
  ``MemoryController.execute`` call per fenced segment of each batch.

Both must give identical simulated cost -- exact counts and bus
ledgers, float totals within 1e-9 relative (summation order differs;
``tests/core/test_batch_equivalence.py`` holds small batches to
1e-12) -- and hits must match the numpy oracle.  The benchmark measures the *simulator's own*
wall-clock pricing throughput (commands/second) and asserts the
batched pricing is at least 3x faster.  Results land in
``BENCH_engine.json`` at the repo root.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.apps.fastbit import FastBitDB, RangeQuery
from repro.apps.fastbit_pim import PimFastBit
from repro.apps.star import ColumnSpec, synthetic_star_table
from repro.core.pinatubo import PinatuboSystem
from repro.memsim.controller import (
    Command,
    CommandKind,
    ExecutionStats,
    MemoryController,
)
from repro.memsim.geometry import MemoryGeometry
from repro.nvm.technology import get_technology
from repro.runtime.api import PimRuntime

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: small rank rows (1024 bits) so the index bitmaps span exactly 64 chunks
GEOM = MemoryGeometry(
    channels=1,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=8,
    subarrays_per_bank=32,
    rows_per_subarray=128,
    mats_per_subarray=1,
    cols_per_mat=1024,
    mux_ratio=8,
)

N_CHUNKS = 64
N_EVENTS = N_CHUNKS * GEOM.row_bits  # 65536 events -> 64 rows per bitmap
N_QUERIES = 100

COLUMNS = (
    ColumnSpec("energy", 16, "exponential"),
    ColumnSpec("charge", 8, "normal"),
)


def _queries(seed: int = 17) -> list:
    """100 two-predicate range queries (ranges >= 2 bins wide)."""
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(N_QUERIES):
        predicates = []
        for spec in COLUMNS:
            lo = int(rng.integers(0, spec.n_bins - 2))
            hi = int(rng.integers(lo + 1, spec.n_bins))
            predicates.append((spec.name, lo, hi))
        queries.append(RangeQuery(tuple(predicates)))
    return queries


_KINDS = tuple(CommandKind)

#: batches here run to thousands of commands, so the two pricings'
#: different float summation orders differ by ~1e-12; counts and bus
#: ledgers must match exactly
REL = 1e-9


def _segments(batch) -> list:
    """A recorded batch as one :class:`Command` list per fenced segment."""
    out = []
    last = None
    for kind, ch, n_bits, n_steps, transfer, seg in zip(
        batch.kinds, batch.channels, batch.n_bits, batch.n_steps,
        batch.transfer_bytes, batch.segments,
    ):
        if seg != last:
            out.append([])
            last = seg
        out[-1].append(Command(_KINDS[kind], channel=ch, n_bits=n_bits,
                               n_steps=n_steps, transfer_bytes=transfer))
    return out


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(abs(a), abs(b))


def _assert_same_cost(batched: ExecutionStats, ref: ExecutionStats) -> None:
    assert batched.counts == ref.counts
    assert batched.bus.commands == ref.bus.commands
    assert batched.bus.data_bytes == ref.bus.data_bytes
    assert _close(batched.latency, ref.latency)
    assert _close(batched.energy, ref.energy)
    assert set(batched.energy_by_kind) == set(ref.energy_by_kind)
    for kind, e in batched.energy_by_kind.items():
        assert _close(e, ref.energy_by_kind[kind])


def _run_engine_benchmark() -> dict:
    table = synthetic_star_table(N_EVENTS, columns=COLUMNS, seed=11)
    queries = _queries()

    # -- the workload, recording every emitted batch --------------------------
    system = PinatuboSystem(get_technology("pcm"), GEOM)
    db = PimFastBit(PimRuntime(system), table)
    system.executor.record_sink = recorded = []
    t0 = time.perf_counter()
    results = db.query_many(queries)
    workload_s = time.perf_counter() - t0
    system.executor.record_sink = None
    oracle = FastBitDB(table, functional=False)
    assert [r.hits for r in results] == [oracle.query_oracle(q) for q in queries]
    batches = [entry[1] for entry in recorded]
    n_commands = sum(len(b) for b in batches)

    # -- batched pricing of the recorded batches -----------------------------
    ctrl = MemoryController(GEOM, system.timing)
    t0 = time.perf_counter()
    batched = [ctrl.execute_batch(b) for b in batches]
    batched_s = time.perf_counter() - t0

    # -- reference interpreter: one execute per fenced segment ----------------
    segmented = [_segments(b) for b in batches]
    ref_ctrl = MemoryController(GEOM, system.timing)
    execute = ref_ctrl.execute
    t0 = time.perf_counter()
    reference = []
    for segments in segmented:
        total = ExecutionStats()
        for commands in segments:
            total = total.merged(execute(commands))
        reference.append(total)
    reference_s = time.perf_counter() - t0

    # both pricings must give identical simulated cost
    for stats_b, stats_r in zip(batched, reference):
        _assert_same_cost(stats_b, stats_r)

    sim_ops = sum(r.in_memory_steps for r in results)
    return {
        "workload": {
            "n_events": N_EVENTS,
            "chunks_per_vector": N_CHUNKS,
            "n_queries": N_QUERIES,
            "row_bits": GEOM.row_bits,
            "batches": len(batches),
            "commands": n_commands,
            "query_many_wall_s": workload_s,
            "queries_per_s": N_QUERIES / workload_s,
            "sim_ops_per_s": sim_ops / workload_s,
        },
        "per_command": {
            "wall_s": reference_s,
            "commands_priced": n_commands,
            "commands_per_s": n_commands / reference_s,
        },
        "batched": {
            "wall_s": batched_s,
            "commands_priced": n_commands,
            "commands_per_s": n_commands / batched_s,
        },
        "speedup": reference_s / batched_s,
    }


def _write_result(result: dict) -> None:
    try:
        from benchmarks.bench_io import write_bench
    except ImportError:  # run as a script: the benchmarks dir is sys.path[0]
        from bench_io import write_bench

    write_bench(RESULT_PATH, "engine_throughput", result)


def test_engine_throughput(once):
    """Batched pricing >= 3x the reference interpreter over the batches
    of the 64-chunk, 100-query FastBit stream; writes BENCH_engine.json."""
    result = once(_run_engine_benchmark)
    _write_result(result)
    print()
    print(
        f"engine throughput: per-command {result['per_command']['wall_s']:.2f}s "
        f"({result['per_command']['commands_per_s']:.0f} cmd/s), "
        f"batched {result['batched']['wall_s']:.2f}s "
        f"({result['batched']['commands_per_s']:.0f} cmd/s), "
        f"speedup {result['speedup']:.1f}x -> {RESULT_PATH.name}"
    )
    assert result["speedup"] >= 3.0


if __name__ == "__main__":
    res = _run_engine_benchmark()
    _write_result(res)
    print(json.dumps(res, indent=2))
    assert res["speedup"] >= 3.0, "batched pricing regression: speedup < 3x"
