"""The repair-plan memo is an execution strategy, never a result change.

:class:`repro.plan.repair.RepairEngine` memoises each entry's repair
plan (verdict, shape, cost gate, program key, write-back template) per
``(op, n_bits, leaf frames, written frames)``.  These tests play one
seeded random stream -- one- and multi-chunk vectors, AND/OR/XOR/NOT
over 1-4 leaves and nested keys, host and multi-frame writes, frees,
and a cache budget small enough to evict -- once as shipped and once
with the memo cleared before every write, and require identical cache
contents, ``PlanStats``, ``plan.repair.*`` counters and driver
accounting, with every read equal to a numpy oracle.  They also pin
two invariants: the per-write accounting fold never mutates an
``OpAccounting`` a caller already holds, and the memo stays within its
cap.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.core.pinatubo import PinatuboSystem
from repro.memsim.geometry import MemoryGeometry
from repro.nvm.technology import get_technology
from repro.plan import repair
from repro.plan.cache import SubResultCache
from repro.runtime.api import PimRuntime

GEOM = MemoryGeometry(
    channels=1,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=4,
    subarrays_per_bank=16,
    rows_per_subarray=64,
    mats_per_subarray=1,
    cols_per_mat=1024,
    mux_ratio=8,
)

#: vector lengths: one chunk, and three chunks with a partial tail
LENGTHS = (GEOM.row_bits - 24, 3 * GEOM.row_bits - 37)
OPS = ("and", "or", "xor", "inv")


def _runtime() -> PimRuntime:
    system = PinatuboSystem(get_technology("pcm"), GEOM)
    rt = PimRuntime(system, plan=True)
    # room for a handful of entries per shard: the stream evicts
    rt.planner.cache = SubResultCache(max_bytes=24 * GEOM.row_bytes, shards=2)
    return rt


def _oracle(op, operands):
    out = operands[0].copy()
    if op == "inv":
        return out ^ 1
    for o in operands[1:]:
        if op == "or":
            out |= o
        elif op == "and":
            out &= o
        else:
            out ^= o
    return out


def _repair_counters():
    return {
        name: c.value
        for name, c in telemetry.tracer.counters.items()
        if name.startswith("plan.repair.")
    }


def _acct_fields(acct):
    return (
        acct.latency,
        acct.energy,
        acct.in_memory_steps,
        acct.bus_data_bytes,
        acct.bus_commands,
        acct.bits_processed,
        dict(acct.locality_counts),
        dict(acct.energy_by_kind),
    )


def _play(seed, steps=240, clear_memo=False, on_write=None):
    """Run the seeded stream; returns everything the two plays compare.

    ``on_write(engine)`` (optional) fires before every repair pass.
    """
    rt = _runtime()
    engine = rt.planner._repair
    memory = rt.system.memory
    if clear_memo or on_write is not None:
        # every repair pass starts here: from an empty plan memo, or
        # after ``on_write`` saw the memo the previous pass left
        class Hooked:
            def on_delta(self, farr, deltas):
                if clear_memo:
                    engine._plans.clear()
                if on_write is not None:
                    on_write(engine)
                engine.on_delta(farr, deltas)

        rt.planner._repair = Hooked()
    rng = np.random.default_rng(seed)
    counters0 = _repair_counters()
    live = {n: [] for n in LENGTHS}  # n_bits -> [(handle, bits)]
    results = {n: [] for n in LENGTHS}  # op outputs (nested operands)
    reads = 0

    def fresh(n):
        h = rt.pim_malloc(n)
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        rt.pim_write(h, bits)
        live[n].append([h, bits])

    for n in LENGTHS:
        for _ in range(3):
            fresh(n)

    for _ in range(steps):
        n = LENGTHS[int(rng.integers(len(LENGTHS)))]
        pool = live[n]
        action = rng.random()
        if action < 0.5:
            op = OPS[int(rng.integers(len(OPS)))]
            k = 1 if op == "inv" else int(rng.integers(1, 5))
            if op != "inv" and k == 1:
                k = 2
            cands = pool + results[n] if rng.random() < 0.3 else pool
            picks = [cands[int(i)] for i in rng.integers(len(cands), size=k)]
            dest = rt.pim_malloc(n)
            rt.pim_op(op, dest, [h for h, _ in picks])
            want = _oracle(op, [bits for _, bits in picks])
            got = rt.pim_read(dest)
            assert np.array_equal(got, want)
            reads += 1
            results[n].append([dest, want])
            if len(results[n]) > 6:
                old, _ = results[n].pop(0)
                rt.pim_free(old)
        elif action < 0.75:
            # host overwrite: whole vector or only its first row frame
            i = int(rng.integers(len(pool)))
            h, bits = pool[i]
            m = n if rng.random() < 0.5 else min(n, GEOM.row_bits)
            new = rng.integers(0, 2, m, dtype=np.uint8)
            rt.pim_write(h, new)
            bits = bits.copy()
            bits[:m] = new
            pool[i][1] = bits
        elif action < 0.9:
            # one multi-frame write across vectors (a bulk delta)
            picks = sorted({int(i) for i in rng.integers(len(pool), size=2)})
            frames, rows = [], []
            for i in picks:
                h, bits = pool[i]
                new = rng.integers(0, 2, n, dtype=np.uint8)
                pool[i][1] = new
                padded = np.zeros(len(h.frames) * GEOM.row_bits, np.uint8)
                padded[:n] = new
                frames.extend(h.frames)
                rows.append(
                    np.packbits(padded, bitorder="little").reshape(
                        len(h.frames), GEOM.row_bytes
                    )
                )
            memory.write_frames(frames, np.concatenate(rows))
        else:
            # free one operand vector and allocate a replacement
            h, _ = pool.pop(int(rng.integers(len(pool))))
            rt.pim_free(h)
            fresh(n)

    # final reads: cached rows must serve current contents
    for n in LENGTHS:
        for h, bits in live[n]:
            assert np.array_equal(rt.pim_read(h), bits)

    cache = rt.planner.cache
    entries = {
        key: entry.rows.tobytes()
        for shard in cache._shards
        for key, entry in shard.items()
    }
    order = [list(shard) for shard in cache._shards]
    counters = _repair_counters()
    deltas = {k: counters[k] - counters0.get(k, 0) for k in counters}
    return {
        "entries": entries,
        "lru_order": order,
        "cache": cache.to_dict(),
        # every PlanStats tally but the compiler's wall-clock seconds
        "plan_stats": {
            k: v
            for k, v in rt.plan_stats.to_dict().items()
            if k != "compile_seconds"
        },
        "counters": deltas,
        "accounting": _acct_fields(rt.pim_accounting),
        "reads": reads,
        "memo": len(engine._plans),
    }


@pytest.mark.parametrize("seed", [3, 11])
def test_memo_cleared_before_every_write_is_identical(seed):
    shipped = _play(seed)
    cleared = _play(seed, clear_memo=True)
    stats = shipped["plan_stats"]
    # the stream exercises what it claims to
    assert stats["repairs"] > 0 and stats["repair_fallbacks"] > 0
    assert shipped["cache"]["evictions"] > 0
    assert shipped["counters"]["plan.repair.fallback.nested_child"] > 0
    assert shipped["memo"] > 0
    reasons = sum(
        shipped["counters"][f"plan.repair.fallback.{r}"]
        for r in repair.FALLBACK_REASONS
    )
    assert reasons == shipped["counters"]["plan.repair.fallback_invalidations"]
    for field in (
        "entries",
        "lru_order",
        "cache",
        "plan_stats",
        "counters",
        "accounting",
        "reads",
    ):
        assert shipped[field] == cleared[field], field


def test_held_accounting_is_never_mutated():
    """``rt.pim_accounting`` read before a repairing write is a value
    the caller holds: folding the write's repairs must replace the
    driver's object, not mutate it."""
    rt = _runtime()
    n = LENGTHS[1]
    rng = np.random.default_rng(5)
    handles = []
    for _ in range(3):
        h = rt.pim_malloc(n)
        rt.pim_write(h, rng.integers(0, 2, n, dtype=np.uint8))
        handles.append(h)
    a, b, c = handles
    for op, srcs in (("or", [a, b]), ("xor", [a, c]), ("and", [a, b, c])):
        rt.pim_op(op, rt.pim_malloc(n), srcs)
    held = rt.pim_accounting
    before = _acct_fields(held)
    repairs0 = rt.plan_stats.repairs
    rt.pim_write(a, rng.integers(0, 2, n, dtype=np.uint8))
    assert rt.plan_stats.repairs > repairs0
    assert _acct_fields(held) == before
    assert rt.pim_accounting is not held
    assert rt.pim_accounting.latency > held.latency


def test_memo_never_exceeds_its_cap(monkeypatch):
    monkeypatch.setattr(repair, "_PLAN_MEMO_LIMIT", 3)
    sizes = []

    def watch(engine):
        # fires before each repair pass: the memo as the previous pass
        # left it
        sizes.append(len(engine._plans))

    out = _play(7, steps=120, on_write=watch)
    assert out["plan_stats"]["repairs"] > 0
    sizes.append(out["memo"])
    assert max(sizes) == 3
