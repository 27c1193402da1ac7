"""Replay validity under writes, frees, re-allocations and evictions.

Every replay record in the stack -- the planner's expression bindings
and leaf-key memo, its resident serve records, and the analytics
compiler's whole-query programs -- is valid only while the rows it read
stay unchanged.  Writes and frees reach the records through the
planner's version stamps; sub-result-cache evictions through the
cache's public eviction count.  This test plays one seeded stream of
host writes, frees, re-allocations that land on just-freed frames (with
and without a rewrite), planner queries, ``AnalyticsTable`` queries,
engine ``analyze`` calls, table and tenant reloads and forced evictions
on a runtime with a tiny sub-result cache, in three arms:

- ``analytics``: planner compiled, analytics programs on;
- ``compiled``: planner compiled, analytics programs off;
- ``interpreted``: planner interpreted (analytics programs off).

Every answer and mask must equal the numpy oracle in every arm.  Two
targeted cases check that a freed table and an eviction never let a
record replay, the latter by its price against an analytics-off twin.
Two strict ``xfail`` cases pin the pricing gaps the stream exposes
between arms; each fix moves simulated pricing.
"""

import itertools

import numpy as np
import pytest

from repro.apps.analytics import AnalyticsTable, analytics_oracle
from repro.backends.config import SystemConfig
from repro.core.pinatubo import PinatuboSystem
from repro.memsim.geometry import MemoryGeometry
from repro.plan.cache import SubResultCache
from repro.runtime.api import PimRuntime
from repro.service.engine import ResidentPimEngine, ServiceCall, oracle_analytics
from repro.service.request import (
    AnalyticsRequest,
    bin_vector_name,
    bitslice_vector_name,
)

#: 256-byte rows in 16-row subarrays: every vector is one frame, and
#: freed frames come back into circulation quickly
GEOM = MemoryGeometry(
    channels=1,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=2,
    subarrays_per_bank=16,
    rows_per_subarray=16,
    mats_per_subarray=1,
    cols_per_mat=2048,
    mux_ratio=8,
)
N = 320
#: room for 96 cached rows; a flood of FLOOD_OPS distinct results
#: evicts every entry cached before it
CACHE_BYTES = 96 * GEOM.row_bytes
FLOOD_OPS = 110
TENANT = "t"
OPS = ("or", "and", "xor")

TABLE_SPECS = (
    ((("cmp", "age", "lt", 20),), ("count",)),
    ((("cmp", "age", "lt", 41),), ("count",)),
    ((("cmp", "age", "ge", 12), ("range", "region", 1, 3)), ("sum", "income")),
    ((("cmp", "income", "gt", 60),), ("hist", "region")),
)
ENGINE_SPECS = (
    ((("cmp", "a", "le", 25, 6),), ("count",)),
    ((("cmp", "a", "gt", 9, 6), ("range", "r", 0, 2)), ("sum", "b", 5)),
    ((("cmp", "b", "lt", 17, 5),), ("hist", "r", 4)),
)

#: step outputs whose last two fields are a simulated latency and energy
PRICED = ("table", "analyze", "query")

#: step kind -> relative weight
STEPS = {
    "table": 6,
    "analyze": 5,
    "query": 5,
    "write": 3,
    "recycle": 3,
    "update": 2,
    "reload": 1,
    "evict": 1,
}


class Arm:
    """One runtime, one analytics table and one engine tenant on it."""

    def __init__(self, compile_, analytics):
        system = PinatuboSystem.pcm(geometry=GEOM)
        self.rt = rt = PimRuntime(
            system, plan=True, plan_cache_bytes=CACHE_BYTES, compile=compile_
        )
        # one shard: which entries an eviction takes must not depend on
        # the process's string-hash seed
        rt.planner.cache = SubResultCache(CACHE_BYTES, shards=1)
        self.table = AnalyticsTable(rt, N, compile_analytics=analytics)
        self.engine = ResidentPimEngine(SystemConfig(), runtime=rt)
        if not analytics:
            self.engine.analytics_compiler.enabled = False
        self.live = []  # [handle, bits] raw vectors with known contents
        self.fillers = []  # allocated, unwritten; may become a dest
        self.out = []  # what the caller got back, step by step


def _columns(rng):
    return {
        "age": rng.integers(0, 64, N),
        "income": rng.integers(0, 128, N),
        "region": rng.integers(0, 6, N),
    }


def _load_table(arm, columns):
    arm.table.load_column("age", columns["age"], 6)
    arm.table.load_column("income", columns["income"], 7)
    arm.table.load_index("region", columns["region"], 6)


def _load_tenant(arm, rng):
    engine = arm.engine
    a = rng.integers(0, 64, N)
    b = rng.integers(0, 32, N)
    r = rng.integers(0, 4, N)
    for j in range(6):
        engine.load_vector(TENANT, bitslice_vector_name("a", j), (a >> j) & 1)
    for j in range(5):
        engine.load_vector(TENANT, bitslice_vector_name("b", j), (b >> j) & 1)
    for k in range(4):
        engine.load_vector(TENANT, bin_vector_name("r", k), r == k)


def _oracle(op, operands):
    out = operands[0].copy()
    for o in operands[1:]:
        if op == "or":
            out |= o
        elif op == "and":
            out &= o
        else:
            out ^= o
    return out


def _flood(arm, rng):
    """Cache more distinct results than the cache holds, then drop
    their operands: every entry cached before the flood is evicted."""
    rt = arm.rt
    srcs = []
    for _ in range(12):
        h = rt.pim_malloc(N, "flood")
        rt.pim_write(h, rng.integers(0, 2, N, dtype=np.uint8))
        srcs.append(h)
    dest = rt.pim_malloc(N, "flood")
    combos = itertools.product(OPS, itertools.combinations(range(12), 2))
    cache = rt.planner.cache
    cached, evictions = len(cache), cache.evictions
    for op, (i, j) in itertools.islice(combos, FLOOD_OPS):
        rt.pim_op(op, dest, [srcs[i], srcs[j]])
    # LRU: the entries cached before the flood went first
    assert cache.evictions - evictions >= cached
    for h in srcs + [dest]:
        rt.pim_free(h)


def _step(arm, kind, rng, columns):
    rt = arm.rt
    live = arm.live
    if kind == "table":
        # a spec runs 1-3 times in a row, so records form and replay
        filters, aggregate = TABLE_SPECS[rng.integers(len(TABLE_SPECS))]
        for _ in range(int(rng.integers(1, 4))):
            r = arm.table.filter(*filters).aggregate(aggregate)
            mask, value, groups = analytics_oracle(columns, filters, aggregate)
            assert (r.popcount, r.value, r.groups) == (
                int(mask.sum()), value, groups
            )
            arm.out.append(("table", r.popcount, r.value, r.groups,
                            r.latency_s, r.energy_j))
    elif kind == "analyze":
        filters, aggregate = ENGINE_SPECS[rng.integers(len(ENGINE_SPECS))]
        names = AnalyticsRequest(0, TENANT, filters, aggregate, 0.0).vectors
        call = ServiceCall(TENANT, "analyze", names, (filters, aggregate))
        for _ in range(int(rng.integers(1, 4))):
            (r,) = arm.engine.execute([call])
            mask, value, groups = oracle_analytics(
                arm.engine, TENANT, filters, aggregate
            )
            assert np.array_equal(r.bits, mask)
            assert (r.popcount, r.value, r.groups) == (
                int(mask.sum()), value, groups
            )
            arm.out.append(("analyze", r.bits.tobytes(), r.value, r.groups,
                            r.latency_s, r.energy_j))
    elif kind == "query":
        # a wave of 1-3 requests over raw vectors and earlier results
        # (their expression bindings), sometimes into a held vector
        requests, wants = [], []
        for _ in range(int(rng.integers(1, 4))):
            op = OPS[rng.integers(len(OPS))]
            picks = [live[i] for i in rng.choice(len(live), 2, replace=False)]
            if arm.fillers and rng.random() < 0.3:
                dest = arm.fillers.pop(int(rng.integers(len(arm.fillers))))
            else:
                dest = rt.pim_malloc(N, "raw")
            requests.append((op, dest, [h for h, _ in picks]))
            wants.append([dest, _oracle(op, [b for _, b in picks])])
        results = rt.pim_op_many(requests)
        for (dest, want), res in zip(wants, results):
            got = rt.pim_read(dest)
            assert np.array_equal(got, want)
            arm.out.append(("query", got.tobytes(), res.latency, res.energy))
        live.extend(wants)
        while len(live) > 14:
            rt.pim_free(live.pop(0)[0])
    elif kind == "write":
        bits = rng.integers(0, 2, N, dtype=np.uint8)
        if rng.random() < 0.5:
            entry = live[rng.integers(len(live))]
            rt.pim_write(entry[0], bits)
            entry[1] = bits
        else:
            # a leaf of the table's programs: one bit plane
            col = ("age", "income")[rng.integers(2)]
            j = int(rng.integers(6))
            rt.pim_write(arm.table._slices[col].planes[j], bits)
            columns[col] = (columns[col] & ~(1 << j)) | (
                bits.astype(np.int64) << j
            )
        arm.out.append(("write", rt.total_latency(), rt.total_energy()))
    elif kind == "update":
        j = int(rng.integers(6))
        bits = rng.integers(0, 2, N, dtype=np.uint8)
        r = arm.engine.update_vector(TENANT, bitslice_vector_name("a", j), bits)
        arm.out.append(("update", r.latency_s, r.energy_j))
    elif kind == "recycle":
        # free one vector and allocate until a handle lands on its
        # frame; the landed handle is rewritten, or kept unwritten
        # (its rows still hold the freed vector's bits)
        victim, bits = live.pop(int(rng.integers(len(live))))
        rt.pim_free(victim)
        rewrite = rng.random() < 0.5
        for _ in range(GEOM.rows_per_subarray):
            h = rt.pim_malloc(N, "raw")
            if h.frames != victim.frames:
                arm.fillers.append(h)
                continue
            if rewrite:
                bits = rng.integers(0, 2, N, dtype=np.uint8)
                rt.pim_write(h, bits)
            live.append([h, bits])
            arm.out.append(("landed", rewrite))
            break
        while len(arm.fillers) > 24:
            rt.pim_free(arm.fillers.pop(0))
        while len(live) < 4:
            h = rt.pim_malloc(N, "raw")
            bits = rng.integers(0, 2, N, dtype=np.uint8)
            rt.pim_write(h, bits)
            live.append([h, bits])
    elif kind == "reload":
        # free the table or the tenant and load fresh data: the new
        # vectors need not land on the frames the old records read
        if rng.random() < 0.5:
            arm.table.free()
            columns.update(_columns(rng))
            _load_table(arm, columns)
        else:
            arm.engine.unload_tenant(TENANT)
            _load_tenant(arm, rng)
    else:
        _flood(arm, rng)


def _play(arm, seed, n_steps):
    rng = np.random.default_rng(seed)
    kinds = list(STEPS)
    weights = np.array([STEPS[k] for k in kinds], dtype=float)
    columns = _columns(rng)
    _load_table(arm, columns)
    _load_tenant(arm, rng)
    for _ in range(6):
        h = arm.rt.pim_malloc(N, "raw")
        bits = rng.integers(0, 2, N, dtype=np.uint8)
        arm.rt.pim_write(h, bits)
        arm.live.append([h, bits])
    for _ in range(n_steps):
        kind = kinds[rng.choice(len(kinds), p=weights / weights.sum())]
        _step(arm, kind, rng, columns)
    arm.out.append(("totals", arm.rt.total_latency(), arm.rt.total_energy()))
    return arm


@pytest.fixture(scope="module", params=[5, 23])
def arms(request):
    seed = request.param
    return {
        "analytics": _play(Arm(True, True), seed, 160),
        "compiled": _play(Arm(True, False), seed, 160),
        "interpreted": _play(Arm(False, False), seed, 160),
    }


def test_replay_records_never_outlive_their_rows(arms):
    analytics = arms["analytics"]
    # the stream exercises what it claims to
    stats = analytics.table.compiler.stats
    engine_stats = analytics.engine.analytics_compiler.stats
    assert stats.replays > 0 and engine_stats.replays > 0
    for reason in ("evicted", "leaves_written"):
        assert (
            stats.fallback_reasons[reason]
            + engine_stats.fallback_reasons[reason]
        ) > 0, reason
    landed = [o[1] for o in analytics.out if o[0] == "landed"]
    assert True in landed and False in landed
    assert analytics.rt.plan_stats.serve_replays > 0
    # every arm matched the oracle step by step; the answers (everything
    # but the prices) must then agree across arms too
    answers = {
        name: [o[:-2] for o in arm.out if o[0] in PRICED]
        for name, arm in arms.items()
    }
    assert answers["analytics"] == answers["compiled"]
    assert answers["compiled"] == answers["interpreted"]


def _twins():
    """An analytics-on and an analytics-off arm over equal tables."""
    twins = []
    for analytics in (True, False):
        arm = Arm(True, analytics)
        _load_table(arm, _columns(np.random.default_rng(4)))
        twins.append(arm)
    return twins


def _assert_prices_agree(got, want):
    for u, v in zip(got, want):
        assert u.latency_s == pytest.approx(v.latency_s, rel=1e-9, abs=0.0)
        assert u.energy_j == pytest.approx(v.energy_j, rel=1e-9, abs=0.0)


def test_evicted_records_never_replay():
    """Evictions drop the cached results a record's serves relied on:
    the run after a flood interprets, and pays what its analytics-off
    twin pays."""
    spec = (("cmp", "age", "lt", 30),)
    twins = _twins()
    runs = []
    for arm in twins:
        out = [arm.table.filter(*spec).count() for _ in range(4)]
        mode = arm.rt.system.executor._current_mode
        _flood(arm, np.random.default_rng(9))
        # one more op in the mode the query left, so the next query
        # enters in the recorded mode and finds its record
        rt = arm.rt
        a, b, dest = (rt.pim_malloc(N, "flood") for _ in range(3))
        rt.pim_write(a, np.ones(N, dtype=np.uint8))
        rt.pim_op(mode.value, dest, [a, b])
        assert arm.rt.system.executor._current_mode is mode
        out.append(arm.table.filter(*spec).count())
        runs.append(out)
    on, off = runs
    assert [r.popcount for r in on] == [r.popcount for r in off]
    _assert_prices_agree(on, off)
    stats = twins[0].table.compiler.stats
    assert stats.replays == 1
    assert stats.fallback_reasons["evicted"] == 1


def test_reloaded_table_prices_like_its_twin():
    """A dropped program also forgets its scratch footprint, so a table
    reloaded after ``free()`` fills its fresh scratch pool in the same
    order, and pays the same, as its analytics-off twin."""
    big = (("cmp", "age", "ge", 12), ("range", "region", 1, 3))
    small = (("cmp", "age", "lt", 20),)
    runs = []
    for arm in _twins():
        # the small query's program records the pool's peak, which the
        # big query set
        out = [arm.table.filter(*spec).count() for spec in (big,) + (small,) * 4]
        arm.table.free()
        _load_table(arm, _columns(np.random.default_rng(6)))
        out += [arm.table.filter(*spec).count() for spec in (small, big) * 2]
        runs.append(out)
    on, off = runs
    assert [r.popcount for r in on] == [r.popcount for r in off]
    _assert_prices_agree(on, off)


def test_freed_table_never_replays_old_records():
    """After ``table.free()``, a table reloaded on the very frames it
    had, or elsewhere while unwritten vectors hold the old frames, never
    replays a record of the old data."""
    spec = (("cmp", "age", "lt", 30),)
    rng = np.random.default_rng(4)
    for hold_old_frames in (False, True):
        arm = Arm(True, True)
        table = arm.table
        # 16 planes fill one 16-row subarray, which a reload refills
        table.load_column("age", rng.integers(0, 64, N), 16)
        for _ in range(4):
            table.filter(*spec).count()
        replays = table.compiler.stats.replays
        assert replays >= 1
        old = {f for h in table._slices["age"].planes for f in h.frames}
        table.free()
        if hold_old_frames:
            for _ in range(len(old)):
                arm.rt.pim_malloc(N, "analytics/age")
        ages = rng.integers(0, 64, N)
        table.load_column("age", ages, 16)
        new = {f for h in table._slices["age"].planes for f in h.frames}
        assert not new & old if hold_old_frames else new == old
        r = table.filter(*spec).count()
        assert r.popcount == int((ages < 30).sum())
        assert table.compiler.stats.replays == replays


@pytest.mark.xfail(
    strict=True,
    reason=(
        "a compiled serve replay commits ahead of the pending wave, so a "
        "later request reading the replayed rows joins that wave where "
        "the interpreted planner hazard-flushes it first: the two "
        "planners price different wave groupings"
    ),
)
def test_compiled_planner_prices_like_interpreted(arms):
    assert arms["compiled"].out == arms["interpreted"].out


@pytest.mark.xfail(
    strict=True,
    reason=(
        "an analytics replay writes no scratch rows, so the next "
        "interpreted query overwrites different old contents than its "
        "analytics-off twin does and pays a different differential "
        "write energy"
    ),
)
def test_analytics_replay_leaves_scratch_as_interpretation_does():
    a = (("cmp", "age", "lt", 20),)
    b = (("cmp", "age", "lt", 41),)
    c = (("cmp", "income", "gt", 60),)
    runs = []
    for arm in _twins():
        runs.append([
            arm.table.filter(*spec).count()
            for spec in (a, a, a, c, c, a, c, a, b)
        ])
    on, off = runs
    assert on[-1].popcount == off[-1].popcount
    _assert_prices_agree(on, off)
