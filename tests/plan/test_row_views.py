"""Gates read operand rows as read-only block views: a differential test.

Every gate path -- the driver's row-parallel executor chunks,
interpreted planner waves, compiled :class:`WaveProgram` replays and
the to-host / popcount programs -- reads its operands through
:meth:`MainMemory.rows_view` / :meth:`MainMemory.frame_view` and lands
results with :meth:`MainMemory.write_frames`.  This test plays one
seeded stream twice, over the shipped memory and over a copy-based
reference that copies every row it reads and stores row by row, and
requires identical results, pricing, memory contents, wear counts and
listener call sequences.  Vectors sit on consecutive frames inside one
storage block, on consecutive frames that straddle a block boundary,
and on permuted frames.
"""

import numpy as np
import pytest

from repro.core.pinatubo import PinatuboSystem
from repro.memsim.geometry import MemoryGeometry
from repro.memsim.mainmem import MainMemory
from repro.plan.compile import PopcountProgram, ToHostProgram, WaveProgram
from repro.runtime.allocator import BitVectorHandle
from repro.runtime.api import PimRuntime

#: 8 KB rows: 128 rows per 1 MiB storage block, four blocks in all
GEOM = MemoryGeometry(
    channels=1,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=2,
    subarrays_per_bank=4,
    rows_per_subarray=64,
    mats_per_subarray=1,
    cols_per_mat=1 << 16,
    mux_ratio=8,
)
N_BITS = 3 * GEOM.row_bits - 37

#: name -> frames: in one block, straddling a block boundary, permuted
PLACEMENTS = {
    "a": (10, 11, 12),
    "b": (126, 127, 128),
    "c": (300, 260, 280),
    "d": (200, 201, 202),
    "x": (20, 21, 22),
    "y": (254, 255, 256),
    "z": (400, 390, 410),
    "s": (40, 41, 42),
    "t": (500, 470, 480),
}
LEAVES = ("a", "b", "c", "d")
DESTS = ("x", "y", "z")

#: a small menu of gates so shapes repeat and compile
GATES = (
    ("or", ("a", "b")),
    ("and", ("b", "c")),
    ("xor", ("c", "a")),
    ("or", ("a", "c", "d")),
    ("and", ("d", "b", "a")),
    ("inv", ("c",)),
    ("xor", ("b", "d")),
)


class CopyMemory(MainMemory):
    """Copy-based reference: every read copies its rows one frame at a
    time and every batched store programs one frame after another."""

    def frame_view(self, frame):
        return self.frame_bytes(frame)

    def rows_view(self, frames):
        return self.gather_rows(frames)

    def gather_rows(self, frames):
        out = np.zeros((len(frames), self.geometry.row_bytes), dtype=np.uint8)
        for i, frame in enumerate(frames):
            out[i] = self.frame_bytes(int(frame))
        return out

    def bitwise_rows(self, op, src_frame_lists):
        srcs = [list(s) for s in src_frame_lists]
        return np.stack([
            self.bitwise_frames(op, [s[i] for s in srcs])
            for i in range(len(srcs[0]))
        ])

    def diff_bits_rows(self, frames, data_2d):
        return [self.diff_bits(int(f), row) for f, row in zip(frames, data_2d)]

    def write_frames(self, frames, rows_2d):
        rows_2d = np.asarray(rows_2d, dtype=np.uint8)
        n = len(frames)
        assert rows_2d.shape == (n, self.geometry.row_bytes)
        if n == 0:
            return
        ints = [int(f) for f in frames]
        wants = old = uniq = None
        if self._delta_listeners:
            wants = [li.wants_delta(frames) for li in self._delta_listeners]
            if any(wants):
                uniq = np.unique(np.asarray(ints, dtype=np.intp))
                old = self.gather_rows(uniq)
        for frame, row in zip(ints, rows_2d):
            self._check_frame(frame)
            block_index = frame >> self._block_shift
            r = frame & self._block_mask
            self._block(block_index)[r] = row
            writes = self._block_writes[block_index]
            writes[r] += 1
            if writes[r] == 1:
                self.frames_written += 1
            self.max_writes = max(self.max_writes, int(writes[r]))
        self.total_writes += n
        if self._delta_listeners:
            deltas = None
            if old is not None:
                deltas = old ^ self.gather_rows(uniq)
            for want, listener in zip(wants, self._delta_listeners):
                if want:
                    listener.on_write(frames, uniq, deltas)
                else:
                    listener.on_write(frames, None, None)


class CallLog:
    """Records every memory listener call, in order."""

    def __init__(self, memory):
        self.calls = []
        memory.add_delta_write_listener(self)

    def wants_delta(self, frames):
        return len(frames) > 1

    def on_write(self, frames, farr, deltas):
        self.calls.append((
            "d",
            tuple(int(f) for f in frames),
            None if farr is None else farr.tolist(),
            None if deltas is None else deltas.tobytes(),
        ))


def _runtime(memory_cls, plan, compile_, repair):
    system = PinatuboSystem.pcm(geometry=GEOM)
    system.memory = system.executor.memory = memory_cls(GEOM)
    log = CallLog(system.memory)
    rt = PimRuntime(system, plan=plan, compile=compile_, repair=repair)
    handles = {
        name: BitVectorHandle(vid=100 + i, n_bits=N_BITS, frames=frames)
        for i, (name, frames) in enumerate(PLACEMENTS.items())
    }
    return rt, handles, log


#: one recurring wave whose gates all read leaf ``a``: rewriting ``a``
#: makes it execute again, so its shape compiles and replays
WAVE = (
    (("or", ("a", "b")), "x"),
    (("xor", ("c", "a")), "y"),
    (("and", ("d", "b", "a")), "z"),
)


def _stream(seed, n_rounds):
    """Rounds of: a host write, the recurring wave, one random step."""
    rng = np.random.default_rng(seed)
    for _ in range(n_rounds):
        leaf = "a" if rng.random() < 0.7 else LEAVES[rng.integers(len(LEAVES))]
        yield "write", leaf, rng.integers(0, 2, N_BITS, dtype=np.uint8)
        yield "many", WAVE, None
        kind = rng.choice(["op", "many", "to_host", "popcount"])
        if kind == "many":
            picks = rng.choice(len(GATES), size=2, replace=False)
            dests = rng.choice(len(DESTS), size=2, replace=False)
            yield kind, [
                (GATES[g], DESTS[d]) for g, d in zip(picks, dests)
            ], None
        else:
            gate = GATES[rng.integers(len(GATES))]
            dest = DESTS[rng.integers(len(DESTS))]
            yield kind, (gate, dest), None


def _step(rt, handles, step):
    """Play one step; returns what the caller got back."""
    kind, arg, data = step
    if kind == "write":
        rt.pim_write(handles[arg], data)
        return None
    if kind == "many":
        results = rt.pim_op_many([
            (op, handles[dest], [handles[s] for s in srcs])
            for (op, srcs), dest in arg
        ])
        return [(r.latency, r.energy, r.steps) for r in results], [
            rt.pim_read(handles[dest]) for _gate, dest in arg
        ]
    (op, srcs), dest = arg
    sources = [handles[s] for s in srcs]
    if kind == "op":
        r = rt.pim_op(op, handles[dest], sources)
        return (r.latency, r.energy, r.steps), rt.pim_read(handles[dest])
    if kind == "to_host":
        return rt.pim_op_to_host(op, handles["s"], sources)
    return rt.pim_popcount(op, handles["t"], sources)


#: every frame the stream can touch
FRAMES = sorted({f for frames in PLACEMENTS.values() for f in frames})


def _contents(memory):
    return np.stack([memory.frame_bytes(f) for f in FRAMES])


def _wear(memory):
    return (
        memory.write_histogram(),
        memory.total_writes,
        memory.frames_written,
        memory.max_writes,
    )


def _scribble(out):
    """Write into every array the caller was handed."""
    if isinstance(out, np.ndarray):
        out ^= 1
    elif isinstance(out, (list, tuple)):
        for item in out:
            _scribble(item)


def _equal(x, y):
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and np.array_equal(x, y)
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(_equal(a, b) for a, b in zip(x, y))
    return x == y


@pytest.fixture
def replays(monkeypatch):
    """Counts compiled-program replays per program class."""
    counts = {}
    for cls in (WaveProgram, ToHostProgram, PopcountProgram):
        def counted(self, *args, _replay=cls.replay, _name=cls.__name__):
            counts[_name] = counts.get(_name, 0) + 1
            return _replay(self, *args)

        monkeypatch.setattr(cls, "replay", counted)
    return counts


@pytest.mark.parametrize(
    "plan,compile_,repair",
    [
        (False, False, False),
        (True, False, True),
        (True, True, True),
        # without delta repair a write invalidates, so the recurring
        # wave executes again and replays as a compiled program
        (True, True, False),
    ],
    ids=["driver", "interpreted", "compiled", "compiled-invalidate"],
)
@pytest.mark.parametrize("seed", [3, 17])
def test_views_match_copy_reference(plan, compile_, repair, seed, replays):
    rt, handles, log = _runtime(MainMemory, plan, compile_, repair)
    ref, ref_handles, ref_log = _runtime(CopyMemory, plan, compile_, repair)
    # compiled programs are checked against the interpreted planner too
    interp, interp_handles, _ = _runtime(CopyMemory, plan, False, repair)
    rng = np.random.default_rng(seed)
    for leaf in LEAVES:
        bits = rng.integers(0, 2, N_BITS, dtype=np.uint8)
        for r, h in ((rt, handles), (ref, ref_handles), (interp, interp_handles)):
            r.pim_write(h[leaf], bits)
    memory = rt.system.memory
    for step in _stream(seed, 30):
        got = _step(rt, handles, step)
        want = _step(ref, ref_handles, step)
        assert _equal(got, want), step[0]
        assert _equal(got, _step(interp, interp_handles, step)), step[0]
        before = _contents(memory)
        _scribble(got)
        np.testing.assert_array_equal(_contents(memory), before)
    for other in (ref, interp):
        np.testing.assert_array_equal(before, _contents(other.system.memory))
        assert _wear(memory) == _wear(other.system.memory)
    assert log.calls == ref_log.calls
    acct, ref_acct = rt.driver.stats.accounting, ref.driver.stats.accounting
    assert (acct.latency, acct.energy) == (ref_acct.latency, ref_acct.energy)
    if compile_:
        # the stream reached every compiled program kind
        assert replays.get("ToHostProgram") and replays.get("PopcountProgram")
        if not repair:
            assert replays.get("WaveProgram")
        assert rt.planner.stats.program_hits == ref.planner.stats.program_hits
