"""Delta repair of cached sub-results (incremental view maintenance).

A write to frames some cached expression reads no longer has to drop
the entry.  The main memory's delta listener hands the planner the
per-frame ``old XOR new`` bitmap (free in the functional model -- the
write path already reads and programs those rows), and the algebra of
the cached op decides how to fix the packed result rows in place:

- **XOR / NOT** are linear over GF(2): flipping input bits flips
  exactly those output bits, so one bulk XOR of the delta row into the
  touched chunk repairs it (NOT is XOR against an implicit all-ones
  mask -- same rule).
- **AND / OR** are not linear; their repair is a *delta-masked
  recompute* limited to the touched chunks, reading the operand rows'
  new contents.  Chunks the write did not reach keep their cached
  value untouched.

Either way the repair is priced through the real controller with the
same per-step command templates a driver-issued bulk op uses
(:meth:`PimExecutor._step_rows`), so simulated pricing stays honest.
Before applying, the engine estimates repair vs. recomputing the whole
entry from the live :class:`PriceTable`; when repair would be strictly
worse -- e.g. an XOR whose every chunk took multiple deltas -- or the
entry is out of repair's reach (nested sub-expression children,
cross-channel operand placement), the entry falls back to plain
invalidation and the fallback is counted.

Repaired entries are re-inserted under their canonical key at the
*new* write versions, so later lookups of the same expression hit
directly; :class:`ProgramCache` integration freezes the repair command
batch per shape (chunk widths, sense steps, localities, group fan-ins)
so the compiled planner re-prices recurring repairs without rebuilding
command rows.

A write pays for its structure once and for its data once.  Everything
about an entry's repair except the bits -- the verdict (or the reason
it falls back), touched chunks, repair shape, both cost-gate estimates,
the program key, the write-back width template and which children
re-key -- is a pure function of ``(op, n_bits, leaf frames, written
frames)`` under the planner's fixed geometry, mapper and price table
(the purity the engine's cost memo already relies on), so it is
memoised as a :class:`_RepairPlan`.  The data-dependent part runs as
one functional pass over every entry the write popped, and one
``popcount_rows`` over the stacked ``old XOR new`` rows yields every
differential write-back width.  Pricing stays per entry, in pop order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.core.bitops import popcount_rows
from repro.core.ops import PimOp
from repro.core.stats import OpAccounting
from repro.memsim.address import OpLocality
from repro.memsim.controller import CommandBatch, CommandKind
from repro.plan.compile import freeze_batch

__all__ = ["FALLBACK_REASONS", "RepairEngine"]

_REPAIRS = telemetry.counter("plan.repair.repairs")
_FALLBACKS = telemetry.counter("plan.repair.fallback_invalidations")
_CHUNKS = telemetry.counter("plan.repair.chunks")
#: simulated latency saved vs. recomputing the repaired entries
_SAVED = telemetry.accumulator("plan.repair.sim_saved_s")

#: why an entry fell back to invalidation; each reason counts under
#: ``plan.repair.fallback.<reason>``, and the reasons sum to
#: ``plan.repair.fallback_invalidations``
FALLBACK_REASONS = (
    "non_expression",  # key is not an (op, n_bits, children) expression
    "nested_child",  # a child is itself a sub-expression
    "chunk_mismatch",  # a leaf's frame count differs from the entry's
    "untouched",  # no leaf frame was written (only dep_frames overlap)
    "inter_chip",  # an AND/OR chunk's operands span chips
    "cost_gate",  # repair prices above recomputing the whole entry
)
_FALLBACK_BY_REASON = {
    reason: telemetry.counter(f"plan.repair.fallback.{reason}")
    for reason in FALLBACK_REASONS
}

#: command code -> CommandKind (codes are enum-declaration indices)
_KIND_OF = tuple(CommandKind)

#: cap on the repair-plan memo (distinct entry structures x written
#: frame sets per engine); cleared wholesale when full
_PLAN_MEMO_LIMIT = 2048

#: rows of the reused ``old XOR new`` scratch buffer; a write touching
#: more chunks stacks them in a temporary instead
_DIFF_ROWS = 256

#: combine ufunc of the delta-masked recompute
_UFUNCS = {PimOp.AND: np.bitwise_and, PimOp.OR: np.bitwise_or}


class _RepairPlan:
    """The data-free part of one entry's repair under one write.

    ``reason`` is ``None`` for a repairable entry, else the
    :data:`FALLBACK_REASONS` entry it falls back with (no other slot is
    set).  ``chunks`` holds, per touched chunk in order, ``(chunk,
    delta rows)`` for XOR/NOT (indices into the write's delta array,
    one per written leaf occurrence) or ``(chunk, leaf frames)`` for
    AND/OR.  ``wb_template`` is the write-back width column in emission
    order with the final step of every chunk at ``wb_final`` left for
    the differential width -- ``None`` when every chunk is one step, so
    the column is exactly the widths -- and ``rekey`` lists ``(child
    index, leaf frames)`` of the children that move to new write
    versions.
    """

    __slots__ = (
        "reason",
        "op",
        "rep_op",
        "linear",
        "ufunc",
        "single",
        "chunks",
        "shape",
        "program_key",
        "wb_template",
        "wb_final",
        "bits",
        "steps",
        "repair_est",
        "recompute_est",
        "rekey",
    )

    def __init__(self, reason: Optional[str] = None):
        self.reason = reason


_NON_EXPRESSION = _RepairPlan("non_expression")
_NESTED_CHILD = _RepairPlan("nested_child")


class RepairEngine:
    """Applies algebraic delta repair to entries popped from the cache.

    Owned by one :class:`~repro.plan.planner.QueryPlanner`; state is a
    pure cost memo, a pure repair-plan memo, and the planner's program
    cache, so the engine is safe to drive from the memory's write
    listener (it never writes main memory itself -- repairs land in
    the host-side cached rows).
    """

    __slots__ = ("planner", "_cost_memo", "_plans", "_diff")

    def __init__(self, planner):
        self.planner = planner
        #: (op, locality, channel, fanin, chunk_bits) -> serial seconds
        self._cost_memo: Dict[tuple, float] = {}
        #: (op, n_bits, n_chunks, written frames bytes, *leaf frames
        #: bytes) -> _RepairPlan
        self._plans: Dict[tuple, _RepairPlan] = {}
        #: reused ``old XOR new`` stack: a fresh one per write would
        #: leave heap holes between the long-lived repaired rows
        self._diff: Optional[np.ndarray] = None

    # -- entry point ---------------------------------------------------------

    def on_delta(self, farr: np.ndarray, deltas: np.ndarray) -> None:
        """Repair or invalidate every cached entry reading ``farr``."""
        planner = self.planner
        cache = planner.cache
        entries = cache.pop_frames(farr)
        if not entries:
            return
        written = farr.tobytes()
        work = []  # (entry, plan, first diff row)
        n_rows = 0
        fallbacks = 0
        for entry in entries:
            plan = self._plan(entry, farr, written)
            if plan.reason is None:
                work.append((entry, plan, n_rows))
                n_rows += len(plan.chunks)
            else:
                fallbacks += 1
                _FALLBACK_BY_REASON[plan.reason].add()
        if fallbacks:
            planner.stats.repair_fallbacks += fallbacks
            cache.tally_invalidations(fallbacks)
            _FALLBACKS.add(fallbacks)
        if work:
            new_rows, widths = self._fresh_rows(work, n_rows, deltas)
            self._apply(work, new_rows, widths)

    # -- plans ---------------------------------------------------------------

    def _plan(self, entry, farr: np.ndarray, written: bytes) -> _RepairPlan:
        """The memoised plan of one popped entry under this write."""
        key = entry.key
        if not (isinstance(key, tuple) and len(key) == 3) or not key[2]:
            return _NON_EXPRESSION
        op_value, n_bits, children = key
        mkey = [op_value, n_bits, entry.rows.shape[0], written]
        for ch in children:
            if not (isinstance(ch, tuple) and len(ch) == 3 and ch[0] == "L"):
                # a child is itself a sub-expression: its leaf identity
                # is folded into the nested key, out of frame-delta reach
                return _NESTED_CHILD
            mkey.append(ch[1])
        mkey = tuple(mkey)
        plan = self._plans.get(mkey)
        if plan is None:
            if len(self._plans) >= _PLAN_MEMO_LIMIT:
                self._plans.clear()
            plan = self._plans[mkey] = self._build_plan(
                op_value, n_bits, entry.rows.shape[0], mkey[4:], farr
            )
        return plan

    def _build_plan(
        self, op_value, n_bits: int, n_chunks: int, leaf_bytes, farr
    ) -> _RepairPlan:
        """Verdict, shape, cost gate, program key and write-back
        template of one entry structure under one written frame set."""
        op = PimOp.parse(op_value)
        child_frames = [np.frombuffer(b, dtype=np.intp) for b in leaf_bytes]
        if any(cf.size != n_chunks for cf in child_frames):
            return _RepairPlan("chunk_mismatch")
        delta_row = {f: i for i, f in enumerate(farr.tolist())}
        masks = [
            np.fromiter(
                (f in delta_row for f in cf.tolist()), dtype=bool, count=n_chunks
            )
            for cf in child_frames
        ]
        touched = masks[0].copy()
        for m in masks[1:]:
            touched |= m
        aff = np.nonzero(touched)[0]
        if aff.size == 0:
            return _RepairPlan("untouched")
        linear = op is PimOp.XOR or op is PimOp.INV
        rep_op = PimOp.XOR if linear else op

        # -- per-chunk repair shape: (chunk_bits, groups) --------------------
        # a group is one combine step: (fanin, channel, locality)
        shape = self._repair_shape(op, n_bits, child_frames, masks, aff)
        if shape is None:
            return _RepairPlan("inter_chip")

        # -- cost-model gate: repair vs whole-entry recompute ----------------
        repair_est = 0.0
        for chunk_bits, groups in shape:
            for fanin, ch, loc in groups:
                repair_est += self._group_cost(
                    rep_op, loc, ch, fanin, chunk_bits
                )
        recompute_est = self._recompute_estimate(op, n_bits, child_frames)
        if repair_est > recompute_est:
            return _RepairPlan("cost_gate")

        plan = _RepairPlan()
        plan.op = op
        plan.rep_op = rep_op
        plan.linear = linear
        plan.ufunc = _UFUNCS.get(op)
        plan.single = n_chunks == 1
        chunks = []
        for c in aff.tolist():
            if linear:
                # one delta row per written (child, frame) occurrence
                src = tuple(
                    delta_row[int(cf[c])]
                    for cf, mask in zip(child_frames, masks)
                    if mask[c]
                )
            else:
                src = tuple(int(cf[c]) for cf in child_frames)
            chunks.append((c, src))
        plan.chunks = tuple(chunks)
        plan.shape = shape
        plan.program_key = self._program_key(rep_op, shape)
        # the final step of a chunk programs only the flipped result
        # cells (differential write); intermediate accumulation steps
        # program the full chunk.  Every touched chunk has >= 1 step.
        template: List[int] = []
        final: List[int] = []
        for chunk_bits, groups in shape:
            template.extend([chunk_bits] * (len(groups) - 1))
            final.append(len(template))
            template.append(0)
        if len(final) == len(template):
            plan.wb_template = plan.wb_final = None
        else:
            plan.wb_template = np.asarray(template, dtype=np.float64)
            plan.wb_final = np.asarray(final, dtype=np.intp)
        plan.bits = sum(chunk_bits for chunk_bits, _ in shape)
        plan.steps = sum(len(groups) for _, groups in shape)
        plan.repair_est = repair_est
        plan.recompute_est = recompute_est
        plan.rekey = tuple(
            (i, cf)
            for i, (cf, mask) in enumerate(zip(child_frames, masks))
            if mask.any()
        )
        return plan

    # -- the per-write passes ------------------------------------------------

    def _fresh_rows(self, work, n_rows: int, deltas: np.ndarray):
        """New rows of every repairable entry, plus the differential
        write-back width of each touched chunk (one popcount pass)."""
        view = self.planner.memory.frame_view
        shape = (_DIFF_ROWS, deltas.shape[1])
        if n_rows > _DIFF_ROWS:
            diff = np.empty((n_rows, shape[1]), dtype=np.uint8)
        else:
            if self._diff is None or self._diff.shape != shape:
                self._diff = np.empty(shape, dtype=np.uint8)
            diff = self._diff[:n_rows]
        new_rows = []
        k = 0
        for entry, plan, _ in work:
            rows = entry.rows
            new = np.empty_like(rows) if plan.single else rows.copy()
            if plan.linear:
                # XOR/NOT: flipped input bits flip exactly those outputs
                for c, src in plan.chunks:
                    out = new[c]
                    np.bitwise_xor(rows[c], deltas[src[0]], out=out)
                    for d in src[1:]:
                        np.bitwise_xor(out, deltas[d], out=out)
                    np.bitwise_xor(rows[c], out, out=diff[k])
                    k += 1
            else:
                # AND/OR: recompute the touched chunks from the leaves
                ufunc = plan.ufunc
                for c, src in plan.chunks:
                    out = new[c]
                    if len(src) == 1:
                        out[...] = view(src[0])
                    else:
                        ufunc(view(src[0]), view(src[1]), out=out)
                        for f in src[2:]:
                            ufunc(out, view(f), out=out)
                    np.bitwise_xor(rows[c], out, out=diff[k])
                    k += 1
            new_rows.append(new)
        return new_rows, popcount_rows(diff)

    def _apply(self, work, new_rows, widths) -> None:
        """Price each repair through the real controller and re-insert
        it under its canonical key at the new versions, in pop order."""
        planner = self.planner
        executor = planner.executor
        execute_batch = executor.controller.execute_batch
        put = planner.cache.put
        versions = planner._versions
        stats = planner.stats
        driver = planner.driver
        driver_acct = None
        version_bytes: Dict[bytes, bytes] = {}
        chunks = 0
        for (entry, plan, k0), new in zip(work, new_rows):
            n_aff = len(plan.chunks)
            acct = OpAccounting()
            with telemetry.span(
                "plan.repair.apply", op=plan.op.value, chunks=n_aff
            ):
                executor._set_mode(plan.rep_op, acct)
                frozen, wb_positions = self._program(plan)
                if wb_positions.size:
                    values = widths[k0:k0 + n_aff]
                    if plan.wb_template is not None:
                        column = plan.wb_template.copy()
                        column[plan.wb_final] = values
                        values = column
                    frozen.n_bits[wb_positions] = values
                acct.absorb(execute_batch(frozen))
            acct.count_bits(plan.bits)
            acct.count_step(plan.steps)
            # fold the write's repairs the way the serve path does: one
            # copy, then in place (bit-identical to a merged() chain)
            if driver_acct is None:
                driver_acct = driver.stats.accounting.merged(acct)
            else:
                driver_acct.merge_from(acct)

            # -- re-insert under the canonical key at the new versions -------
            op_value, n_bits, children = entry.key
            new_children = list(children)
            for i, cf in plan.rekey:
                frames = children[i][1]
                vb = version_bytes.get(frames)
                if vb is None:
                    vb = version_bytes[frames] = versions[cf].tobytes()
                new_children[i] = ("L", frames, vb)
            op = plan.op
            if op is PimOp.OR or op is PimOp.AND:
                new_children = sorted(set(new_children))
            elif op is PimOp.XOR:
                new_children = sorted(new_children)
            put((op_value, n_bits, tuple(new_children)), new, n_bits,
                entry.dep_frames)

            stats.repairs += 1
            stats.repaired_chunks += n_aff
            stats.repair_latency_s += acct.latency
            stats.repair_energy_j += acct.energy
            saved = plan.recompute_est - plan.repair_est
            stats.repair_saved_s += saved
            _SAVED.add(saved)
            chunks += n_aff
        driver.stats.accounting = driver_acct
        _REPAIRS.add(len(work))
        _CHUNKS.add(chunks)

    # -- shape / cost helpers ------------------------------------------------

    def _repair_shape(
        self, op, n_bits, child_frames, masks, aff
    ) -> Optional[List[Tuple[int, tuple]]]:
        """Per affected chunk: ``(chunk_bits, ((fanin, channel, locality),
        ...))``; ``None`` when any chunk cannot execute in memory."""
        planner = self.planner
        mapper = planner.executor.mapper
        channel_of = mapper.channel_of
        row_bits = planner.geometry.row_bits
        linear = op is PimOp.XOR or op is PimOp.INV
        shape: List[Tuple[int, tuple]] = []
        for c in aff:
            c = int(c)
            chunk_bits = min(n_bits - c * row_bits, row_bits)
            if linear:
                # one 2-operand XOR step per written (child, frame)
                # occurrence: cached row ^= delta row
                groups = tuple(
                    (2, channel_of(int(cf[c])), OpLocality.INTRA_SUBARRAY)
                    for cf, mask in zip(child_frames, masks)
                    if mask[c]
                )
            else:
                frames = [int(cf[c]) for cf in child_frames]
                loc = mapper.classify_frames(frames)
                if loc is OpLocality.INTER_CHIP:
                    return None
                ch = channel_of(frames[0])
                groups = tuple(
                    (fanin, ch, loc)
                    for fanin in self._group_fanins(op, len(frames), loc)
                )
            shape.append((chunk_bits, groups))
        return shape

    def _group_fanins(self, op, n_ops: int, locality) -> tuple:
        """Combine-step fan-ins of one chunk, mirroring
        :meth:`PimExecutor._chunk_bitwise`'s decomposition."""
        if op is PimOp.INV or n_ops == 1:
            return (1,)
        if locality is not OpLocality.INTRA_SUBARRAY:
            return (n_ops,)  # buffered path: one pass over all operands
        limit = max(2, self.planner.executor.limits.single_step_limit(op))
        if n_ops <= limit:
            return (n_ops,)
        fanins = [limit]
        rem = n_ops - limit
        while rem > 0:
            take = min(limit - 1, rem)
            fanins.append(1 + take)
            rem -= take
        return tuple(fanins)

    def _group_cost(self, op, locality, channel, fanin, chunk_bits) -> float:
        """Serial (array + bus) seconds of one combine step, from the
        live PriceTable.  Write-back width does not move command
        latency (only energy), so the memo is width-free."""
        key = (op, locality, channel, fanin, chunk_bits)
        cost = self._cost_memo.get(key)
        if cost is None:
            executor = self.planner.executor
            rows, _wb = executor._step_rows(
                op, locality, channel, fanin, chunk_bits, False
            )
            price = executor.controller.price_table.price
            cost = 0.0
            for k, _ch, b, s, t in rows:
                array_t, bus_t = price(_KIND_OF[k], b, s, t)[:2]
                cost += array_t + bus_t
            self._cost_memo[key] = cost
        return cost

    def _recompute_estimate(self, op, n_bits, child_frames) -> float:
        """Cost of recomputing the whole entry with the same templates."""
        planner = self.planner
        mapper = planner.executor.mapper
        row_bits = planner.geometry.row_bits
        n_chunks = child_frames[0].size
        n_ops = len(child_frames)
        total = 0.0
        for c in range(n_chunks):
            chunk_bits = min(n_bits - c * row_bits, row_bits)
            frames = [int(cf[c]) for cf in child_frames]
            loc = mapper.classify_frames(frames)
            if loc is OpLocality.INTER_CHIP:
                # recompute could not run in memory either; repair wins
                return float("inf")
            ch = mapper.channel_of(frames[0])
            for fanin in self._group_fanins(op, n_ops, loc):
                total += self._group_cost(op, loc, ch, fanin, chunk_bits)
        return total

    # -- program cache -------------------------------------------------------

    def _program_key(self, rep_op, shape) -> tuple:
        """ProgramCache key of one repair shape.

        Shape keys embed everything the command stream depends on --
        chunk widths *and their sense-step resolution* (so a geometry
        change, e.g. a different SA mux, can never replay a stale
        program), localities, channels, group fan-ins.
        """
        geometry = self.planner.geometry
        sig = tuple(
            (
                chunk_bits,
                geometry.sense_steps_for_bits(chunk_bits),
                tuple((f, ch, loc.value) for f, ch, loc in groups),
            )
            for chunk_bits, groups in shape
        )
        return ("repair", rep_op.value, geometry.row_bits, sig)

    def _program(self, plan: _RepairPlan):
        """(frozen batch, write-back row positions) for one repair plan.

        The frozen batch's ``n_bits`` column is patched with the
        differential write-back widths before every pricing pass,
        exactly like the wave programs' write-backs.
        """
        planner = self.planner
        compiled = planner.compile_enabled
        if compiled:
            hit = planner.programs.get(plan.program_key)
            if hit is not None:
                planner.stats.program_hits += 1
                return hit
        rep_op = plan.rep_op
        batch = CommandBatch()
        wb_positions: List[int] = []
        pos = 0
        executor = planner.executor
        for chunk_bits, groups in plan.shape:
            for fanin, ch, loc in groups:
                rows, wb_index = executor._step_rows(
                    rep_op, loc, ch, fanin, chunk_bits, False
                )
                if wb_index is not None:
                    wb_positions.append(pos + wb_index)
                batch.extend_rows(rows)
                pos += len(rows)
            batch.fence()
        program = (freeze_batch(batch), np.asarray(wb_positions, dtype=np.intp))
        if compiled:
            planner.programs.put(plan.program_key, program)
            planner.stats.program_misses += 1
        return program
