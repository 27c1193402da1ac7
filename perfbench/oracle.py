"""Checks the program's outputs from outside, against a numpy mirror.

The mirror starts from the arrays the dataset recorder captured (never
from the program's own host shadows) and, for workloads with writes,
replays completed updates in ``(batch_id, updates first)`` order, the
order the scheduler executes them.  Every completed read is compared
bit for bit; every analytics result on mask bits, filter cardinality
and aggregate; every ``DeltaNotification`` on popcount, changed bits,
sequence number and on whether exactly the affected standing queries
were notified.  Mismatches are counted, not raised, so the benchmark
can report them as part of its error rate.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.service.request import (
    RequestStatus,
    bin_vector_name,
    bitslice_vector_name,
)

_CMP = {
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
    "eq": np.equal,
}


def bitwise(op: str, operands: List[np.ndarray]) -> np.ndarray:
    """Reference result of one bulk-bitwise op (operands truncate to the
    shortest, as the engine does)."""
    n = min(o.size for o in operands)
    operands = [o[:n] for o in operands]
    if op == "inv":
        (only,) = operands
        return (1 - only).astype(np.uint8)
    reduce = {
        "and": np.bitwise_and,
        "or": np.bitwise_or,
        "xor": np.bitwise_xor,
    }[op]
    out = operands[0].copy()
    for other in operands[1:]:
        reduce(out, other, out=out)
    return out


class _Column:
    """One tenant's bit-sliced column plus the bitmap index it joins."""

    def __init__(self, values: np.ndarray, index: np.ndarray, n_bins: int):
        self.values = values
        self.index = index
        self.n_bins = n_bins
        self._bins: Dict[Tuple[int, int], np.ndarray] = {}

    def bins(self, lo: int, hi: int) -> np.ndarray:
        key = (lo, hi)
        mask = self._bins.get(key)
        if mask is None:
            mask = self._bins[key] = (
                (self.index >= lo) & (self.index <= hi)
            ).view(np.uint8)
        return mask


class Mirror:
    """Independent numpy model of every tenant's resident data."""

    def __init__(self, recorder, answers: Optional[dict] = None) -> None:
        """``answers`` memoises analyze answers; mirrors of one dataset
        may share it, because columns and indexes are never written."""
        self.vectors: Dict[tuple, np.ndarray] = {
            key: bits.copy() for key, bits in recorder.vectors.items()
        }
        #: vector name -> ("bin", column, b) | ("plane", column, j)
        self._derived: Dict[tuple, tuple] = {}
        self._indexes = recorder.indexes
        self._columns = recorder.columns
        for (tenant, column), (_, n_bins) in recorder.indexes.items():
            for b in range(n_bins):
                name = bin_vector_name(column, b)
                self._derived[(tenant, name)] = ("bin", column, b)
        for (tenant, column), (_, n_bits) in recorder.columns.items():
            for j in range(n_bits):
                name = bitslice_vector_name(column, j)
                self._derived[(tenant, name)] = ("plane", column, j)
        self._joined: Dict[tuple, _Column] = {}
        self._answers = {} if answers is None else answers

    def vector(self, tenant: str, name: str) -> np.ndarray:
        bits = self.vectors.get((tenant, name))
        if bits is not None:
            return bits
        kind, column, k = self._derived[(tenant, name)]
        if kind == "bin":
            index, _ = self._indexes[(tenant, column)]
            return (index == k).view(np.uint8)
        values, _ = self._columns[(tenant, column)]
        return ((values >> k) & 1).astype(np.uint8)

    def update(self, tenant: str, name: str, bits: np.ndarray) -> None:
        if (tenant, name) not in self.vectors:
            raise KeyError(f"update of non-plain vector {tenant}/{name}")
        self.vectors[(tenant, name)] = np.asarray(bits, dtype=np.uint8).copy()

    def read(self, tenant: str, op: str, names) -> np.ndarray:
        return bitwise(op, [self.vector(tenant, n) for n in names])

    def _column(self, tenant: str, value_col: str, index_col: str) -> _Column:
        key = (tenant, value_col, index_col)
        col = self._joined.get(key)
        if col is None:
            values, _ = self._columns[(tenant, value_col)]
            index, n_bins = self._indexes[(tenant, index_col)]
            col = self._joined[key] = _Column(values, index, n_bins)
        return col

    def analytics(self, tenant: str, filters, aggregate) -> tuple:
        """``(mask digest, popcount, value, groups)`` of one analyze query.

        Supports the query shapes ``generate_requests`` emits: compares
        on the ``val`` column, ranges over the ``col`` index, and
        count / sum(val) / hist(col) aggregates.
        """
        key = (tenant, filters, aggregate)
        answer = self._answers.get(key)
        if answer is not None:
            return answer
        col = self._column(tenant, "val", "col")
        mask: Optional[np.ndarray] = None
        for pred in filters:
            if pred[0] == "cmp":
                _, _, op, value, _ = pred
                part = _CMP[op](col.values, value).view(np.uint8)
            else:
                _, _, lo, hi = pred
                part = col.bins(lo, hi)
            mask = part.copy() if mask is None else mask & part
        if mask is None:
            mask = np.ones(col.values.size, dtype=np.uint8)
        groups = None
        if aggregate[0] == "count":
            value = float(int(np.count_nonzero(mask)))
        elif aggregate[0] == "sum":
            value = float(int(col.values.sum(where=mask.view(bool), dtype=np.int64)))
        else:
            counts = np.bincount(
                col.index[mask.view(bool)], minlength=aggregate[2]
            )
            groups = tuple(int(c) for c in counts[: aggregate[2]])
            value = float(sum(groups))
        answer = self._answers[key] = (
            digest(mask),
            int(np.count_nonzero(mask)),
            value,
            groups,
        )
        return answer


def digest(bits: np.ndarray) -> bytes:
    """Content hash of a 0/1 vector (length included)."""
    h = hashlib.blake2b(np.packbits(bits).tobytes(), digest_size=16)
    h.update(bits.size.to_bytes(8, "little"))
    return h.digest()


class Checker:
    """Counts results and notifications that disagree with the mirror."""

    def __init__(self, mirror: Mirror) -> None:
        self.mirror = mirror
        self.mismatches = 0
        self.rejected = 0
        self.details: List[str] = []
        #: subscription id -> (request, last pushed bits, last seq)
        self._subs: Dict[int, list] = {}
        #: update request id -> batch id it executed in
        self._update_batch: Dict[int, int] = {}

    def _fail(self, message: str) -> None:
        self.mismatches += 1
        if len(self.details) < 10:
            self.details.append(message)

    def check_round(self, results, notes) -> None:
        """Check one drained round's results and notifications."""
        done = []
        for result in results:
            if result.status is RequestStatus.COMPLETED:
                done.append(result)
            else:
                self.rejected += 1
        # the scheduler executes each batch's updates before its reads
        done.sort(key=lambda r: (r.batch_id, r.request.kind != "update"))
        notes_by_batch: Dict[int, list] = {}
        batches = {r.batch_id for r in done}
        for result in done:
            if result.request.kind == "update":
                self._update_batch[result.request.request_id] = result.batch_id
        for note in notes:
            notes_by_batch.setdefault(self._note_batch(note, done), []).append(note)
        for batch in sorted(batches | set(notes_by_batch)):
            members = [r for r in done if r.batch_id == batch]
            updates = [r for r in members if r.request.kind == "update"]
            for result in updates:
                req = result.request
                self.mirror.update(req.tenant, req.vector, req.bits)
            for result in members:
                if result.request.kind != "update":
                    self._check_read(result)
            self._check_notes(batch, updates, notes_by_batch.get(batch, []))

    def _note_batch(self, note, done) -> int:
        if note.triggered_by:
            return self._update_batch.get(note.triggered_by[0], -2)
        for result in done:  # seq-0 snapshot: the subscription's batch
            if result.request.request_id == note.subscription_id:
                return result.batch_id
        return -2

    def _check_read(self, result) -> None:
        req = result.request
        if req.kind == "analytics":
            mask, *want = self.mirror.analytics(
                req.tenant, req.filters, req.aggregate
            )
            got = [result.popcount, result.value, result.groups]
            if got != want:
                self._fail(f"analytics {req.request_id}: got {got}, want {want}")
            elif result.bits is None or digest(result.bits) != mask:
                self._fail(f"analytics {req.request_id}: mask bits differ")
            return
        expected = self.mirror.read(req.tenant, req.op, req.vectors)
        if result.popcount != int(np.count_nonzero(expected)):
            self._fail(
                f"request {req.request_id}: popcount {result.popcount} != "
                f"{int(np.count_nonzero(expected))}"
            )
        elif result.bits is None or not np.array_equal(result.bits, expected):
            self._fail(f"request {req.request_id}: result bits differ")
        if req.kind == "subscribe":
            self._subs[req.request_id] = [req, expected, -1]

    def _check_notes(self, batch: int, updates, notes) -> None:
        """A batch's notifications: exactly the affected subscriptions."""
        expected_ids = set()
        for sub_id, (req, _, seq) in self._subs.items():
            if seq >= 0 and any(
                u.request.tenant == req.tenant and u.request.vector in req.vectors
                for u in updates
            ):
                expected_ids.add(sub_id)
        got_ids = set()
        for note in notes:
            state = self._subs.get(note.subscription_id)
            if state is None:
                self._fail(f"notification for unknown subscription {note.subscription_id}")
                continue
            req, last, seq = state
            bits = self.mirror.read(req.tenant, req.op, req.vectors)
            want = (
                seq + 1,
                int(np.count_nonzero(bits)),
                int(np.count_nonzero(bits != last)) if seq >= 0 else 0,
            )
            got = (note.seq, note.popcount, note.changed_bits)
            if got != want:
                self._fail(
                    f"notification {note.subscription_id}#{note.seq}: "
                    f"(seq, popcount, changed) {got} != {want}"
                )
            state[1], state[2] = bits, note.seq
            if note.seq > 0:
                got_ids.add(note.subscription_id)
        if got_ids != expected_ids:
            self._fail(
                f"batch {batch}: notified {sorted(got_ids)}, "
                f"affected {sorted(expected_ids)}"
            )
