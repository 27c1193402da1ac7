"""The benchmark's serving workloads and the closed round loop.

Every workload drives the public :class:`repro.service.api.ServiceClient`
facade over a :class:`~repro.service.service.BitmapQueryService` or a
:class:`~repro.cluster.ClusterRouter`, each running the default planned
and compiled ``ResidentPimEngine``.  Inputs come only from the seed:
datasets are drawn by :func:`repro.workloads.service_load.build_datasets`
into a :class:`DatasetRecorder` (so the oracle mirror and the program
receive the same arrays), and each round's burst is drawn by
``generate_requests`` with a per-round seed before that round's timer
starts.  See ``METRICS.md`` for why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

import numpy as np

from repro.backends.config import SystemConfig, geometry_name
from repro.cluster import ClusterConfig, ClusterRouter
from repro.memsim.geometry import MemoryGeometry
from repro.service.api import ServiceClient
from repro.service.service import BitmapQueryService, ServiceConfig
from repro.workloads.service_load import (
    ServiceLoadSpec,
    build_datasets,
    generate_requests,
    play_stream,
)

#: per-node memory of the cluster workload: 16 (channel, bank) shards of
#: 16 Kbit rows.  The default geometry costs ~140 MB per node; this one
#: keeps eight nodes under 100 MB and set-up under a second.
CLUSTER_GEOMETRY = MemoryGeometry(
    channels=4,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=4,
    subarrays_per_bank=8,
    rows_per_subarray=128,
    mats_per_subarray=1,
    cols_per_mat=16384,
    mux_ratio=8,
)

#: timed rounds per trial.  Round host time grows with the rounds a
#: target has served (its result lists only grow), so every trial
#: starts from a fresh target and plays the same rounds; 200 rounds put
#: 10 above the p95.
TRIAL_ROUNDS = 200


@dataclass(frozen=True)
class Workload:
    """One traffic mix: dataset, round shape and serving target."""

    name: str
    why: str
    #: dataset and per-round stream template (``seed``/``n_requests``
    #: are filled in per run and per round)
    spec: ServiceLoadSpec
    #: requests per round (one closed-loop burst)
    round_requests: int
    warmup_rounds: int
    #: 0 = one BitmapQueryService; >= 1 = a ClusterRouter of that size
    n_nodes: int = 0
    head_tenants: int = 0
    head_replicas: int = 1
    #: standing queries registered per tenant during set-up
    subscriptions_per_tenant: int = 0

    @property
    def writes(self) -> bool:
        return self.spec.write_ratio > 0

    def dataset_spec(self, seed: int) -> ServiceLoadSpec:
        return replace(
            self.spec,
            seed=seed,
            subscriptions_per_tenant=self.subscriptions_per_tenant,
        )

    def round_spec(self, seed: int, index: int) -> ServiceLoadSpec:
        # seed and round index map to distinct generator streams
        return replace(
            self.spec,
            seed=(seed << 24) + index + 1,
            n_requests=self.round_requests,
            subscriptions_per_tenant=0,
        )

    def build_target(self):
        """A fresh, empty serving target (no tenants yet)."""
        if self.n_nodes == 0:
            return BitmapQueryService(ServiceConfig(keep_bits=True))
        system = SystemConfig(
            backend="pinatubo",
            placement="bank_spread",
            geometry=geometry_name(CLUSTER_GEOMETRY),
        )
        return ClusterRouter(
            ClusterConfig(
                n_nodes=self.n_nodes,
                service=ServiceConfig(system=system, keep_bits=True),
                scatter_fanin=4,
            )
        )


# Arrival rates are about 3x each node's simulated capacity: every
# burst queues, so simulated throughput measures the node, not arrivals.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="write-subscribe",
            why=(
                "1 node, 16 Zipf tenants, 64 Kbit vectors, 30% overwrites, 2 "
                "standing queries per tenant: delta repair, notifications"
            ),
            spec=ServiceLoadSpec(
                n_tenants=16,
                vector_bits=1 << 16,
                index_bins=8,
                index_events=1 << 16,
                arrival_rate_per_s=4e6,
                zipf_s=1.0,
                write_ratio=0.3,
            ),
            round_requests=6,
            warmup_rounds=40,
            subscriptions_per_tenant=2,
        ),
        Workload(
            name="analyze-wide",
            why=(
                "8 tenants, 8-bit bit-sliced column over 2^20 events, 80% "
                "analyze: arith kernels, popcount waves, cache overflow"
            ),
            spec=ServiceLoadSpec(
                n_tenants=8,
                vector_bits=1 << 16,
                index_bins=8,
                index_events=1 << 20,
                value_bits=8,
                arrival_rate_per_s=1e5,
                zipf_s=1.0,
                mix=(("analyze", 0.8), ("and", 0.1), ("range", 0.1)),
            ),
            round_requests=4,
            warmup_rounds=30,
        ),
        Workload(
            name="cluster-scatter",
            why=(
                "8 nodes, 32 tenants, Zipf head 4-way replicated, wide "
                "ranges scatter: the only workload that runs the router"
            ),
            spec=ServiceLoadSpec(
                n_tenants=32,
                vector_bits=CLUSTER_GEOMETRY.row_bits,
                index_bins=16,
                index_events=CLUSTER_GEOMETRY.row_bits,
                arrival_rate_per_s=3e7,
                zipf_s=1.0,
                mix=(
                    ("and", 0.2),
                    ("or", 0.15),
                    ("xor", 0.1),
                    ("inv", 0.05),
                    ("range", 0.5),
                ),
            ),
            round_requests=32,
            warmup_rounds=40,
            n_nodes=8,
            head_tenants=4,
            head_replicas=4,
        ),
    )
}


def _compact(values: np.ndarray) -> np.ndarray:
    """Smallest unsigned dtype holding ``values`` (the mirror's copy)."""
    values = np.asarray(values)
    top = int(values.max()) if values.size else 0
    for dtype in (np.uint8, np.uint16, np.uint32):
        if top <= np.iinfo(dtype).max:
            return values.astype(dtype)
    return values.astype(np.int64)


class DatasetRecorder:
    """A stand-in target that records what ``build_datasets`` loads.

    The recorded calls replay into any real target, and the recorded
    arrays are the oracle's starting state: the program and the oracle
    see the same inputs, and neither is read back from the other.
    """

    def __init__(self) -> None:
        self.calls: List[tuple] = []
        self.vectors: Dict[tuple, np.ndarray] = {}
        self.indexes: Dict[tuple, tuple] = {}
        self.columns: Dict[tuple, tuple] = {}

    def register_tenant(self, tenant, quota=None, **kwargs) -> None:
        self.calls.append(("register_tenant", (tenant, quota), kwargs))

    def load_vectors(self, tenant, vectors) -> None:
        vectors = {n: np.asarray(b, dtype=np.uint8) for n, b in vectors.items()}
        for name, bits in vectors.items():
            self.vectors[(tenant, name)] = bits
        self.calls.append(("load_vectors", (tenant, vectors), {}))

    def load_bitmap_index(self, tenant, column, bin_indices, n_bins) -> None:
        idx = _compact(bin_indices)
        self.indexes[(tenant, column)] = (idx, n_bins)
        self.calls.append(
            ("load_bitmap_index", (tenant, column, idx, n_bins), {})
        )

    def load_bitslice_column(self, tenant, column, values, n_bits) -> None:
        vals = _compact(values)
        self.columns[(tenant, column)] = (vals, n_bits)
        self.calls.append(
            ("load_bitslice_column", (tenant, column, vals, n_bits), {})
        )

    def replay(self, client: ServiceClient) -> None:
        for method, args, kwargs in self.calls:
            getattr(client, method)(*args, **kwargs)


def record_datasets(workload: Workload, seed: int) -> DatasetRecorder:
    recorder = DatasetRecorder()
    build_datasets(
        workload.dataset_spec(seed),
        recorder,
        head_tenants=workload.head_tenants,
        head_replicas=workload.head_replicas,
    )
    return recorder


def subscriptions(workload: Workload, seed: int) -> list:
    """The standing queries registered during set-up (may be empty)."""
    if not workload.subscriptions_per_tenant:
        return []
    spec = replace(workload.dataset_spec(seed), n_requests=1)
    return [r for r in generate_requests(spec) if r.kind == "subscribe"]


class Session:
    """One serving target plus the client and bookkeeping of a run."""

    def __init__(self, workload: Workload, recorder: DatasetRecorder, subs):
        self.workload = workload
        self.target = workload.build_target()
        self.client = ServiceClient(self.target)
        recorder.replay(self.client)
        self.next_id = 0
        self._seen_results = 0
        self._seen_notes = 0
        self._node_seen: Dict[int, int] = {}
        if subs:
            self.submit(self.shift(subs, 0.0))
            self.client.run()

    @property
    def loop(self):
        return self.target.loop

    def shift(self, requests, base: float) -> list:
        """Renumber a burst after the last one and move it to ``base``."""
        shifted = [
            replace(
                r,
                request_id=self.next_id + i,
                arrival_s=base + r.arrival_s,
            )
            for i, r in enumerate(requests)
        ]
        self.next_id += len(shifted)
        return shifted

    def submit(self, shifted) -> int:
        return play_stream(self.client, shifted)

    def take_new(self):
        """Results and notifications recorded since the last call."""
        results = self.target.results[self._seen_results:]
        notes = self.target.notifications[self._seen_notes:]
        self._seen_results += len(results)
        self._seen_notes += len(notes)
        return results, notes

    def release_bits(self, results) -> None:
        """Drop the bits of checked results so memory stays bounded.

        ``keep_bits`` is on so the oracle can compare whole results; a
        cluster also keeps bits on each node's part results.
        """
        for result in results:
            result.bits = None
        nodes = getattr(self.target, "nodes", None)
        if nodes is None:
            return
        for node_id, node in nodes.items():
            done = node.service.results
            for result in done[self._node_seen.get(node_id, 0):]:
                result.bits = None
            self._node_seen[node_id] = len(done)

    def energy_j(self) -> float:
        return float(self.target.stats.energy_j)


def round_requests(workload: Workload, seed: int, index: int) -> list:
    return generate_requests(workload.round_spec(seed, index))
