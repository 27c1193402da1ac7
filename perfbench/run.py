"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload cluster-scatter --seed 1 --seconds 10 --trace 0

A *trial* sets up a fresh target, plays the warm-up rounds and then
``TRIAL_ROUNDS`` timed rounds; every trial of one seed does identical
work.  ``--trace 0`` runs at least ``MIN_TRIALS`` trials, and more
until ``--seconds`` of timed rounds are measured.  It reports the
end-to-end metrics: set-up and warm-up time, host throughput and round
times from each round's best play, peak memory, and the simulated
throughput, tail latency and energy of one trial (checked equal across
trials).  ``--trace 1`` runs one traced
trial for self time per layer, calls per boundary and the program's
counters, then untraced trials for the tracing overhead.

Every output is checked against a numpy mirror.  The last line of
standard output is one JSON object; the exit code is 1 when any result
was wrong, rejected or raised, and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
#: at least this many trials, i.e. plays of every timed round and
#: set-ups behind the ``setup_s`` median; the host's slow spells last
#: seconds, so five plays spread over a run rarely all fall in one
MIN_TRIALS = 5
#: rounds of the traced pass written out as a Chrome trace
CHROME_ROUNDS = 5


def _import_benchmark():
    """Import the benchmark modules, which need the ``repro`` sources."""
    if not (ROOT / "src" / "repro").is_dir():
        raise ImportError(f"no repro sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy  # noqa: F401  (fail here, not mid-run)
    import repro.service.api  # noqa: F401
    from perfbench import oracle, tracer, workloads

    return oracle, tracer, workloads


class Rounds:
    """Per-round measurements of one pass of the closed loop."""

    def __init__(self) -> None:
        self.wall = []
        self.completed = []
        self.sim_span = []
        self.latencies = []
        self.energy = []

    def sim(self) -> dict:
        """Simulated metrics of these rounds (exact for a seed)."""
        import numpy as np

        completed = sum(self.completed)
        span = sum(self.sim_span)
        lat = np.concatenate(self.latencies)
        return {
            "sim_req_per_s": float(completed / span),
            "sim_p99_us": float(np.percentile(lat, 99)) * 1e6,
            "sim_energy_nj_per_req": sum(self.energy) / completed * 1e9,
        }


class Runner:
    """One workload and seed: its inputs, trials and failure counts."""

    def __init__(self, modules, workload, seed: int) -> None:
        self.oracle, self.tracer_mod, self.wl = modules
        self.workload = workload
        self.seed = seed
        self.recorder = self.wl.record_datasets(workload, seed)
        self.subs = self.wl.subscriptions(workload, seed)
        self._rounds = {}
        self._answers = {}
        self.attempted = 0
        self.mismatches = 0
        self.rejected = 0
        self.raised = 0

    # -- phases --------------------------------------------------------------

    def round(self, index: int) -> list:
        """Round ``index``'s requests, generated once and replayed by
        every trial (requests are immutable)."""
        requests = self._rounds.get(index)
        if requests is None:
            requests = self._rounds[index] = self.wl.round_requests(
                self.workload, self.seed, index
            )
        return requests

    def setup(self):
        """Build the target and load the datasets.

        Returns ``(session, checker, set-up seconds)``.
        """
        t0 = time.perf_counter()
        session = self.wl.Session(self.workload, self.recorder, self.subs)
        elapsed = time.perf_counter() - t0
        checker = self.oracle.Checker(
            self.oracle.Mirror(self.recorder, self._answers)
        )
        results, notes = session.take_new()
        checker.check_round(results, notes)
        session.release_bits(results)
        self.attempted += len(self.subs) + len(notes)
        return session, checker, elapsed

    def play(self, session, checker, first: int, n_rounds: int,
             tracer=None) -> Rounds:
        """Play ``n_rounds`` closed-loop rounds, checking every result."""
        import numpy as np

        from repro.service.request import RequestStatus

        out = Rounds()
        for i in range(n_rounds):
            requests = self.round(first + i)
            base = session.loop.now
            shifted = session.shift(requests, base)
            energy0 = session.energy_j()
            span = tracer.round_span(i) if tracer is not None else nullcontext()
            t0 = time.perf_counter()
            try:
                with span:
                    session.submit(shifted)
                    session.client.run()
            except Exception:
                self.raised += len(requests)
                self.attempted += len(requests)
                raise
            wall = time.perf_counter() - t0
            results, notes = session.take_new()
            checker.check_round(results, notes)
            session.release_bits(results)
            done = [r for r in results if r.status is RequestStatus.COMPLETED]
            out.wall.append(wall)
            out.completed.append(len(done))
            out.sim_span.append(session.loop.now - base)
            out.latencies.append(np.array([r.latency_s for r in done]))
            out.energy.append(session.energy_j() - energy0)
            self.attempted += len(requests) + len(notes)
        return out

    def trial(self, tracer=None, on_warm=None):
        """Set up, warm up and play the timed rounds on a fresh target.

        Every trial of one seed does identical work, so its rounds
        compare play by play across trials.  Returns ``(setup seconds, warm-up rounds, timed rounds)``.
        """
        gc.collect()
        session, checker, setup_s = self.setup()
        warm = self.play(session, checker, 0, self.workload.warmup_rounds)
        if on_warm is not None:
            on_warm()
        timed = self.play(
            session,
            checker,
            self.workload.warmup_rounds,
            self.wl.TRIAL_ROUNDS,
            tracer=tracer,
        )
        self.finish(checker)
        self.verify_read_only(session)
        return setup_s, warm, timed

    def finish(self, checker) -> None:
        self.mismatches += checker.mismatches
        self.rejected += checker.rejected
        for line in checker.details:
            print(f"MISMATCH {line}", file=sys.stderr)

    def verify_read_only(self, session) -> None:
        """The target's own ``verify_results`` (popcount vs its shadows).

        Skipped for analytics, whose reference recomposes the column on
        every call and would take minutes at this size.
        """
        if self.workload.writes or self.workload.spec.value_bits:
            return
        try:
            session.target.verify_results()
        except AssertionError as exc:
            self.mismatches += 1
            print(f"MISMATCH verify_results: {exc}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return not (self.mismatches or self.rejected or self.raised)

    def failed_count(self) -> int:
        return self.mismatches + self.rejected + self.raised

    # -- the two kinds of run --------------------------------------------------

    def end_to_end(self, seconds: float) -> dict:
        """Trials until ``seconds`` of timed rounds; best-of-trials times."""
        import numpy as np

        trials = []
        while len(trials) < MIN_TRIALS or sum(sum(t[2].wall) for t in trials) < seconds:
            trials.append(self.trial())
        setups = [t[0] for t in trials]
        sims = [t[2].sim() for t in trials]
        if any(sim != sims[0] for sim in sims):
            # one seed, identical work: only a nondeterministic
            # program can price the same trial differently
            self.mismatches += 1
            print(f"MISMATCH simulated metrics differ between trials: {sims}",
                  file=sys.stderr)
        # every trial plays the same rounds: a round's host time is the
        # best of its plays, which drops the slow spells of a shared host
        best = np.min([t[2].wall for t in trials], axis=0)
        completed = sum(trials[0][2].completed)
        metrics = {
            "req_per_s": (completed / best.sum(), "req/s"),
            "round_p50_ms": (float(np.percentile(best, 50)) * 1e3, "ms"),
            "round_p95_ms": (float(np.percentile(best, 95)) * 1e3, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "warmup_s": (min(sum(t[1].wall) for t in trials), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB",
            ),
        }
        units = {
            "sim_req_per_s": "req/s",
            "sim_p99_us": "us",
            "sim_energy_nj_per_req": "nJ/req",
        }
        for name, value in sims[0].items():
            metrics[name] = (value, units[name])
        print(
            f"# {len(trials)} trials of {self.wl.TRIAL_ROUNDS} timed rounds "
            f"({completed} requests each), {len(setups)} set-ups",
            file=sys.stderr,
        )
        return metrics

    def traced(self, seconds: float) -> dict:
        """One traced trial, then untraced trials for the overhead."""
        tr = self.tracer_mod
        tracer = tr.OutsideTracer()
        snaps = {}
        try:
            tracer.install()
            _, _, traced = self.trial(
                tracer, on_warm=lambda: snaps.update(before=counter_snapshot())
            )
            snaps["after"] = counter_snapshot()
        finally:
            tracer.restore()
        n_restored = tracer.assert_restored()
        spans = len(tracer.log)
        plain = []
        while not plain or sum(sum(t.wall) for t in plain) < seconds:
            plain.append(self.trial()[2])
        if len(tracer.log) != spans:
            raise AssertionError("spans recorded after the wrappers were removed")
        print(
            f"# {n_restored} boundaries restored; {spans} spans over "
            f"{len(traced.wall)} traced rounds; {len(plain)} untraced trials",
            file=sys.stderr,
        )
        layers, calls = tr.layer_self_times(tracer.log)
        wall = sum(traced.wall)
        traced_rps = sum(traced.completed) / wall
        plain_rps = sum(sum(t.completed) for t in plain) / sum(sum(t.wall) for t in plain)
        metrics = {
            f"{layer}.self_s": (value, "s") for layer, value in layers.items()
        }
        metrics["trace.coverage"] = (1.0 - layers[tr.UNTRACED] / wall, "fraction")
        metrics["trace.overhead"] = (plain_rps / traced_rps - 1.0, "fraction")
        metrics.update(layer_counts(snaps["before"], snaps["after"]))
        for name in tr.BOUNDARY_NAMES:
            metrics[f"{name}.calls"] = (calls[name], "count")
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{self.workload.name}-seed{self.seed}.trace.json"
        tr.write_chrome_trace(tracer.log, path, CHROME_ROUNDS)
        print(f"# chrome trace of {CHROME_ROUNDS} rounds: {path}", file=sys.stderr)
        return metrics


def counter_snapshot() -> dict:
    """Every always-live telemetry counter plus the pricing counters."""
    from repro import telemetry
    from repro.memsim.controller import perf_counters

    snap = {name: c.value for name, c in telemetry.tracer.counters.items()}
    snap["memsim.commands_priced"] = perf_counters.commands_priced
    snap["memsim.price_cache_hits"] = perf_counters.cache_hits
    snap["memsim.price_cache_misses"] = perf_counters.cache_misses
    return snap


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counts(before: dict, after: dict) -> dict:
    """Per-layer counts and ratios (each with its base) over a block."""

    def d(name: str) -> int:
        return after.get(name, 0) - before.get(name, 0)

    dispatches = d("service.scheduler.dispatches")
    cache = d("plan.cache.hits") + d("plan.cache.misses")
    programs = d("plan.compile.program_hits") + d("plan.compile.program_misses")
    repairs = d("plan.repair.repairs") + d("plan.repair.fallback_invalidations")
    analytics = d("plan.analytics.replays") + d("plan.analytics.fallbacks")
    flushes = d("runtime.driver.flushes")
    prices = d("memsim.price_cache_hits") + d("memsim.price_cache_misses")
    return {
        "service.dispatches": (dispatches, "count"),
        "service.batch_size_mean": (
            _ratio(d("service.requests.completed"), dispatches), "req/dispatch"
        ),
        "service.notifications": (d("service.subscriptions.notifications"), "count"),
        "cluster.scattered": (d("cluster.reads.scattered"), "count"),
        "plan.cache_lookups": (cache, "count"),
        "plan.cache_hit_ratio": (_ratio(d("plan.cache.hits"), cache), "fraction"),
        "plan.cache_evictions": (d("plan.cache.evictions"), "count"),
        "plan.program_lookups": (programs, "count"),
        "plan.program_hit_ratio": (
            _ratio(d("plan.compile.program_hits"), programs), "fraction"
        ),
        "plan.serve_replays": (d("plan.serve.replays"), "count"),
        "plan.repair_attempts": (repairs, "count"),
        "plan.repair_ratio": (_ratio(d("plan.repair.repairs"), repairs), "fraction"),
        "arith.analytics_calls": (analytics, "count"),
        "arith.replay_ratio": (
            _ratio(d("plan.analytics.replays"), analytics), "fraction"
        ),
        "runtime.flushes": (flushes, "count"),
        "runtime.requests_per_flush": (
            _ratio(d("runtime.driver.requests"), flushes), "req/flush"
        ),
        "runtime.mode_switches": (d("runtime.driver.mode_switches"), "count"),
        "memsim.commands_priced": (d("memsim.commands_priced"), "count"),
        "memsim.price_lookups": (prices, "count"),
        "memsim.price_cache_hit_rate": (
            _ratio(d("memsim.price_cache_hits"), prices), "fraction"
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        # str hashes are an input too: repro.plan.cache picks a cache
        # shard by hash(key), so eviction and simulated pricing differ
        # between processes unless the hash seed follows the run seed
        os.environ["PYTHONHASHSEED"] = hash_seed
        script = str(Path(__file__).resolve())
        os.execv(sys.executable, [sys.executable, script, *sys.argv[1:]])
    try:
        modules = _import_benchmark()
    except ImportError as exc:
        print(f"perfbench: cannot import the program ({exc})", file=sys.stderr)
        return 2
    workloads = modules[2].WORKLOADS
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads)}")
    runner = Runner(modules, workloads[args.workload], args.seed)
    try:
        if args.trace:
            metrics = runner.traced(args.seconds)
        else:
            metrics = runner.end_to_end(args.seconds)
    except Exception:
        # a raising program is a failed run, reported like a mismatch
        traceback.print_exc()
        runner.raised = max(runner.raised, 1)
        metrics = {}
    failed = runner.failed_count()
    error_rate = failed / runner.attempted if runner.attempted else 1.0
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>16.6g} {unit}")
    print(
        f"{'error_rate':<40} {error_rate:>16.6g} fraction "
        f"({runner.rejected} rejected, {runner.mismatches} mismatched, "
        f"{runner.raised} raised of {runner.attempted} attempted)"
    )
    print(
        json.dumps(
            {
                "correct": runner.correct,
                "attempted": runner.attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if runner.correct else 1


if __name__ == "__main__":
    sys.exit(main())
