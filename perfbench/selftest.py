"""Self-tests of the benchmark's own machinery.

Run from the repository root::

    python3 perfbench/selftest.py                 # quick checks, ~2 s
    python3 perfbench/selftest.py --determinism   # + two runs per seed, ~5 min

Checks: a flipped result bit and a wrong notification are caught by
the oracle; self-time aggregation on a synthetic span tree; wrappers
are restored; rounds never schedule into the simulated past; and,
with ``--determinism``, two processes running one seed report
identical simulated metrics and per-layer counts.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import oracle, tracer, workloads  # noqa: E402


def _session(name: str, seed: int = 0):
    workload = workloads.WORKLOADS[name]
    recorder = workloads.record_datasets(workload, seed)
    subs = workloads.subscriptions(workload, seed)
    session = workloads.Session(workload, recorder, subs)
    checker = oracle.Checker(oracle.Mirror(recorder))
    results, notes = session.take_new()
    checker.check_round(results, notes)
    return workload, session, checker


def _one_round(workload, session, seed: int, index: int):
    base = session.loop.now
    shifted = session.shift(workloads.round_requests(workload, seed, index), base)
    if min(r.arrival_s for r in shifted) < base:
        raise AssertionError("round scheduled before the loop's clock")
    session.submit(shifted)
    session.client.run()
    if session.loop.now < base:
        raise AssertionError("simulated clock went backwards")
    return session.take_new()


def test_flipped_bit_is_caught() -> None:
    workload, session, checker = _session("cluster-scatter")
    results, notes = _one_round(workload, session, 0, 0)
    checker.check_round(results, notes)
    assert checker.mismatches == 0, checker.details
    victim = next(r for r in results if r.bits is not None and r.bits.size)
    victim.bits = victim.bits.copy()
    victim.bits[victim.bits.size // 2] ^= 1
    fresh = oracle.Checker(oracle.Mirror(workloads.record_datasets(workload, 0)))
    fresh.check_round([victim], [])
    assert fresh.mismatches == 1, "a flipped result bit went unnoticed"


def test_wrong_notification_is_caught() -> None:
    workload, session, checker = _session("write-subscribe")
    assert checker.mismatches == 0, checker.details
    for index in range(20):
        results, notes = _one_round(workload, session, 0, index)
        refreshes = [n for n in notes if n.seq > 0]
        if refreshes:
            refreshes[0].popcount += 1
            checker.check_round(results, notes)
            assert checker.mismatches == 1, checker.details
            return
        checker.check_round(results, notes)
    raise AssertionError("no notification in 20 write rounds")


def test_rounds_never_schedule_into_the_past() -> None:
    workload, session, checker = _session("cluster-scatter")
    for index in range(5):
        results, notes = _one_round(workload, session, 0, index)
        checker.check_round(results, notes)
    assert checker.mismatches == 0, checker.details
    # negative control: an unshifted burst lands before the clock
    stale = workloads.round_requests(workload, 0, 99)
    try:
        session.submit(session.shift(stale, 0.0))
    except ValueError:
        return
    raise AssertionError("an arrival in the simulated past was accepted")


def test_self_time_on_synthetic_tree() -> None:
    log = tracer.SpanLog(["root", "a", "b", "c"], ["untraced", "x", "y", "x"])
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    for name_id, parent, start, end in (
        (0, -1, 0.0, 10.0),
        (1, 0, 1.0, 4.0),
        (2, 1, 2.0, 3.0),
        (3, 0, 5.0, 9.0),
    ):
        log.name_id.append(name_id)
        log.parent.append(parent)
        log.start.append(start)
        log.end.append(end)
        log.round.append(0)
    own = tracer.self_times(log)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0], own
    layers, calls = tracer.layer_self_times(log)
    assert layers["untraced"] == 3.0 and layers["x"] == 6.0 and layers["y"] == 1.0
    assert calls == {"root": 1, "a": 1, "b": 1, "c": 1}
    assert abs(sum(layers.values()) - 10.0) < 1e-12


def test_wrappers_are_restored() -> None:
    from repro.service.clock import EventLoop

    original = vars(EventLoop)["run"]
    tr = tracer.OutsideTracer()
    tr.install()
    try:
        assert vars(EventLoop)["run"] is not original
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        with tr.round_span(0):
            loop.run()
        names = [tr.log.names[i] for i in tr.log.name_id]
        assert names == ["round", "EventLoop.run"], names
    finally:
        tr.restore()
    assert tr.assert_restored() == len(tracer.BOUNDARIES)
    assert vars(EventLoop)["run"] is original


def _run(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def test_determinism(seed: int = 7) -> None:
    """Simulated metrics and per-layer counts repeat exactly per seed."""
    for name in workloads.WORKLOADS:
        first, second = _run(name, seed, 0), _run(name, seed, 0)
        sim = [k for k in first if k.startswith("sim_")]
        assert all(first[k] == second[k] for k in sim), (name, first, second)
        first, second = _run(name, seed, 1), _run(name, seed, 1)
        counts = [k for k, v in first.items() if v["unit"] != "s"
                  and not k.startswith("trace.")]
        diff = [k for k in counts if first[k] != second[k]]
        assert not diff, (name, diff)
        print(f"  {name}: {len(sim)} sim metrics, {len(counts)} counts identical")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--determinism", action="store_true")
    args = parser.parse_args()
    tests = [
        test_self_time_on_synthetic_tree,
        test_wrappers_are_restored,
        test_flipped_bit_is_caught,
        test_wrong_notification_is_caught,
        test_rounds_never_schedule_into_the_past,
    ]
    if args.determinism:
        tests.append(test_determinism)
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
