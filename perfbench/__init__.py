"""Repository benchmark: seeded serving workloads over the public client.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``METRICS.md``.
"""
