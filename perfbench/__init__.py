"""Repository benchmark: paper and metro workloads, end-to-end and per-layer metrics.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root.  ``BENCHMARK.json`` lists the
workloads and metrics; ``perfbench/layers.json`` maps every per-layer
metric to the end-to-end metric and workload it should move.
"""
