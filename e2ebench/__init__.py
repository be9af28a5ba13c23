"""End-to-end benchmark of the EFD recognition system.

Run ``python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``e2ebench/README.md`` lists
the workloads and every metric with its unit and layer.
"""
