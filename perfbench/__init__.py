"""The repository benchmark: four workloads driven through the public API.

Run one workload with ``python3 perfbench/run.py --workload adapt --seed 1
--seconds 20 --trace 0`` from the repository root; see ``perfbench/README.md``.
"""
