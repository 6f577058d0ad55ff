"""End-to-end and per-layer benchmark of the fingerkit CLI.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload from the root of a source checkout; see ``run.py``.
"""
