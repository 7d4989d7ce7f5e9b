"""Repository benchmark: serving traffic mixes and the paper's PHT sweep.

Run from the repository root with ``python3 perfbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; see ``perfbench/README.md``.
"""
