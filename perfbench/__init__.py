"""Benchmark of the qsep package; run ``python3 perfbench/run.py --help``."""
