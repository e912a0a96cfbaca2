"""Benchmark for sparsemod; run it with `python3 perfbench/run.py --help`."""
