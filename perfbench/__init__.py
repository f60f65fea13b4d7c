"""Benchmark harness for cpwall; run it with ``python3 perfbench/run.py``."""
