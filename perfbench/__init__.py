"""Benchmark of katolab: see ``run.py`` and ``BENCHMARK.json``."""
