"""The reference benchmark: six workloads, end-to-end and per-layer metrics.

See README.md in this directory; ``run.py`` is the command ``BENCHMARK.json`` names.
"""
