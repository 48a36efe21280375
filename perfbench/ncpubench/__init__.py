"""End-to-end and per-layer benchmark of the NCPU reproduction.

Run it through ``perfbench/run.py``; ``perfbench/README.md`` describes
the workloads and metrics.
"""
