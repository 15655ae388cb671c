"""End-to-end benchmark of ``repro`` with per-layer breakdowns.

See ``benchmarks/e2e/README.md`` for the workloads, the metrics and how
to run, trace and compare; ``python -m benchmarks.e2e --help`` for the
command line.
"""
