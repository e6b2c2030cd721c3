"""End-to-end benchmark of record: Figure-6 points, allocation tests and
the ``repro serve`` path, with per-layer host time from a traced pass.

Run ``python -m benchmarks.e2e --help``; see README.md in this directory.
"""
