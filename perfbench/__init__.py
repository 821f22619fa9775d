"""End-to-end benchmark of the PARROT reproduction (``repro``).

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root.  ``LAYERS.md`` in this directory
explains the workloads, the metrics and how each per-layer metric maps to
the end-to-end metric it should move.
"""
