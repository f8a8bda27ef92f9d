"""Repository benchmark: seeded serve, ingest and training workloads.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload in fresh single-threaded worker processes and prints a
human-readable report followed by one JSON result line.  ``--workload all``
runs every workload untraced and traced.  See ``perfbench/metrics.json`` for
what each metric means, which layer it belongs to and which end-to-end metric
each layer metric should move.
"""
