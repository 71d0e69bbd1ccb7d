"""The performance ledger: the repo's benchmark (see ``README.md`` here).

Five seeded workloads drive the three real entry points —
``BatchEngine.scan``, ``BatchEngine.durable_scan`` and ``python -m repro
serve`` — in hermetic child processes, verify every operation against
the pure-Python oracle, and report four bounded end-to-end metrics (plus
the tail percentile and the failure count); a separate traced pass
attributes host time to named layers.  ``BENCHMARK.json`` at
the repo root names the command, the workloads, the metrics and their
regression bounds; nothing under ``src/`` knows this package exists.
"""
