"""Reference-paced end-to-end benchmark of the slice-broker control plane.

See ``README.md`` in this directory for the protocol.  Layout:

- ``run.py`` — the one command (``BENCHMARK.json``): one workload, one
  JSON result line.
- ``__main__.py`` — ``python -m benchmarks.e2e``: every workload in its
  own process, the metric table, ``--trace`` and the ``--aa`` check.
- ``pacing.py`` — reference kernel, reference clock, nominal fsync,
  percentiles.
- ``trace.py`` — declarative span table, run-time wrappers, self time.
- ``fleet.py`` — the only module that imports ``repro``.
- ``workloads.py`` — ``churn``, ``burst``, ``failover``, ``commuter``.
"""
