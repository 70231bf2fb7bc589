"""Benchmark of the invineq command line: workloads, fresh-process
measurement and the per-layer span trace."""
