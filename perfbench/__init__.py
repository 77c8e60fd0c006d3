"""Benchmark of the reproduction: workloads, metrics and layer tracing."""
