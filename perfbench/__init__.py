"""Benchmark for xmodal: workloads, corpus generator, tracing and oracles."""
