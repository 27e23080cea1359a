"""Benchmark for flagpde; see README.md in this directory."""
