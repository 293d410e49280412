"""Harness for the repository benchmark (see perfbench/README.md)."""
