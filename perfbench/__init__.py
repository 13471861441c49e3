"""The repository benchmark: workloads, layer rollup and runner (see README.md)."""
