"""End-to-end benchmark of the paper's workloads; entry point ``run.py``."""
