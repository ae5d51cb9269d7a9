"""End-to-end and per-layer benchmark of the simulator and its service.

Run ``python3 perfbench/run.py --help`` from the repository root; the
README beside this file explains the workloads and metrics.
"""
