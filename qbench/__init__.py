"""Benchmark harness for qcrb-lab.

Run one workload from a seed with ``python3 qbench/run.py --workload
{curves,validate,mc} --seed N --seconds S --trace {0,1}``; see
``run.py`` for what each workload measures and checks.
"""
