"""Time one fresh process's set-up for a workload.

    PYTHONPATH=src python3 bench/probe.py WORKLOAD

Measures ``import ndeb.cli`` (what every CLI call imports) plus the
workload's warm-up call at its dimensions, and prints the seconds.
``run.py`` starts this several times and reports the median as setup_s.
"""
import sys
import time

t0 = time.perf_counter()
import ndeb.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](0, None, workloads.load_golden()).warm_up()
print(time.perf_counter() - t0)
