"""End-to-end benchmark of the simulator: four workloads timed from
outside the program in fresh child processes, with a profiled rep that
charges host time to the program's layers.  See ``README.md``.
"""
