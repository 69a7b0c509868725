"""Set one workload up in this fresh interpreter and print the seconds it
took, library imports plus input generation: first as measured, then
normalised to the host's speed (see hostspeed.py).

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>
"""

import time

import hostspeed

with hostspeed.Sampler() as HOST:
    T0 = time.perf_counter()

    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    import workloads
    from spans import Tracer

    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.WORKLOADS[workload](seed, workdir, workloads.make_layers(Tracer(False)))
    SECONDS = time.perf_counter() - T0
print(repr(SECONDS), repr(HOST.normalised(SECONDS)))
