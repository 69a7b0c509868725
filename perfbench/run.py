"""cutwords benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload brackets --seed 12648430 --seconds 28 --trace 0

Run it from the root of a source checkout; the library is imported from
`src/`.  The workload's passes repeat, one after another in this process,
until `--seconds` is used up.  Every pass checks every result, so a wrong
answer counts as a failed operation and its time is never reported.
Every timed section runs under a `hostspeed.Sampler`, and its time is
reported normalised to the host's speed at the time.

With `--trace 0` the last line of stdout carries the end-to-end metrics:
`wall_s` (median normalised pass), `setup_s` (median normalised set-up in
a fresh process: imports plus input generation) and `peak_rss_mb`.  With `--trace 1`,
untraced and traced passes alternate and the last line carries the
per-layer metrics of the traced ones, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
DEFAULT_SEED = 12648430
SETUP_REPEATS = 5
MIN_PASSES = 3  # timed passes per kind, even when --seconds is shorter
WORKLOAD_NAMES = ("brackets", "core_lemma", "mclab")


def cap_thread_vars():
    """Cap BLAS/OpenMP pools at the cores this process may use; runs
    before numpy is imported, and child processes inherit the values."""
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= NPROC:
            os.environ[var] = str(NPROC)


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": NPROC, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, **{v: os.environ[v] for v in THREAD_VARS}}


def setup_seconds(workload: str, seed: int, workdir: Path) -> list:
    """Set the workload up in fresh interpreters, one at a time; a
    (measured, normalised) pair of seconds per set-up."""
    times = []
    for i in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
             str(workdir / f"setup{i}")],
            capture_output=True, text=True, timeout=120, check=True)
        measured, normalised = out.stdout.split()[-2:]
        times.append((float(measured), float(normalised)))
    return times


def run_pass(wl, tracer, traced: bool):
    from workloads import Checks

    tracer.enabled = traced
    first = len(tracer.spans)
    ck = Checks()
    with hostspeed.Sampler() as host:
        t0 = time.perf_counter()
        wl.run(ck)
        wall = time.perf_counter() - t0
    tracer.enabled = False
    return {"wall": wall, "norm": host.normalised(wall), "probe": host.mean_probe(),
            "checks": ck, "spans": tracer.spans[first:], "traced": traced}


def measure(wl, tracer, seconds: float, trace: bool) -> list:
    """Warm-up pass, then timed passes until `seconds` is used up.  With
    `trace`, untraced and traced passes alternate."""
    passes = [run_pass(wl, tracer, False)]
    passes[0]["warmup"] = True
    kinds = (False, True) if trace else (False,)
    t0 = time.perf_counter()
    while True:
        for traced in kinds:
            passes.append(run_pass(wl, tracer, traced))
        timed = [p for p in passes if not p.get("warmup")]
        elapsed = time.perf_counter() - t0
        per_round = elapsed / (len(timed) / len(kinds))
        if len(timed) >= MIN_PASSES * len(kinds) and elapsed + per_round > seconds:
            return passes


def tally(passes) -> tuple:
    """(attempted, failed, digest): every check of every pass, plus one
    determinism check per pass against the first pass's digest."""
    digest = passes[0]["checks"].digest()
    attempted = failed = 0
    for p in passes:
        ck = p["checks"]
        attempted += ck.attempted + 1
        failed += len(ck.failed) + (ck.digest() != digest)
        p["ok"] = not ck.failed and ck.digest() == digest
    return attempted, failed, digest


def median_wall(passes, traced: bool, key: str = "norm") -> float:
    """Median normalised (or, with key="wall", measured) time of the
    checked, timed passes of one kind; passes with a failed check are left
    out (if none passed, the run is already marked incorrect and all
    passes are used)."""
    kind = [p for p in passes if not p.get("warmup") and p["traced"] == traced]
    good = [p[key] for p in kind if p["ok"]]
    return statistics.median(good or [p[key] for p in kind])


def layer_metrics(wl, passes, setup_spans, names) -> dict:
    """Medians over the traced passes; a layer the workload never calls reads 0."""
    from spans import top_level_seconds

    per_pass = []
    for p in passes:
        if not p["traced"]:
            continue
        m = dict.fromkeys(names, 0.0)
        m.update(wl.layer_metrics(p["spans"]))
        m["trace.coverage_frac"] = top_level_seconds(p["spans"]) / p["wall"]
        per_pass.append(m)
    out = {name: statistics.median(m[name] for m in per_pass) for name in names}
    out["laws.build_s"] = sum(s["end"] - s["start"] for s in setup_spans
                              if s["name"].startswith("laws."))
    plain = median_wall(passes, False)
    out["trace.overhead_frac"] = (median_wall(passes, True) - plain) / plain
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must be a non-negative 63-bit integer")
    if not (ROOT / "src" / "cutwords" / "__init__.py").is_file():
        print(f"error: no cutwords sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT / 'BENCHMARK.json'} not found", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    cap_thread_vars()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from spans import Tracer

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    try:
        setups = setup_seconds(args.workload, args.seed, workdir)
        tracer = Tracer(args.trace == 1)
        wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir / "run"),
                                                workloads.make_layers(tracer))
        setup_spans = list(tracer.spans)
        passes = measure(wl, tracer, args.seconds, args.trace == 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, digest = tally(passes)
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = layer_metrics(wl, passes, setup_spans, list(units))
        trace_path = ROOT / ".perfbench-out" / f"trace-{args.workload}-{args.seed}.jsonl"
        trace_path.parent.mkdir(exist_ok=True)
        with open(trace_path, "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")
    else:
        values = {"wall_s": median_wall(passes, False),
                  "setup_s": statistics.median(norm for _, norm in setups),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    n_timed = sum(not p.get("warmup") for p in passes)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} passes {n_timed}+1 warm-up"
          f" setups {len(setups)}")
    print("pass walls (s, measured/normalised):",
          " ".join(f"{p['wall']:.3f}/{p['norm']:.3f}{'t' if p['traced'] else ''}" for p in passes))
    print("set-ups (s, measured/normalised):", " ".join(f"{m:.3f}/{n:.3f}" for m, n in setups))
    print(f"measured median pass {median_wall(passes, False, 'wall'):.4g} s;"
          f" host probe mean {statistics.mean(p['probe'] for p in passes) * 1e3:.4g} ms"
          f" (normalised to {hostspeed.NOMINAL_PROBE_S * 1e3:g} ms)")
    print(f"ops_attempted {attempted} ops_failed {failed} ops_failed_frac {failed / attempted:.6g}"
          f" digest {digest}")
    for p in passes:
        if p["checks"].failed:
            print("failed checks:", ", ".join(p["checks"].failed))
    print("environment", json.dumps(environment(), sort_keys=True))
    for name, value in values.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
