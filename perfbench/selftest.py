"""Self-test of the benchmark itself (not of the library).

    python3 perfbench/selftest.py

1. A deliberately wrong oracle value in each workload is counted as a
   failed operation, and a pass whose results hash differently from the
   first pass is counted as a failure too.
2. Every metric named in BENCHMARK.json is printed, by name and with its
   unit, both in the summary lines and in the final JSON line.
3. In a directory holding only BENCHMARK.json and the benchmark's files,
   the benchmark exits non-zero without printing a result.
4. The host-speed sampler probes inside a timed block, leaves the
   signal handler as it found it, and its normalised time scales with the
   probe time.
"""

from __future__ import annotations

import json
import signal
import shutil
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# (workload, oracle to corrupt, wrong value, check that must then fail)
CORRUPTIONS = [
    ("brackets", "three_log_two", lambda real: lambda: real() + 1e-3, "closed_form_3log2"),
    ("core_lemma", "phi_upper", lambda real: lambda a, p: real(a, p) + 0.1, "phi_bounds"),
    ("mclab", "cut_mass", lambda real: lambda *a: real(*a) * (1 + 1e-9), "enum_pair_split"),
]


def check_wrong_oracles(workdir: Path):
    import workloads
    from spans import Tracer

    for name, oracle, wrong, expect in CORRUPTIONS:
        real = getattr(workloads, oracle)
        wl = workloads.WORKLOADS[name](run.DEFAULT_SEED, str(workdir / name),
                                       workloads.make_layers(Tracer(False)))
        honest = workloads.Checks()
        wl.run(honest)
        setattr(workloads, oracle, wrong(real))
        try:
            corrupted = workloads.Checks()
            wl.run(corrupted)
        finally:
            setattr(workloads, oracle, real)
        assert honest.failed == [], (name, honest.failed)
        assert corrupted.failed == [expect], (name, corrupted.failed)
        attempted, failed, _ = run.tally([{"checks": honest}, {"checks": corrupted}])
        assert (attempted, failed) == (2 * honest.attempted + 2, 1), (name, attempted, failed)
        # a result that differs between passes fails the determinism check
        drifted = workloads.Checks()
        drifted.records = [list(r) for r in honest.records]
        drifted.records[-1][1] = {**drifted.records[-1][1], "drift": 1}
        _, failed, _ = run.tally([{"checks": honest}, {"checks": drifted}])
        assert failed == 1, (name, failed)
        print(f"selftest: {name}: wrong {oracle}() counted as failed {expect}; "
              "changed result fails the digest")


def check_printed_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for workload, trace, group in (("core_lemma", 0, "end_to_end"), ("mclab", 1, "per_layer")):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seconds", "1",
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300, check=True).stdout
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
        want = {m["name"]: m["unit"] for m in spec[group]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want, (sorted(set(got) ^ set(want)), got)
        for name, unit in want.items():
            assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                       for line in lines), (name, unit)
        print(f"selftest: {workload} --trace {trace}: all {len(want)} {group} metrics printed")


def check_refuses_without_sources(workdir: Path):
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "mclab", "--seconds", "1",
         "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout
    print(f"selftest: without sources: exit code {proc.returncode}, no result printed")


def check_host_sampler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler(interval=0.05) as host:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            hostspeed.probe()
        seconds = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(host.probes) >= 5, host.probes
    net = seconds - host.inside_seconds()
    assert 0 < net < seconds
    expect = net * hostspeed.NOMINAL_PROBE_S / host.mean_probe()
    assert abs(host.normalised(seconds) - expect) <= 1e-12 * expect
    # a host twice as slow: every probe and the work between them take twice as long
    t_first = host.probes[0][0]
    host.probes = [(t_first + 2 * (a - t_first), t_first + 2 * (b - t_first)) for a, b in host.probes]
    assert abs(host.normalised(2 * seconds) - expect) <= 1e-9 * expect
    print(f"selftest: host sampler: {len(host.probes)} probes around and in 0.5 s,"
          f" mean {host.mean_probe() * 1e3:.3f} ms")


def main() -> int:
    run.cap_thread_vars()
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench-work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        check_host_sampler()
        check_wrong_oracles(workdir)
        check_refuses_without_sources(workdir)
        check_printed_metrics()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
