import os
import re
import subprocess
import sys

from cutwords.corelemma import phi_bounds

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def script_process(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def run_script(name, *args):
    proc = script_process(name, *args)
    proc.check_returncode()
    return proc.stdout


def test_rate_bracket_sweep_smoke():
    out = run_script("rate_bracket_sweep.py", "--depths", "2,4")
    annealed = [float(x) for x in re.findall(r"annealed rate = (\S+)", out)]
    rows = re.findall(r"^\s+(\d+)\s+(\S+)\s+(\S+)\s+\S+$", out, flags=re.M)
    assert len(annealed) == 3 and len(rows) == 6
    for _, lo, hi in rows:
        assert float(lo) <= float(hi)
    # the renewal law in the annealed part follows alpha
    assert len(set(annealed)) == len(annealed)


def test_core_lemma_decay_smoke():
    out = run_script("core_lemma_decay.py", "--T", "2000", "--N", "5", "--trials", "3",
                     "--ps", "0.1,0.03")
    rows = re.findall(r"^\s+(\S+)\s+(\S+)\s+\S+\s+\S+\s+\S+\s+\S+$", out, flags=re.M)
    assert [float(p) for p, _ in rows] == [0.1, 0.03]
    for p, median in rows:
        lo, hi = phi_bounds(2.0, float(p))
        assert lo - 0.3 <= float(median) <= hi + 0.3


def test_quenched_vs_annealed_smoke():
    out = run_script("quenched_vs_annealed.py", "--n-list", "2,4", "--jmax", "3", "--cap", "4")
    assert re.search(r"^annealed slope \(I-projection\): \S+ nats/word$", out, flags=re.M)
    rows = re.findall(r"^\s*(\d+)\s+(\S+)\s+(\S+)\s+\S+$", out, flags=re.M)
    assert [int(n) for n, _, _ in rows] == [2, 4]
    for _, prob, slope in rows:
        assert 0.0 <= float(prob) <= 1.0
        assert slope == "inf" or float(slope) >= 0.0


def test_waiting_time_experiment_smoke():
    out = run_script("waiting_time_experiment.py", "--m-min", "8", "--m-max", "12",
                     "--trials", "20", "--tol", "0.1")
    rows = re.findall(r"^\s*(\d+)\s+(\S+)\s+(\d+)$", out, flags=re.M)
    assert [int(m) for m, _, _ in rows] == [8, 9, 10, 11, 12]
    for _, mean_log, censored in rows:
        assert float(mean_log) >= 0.0 and censored == "0"
    assert re.search(r"^fitted slope\s+\S+ nats/letter$", out, flags=re.M)
    assert re.search(r"^predicted \(KL\)\s+0\.1927 nats/letter", out, flags=re.M)


def test_script_input_error_exits_one():
    # no count vector of 8 letters lies within the default tol of 0.8
    proc = script_process("waiting_time_experiment.py", "--m-min", "8", "--m-max", "12",
                          "--trials", "20")
    assert proc.returncode == 1
    assert "typical set empty" in proc.stderr and proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
