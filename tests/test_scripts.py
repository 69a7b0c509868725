import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_rate_bracket_sweep_smoke():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "rate_bracket_sweep.py"), "--depths", "2,4"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    annealed = [float(x) for x in re.findall(r"annealed rate = (\S+)", out)]
    rows = re.findall(r"^\s+(\d+)\s+(\S+)\s+(\S+)\s+\S+$", out, flags=re.M)
    assert len(annealed) == 3 and len(rows) == 6
    for _, lo, hi in rows:
        assert float(lo) <= float(hi)
    # the renewal law in the annealed part follows alpha
    assert len(set(annealed)) == len(annealed)
