import argparse
import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys

import pytest

from cutwords import cli, errors
from cutwords.cli import DEFAULT_SEED, build_parser, main
from cutwords.corelemma import bernoulli_omega, s_n_eval
from cutwords.laws import LetterLaw, ReferenceLaw, make_algebraic_renewal

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

BASE_CFG = {
    "letter_law": {"alphabet": "ab", "probs": [0.5, 0.5]},
    "renewal_law": {"alpha": 2.0, "cap": 4},
    "word_law": {"variant": "iid", "words": ["a", "bb"], "probs": [0.5, 0.5]},
    "neighbourhood": {
        "constraints": [{"pattern": ["a"], "low": 0.5, "high": 1.0}]
    },
    "target_law": {"alphabet": "ab", "probs": [0.3, 0.7]},
    "X": "abbaabbaabbaabba",
}


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE_CFG))
    return str(path)


def run(argv):
    return main(argv)


def test_success_exit_code(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "rate.csv")
    code = run(["rate", "--config", cfg_path, "--alpha", "2.0",
                "--depth", "6", "--out", out])
    assert code == 0
    assert capsys.readouterr().out.strip()


def test_missing_param_exit_code(cfg_path, capsys):
    code = run(["rate", "--config", cfg_path, "--depth", "6"])
    assert code == 1
    assert "alpha" in capsys.readouterr().err


def test_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"letter_law": {"alphabet": "ab", "probs": [0.9, 0.5]}}))
    code = run(["psi", "--config", str(bad), "--depth", "2"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_missing_config_file(capsys):
    code = run(["psi", "--config", "/nonexistent/cfg.json", "--depth", "2"])
    assert code == 1


def test_budget_exit_code(cfg_path, capsys):
    # depth large enough that the pattern table exceeds the size budget
    code = run(["psi", "--config", cfg_path, "--depth", "50"])
    assert code == 2
    assert "budget" in capsys.readouterr().err


def run_limited(argv, limit):
    """Run `python -m cutwords argv` in a subprocess with `limit` bytes of
    address space."""
    resource = pytest.importorskip("resource")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, "-m", "cutwords"] + argv,
        env=env, capture_output=True, text=True, timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


def test_deep_rate_fits_in_memory(tmp_path):
    # Six words whose minimized chain has 12 states; depth 20 takes the
    # pattern law to depth 21 (1.54 million live patterns).  The pass must
    # fit in 2.5 GiB of address space, where a (patterns x starts x states)
    # array alone needs 0.9 GiB by depth 20.
    cfg = dict(BASE_CFG, word_law={"variant": "iid",
                                   "words": ["aaa", "aaba", "ab", "baa", "babb", "bb"],
                                   "probs": [0.1, 0.15, 0.2, 0.25, 0.12, 0.18]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    proc = run_limited(["rate", "--config", str(path), "--alpha", "2", "--depth", "20"],
                       int(2.5 * 2**30))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith("rate: annealed=")


@pytest.mark.parametrize("argv, law, need", [
    (["psi", "--depth", "1"], {"word_law": {"variant": "iid", "words": ["a" * 20_000], "probs": [1.0]}},
     20_000**2 * 8),
    (["core-lemma", "--alpha", "2", "--p", "0.2", "--n", "1,2", "--horizon", "1000000000"],
     None, 8 * 10**9),
    # 16 bytes a letter of the medium, as sample_arrays checks letters
    (["quench-slopes", "--n", "1000000", "--jmax", "1000"], None, 16 * 10**9),
    (["simulate", "--n-letters", "0", "--n-words", "1000000000"], None, 24 * 10**9),
    # the 131 070 words up to length 16 make 131 070^2 pairs, whose counts and
    # frequencies with the reference, the tables by length and the words of
    # the one chunk in flight at 24 bytes are checked before anything is drawn
    (["ergodic", "--n-words", "1000000000", "--k", "2"], {"renewal_law": {"alpha": 2.0, "cap": 16}},
     8 * (2 * 131_070**2 + 131_070) + 12 * 17 + 24 * 2**15),
    # per word: a cut point and a word, each a tuple slot and an object
    (["simulate", "--n-letters", "0", "--n-words", "10000000"], None,
     10**7 * (16 + sys.getsizeof(4 * 10**7) + sys.getsizeof("a"))),
    # 648 bytes a Generator, 28 a cell of the first scan block (trials x 5M)
    (["waiting-time", "--m", "10,20", "--trials", "20000000", "--tol", "0.034"], None,
     648 * 2 * 10**7 + 28 * (5 * 20 * 2 * 10**7 + 2**16)),
], ids=["psi-long-word", "core-lemma-horizon", "quench-slopes-medium", "simulate-words",
        "ergodic-pair-table", "simulate-word-objects", "waiting-time-generators"])
def test_budget_checked_before_allocation(tmp_path, argv, law, need):
    # Each of these allocated past 1.5 GiB of address space and died with a
    # numpy ArrayMemoryError or a MemoryError; the byte budget must stop it
    # first.
    cfg = dict(BASE_CFG, **(law or {}))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    proc = run_limited(argv + ["--config", str(path)], int(1.5 * 2**30))
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error (budget): ")
    assert line.endswith(f" needs {need} bytes, over the budget of {errors.BUDGET_BYTES}")


@pytest.mark.parametrize("seed", range(6))
def test_quench_slopes_medium_ignores_long_jumps(tmp_path, capsys, seed):
    # a renewal atom past the budget's letters, beyond Jmax: the medium is
    # N * Jmax letters whatever jump the seed would draw first
    cfg = dict(BASE_CFG, renewal_law={"alpha": 2.0, "atoms": [[1, 0.5], [10**8, 0.5]]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert 16 * 10**8 > errors.BUDGET_BYTES
    out = tmp_path / "q.json"
    code = run(["quench-slopes", "--config", str(path), "--n", "1,3", "--jmax", "1",
                "--seed", str(seed), "--format", "json", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert [e["N"] for e in doc["entries"]] == [1, 3] and doc["discarded_mass"] == 0.5


def test_quench_enum_budget_exit_code(tmp_path, capsys):
    # two constraints at N=300: 1201 positions x 301^2 counts, 8 bytes a
    # cell in each of three arrays, far over 2^28 bytes
    cfg = dict(BASE_CFG, X="ab" * 600, neighbourhood={"constraints": [
        {"pattern": ["a"], "low": 0.5, "high": 1.0},
        {"pattern": ["b"], "low": 0.0, "high": 0.5}]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = run(["quench-enum", "--config", str(path), "--n-words", "300", "--jmax", "4"])
    assert code == 2
    assert "budget" in capsys.readouterr().err


def test_artifact_reruns_byte_identical(cfg_path, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["core-lemma", "--config", cfg_path, "--alpha", "2.0", "--p", "0.2",
            "--n", "1,2", "--horizon", "500", "--seed", "7"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    meta_a = json.loads((tmp_path / "a.csv.meta.json").read_text())
    meta_b = json.loads((tmp_path / "b.csv.meta.json").read_text())
    assert meta_a == meta_b
    assert meta_a["config"]["seed"] == 7


def test_core_lemma_levels_match_s_n_eval(cfg_path, tmp_path):
    # one kernel pass up to max(--n) gives each level exactly
    out = tmp_path / "cl.json"
    code = run(["core-lemma", "--config", cfg_path, "--alpha", "2.0", "--p", "0.2",
                "--n", "3,1", "--horizon", "500", "--seed", "7", "--format", "json",
                "--out", str(out)])
    assert code == 0
    series = json.loads(out.read_text())["series"]
    omega = bernoulli_omega(0.2, 500, 7)
    assert [e["N"] for e in series] == [3, 1]
    for e in series:
        assert e["log_S_N"] == s_n_eval(omega, 2.0, e["N"], 500)


def test_flag_overrides_config(tmp_path, capsys):
    cfg = dict(BASE_CFG)
    cfg["seed"] = 1
    cfg["depth"] = 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "psi.json"
    code = run(["psi", "--config", str(path), "--depth", "3",
                "--format", "json", "--seed", "99", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["params"]["depth"] == 3
    assert doc["config"]["seed"] == 99


def test_default_seed_recorded(cfg_path, tmp_path):
    out = tmp_path / "e.json"
    code = run(["ergodic", "--config", cfg_path, "--n-words", "200",
                "--k", "1", "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["seed"] == DEFAULT_SEED


def test_both_formats(cfg_path, tmp_path):
    c = tmp_path / "x.csv"
    j = tmp_path / "x.json"
    base = ["psi", "--config", cfg_path, "--depth", "3"]
    assert run(base + ["--format", "csv", "--out", str(c)]) == 0
    assert run(base + ["--format", "json", "--out", str(j)]) == 0
    assert c.read_text().splitlines()[0].count(",") >= 1  # header row
    doc = json.loads(j.read_text())
    assert "config" in doc
    # CSV artifacts carry the resolved config in a sidecar
    meta = json.loads((tmp_path / "x.csv.meta.json").read_text())
    assert meta["config"]["command"] == "psi"


@pytest.mark.parametrize("argv", [
    ["rate", "--alpha", "infinity", "--depth", "0"],
    ["psi", "--depth", "0"],
    ["entropy", "--depth", "0"],
    ["rate", "--alpha", "2.0", "--depth", "0"],
    ["ladder", "--alpha", "2.0", "--tr", "2,3", "--depth", "-1"],
], ids=["rate-infinity", "psi", "entropy", "rate-finite", "ladder"])
def test_depth_below_one_rejected(cfg_path, capsys, argv):
    code = run(argv + ["--config", cfg_path])
    assert code == 1
    assert "depth" in capsys.readouterr().err


H_BASE = 1.3929174504023256  # annealed rate of the BASE_CFG word law, correctly rounded
TYPICAL_LAW = {"variant": "iid", "words": ["a", "b"], "probs": [0.5, 0.5]}
H_TYPICAL = 0.35319667956240763


@pytest.mark.parametrize("alpha, word_law, expected", [
    ("one", None, {"alpha": "one", "annealed": H_BASE, "quenched": [H_BASE, H_BASE]}),
    ("1", None, {"alpha": "one", "annealed": H_BASE, "quenched": [H_BASE, H_BASE]}),
    ("infinity", None, {"alpha": "infinity", "annealed": H_BASE,
                        "quenched": ["infinity", "infinity"]}),
    ("inf", None, {"alpha": "infinity", "annealed": H_BASE,
                   "quenched": ["infinity", "infinity"]}),
    ("infinity", TYPICAL_LAW, {"alpha": "infinity", "annealed": H_TYPICAL,
                               "quenched": [H_TYPICAL, H_TYPICAL]}),
    ("2.0", None, {"alpha": 2.0, "annealed": H_BASE,
                   "quenched": [1.706788031696912, 1.7394910406823993],
                   "components": {"H_rel": H_BASE, "m_Q": 1.5,
                                  "psi_bracket": [0.2092470541964041, 0.23104906018670268]}}),
], ids=["one", "1", "infinity", "inf", "infinity-typical", "2.0"])
def test_rate_artifact_values_across_alpha(tmp_path, alpha, word_law, expected):
    # the values the rate command wrote when alpha = one / infinity took a
    # path of their own: one function for every alpha in [1, inf] keeps
    # them, adds the components there, and reads 1 and inf as the same ends
    cfg = dict(BASE_CFG, word_law=word_law or BASE_CFG["word_law"])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "rate.json"
    assert run(["rate", "--config", str(path), "--alpha", alpha, "--depth", "6",
                "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for key, value in dict(expected, depth=6).items():
        assert doc[key] == value, key
    assert doc["config"]["params"]["alpha"] == alpha
    if alpha != "2.0":
        assert doc["components"]["psi_bracket"] is None
        assert doc["components"]["H_rel"] == doc["annealed"]


def test_ladder_reads_alpha_names(cfg_path, tmp_path, capsys):
    # the artifact's config keeps the text as given, as `rate` does, not a
    # float that JSON would spell Infinity
    outs = []
    for alpha in ("one", "1", "infinity", "inf"):
        out = tmp_path / f"ladder-{alpha}.json"
        assert run(["ladder", "--config", cfg_path, "--alpha", alpha, "--tr", "1,2",
                    "--depth", "4", "--out", str(out), "--format", "json"]) == 0
        outs.append(capsys.readouterr().out)
        assert json.loads(out.read_text())["config"]["params"]["alpha"] == alpha
    assert outs[0] == outs[1] != outs[2] == outs[3]


def test_rate_infinity_needs_no_depth(tmp_path, capsys):
    # uniform on the words xyzx: every 3-letter marginal is uniform, the
    # 4-letter one is not, so the rate is infinite whatever --depth says
    words = ["aaaa", "aaba", "abaa", "abba", "baab", "babb", "bbab", "bbbb"]
    cfg = dict(BASE_CFG, renewal_law={"alpha": 2.0, "cap": 8},
               word_law={"variant": "iid", "words": words, "probs": [0.125] * 8})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "rate.json"
    code = run(["rate", "--config", str(path), "--alpha", "infinity", "--depth", "3",
                "--out", str(out), "--format", "json"])
    assert code == 0
    assert "quenched=[inf,inf]" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["quenched"] == ["infinity"] * 2 and doc["depth"] == 3


@pytest.mark.parametrize("cap", [10, 11])
def test_rate_on_the_reference_law_up_to_the_word_table(tmp_path, capsys, cap):
    # cap 10: 2046 words, whose hidden chain has 2046 states (one per
    # suffix, and every suffix is one of the words);
    # cap 11: the 4094-word law's table is refused at 24 bytes an entry
    ref = ReferenceLaw(make_algebraic_renewal(2.0, cap), LetterLaw.uniform("ab"))
    atoms = ref.enumerate_atoms()
    cfg = dict(BASE_CFG, renewal_law={"alpha": 2.0, "cap": cap},
               word_law={"variant": "iid", "words": list(atoms), "probs": list(atoms.values())})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "rate.json"
    code = run(["rate", "--config", str(path), "--alpha", "2", "--depth", "8",
                "--out", str(out), "--format", "json"])
    if cap == 10:
        assert code == 0, capsys.readouterr().err
        lo, hi = json.loads(out.read_text())["quenched"]
        assert lo <= 0.0 <= hi
    else:
        assert code == 2
        assert "needs 402260064 bytes" in capsys.readouterr().err  # 24 * 4094^2


def strict_json(text: str):
    """json.loads without Python's extensions: NaN and Infinity raise."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_infinite_results_are_strict_json(cfg_path, tmp_path):
    # at alpha = infinity on iid{a, bb} the rate and the ladder's last level
    # are infinite, which RFC 8259 JSON has no number for: they are named
    for argv, last in ((["rate", "--depth", "4"], lambda doc: doc["quenched"]),
                       (["ladder", "--tr", "1,2", "--depth", "4"],
                        lambda doc: [doc["ladder"][-1]["lower"], doc["ladder"][-1]["upper"]])):
        out = tmp_path / f"{argv[0]}.json"
        assert run(argv + ["--config", cfg_path, "--alpha", "infinity", "--format", "json",
                           "--out", str(out)]) == 0
        assert last(strict_json(out.read_text())) == ["infinity", "infinity"]


def test_json_artifact_refuses_nan_before_writing(tmp_path):
    out = tmp_path / "nan.json"
    with pytest.raises(ValueError, match="NaN"):
        cli._write_json(str(out), {"ok": [1.0, -math.inf], "bad": (2.0, math.nan)})
    assert not out.exists()
    cli._write_json(str(out), {"ok": [1.0, -math.inf]})
    assert strict_json(out.read_text()) == {"ok": [1.0, "-infinity"]}


def test_quench_enum_roundtrip(cfg_path, capsys):
    code = run(["quench-enum", "--config", cfg_path, "--n-words", "3",
                "--jmax", "3"])
    assert code == 0
    assert "prob" in capsys.readouterr().out


def test_iproj_summary(cfg_path, capsys):
    code = run(["iproj", "--config", cfg_path])
    assert code == 0
    assert capsys.readouterr().out.strip()


def test_iproj_never_enumerates_words(tmp_path):
    # cap 40 has 2^41 - 2 binary words; the projection needs only the box
    cfg = dict(BASE_CFG, renewal_law={"alpha": 2.0, "cap": 40},
               neighbourhood={"constraints": [{"pattern": ["b"], "low": 0.6, "high": 1.0}]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "iproj.json"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "cutwords", "iproj", "--config", str(path),
         "--format", "json", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert out.stat().st_size < 1024
    doc = json.loads(out.read_text())
    # binary closed form: q*(b) = 0.6, every other word scaled by 0.4/(1 - r)
    r = make_algebraic_renewal(2.0, 40).prob(1) * 0.5
    value = 0.6 * math.log(0.6 / r) + 0.4 * math.log(0.4 / (1.0 - r))
    assert doc["value"] == pytest.approx(value, rel=0, abs=1e-12)
    assert doc["q_star"] == {"b": pytest.approx(0.6, abs=1e-15)}
    assert doc["q_rest"] == pytest.approx(0.4, abs=1e-15)


@pytest.mark.parametrize("cap", [4, 8, 12])
@pytest.mark.parametrize("probs", [[0.5, 0.5], [0.3, 0.7]], ids=["uniform", "skewed"])
def test_ergodic_clt_bound_is_the_enumerated_maximum(tmp_path, cap, probs):
    cfg = dict(BASE_CFG, letter_law={"alphabet": "ab", "probs": probs},
               renewal_law={"alpha": 2.0, "cap": cap})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "ergodic.json"
    assert run(["ergodic", "--config", str(path), "--n-words", "300", "--k", "1",
                "--format", "json", "--out", str(out)]) == 0
    ref = ReferenceLaw(make_algebraic_renewal(2.0, cap), LetterLaw.from_probs("ab", probs))
    clt = 5.0 * max(math.sqrt(q / 300) for q in ref.enumerate_atoms().values())
    assert json.loads(out.read_text())["clt_bound"] == clt


@pytest.mark.parametrize("argv", [
    ["ladder", "--alpha", "2.0", "--depth", "4", "--tr", "5..3"],
    ["simulate", "--n-letters", "10", "--n-words", "0"],
    ["ergodic", "--n-words", "0", "--k", "1"],
], ids=["ladder-no-levels", "simulate-no-words", "ergodic-no-words"])
def test_empty_input_exits_without_traceback(cfg_path, capsys, argv):
    code = run(argv + ["--config", cfg_path])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv, name", [
    (["--m-max", "0", "--n-max", "50"], "m_max"),
    (["--m-max", "3", "--n-max", "0"], "n_max"),
], ids=["m-max-0", "n-max-0"])
def test_conv_tail_rejects_empty_range(capsys, argv, name):
    code = run(["conv-tail", "--alpha", "2.0", "--cap", "50"] + argv)
    assert code == 1
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", [
    (["quench-slopes", "--n", "5..3", "--jmax", "3"], "N_list"),
    (["quench-slopes", "--n", "0,2", "--jmax", "3"], "N_list"),
    (["simulate", "--n-letters", "-5", "--n-words", "3"], "n_letters"),
    (["rate", "--alpha", "0.5", "--depth", "4"], "alpha"),
    (["rate", "--alpha", "nan", "--depth", "4"], "alpha"),
    (["core-lemma", "--alpha", "2", "--p", "0.2", "--n", "1,2", "--horizon", "-5"], "horizon"),
], ids=["quench-slopes-no-levels", "quench-slopes-level-0", "simulate-negative-letters",
        "rate-alpha-below-one", "rate-alpha-nan", "core-lemma-negative-horizon"])
def test_bad_count_names_parameter(cfg_path, capsys, argv, name):
    code = run(argv + ["--config", cfg_path])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and name in err and "Traceback" not in err


@pytest.mark.parametrize("argv, name", [
    (["--m", "8,12", "--trials", "0"], "trials"),
    (["--m", "10", "--trials", "20"], "M_list"),
    # at target 0.3 and tol 0.1 no count of 2 or 4 letters lies in [0.4, 0.8]
    (["--m", "2,4", "--trials", "20"], "typical set empty"),
], ids=["trials-0", "one-M", "typical-set-empty"])
def test_waiting_time_bad_input_exit_code(cfg_path, capsys, argv, name):
    code = run(["waiting-time", "--config", cfg_path, "--tol", "0.1"] + argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and name in err


def test_waiting_time_reruns_byte_identical(cfg_path, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["waiting-time", "--config", cfg_path, "--m", "8,12,16", "--trials", "30",
            "--tol", "0.1", "--seed", "5"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.meta.json").read_bytes() == (tmp_path / "b.csv.meta.json").read_bytes()


COMMON_OPTIONS = {
    (("--config",), "config", None, None),
    (("--out",), "out", None, None),
    (("--seed",), "seed", None, None),
    (("--format",), "format", None, ("csv", "json")),
    (("--log-base",), "log_base", "nat", ("nat", "bit")),
}

# Each subcommand's own options as (option string, dest); all default to
# None and take any text.
COMMAND_OPTIONS = {
    "simulate": {("--n-letters", "n_letters"), ("--n-words", "n_words")},
    "ergodic": {("--n-words", "n_words"), ("--k", "k")},
    "psi": {("--depth", "depth")},
    "entropy": {("--depth", "depth")},
    "rate": {("--alpha", "alpha"), ("--depth", "depth")},
    "ladder": {("--alpha", "alpha"), ("--depth", "depth"), ("--tr", "tr_list")},
    "quench-enum": {("--n-words", "n_words"), ("--jmax", "jmax")},
    "quench-slopes": {("--n", "n_list"), ("--jmax", "jmax")},
    "waiting-time": {("--m", "m_list"), ("--trials", "trials"), ("--tol", "tol")},
    "core-lemma": {("--alpha", "alpha"), ("--p", "p"), ("--n", "n_list"),
                   ("--horizon", "horizon")},
    "conv-tail": {("--alpha", "alpha"), ("--cap", "cap"), ("--m-max", "m_max"),
                  ("--n-max", "n_max")},
    "iproj": set(),
}


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    # the config-schema block and every line of the command-line block, as written
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    cfg = re.search(r"Config schema.*?```json\n(.*?)```", text, re.S).group(1)
    block = re.search(r"## Command line.*?```sh\n(.*?)```", text, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("cutwords ")]
    assert lines
    (tmp_path / "cfg.json").write_text(cfg)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert run(shlex.split(line)[1:]) == 0, (line, capsys.readouterr().err)


def test_cli_surface_pinned():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(COMMAND_OPTIONS)
    for command, sp in sub.choices.items():
        got = {(tuple(a.option_strings), a.dest, a.default,
                tuple(a.choices) if a.choices else None)
               for a in sp._actions if a.dest != "help"}
        want = COMMON_OPTIONS | {((flag,), dest, None, None)
                                 for flag, dest in COMMAND_OPTIONS[command]}
        assert got == want, command


@pytest.mark.parametrize("argv, flag, name, bad", [
    (["psi"], "--depth", "depth", "x"),
    (["core-lemma", "--alpha", "2.0", "--p", "0.2", "--horizon", "100"], "--n", "n_list", "a,b"),
    (["ladder", "--alpha", "2.0", "--depth", "4"], "--tr", "tr_list", "1..x"),
    (["waiting-time", "--m", "8,12", "--trials", "5"], "--tol", "tol", "0.1.2"),
    (["rate", "--depth", "4"], "--alpha", "alpha", "two"),
    (["conv-tail", "--alpha", "2.0", "--m-max", "2", "--n-max", "2"], "--cap", "cap", "4.5"),
    (["psi", "--depth", "2"], "--seed", "seed", "x"),
], ids=["depth", "n_list", "tr_list", "tol", "alpha", "cap", "seed"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_malformed_value_names_parameter(tmp_path, capsys, argv, flag, name, bad, source):
    cfg = dict(BASE_CFG)
    if source == "flag":
        argv = argv + [flag, bad]
    else:
        cfg[name] = bad
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(argv + ["--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(name) in err


@pytest.mark.parametrize("argv, field, bad", [
    (["quench-enum", "--n-words", "2", "--jmax", "2"], "X", 5),
    (["psi", "--depth", "2"], "letter_law", 5),
    (["psi", "--depth", "2"], "format", "xml"),
    (["psi", "--depth", "2"], "word_law", {"variant": "markov", "words": ["a"]}),
    (["psi", "--depth", "2"], "word_law", {"variant": "iid", "words": ["a", "bb"], "probs": [1.0]}),
], ids=["X", "letter_law", "format", "word_law", "word_law-probs"])
def test_malformed_field_names_field(tmp_path, capsys, argv, field, bad):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(BASE_CFG, **{field: bad})))
    out = tmp_path / "f.out"
    assert run(argv + ["--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(field) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_csv_sidecar_leaves_out_the_rows(cfg_path, tmp_path):
    base = ["psi", "--config", cfg_path, "--depth", "3"]
    assert run(base + ["--out", str(tmp_path / "p.csv")]) == 0
    assert run(base + ["--format", "json", "--out", str(tmp_path / "p.json")]) == 0
    meta = json.loads((tmp_path / "p.csv.meta.json").read_text())
    doc = json.loads((tmp_path / "p.json").read_text())
    assert "table" not in meta and meta["depth"] == 3
    assert meta["config"]["params"] == doc["config"]["params"]
    rows = (tmp_path / "p.csv").read_text().splitlines()[1:]
    assert {r.split(",")[0]: float(r.split(",")[1]) for r in rows} == doc["table"]


def test_csv_fields_with_commas_and_quotes_read_back(tmp_path):
    # letters "," and '"' are quoted, so csv.reader reads each row back as
    # its two (psi) or three (simulate) fields
    cfg = dict(BASE_CFG, letter_law={"alphabet": 'a,"', "probs": [0.5, 0.25, 0.25]},
               word_law={"variant": "iid", "words": ["a,", '"'], "probs": [0.5, 0.5]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for argv, width in [(["psi", "--depth", "2"], 2),
                        (["simulate", "--n-letters", "0", "--n-words", "50"], 3)]:
        base = argv + ["--config", str(path), "--out"]
        assert run(base + [str(tmp_path / "a.csv")]) == 0
        assert run(base + [str(tmp_path / "a.json"), "--format", "json"]) == 0
        with open(tmp_path / "a.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert len(header) == width and {len(r) for r in rows} == {width}
        doc = json.loads((tmp_path / "a.json").read_text())
        if width == 2:
            texts = [pat for pat, _ in rows]
            assert {pat: float(p) for pat, p in rows} == doc["table"]
        else:
            texts = [w for _, _, w in rows]
            assert texts == doc["sentence"]
        assert any("," in t for t in texts) and any('"' in t for t in texts)


def test_rate_and_entropy_on_letters_outside_nu(tmp_path, capsys):
    # the word "ac" is impossible under nu on "ab", so H_rel is infinite
    cfg = dict(BASE_CFG, word_law={"variant": "iid", "words": ["a", "ac"], "probs": [0.5, 0.5]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "rate.json"
    for alpha in ("one", "infinity", "2"):
        code = run(["rate", "--config", str(path), "--alpha", alpha, "--depth", "4",
                    "--format", "json", "--out", str(out)])
        assert code == 0, alpha
        assert json.loads(out.read_text())["quenched"] == ["infinity"] * 2
    assert json.loads(out.read_text())["components"]["psi_bracket"] is None
    capsys.readouterr()
    assert run(["entropy", "--config", str(path), "--depth", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'c'" in err and "'ac'" in err
