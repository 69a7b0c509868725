"""The three workloads: inputs made from the seed, one pass of library
calls, and a check of every result against an oracle or a closed form.

Each workload class builds its inputs in `__init__` (that is the set-up
the benchmark times) and runs one pass per `run` call.  All library calls
go through `self.L`, a namespace of `spans.Layer` objects, so a traced
pass gets one span per call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import statistics
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import scipy.fft

from cutwords import cli, corelemma, entropy, laws, mclab, psi, rates, words
from spans import Layer, span_seconds

# Word sets of the bracket corpus come from this fixed stream, so every
# seed runs the same DP sizes and seeds differ only in the probabilities.
CORPUS_SHAPE_KEY = 0xB7AC


def make_layers(tracer) -> SimpleNamespace:
    mods = dict(cli=cli, corelemma=corelemma, entropy=entropy, laws=laws,
                mclab=mclab, psi=psi, rates=rates, words=words)
    return SimpleNamespace(**{name: Layer(mod, name, tracer) for name, mod in mods.items()})


def stream(seed: int, purpose: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, purpose], dtype=np.uint64)))


def _canon(v):
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    if isinstance(v, (list, tuple)):
        return [_canon(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _canon(x) for k, x in sorted(v.items())}
    return v


class Checks:
    """Outcome of one pass: every check is one operation."""

    def __init__(self):
        self.attempted = 0
        self.failed: list = []
        self.records: list = []

    def check(self, name: str, ok: bool, **values):
        self.attempted += 1
        if not ok:
            self.failed.append(name)
        self.records.append([name, _canon(values)])

    def digest(self) -> str:
        """Hash of every checked result (never of a time)."""
        blob = json.dumps(self.records, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Oracles and closed forms.  Module-level so the self-test can replace one
# with a wrong value and see the benchmark count the failure.

def three_log_two() -> float:
    """Quenched rate of the criterion-2 law at alpha = 2."""
    return 3.0 * math.log(2.0)


def letter_frequency(word_probs: dict, letter: str) -> float:
    """Stationary frequency of `letter` in the concatenation of an i.i.d. word law."""
    m = sum(len(w) * p for w, p in word_probs.items())
    return sum(p * w.count(letter) for w, p in word_probs.items()) / m


def kl(p: dict, q: dict) -> float:
    return sum(pi * math.log(pi / q[k]) for k, pi in p.items() if pi > 0)


def first_letter_rate(word_probs: dict, nu: dict, rho1: float, alpha: float) -> float:
    """Quenched rate of the tr=1 truncation: its words are single letters,
    so the concatenation is i.i.d. and the rate is alpha*KL(p|nu) - log rho(1)."""
    p = Counter()
    for w, q in word_probs.items():
        p[w[0]] += q
    return alpha * kl(dict(p), nu) - math.log(rho1)


def mean_check_target(p: float, alpha: float, T: int, n: int) -> float:
    """E[S_n] over Bernoulli(p) marks: (p * sum_{d<=T} d^-alpha)^n."""
    return (p * math.fsum(d ** -alpha for d in range(1, T + 1))) ** n


def phi_upper(alpha: float, p: float) -> float:
    return alpha * math.log(1.0 / p)


def marked_sum_log(omega, alpha: float, n: int) -> float:
    """log S_n by explicit summation over increasing n-tuples of marks."""
    marks = [j for j, m in enumerate(omega, start=1) if m > 0]
    total = 0.0
    for tup in itertools.combinations(marks, n):
        prev, prod = 0, 1.0
        for j in tup:
            prod *= (j - prev) ** -alpha
            prev = j
        total += prod
    return math.log(total)


def binary_projection(q_word: float, low: float) -> float:
    """I-projection value for the single box freq(word) >= low > q_word."""
    return low * math.log(low / q_word) + (1 - low) * math.log((1 - low) / (1 - q_word))


def cut_mass(rho_probs: dict, jmax: int, n: int) -> float:
    """Total weight of all cut vectors: (rho mass on [1, Jmax])^N."""
    return math.fsum(p for d, p in rho_probs.items() if d <= jmax) ** n


# ---------------------------------------------------------------------------

def _seeded_letter_law(L, rng, letters: str):
    probs = 0.5 * rng.dirichlet(np.ones(len(letters))) + 0.5 / len(letters)
    return L.laws.LetterLaw.from_probs(letters, probs / probs.sum())


def _word_pool(letters: str, max_len: int) -> list:
    return ["".join(t) for n in range(1, max_len + 1)
            for t in itertools.product(letters, repeat=n)]


def _seeded_iid(L, rng, word_list):
    probs = 0.8 * rng.dirichlet(np.ones(len(word_list))) + 0.2 / len(word_list)
    return L.laws.iid_law(dict(zip(word_list, probs / probs.sum())))


class Brackets:
    """psi, entropy, rates and cli; nothing from corelemma or mclab."""

    name = "brackets"
    CORPUS_IID, CORPUS_MARKOV, DEPTH = 25, 10, 12
    FIN_DEPTHS = (8, 10, 12, 14, 16)
    LADDER_TR, LADDER_DEPTH = (1, 2, 3, 4, 5), 10
    TABLE_DEPTH = CLI_DEPTH = 14
    ALPHA = 2.0

    def __init__(self, seed: int, workdir: str, L):
        self.L = L
        vals = stream(seed, 1)
        shape = stream(CORPUS_SHAPE_KEY, 0)
        self.rho = L.laws.make_algebraic_renewal(self.ALPHA, 4)
        self.corpus = []
        for i in range(self.CORPUS_IID + self.CORPUS_MARKOV):
            markov = i >= self.CORPUS_IID
            letters = "ab" if markov or shape.random() < 0.7 else "abc"
            pool = _word_pool(letters, 3 if markov else 4)
            k = int(shape.integers(2, 6 if markov else 7))
            chosen = tuple(pool[j] for j in sorted(shape.choice(len(pool), size=k, replace=False)))
            nu = _seeded_letter_law(L, vals, letters)
            if markov:
                P = vals.dirichlet(np.ones(k), size=k) * 0.9 + 0.1 / k
                Q = L.laws.markov_law(chosen, P / P.sum(axis=1, keepdims=True))
            else:
                Q = L.laws.iid_law(dict(zip(chosen, vals.dirichlet(np.ones(k)))))
            self.corpus.append((Q, nu, L.laws.ReferenceLaw(self.rho, nu)))

        self.nu = _seeded_letter_law(L, vals, "ab")
        self.ref = L.laws.ReferenceLaw(self.rho, self.nu)
        self.q_zero = self.ref.as_iid_process()
        self.q_fin = _seeded_iid(L, vals, ["a", "b", "ab", "bba"])
        self.q_ladder = _seeded_iid(L, vals, ["a", "ba", "abb", "bbab"])
        self.q_closed = L.laws.iid_law({"0": 0.5, "00": 0.5})
        self.ref_closed = L.laws.ReferenceLaw(
            L.laws.renewal_from_atoms({1: 0.5, 2: 0.5}, 2.0), L.laws.LetterLaw.uniform("01"))

        cli_law = _seeded_iid(L, vals, ["a", "b", "ba", "abb"])
        os.makedirs(workdir, exist_ok=True)
        self.cli_cfg = os.path.join(workdir, "psi.json")
        self.cli_out = os.path.join(workdir, "psi.csv")
        self.cli_words = cli_law.marginal()
        with open(self.cli_cfg, "w") as fh:
            json.dump({"letter_law": self.nu.to_json(), "word_law": cli_law.to_json()}, fh)
        self.counts: dict = {}

    def run(self, ck: Checks):
        L = self.L
        counts = dict(min_states=0, widths=[], artifact_bytes=0)

        for alpha in (1.5, 2.0, 3.0):
            iv = L.rates.fin_rate(self.q_zero, self.ref, alpha, 8)
            ck.check(f"zero_of_rate[alpha={alpha}]", iv.lo <= 0.0 <= iv.hi and iv.width <= 1e-9,
                     lo=iv.lo, hi=iv.hi)
        iv = L.rates.fin_rate(self.q_closed, self.ref_closed, 2.0, 8)
        target = three_log_two()
        ck.check("closed_form_3log2", max(abs(iv.lo - target), abs(iv.hi - target)) <= 1e-6,
                 lo=iv.lo, hi=iv.hi)

        for i, (Q, nu, ref) in enumerate(self.corpus):
            letters = nu.alphabet.symbols
            chain = L.psi.minimize_chain(L.psi.hidden_chain(Q, letters))
            counts["min_states"] += chain.n_states
            stationary = float(np.max(np.abs(chain.init @ chain.trans - chain.init)))
            ent, rel = L.entropy.psi_bracket_series(Q, nu, self.DEPTH)
            resid = L.entropy.identity_residual(Q, ref, self.DEPTH, sandwich=ent[-1])
            # The residual is at most m_Q times the sandwich width, plus the
            # outward rounding identity_residual pads each endpoint with.
            bound = L.laws.mean_length(Q) * ent[-1].width * (1 + 1e-9) + 1e-12
            worst = 0.0
            for series in (ent, rel):
                for a, b in zip(series, series[1:]):
                    worst = max(worst, a.lower - b.lower, b.upper - a.upper)
                worst = max(worst, max(b.lower - b.upper for b in series))
            counts["widths"].append(rel[-1].width)
            ok = (resid.lo <= 0.0 <= resid.hi and resid.width <= bound
                  and worst <= 1e-10 and stationary <= 1e-12)
            ck.check(f"corpus[{i}]", ok, resid=[resid.lo, resid.hi],
                     rel=[rel[-1].lower, rel[-1].upper], ent=[ent[-1].lower, ent[-1].upper],
                     states=chain.n_states)

        ann = L.rates.ann_rate(self.q_fin, self.ref)
        ivs = [L.rates.fin_rate(self.q_fin, self.ref, self.ALPHA, d) for d in self.FIN_DEPTHS]
        nested = all(b.lo >= a.lo - 1e-10 and b.hi <= a.hi + 1e-10 for a, b in zip(ivs, ivs[1:]))
        ck.check("fin_rate_nested", nested and ivs[0].lo >= ann - 1e-12,
                 brackets=[[iv.lo, iv.hi] for iv in ivs], annealed=ann)
        counts["quenched_width_L16"] = ivs[-1].width

        table = L.psi.psi_marginal(self.q_fin, self.TABLE_DEPTH, alphabet=("a", "b"))
        counts["table_patterns"] = len(table)
        self._check_table(ck, "psi_table", table, self.q_fin.marginal(), self.TABLE_DEPTH)

        ladder = L.rates.que_rate_ladder(self.q_ladder, self.ref, self.ALPHA,
                                         list(self.LADDER_TR), self.LADDER_DEPTH)
        direct = L.rates.fin_rate(self.q_ladder, self.ref, self.ALPHA, self.LADDER_DEPTH)
        closed = first_letter_rate(self.q_ladder.marginal(), self.nu.probs,
                                   self.rho.prob(1), self.ALPHA)
        ok = (ladder[0][1].contains(closed, 1e-9)
              and all(iv == direct for tr, iv in ladder if tr >= self.q_ladder.tr_max))
        ck.check("ladder", ok, ladder=[[iv.lo, iv.hi] for _, iv in ladder], closed=closed)

        with contextlib.redirect_stdout(io.StringIO()):
            code = L.cli.main(["psi", "--config", self.cli_cfg, "--depth", str(self.CLI_DEPTH),
                               "--out", self.cli_out])
        table = {}
        if code == 0:
            with open(self.cli_out) as fh:
                next(fh)
                for line in fh:
                    pat, prob = line.rstrip("\n").split(",")
                    table[pat] = float(prob)
            counts["artifact_bytes"] = (os.path.getsize(self.cli_out)
                                        + os.path.getsize(self.cli_out + ".meta.json"))
        self._check_table(ck, "cli_psi", table, self.cli_words, self.CLI_DEPTH, exit_code=code)
        self.counts = counts

    @staticmethod
    def _check_table(ck, name, table, word_probs, depth, exit_code=0):
        """Mass 1, one row per pattern over {a,b}, and the first-letter
        marginal equal to the closed-form letter frequency."""
        mass = math.fsum(table.values())
        first_a = math.fsum(p for pat, p in table.items() if pat[0] == "a")
        err = abs(first_a - letter_frequency(word_probs, "a")) if table else math.inf
        ok = exit_code == 0 and len(table) == 2 ** depth and abs(mass - 1) <= 1e-9 and err <= 1e-12
        ck.check(name, ok, exit_code=exit_code, rows=len(table), mass=mass, first_a=first_a)

    def layer_metrics(self, spans) -> dict:
        c = self.counts
        chain = span_seconds(spans, "psi.hidden_chain") + span_seconds(spans, "psi.minimize_chain")
        table_s = span_seconds(spans, "psi.psi_marginal")
        series = span_seconds(spans, "entropy.psi_bracket_series")
        ident = span_seconds(spans, "entropy.identity_residual")
        return {
            "psi.chain_s": chain,
            "psi.min_states": c["min_states"],
            "psi.table_patterns": c["table_patterns"],
            "psi.patterns_per_s": c["table_patterns"] / table_s,
            "entropy.bracket_series_s": series,
            "entropy.identity_s": ident,
            "entropy.laws_per_s": len(self.corpus) / (series + ident),
            "bracket_width_median": statistics.median(c["widths"]),
            "rates.fin_rate_s": span_seconds(spans, "rates.fin_rate"),
            "rates.fin_rate_L16_s": span_seconds(spans, "rates.fin_rate",
                                                 lambda s: s["args"] == [self.ALPHA, 16]),
            "rates.ladder_s": span_seconds(spans, "rates.que_rate_ladder"),
            "rates.quenched_width_L16": c["quenched_width_L16"],
            "cli.psi_s": span_seconds(spans, "cli.main"),
            "cli.artifact_bytes": c["artifact_bytes"],
        }


class CoreLemma:
    """corelemma only: the Monte Carlo mean check and the exact S_N slopes."""

    name = "core_lemma"
    ALPHA, P = 2.0, 0.1
    MEAN_N, MEAN_T, MEAN_TRIALS = 3, 10_000, 5_000
    EVAL_N, EVAL_T, EVAL_CALLS = 40, 200_000, 2
    SMALL_T = 10
    TAIL_ALPHAS, TAIL_CAP, TAIL_M = (1.5, 2.0, 3.0), 2000, 5

    def __init__(self, seed: int, workdir: str, L):
        self.L = L
        self.seed = seed
        self.tail_laws = [(a, L.laws.make_algebraic_renewal(a, self.TAIL_CAP))
                          for a in self.TAIL_ALPHAS]
        bits = stream(seed, 2).integers(0, 2, size=(3, self.SMALL_T))
        self.small_omegas = [b.astype(float) for b in bits if b.sum() >= 3]
        self.counts: dict = {}

    def run(self, ck: Checks):
        C = self.L.corelemma
        a, p = self.ALPHA, self.P
        res = C.s_n_mean_check(a, p, self.MEAN_N, self.MEAN_T, self.MEAN_TRIALS, seed=self.seed)
        ok = all(abs(lv.mc_mean - mean_check_target(p, a, self.MEAN_T, lv.n)) <= 3 * lv.ci_half_width
                 for lv in res.levels)
        ck.check("mean_check", ok and res.ok, means=[lv.mc_mean for lv in res.levels],
                 half_widths=[lv.ci_half_width for lv in res.levels])

        lo, hi = C.phi_bounds(a, p)
        ck.check("phi_bounds", 0.0 < lo <= hi and abs(hi - phi_upper(a, p)) <= 1e-12, lo=lo, hi=hi)

        for trial in range(self.EVAL_CALLS):
            omega = C.bernoulli_omega(p, self.EVAL_T, self.seed, trial=trial)
            slope = -C.s_n_eval(omega, a, self.EVAL_N, self.EVAL_T) / self.EVAL_N
            ck.check(f"s_n_slope[{trial}]", lo - 0.3 <= slope <= hi + 0.3, slope=slope)

        worst = 0.0
        for omega in self.small_omegas:
            for n in (1, 2, 3):
                got = C.s_n_eval(omega, a, n, self.SMALL_T)
                worst = max(worst, abs(got - marked_sum_log(omega, a, n)))
        ck.check("s_n_oracle", worst <= 1e-12, worst=worst)

        for alpha, rho in self.tail_laws:
            ratio, at = C.conv_tail_check(rho, alpha, max(rho.c_rho, 1.0), self.TAIL_M, self.TAIL_CAP)
            ck.check(f"conv_tail[alpha={alpha}]", ratio <= 1.0 + 1e-12, ratio=ratio, at=list(at))

        fft = (scipy.fft.next_fast_len(2 * self.EVAL_T) * (self.EVAL_N - 1) * self.EVAL_CALLS
               + scipy.fft.next_fast_len(2 * self.MEAN_T) * (self.MEAN_N - 1) * self.MEAN_TRIALS)
        self.counts = {"fft_points": fft}

    def layer_metrics(self, spans) -> dict:
        mean_s = span_seconds(spans, "corelemma.s_n_mean_check")
        return {
            "corelemma.mean_check_s": mean_s,
            "corelemma.mean_check_trials_per_s": self.MEAN_TRIALS / mean_s,
            "corelemma.omega_s": span_seconds(spans, "corelemma.bernoulli_omega"),
            "corelemma.s_n_eval_s": span_seconds(spans, "corelemma.s_n_eval"),
            "corelemma.fft_points": self.counts["fft_points"],
        }


class McLab:
    """mclab, laws and words: waiting times, exact cut-point DPs and their
    brute-force oracle, the ergodic gap, and path sampling."""

    name = "mclab"
    WAIT_M, WAIT_TRIALS, WAIT_TOL = tuple(range(10, 41, 5)), 200, 0.034
    SLOPE_N, SLOPE_JMAX, SLOPE_LOW = (10, 20, 25), 16, 0.6
    ENUM_N, ENUM_JMAX = 20, 10
    ERGODIC_N = 1_000_000
    SAMPLE_WORDS = 20_000

    def __init__(self, seed: int, workdir: str, L):
        self.L = L
        self.seed = seed
        C = L.rates.Constraint
        N = L.rates.Neighbourhood
        self.nu01 = L.laws.LetterLaw.uniform("01")
        self.target = L.laws.LetterLaw.from_probs("01", [0.2, 0.8])
        self.nu_ab = L.laws.LetterLaw.uniform("ab")
        self.rho16 = L.laws.make_algebraic_renewal(2.0, 16)
        self.rho4 = L.laws.make_algebraic_renewal(2.0, 4)
        self.rho3 = L.laws.make_algebraic_renewal(2.0, 3)
        self.nb_b = N((C(("b",), self.SLOPE_LOW, 1.0),))
        # Two boxes on the 2-word pattern (a, b) that split every count.
        self.nb_pair = (N((C(("a", "b"), 0.0, 0.15),)), N((C(("a", "b"), 0.2, 1.0),)))
        rng = stream(seed, 3)
        self.x_enum = "".join("ab"[i] for i in rng.integers(0, 2, size=self.ENUM_N * self.ENUM_JMAX))
        small = [N((C(("a",), 0.4, 1.0),)), N((C(("ab",), 0.0, 0.5),)),
                 N((C(("a", "b"), 0.0, 0.6),))]
        self.brute_cases = []
        for _ in range(2):
            x = "".join("ab"[i] for i in rng.integers(0, 2, size=12))
            for n, jmax, nb in itertools.product((1, 2, 3, 4), (1, 2, 3), small):
                if n * jmax <= len(x) and nb.max_depth <= n:
                    self.brute_cases.append((x, n, jmax, nb))
        ref4 = L.laws.ReferenceLaw(self.rho4, self.nu_ab)
        atoms = list(ref4.enumerate_atoms().values())
        self.ergodic_bounds = {
            1: 5.0 * max(math.sqrt(q / self.ERGODIC_N) for q in atoms),
            2: 5.0 * max(math.sqrt(q * r / self.ERGODIC_N) for q in atoms for r in atoms),
        }
        self.counts: dict = {}

    def run(self, ck: Checks):
        M, W, S = self.L.mclab, self.L.words, self.L.laws
        probs = []

        res = M.waiting_time(self.nu01, self.target, list(self.WAIT_M), self.WAIT_TRIALS,
                             self.WAIT_TOL, self.seed)
        predicted = kl(self.target.probs, self.nu01.probs)
        rel_err = abs(res.slope - predicted) / predicted
        censored = sum(c for *_, c in res.per_m)
        ck.check("waiting_time", rel_err <= 0.20 and abs(res.predicted - predicted) <= 1e-12,
                 slope=res.slope, means=[m for _, m, _, _ in res.per_m], censored=censored)

        series = M.quenched_slope_series(self.nu_ab, self.rho16, self.nb_b, list(self.SLOPE_N),
                                         self.SLOPE_JMAX, self.seed)
        annealed = binary_projection(self.rho16.prob(1) * self.nu_ab.prob("b"), self.SLOPE_LOW)
        probs += [p for _, p, _ in series.entries]
        excess = [s - annealed for _, _, s in series.entries]
        ok = abs(series.annealed - annealed) <= 1e-9 and all(0.0 < p <= 1.0 for _, p, _ in series.entries)
        ck.check("quenched_slopes", ok, annealed=series.annealed,
                 slopes=[s for _, _, s in series.entries])

        parts = [M.quenched_prob_enum(self.x_enum, self.rho16, self.ENUM_N, nb, self.ENUM_JMAX)
                 for nb in self.nb_pair]
        probs += parts
        total = cut_mass(self.rho16.probs, self.ENUM_JMAX, self.ENUM_N)
        ok = all(p > 0 for p in parts) and abs(sum(parts) - total) <= 1e-12 * total
        ck.check("enum_pair_split", ok, parts=parts)

        for i, (x, n, jmax, nb) in enumerate(self.brute_cases):
            fast = M.quenched_prob_enum(x, self.rho3, n, nb, jmax)
            slow = M.quenched_prob_brute(x, self.rho3, n, nb, jmax)
            probs.append(fast)
            ck.check(f"enum_vs_brute[{i}]", abs(fast - slow) <= 1e-12, fast=fast)

        for k in (1, 2):
            gap = M.ergodic_gap(self.nu_ab, self.rho4, self.ERGODIC_N, k, self.seed)
            ck.check(f"ergodic[k={k}]", gap <= self.ergodic_bounds[k], gap=gap)

        x, points, sentence = S.sample_path(self.nu_ab, self.rho4, 0, self.SAMPLE_WORDS, self.seed)
        one = W.empirical_patterns(sentence, 1)
        two = W.empirical_patterns(sentence, 2)
        n = len(sentence)
        first = Counter()
        for (u, _), f in two.items():
            first[(u,)] += f
        ok = (W.concat(sentence) == x[: points[-1]] and W.cut(x, points) == sentence
              and one == {(w,): Fraction(c, n) for w, c in Counter(sentence).items()}
              and dict(first) == one and sum(two.values()) == 1)
        ck.check("sample_patterns", ok, words=n, letters=len(x), distinct=len(one))

        self.counts = {
            "excess": excess,
            "censored": censored,
            "waiting_trials": len(self.WAIT_M) * self.WAIT_TRIALS,
            "nonzero": sum(p > 0 for p in probs) / len(probs),
        }

    def layer_metrics(self, spans) -> dict:
        c = self.counts
        wait_s = span_seconds(spans, "mclab.waiting_time")
        return {
            "mclab.slopes_s": span_seconds(spans, "mclab.quenched_slope_series"),
            "mclab.quenched_excess_min": min(c["excess"]),
            "mclab.enum_s": span_seconds(spans, "mclab.quenched_prob_enum"),
            "mclab.enum_nonzero_frac": c["nonzero"],
            "mclab.waiting_s": wait_s,
            "mclab.waiting_trials_per_s": c["waiting_trials"] / wait_s,
            "mclab.waiting_censored": c["censored"],
            "mclab.ergodic_s": span_seconds(spans, "mclab.ergodic_gap"),
            "mclab.brute_s": span_seconds(spans, "mclab.quenched_prob_brute"),
            "mclab.brute_cases": len(self.brute_cases),
            "laws.sample_s": span_seconds(spans, "laws.sample_path"),
            "words.patterns_s": span_seconds(spans, "words.empirical_patterns"),
        }


WORKLOADS = {w.name: w for w in (Brackets, CoreLemma, McLab)}
