import itertools
import math
import tracemalloc
import warnings
from collections import Counter
from functools import reduce

import numpy as np
import pytest

from cutwords import errors, laws, mclab
from cutwords.entropy import rel_entropy
from cutwords.errors import InputError, SizeBudgetError
from cutwords.laws import (
    LetterLaw,
    ReferenceLaw,
    make_algebraic_renewal,
    renewal_from_atoms,
    sample_arrays,
    sample_path,
)
from cutwords.mclab import (
    ergodic_gap,
    quenched_prob_brute,
    quenched_prob_enum,
    quenched_slope_series,
    waiting_time,
)
from cutwords.rates import Constraint, Neighbourhood, i_projection


def dict_dp_oracle(X, rho, N, nbhd, Jmax):
    """Cut-point DP over a dict of (position, counts, first, last) states:
    an independent oracle for the array DP at sizes brute force cannot reach."""
    incs = [d for d in rho.support if d <= Jmax]
    cons = nbhd.constraints
    track = nbhd.max_depth == 2
    tracked_words = {w for c in cons for w in c.pattern}
    states = {(0, (0,) * len(cons), None, None): 1.0}
    for i in range(1, N + 1):
        nxt = {}
        for (j, counts, first, last), pr in states.items():
            for d in incs:
                w = X[j:j + d]
                cls = w if w in tracked_words else None
                cc = list(counts)
                for u, c in enumerate(cons):
                    if len(c.pattern) == 1:
                        cc[u] += w == c.pattern[0]
                    elif i >= 2 and last == c.pattern[0] and w == c.pattern[1]:
                        cc[u] += 1
                key = (j + d, tuple(cc),
                       (cls if i == 1 else first) if track else None,
                       cls if track else None)
                nxt[key] = nxt.get(key, 0.0) + pr * rho.probs[d]
        states = nxt
    total = 0.0
    for (_, counts, first, last), pr in states.items():
        ok = True
        for u, c in enumerate(cons):
            n = counts[u]
            if len(c.pattern) == 2 and last == c.pattern[0] and first == c.pattern[1]:
                n += 1
            ok &= math.ceil(c.low * N - 1e-9) <= n <= math.floor(c.high * N + 1e-9)
        if ok:
            total += pr
    return total


def waiting_time_oracle(nu, target, M_list, trials, tol, seed, horizon_cap=2**24):
    """Full-draw waiting-time loop: each trial draws 256 + 32 e^(M KL)
    letters at once, doubles the horizon up to horizon_cap while no window
    is typical, and scans every window of the draw.  Returns per_m as
    waiting_time does and the number of doublings taken."""
    E = len(nu.alphabet)
    targets = [target.prob(c) for c in nu.alphabet.symbols]
    p_vec = nu.prob_vector()

    def first_shift(x, M):
        n = len(x)
        ok = np.ones(n - M, dtype=bool)  # window starting at i = 1..n-M
        for e in range(E):
            cs = np.concatenate(([0], np.cumsum(x == e)))
            ok &= np.abs((cs[M + 1:] - cs[1:n - M + 1]) / M - targets[e]) <= tol + 1e-12
        hits = np.nonzero(ok)[0]
        return int(hits[0]) + 1 if len(hits) else -1

    per_m, doublings = [], 0
    for M in M_list:
        base = 256 + int(32.0 * math.exp(M * rel_entropy(target.probs, nu.probs)))
        logs, censored = [], 0
        for t in range(trials):
            rng = np.random.Generator(
                np.random.Philox(key=np.array([seed, (M << 32) | t], dtype=np.uint64)))
            horizon = min(base, horizon_cap)
            x = rng.choice(E, size=horizon + M + 1, p=p_vec)
            hit = first_shift(x, M)
            while hit < 0 and horizon < horizon_cap:
                horizon = min(horizon * 2, horizon_cap)
                x = np.concatenate([x, rng.choice(E, size=horizon + M + 1 - len(x), p=p_vec)])
                hit = first_shift(x, M)
                doublings += 1
            if hit < 0:
                censored += 1
                hit = horizon_cap
            logs.append(math.log(hit))
        per_m.append((M, math.fsum(logs) / trials, trials, censored))
    return tuple(per_m), doublings


@pytest.fixture(scope="module")
def nu_ab():
    return LetterLaw.from_probs("ab", [0.5, 0.5])


def random_media(rng, n, length, syms="ab"):
    out = []
    for _ in range(n):
        out.append("".join(syms[i] for i in rng.integers(0, len(syms), size=length)))
    return out


def test_enum_matches_brute_on_micro_grid(nu_ab):
    rho = make_algebraic_renewal(2.0, 3)
    rng = np.random.default_rng(11)
    nbhds = [
        Neighbourhood((Constraint(("a",), 0.4, 1.0),)),
        Neighbourhood((Constraint(("ab",), 0.0, 0.5),)),
        Neighbourhood((Constraint(("a", "b"), 0.0, 0.6),)),
        Neighbourhood(
            (Constraint(("a",), 0.2, 0.9), Constraint(("bb",), 0.0, 0.4))
        ),
    ]
    for X in random_media(rng, 6, 12):
        for N in (1, 2, 3, 4):
            for Jmax in (1, 2, 3):
                if N * Jmax > len(X):
                    continue
                for nbhd in nbhds:
                    if nbhd.max_depth > N:
                        continue
                    p_enum = quenched_prob_enum(X, rho, N, nbhd, Jmax)
                    p_brute = quenched_prob_brute(X, rho, N, nbhd, Jmax)
                    assert p_enum == pytest.approx(p_brute, abs=1e-13)


def test_enum_all_pass_is_total_mass_power(nu_ab):
    # the whole simplex as a neighbourhood: probability is just the mass
    # of increments <= Jmax, raised to the number of words
    rho = make_algebraic_renewal(2.0, 4)
    nbhd = Neighbourhood((Constraint(("a",), 0.0, 1.0),))
    X = "abababababababababab"
    for N, Jmax in ((2, 2), (3, 3), (4, 4)):
        mass = sum(rho.prob(d) for d in rho.support if d <= Jmax)
        assert quenched_prob_enum(X, rho, N, nbhd, Jmax) == pytest.approx(
            mass**N, abs=1e-13
        )


def test_enum_all_a_medium_binomial_closed_form():
    # X = aaaa...: every cut word is a run of a's, so the word equals "aa"
    # exactly when the increment is 2.  freq("aa") >= 0.9 over N words
    # means at least ceil(0.9 N) increments equal 2.
    rho = renewal_from_atoms({1: 0.7, 2: 0.3}, 2.0)
    nbhd = Neighbourhood((Constraint(("aa",), 0.9, 1.0),))
    X = "a" * 40
    for N in (3, 5, 8):
        k_min = math.ceil(0.9 * N)
        expected = sum(
            math.comb(N, k) * 0.3**k * 0.7 ** (N - k) for k in range(k_min, N + 1)
        )
        assert quenched_prob_enum(X, rho, N, nbhd, 2) == pytest.approx(
            expected, abs=1e-13
        )


def test_enum_input_validation(nu_ab):
    rho = make_algebraic_renewal(2.0, 4)
    nbhd = Neighbourhood((Constraint(("a",), 0.0, 1.0),))
    with pytest.raises(InputError):
        quenched_prob_enum("ab", rho, 3, nbhd, 2)  # medium too short
    with pytest.raises(InputError):
        quenched_prob_enum("abab", rho, 1, nbhd, 0)  # no atoms below Jmax


def test_ergodic_gap_shrinks(nu_ab):
    rho = make_algebraic_renewal(2.0, 3)
    g_small = ergodic_gap(nu_ab, rho, 200, 1, seed=5)
    g_large = ergodic_gap(nu_ab, rho, 200_000, 1, seed=5)
    assert g_large < g_small
    assert g_large < 5.0 / math.sqrt(200_000 / rho.mean())
    g2 = ergodic_gap(nu_ab, rho, 50_000, 2, seed=5)
    assert g2 < 0.02


def test_ergodic_gap_deterministic_law():
    # single letter, single jump: the empirical process is a point mass on
    # the reference law, so the gap is exactly 0
    nu = LetterLaw.from_probs("a", [1.0])
    rho = renewal_from_atoms({2: 1.0}, 2.0)
    assert ergodic_gap(nu, rho, 500, 1, seed=0) == 0.0
    assert ergodic_gap(nu, rho, 500, 2, seed=0) == 0.0


def test_ergodic_gap_one_letter_counts_lengths():
    # on one letter a word is its length: the gap is the largest distance of
    # the length (k = 1) or length-pair (k = 2, periodic) frequencies from
    # rho, whatever the longest word, and across chunks
    nu = LetterLaw.uniform("a")
    for atoms, N in (({1: 0.5, 50: 0.5}, 2000), ({1: 0.5, 500: 0.5}, 2000),
                     ({2: 0.3, 7: 0.3, 500: 0.4}, 2000), ({1: 0.5, 2: 0.5}, laws.CHUNK_WORDS + 5)):
        rho = renewal_from_atoms(atoms, 2.0)
        _, points = sample_arrays(nu, rho, 0, N, seed=4)
        lens = np.diff(points, prepend=0).tolist()
        for k in (1, 2):
            seen = Counter(zip(*(lens[i:] + lens[:i] for i in range(k))))
            oracle = max(abs(seen[cell] / N - math.prod(rho.prob(n) for n in cell))
                         for cell in itertools.product(rho.support, repeat=k))
            assert ergodic_gap(nu, rho, N, k, seed=4) == oracle, (atoms, k)


def per_length_ergodic_gap(nu, rho, N, k, seed):
    """ergodic_gap with each word encoded length by length from its first
    letter: the oracle for the one-gather encoding, with the same
    reference vector arithmetic."""
    E = len(nu.alphabet)
    lengths = rho.support
    offsets = dict(zip(lengths, itertools.accumulate((E**n for n in lengths), initial=0)))
    total = sum(E**n for n in lengths)
    x, points = sample_arrays(nu, rho, 0, N, seed)
    lens = np.diff(points, prepend=0)
    starts = points - lens
    ids = np.zeros(N, dtype=np.int64)
    for n in lengths:
        sel = np.nonzero(lens == n)[0]
        val = np.zeros(len(sel), dtype=np.int64)
        for t in range(n):
            val = val * E + x[starts[sel] + t]
        ids[sel] = offsets[n] + val
    ref = np.zeros(total)
    v = nu.prob_vector()
    for n in lengths:
        ref[offsets[n] : offsets[n] + E**n] = rho.prob(n) * reduce(np.kron, [v] * n)
    if k == 2:
        ids = ids * total + np.roll(ids, -1)
    freq = np.bincount(ids, minlength=total**k) / N
    freq -= ref if k == 1 else np.kron(ref, ref)
    return float(np.max(np.abs(freq)))


ERGODIC_CASES = {
    "uniform-ab": (LetterLaw.uniform("ab"), make_algebraic_renewal(2.0, 4), (1, 2)),
    "skewed-abc": (LetterLaw.from_probs("abc", [0.7, 0.2, 0.1]), make_algebraic_renewal(1.5, 6),
                   (1, 2)),
    "one-letter": (LetterLaw.uniform("a"), make_algebraic_renewal(2.0, 3), (1, 2)),
    "atoms-2-5": (LetterLaw.uniform("ab"), renewal_from_atoms({2: 0.3, 5: 0.7}, 2.0), (1, 2)),
    "cap-16": (LetterLaw.uniform("ab"), make_algebraic_renewal(2.0, 16), (1,)),  # k=2: over budget
}


@pytest.mark.parametrize("case", list(ERGODIC_CASES))
def test_ergodic_gap_equals_per_length_encoding(case):
    # paths of 1-3 words can be shorter than the longest word, whose codes
    # read the letters before the first as 0
    nu, rho, depths = ERGODIC_CASES[case]
    for N, seeds in ((30_000, (0, 7, 12648430)), (1, range(20)), (2, range(20)), (3, range(20))):
        for k in depths:
            for seed in seeds:
                assert ergodic_gap(nu, rho, N, k, seed) == \
                    per_length_ergodic_gap(nu, rho, N, k, seed), (N, k, seed)


@pytest.mark.parametrize("case", list(ERGODIC_CASES))
@pytest.mark.parametrize("chunk", [7, laws.CHUNK_WORDS, 2 * laws.CHUNK_WORDS])
def test_ergodic_gap_equals_per_length_encoding_across_chunks(monkeypatch, case, chunk):
    # words drawn and counted a chunk at a time: a pair
    # that straddles two chunks, and the periodic pair (Y_N, Y_1), count as
    # in one pass over all the words, at the default chunk size and twice it
    monkeypatch.setattr(laws, "CHUNK_WORDS", chunk)
    nu, rho, depths = ERGODIC_CASES[case]
    for N in (chunk - 1, chunk, chunk + 1, 3 * chunk + 1):
        for k in depths:
            assert ergodic_gap(nu, rho, N, k, seed=3) == \
                per_length_ergodic_gap(nu, rho, N, k, seed=3), (N, k)


def ergodic_checked_bytes(nu, rho, N, k, seed):
    """ergodic_gap's two checks, for the one chunk in flight: before the
    draw, the reference, counts and frequencies (8 bytes an entry), the
    tables by length (12 bytes a length) and one chunk's words at 24 bytes
    each; and once a chunk's jumps are drawn, that plus 8 bytes a letter of
    the chunk, at the first chunk with the most letters, whose letter count
    comes third."""
    W = laws.CHUNK_WORDS
    total = sum(len(nu.alphabet) ** n for n in rho.support)
    held = 8 * (2 * total**k + total) + 12 * (rho.max_jump + 1) + 24 * min(N, W)
    _, points = sample_arrays(nu, rho, 0, N, seed)
    letters = np.diff(points[np.r_[W - 1 : N : W, N - 1]], prepend=0)
    i = int(letters.argmax())
    return held, held + 8 * int(letters[i]), int(letters[i])


def test_ergodic_gap_memory_independent_of_n(nu_ab):
    # one chunk is alive at a time, so ten times the words peak within the
    # checked bytes and within 64 KiB of the fewer words' peak
    rho = make_algebraic_renewal(2.0, 4)
    for k in (1, 2):
        peaks = []
        for N in (100_000, 1_000_000):
            tracemalloc.start()
            try:
                ergodic_gap(nu_ab, rho, N, k, seed=7)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert peaks[-1] <= ergodic_checked_bytes(nu_ab, rho, N, k, seed=7)[1], (N, k)
        assert peaks[1] - peaks[0] <= 64 * 2**10, (k, peaks)


@pytest.mark.parametrize("case", ["uniform-ab", "skewed-abc", "atoms-2-5"])
def test_ergodic_gap_budget_is_what_it_allocates(monkeypatch, case):
    # checked before anything is drawn: the counts, frequencies and
    # reference over `total` words and one chunk's words; once a chunk's
    # jumps are drawn, those bytes and its letters.  The largest chunk's
    # letters bound the whole call.
    nu, rho, depths = ERGODIC_CASES[case]
    N = 200_000
    expected = {k: (ergodic_checked_bytes(nu, rho, N, k, seed=7),
                    per_length_ergodic_gap(nu, rho, N, k, seed=7)) for k in depths}
    for k, ((held, need, letters), want) in expected.items():
        monkeypatch.setattr(errors, "BUDGET_BYTES", held - 1)
        tracemalloc.start()
        try:
            with pytest.raises(SizeBudgetError, match=f"ergodic gap of {N} words over .* needs {held} bytes"):
                ergodic_gap(nu, rho, N, k, seed=7)
            assert tracemalloc.get_traced_memory()[1] < 8192
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(errors, "BUDGET_BYTES", need - 1)
        with pytest.raises(SizeBudgetError, match=f"a chunk of {letters} letters needs {need} bytes"):
            ergodic_gap(nu, rho, N, k, seed=7)
        monkeypatch.setattr(errors, "BUDGET_BYTES", need)
        tracemalloc.start()
        try:
            gap = ergodic_gap(nu, rho, N, k, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= need, (k, peak, need)
        assert gap == want


def test_ergodic_gap_checks_letters_once_drawn(monkeypatch, nu_ab):
    # a long support: checking max_jump = 16 letters a word before the draw
    # asked for 17.2 MB here; the 4.4 letters a word drawn fit in 8 MiB
    rho = make_algebraic_renewal(1.1, 16)
    N, budget = 50_000, 2**23
    assert (24 + 16 * rho.max_jump) * N > budget
    monkeypatch.setattr(errors, "BUDGET_BYTES", budget)
    tracemalloc.start()
    try:
        gap = ergodic_gap(nu_ab, rho, N, 1, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget
    assert gap == per_length_ergodic_gap(nu_ab, rho, N, 1, seed=7)


def test_ergodic_gap_refuses_far_atom_before_drawing():
    # one letter keeps the word table at two entries, but the tables by
    # length reach the far atom: refused before any draw, with their bytes
    nu, far = LetterLaw.uniform("a"), renewal_from_atoms({1: 0.5, 10**9: 0.5}, 2.0)
    need = 8 * 3 * 2 + 12 * (10**9 + 1) + 24 * 10
    tracemalloc.start()
    try:
        with pytest.raises(SizeBudgetError, match=f"needs {need} bytes"):
            ergodic_gap(nu, far, 10, 1, seed=7)
        assert tracemalloc.get_traced_memory()[1] < 8192
    finally:
        tracemalloc.stop()


def test_ergodic_gap_depth_validation(nu_ab):
    rho = make_algebraic_renewal(2.0, 3)
    with pytest.raises(InputError):
        ergodic_gap(nu_ab, rho, 100, 3, seed=0)


def test_slope_series_deterministic(nu_ab):
    rho = make_algebraic_renewal(2.0, 4)
    nbhd = Neighbourhood((Constraint(("a",), 0.5, 1.0),))
    s1 = quenched_slope_series(nu_ab, rho, nbhd, [2, 4], Jmax=3, seed=21)
    s2 = quenched_slope_series(nu_ab, rho, nbhd, [2, 4], Jmax=3, seed=21)
    assert s1.entries == s2.entries
    assert s1.annealed == s2.annealed
    assert 0.0 < s1.discarded_mass < 1.0
    doc = s1.to_json()
    assert doc["Jmax"] == 3 and len(doc["entries"]) == 2


@pytest.mark.parametrize("cap", [4, 8])
def test_slope_series_discarded_mass_is_the_atoms_beyond_jmax(nu_ab, cap):
    # the sum of the atoms beyond Jmax: exactly 0 at the cap, exactly the
    # last atom one below it
    rho = make_algebraic_renewal(2.0, cap)
    nbhd = Neighbourhood((Constraint(("b",), 0.5, 1.0),))
    whole = quenched_slope_series(nu_ab, rho, nbhd, [2], Jmax=cap, seed=0)
    assert whole.discarded_mass == 0.0
    last = quenched_slope_series(nu_ab, rho, nbhd, [2], Jmax=cap - 1, seed=0)
    assert last.discarded_mass == rho.prob(cap)


def test_slope_series_rejects_pair_constraints(nu_ab):
    rho = make_algebraic_renewal(2.0, 4)
    nbhd = Neighbourhood((Constraint(("a", "b"), 0.0, 0.5),))
    with pytest.raises(InputError):
        quenched_slope_series(nu_ab, rho, nbhd, [2], Jmax=2, seed=0)


def test_waiting_time_self_target_small_slope(nu_ab):
    # target == medium: predicted exponent 0, fitted slope near 0
    res = waiting_time(nu_ab, nu_ab, [10, 14, 18], trials=120,
                       tol_typicality=0.12, seed=3)
    assert res.predicted == 0.0
    assert abs(res.slope) < 0.05
    assert all(c == 0 for _, _, _, c in res.per_m)


def test_waiting_time_empty_typical_set_rejected(nu_ab):
    # with an irrational-ish target and a tight tolerance, some window
    # lengths admit no integer count vector at all
    target = LetterLaw.from_probs("ab", [0.2, 0.8])
    with pytest.raises(InputError, match="typical set empty"):
        waiting_time(nu_ab, target, [12], trials=10, tol_typicality=0.02, seed=0)


def test_waiting_time_alphabet_mismatch(nu_ab):
    target = LetterLaw.from_probs("ac", [0.5, 0.5])
    with pytest.raises(InputError):
        waiting_time(nu_ab, target, [10], trials=5, tol_typicality=0.1, seed=0)


def test_waiting_time_deterministic(nu_ab):
    target = LetterLaw.from_probs("ab", [0.3, 0.7])
    r1 = waiting_time(nu_ab, target, [10, 15], trials=40,
                      tol_typicality=0.05, seed=9)
    r2 = waiting_time(nu_ab, target, [10, 15], trials=40,
                      tol_typicality=0.05, seed=9)
    assert r1.per_m == r2.per_m
    assert r1.slope == r2.slope


def test_enum_matches_dict_oracle_beyond_brute():
    rho = make_algebraic_renewal(2.0, 16)
    rng = np.random.default_rng(23)
    X = "".join("ab"[i] for i in rng.integers(0, 2, size=400))
    assert X[0] == "a"
    cases = [
        (Neighbourhood((Constraint(("b",), 0.6, 1.0),)), 25, 16),
        (Neighbourhood((Constraint(("a", "b"), 0.0, 0.15),)), 20, 10),
        (Neighbourhood((Constraint(("a", "b"), 0.2, 1.0),)), 20, 10),
        # X starts with "a", so only this box sees the wrap-around pair
        (Neighbourhood((Constraint(("b", "a"), 0.2, 1.0),)), 20, 10),
        (Neighbourhood((Constraint(("a",), 0.2, 0.9), Constraint(("bb",), 0.0, 0.4))), 12, 6),
    ]
    for nbhd, N, Jmax in cases:
        fast = quenched_prob_enum(X, rho, N, nbhd, Jmax)
        slow = dict_dp_oracle(X, rho, N, nbhd, Jmax)
        assert slow > 0
        assert fast == pytest.approx(slow, rel=1e-12, abs=0)


def test_slope_series_equals_enum_per_n(nu_ab):
    rho = make_algebraic_renewal(2.0, 8)
    nbhd = Neighbourhood((Constraint(("b",), 0.6, 1.0),))
    n_list, jmax, seed = [3, 7, 5, 10], 8, 5
    series = quenched_slope_series(nu_ab, rho, nbhd, n_list, Jmax=jmax, seed=seed)
    # the medium quenched_slope_series draws: Philox keyed by (seed, 0)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    X = "".join("ab"[i] for i in rng.choice(2, size=max(n_list) * jmax, p=[0.5, 0.5]))
    assert [n for n, _, _ in series.entries] == n_list
    for n, prob, _ in series.entries:
        assert prob > 0
        assert prob == quenched_prob_enum(X, rho, n, nbhd, jmax)


@pytest.mark.parametrize("atoms, jmax, n_list", [
    ({n: n**-2.0 for n in range(1, 9)}, 8, [3, 7]),
    ({1: 0.1, 6: 0.9}, 2, [1]),
], ids=["long", "shorter-than-a-jump"])
def test_slope_series_medium_is_sample_path_prefix(monkeypatch, atoms, jmax, n_list):
    # the medium is the first max(N_list) * Jmax letters of sample_path's X
    # at the seed, also where a jump is longer than the medium
    nu = LetterLaw.from_probs("abc", [0.5, 0.3, 0.2])
    total = sum(atoms.values())
    rho = renewal_from_atoms({n: p / total for n, p in atoms.items()}, 2.0)
    nbhd = Neighbourhood((Constraint(("b",), 0.0, 1.0),))
    media = []
    cut_dp = mclab._cut_dp
    monkeypatch.setattr(mclab, "_cut_dp", lambda X, *args: media.append(X) or cut_dp(X, *args))
    n = max(n_list) * jmax
    for seed in (0, 5, 12648430):
        quenched_slope_series(nu, rho, nbhd, n_list, Jmax=jmax, seed=seed)
        x = sample_path(nu, rho, n, 20, seed)[0]
        assert len(media[-1]) == n and media[-1] == x[:n]


def test_enum_budget_error_states_size(monkeypatch):
    rho = make_algebraic_renewal(2.0, 4)
    nbhd = Neighbourhood((Constraint(("a",), 0.0, 1.0),))
    # positions 4*3+1 = 13, counts 5, one class: 65 cells, three arrays of them
    monkeypatch.setattr(errors, "BUDGET_BYTES", 1560)
    assert quenched_prob_enum("ab" * 6, rho, 4, nbhd, 3) > 0
    monkeypatch.setattr(errors, "BUDGET_BYTES", 1559)
    with pytest.raises(SizeBudgetError, match=r"positions 13 x counts 5\^1 x classes 1\^2 "
                                              r"needs 1560 bytes, over the budget of 1559$"):
        quenched_prob_enum("ab" * 6, rho, 4, nbhd, 3)
    with pytest.raises(InputError):
        quenched_prob_enum("ab" * 6, rho, 0, nbhd, 3)


def test_slope_series_annealed_matches_full_enumeration(nu_ab):
    rho = make_algebraic_renewal(2.0, 8)
    nbhd = Neighbourhood((Constraint(("a",), 0.1, 0.3), Constraint(("bb",), 0.2, 0.5)))
    series = quenched_slope_series(nu_ab, rho, nbhd, [2], Jmax=6, seed=0)
    kept = sum(rho.prob(d) for d in range(1, 7))
    capped = renewal_from_atoms({d: rho.prob(d) / kept for d in range(1, 7)}, 2.0)
    _, full = i_projection(ReferenceLaw(capped, nu_ab).enumerate_atoms(), nbhd)
    assert series.annealed == pytest.approx(full, rel=1e-12)


# the waiting-time setting of the mclab benchmark workload
BENCH_WAIT = dict(nu=LetterLaw.from_probs("01", [0.5, 0.5]),
                  target=LetterLaw.from_probs("01", [0.2, 0.8]),
                  M_list=list(range(10, 41, 5)), tol=0.034)
ABC_WAIT = dict(nu=LetterLaw.from_probs("abc", [0.5, 0.3, 0.2]),
                target=LetterLaw.from_probs("abc", [0.2, 0.3, 0.5]),
                M_list=[4, 8, 12, 16], tol=0.1)
# KL = 0 gives the shortest first horizon, 288, and tol = 0 admits only the
# exact count vector, so some waits outrun it
ABC_SELF_WAIT = dict(ABC_WAIT, target=ABC_WAIT["nu"], M_list=[10, 20, 30], tol=0.0)


@pytest.mark.parametrize("cfg, trials, cap, doubles, censors", [
    (BENCH_WAIT, 40, 2**24, True, False),
    (BENCH_WAIT, 40, 2000, True, True),
    (BENCH_WAIT, 40, 300, False, True),
    (BENCH_WAIT, 40, 64, False, True),
    (ABC_WAIT, 60, 2**24, False, False),
    (ABC_WAIT, 60, 1000, False, True),
    (ABC_WAIT, 60, 50, False, True),
    (ABC_SELF_WAIT, 60, 400, True, True),
], ids=["bench", "bench-cap2000", "bench-cap300", "bench-cap64",
        "abc", "abc-cap1000", "abc-cap50", "abc-self-cap400"])
def test_waiting_time_matches_full_draw_oracle(cfg, trials, cap, doubles, censors):
    # the early-stopping block scan reads the same letters and tests the
    # same shifts 1..cap+1 as one full draw per trial, so per_m is equal
    args = (cfg["nu"], cfg["target"], cfg["M_list"], trials, cfg["tol"], 12648430)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = waiting_time(*args, horizon_cap=cap)
        per_m, doublings = waiting_time_oracle(*args, horizon_cap=cap)
    assert res.per_m == per_m
    assert (doublings > 0) == doubles
    assert (sum(c for *_, c in per_m) > 0) == censors


def test_waiting_time_single_letter_hits_at_once():
    # one letter: every window is typical, so every trial hits at shift 1
    nu = LetterLaw.uniform("a")
    args = (nu, nu, [3, 5], 4, 0.0, 1)
    res = waiting_time(*args)
    assert res.per_m == ((3, 0.0, 4, 0), (5, 0.0, 4, 0)) == waiting_time_oracle(*args)[0]


@pytest.mark.parametrize("kwargs, name", [
    (dict(trials=0), "trials"),
    (dict(M_list=[0, 10]), "M_list"),
    (dict(M_list=[10]), "M_list"),
    (dict(M_list=[10, 10]), "M_list"),
    (dict(M_list=[]), "M_list"),
    (dict(horizon_cap=0), "horizon_cap"),
], ids=["trials-0", "M-0", "one-M", "repeated-M", "no-M", "cap-0"])
def test_waiting_time_input_checks_before_any_draw(monkeypatch, nu_ab, kwargs, name):
    def no_stream(*args, **kw):
        raise AssertionError("a trial stream was keyed")

    monkeypatch.setattr(np.random, "Philox", no_stream)
    args = dict(nu=nu_ab, target=LetterLaw.from_probs("ab", [0.3, 0.7]),
                M_list=[10, 15], trials=5, tol_typicality=0.1, seed=0)
    with pytest.raises(InputError, match=name):
        waiting_time(**{**args, **kwargs})
