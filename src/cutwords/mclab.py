"""Simulation and verification experiments: ergodic convergence of the
empirical word process, exact quenched probabilities by one array
cut-point DP (a rho-convolution along the position axis with shifted count
axes, for 1- and 2-word constraints alike), quenched-vs-annealed slope
series read from one DP pass per medium, and the waiting-time experiment."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import laws
from .errors import InputError, check_budget
from .entropy import rel_entropy
from .laws import (LetterLaw, ReferenceLaw, RenewalLaw, _choose, choice_cdf, letter_string,
                   sample_chunks, stream)
from .rates import Neighbourhood, boxed_reference, i_projection
from .words import cut, empirical_patterns

# letter cells per (live trials x chunk) block of the waiting-time scan
WAIT_BLOCK_CELLS = 2**16


def _word_id_layout(n_letters_alphabet: int, lengths):
    """Canonical word ids: all words of each supported length, lexicographic."""
    offsets = {}
    total = 0
    for n in lengths:
        offsets[n] = total
        total += n_letters_alphabet**n
    return offsets, total


def _reference_vector(ref: ReferenceLaw, lengths, offsets, total) -> np.ndarray:
    """rho(n) times the n-fold Kronecker power of the letter probabilities,
    per supported length n, at the canonical word ids.  Each block is written
    in place from the power one length shorter, so beside the vector only
    the powers of the two lengths below the longest are held."""
    probs = np.zeros(total)
    v = ref.nu.prob_vector()
    power, m = np.ones(1), 0  # the m-fold power of v, grown to m = n - 1
    for n in lengths:
        for m in range(m + 1, n):
            power = np.multiply.outer(power, v).ravel()
        block = probs[offsets[n] : offsets[n] + len(power) * len(v)]
        np.multiply.outer(power, v, out=block.reshape(len(power), len(v)))
        block *= ref.rho.prob(n)
    return probs


def ergodic_gap(nu: LetterLaw, rho: RenewalLaw, N: int, k: int, seed: int) -> float:
    """Sup-norm gap between the k-word marginal of the empirical process of
    N sampled words and the reference product law.

    The words are drawn and counted a chunk of at most `laws.CHUNK_WORDS`
    at a time (`sample_chunks`), into one int64 table of total^k counts, so
    the memory does not grow with N.  Every word id is read off one base-E
    code per letter position of its chunk: code[j] holds the L = max word
    length letters ending at j (letters before the chunk read as 0), so the
    word of length n ending at j, whose letters are all in the chunk, has
    the value code[j] mod E^n.  One gather at the cut points and one integer
    division by E^n give the chunk's ids, once each length's offset is
    added.  At k = 2 the last id of a chunk pairs with the first of the
    next, and the last of all with the first (the periodic pair (Y_N, Y_1)).
    The budget bounds total^k <= 2^24 and E^L <= total, so the codes and
    ids fit int32.

    One chunk is in flight at a time.  Checked before anything is drawn:
    the reference, counts and frequencies (8 bytes an entry), the int32
    tables by length up to the longest (12 bytes a length while they are
    built) and one chunk's words at `sample_arrays`' 24 bytes a jump (each
    word's length, cut point, id and int32 temporaries); once a chunk's
    jumps are drawn, the same bytes plus its letters at 8 bytes each (an
    index and its comparison mask, then the letter's int32 code).
    """
    if k not in (1, 2):
        raise InputError("pattern depth must be 1 or 2")
    if N < 1:
        raise InputError(f"n_words must be >= 1, got {N}")
    E = len(nu.alphabet)
    lengths = list(rho.support)
    offsets, total = _word_id_layout(E, lengths)
    what = f"ergodic gap of {N} words over {total}^{k} word patterns"
    held = 8 * (2 * total**k + total) + 12 * (lengths[-1] + 1) + 24 * min(N, laws.CHUNK_WORDS)
    check_budget(what, held)

    def check_letters(n, drawn):
        check_budget(f"{what}, a chunk of {n} letters", held + 8 * n)

    modulus = E ** np.arange(lengths[-1] + 1, dtype=np.int32)
    offset = np.zeros_like(modulus)
    offset[lengths] = [offsets[n] for n in lengths]
    counts = np.zeros(total**k, dtype=np.int64)
    first, last = None, np.zeros(0, dtype=np.int32)
    for lens, x in sample_chunks(nu, rho, 0, N, seed, check_letters):
        code = np.zeros(len(x), dtype=np.int32)
        for t in range(lengths[-1] - 1, -1, -1):
            code *= E
            code[t:] += x[: max(len(x) - t, 0)]
        del x
        ends = np.cumsum(lens)
        ends -= 1  # the last letter of each word
        ids = code[ends]
        del code, ends
        np.fmod(ids, modulus[lens], out=ids)  # the remainder, as both are >= 0
        ids += offset[lens]
        if k == 2:
            first = ids[0] if first is None else first
            seq = np.concatenate((last, ids))
            last = seq[-1:].copy()
            ids = seq[:-1] * total + seq[1:]
            del seq
        np.add.at(counts, ids, 1)
        del lens, ids
    if k == 2:
        counts[last[0] * total + first] += 1

    ref_vec = _reference_vector(ReferenceLaw(rho, nu), lengths, offsets, total)
    freq = counts / N
    del counts
    freq -= ref_vec if k == 1 else np.kron(ref_vec, ref_vec)
    return float(np.max(np.abs(freq, out=freq)))


def _count_bounds(c, N: int):
    lo = math.ceil(c.low * N - 1e-9)
    hi = math.floor(c.high * N + 1e-9)
    return lo, hi


def _cut_dp(X: str, rho: RenewalLaw, N_list, nbhd: Neighbourhood, Jmax: int) -> list:
    """P(R_N in nbhd | X) for every N in N_list, from one forward pass.

    The state after i words is an array over (position j, one count axis
    per constraint, first-word class, last-word class); a word class is the
    index of a tracked word or "other", and the two class axes have size 1
    when no constraint is a 2-word pattern.  Each word adds rho(d) times the
    state shifted by d along the position axis, for every increment d <= Jmax
    in supp(rho); where X[j:j+d] is tracked, the affected count axes shift by
    one as well.  The wrap-around pair (last, first) and the count bounds are
    applied when a level is read.  Level N is read from the cells a pass to N
    can reach, so it does not depend on how far the pass goes.  The current
    and next state arrays and one product temporary, 8 bytes a cell each,
    must fit the byte budget.
    """
    incs = [d for d in rho.support if d <= Jmax]
    if not incs:
        raise InputError(f"no renewal atoms within Jmax={Jmax}")
    if min(N_list) < 1:
        raise InputError(f"number of words must be >= 1, got {min(N_list)}")
    n_max = max(N_list)
    if n_max * Jmax > len(X):
        raise InputError(f"need len(X) >= N*Jmax = {n_max * Jmax}, got {len(X)}")
    cons = nbhd.constraints
    U = len(cons)
    words = sorted({w for c in cons for w in c.pattern})
    other = len(words)
    n_cls = other + 1 if nbhd.max_depth == 2 else 1
    d_top = incs[-1]
    P = n_max * d_top + 1
    shape = (P,) + (n_max + 1,) * U + (n_cls, n_cls)
    check_budget(f"cut-point DP over positions {P} x counts {n_max + 1}^{U} x classes "
                 f"{n_cls}^2", 3 * 8 * math.prod(shape))

    # count axes a word of class k shifts, given the previous word's class l
    cls_of = {w: k for k, w in enumerate(words)}
    shifts = [[tuple(1 + u for u, c in enumerate(cons)
                     if cls_of[c.pattern[-1]] == k
                     and (len(c.pattern) == 1 or cls_of[c.pattern[0]] == l))
               for l in range(n_cls)] for k in range(other + 1)]

    # per increment d and word class k: weight rho(d) where X[j:j+d] has class k
    moves = []
    for d in incs:
        cls = np.full(P - d, other)
        if d in {len(w) for w in words}:
            cls[:] = [cls_of.get(X[j : j + d], other) for j in range(P - d)]
        for k in np.unique(cls):
            weight = np.where(cls == k, rho.probs[d], 0.0)
            moves.append((d, int(k), weight.reshape((-1,) + (1,) * (U + 1))))

    def read(S, n):
        reach = (slice(0, n * d_top + 1),) + (slice(0, n + 1),) * U
        T = S[reach].sum(axis=0)
        ok = np.ones(T.shape, dtype=bool)
        grid = np.arange(n + 1)
        for u, c in enumerate(cons):
            lo, hi = _count_bounds(c, n)
            wrap = np.zeros((n_cls, n_cls), dtype=np.int64)
            if len(c.pattern) == 2:
                wrap[cls_of[c.pattern[1]], cls_of[c.pattern[0]]] = 1
            final = grid.reshape((-1,) + (1,) * (U - 1 - u) + (1, 1)) + wrap
            ok &= (lo <= final) & (final <= hi)
        return float(T[ok].sum())

    S = np.zeros(shape)
    S[(0,) * (1 + U) + (other if n_cls > 1 else 0,) * 2] = 1.0
    levels = {}
    for i in range(1, n_max + 1):
        rows = (i - 1) * d_top + 1
        nxt = np.zeros(shape)
        for d, k, weight in moves:
            for l in range(n_cls):
                src = [slice(0, rows)] + [slice(None)] * (U + 1) + [l]
                dst = [slice(d, d + rows)] + [slice(None)] * (U + 1) + [k if n_cls > 1 else 0]
                for a in shifts[k][l]:
                    src[a] = slice(0, -1)
                    dst[a] = slice(1, None)
                nxt[tuple(dst)] += weight[:rows] * S[tuple(src)]
        if i == 1 and n_cls > 1:
            # after one word, the first word is the last one
            S = np.zeros(shape)
            diag = np.arange(n_cls)
            S[..., diag, diag] = nxt.sum(axis=-2)
        else:
            S = nxt
        if i in N_list:
            levels[i] = read(S, i)
    return [levels[n] for n in N_list]


def quenched_prob_enum(X: str, rho: RenewalLaw, N: int, nbhd: Neighbourhood,
                       Jmax: int) -> float:
    """Exact probability that the empirical process of N words cut from the
    fixed X lands in the neighbourhood, summed over all cut vectors with
    increments in supp(rho) intersect [1, Jmax].

    One array DP pass over the cut points (see `_cut_dp`) serves single-word
    and 2-word constraints alike.  Its positions x (N+1)^U x classes^2 cells
    for U constraints are checked against the byte budget; past it
    `SizeBudgetError` states the bytes that were needed.

    Convention: increment weights are rho's own atoms without
    renormalization, so with the all-pass neighbourhood the total is
    (sum of rho mass <= Jmax)^N.
    """
    return _cut_dp(X, rho, [N], nbhd, Jmax)[0]


def quenched_prob_brute(X: str, rho: RenewalLaw, N: int, nbhd: Neighbourhood, Jmax: int) -> float:
    """Independent oracle: explicit sum over all admissible cut vectors."""
    incs = [d for d in rho.support if d <= Jmax]
    cons = nbhd.constraints
    total = 0.0
    for taus in itertools.product(incs, repeat=N):
        pts = list(itertools.accumulate(taus))
        if pts[-1] > len(X):
            continue
        s = cut(X, pts)
        ok = True
        for c in cons:
            k = len(c.pattern)
            freq = float(empirical_patterns(s, k).get(tuple(c.pattern), 0.0))
            lo, hi = _count_bounds(c, N)
            if not (lo <= round(freq * N) <= hi):
                ok = False
                break
        if ok:
            total += math.prod(rho.probs[d] for d in taus)
    return total


@dataclass(frozen=True)
class SlopeSeries:
    """Exact quenched decay slopes -(1/N) log P(R_N in nbhd | X) per N."""

    entries: tuple           # (N, probability, slope)
    annealed: float
    discarded_mass: float    # renewal mass beyond Jmax, dropped per increment
    seed: int
    jmax: int

    def to_json(self) -> dict:
        return {
            "entries": [{"N": n, "prob": p, "slope": s} for n, p, s in self.entries],
            "annealed": self.annealed,
            "discarded_mass": self.discarded_mass,
            "seed": self.seed,
            "Jmax": self.jmax,
        }


def quenched_slope_series(nu_x: LetterLaw, rho: RenewalLaw, nbhd: Neighbourhood,
                          N_list, Jmax: int, seed: int) -> SlopeSeries:
    """One fixed medium X, exact quenched slopes per N, plus the annealed
    slope from the I-projection onto the same constraints.

    The state of the cut-point DP after N words does not depend on the
    target N, so one pass up to max(N_list) gives every entry; each equals
    `quenched_prob_enum` at that N exactly.  The medium, the first
    max(N_list) * Jmax letters of `sample_path`'s X at this seed, is drawn
    alone on the letters' stream, at `sample_arrays`' 16 bytes a letter, so
    no jump is drawn and a long jump adds no letters.

    The annealed companion uses the reference word marginal with jumps
    restricted to Jmax and renormalized; the discarded renewal mass is
    reported, not hidden.  Only the boxed words and the total mass of the
    others enter it, so no word list is enumerated.
    """
    if nbhd.max_depth == 2:
        raise InputError("annealed companion supports single-word constraints only")
    if not N_list or min(N_list) < 1:
        raise InputError(f"N_list must list levels N >= 1, got {list(N_list)}")
    n_letters = max(N_list) * Jmax
    check_budget(f"medium of {n_letters} letters", 16 * n_letters)
    X = letter_string(nu_x, _choose(stream(seed, 0), nu_x.prob_vector(), n_letters))

    incs = [d for d in rho.support if d <= Jmax]
    kept = sum(rho.probs[d] for d in incs)
    capped = RenewalLaw({d: rho.probs[d] / kept for d in incs}, alpha=rho.alpha)
    _, annealed = i_projection(boxed_reference(ReferenceLaw(capped, nu_x), nbhd), nbhd)

    probs = _cut_dp(X, rho, N_list, nbhd, Jmax)
    entries = []
    for n, prob in zip(N_list, probs):
        slope = -math.log(prob) / n if prob > 0 else math.inf
        entries.append((int(n), prob, slope))
    return SlopeSeries(
        entries=tuple(entries),
        annealed=annealed,
        discarded_mass=math.fsum(p for d, p in rho.probs.items() if d > Jmax),
        seed=seed,
        jmax=Jmax,
    )


@dataclass(frozen=True)
class WaitingTimeResult:
    per_m: tuple             # (M, mean_log_sigma, trials, censored)
    slope: float             # fitted slope of E[log sigma_1] vs M
    predicted: float         # per-letter KL of target vs medium law
    tol_typicality: float
    seed: int

    def to_json(self) -> dict:
        return {
            "per_M": [
                {"M": m, "mean_log_sigma": v, "trials": t, "censored": c}
                for m, v, t, c in self.per_m
            ],
            "slope": self.slope,
            "predicted": self.predicted,
            "tol_typicality": self.tol_typicality,
            "seed": self.seed,
        }


def _first_typical_shifts(gens, cdf: np.ndarray, M: int, allowed: np.ndarray,
                          horizon_cap: int) -> np.ndarray:
    """First shift i in 1..horizon_cap+1 whose length-M window x[i:i+M] is
    typical, per trial, or -1 when none is.

    Trial t's letters come from gens[t].random() in draw order: rng.choice
    with probabilities p maps a uniform u to the letter #{e : cdf[e] <= u}
    (`choice_cdf`), so the letter exceeds e exactly when u >= cdf[e],
    however the stream is chunked.  The unfinished trials advance together:
    each round draws one chunk per trial into a (live trials x chunk) block,
    prefixed with the trial's last M uniforms, and tests every window ending
    in the chunk at once.  allowed[e, c] says whether count c of letter e is
    within tolerance.  One cumsum per letter e < E - 1 gives each window's
    count g of letters > e; letter 0's test reads the first g as count
    M - g, and at E = 2 the last letter's test reads the same g as its
    count, so both are one lookup in a table on g.
    """
    E = len(cdf)
    if E == 1:  # every window has the one count vector (M), which waiting_time checked
        return np.ones(len(gens), dtype=np.int64)
    first = allowed[0, ::-1] & allowed[1] if E == 2 else allowed[0, ::-1]
    hits = np.full(len(gens), -1, dtype=np.int64)
    live = np.arange(len(gens))
    tail = np.stack([g.random(M) for g in gens])
    end = M  # letters drawn per live trial; tail holds x[end-M:end]
    k = 4 * M
    while live.size and end <= horizon_cap + M:
        k = min(k, horizon_cap + M + 1 - end)  # last window starts at horizon_cap+1
        u = np.empty((live.size, M + k))
        u[:, :M] = tail
        for row, t in zip(u[:, M:], live.tolist()):
            gens[t].random(out=row)
        # window at block column s = 1..k; gt = its count of letters > e
        for e, c in enumerate(cdf[:-1]):
            # as uint8 the letters sum to int32 faster than as bool
            cs = np.cumsum((u >= c).view(np.uint8), axis=1, dtype=np.int32)
            gt = cs[:, M:] - cs[:, :k]
            if e == 0:
                ok = first.take(gt)
            else:
                ok &= allowed[e].take(above - gt)
            above = gt
        if E > 2:
            ok &= allowed[-1].take(above)
        found = ok.any(axis=1)
        hits[live[found]] = end - M + 1 + ok[found].argmax(axis=1)
        tail = u[~found, -M:]
        live = live[~found]
        end += k
        k = max(4 * M, min(2 * k, WAIT_BLOCK_CELLS // max(live.size, 1)))
    return hits


def waiting_time(nu: LetterLaw, target: LetterLaw, M_list, trials: int,
                 tol_typicality: float, seed: int,
                 horizon_cap: int = 2**24) -> WaitingTimeResult:
    """Waiting time for a typical block of the target letter law inside a
    nu-random medium, versus the per-letter KL exponent.

    sigma_1 is the first shift >= 1 whose M-window has empirical letter
    frequencies within tol_typicality of the target.  Trial t at window
    length M reads the Philox stream keyed by (seed, (M << 32) | t) and
    stops at its first typical window.  The unfinished trials of one M
    advance together, drawing chunks that double in length from 4M, and
    are scanned as one block of at most about WAIT_BLOCK_CELLS letters
    (each live trial gets at least 4M), so memory stays fixed however long
    the waits are.  Shifts 1..horizon_cap + 1 are tested; a trial with no
    hit there records horizon_cap and is counted as censored.  The letters
    do not depend on the chunking: they are those of one
    rng.choice(E, n, p) draw per trial, so every result equals that of a
    scan over one full draw per trial.
    """
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    if any(M < 1 for M in M_list):
        raise InputError(f"window lengths in M_list must be >= 1, got {list(M_list)}")
    if horizon_cap < 1:
        raise InputError(f"horizon_cap must be >= 1, got {horizon_cap}")
    if target.alphabet != nu.alphabet:
        raise InputError("target and medium letter laws must share the alphabet")
    targets = [target.prob(c) for c in nu.alphabet.symbols]
    predicted = rel_entropy(target.probs, nu.probs)
    cdf = choice_cdf(nu.prob_vector())

    # The typical set can be exactly empty when no integer count vector
    # fits inside the tolerance box; that would censor every trial, so
    # reject it up front with the offending M.
    for M in M_list:
        los = [math.ceil(M * (t - tol_typicality) - 1e-12) for t in targets]
        his = [math.floor(M * (t + tol_typicality) + 1e-12) for t in targets]
        if any(lo > hi for lo, hi in zip(los, his)) or sum(los) > M or sum(his) < M:
            raise InputError(
                f"typical set empty at M={M}: no count vector within "
                f"tol_typicality={tol_typicality}; widen the tolerance"
            )
    if len(set(M_list)) < 2:
        raise InputError(f"M_list needs at least two distinct window lengths "
                         f"to fit a slope, got {list(M_list)}")

    # Checked before any generator is built: 647 bytes a Generator by tracemalloc
    # (numpy 2.4, CPython 3.11), and the first and largest block at most 28
    # bytes a cell (uniforms, at most four int32 count arrays and four masks)
    M = max(M_list)
    check_budget(f"{trials} trials at M={M}", 648 * trials + 28 * (5 * M * trials + WAIT_BLOCK_CELLS))
    per_m = []
    means = []
    for M in M_list:
        # allowed[e, c]: count c of letter e passes |c/M - target_e| <= tol
        freqs = np.arange(M + 1) / M
        allowed = np.abs(freqs - np.array(targets)[:, None]) <= tol_typicality + 1e-12
        hits = _first_typical_shifts(
            [stream(seed, (M << 32) | t) for t in range(trials)], cdf, M, allowed, horizon_cap)
        censored = int(np.count_nonzero(hits < 0))
        mean = math.fsum(math.log(int(h) if h > 0 else horizon_cap) for h in hits) / trials
        per_m.append((int(M), mean, trials, censored))
        means.append(mean)
    slope = float(np.polyfit(np.asarray(M_list, dtype=float), np.asarray(means), 1)[0])
    return WaitingTimeResult(
        per_m=tuple(per_m),
        slope=slope,
        predicted=predicted,
        tol_typicality=tol_typicality,
        seed=seed,
    )
