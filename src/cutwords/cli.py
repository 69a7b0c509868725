"""Command-line surface: one experiment per invocation, JSON config with
flag overrides, CSV/JSON artifacts embedding the resolved config.

`COMMANDS` is the one table of subcommands: each maps to its function and
its parameters, every one required, read from its flag or else from the
config key of the same name, and converted by `_coerce` either way.  A
JSON artifact holds the whole result; a CSV file holds the rows, and its
`.meta.json` sidecar the config and every result key the rows do not carry.

Exit codes: 0 success, 1 validation error, 2 state-space budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass

from .errors import InputError, SizeBudgetError
from . import corelemma, entropy, laws, mclab, psi, rates

DEFAULT_SEED = 12648430  # 0xC0FFEE; documented fixed constant

LN2 = math.log(2.0)


class CliParser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


@dataclass
class RunConfig:
    command: str
    params: dict
    seed: int = DEFAULT_SEED
    out: str | None = None
    fmt: str = "csv"
    log_base: str = "nat"

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "seed": self.seed,
            "format": self.fmt,
            "log_base": self.log_base,
        }


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(f"config file {path} is not valid JSON: {exc}")


def parse_int_list(value) -> list:
    """Accept a list of ints, '1..40' ranges or '6,8,10' comma lists."""
    if not isinstance(value, str):
        return [int(v) for v in value]
    text = value.strip()
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in text.split(",") if t]


def _alpha_or_boundary(value):
    """A tail exponent that `laws.alpha_from_json` reads, kept as given."""
    laws.alpha_from_json(value)
    return value


def _letters(value) -> str:
    """The fixed letter sequence X, which must be a string."""
    if not isinstance(value, str):
        raise TypeError("expected a string of letters")
    return value


def _format(value) -> str:
    if value not in ("csv", "json"):
        raise ValueError("expected 'csv' or 'json'")
    return value


def _renewal_law(doc: dict) -> laws.RenewalLaw:
    if "cap" in doc:
        return laws.make_algebraic_renewal(float(doc["alpha"]), int(doc["cap"]))
    return laws.RenewalLaw.from_json(doc)


# How each config field a subcommand may require is read.
_FIELDS = {
    "letter_law": laws.LetterLaw.from_json,
    "target_law": laws.LetterLaw.from_json,
    "renewal_law": _renewal_law,
    "word_law": laws.WordProcessLaw.from_json,
    "neighbourhood": rates.Neighbourhood.from_json,
    "X": _letters,
}


def _load(cfg: dict, key: str):
    """The config field `key`, which the calling subcommand requires."""
    if key not in cfg:
        raise InputError(f"config field {key!r} is required")
    return _coerce(key, cfg[key], _FIELDS[key])


def _json_value(v):
    """v as strict JSON (RFC 8259) holds it: +-inf by the names
    `laws.alpha_to_json` uses; a NaN, which JSON has no form for, raises
    before anything is written."""
    if isinstance(v, float) and not math.isfinite(v):
        if math.isnan(v):
            raise ValueError("a result is NaN, which a JSON artifact cannot hold")
        return "infinity" if v > 0 else "-infinity"
    if isinstance(v, dict):
        return {k: _json_value(x) for k, x in v.items()}
    # a sampled path's cut points and words are kept, not copied
    if isinstance(v, (list, tuple)) and not set(map(type, v)) <= {int, str}:
        return [_json_value(x) for x in v]
    return v


def _write_json(path: str, doc: dict):
    doc = _json_value(doc)
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_csv(path: str, header: list, rows, sidecar: dict):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    _write_json(path + ".meta.json", sidecar)


def _disp(x: float, rc: RunConfig) -> float:
    """Display-only nat -> bit conversion for the summary line."""
    return x / LN2 if rc.log_base == "bit" else x


def _emit(rc: RunConfig, doc: dict, header=None, rows=None, row_keys=()):
    """Write artifact(s) per format; every artifact embeds the config.  The
    keys of doc listed in row_keys are what the CSV rows carry, so a CSV
    sidecar leaves them out."""
    doc = dict(doc)
    doc["config"] = rc.to_json()
    if rc.out is None:
        return
    if rc.fmt == "json" or rows is None:
        _write_json(rc.out, doc)
    else:
        _write_csv(rc.out, header, rows, {k: v for k, v in doc.items() if k not in row_keys})


def cmd_simulate(rc: RunConfig, cfg: dict) -> str:
    p = rc.params
    nu = _load(cfg, "letter_law")
    rho = _load(cfg, "renewal_law")
    x, pts, sentence = laws.sample_path(nu, rho, p["n_letters"], p["n_words"], rc.seed)
    rows = zip(range(1, len(pts) + 1), pts, sentence)  # made as they are written
    _emit(rc, {"X": x, "cut_points": pts, "sentence": sentence},
          header=["i", "cut_point", "word"], rows=rows, row_keys=("cut_points", "sentence"))
    return f"simulate: {len(sentence)} words, {len(x)} letters"


def cmd_ergodic(rc: RunConfig, cfg: dict) -> str:
    p = rc.params
    nu = _load(cfg, "letter_law")
    rho = _load(cfg, "renewal_law")
    gap = mclab.ergodic_gap(nu, rho, p["n_words"], p["k"], rc.seed)
    n = p["n_words"]
    # 5 max_w sqrt(q(w)/N), at the largest atom: a most likely letter j times
    top = max(nu.probs, key=nu.probs.get)
    q_max = max(map(laws.ReferenceLaw(rho, nu).word_prob, (top * j for j in rho.support)))
    clt = 5.0 * math.sqrt(q_max / n)
    _emit(rc, {"gap": gap, "clt_bound": clt, "N": n, "k": p["k"]},
          header=["N", "k", "gap", "clt_bound"], rows=[(n, p["k"], gap, clt)],
          row_keys=("N", "k", "gap", "clt_bound"))
    return f"ergodic: gap={gap:.3e} clt_bound={clt:.3e}"


def cmd_psi(rc: RunConfig, cfg: dict) -> str:
    p = rc.params
    nu = _load(cfg, "letter_law")
    Q = _load(cfg, "word_law")
    table = psi.psi_marginal(Q, p["depth"], alphabet=nu.alphabet.symbols)
    _emit(rc, {"depth": p["depth"], "table": table},
          header=["pattern", "probability"], rows=table.items(), row_keys=("table",))
    return f"psi: depth={p['depth']} atoms={len(table)}"


def cmd_entropy(rc: RunConfig, cfg: dict) -> str:
    p = rc.params
    ref = laws.ReferenceLaw(_load(cfg, "renewal_law"), _load(cfg, "letter_law"))
    Q = _load(cfg, "word_law")
    rep = entropy.entropy_report(Q, ref, p["depth"])
    _emit(rc, rep.to_json())
    return (f"entropy: H_rel={_disp(rep.h_rel, rc):.6f} "
            f"psi_bracket=[{_disp(rep.psi_bracket.lower, rc):.6f},"
            f"{_disp(rep.psi_bracket.upper, rc):.6f}] ({rc.log_base}s/word-or-letter)")


def cmd_rate(rc: RunConfig, cfg: dict) -> str:
    p = rc.params
    ref = laws.ReferenceLaw(_load(cfg, "renewal_law"), _load(cfg, "letter_law"))
    Q = _load(cfg, "word_law")
    res = rates.fin_rate_result(Q, ref, laws.alpha_from_json(p["alpha"]), p["depth"])
    _emit(rc, res.to_json())
    return (f"rate: annealed={_disp(res.annealed, rc):.6f} "
            f"quenched=[{_disp(res.quenched.lo, rc):.6f},{_disp(res.quenched.hi, rc):.6f}]")


def cmd_ladder(rc: RunConfig, cfg: dict) -> str:
    p = rc.params
    ref = laws.ReferenceLaw(_load(cfg, "renewal_law"), _load(cfg, "letter_law"))
    Q = _load(cfg, "word_law")
    ladder = rates.que_rate_ladder(Q, ref, laws.alpha_from_json(p["alpha"]), p["tr_list"], p["depth"])
    rows = [(tr, iv.lo, iv.hi, p["depth"], iv.width) for tr, iv in ladder]
    _emit(rc, {"ladder": [{"tr": tr, "lower": iv.lo, "upper": iv.hi} for tr, iv in ladder]},
          header=["tr", "lower", "upper", "L", "width"], rows=rows, row_keys=("ladder",))
    last = ladder[-1][1]
    return f"ladder: {len(ladder)} levels, final=[{last.lo:.6f},{last.hi:.6f}]"


def cmd_quench_enum(rc: RunConfig, cfg: dict) -> str:
    p = rc.params
    rho = _load(cfg, "renewal_law")
    nbhd = _load(cfg, "neighbourhood")
    prob = mclab.quenched_prob_enum(_load(cfg, "X"), rho, p["n_words"], nbhd, p["jmax"])
    _emit(rc, {"prob": prob, "N": p["n_words"], "Jmax": p["jmax"]})
    return f"quench-enum: prob={prob:.6e}"


def cmd_quench_slopes(rc: RunConfig, cfg: dict) -> str:
    p = rc.params
    nu = _load(cfg, "letter_law")
    rho = _load(cfg, "renewal_law")
    nbhd = _load(cfg, "neighbourhood")
    series = mclab.quenched_slope_series(nu, rho, nbhd, p["n_list"], p["jmax"], rc.seed)
    rows = [(n, prob, slope) for n, prob, slope in series.entries]
    _emit(rc, series.to_json(), header=["N", "prob", "slope"], rows=rows, row_keys=("entries",))
    return (f"quench-slopes: annealed={_disp(series.annealed, rc):.6f} "
            f"last_slope={_disp(series.entries[-1][2], rc):.6f}")


def cmd_waiting_time(rc: RunConfig, cfg: dict) -> str:
    p = rc.params
    nu = _load(cfg, "letter_law")
    target = _load(cfg, "target_law")
    res = mclab.waiting_time(nu, target, p["m_list"], p["trials"], p["tol"], rc.seed)
    rows = [(m, v, t, c) for m, v, t, c in res.per_m]
    _emit(rc, res.to_json(), header=["M", "mean_log_sigma", "trials", "censored"], rows=rows,
          row_keys=("per_M",))
    return f"waiting-time: slope={_disp(res.slope, rc):.6f} predicted={_disp(res.predicted, rc):.6f}"


def cmd_core_lemma(rc: RunConfig, cfg: dict) -> str:
    p = rc.params
    alpha, pp, T = p["alpha"], p["p"], p["horizon"]
    lower, upper = corelemma.phi_bounds(alpha, pp)
    if not p["n_list"] or min(p["n_list"]) < 1:
        raise InputError("--n must list levels N >= 1")
    omega = corelemma.bernoulli_omega(pp, T, rc.seed)
    logs = corelemma.s_n_levels(omega[None, :], alpha, max(p["n_list"]), T)[:, 0]
    rows = [(n, float(logs[n - 1]), -float(logs[n - 1]) / n) for n in p["n_list"]]
    _emit(rc, {"phi_lower": lower, "phi_upper": upper,
               "series": [{"N": n, "log_S_N": ls, "rate": r} for n, ls, r in rows]},
          header=["N", "log_S_N", "rate"], rows=rows, row_keys=("series",))
    return f"core-lemma: phi in [{lower:.4f},{upper:.4f}], last rate={rows[-1][2]:.4f}"


def cmd_conv_tail(rc: RunConfig, cfg: dict) -> str:
    p = rc.params
    rho = laws.make_algebraic_renewal(p["alpha"], p["cap"])
    worst, (m, n) = corelemma.conv_tail_check(rho, p["alpha"], rho.c_rho, p["m_max"], p["n_max"])
    _emit(rc, {"worst_ratio": worst, "at_m": m, "at_n": n})
    return f"conv-tail: worst_ratio={worst:.6f} at (m={m}, n={n})"


def cmd_iproj(rc: RunConfig, cfg: dict) -> str:
    nu = _load(cfg, "letter_law")
    rho = _load(cfg, "renewal_law")
    nbhd = _load(cfg, "neighbourhood")
    ref_marginal = rates.boxed_reference(laws.ReferenceLaw(rho, nu), nbhd)
    q_star, value = rates.i_projection(ref_marginal, nbhd)
    q_rest = q_star.pop("")
    _emit(rc, {"value": value, "q_star": q_star, "q_rest": q_rest})
    return f"iproj: value={_disp(value, rc):.6f}"


# Each subcommand's function and parameters, as (flag, name, converter).
COMMANDS = {
    "simulate": (cmd_simulate, [("--n-letters", "n_letters", int), ("--n-words", "n_words", int)]),
    "ergodic": (cmd_ergodic, [("--n-words", "n_words", int), ("--k", "k", int)]),
    "psi": (cmd_psi, [("--depth", "depth", int)]),
    "entropy": (cmd_entropy, [("--depth", "depth", int)]),
    "rate": (cmd_rate, [("--alpha", "alpha", _alpha_or_boundary), ("--depth", "depth", int)]),
    "ladder": (cmd_ladder, [("--alpha", "alpha", _alpha_or_boundary), ("--depth", "depth", int),
                            ("--tr", "tr_list", parse_int_list)]),
    "quench-enum": (cmd_quench_enum, [("--n-words", "n_words", int), ("--jmax", "jmax", int)]),
    "quench-slopes": (cmd_quench_slopes, [("--n", "n_list", parse_int_list),
                                          ("--jmax", "jmax", int)]),
    "waiting-time": (cmd_waiting_time, [("--m", "m_list", parse_int_list),
                                        ("--trials", "trials", int), ("--tol", "tol", float)]),
    "core-lemma": (cmd_core_lemma, [("--alpha", "alpha", float), ("--p", "p", float),
                                    ("--n", "n_list", parse_int_list),
                                    ("--horizon", "horizon", int)]),
    "conv-tail": (cmd_conv_tail, [("--alpha", "alpha", float), ("--cap", "cap", int),
                                  ("--m-max", "m_max", int), ("--n-max", "n_max", int)]),
    "iproj": (cmd_iproj, []),
}


def build_parser() -> CliParser:
    parser = CliParser(prog="cutwords")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, params) in COMMANDS.items():
        sp = sub.add_parser(command)
        for flag, name, _ in params:
            sp.add_argument(flag, dest=name)
        sp.add_argument("--config")
        sp.add_argument("--out")
        sp.add_argument("--seed")
        sp.add_argument("--format", choices=["csv", "json"])
        sp.add_argument("--log-base", choices=["nat", "bit"], default="nat")
    return parser


def _coerce(name: str, value, conv):
    """Convert a flag's text or a config value; InputError names `name`."""
    try:
        return conv(value)
    except (TypeError, ValueError, KeyError) as exc:
        raise InputError(f"parameter {name!r}: cannot read {value!r} ({exc})") from None


def resolve_config(args: argparse.Namespace) -> tuple:
    cfg = _load_config(args.config)
    params = {}
    for _, name, conv in COMMANDS[args.command][1]:
        val = getattr(args, name)
        if val is None:
            val = cfg.get(name)
        if val is None:
            raise InputError(f"parameter {name!r} missing: pass a flag or set it in the config")
        params[name] = _coerce(name, val, conv)
    if params.get("depth", 1) < 1:
        raise InputError(f"depth must be >= 1, got {params['depth']}")
    seed = args.seed if args.seed is not None else cfg.get("seed", DEFAULT_SEED)
    rc = RunConfig(
        command=args.command,
        params=params,
        seed=_coerce("seed", seed, int),
        out=args.out,
        fmt=_coerce("format", args.format or cfg.get("format", "csv"), _format),
        log_base=args.log_base,
    )
    return rc, cfg


def main(argv=None) -> int:
    """Run one subcommand and return its exit code; an error also prints
    an `error` line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        rc, cfg = resolve_config(args)
        print(COMMANDS[args.command][0](rc, cfg))
    except SizeBudgetError as exc:
        print(f"error (budget): {exc}", file=sys.stderr)
        return 2
    except (InputError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
