"""Command-line surface: one experiment per invocation, JSON config with
flag overrides, CSV/JSON artifacts embedding the resolved config.

Exit codes: 0 success, 1 validation error, 2 state-space budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

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


def parse_int_list(text: str) -> list:
    """Accept '1..40' ranges or '6,8,10' comma lists."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in text.split(",") if t]


def _letter_law(cfg: dict, key: str = "letter_law") -> laws.LetterLaw:
    if key not in cfg:
        raise InputError(f"config field {key!r} is required")
    return laws.LetterLaw.from_json(cfg[key])


def _renewal_law(cfg: dict) -> laws.RenewalLaw:
    if "renewal_law" not in cfg:
        raise InputError("config field 'renewal_law' is required")
    doc = cfg["renewal_law"]
    if "cap" in doc:
        return laws.make_algebraic_renewal(float(doc["alpha"]), int(doc["cap"]))
    return laws.RenewalLaw.from_json(doc)


def _word_law(cfg: dict) -> laws.WordProcessLaw:
    if "word_law" not in cfg:
        raise InputError("config field 'word_law' is required")
    return laws.WordProcessLaw.from_json(cfg["word_law"])


def _neighbourhood(cfg: dict) -> rates.Neighbourhood:
    if "neighbourhood" not in cfg:
        raise InputError("config field 'neighbourhood' is required")
    return rates.Neighbourhood.from_json(cfg["neighbourhood"])


def _write_json(path: str, doc: dict):
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header: list, rows: list, sidecar: dict):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")
    _write_json(path + ".meta.json", sidecar)


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _disp(x: float, rc: RunConfig) -> float:
    """Display-only nat -> bit conversion for the summary line."""
    return x / LN2 if rc.log_base == "bit" else x


def _emit(rc: RunConfig, doc: dict, header=None, rows=None):
    """Write artifact(s) per format; every artifact embeds the config."""
    doc = dict(doc)
    doc["config"] = rc.to_json()
    if rc.out is None:
        return
    if rc.fmt == "json" or rows is None:
        _write_json(rc.out, doc)
    else:
        _write_csv(rc.out, header, rows, doc)


def cmd_simulate(rc: RunConfig, cfg: dict) -> str:
    p = rc.params
    nu = _letter_law(cfg)
    rho = _renewal_law(cfg)
    x, pts, sentence = laws.sample_path(nu, rho, p["n_letters"], p["n_words"], rc.seed)
    rows = [(i + 1, pts[i], sentence[i]) for i in range(len(pts))]
    _emit(rc, {"X": x, "cut_points": list(pts), "sentence": list(sentence)},
          header=["i", "cut_point", "word"], rows=rows)
    return f"simulate: {len(sentence)} words, {len(x)} letters"


def cmd_ergodic(rc: RunConfig, cfg: dict) -> str:
    p = rc.params
    nu = _letter_law(cfg)
    rho = _renewal_law(cfg)
    gap = mclab.ergodic_gap(nu, rho, p["n_words"], p["k"], rc.seed)
    ref = laws.ReferenceLaw(rho, nu)
    n = p["n_words"]
    clt = 5.0 * max(math.sqrt(q / n) for q in ref.enumerate_atoms().values())
    _emit(rc, {"gap": gap, "clt_bound": clt, "N": n, "k": p["k"]},
          header=["N", "k", "gap", "clt_bound"], rows=[(n, p["k"], gap, clt)])
    return f"ergodic: gap={gap:.3e} clt_bound={clt:.3e}"


def cmd_psi(rc: RunConfig, cfg: dict) -> str:
    p = rc.params
    nu = _letter_law(cfg)
    Q = _word_law(cfg)
    table = psi.psi_marginal(Q, p["depth"], alphabet=nu.alphabet.symbols)
    rows = [(pat, prob) for pat, prob in table.items()]
    _emit(rc, {"depth": p["depth"], "table": table},
          header=["pattern", "probability"], rows=rows)
    return f"psi: depth={p['depth']} atoms={len(table)}"


def cmd_entropy(rc: RunConfig, cfg: dict) -> str:
    p = rc.params
    ref = laws.ReferenceLaw(_renewal_law(cfg), _letter_law(cfg))
    Q = _word_law(cfg)
    rep = entropy.entropy_report(Q, ref, p["depth"])
    _emit(rc, rep.to_json())
    return (f"entropy: H_rel={_disp(rep.h_rel, rc):.6f} "
            f"psi_bracket=[{_disp(rep.psi_bracket.lower, rc):.6f},"
            f"{_disp(rep.psi_bracket.upper, rc):.6f}] ({rc.log_base}s/word-or-letter)")


def cmd_rate(rc: RunConfig, cfg: dict) -> str:
    p = rc.params
    ref = laws.ReferenceLaw(_renewal_law(cfg), _letter_law(cfg))
    Q = _word_law(cfg)
    alpha = p["alpha"]
    if alpha in ("one", "infinity"):
        iv = rates.boundary_rate(Q, ref, alpha)
        doc = {"annealed": rates.ann_rate(Q, ref), "quenched": [iv.lo, iv.hi],
               "alpha": alpha, "depth": p["depth"]}
        _emit(rc, doc)
        return f"rate[{alpha}]: quenched=[{iv.lo:.6f},{iv.hi:.6f}]"
    res = rates.fin_rate_result(Q, ref, float(alpha), p["depth"])
    _emit(rc, res.to_json())
    return (f"rate: annealed={_disp(res.annealed, rc):.6f} "
            f"quenched=[{_disp(res.quenched.lo, rc):.6f},{_disp(res.quenched.hi, rc):.6f}]")


def cmd_ladder(rc: RunConfig, cfg: dict) -> str:
    p = rc.params
    ref = laws.ReferenceLaw(_renewal_law(cfg), _letter_law(cfg))
    Q = _word_law(cfg)
    ladder = rates.que_rate_ladder(Q, ref, float(p["alpha"]), p["tr_list"], p["depth"])
    rows = [(tr, iv.lo, iv.hi, p["depth"], iv.width) for tr, iv in ladder]
    _emit(rc, {"ladder": [{"tr": tr, "lower": iv.lo, "upper": iv.hi} for tr, iv in ladder]},
          header=["tr", "lower", "upper", "L", "width"], rows=rows)
    last = ladder[-1][1]
    return f"ladder: {len(ladder)} levels, final=[{last.lo:.6f},{last.hi:.6f}]"


def cmd_quench_enum(rc: RunConfig, cfg: dict) -> str:
    p = rc.params
    rho = _renewal_law(cfg)
    nbhd = _neighbourhood(cfg)
    if "X" not in cfg:
        raise InputError("config field 'X' (the fixed letter sequence) is required")
    prob = mclab.quenched_prob_enum(cfg["X"], rho, p["n_words"], nbhd, p["jmax"])
    _emit(rc, {"prob": prob, "N": p["n_words"], "Jmax": p["jmax"]})
    return f"quench-enum: prob={prob:.6e}"


def cmd_quench_slopes(rc: RunConfig, cfg: dict) -> str:
    p = rc.params
    nu = _letter_law(cfg)
    rho = _renewal_law(cfg)
    nbhd = _neighbourhood(cfg)
    series = mclab.quenched_slope_series(nu, rho, nbhd, p["n_list"], p["jmax"], rc.seed)
    rows = [(n, prob, slope) for n, prob, slope in series.entries]
    _emit(rc, series.to_json(), header=["N", "prob", "slope"], rows=rows)
    return (f"quench-slopes: annealed={_disp(series.annealed, rc):.6f} "
            f"last_slope={_disp(series.entries[-1][2], rc):.6f}")


def cmd_waiting_time(rc: RunConfig, cfg: dict) -> str:
    p = rc.params
    nu = _letter_law(cfg)
    target = _letter_law(cfg, key="target_law")
    res = mclab.waiting_time(nu, target, p["m_list"], p["trials"], p["tol"], rc.seed)
    rows = [(m, v, t, c) for m, v, t, c in res.per_m]
    _emit(rc, res.to_json(), header=["M", "mean_log_sigma", "trials", "censored"], rows=rows)
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
          header=["N", "log_S_N", "rate"], rows=rows)
    return f"core-lemma: phi in [{lower:.4f},{upper:.4f}], last rate={rows[-1][2]:.4f}"


def cmd_conv_tail(rc: RunConfig, cfg: dict) -> str:
    p = rc.params
    rho = laws.make_algebraic_renewal(p["alpha"], p["cap"])
    worst, (m, n) = corelemma.conv_tail_check(rho, p["alpha"], rho.c_rho, p["m_max"], p["n_max"])
    _emit(rc, {"worst_ratio": worst, "at_m": m, "at_n": n})
    return f"conv-tail: worst_ratio={worst:.6f} at (m={m}, n={n})"


def cmd_iproj(rc: RunConfig, cfg: dict) -> str:
    nu = _letter_law(cfg)
    rho = _renewal_law(cfg)
    nbhd = _neighbourhood(cfg)
    ref_marginal = laws.ReferenceLaw(rho, nu).enumerate_atoms()
    q_star, value = rates.i_projection(ref_marginal, nbhd)
    _emit(rc, {"value": value, "q_star": q_star})
    return f"iproj: value={_disp(value, rc):.6f}"


COMMANDS = {
    "simulate": cmd_simulate,
    "ergodic": cmd_ergodic,
    "psi": cmd_psi,
    "entropy": cmd_entropy,
    "rate": cmd_rate,
    "ladder": cmd_ladder,
    "quench-enum": cmd_quench_enum,
    "quench-slopes": cmd_quench_slopes,
    "waiting-time": cmd_waiting_time,
    "core-lemma": cmd_core_lemma,
    "conv-tail": cmd_conv_tail,
    "iproj": cmd_iproj,
}


def build_parser() -> CliParser:
    parser = CliParser(prog="cutwords")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--format", choices=["csv", "json"], default=None)
        sp.add_argument("--log-base", choices=["nat", "bit"], default="nat")

    sp = sub.add_parser("simulate")
    sp.add_argument("--n-letters", type=int, default=None)
    sp.add_argument("--n-words", type=int, default=None)
    common(sp)

    sp = sub.add_parser("ergodic")
    sp.add_argument("--n-words", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    common(sp)

    sp = sub.add_parser("psi")
    sp.add_argument("--depth", type=int, default=None)
    common(sp)

    sp = sub.add_parser("entropy")
    sp.add_argument("--depth", type=int, default=None)
    common(sp)

    sp = sub.add_parser("rate")
    sp.add_argument("--alpha", default=None)
    sp.add_argument("--depth", type=int, default=None)
    common(sp)

    sp = sub.add_parser("ladder")
    sp.add_argument("--alpha", default=None)
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--tr", dest="tr_list", default=None)
    common(sp)

    sp = sub.add_parser("quench-enum")
    sp.add_argument("--n-words", type=int, default=None)
    sp.add_argument("--jmax", type=int, default=None)
    common(sp)

    sp = sub.add_parser("quench-slopes")
    sp.add_argument("--n", dest="n_list", default=None)
    sp.add_argument("--jmax", type=int, default=None)
    common(sp)

    sp = sub.add_parser("waiting-time")
    sp.add_argument("--m", dest="m_list", default=None)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--tol", type=float, default=None)
    common(sp)

    sp = sub.add_parser("core-lemma")
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--n", dest="n_list", default=None)
    sp.add_argument("--horizon", type=int, default=None)
    common(sp)

    sp = sub.add_parser("conv-tail")
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--cap", type=int, default=None)
    sp.add_argument("--m-max", type=int, default=None)
    sp.add_argument("--n-max", type=int, default=None)
    common(sp)

    sp = sub.add_parser("iproj")
    common(sp)
    return parser


# Per-command parameter schema: (name, config key, required, converter)
_PARAM_SPECS = {
    "simulate": [("n_letters", int, True), ("n_words", int, True)],
    "ergodic": [("n_words", int, True), ("k", int, True)],
    "psi": [("depth", int, True)],
    "entropy": [("depth", int, True)],
    "rate": [("alpha", None, True), ("depth", int, True)],
    "ladder": [("alpha", float, True), ("depth", int, True), ("tr_list", parse_int_list, True)],
    "quench-enum": [("n_words", int, True), ("jmax", int, True)],
    "quench-slopes": [("n_list", parse_int_list, True), ("jmax", int, True)],
    "waiting-time": [("m_list", parse_int_list, True), ("trials", int, True), ("tol", float, True)],
    "core-lemma": [("alpha", float, True), ("p", float, True),
                   ("n_list", parse_int_list, True), ("horizon", int, True)],
    "conv-tail": [("alpha", float, True), ("cap", int, True),
                  ("m_max", int, True), ("n_max", int, True)],
    "iproj": [],
}


def _coerce(value, conv):
    if conv is None or value is None:
        return value
    if conv is parse_int_list and isinstance(value, list):
        return [int(v) for v in value]
    if isinstance(value, str) or conv in (int, float):
        return conv(value)
    return value


def resolve_config(args: argparse.Namespace) -> tuple:
    cfg = _load_config(args.config)
    params = {}
    for name, conv, required in _PARAM_SPECS[args.command]:
        flag_val = getattr(args, name, None)
        val = flag_val if flag_val is not None else cfg.get(name)
        val = _coerce(val, conv)
        if val is None and required:
            raise InputError(f"parameter {name!r} missing: pass a flag or set it in the config")
        params[name] = val
    seed = args.seed if args.seed is not None else cfg.get("seed", DEFAULT_SEED)
    fmt = args.format if args.format is not None else cfg.get("format", "csv")
    if params.get("depth") is not None and params["depth"] < 1:
        raise InputError(f"depth must be >= 1, got {params['depth']}")
    rc = RunConfig(
        command=args.command,
        params=params,
        seed=int(seed),
        out=args.out,
        fmt=fmt,
        log_base=args.log_base,
    )
    return rc, cfg


def exit_code(run) -> int:
    """Call run() and return this module's exit code for its outcome; an
    error also prints an `error` line on stderr.  Scripts reuse it."""
    try:
        run()
    except SizeBudgetError as exc:
        print(f"error (budget): {exc}", file=sys.stderr)
        return 2
    except (InputError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    def run():
        rc, cfg = resolve_config(args)
        print(COMMANDS[args.command](rc, cfg))

    return exit_code(run)


if __name__ == "__main__":
    sys.exit(main())
