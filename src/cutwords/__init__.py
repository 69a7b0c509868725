"""Desk-scale computation of annealed and quenched large-deviation rates
for words cut from random letter sequences by heavy-tailed renewal
processes."""

from .errors import InfeasibleError, InputError, SizeBudgetError
from .interval import Interval
from .words import (
    Alphabet,
    concat,
    cut,
    empirical_patterns,
    truncate_word,
)
from .laws import (
    ALPHA_INF,
    ALPHA_ONE,
    LetterLaw,
    ReferenceLaw,
    RenewalLaw,
    WordProcessLaw,
    iid_law,
    make_algebraic_renewal,
    markov_law,
    mean_length,
    renewal_from_atoms,
    sample_path,
    truncate_process,
)
from .psi import HiddenChain, hidden_chain, letter_typical, psi_marginal
from .entropy import (
    EntropyBracket,
    EntropyReport,
    entropy_rate,
    entropy_report,
    h_tau_given_k,
    identity_residual,
    psi_bracket_series,
    rel_entropy,
    spec_rel_entropy,
)
from .rates import (
    Constraint,
    Neighbourhood,
    RateResult,
    ann_rate,
    boxed_reference,
    contraction_upper,
    fin_rate,
    fin_rate_result,
    i_projection,
    que_rate_ladder,
)
from .corelemma import (
    bernoulli_omega,
    conv_tail_check,
    phi_bounds,
    s_n_eval,
    s_n_mean_check,
    zeta_partial,
)
from .mclab import (
    SlopeSeries,
    WaitingTimeResult,
    ergodic_gap,
    quenched_prob_brute,
    quenched_prob_enum,
    quenched_slope_series,
    waiting_time,
)

__version__ = "0.1.0"
