"""Belief tracking over the client's hidden stage of change.

Each turn produces a BeliefState by combining two ingredients:

* an observation-side estimate ``p_obs`` derived from the classified cue,
  widened toward uniform by an amount that depends on how informative the
  utterance is (short or hedged utterances are trusted less), and
* a model-side predictive prior ``p_prior`` rolled forward through the
  transition model under the action just taken (``planner_prior``).

The two are fused by a fixed-weight convex combination rather than a full
Bayesian product, which keeps the update robust when either side is badly
calibrated early in a session.  The exact Bayesian machinery (posterior and
variational free energy) is also provided for diagnostics: every active turn
records both next to the fused belief.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyTextError, ZeroEvidenceError
from .probs import Categorical, DimensionMismatchError, _total, kl_divergence, mix, uniform

# Share of the fused belief taken from the predictive prior.
DEFAULT_BETA = 0.35

# Trust levels for the cue classifier, worst to best utterance quality.
ALPHA_WIDTHS = (0.50, 0.65, 0.75, 0.85)

# Hedging markers that cap how much an utterance is trusted.
HEDGE_TERMS = (
    "maybe",
    "perhaps",
    "possibly",
    "might",
    "i guess",
    "not sure",
    "kind of",
    "sort of",
)


@dataclass(frozen=True)
class BeliefState:
    """Fused belief for one turn, with the ingredients that produced it.

    ``q`` is the working belief used downstream.  ``posterior`` and
    ``free_energy`` are the exact Bayesian quantities for the same evidence,
    kept for inspection; they do not feed back into the fusion.
    """

    q: Categorical
    p_obs: Categorical
    p_prior: Categorical
    alpha: float
    beta: float
    posterior: Categorical
    free_energy: float

    def as_dict(self) -> dict:
        return {
            k: v.as_dict() if isinstance(v := getattr(self, k), Categorical) else v
            for k in self.__dataclass_fields__
        }


def _evidence(likelihood, p: Categorical) -> tuple[list[float], bool]:
    """The Python floats of ``likelihood`` checked against ``p``'s space, and
    whether they are all positive."""
    lik = np.asarray(likelihood, dtype=float)
    if lik.shape != (len(p.space),):
        raise DimensionMismatchError(
            f"likelihood shape {lik.shape} does not match space {p.space.name!r}"
        )
    values = lik.tolist()
    positive = all(e > 0 for e in values)
    if not positive and not all(e >= 0 for e in values):  # NaN fails too
        raise ValueError("likelihood values must be non-negative")
    return values, positive


def bayes_update(prior: Categorical, likelihood) -> Categorical:
    """Exact posterior q(s) proportional to prior(s) * likelihood(s).

    ``likelihood`` is a vector of non-negative evidence values aligned with
    the prior's label space (it need not normalize over states).  Raises
    ZeroEvidenceError when prior and likelihood share no support, i.e. the
    evidence has probability zero under the model.  The arithmetic runs on
    Python floats, entry by entry and summed by ``_total``, so every value is
    the numpy expression's.
    """
    lik = _evidence(likelihood, prior)[0]
    joint = [p * e for p, e in zip(prior.values, lik)]
    evidence = _total(joint)
    if evidence <= 0:
        raise ZeroEvidenceError(
            "prior and likelihood have disjoint support; posterior undefined"
        )
    return Categorical(prior.space, [j / evidence for j in joint])


def free_energy(q: Categorical, prior: Categorical, likelihood) -> float:
    """Variational free energy of q given the prior and evidence vector.

    F(q) = KL(q || prior) - E_q[log likelihood].  For any q this upper-bounds
    the negative log evidence, with equality exactly at the Bayes posterior,
    so minimizing F recovers bayes_update.  Returns +inf when q places mass
    on states the evidence rules out.  The likelihood is checked as in bayes_update.
    The arithmetic runs on Python floats, with the logs from one ``np.log`` call.
    """
    lik, positive = _evidence(likelihood, q)
    qv = q.values
    nz = [i for i, x in enumerate(qv) if x > 0]
    if not positive and any(lik[i] <= 0 for i in nz):
        return float("inf")
    logs = np.log([lik[i] for i in nz]).tolist()
    expected_log_lik = _total([qv[i] * log for i, log in zip(nz, logs)])
    return kl_divergence(q, prior) - expected_log_lik


def length_aware_alpha(utterance: str) -> float:
    """How much to trust the cue classifier for this utterance.

    Returns the retained share of p_obs: longer, unhedged utterances earn
    more trust.  Word counts use whitespace tokens; hedge detection is a
    case-insensitive substring match against a small fixed list.
    """
    if not utterance or not utterance.strip():
        raise EmptyTextError("cannot score an empty utterance")
    words = utterance.split()
    lowered = utterance.lower()
    hedged = any(term in lowered for term in HEDGE_TERMS)
    if len(words) < 6:
        return ALPHA_WIDTHS[0]
    if len(words) < 12 or hedged:
        return ALPHA_WIDTHS[1]
    if len(words) < 25:
        return ALPHA_WIDTHS[2]
    return ALPHA_WIDTHS[3]


def widen(p: Categorical, alpha: float) -> Categorical:
    """Blend a distribution toward uniform: alpha * p + (1 - alpha) * uniform.

    alpha = 1 returns p unchanged; alpha = 0 discards it entirely.
    """
    return mix(uniform(p.space), p, alpha)


def widen_observation(p_obs: Categorical, utterance: str) -> tuple[Categorical, float]:
    """Widen the raw observation estimate according to utterance quality."""
    alpha = length_aware_alpha(utterance)
    return widen(p_obs, alpha), alpha


def fuse(p_obs: Categorical, p_prior: Categorical, beta: float = DEFAULT_BETA) -> Categorical:
    """Fixed-weight fusion of observation and prior: (1 - beta) * p_obs + beta * p_prior."""
    return mix(p_obs, p_prior, beta)
