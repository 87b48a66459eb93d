"""Expected-free-energy action selection.

For each candidate counselor action the planner rolls the current belief one
step forward, enumerates the cues that step could produce, and scores the
action on two axes:

* epistemic value — the expected entropy of the belief after seeing the cue.
  Lower means the action is expected to *reveal* more about the client's
  stage (asking a question when the stage is unclear).
* pragmatic value — the expected surprise of the cue under a preference
  distribution that favors change-oriented replies.  Lower means the action
  is expected to *produce* desirable replies.

The chosen action minimizes a weighted sum of the two.  Planning is a single
step deep: the score enumerates one future turn, not a policy tree.  The
predictive state distribution under the chosen action is also the prior the
next turn's belief is fused with, so one rollout serves both: the counselor
takes that prior from the report's ``q_next`` row for the chosen action.
``planner_prior`` forms that one row alone, through the model's ``predict`` on
Python floats in numpy's order, for callers that chose the action without
scoring (the no-EFE rotation, offline evaluation).

All candidate actions are scored in one pass over the model's arrays
T[s, a, s'] and O[s', c] (see ``world_model``).  For k candidates, S states
and C cues the rollout holds q'[a, s'] (k, S), the joint q'[a, s'] * O[s', c]
(k, S, C) and p(c | a) (k, C); posteriors over s' are the joint divided by
p(c | a).  Every reduction runs over states or cues, never over actions, so
each action's values are bit-identical to scoring it alone.  T is gathered
only for candidates other than the model's own actions in order, and the
entropy keeps 0 * log 0 = 0 without masks (``_epistemic``).  A belief over
another number of states than T's is a DimensionMismatchError.

``EfeReport`` keeps those arrays, read-only, rather than one object per
action; the q'[a, s'] rows are checked as distributions once, in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyActionSetError, InvalidWeightsError
from .probs import Categorical, LabelSpace, check_rows, normalize
from .vocab import CUES
from .world_model import check_beliefs

# Default split between exploration and exploitation.
DEFAULT_LAMBDA_E = 0.4
DEFAULT_LAMBDA_P = 0.6

# Desirability of each talk type a cue maps to, before renormalization.
TALK_TYPE_PREFERENCE = {"change": 0.70, "neutral": 0.25, "sustain": 0.05}

# Which talk type each default cue signals.
CUE_TALK_TYPE = {
    "precontemplation": "sustain",
    "contemplation": "neutral",
    "preparation": "change",
    "short_ack": "neutral",
    "deflection": "sustain",
    "hedging": "neutral",
    "plan_statement": "change",
}


@dataclass(frozen=True)
class PreferenceModel:
    """Log preference over observed cues.

    Only differences of log preferences matter to the argmin; normalizing
    the weights first fixes an absolute scale for reported values.
    """

    log_pref: np.ndarray

    @classmethod
    def from_weights(cls, space: LabelSpace, weights: dict[str, float]) -> "PreferenceModel":
        w = np.array([weights[c] for c in space.labels], dtype=float)
        if not (w > 0).all():  # NaN fails too
            raise ValueError("preference weights must be strictly positive")
        log_pref = np.log(normalize(space, w).probs)
        log_pref.flags.writeable = False
        return cls(log_pref)

    @classmethod
    def default(cls) -> "PreferenceModel":
        weights = {c: TALK_TYPE_PREFERENCE[CUE_TALK_TYPE[c]] for c in CUES.labels}
        return cls.from_weights(CUES, weights)


@dataclass(frozen=True)
class ActionScore:
    action: str
    epistemic: float
    pragmatic: float
    total: float
    q_next_prior: Categorical


@dataclass(frozen=True)
class EfeReport:
    """All per-action scores from one planning step plus the chosen action.

    Row i of each read-only array belongs to ``actions[i]``: ``epistemic``,
    ``pragmatic`` and ``total`` have shape (k,) and ``q_next`` (k, S) over
    ``space``, every row checked as a distribution.  ``score_for`` builds one
    action's ``ActionScore`` on request.
    """

    space: LabelSpace
    actions: tuple[str, ...]
    epistemic: np.ndarray
    pragmatic: np.ndarray
    total: np.ndarray
    q_next: np.ndarray
    chosen: str

    def score_for(self, action: str) -> ActionScore:
        if action not in self.actions:
            raise KeyError(action)
        i = self.actions.index(action)
        epi, prag, total = (float(x[i]) for x in (self.epistemic, self.pragmatic, self.total))
        return ActionScore(action, epi, prag, total, Categorical(self.space, self.q_next[i]))

    def as_dict(self) -> dict:
        columns = (c.tolist() for c in (self.epistemic, self.pragmatic, self.total, self.q_next))
        scores = [
            {"action": a, "epistemic": e, "pragmatic": p, "total": t,
             "q_next_prior": dict(zip(self.space.labels, q))}
            for a, e, p, t, q in zip(self.actions, *columns)
        ]
        return {"chosen": self.chosen, "scores": scores}


def _predict(belief: Categorical, model, actions: Sequence[str]) -> np.ndarray:
    """q'[a, s'] = sum_s q(s) * T[s, a, s'] for each action: the one rollout step."""
    T = model.transitions()
    check_beliefs(T.shape[0], belief)
    if tuple(actions) != model.actions.labels:
        T = T.take([model.actions.index(a) for a in actions], axis=1)
    return np.add.reduce(belief.probs[:, None, None] * T, axis=0)


def _rollout(
    belief: Categorical, model, actions: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """q'[a, s'], the joint q'[a, s'] * O[s', c], and p(c | a) for each action."""
    q_next = _predict(belief, model, actions)
    joint = q_next[:, :, None] * model.observations()
    return q_next, joint, np.add.reduce(joint, axis=1)


def _epistemic(joint: np.ndarray, p_obs: np.ndarray) -> np.ndarray:
    """Expected posterior entropy per action; cues with p(c | a) = 0 add nothing.

    A zero p(c | a) is divided as 1.0 (its joint entries are zero) and a zero
    posterior is logged as 1.0, so 0 * log 0 = 0 holds with no 0/0 or log 0,
    and adding 0.0 leaves every positive value as it is.  The one ``0.0 -`` is
    exact and makes a zero total +0.0: a fully revealing action reports 0.0.
    """
    post = joint / (p_obs + (p_obs == 0))[:, None, :]
    plogp = np.log(post + (post == 0))
    plogp *= post
    return 0.0 - np.add.reduce(p_obs * np.add.reduce(plogp, axis=1), axis=1)


def _pragmatic(p_obs: np.ndarray, pref: PreferenceModel) -> np.ndarray:
    """Expected negative log preference of the elicited cue, per action."""
    return -np.add.reduce(p_obs * pref.log_pref, axis=1)


def epistemic_value(belief: Categorical, model, action: str) -> float:
    """Expected posterior entropy over the next state after observing a cue.

    For each cue the action could elicit, form the Bayes posterior over next
    states and weight its entropy by the cue's predicted probability.  Cues
    with zero predicted probability contribute nothing.
    """
    _q_next, joint, p_obs = _rollout(belief, model, (action,))
    return float(_epistemic(joint, p_obs)[0])


def pragmatic_value(belief: Categorical, model, action: str, pref: PreferenceModel) -> float:
    """Expected negative log preference of the cue the action elicits."""
    _q_next, _joint, p_obs = _rollout(belief, model, (action,))
    return float(_pragmatic(p_obs, pref)[0])


def select_action(
    belief: Categorical,
    model,
    actions: LabelSpace | Sequence[str],
    pref: PreferenceModel,
    lambda_e: float = DEFAULT_LAMBDA_E,
    lambda_p: float = DEFAULT_LAMBDA_P,
    repeat_penalty: float = 0.0,
    last_action: str | None = None,
) -> EfeReport:
    """Score every candidate action and pick the one with minimal total.

    ``repeat_penalty`` is added to the total of ``last_action`` so the
    counselor can be discouraged from repeating itself; it defaults to off.
    Ties go to the earliest action in the candidate order.
    """
    if lambda_e < 0 or lambda_p < 0 or (lambda_e == 0 and lambda_p == 0):
        raise InvalidWeightsError(
            f"objective weights must be non-negative and not both zero, "
            f"got lambda_e={lambda_e}, lambda_p={lambda_p}"
        )
    if repeat_penalty < 0:
        raise ValueError("repeat_penalty must be non-negative")
    labels = tuple(actions)
    if not labels:
        raise EmptyActionSetError("no candidate actions to choose from")
    q_next, joint, p_obs = _rollout(belief, model, labels)
    check_rows(belief.space, q_next)
    epistemic = _epistemic(joint, p_obs)
    pragmatic = _pragmatic(p_obs, pref)
    total = lambda_e * epistemic + lambda_p * pragmatic
    for i, a in enumerate(labels):
        if a == last_action:
            total[i] += repeat_penalty
    for arr in (epistemic, pragmatic, total, q_next):
        arr.flags.writeable = False
    best = int(total.argmin())  # the first minimum: ties go to the earliest action
    return EfeReport(belief.space, labels, epistemic, pragmatic, total, q_next, labels[best])


def planner_prior(belief: Categorical, model, chosen: str) -> Categorical:
    """Predictive state distribution under the chosen action.

    This is what the next turn fuses with its observation estimate: the model's
    ``predict``, which adds q(s) * T[s, a, s'] over s in order as ``_predict``'s
    axis-0 reduction does, so it is bit for bit the chosen action's ``q_next``
    row in ``select_action``'s report.  A model with another number of states
    than the belief gives a vector of its length, which ``Categorical`` rejects.
    """
    return Categorical(belief.space, model.predict(belief.values, chosen))
