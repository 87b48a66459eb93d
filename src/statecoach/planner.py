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
next turn's belief is fused with (``planner_prior``); one rollout serves both.

All candidate actions are scored in one pass over the model's arrays
T[s, a, s'] and O[s', c] (see ``world_model``).  For k candidates, S states
and C cues the rollout holds q'[a, s'] (k, S), the joint q'[a, s'] * O[s', c]
(k, S, C) and p(c | a) (k, C); posteriors over s' are the joint divided by
p(c | a).  Every reduction runs over states or cues, never over actions, so
each action's values are bit-identical to scoring it alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyActionSetError, InvalidWeightsError
from .probs import Categorical, LabelSpace, normalize
from .vocab import CUES

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
    """Preference over observed cues, stored both normalized and in log form.

    Only differences of log preferences matter to the argmin, but the
    normalized companion fixes an absolute scale for reported values.
    """

    dist: Categorical
    log_pref: np.ndarray

    @classmethod
    def from_weights(cls, space: LabelSpace, weights: dict[str, float]) -> "PreferenceModel":
        w = np.array([weights[c] for c in space.labels], dtype=float)
        if not (w > 0).all():  # NaN fails too
            raise ValueError("preference weights must be strictly positive")
        dist = normalize(space, w)
        log_pref = np.log(dist.probs)
        log_pref.flags.writeable = False
        return cls(dist, log_pref)

    @classmethod
    def default(cls, cues: LabelSpace = CUES) -> "PreferenceModel":
        weights = {c: TALK_TYPE_PREFERENCE[CUE_TALK_TYPE[c]] for c in cues.labels}
        return cls.from_weights(cues, weights)


@dataclass(frozen=True)
class ActionScore:
    action: str
    epistemic: float
    pragmatic: float
    total: float
    q_next_prior: Categorical

    def as_dict(self) -> dict:
        return {
            "action": self.action,
            "epistemic": self.epistemic,
            "pragmatic": self.pragmatic,
            "total": self.total,
            "q_next_prior": self.q_next_prior.as_dict(),
        }


@dataclass(frozen=True)
class EfeReport:
    """All per-action scores from one planning step plus the chosen action."""

    scores: tuple[ActionScore, ...]
    chosen: str

    def score_for(self, action: str) -> ActionScore:
        for s in self.scores:
            if s.action == action:
                return s
        raise KeyError(action)

    def as_dict(self) -> dict:
        return {"chosen": self.chosen, "scores": [s.as_dict() for s in self.scores]}


def _predict(belief: Categorical, model, actions: Sequence[str]) -> np.ndarray:
    """q'[a, s'] = sum_s q(s) * T[s, a, s'] for each action: the one rollout step."""
    idx = [model.actions.index(a) for a in actions]
    return (belief.probs[:, None, None] * model.transitions().take(idx, axis=1)).sum(axis=0)


def _rollout(
    belief: Categorical, model, actions: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """q'[a, s'], the joint q'[a, s'] * O[s', c], and p(c | a) for each action."""
    q_next = _predict(belief, model, actions)
    joint = q_next[:, :, None] * model.observations()
    return q_next, joint, joint.sum(axis=1)


def _epistemic(joint: np.ndarray, p_obs: np.ndarray) -> np.ndarray:
    """Expected posterior entropy per action; cues with p(c | a) = 0 add nothing."""
    seen = (p_obs > 0)[:, None, :]
    post = np.divide(joint, p_obs[:, None, :], out=np.zeros_like(joint), where=seen)
    log_post = np.log(post, out=np.zeros_like(post), where=post > 0)
    h = -(post * log_post).sum(axis=1)
    # +0.0 so that a fully revealing action (every posterior certain) reports 0.0, not -0.0.
    return 0.0 + (p_obs * h).sum(axis=1)


def _pragmatic(p_obs: np.ndarray, pref: PreferenceModel) -> np.ndarray:
    """Expected negative log preference of the elicited cue, per action."""
    return -(p_obs * pref.log_pref).sum(axis=1)


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
    labels = tuple(actions.labels if isinstance(actions, LabelSpace) else actions)
    if not labels:
        raise EmptyActionSetError("no candidate actions to choose from")
    q_next, joint, p_obs = _rollout(belief, model, labels)
    epistemic = _epistemic(joint, p_obs)
    pragmatic = _pragmatic(p_obs, pref)
    scores = []
    for i, a in enumerate(labels):
        epi, prag = float(epistemic[i]), float(pragmatic[i])
        total = lambda_e * epi + lambda_p * prag
        if last_action is not None and a == last_action:
            total += repeat_penalty
        scores.append(ActionScore(a, epi, prag, total, Categorical(belief.space, q_next[i])))
    best = min(range(len(scores)), key=lambda i: (scores[i].total, i))
    return EfeReport(tuple(scores), scores[best].action)


def planner_prior(belief: Categorical, model, chosen: str) -> Categorical:
    """Predictive state distribution under the chosen action.

    This is what the next turn fuses with its observation estimate.
    """
    return Categorical(belief.space, _predict(belief, model, (chosen,))[0])
