"""Count-based generative model of the dialogue.

The model factorizes as p(o, s | s_prev, a_prev) = p(s | s_prev, a_prev) *
p(o | s): a stage-transition table conditioned on the counselor action, and a
cue-emission table conditioned on the stage.  Both are plain count arrays
turned into probabilities with symmetric Dirichlet smoothing, so a fresh
model predicts uniformly and every observed turn sharpens it.

The model is held as two arrays, and every consumer reads them as such:

* ``transitions()`` is T[s, a, s'] = p(s' | s, a), shape (states, actions,
  states), each T[s, a, :] a distribution;
* ``observations()`` is O[s, c] = p(c | s), shape (states, cues), each
  O[s, :] a distribution.

``WorldModel`` derives both from its counts on every read, so writing the
count arrays directly is always safe.  ``TableModel`` holds fixed, validated
T and O arrays instead.

Updates are soft by default: instead of committing to an argmax stage, each
turn deposits fractional counts weighted by the current belief, which keeps
the model honest about its own uncertainty.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .probs import Categorical, LabelSpace
from .vocab import COUNSELOR_ACTIONS, CUES, STAGES

DEFAULT_KAPPA = 1.0


@dataclass(frozen=True)
class TurnEvidence:
    """One turn's worth of learning signal.

    ``q_prev`` is the belief before the counselor acted, ``action`` the
    counselor action taken, ``q_curr`` the belief after observing the reply,
    and ``cue`` the classified observation for that reply.
    """

    q_prev: Categorical
    action: str
    q_curr: Categorical
    cue: str


def _smoothed(counts: np.ndarray, kappa: float) -> np.ndarray:
    """Symmetric Dirichlet smoothing of count rows along the last axis."""
    n = counts.shape[-1]
    return (counts + kappa / n) / (counts.sum(axis=-1, keepdims=True) + kappa)


class WorldModel:
    """Dirichlet-smoothed transition and observation tables."""

    def __init__(
        self,
        states: LabelSpace = STAGES,
        actions: LabelSpace = COUNSELOR_ACTIONS,
        cues: LabelSpace = CUES,
        kappa_t: float = DEFAULT_KAPPA,
        kappa_o: float = DEFAULT_KAPPA,
    ):
        if kappa_t <= 0 or kappa_o <= 0:
            raise ValueError("smoothing constants must be positive")
        self.states = states
        self.actions = actions
        self.cues = cues
        self.kappa_t = float(kappa_t)
        self.kappa_o = float(kappa_o)
        self.transition_counts = np.zeros((len(states), len(actions), len(states)))
        self.observation_counts = np.zeros((len(states), len(cues)))

    def transitions(self) -> np.ndarray:
        """T[s, a, s'] = p(s' | s, a) from smoothed counts; uniform when unseen."""
        return _smoothed(self.transition_counts, self.kappa_t)

    def observations(self) -> np.ndarray:
        """O[s, c] = p(c | s) from smoothed counts; uniform when unseen."""
        return _smoothed(self.observation_counts, self.kappa_o)

    def transition_prob(self, state: str, action: str) -> Categorical:
        """p(s' | state, action): one row of T."""
        return Categorical(
            self.states,
            self.transitions()[self.states.index(state), self.actions.index(action)],
        )

    def observation_prob(self, state: str) -> Categorical:
        """p(cue | state): one row of O."""
        return Categorical(self.cues, self.observations()[self.states.index(state)])

    def observation_likelihood(self, cue: str) -> np.ndarray:
        """p(cue | s) for every state s, one column of O: the evidence vector."""
        return self.observations()[:, self.cues.index(cue)]

    def add_observation(self, q: Categorical, cue: str, hard: bool = False) -> None:
        """Credit the emission table only (used when no prior action exists)."""
        j = self.cues.index(cue)
        if hard:
            self.observation_counts[self.states.index(q.argmax_label()), j] += 1.0
        else:
            self.observation_counts[:, j] += q.probs

    def update(self, evidence: TurnEvidence, hard: bool = False) -> None:
        """Deposit one turn of counts into both tables.

        Soft updates spread mass across states according to the beliefs;
        hard updates commit a single count at the argmax states.
        """
        a = self.actions.index(evidence.action)
        if hard:
            i = self.states.index(evidence.q_prev.argmax_label())
            k = self.states.index(evidence.q_curr.argmax_label())
            self.transition_counts[i, a, k] += 1.0
        else:
            self.transition_counts[:, a, :] += np.outer(
                evidence.q_prev.probs, evidence.q_curr.probs
            )
        self.add_observation(evidence.q_curr, evidence.cue, hard=hard)

    def to_dict(self) -> dict:
        return {
            "states": list(self.states.labels),
            "actions": list(self.actions.labels),
            "cues": list(self.cues.labels),
            "kappa_t": self.kappa_t,
            "kappa_o": self.kappa_o,
            "transition_counts": self.transition_counts.tolist(),
            "observation_counts": self.observation_counts.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorldModel":
        model = cls(
            states=LabelSpace("states", tuple(data["states"])),
            actions=LabelSpace("actions", tuple(data["actions"])),
            cues=LabelSpace("cues", tuple(data["cues"])),
            kappa_t=data["kappa_t"],
            kappa_o=data["kappa_o"],
        )
        model.transition_counts = np.asarray(data["transition_counts"], dtype=float)
        model.observation_counts = np.asarray(data["observation_counts"], dtype=float)
        return model

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "WorldModel":
        return cls.from_dict(json.loads(Path(path).read_text()))


class TableModel:
    """A fixed-probability stand-in for WorldModel, for tests and demos.

    Reads from explicit probability tables, which makes it possible to build
    scenarios with exact zeros that smoothed counts can never produce.  Every
    row is validated as a distribution and stacked into read-only ``T`` and
    ``O`` arrays; a missing (state, action) or state row raises KeyError here.
    """

    def __init__(
        self,
        states: LabelSpace,
        actions: LabelSpace,
        cues: LabelSpace,
        transitions: dict[tuple[str, str], np.ndarray],
        observations: dict[str, np.ndarray],
    ):
        self.states = states
        self.actions = actions
        self.cues = cues
        self.T = np.array(
            [
                [Categorical(states, transitions[(s, a)]).probs for a in actions.labels]
                for s in states.labels
            ]
        )
        self.O = np.array([Categorical(cues, observations[s]).probs for s in states.labels])
        self.T.flags.writeable = False
        self.O.flags.writeable = False

    def transitions(self) -> np.ndarray:
        return self.T

    def observations(self) -> np.ndarray:
        return self.O

    transition_prob = WorldModel.transition_prob
    observation_prob = WorldModel.observation_prob
    observation_likelihood = WorldModel.observation_likelihood
