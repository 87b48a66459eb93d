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

Every other read is a row of T or O, a column of O (``observation_likelihood``)
or a belief rolled through one action's slice of T, sum_s q(s) * T[s, a, s']
(``predict``).  ``WorldModel`` derives what it returns from its counts on every
read, so writing the count arrays directly is always safe.  The two reads of
the belief step compute only the cells they use, with ``_smoothed``'s
arithmetic and numpy's summing order, as lists of Python floats: each is bit
for bit what numpy gives on the whole array, and its consumers (``normalize``,
``planner_prior``, ``bayes_update``) read it without a conversion.
``TableModel`` holds fixed, validated T and O arrays instead and answers the
same reads from them, as the same lists.

There is one update rule: each turn deposits counts weighted by the beliefs,
the outer product of the previous and current belief for the transition and
the current belief for the emission, which keeps the model honest about its
own uncertainty.  Hard counts are the same rule fed the argmax stage's point
mass: its row adds exactly 1.0 to one cell and 0.0 to every other.  The
writes add in place to the one slice they change: ``+=`` of the beliefs'
outer product (transition) and of the current belief (emission).  Every
label and belief length is checked before the first write, so a turn that
fails leaves both count arrays as they were.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError, is_finite, is_json, json_record, naming_file
from .probs import Categorical, LabelSpace, _total
from .vocab import COUNSELOR_ACTIONS, CUES, STAGES

DEFAULT_KAPPA = 1.0

# The keys of a world-model file, each with its JSON type.
_FILE_KEYS = {"states": "array", "actions": "array", "cues": "array", "kappa_t": "number",
              "kappa_o": "number", "transition_counts": "array", "observation_counts": "array"}


def check_beliefs(n_states: int, *beliefs: Categorical) -> None:
    """Each belief has one entry for each of a model's ``n_states`` states: a count
    write's ``+=`` would broadcast a one-entry belief over every state."""
    for q in beliefs:
        if len(q.values) != n_states:
            raise DimensionMismatchError(
                f"belief over {len(q.values)} states of {q.space.name!r}, "
                f"but the model has {n_states} states"
            )


def _smoothed(counts: np.ndarray, kappa: float) -> np.ndarray:
    """Symmetric Dirichlet smoothing of count rows along the last axis."""
    n = counts.shape[-1]
    return (counts + kappa / n) / (np.add.reduce(counts, axis=-1, keepdims=True) + kappa)


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
        for name, kappa in (("kappa_t", kappa_t), ("kappa_o", kappa_o)):
            if not (kappa > 0 and is_finite(kappa)):
                raise ValueError(f"smoothing constant {name} must be finite and positive")
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

    def predict(self, q: list[float], action: str) -> list[float]:
        """sum_s q(s) * T[s, action, s'] for every s', as Python floats: the belief
        ``q`` rolled one step.  Each cell is smoothed inline from its count row and
        ``q(s)`` times it added into ``out[s']`` in order of s from 0.0, as numpy's
        axis-0 reduction adds; ``zip`` stops at the shorter of ``q`` and T's states."""
        rows = self.transition_counts[:, self.actions.index(action)].tolist()
        kappa, n = self.kappa_t, len(rows[0])
        k, out = kappa / n, [0.0] * n
        for q_s, row in zip(q, rows):
            total = _total(row) + kappa
            for j in range(n):
                out[j] += q_s * ((row[j] + k) / total)
        return out

    def observation_likelihood(self, cue: str) -> list[float]:
        """p(cue | s) for every state s, one column of O: the evidence vector, as
        Python floats, each cell smoothed inline.  It is defined here, not borrowed,
        because ``bench/tracer.py`` wraps it in this class's dict."""
        c, kappa = self.cues.index(cue), self.kappa_o
        rows = self.observation_counts.tolist()
        k = kappa / len(rows[0])
        return [(row[c] + k) / (_total(row) + kappa) for row in rows]

    def add_observation(self, q: Categorical, cue: str) -> None:
        """Credit the emission table only (used when no prior action exists)."""
        column = self.observation_counts[:, self.cues.index(cue)]
        check_beliefs(len(self.states), q)
        column += q.values

    def update(self, q_prev: Categorical, action: str, q_curr: Categorical, cue: str) -> None:
        """Deposit one turn of counts into both tables: ``q_prev`` is the belief
        before the counselor took ``action``, ``q_curr`` the belief after the
        reply, and ``cue`` the reply's classified observation."""
        block = self.transition_counts[:, self.actions.index(action), :]
        column = self.observation_counts[:, self.cues.index(cue)]
        check_beliefs(len(self.states), q_prev, q_curr)
        block += np.multiply.outer(q_prev.values, q_curr.values)
        column += q_curr.values

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
        json_record(data, "a world model", _FILE_KEYS, _FILE_KEYS.keys())
        for name in ("states", "actions", "cues"):
            if not all(isinstance(label, str) for label in data[name]):
                raise ValueError(f"{name} must be an array of strings")
        model = cls(
            states=LabelSpace("states", tuple(data["states"])),
            actions=LabelSpace("actions", tuple(data["actions"])),
            cues=LabelSpace("cues", tuple(data["cues"])),
            kappa_t=data["kappa_t"],
            kappa_o=data["kappa_o"],
        )
        n_s, n_a, n_c = len(model.states), len(model.actions), len(model.cues)
        shapes = {"transition_counts": (n_s, n_a, n_s), "observation_counts": (n_s, n_c)}
        for name, shape in shapes.items():
            cells = np.array(data[name], dtype=object)  # a ragged nesting leaves lists as cells
            if not all(is_json(c, "number") for c in cells.flat):
                raise ValueError(f"{name} must be an array of numbers")
            if not all(c >= 0 and is_finite(c) for c in cells.flat):
                raise ValueError(f"{name} must be finite and non-negative")
            counts = cells.astype(float)
            if counts.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {counts.shape}")
            setattr(model, name, counts)
        return model

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "WorldModel":
        """The model in a UTF-8 JSON file; each fault in its content names the file."""
        with naming_file(path):
            return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


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
                [Categorical(states, transitions[(s, a)]).values for a in actions.labels]
                for s in states.labels
            ]
        )
        self.O = np.array([Categorical(cues, observations[s]).values for s in states.labels])
        self.T.flags.writeable = False
        self.O.flags.writeable = False

    def transitions(self) -> np.ndarray:
        return self.T

    def observations(self) -> np.ndarray:
        return self.O

    def predict(self, q: list[float], action: str) -> list[float]:
        out = [0.0] * len(self.states)
        for q_s, row in zip(q, self.T[:, self.actions.index(action)].tolist()):
            out = [o + q_s * t for o, t in zip(out, row)]
        return out

    def observation_likelihood(self, cue: str) -> list[float]:
        return self.O[:, self.cues.index(cue)].tolist()

    transition_prob = WorldModel.transition_prob
    observation_prob = WorldModel.observation_prob
