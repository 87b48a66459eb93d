"""Labelled categorical distributions and the information-theoretic helpers
built on them.

All distributions are finite, labelled, and stored as numpy vectors in the
order fixed by their LabelSpace.  Logs are natural throughout, and the
0 * log 0 = 0 convention applies to entropy terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllZeroError,
    DimensionMismatchError,
    SupportViolationError,
    UnknownLabelError,
    WeightOutOfRangeError,
)

# Tolerance for "sums to one" checks on constructed distributions.
PROB_TOL = 1e-9


@dataclass(frozen=True)
class LabelSpace:
    """An ordered, immutable set of labels; index order fixes vector order."""

    name: str
    labels: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.labels) == 0:
            raise ValueError(f"label space {self.name!r} must not be empty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"label space {self.name!r} has duplicate labels")
        object.__setattr__(self, "_index", {l: i for i, l in enumerate(self.labels)})

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __iter__(self):
        return iter(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabelError(f"{label!r} not in space {self.name!r}") from None


@dataclass(frozen=True)
class Categorical:
    """A probability distribution over a LabelSpace.

    The probability vector is copied, made read-only, and checked to be
    non-negative and unit-sum within PROB_TOL at construction time.
    """

    space: LabelSpace
    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
        if p.ndim != 1 or p.shape[0] != len(self.space):
            raise DimensionMismatchError(
                f"expected {len(self.space)} probabilities for space "
                f"{self.space.name!r}, got shape {p.shape}"
            )
        if (p < 0).any():
            raise ValueError("probabilities must be non-negative")
        total = p.sum()
        if not abs(total - 1.0) <= PROB_TOL:  # NaN fails too
            raise ValueError(f"probabilities must sum to 1, got {total!r}")
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    def prob(self, label: str) -> float:
        return float(self.probs[self.space.index(label)])

    def argmax_label(self) -> str:
        """Most probable label; ties break toward the smaller index."""
        return self.space.labels[int(np.argmax(self.probs))]

    def as_dict(self) -> dict[str, float]:
        return {l: float(p) for l, p in zip(self.space.labels, self.probs)}


def uniform(space: LabelSpace) -> Categorical:
    n = len(space)
    return Categorical(space, np.full(n, 1.0 / n))


def point_mass(space: LabelSpace, label: str) -> Categorical:
    p = np.zeros(len(space))
    p[space.index(label)] = 1.0
    return Categorical(space, p)


def from_dict(space: LabelSpace, d: dict[str, float]) -> Categorical:
    """Build a distribution from a label->prob mapping (missing labels get 0)."""
    p = np.zeros(len(space))
    for label, value in d.items():
        p[space.index(label)] = value
    return Categorical(space, p)


def normalize(space: LabelSpace, weights) -> Categorical:
    """Normalize non-negative weights into a distribution.

    Raises ValueError for a negative or NaN weight and AllZeroError when every
    weight is zero; Categorical then raises DimensionMismatchError for a vector
    that does not match the space, so a wrong-length all-zero one is AllZeroError.
    """
    w = np.asarray(weights, dtype=float)
    if not (w >= 0).all():  # NaN fails too
        raise ValueError("weights must be non-negative")
    total = w.sum()
    if total <= 0:
        raise AllZeroError(f"cannot normalize all-zero weights over {space.name!r}")
    return Categorical(space, w / total)


def entropy(dist: Categorical) -> float:
    """Shannon entropy in nats, with 0 * log 0 = 0."""
    p = dist.probs
    nz = p > 0
    return float(-np.sum(p[nz] * np.log(p[nz])))


def kl_divergence(q: Categorical, p: Categorical) -> float:
    """KL(q || p) in nats.

    Requires both distributions on the same space, and q absolutely
    continuous with respect to p (q puts no mass where p has none).
    """
    if q.space is not p.space and q.space.labels != p.space.labels:
        raise DimensionMismatchError(
            f"KL between different spaces: {q.space.name!r} vs {p.space.name!r}"
        )
    qp = q.probs
    pp = p.probs
    nz = qp > 0
    bad = nz & (pp <= 0)
    if bad.any():
        labels = [q.space.labels[i] for i in bad.nonzero()[0]]
        raise SupportViolationError(f"q has mass outside p's support at {labels}")
    return float((qp[nz] * (np.log(qp[nz]) - np.log(pp[nz]))).sum())


def mix(a: Categorical, b: Categorical, weight: float) -> Categorical:
    """Convex combination (1 - weight) * a + weight * b.

    weight is the share given to b and must lie in [0, 1].
    """
    if not (0.0 <= weight <= 1.0):
        raise WeightOutOfRangeError(f"mixing weight must be in [0, 1], got {weight}")
    if a.space is not b.space and a.space.labels != b.space.labels:
        raise DimensionMismatchError(
            f"mixing different spaces: {a.space.name!r} vs {b.space.name!r}"
        )
    return Categorical(a.space, (1.0 - weight) * a.probs + weight * b.probs)
