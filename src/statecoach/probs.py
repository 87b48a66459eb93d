"""Labelled categorical distributions and the information-theoretic helpers
built on them.

All distributions are finite, labelled, and stored as numpy vectors in the
order fixed by their LabelSpace.  Logs are natural throughout, and the
0 * log 0 = 0 convention applies to entropy terms.

A distribution that depends only on its space is built and checked once and
then shared: ``uniform(space)`` returns the same read-only instance for the
life of ``space``.

The vectors are short (3 to 17 entries in the bundled vocabularies), and a
numpy call costs more than the arithmetic on a vector that short.  So
``Categorical`` and ``normalize`` check their vector on the Python floats of
one ``tolist()``: a plain loop tests each entry's sign, and a vector of fewer
than 8 entries is added up in order, as numpy adds it; a longer one, which
numpy adds pairwise, is summed by ``np.add.reduce``.  Every value, error type
and message is the one the numpy reductions give.
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

# numpy sums a float64 vector in order from 0.0 below this length and pairwise
# from it on, so only below it does an in-order Python total equal numpy's.
_PAIRWISE_FROM = 8


def _checked_total(p: np.ndarray, what: str, nan_passes: bool) -> float:
    """The total of the 1-d float vector ``p``, checked on its Python floats.

    An entry below zero raises ValueError("<what> must be non-negative"), and so
    does a NaN unless ``nan_passes``.  The total is ``np.add.reduce(p)``'s bit for
    bit; it is added here by hand, not by ``sum``, which compensates its rounding
    from Python 3.12 on.
    """
    values = p.tolist()
    for v in values:
        if (v < 0) if nan_passes else (not v >= 0):
            raise ValueError(f"{what} must be non-negative")
    if len(values) >= _PAIRWISE_FROM:
        return float(np.add.reduce(p))
    total = 0.0
    for v in values:
        total += v
    return total


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
        total = _checked_total(p, "probabilities", nan_passes=True)
        if not abs(total - 1.0) <= PROB_TOL:  # NaN fails too
            raise ValueError(f"probabilities must sum to 1, got {np.float64(total)!r}")
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    def prob(self, label: str) -> float:
        return float(self.probs[self.space.index(label)])

    def argmax_label(self) -> str:
        """Most probable label; ties break toward the smaller index."""
        return self.space.labels[int(self.probs.argmax())]

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.space.labels, self.probs.tolist()))


def check_rows(space: LabelSpace, rows: np.ndarray) -> None:
    """Categorical's check on every row of a (k, len(space)) array, in one pass."""
    if rows.shape[1:] != (len(space),):
        raise DimensionMismatchError(
            f"expected rows of {len(space)} probabilities for {space.name!r}, got {rows.shape}"
        )
    negative = np.logical_or.reduce(rows < 0, axis=1)
    totals = np.add.reduce(rows, axis=1)
    bad = negative | ~(np.abs(totals - 1.0) <= PROB_TOL)  # NaN fails too
    if np.logical_or.reduce(bad):
        i = int(bad.argmax())  # the first bad row fails as its own Categorical would
        if negative[i]:
            raise ValueError("probabilities must be non-negative")
        raise ValueError(f"probabilities must sum to 1, got {totals[i]!r}")


def uniform(space: LabelSpace) -> Categorical:
    """The uniform distribution over ``space``, built on first use and then shared."""
    u = getattr(space, "_uniform", None)
    if u is None:
        n = len(space)
        u = Categorical(space, np.full(n, 1.0 / n))
        object.__setattr__(space, "_uniform", u)  # not a field: equality and repr ignore it
    return u


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
    total = _checked_total(w.ravel(), "weights", nan_passes=False)
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
    if np.logical_or.reduce(bad):
        labels = [q.space.labels[i] for i in bad.nonzero()[0]]
        raise SupportViolationError(f"q has mass outside p's support at {labels}")
    return float(np.add.reduce(qp[nz] * (np.log(qp[nz]) - np.log(pp[nz]))))


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
