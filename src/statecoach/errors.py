"""Typed errors shared across the package.

Every failure mode callers are expected to handle has its own class;
everything derives from StateCoachError so the CLI can catch broadly.
"""

from __future__ import annotations

from contextlib import contextmanager


class StateCoachError(Exception):
    pass


class AllZeroError(StateCoachError):
    """Normalization asked for on a vector with no mass."""


class DimensionMismatchError(StateCoachError):
    """Vector length does not match the label space."""


class SupportViolationError(StateCoachError):
    """q places probability mass where the reference distribution has none."""


class WeightOutOfRangeError(StateCoachError):
    """Mixing weight outside [0, 1]."""


class UnknownLabelError(StateCoachError):
    """Label not present in the relevant space."""


class UnknownActionError(UnknownLabelError):
    """Action label not present in the action vocabulary."""


class ZeroEvidenceError(StateCoachError):
    """Prior and likelihood have disjoint support; posterior undefined."""


class EmptyActionSetError(StateCoachError):
    """Action selection over an empty candidate set."""


class InvalidWeightsError(StateCoachError):
    """Objective weights negative or all zero."""


class EmptyTextError(StateCoachError):
    """Text operation called with an empty string."""


class BackendUnavailableError(StateCoachError):
    """Text backend transport failure after the configured retries."""

    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts


class TemplateMissingError(StateCoachError):
    """Prompt template id not registered with the backend."""


class EmptyTriggerSetError(StateCoachError):
    """Coverage-based stage transition undefined without triggers."""


class EmptyInputError(StateCoachError):
    """Metric computation over an empty collection."""


class NoGoldLabelsError(StateCoachError):
    """Offline evaluation requires per-turn gold labels."""


@contextmanager
def naming_file(path):
    """Append `` (in <path>)`` to a ValueError or StateCoachError raised inside.

    A StateCoachError keeps its class.  Any other ValueError, such as a JSON
    decode error, becomes a plain ValueError: its class may not take a message.
    """
    try:
        yield
    except StateCoachError as exc:
        raise type(exc)(f"{exc} (in {path})") from exc
    except ValueError as exc:
        raise ValueError(f"{exc} (in {path})") from exc
