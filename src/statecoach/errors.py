"""Typed errors shared across the package.

Every failure mode callers are expected to handle has its own class;
everything derives from StateCoachError so the CLI can catch broadly.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path


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


# The Python values json.loads gives for each JSON type a record key can require.
_JSON_TYPES = {"string": str, "number": (int, float), "integer": int, "boolean": bool,
               "array": list, "object": dict}


def is_json(value, kind) -> bool:
    """Whether ``value`` has JSON type ``kind`` (None admits any); a bool is a boolean only."""
    return kind is None or (
        isinstance(value, _JSON_TYPES[kind]) and (type(value) is not bool or kind == "boolean"))


def is_finite(number) -> bool:
    """Whether ``number`` is neither NaN nor ±inf and fits in a float; an integer beyond
    ``sys.float_info.max`` has no float, so it is not finite.  The one statement of the bound."""
    return -sys.float_info.max <= number <= sys.float_info.max


def json_record(value, what, required={}, allowed=None) -> dict:
    """``value`` if it is a JSON object whose ``required`` keys hold their JSON types
    (None for any) and, given ``allowed``, no other key; else a ValueError about
    ``what``, a string or a function called only on a fault."""
    if isinstance(value, dict) and (allowed is None or value.keys() <= allowed):
        for key, kind in required.items():  # one walk on the good path: it runs per turn
            if key not in value or not is_json(value[key], kind):
                break
        else:
            return value
    what = what() if callable(what) else what
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    if missing := [k for k in required if k not in value]:
        raise ValueError(f"{what} has no {', '.join(missing)}")
    if allowed is not None and (unknown := sorted(value.keys() - allowed)):
        unknown = [k if k.isprintable() else repr(k) for k in unknown]  # keep the error one line
        raise ValueError(f"{what} has unknown key(s): {', '.join(unknown)}")
    key = next(k for k, kind in required.items() if not is_json(value[k], kind))
    raise ValueError(f"{what} has a non-{required[key]} {key}")


def json_lines(path):
    """``(number, value)`` for each non-blank line of the JSON-lines file ``path``,
    numbered from 1; a line that is not UTF-8 JSON is a ValueError naming it."""
    for number, line in enumerate(Path(path).read_bytes().splitlines(), 1):
        if line.strip():
            try:
                value = json.loads(line.decode("utf-8"))
            except ValueError as exc:  # a UnicodeDecodeError or a JSONDecodeError
                raise ValueError(f"line {number} is not JSON: {getattr(exc, 'msg', exc)}") from exc
            yield number, value


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
