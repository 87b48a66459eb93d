"""Session-level evaluation metrics."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import EmptyInputError
from .vocab import stage_ordinal


@dataclass
class Metrics:
    lift: float
    prep_rate: float
    trig_cov: float
    avg_turns: float
    curr_acc: float | None = None
    next_acc: float | None = None

    def as_dict(self) -> dict:
        return asdict(self)


def dynamic_metrics(transcripts) -> Metrics:
    """Progress metrics over a batch of simulated sessions.

    lift averages the ordinal stage improvement (precontemplation 0,
    contemplation 1, preparation 2); prep_rate is the fraction of sessions
    ending in preparation; trig_cov averages the fraction of profile triggers
    the counselor discovered; avg_turns averages session length.
    """
    transcripts = list(transcripts)
    if not transcripts:
        raise EmptyInputError("no transcripts to score")
    n = len(transcripts)
    lift = (
        sum(
            stage_ordinal(t.final_stage) - stage_ordinal(t.initial_stage)
            for t in transcripts
        )
        / n
    )
    prep_rate = sum(t.final_stage == "preparation" for t in transcripts) / n
    trig_cov = (
        sum(
            (len(t.discovered_ids) / t.n_triggers) if t.n_triggers else 0.0
            for t in transcripts
        )
        / n
    )
    avg_turns = sum(len(t.records) for t in transcripts) / n
    return Metrics(lift=lift, prep_rate=prep_rate, trig_cov=trig_cov, avg_turns=avg_turns)
