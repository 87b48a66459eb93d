"""Fixed vocabularies for the counseling domain.

Ordering matters everywhere: probability vectors, count tables, and
tie-breaking all follow the tuple order defined here.
"""

from __future__ import annotations

from .probs import LabelSpace

# Stages of change, ordered from least to most ready.
STAGES = LabelSpace(
    "stages",
    ("precontemplation", "contemplation", "preparation"),
)

# Counselor behaviors, MI-consistent first, then neutral, then MI-inconsistent.
COUNSELOR_ACTIONS = LabelSpace(
    "counselor_actions",
    (
        "Open Question",
        "Closed Question",
        "Simple Reflection",
        "Complex Reflection",
        "Affirm",
        "Reframe",
        "Support",
        "Emphasize Control",
        "Advise with Permission",
        "Facilitate",
        "Give Information",
        "Structure",
        "Raise Concern",
        "Confront",
        "Direct",
        "Warn",
        "Advise without Permission",
    ),
)

# Client behaviors emitted by the simulated client.
CLIENT_ACTIONS = LabelSpace(
    "client_actions",
    (
        "Inform",
        "Engage",
        "Downplay",
        "Blame",
        "Deny",
        "Acknowledge",
        "Hesitate",
        "Doubt",
        "Plan",
        "Accept",
        "Reject",
    ),
)

# Observable cues: one per stage plus four conversational surface signals.
CUES = LabelSpace(
    "cues",
    (
        "precontemplation",
        "contemplation",
        "preparation",
        "short_ack",
        "deflection",
        "hedging",
        "plan_statement",
    ),
)

# Coarse talk-type labels for client utterances.
TALK_TYPES = LabelSpace("talk_types", ("neutral", "change", "sustain"))

# Readiness weight of each talk type: change talk pushes up, sustain talk
# pushes down, neutral drifts gently upward.
TALK_TYPE_WEIGHTS = {"change": 1.0, "neutral": 0.3, "sustain": -1.0}
