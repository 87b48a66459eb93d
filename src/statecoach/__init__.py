"""Deterministic active-inference dialogue control for counseling sessions.

The package tracks a belief over a client's readiness-to-change stage,
learns action-conditioned stage dynamics from counts, selects counselor
actions by expected free energy, and evaluates policies against a fully
specified simulated client with trigger-gated readiness dynamics.
"""

from .backends import HttpBackend, ScriptedBackend, make_backend
from .belief import BeliefState, bayes_update, free_energy, fuse, widen_observation
from .client_sim import (
    ClientProfile,
    ClientSession,
    TalkTypeTable,
    act_kl,
    load_pop_prior,
    load_profiles,
)
from .config import RunConfig
from .harness import (
    ActiveCounselor,
    FixedCounselor,
    RandomCounselor,
    Transcript,
    TurnRecord,
    offline_eval,
    run_dialogue,
)
from .memory import MemoryStore
from .metrics import Metrics, dynamic_metrics
from .planner import EfeReport, PreferenceModel, select_action
from .probs import Categorical, LabelSpace
from .vocab import CLIENT_ACTIONS, COUNSELOR_ACTIONS, CUES, STAGES, TALK_TYPES
from .world_model import WorldModel

__version__ = "0.1.0"

__all__ = [
    "ActiveCounselor",
    "BeliefState",
    "CLIENT_ACTIONS",
    "COUNSELOR_ACTIONS",
    "CUES",
    "Categorical",
    "ClientProfile",
    "ClientSession",
    "EfeReport",
    "FixedCounselor",
    "HttpBackend",
    "LabelSpace",
    "MemoryStore",
    "Metrics",
    "PreferenceModel",
    "RandomCounselor",
    "RunConfig",
    "STAGES",
    "ScriptedBackend",
    "TALK_TYPES",
    "TalkTypeTable",
    "Transcript",
    "TurnRecord",
    "WorldModel",
    "act_kl",
    "bayes_update",
    "dynamic_metrics",
    "free_energy",
    "fuse",
    "load_pop_prior",
    "load_profiles",
    "make_backend",
    "offline_eval",
    "run_dialogue",
    "select_action",
    "widen_observation",
]
