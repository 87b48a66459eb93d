"""Run configuration: every tunable in one place, defaults matching the
shipped calibration, overridable from CLI flags or a JSON config file."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .belief import ALPHA_WIDTHS, DEFAULT_BETA, HEDGE_TERMS
from .client_sim import (
    DEFAULT_ALPHA_DIRICHLET,
    DEFAULT_TAU,
    DEFAULT_THETA_COV,
    DEFAULT_THETA_PREP,
    TRIGGER_RULES,
)
from .memory import DEFAULT_CONSOLIDATE_EVERY, DEFAULT_DIST_THRES, DEFAULT_K
from .planner import DEFAULT_LAMBDA_E, DEFAULT_LAMBDA_P
from .vocab import TALK_TYPE_WEIGHTS
from .world_model import DEFAULT_KAPPA

# The value types each field annotation admits; a bool is not a number here.
_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}

# The published memory recency-window size.  Retrieval keeps no recency
# window, so nothing reads it; the constants dump still reports it.
PUBLISHED_CONTEXT_N = 30


@dataclass
class RunConfig:
    max_turns: int = 20
    seed: int = 42
    lambda_e: float = DEFAULT_LAMBDA_E
    lambda_p: float = DEFAULT_LAMBDA_P
    beta: float = DEFAULT_BETA
    tau: float = DEFAULT_TAU
    theta_cov: float = DEFAULT_THETA_COV
    theta_prep: float = DEFAULT_THETA_PREP
    alpha_dirichlet: float = DEFAULT_ALPHA_DIRICHLET
    dist_thres: float = DEFAULT_DIST_THRES
    k_relevant: int = DEFAULT_K
    consolidate_every: int = DEFAULT_CONSOLIDATE_EVERY
    warmup_ratio: float = 0.5
    min_eval_turns: int = 3
    max_output_tokens: int = 1024
    kappa_t: float = DEFAULT_KAPPA
    kappa_o: float = DEFAULT_KAPPA
    obs_seed_count: float = 1.0
    disable_planner: bool = False
    hard_counts: bool = False
    efe_action: bool = True
    repeat_penalty: float = 0.0
    early_stop: bool = True
    backend_kind: str = "scripted"
    endpoint: str | None = None
    model_name: str | None = None

    def __post_init__(self):
        """Reject mistyped and out-of-range values before a run writes anything."""
        for f in fields(self):
            value = getattr(self, f.name)
            kind, _, rest = f.type.partition(" | ")
            if value is None and rest == "None":
                continue
            # bool subclasses int, so a bool is taken by a bool field only.
            if isinstance(value, bool) != (kind == "bool") or not isinstance(value, _TYPES[kind]):
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
        # Written so that NaN fails every range check.
        for name in ("max_turns", "k_relevant", "lambda_e", "lambda_p", "repeat_penalty",
                     "dist_thres", "obs_seed_count"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.lambda_e == 0 and self.lambda_p == 0:
            raise ValueError("lambda_e and lambda_p must not both be zero")
        for name, lo in (("beta", 0.0), ("warmup_ratio", 0.0), ("theta_cov", 0.0), ("tau", -1.0)):
            if not lo <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [{lo:g}, 1], got {getattr(self, name)}")
        for name in ("consolidate_every", "alpha_dirichlet", "kappa_t", "kappa_o"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not math.isfinite(self.theta_prep):
            raise ValueError(f"theta_prep must be finite, got {self.theta_prep}")

    @classmethod
    def from_file(cls, path: str | Path, **overrides) -> "RunConfig":
        """JSON config merged under explicit overrides (flags win).

        A key that names no field (a typo such as ``lamda_e``) is a
        ValueError, so it cannot silently leave its default in force.
        """
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config key(s) in {path}: {', '.join(unknown)}")
        data.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**data)

    def dump_constants(self) -> dict:
        """Every published constant this build wires in as a default.

        The golden test and the selftest subcommand both render this dict, so
        a drifted default fails loudly.
        """
        return {
            "tau": self.tau,
            "theta_cov": self.theta_cov,
            "theta_prep_default": self.theta_prep,
            "talk_type_weights": dict(TALK_TYPE_WEIGHTS),
            "alpha_dirichlet": self.alpha_dirichlet,
            "lambda_e": self.lambda_e,
            "lambda_p": self.lambda_p,
            "beta": self.beta,
            "alpha_widths": list(ALPHA_WIDTHS),
            "trigger_bonuses": {cat: b for cat, (_m, b) in TRIGGER_RULES.items()},
            "dist_thres": self.dist_thres,
            "k_relevant": self.k_relevant,
            "context_n": PUBLISHED_CONTEXT_N,
            "consolidate_every": self.consolidate_every,
            "warmup_ratio": self.warmup_ratio,
            "min_eval_turns": self.min_eval_turns,
            "max_turns": self.max_turns,
            "seed": self.seed,
            "max_output_tokens": self.max_output_tokens,
            "hedge_terms": list(HEDGE_TERMS),
            "kappa_t": self.kappa_t,
            "kappa_o": self.kappa_o,
        }
