"""Run configuration: every tunable in one place, defaults matching the
shipped calibration, overridable from CLI flags or a JSON config file."""

from __future__ import annotations

import json
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
from .memory import (
    DEFAULT_CONSOLIDATE_EVERY,
    DEFAULT_CONTEXT_N,
    DEFAULT_DIST_THRES,
    DEFAULT_K,
)
from .planner import DEFAULT_LAMBDA_E, DEFAULT_LAMBDA_P
from .vocab import TALK_TYPE_WEIGHTS
from .world_model import DEFAULT_KAPPA


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
    context_n: int = DEFAULT_CONTEXT_N
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
        """Reject out-of-range values before a run writes anything."""
        if self.max_turns < 0:
            raise ValueError(f"max_turns must be non-negative, got {self.max_turns}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if self.k_relevant < 0:
            raise ValueError(f"k_relevant must be non-negative, got {self.k_relevant}")
        if self.context_n < 0:
            raise ValueError(f"context_n must be non-negative, got {self.context_n}")
        if self.consolidate_every <= 0:
            raise ValueError(
                f"consolidate_every must be positive, got {self.consolidate_every}"
            )

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
            "context_n": self.context_n,
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
