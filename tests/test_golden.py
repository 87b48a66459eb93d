"""Golden transcripts: the active counselor's behaviour, pinned byte for byte.

``tests/golden/<config>/<profile_id>.jsonl`` holds ``Transcript.to_jsonl()``
for the active counselor against each bundled profile, under four
configurations: the defaults, ``disable_planner``, ``efe_action=False`` and
``hard_counts``.  They are built exactly as acceptance criterion 7 builds its
ablation runs (one shared scripted backend, one ``ClientSession`` per
profile seeded from the config).  ``tests/golden/offline_eval.json`` holds
the ``offline_eval`` result on the bundled annotated sessions, rendered by
``_render_offline``.

Provenance: the files were written by calling ``build_goldens()`` below
and saving each value under its key with ``Path.write_text``, on the code
as it stood before the planner was rewritten into array form; they were
not regenerated after that rewrite.  There is deliberately no switch to
rewrite them.  Only a change whose stated purpose is a behaviour change may
regenerate them, and it must say which records moved and why.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from statecoach.backends import DATA_DIR, ScriptedBackend
from statecoach.client_sim import ClientSession, TalkTypeTable, load_pop_prior, load_profiles
from statecoach.config import RunConfig
from statecoach.harness import (
    ActiveCounselor,
    Transcript,
    load_annotated_sessions,
    offline_eval,
    run_dialogue,
)
from statecoach.metrics import dynamic_metrics

GOLDEN_DIR = Path(__file__).parent / "golden"

CONFIGS = {
    "default": {},
    "disable_planner": {"disable_planner": True},
    "no_efe_action": {"efe_action": False},
    "hard_counts": {"hard_counts": True},
}


def _render_offline(result: dict) -> str:
    return json.dumps(result, indent=2, sort_keys=True) + "\n"


def build_config_transcripts(name: str) -> dict[str, str]:
    """``{relative path: to_jsonl()}`` for one configuration, all profiles."""
    backend = ScriptedBackend()
    table = TalkTypeTable.from_file(DATA_DIR / "talk_type_table.json")
    pop = load_pop_prior(DATA_DIR / "pop_prior.json")
    cfg = RunConfig(**CONFIGS[name])
    out = {}
    for profile in load_profiles(DATA_DIR / "profiles"):
        counselor = ActiveCounselor(backend, cfg, session_id=profile.id)
        client = ClientSession(
            profile, table, backend, pop,
            tau=cfg.tau, theta_cov=cfg.theta_cov, theta_prep=cfg.theta_prep,
            alpha=cfg.alpha_dirichlet, seed=cfg.seed,
        )
        out[f"{name}/{profile.id}.jsonl"] = run_dialogue(counselor, client, cfg).to_jsonl()
    return out


def build_offline() -> dict[str, str]:
    backend = ScriptedBackend()
    result = offline_eval(load_annotated_sessions(), RunConfig(), backend)
    return {"offline_eval.json": _render_offline(result)}


def build_goldens() -> dict[str, str]:
    out = {}
    for name in CONFIGS:
        out.update(build_config_transcripts(name))
    out.update(build_offline())
    return out


def _assert_matches_golden(rel: str, got: str) -> None:
    want = (GOLDEN_DIR / rel).read_bytes()
    if got.encode("utf-8") == want:
        return
    want_lines = want.decode("utf-8").splitlines()
    got_lines = got.splitlines()
    for i, (w, g) in enumerate(zip(want_lines, got_lines)):
        if w != g:
            pytest.fail(
                f"{rel}: first difference at line {i} (0 is the header)\n"
                f"golden: {w}\nactual: {g}"
            )
    pytest.fail(
        f"{rel}: golden has {len(want_lines)} lines, actual has {len(got_lines)}"
    )


@pytest.mark.parametrize("name", list(CONFIGS))
def test_active_transcripts_match_golden(name):
    built = build_config_transcripts(name)
    on_disk = {
        f"{name}/{p.name}" for p in (GOLDEN_DIR / name).glob("*.jsonl")
    }
    assert set(built) == on_disk
    for rel, text in built.items():
        _assert_matches_golden(rel, text)


def test_offline_eval_matches_golden():
    for rel, text in build_offline().items():
        _assert_matches_golden(rel, text)


def test_default_transcripts_do_not_depend_on_the_interpreters_sum(monkeypatch, tmp_path):
    """Builtin ``sum`` compensates its rounding from Python 3.12 on, so a float
    total taken by it would move with the interpreter.  With a correctly
    rounded ``sum`` in every statecoach module the ``default`` goldens are
    rebuilt byte for byte and score the same metrics as unpatched."""
    want = dynamic_metrics(
        Transcript.from_jsonl(p) for p in sorted((GOLDEN_DIR / "default").glob("*.jsonl"))
    )
    for name, module in list(sys.modules.items()):
        if name == "statecoach" or name.startswith("statecoach."):
            monkeypatch.setattr(module, "sum", lambda it, start=0: math.fsum(it) + start,
                                raising=False)
    built = build_config_transcripts("default")
    for rel, text in built.items():
        _assert_matches_golden(rel, text)
        (tmp_path / Path(rel).name).write_text(text, encoding="utf-8")
    got = dynamic_metrics(Transcript.from_jsonl(p) for p in sorted(tmp_path.glob("*.jsonl")))
    assert got == want
