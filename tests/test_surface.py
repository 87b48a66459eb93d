"""The size of the public surface, pinned.

``statecoach.__all__`` and ``RunConfig``'s fields are what a user can name
and set.  A change that adds or drops a name or a setting moves these numbers
on purpose, and updates them here with the reason.
"""

import inspect
from dataclasses import fields
from pathlib import Path

import statecoach
from statecoach.backends import HttpBackend, ScriptedBackend
from statecoach.client_sim import act_kl, select_client_action
from statecoach.config import RunConfig
from statecoach.harness import ActiveCounselor, BeliefTracker
from statecoach.planner import PreferenceModel


def test_public_names():
    # 36 since the backend config class went into RunConfig (37 before; 38 with TurnEvidence).
    assert len(statecoach.__all__) == 36
    assert len(set(statecoach.__all__)) == len(statecoach.__all__)


def test_run_config_fields():
    assert len(fields(RunConfig)) == 26


def test_backend_constructor_parameters():
    """A backend reads its settings from the run's RunConfig; the rest are
    module constants.  A new constructor knob moves this pin on purpose."""
    assert list(inspect.signature(ScriptedBackend).parameters) == []
    params = inspect.signature(HttpBackend).parameters
    assert list(params) == ["cfg", "session"]
    assert params["session"].default is None


def test_generation_parameters():
    """generate_response always renders the counselor_reply template, and
    select_client_action sends its stage as the context ``stage:<name>``;
    neither takes the value as a parameter."""
    for backend in (ScriptedBackend, HttpBackend):
        assert list(inspect.signature(backend.generate_response).parameters) == [
            "self", "action", "belief", "memories", "user_utterance"]
    assert list(inspect.signature(select_client_action).parameters) == [
        "profile", "stage", "pop_row", "backend", "alpha"]


def test_agent_constructor_parameters():
    """The active agent builds its tracker, world model, memory and preference
    from the run's RunConfig; a new constructor knob moves this pin on purpose."""
    assert list(inspect.signature(ActiveCounselor).parameters) == ["backend", "cfg", "session_id"]
    assert list(inspect.signature(BeliefTracker).parameters) == ["cfg"]
    assert list(inspect.signature(BeliefTracker.plan).parameters) == ["self"]
    assert list(inspect.signature(PreferenceModel.default).parameters) == []


def test_act_kl_parameters():
    """act_kl smooths with the module constant ACT_KL_EPS; it takes no eps."""
    assert list(inspect.signature(act_kl).parameters) == ["sim_dist", "gold_dist"]


def test_the_float_bound_is_stated_only_in_errors():
    """``errors.is_finite`` is the one statement of what a finite number is; no
    other file under the package states the float bound a second time."""
    package = Path(statecoach.__file__).parent
    stated = [
        f"{path.relative_to(package)}: {word}"
        for path in sorted(package.rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts and path.name != "errors.py"
        for word in ("float_info", "_FLOAT_MAX", "math.isfinite")
        if word.encode() in path.read_bytes()
    ]
    assert stated == []
