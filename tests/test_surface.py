"""The size of the public surface, pinned.

``statecoach.__all__`` and ``RunConfig``'s fields are what a user can name
and set.  A change that adds or drops a name or a setting moves these numbers
on purpose, and updates them here with the reason.
"""

import inspect
from dataclasses import fields

import statecoach
from statecoach.backends import HttpBackend, ScriptedBackend
from statecoach.client_sim import act_kl
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
