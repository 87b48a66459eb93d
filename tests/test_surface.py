"""The size of the public surface, pinned.

``statecoach.__all__`` and ``RunConfig``'s fields are what a user can name
and set.  A change that adds or drops a name or a setting moves these numbers
on purpose, and updates them here with the reason.
"""

from dataclasses import fields

import statecoach
from statecoach.config import RunConfig


def test_public_names():
    assert len(statecoach.__all__) == 37  # 38 with TurnEvidence
    assert len(set(statecoach.__all__)) == len(statecoach.__all__)


def test_run_config_fields():
    assert len(fields(RunConfig)) == 26
