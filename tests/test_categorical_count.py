"""Distributions built per turn, counted without a clock.

``select_action`` keeps the planner's scores as arrays and checks all next-
state rows in one pass, and ``uniform`` builds each space's distribution once
(``harness.UNIFORM_STAGE_PRIOR`` builds the stages' one at import), and each
simulated client builds its action distribution once per stage, so the
bundled reference and the bundled annotated sessions build a fixed number of
``Categorical``s in any test order; a change that brings back one object per
candidate action, a uniform per turn, or a client distribution per reply
fails here deterministically.
"""

from pathlib import Path

import pytest

from statecoach.backends import ScriptedBackend
from statecoach.harness import load_annotated_sessions, offline_eval
from statecoach.probs import Categorical

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def count_built(fn, *args, **kwargs):
    """The number of ``Categorical``s ``fn(*args, **kwargs)`` builds, and its result."""
    built = 0
    check = Categorical.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        check(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Categorical, "__post_init__", counting)
        result = fn(*args, **kwargs)
    return built, result


def test_bundled_reference_builds_no_categorical_per_action(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import workloads

    fixtures = workloads.load_fixtures("active_short")
    built, proxy = count_built(workloads.bundled_reference, fixtures)
    assert proxy.errors == []
    assert workloads.run_config("active_short").max_turns * 5 == 100
    # 515 with a preference model built per counselor, not once at import;
    # 601 with the client's action distribution built per reply, not per stage;
    # 615 with a uniform built per turn; 2315 with a Categorical per scored action
    assert built == 510


def test_offline_eval_builds_no_uniform_per_turn():
    sessions, backend = load_annotated_sessions(), ScriptedBackend()
    built, _result = count_built(offline_eval, sessions, backend=backend)
    assert built == 54  # 68 with a uniform built per scored-session turn
