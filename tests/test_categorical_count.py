"""Distributions built per turn, counted without a clock.

``select_action`` keeps the planner's scores as arrays and checks all next-
state rows in one pass, so the bundled reference builds a fixed number of
``Categorical``s; a change that brings back one object per candidate action
fails here deterministically.
"""

from pathlib import Path

from statecoach.probs import Categorical

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_bundled_reference_builds_no_categorical_per_action(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import workloads

    fixtures = workloads.load_fixtures("active_short")
    built = 0
    check = Categorical.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        check(self)

    monkeypatch.setattr(Categorical, "__post_init__", counting)
    proxy = workloads.bundled_reference(fixtures)
    assert proxy.errors == []
    assert workloads.run_config("active_short").max_turns * 5 == 100
    assert built == 701  # 2401 with a Categorical per scored action
