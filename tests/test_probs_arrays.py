"""``Categorical.probs`` arrays built per run, counted without a clock.

A ``Categorical`` keeps its entries as Python floats and builds its ndarray
``probs`` only when a numpy consumer first asks for it.  The offline belief
step (``offline_eval``) reads only the floats, so it builds no array at all;
the bundled active reference builds one per planned turn for
``select_action`` plus a fixed few for the client tables.  A change that
makes the array eager again, or moves a float path back onto ``probs``,
fails here deterministically.
"""

from pathlib import Path

import pytest

from statecoach.backends import ScriptedBackend
from statecoach.harness import load_annotated_sessions, offline_eval
from statecoach.probs import Categorical, LabelSpace

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def arrays_built(fn, *args, **kwargs):
    """The number of ``probs`` arrays ``fn(*args, **kwargs)`` builds, and its result."""
    built = 0
    build = Categorical.probs.func

    def counting(self):
        nonlocal built
        built += 1
        return build(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Categorical.probs, "func", counting)
        result = fn(*args, **kwargs)
    return built, result


def test_probs_is_built_once_on_first_access():
    c = Categorical(LabelSpace("s", ("a", "b")), [0.25, 0.75])
    built, p = arrays_built(lambda: (c.probs, c.probs)[0])
    assert built == 1 and c.probs is p
    assert p.dtype == float and not p.flags.writeable and p.tolist() == [0.25, 0.75]
    assert arrays_built(lambda: c.probs)[0] == 0


def test_offline_eval_builds_no_probs_array():
    sessions, backend = load_annotated_sessions(), ScriptedBackend()
    built, result = arrays_built(offline_eval, sessions, backend=backend)
    assert result["eval_turns"] > 0
    assert built == 0


def test_bundled_reference_builds_probs_only_for_numpy_consumers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import workloads

    fixtures = workloads.load_fixtures("active_short")
    built, proxy = arrays_built(workloads.bundled_reference, fixtures)
    assert proxy.errors == []
    # 100 select_action beliefs, 3 client action distributions and 3 talk-type
    # marginals (111 while each counselor built its own preference model);
    # 510, one per Categorical, if every construction built its array again
    assert built == 106
