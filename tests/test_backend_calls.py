"""Backend calls per turn, counted the way the benchmark counts them.

``bench/workloads.bundled_reference`` runs the active counselor on the five
bundled profiles through one counting proxy.  Every text-only query goes
through the per-backend memo, so no text is embedded twice, and each client
asks ``choose_client_action`` once per stage it enters, so the total is pinned;
a change that brings back a memo per store or session, or a client action
asked on every turn, fails here.
"""

from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_bundled_reference_asks_once_per_text(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import workloads

    proxy = workloads.bundled_reference(workloads.load_fixtures("active_short"))
    turns = workloads.run_config("active_short").max_turns * 5
    assert turns == 100
    assert proxy.embed_repeats == 0
    assert proxy.errors == []
    # 429 when every reply asked for the client action anew, and 542 when, on top
    # of that, each store and session kept its own embed memo.
    assert proxy.total_calls == 343
