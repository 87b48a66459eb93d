import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statecoach.backends import ScriptedBackend
from statecoach.errors import EmptyTextError
from statecoach.memory import (
    DEFAULT_CONSOLIDATE_EVERY,
    DEFAULT_DIST_THRES,
    DEFAULT_K,
    LTM,
    STM,
    MemoryStore,
)


class VectorBackend:
    """Maps known texts to fixed unit vectors so distances are exact."""

    def __init__(self, table):
        self.table = table
        self.summaries = []

    def embed(self, text):
        return np.asarray(self.table.get(text, [0.0, 0.0, 1.0]), dtype=float)

    def summarize(self, texts):
        self.summaries.append(list(texts))
        return "summary: " + " / ".join(texts)


E1 = [1.0, 0.0, 0.0]
E2 = [0.0, 1.0, 0.0]
NEG1 = [-1.0, 0.0, 0.0]


def test_defaults():
    assert (DEFAULT_K, DEFAULT_DIST_THRES) == (1, 1.5)
    assert DEFAULT_CONSOLIDATE_EVERY == 12


def test_add_then_self_retrieve_distance_zero():
    store = MemoryStore(VectorBackend({"hello": E1}))
    store.add(STM, "hello", 1, "s")
    out = store.retrieve("hello", session="s")
    assert [e.text for e in out["relevant"]] == ["hello"]


def test_distinct_texts_get_distinct_ids():
    store = MemoryStore(VectorBackend({"one": E1, "two": E2}))
    id1 = store.add(STM, "one", 1, "s")
    id2 = store.add(STM, "two", 1, "s")
    assert id1 != id2


def test_add_empty_text_raises():
    store = MemoryStore(VectorBackend({}))
    with pytest.raises(EmptyTextError):
        store.add(STM, "   ", 1, "s")


def test_add_unknown_tier_raises():
    store = MemoryStore(VectorBackend({"x": E1}))
    with pytest.raises(ValueError):
        store.add("MTM", "x", 1, "s")


def test_empty_store_retrieval():
    out = MemoryStore(VectorBackend({"q": E1})).retrieve("q")
    assert out == {"relevant": []}


def test_orthogonal_within_threshold_antipodal_outside():
    store = MemoryStore(VectorBackend({"ortho": E2, "anti": NEG1, "q": E1}))
    store.add(STM, "ortho", 1, "s")
    store.add(STM, "anti", 2, "s")
    out = store.retrieve("q", k=2, session="s")
    assert [e.text for e in out["relevant"]] == ["ortho"]
    assert math.isclose(
        float(np.linalg.norm(np.array(E2) - np.array(E1))), math.sqrt(2)
    )
    assert float(np.linalg.norm(np.array(NEG1) - np.array(E1))) == 2.0


def test_relevant_sorted_by_distance_then_age():
    table = {"a": E1, "b": E1, "q": E1}
    store = MemoryStore(VectorBackend(table))
    store.add(STM, "b", 5, "s")
    store.add(STM, "a", 2, "s")
    out = store.retrieve("q", k=2, session="s")
    assert [e.text for e in out["relevant"]] == ["a", "b"]


def test_stm_is_session_private_ltm_is_shared():
    store = MemoryStore(VectorBackend({"mine": E1, "theirs": E1, "shared": E1, "q": E1}))
    store.add(STM, "mine", 1, "s1")
    store.add(STM, "theirs", 1, "s2")
    store.add(LTM, "shared", 1, "s2")
    out = store.retrieve("q", k=5, session="s1")
    texts = {e.text for e in out["relevant"]}
    assert texts == {"mine", "shared"}


def test_consolidation_threshold_and_periodicity():
    table = {f"turn {i}": E1 for i in range(30)}
    backend = VectorBackend(table)
    store = MemoryStore(backend)
    for i in range(1, 12):
        store.add(STM, f"turn {i}", i, "s")
    assert store.consolidate("s") is None  # turn 11: threshold not crossed
    store.add(STM, "turn 12", 12, "s")
    first = store.consolidate("s")
    assert first is not None and first.tier == LTM
    assert backend.summaries[0] == [f"turn {i}" for i in range(1, 13)]
    for i in range(13, 24):
        store.add(STM, f"turn {i}", i, "s")
    assert store.consolidate("s") is None
    store.add(STM, "turn 24", 24, "s")
    second = store.consolidate("s")
    assert second is not None
    assert backend.summaries[1] == [f"turn {i}" for i in range(13, 25)]


def test_consolidation_summary_lands_in_ltm_and_is_retrievable():
    table = {"note": E1, "q": E1, "summary: note": E1}
    store = MemoryStore(VectorBackend(table))
    store.add(STM, "note", 12, "s")
    entry = store.consolidate("s")
    assert entry.text == "summary: note"
    out = store.retrieve("q", k=5, session="other")
    assert [e.text for e in out["relevant"]] == ["summary: note"]


def test_save_load_round_trip(tmp_path):
    store = MemoryStore(VectorBackend({"a": E1, "b": E2}))
    store.add(STM, "a", 1, "s")
    store.add(LTM, "b", 2, "s")
    path = tmp_path / "mem.jsonl"
    store.save(path)
    fresh = MemoryStore(VectorBackend({"a": E1}))
    fresh.load(path)
    assert [e.text for e in fresh.entries] == ["a", "b"]
    assert fresh.entries[1].tier == LTM
    assert np.allclose(fresh.entries[0].embedding, E1)


def test_retrieve_with_real_backend_is_deterministic():
    backend = ScriptedBackend()
    store = MemoryStore(backend)
    store.add(STM, "I worry about my evenings.", 1, "s")
    a = store.retrieve("worry evenings", session="s")
    b = store.retrieve("worry evenings", session="s")
    assert [e.id for e in a["relevant"]] == [e.id for e in b["relevant"]]


class CountingVectors(VectorBackend):
    def __init__(self, table):
        super().__init__(table)
        self.embedded = []

    def embed(self, text):
        self.embedded.append(text)
        return super().embed(text)


def test_each_text_is_embedded_once():
    backend = CountingVectors({"hi": E1, "reply": E2})
    store = MemoryStore(backend)
    store.add(STM, "reply", 1, "s")
    store.retrieve("hi", session="s")
    store.add(STM, "hi", 2, "s")
    store.add(STM, "reply", 2, "s")
    assert backend.embedded == ["reply", "hi"]
    store.retrieve("new words", session="s")
    store.retrieve("new words", session="s")
    assert backend.embedded == ["reply", "hi", "new words"]
    assert store.entries[0].embedding is store.entries[2].embedding


def test_loaded_entries_keep_their_saved_vectors(tmp_path):
    store = MemoryStore(VectorBackend({"a": E1, "b": E2}))
    store.add(STM, "a", 1, "s")
    store.add(STM, "b", 2, "s")
    store.save(tmp_path / "mem.jsonl")
    # The new backend embeds "a" where "b" used to be, and "b" at "a".
    backend = CountingVectors({"a": E2, "b": E1, "q": E1})
    fresh = MemoryStore(backend)
    fresh.load(tmp_path / "mem.jsonl")
    assert backend.embedded == []
    out = fresh.retrieve("q", session="s")
    assert [e.text for e in out["relevant"]] == ["a"]
    fresh.add(STM, "a", 3, "s")  # a newly stored "a" takes the backend's vector
    out = fresh.retrieve("q", k=3, session="s")
    assert [e.text for e in out["relevant"]] == ["a", "b", "a"]
    assert [e.turn_created for e in out["relevant"]] == [1, 2, 3]


# -- retrieve against a per-entry reference ------------------------------------

POOL = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
SESSIONS = ["s0", "s1", "s2"]
UNSTORED = "never stored"  # a query text that no entry holds


def _bag_vectors(n, dim=256, seed=7):
    """Unit vectors shaped like the hashed embedding: normalized counts of
    8-24 random buckets.  Distances between them that are equal in exact
    arithmetic often differ in their last bits between summation orders."""
    rng = np.random.default_rng(seed)
    bags = [np.bincount(rng.integers(0, dim, rng.integers(8, 25)), minlength=dim)
            for _ in range(n)]
    return [b / np.linalg.norm(b) for b in bags]


VECTORS = _bag_vectors(len(POOL) + 3)


def reference_retrieve(entries, backend, query, k, dist_thres, session):
    """The per-entry loop ``retrieve`` replaced: one norm per entry, then a sort."""
    visible = [
        e for e in entries if e.tier == LTM or session is None or e.session_id == session
    ]
    relevant = []
    if k > 0 and visible and query.strip():
        q = backend.embed(query)
        scored = [(float(np.linalg.norm(e.embedding - q)), e.turn_created, e.seq, e)
                  for e in visible]
        scored.sort(key=lambda t: t[:3])
        relevant = [e for d, _, _, e in scored[:k] if d <= dist_thres]
    return relevant


def vector_tables(draw):
    """The pool texts and the unstored query on distinct vectors, except
    that the last two pool texts share one."""
    order = draw(st.permutations(range(len(VECTORS))))
    table = {t: VECTORS[i] for t, i in zip([UNSTORED, *POOL], order)}
    table[POOL[-1]] = table[POOL[-2]]
    return table


def fill(draw, store, turn0):
    adds = draw(st.lists(
        st.tuples(st.sampled_from([STM, LTM]), st.sampled_from(POOL),
                  st.integers(0, 4), st.sampled_from(SESSIONS)),
        max_size=14,
    ))
    for tier, text, dt, session in adds:
        store.add(tier, text, turn0 + dt, session)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_retrieve_matches_per_entry_reference(tmp_path_factory, data):
    draw = data.draw
    backend = VectorBackend(vector_tables(draw))
    store = MemoryStore(backend)
    fill(draw, store, 0)
    if draw(st.booleans()):
        # Rebuild through save/load under a backend that embeds the same
        # texts differently; loaded entries keep the saved vectors.
        path = tmp_path_factory.getbasetemp() / "mem.jsonl"
        store.save(path)
        backend = VectorBackend(vector_tables(draw))
        store = MemoryStore(backend)
        store.load(path)
        fill(draw, store, 2)
    for _ in range(4):
        query = draw(st.sampled_from([UNSTORED, *POOL, "  "]))
        k = draw(st.integers(0, 3))
        session = draw(st.sampled_from(SESSIONS + [None, "nobody"]))
        # Beside a fixed threshold, one at and one just below each nearest
        # entry's distance: a last-bit error in a distance moves that entry
        # across one of them.
        thresholds = [draw(st.sampled_from([0.0, 1.2, 1.5, 2.0]))]
        nearest = reference_retrieve(store.entries, backend, query, k, 2.0, session)
        for e in nearest:
            d = float(np.linalg.norm(e.embedding - backend.embed(query)))
            thresholds += [d, float(np.nextafter(d, 0.0))]
        for dist_thres in thresholds:
            out = store.retrieve(query, k, dist_thres, session)
            relevant = reference_retrieve(store.entries, backend, query, k, dist_thres, session)
            assert [id(e) for e in out["relevant"]] == [id(e) for e in relevant]
