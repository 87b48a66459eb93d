import json
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
    _MEASURED_ROWS,
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
    # Loaded after a retrieve of ("q", "s", 4), entries at a NaN and at an
    # infinite distance rank after every finite one, the NaN last, so the
    # nearest four end with the infinite one, within an infinite threshold.
    fresh.retrieve("q", k=4, session="s")
    odd = [("nan", [math.nan] * len(E1)), ("inf", [math.inf] + [0.0] * (len(E1) - 1))]
    (tmp_path / "odd.jsonl").write_text("".join(
        json.dumps({"id": text, "tier": STM, "text": text, "embedding": vector,
                    "turn_created": 0, "session_id": "s", "seq": 0}) + "\n"
        for text, vector in odd))
    fresh.load(tmp_path / "odd.jsonl")
    out = fresh.retrieve("q", k=4, dist_thres=math.inf, session="s")
    assert [e.text for e in out["relevant"]] == ["a", "b", "a", "inf"]


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

# Vectors a loaded file can hold that no backend gives: one at a NaN distance
# from every query and one at an infinite distance.
NAN_VECTOR = np.full(256, np.nan)
INF_VECTOR = np.zeros(256)
INF_VECTOR[0] = np.inf

# Few turns, so entries at one distance often share a turn and their seq
# (or, between equal seqs, their position) decides the order.
TURNS = st.integers(0, 4)


def reference_retrieve(entries, backend, query, k, dist_thres, session):
    """The per-entry loop ``retrieve`` replaced: one norm per entry, then one
    ``np.lexsort``, which puts a NaN distance after every other."""
    visible = [
        e for e in entries if e.tier == LTM or session is None or e.session_id == session
    ]
    relevant = []
    if k > 0 and visible and query.strip():
        q = backend.embed(query)
        dist = [float(np.linalg.norm(e.embedding - q)) for e in visible]
        order = np.lexsort(([e.seq for e in visible], [e.turn_created for e in visible], dist))
        relevant = [visible[i] for i in order[:k] if dist[i] <= dist_thres]
    return relevant


def vector_tables(draw):
    """The pool texts and the unstored query on distinct vectors, except
    that the last two pool texts share one."""
    order = draw(st.permutations(range(len(VECTORS))))
    table = {t: VECTORS[i] for t, i in zip([UNSTORED, *POOL], order)}
    table[POOL[-1]] = table[POOL[-2]]
    return table


class PoolVectors(CountingVectors):
    """Embeds through its table; a summary is a pool text, so it has a vector."""

    def summarize(self, texts):
        return POOL[len(texts) % len(POOL)]


def _loaded(draw, seq):
    """One line of a memory file: any tier, turns in any order, repeated seqs,
    and a vector the store's backend would not give the text."""
    vector = draw(st.one_of(st.sampled_from([NAN_VECTOR, INF_VECTOR]), st.sampled_from(VECTORS)))
    entry = {"id": f"loaded-{seq}", "tier": draw(st.sampled_from([STM, LTM, "MTM"])),
             "text": draw(st.sampled_from(POOL)), "turn_created": draw(TURNS),
             "session_id": draw(st.sampled_from(SESSIONS)), "seq": draw(st.integers(0, 3)),
             "embedding": vector.tolist()}
    return json.dumps(entry) + "\n"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_retrieve_matches_per_entry_reference(tmp_path_factory, data):
    """Every retrieve equals the reference: a key's first, and each later one
    after any adds, loads and consolidations.  The backend embeds the texts
    the reference has it embed, each once."""
    draw = data.draw
    table = vector_tables(draw)
    backend, twin = PoolVectors(table), PoolVectors(table)  # twin serves the reference
    store = MemoryStore(backend)
    path = tmp_path_factory.getbasetemp() / "mem.jsonl"
    asked, keys = [], []  # texts the backend must embed, in order; keys retrieved so far
    for _ in range(draw(st.integers(1, 30))):
        op = draw(st.sampled_from(["add", "load", "consolidate", "retrieve", "retrieve"]))
        if op == "add":
            text = draw(st.sampled_from(POOL))
            store.add(draw(st.sampled_from([STM, LTM])), text, draw(TURNS),
                      draw(st.sampled_from(SESSIONS)))
            asked.append(text)
        elif op == "load":
            lines = [_loaded(draw, seq) for seq in range(draw(st.integers(0, 4)))]
            path.write_text("".join(lines), encoding="utf-8")
            store.load(path)
        elif op == "consolidate":
            entry = store.consolidate(draw(st.sampled_from(SESSIONS)), draw(st.integers(1, 4)))
            if entry is not None:
                asked.append(entry.text)
        else:
            if keys and draw(st.booleans()):
                query, k, session = draw(st.sampled_from(keys))
            else:
                query = draw(st.sampled_from([UNSTORED, *POOL, "  "]))
                k = draw(st.integers(0, 3))
                session = draw(st.sampled_from(SESSIONS + [None, "nobody"]))
                keys.append((query, k, session))
            n_embedded = len(twin.embedded)
            nearest = reference_retrieve(store.entries, twin, query, k, math.inf, session)
            if len(twin.embedded) > n_embedded:
                asked.append(query)
            # Beside a fixed threshold, one at and one just below each nearest
            # entry's distance: a last-bit error in a distance moves that entry
            # across one of them.  Each retrieve after the first one here
            # finds nothing appended since the one before.
            thresholds = [draw(st.sampled_from([0.0, 1.2, 1.5, 2.0, math.inf]))]
            for e in nearest:
                d = float(np.linalg.norm(e.embedding - table[query]))
                thresholds += [d, float(np.nextafter(d, 0.0))]
            for dist_thres in thresholds:
                out = store.retrieve(query, k, dist_thres, session)
                relevant = reference_retrieve(store.entries, twin, query, k, dist_thres, session)
                assert [id(e) for e in out["relevant"]] == [id(e) for e in relevant]
    assert backend.embedded == list(dict.fromkeys(asked))


def test_retrieve_cache_stays_bounded_when_every_text_is_new():
    """A repeated retrieve's distance memo is cleared once it outgrows its
    bound, so the cache does not grow with queries times rows, and the
    retrieves after each clearing still equal the reference."""
    store, twin = MemoryStore(ScriptedBackend()), ScriptedBackend()
    for i in range(2 * _MEASURED_ROWS + 5):
        store.add(STM, f"entry {i} about week {i % 7} plans", i % 3, "s")
        for query, k in (("entry 7 about week 0 plans", 3), ("weekend plans", 1)):
            out = store.retrieve(query, k, math.inf, "s")
            relevant = reference_retrieve(store.entries, twin, query, k, math.inf, "s")
            assert [id(e) for e in out["relevant"]] == [id(e) for e in relevant]
        assert all(len(memo) <= _MEASURED_ROWS for _, _, memo in store._scans.values())


# -- consolidate against a full-scan reference ---------------------------------

C_SESSIONS = ["s0", "s1", "ltm-only"]  # "ltm-only" never gets a short-term entry


class FullScanConsolidate:
    """``consolidate`` as it was before the per-session mark: every call scans
    every entry.  It folds into ``store``, a store given the same adds and loads."""

    def __init__(self, store):
        self.store = store
        self.last = {}

    def __call__(self, session, every_n_turns):
        stm = [e for e in self.store.entries if e.tier == STM and e.session_id == session]
        if not stm:
            return None
        turn_count = max(e.turn_created for e in stm)
        last = self.last.get(session, 0)
        if turn_count < last + every_n_turns:
            return None
        block = [e.text for e in stm if e.turn_created > last]
        summary = self.store.backend.summarize(block)
        self.last[session] = turn_count
        self.store.add(LTM, summary, turn_count, session)
        return self.store.entries[-1]


def _stored(draw, tiers):
    tier = draw(st.sampled_from(tiers))
    session = draw(st.sampled_from(C_SESSIONS if tier != STM else C_SESSIONS[:2]))
    return tier, draw(st.sampled_from(POOL)), draw(st.integers(0, 30)), session


def _write_entries(path, rows):
    """A memory file as ``save`` writes one; tiers and turn order as given."""
    with open(path, "w", encoding="utf-8") as fh:
        for seq, (tier, text, turn, session) in enumerate(rows):
            entry = {"id": f"loaded-{seq}", "tier": tier, "text": text, "turn_created": turn,
                     "session_id": session, "seq": seq, "embedding": [0.0, 1.0, 0.0]}
            fh.write(json.dumps(entry) + "\n")


def _outcome(entry):
    return None if entry is None else (entry.id, entry.text, entry.turn_created)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_consolidate_matches_full_scan_reference(tmp_path_factory, data):
    draw = data.draw
    path = tmp_path_factory.getbasetemp() / "consolidate.jsonl"
    store, twin = MemoryStore(VectorBackend({})), MemoryStore(VectorBackend({}))
    reference = FullScanConsolidate(twin)
    for _ in range(draw(st.integers(1, 20))):
        op = draw(st.sampled_from(["add", "load", "consolidate", "consolidate"]))
        if op == "add":
            args = _stored(draw, [STM, LTM])
            store.add(*args)
            twin.add(*args)
        elif op == "load":
            # Loaded short-term turns come in any order; "MTM" is no tier at all.
            rows = [_stored(draw, [STM, LTM, "MTM"]) for _ in range(draw(st.integers(0, 5)))]
            _write_entries(path, rows)
            store.load(path)
            twin.load(path)
        else:
            session = draw(st.sampled_from(C_SESSIONS + ["nobody"]))
            every = draw(st.integers(1, 15))
            got = store.consolidate(session, every)
            assert _outcome(got) == _outcome(reference(session, every))
    assert [_outcome(e) + (e.tier,) for e in store.entries] == [
        _outcome(e) + (e.tier,) for e in twin.entries
    ]
