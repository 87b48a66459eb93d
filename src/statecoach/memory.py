"""Two-tier semantic memory with embedding retrieval.

Short-term entries are session-local working context; long-term entries are
cross-session summaries produced by periodic consolidation.  Retrieval
returns the nearest entries under a distance threshold.  Distances are
Euclidean between unit-normalized embeddings, so orthogonal texts sit at
sqrt(2) and opposites at 2; the default threshold 1.5 admits the former and
rejects the latter.

The store is laid out as arrays.  Each distinct text it embeds owns one row
of a matrix of embeddings, and each entry one row of an integer table
(embedding row, tier, session, turn, seq), so a query's first retrieval is
one distance pass over the distinct rows and one sort.  Entries are only
ever appended, so the store keeps each (query text, session, k)'s nearest k
and the number of entries they were chosen from, and a repeat retrieval
ranks only the entries appended since against them, remembering up to
``_MEASURED_ROWS`` embedding rows' distances for that key, so a text that
recurs is measured once.  Embeddings come through
``backends.ask_once``, so a backend is asked once per distinct text across
every store, client and trigger set that shares it, for the backend's life.

Each session also keeps a mark: its highest short-term turn, raised as
entries are appended (by ``add`` or ``load``).  ``consolidate`` reads only
the mark until it reaches the next fold, so an idle call never scans the
entry table.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .backends import ask_once
from .errors import EmptyTextError

STM = "STM"
LTM = "LTM"

DEFAULT_K = 1
DEFAULT_DIST_THRES = 1.5
DEFAULT_CONSOLIDATE_EVERY = 12

# Tier codes in the entry table; a tier read from a file that is neither
# stays -1, which is neither visible as long-term nor consolidated.
_TIERS = {STM: 0, LTM: 1}

# A cached retrieve keeps at most this many rows' distances to its query: room
# for every text of a store whose texts recur (a scripted session's store has
# about ten), and a bound on the cache when every text is new.
_MEASURED_ROWS = 64


@dataclass
class MemoryEntry:
    id: str
    tier: str
    text: str
    embedding: np.ndarray
    turn_created: int
    session_id: str
    seq: int = field(default=0)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["embedding"] = [float(x) for x in self.embedding]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "MemoryEntry":
        kwargs = {k: d[k] for k in cls.__dataclass_fields__ if k in d}
        kwargs["embedding"] = np.asarray(d["embedding"], dtype=float)
        return cls(**kwargs)


def _entry_id(tier: str, text: str, turn: int, session: str) -> str:
    raw = f"{tier}|{session}|{turn}|{text}".encode("utf-8")
    return hashlib.md5(raw).hexdigest()[:16]


def _reserve(a: np.ndarray, n: int, width: int) -> np.ndarray:
    """``a`` if it has a row ``n``, else a copy with doubled capacity."""
    if n < len(a):
        return a
    grown = np.empty((max(2 * n, 16), width), dtype=a.dtype)
    if n:
        grown[:n] = a[:n]
    return grown


def _distances(vectors: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(v - q)`` for every row ``v``, bit for bit.

    The per-row dot product goes through the same routine as ``norm``'s; the
    ``norm(..., axis=1)`` and ``einsum`` forms round differently, and a last-
    bit difference can reorder entries at equal true distance.
    """
    d = vectors - q
    return np.sqrt((d[:, None, :] @ d[:, :, None]).ravel())


def _ranked(dist: float, turn: int, seq: int, index: int) -> tuple:
    """Entry ``index``'s sort key, ordered as ``np.lexsort((seq, turn, dist))``
    orders entries: a NaN distance after every other, ties by index."""
    nan = dist != dist
    return (nan, 0.0 if nan else dist, turn, seq, index)


class MemoryStore:
    """Array-backed memory store; entries stay in ``entries`` in insertion order.

    ``entries`` is read-only to callers: ``add`` and ``load`` keep it and the
    arrays in step.  Entries that ``load`` appends keep the vectors they were
    saved with, even where this store's backend would embed their text
    differently.
    """

    def __init__(self, backend):
        self.backend = backend
        self.entries: list[MemoryEntry] = []
        self._last_consolidated: dict[str, int] = {}
        # text -> row of its embedding, for every text embedded through the backend.
        self._rows: dict[str, int] = {}
        self._vectors = np.empty((0, 0))  # distinct embeddings; _n_rows in use
        self._n_rows = 0
        # One row per entry: embedding row, tier code, session code, turn, seq.
        self._table = np.empty((0, 5), dtype=np.int64)
        self._sessions: dict[str, int] = {}
        # session -> its highest short-term turn; no key until it has one.
        self._stm_mark: dict[str, int] = {}
        # (query text, session, k) -> (entries ranked, their nearest k as _ranked
        # keys, {embedding row: distance} for rows ranked since the first pass,
        # at most _MEASURED_ROWS of them between calls).
        self._scans: dict[tuple, tuple[int, list[tuple], dict[int, float]]] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def _new_row(self, vector: np.ndarray) -> int:
        self._vectors = _reserve(self._vectors, self._n_rows, len(vector))
        self._vectors[self._n_rows] = vector
        self._n_rows += 1
        return self._n_rows - 1

    def _embed(self, text: str) -> int:
        """Row of ``text``'s embedding, added on the text's first use here."""
        if text not in self._rows:
            self._rows[text] = self._new_row(ask_once(self.backend, "embed", text))
        return self._rows[text]

    def _append(self, entry: MemoryEntry, row: int) -> None:
        n = len(self.entries)
        self._table = _reserve(self._table, n, 5)
        session = self._sessions.setdefault(entry.session_id, len(self._sessions))
        tier = _TIERS.get(entry.tier, -1)
        self._table[n] = (row, tier, session, entry.turn_created, entry.seq)
        self.entries.append(entry)
        if tier == _TIERS[STM]:
            turn = int(self._table[n, 3])  # the turn as the table holds it
            marks = self._stm_mark
            marks[entry.session_id] = max(turn, marks.get(entry.session_id, turn))

    def _columns(self) -> np.ndarray:
        """The entry table as five columns: row, tier, session, turn, seq."""
        return self._table[: len(self.entries)].T

    def add(self, tier: str, text: str, turn: int, session: str) -> str:
        """Store a text with its embedding; the id is a stable hash of the inputs."""
        if tier not in (STM, LTM):
            raise ValueError(f"unknown memory tier {tier!r}")
        if not text or not text.strip():
            raise EmptyTextError("cannot store empty text")
        entry = MemoryEntry(
            id=_entry_id(tier, text, turn, session),
            tier=tier,
            text=text,
            embedding=ask_once(self.backend, "embed", text),
            turn_created=turn,
            session_id=session,
            seq=len(self.entries),
        )
        self._append(entry, self._embed(text))
        return entry.id

    def retrieve(
        self,
        query_text: str,
        k: int = DEFAULT_K,
        dist_thres: float = DEFAULT_DIST_THRES,
        session: str | None = None,
    ) -> dict[str, list[MemoryEntry]]:
        """Up to ``k`` nearest entries within the threshold, as ``{"relevant": [...]}``.

        When ``session`` is given, other sessions' short-term entries are
        invisible; long-term entries are always shared.  The list is sorted
        by ascending distance with ties going to older entries (by turn, then
        seq, then position).  The threshold is applied after the nearest
        ``k`` are chosen, so the nearest ``k`` kept for a (query, session, k)
        serve every threshold; see ``_nearest``.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        nearest = self._nearest(query_text, k, session) if k > 0 and query_text.strip() else []
        return {
            "relevant": [self.entries[i] for nan, d, _, _, i in nearest
                         if not nan and d <= dist_thres]
        }

    def _nearest(self, query_text: str, k: int, session: str | None) -> list[tuple]:
        """The ``k`` nearest visible entries as ``_ranked`` keys, nearest first:
        one vectorised pass on a key's first call, then only the entries
        appended since, each embedding row not in the key's memo measured."""
        key = (query_text, session, k)
        n = len(self.entries)
        own = self._sessions.get(session, -1)
        scan = self._scans.get(key)
        if scan is None:
            rows, tiers, sessions, turns, seqs = self._columns()
            visible = np.arange(n) if session is None else np.flatnonzero(
                (tiers == _TIERS[LTM]) | (sessions == own))
            if not visible.size:
                return []
            q_row = self._embed(query_text)
            vectors = self._vectors[: self._n_rows]
            dist = _distances(vectors, vectors[q_row])[rows[visible]]
            top = np.lexsort((seqs[visible], turns[visible], dist))[:k]
            index = visible[top]
            best = list(map(_ranked, dist[top].tolist(), turns[index].tolist(),
                            seqs[index].tolist(), index.tolist()))
            self._scans[key] = (n, best, {})
            return best
        done, best, measured = scan
        ltm = _TIERS[LTM]
        seen = [(i, row, turn, seq) for i, (row, tier, s, turn, seq)
                in enumerate(self._table[done:n].tolist(), done)
                if tier == ltm or s == own or session is None]
        if seen:
            unmeasured = list({r for _, r, _, _ in seen if r not in measured})
            if unmeasured:
                q = self._vectors[self._rows[query_text]]
                measured.update(zip(unmeasured, _distances(self._vectors[unmeasured], q).tolist()))
            ranked = [_ranked(measured[r], turn, seq, i) for i, r, turn, seq in seen]
            best = sorted(best + ranked)[:k]
            if len(measured) > _MEASURED_ROWS:
                measured.clear()
        self._scans[key] = (n, best, measured)
        return best

    def consolidate(
        self, session: str, every_n_turns: int = DEFAULT_CONSOLIDATE_EVERY
    ) -> MemoryEntry | None:
        """Fold the latest block of short-term entries into one long-term summary.

        Fires when the session's highest short-term turn (its mark) reaches
        the next multiple of ``every_n_turns`` since the previous
        consolidation; otherwise returns None without reading the entry table.
        """
        if every_n_turns <= 0:
            raise ValueError("every_n_turns must be positive")
        turn_count = self._stm_mark.get(session)
        last = self._last_consolidated.get(session, 0)
        if turn_count is None or turn_count < last + every_n_turns:
            return None
        _, tiers, sessions, turns, _ = self._columns()
        stm = (tiers == _TIERS[STM]) & (sessions == self._sessions[session])
        block = np.flatnonzero(stm & (turns > last))
        summary = self.backend.summarize([self.entries[i].text for i in block])
        self._last_consolidated[session] = turn_count
        self.add(LTM, summary, turn_count, session)
        return self.entries[-1]

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for e in self.entries:
                fh.write(json.dumps(e.to_dict(), sort_keys=True) + "\n")

    def load(self, path: str | Path) -> None:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    entry = MemoryEntry.from_dict(json.loads(line))
                    self._append(entry, self._new_row(entry.embedding))
