"""Two-tier semantic memory with embedding retrieval.

Short-term entries are session-local working context; long-term entries are
cross-session summaries produced by periodic consolidation.  Retrieval
returns the nearest entries under a distance threshold.  Distances are
Euclidean between unit-normalized embeddings, so orthogonal texts sit at
sqrt(2) and opposites at 2; the default threshold 1.5 admits the former and
rejects the latter.

The store is laid out as arrays.  Each distinct text it embeds owns one row
of a matrix of embeddings, and each entry one row of an integer table
(embedding row, tier, session, turn, seq), so a retrieval is one distance
pass over the distinct rows and one sort.  Embeddings come through
``backends.ask_once``, so a backend is asked once per distinct text across
every store, client and trigger set that shares it, for the backend's life.
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
        return cls(
            id=d["id"],
            tier=d["tier"],
            text=d["text"],
            embedding=np.asarray(d["embedding"], dtype=float),
            turn_created=d["turn_created"],
            session_id=d["session_id"],
            seq=d.get("seq", 0),
        )


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
        by ascending distance with ties going to older entries.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        rows, tiers, sessions, turns, seqs = self._columns()
        if session is None:
            visible = np.arange(len(self.entries))
        else:
            own = sessions == self._sessions.get(session, -1)
            visible = np.flatnonzero((tiers == _TIERS[LTM]) | own)
        relevant: list[MemoryEntry] = []
        if k > 0 and visible.size and query_text.strip():
            q_row = self._embed(query_text)
            vectors = self._vectors[: self._n_rows]
            dist = _distances(vectors, vectors[q_row])[rows[visible]]
            nearest = np.lexsort((seqs[visible], turns[visible], dist))[:k]
            relevant = [
                self.entries[visible[i]] for i in nearest if dist[i] <= dist_thres
            ]
        return {"relevant": relevant}

    def consolidate(
        self, session: str, every_n_turns: int = DEFAULT_CONSOLIDATE_EVERY
    ) -> MemoryEntry | None:
        """Fold the latest block of short-term entries into one long-term summary.

        Fires when the session's highest stored turn reaches the next multiple
        of ``every_n_turns`` since the previous consolidation; otherwise no-op.
        """
        if every_n_turns <= 0:
            raise ValueError("every_n_turns must be positive")
        _, tiers, sessions, turns, _ = self._columns()
        stm = (tiers == _TIERS[STM]) & (sessions == self._sessions.get(session, -1))
        if not stm.any():
            return None
        turn_count = int(turns[stm].max())
        last = self._last_consolidated.get(session, 0)
        if turn_count < last + every_n_turns:
            return None
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
