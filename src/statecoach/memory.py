"""Two-tier semantic memory with embedding retrieval.

Short-term entries are session-local working context; long-term entries are
cross-session summaries produced by periodic consolidation.  Retrieval
returns two lists: the nearest entries under a distance threshold (relevance)
and a recency window of the most recent entries (context).  Distances are
Euclidean between unit-normalized embeddings, so orthogonal texts sit at
sqrt(2) and opposites at 2; the default threshold 1.5 admits the former and
rejects the latter.

The store is laid out as arrays.  Each distinct text it embeds owns one row
of a matrix of embeddings, and each entry one row of an integer table
(embedding row, tier, session, turn, seq), so a retrieval is one distance
pass over the distinct rows and one sort.  Embed once: a backend's embedding
of a text is treated as fixed for the life of a store, so the backend is
asked at most once per distinct text, whether the text is stored or queried.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyTextError

STM = "STM"
LTM = "LTM"

DEFAULT_K = 1
DEFAULT_DIST_THRES = 1.5
DEFAULT_CONTEXT_N = 30
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
        return {
            "id": self.id,
            "tier": self.tier,
            "text": self.text,
            "embedding": [float(x) for x in self.embedding],
            "turn_created": self.turn_created,
            "session_id": self.session_id,
            "seq": self.seq,
        }

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
        # text -> (row, vector) for every text embedded through the backend.
        self._embedded: dict[str, tuple[int, np.ndarray]] = {}
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

    def _embed(self, text: str) -> tuple[int, np.ndarray]:
        """Row and vector of ``text``, calling the backend only for a new text."""
        hit = self._embedded.get(text)
        if hit is None:
            vector = self.backend.embed(text)
            hit = self._embedded[text] = (self._new_row(vector), vector)
        return hit

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
        """Store a text, embedding it unless this store already has; the id
        is a stable hash of the inputs."""
        if tier not in (STM, LTM):
            raise ValueError(f"unknown memory tier {tier!r}")
        if not text or not text.strip():
            raise EmptyTextError("cannot store empty text")
        row, vector = self._embed(text)
        entry = MemoryEntry(
            id=_entry_id(tier, text, turn, session),
            tier=tier,
            text=text,
            embedding=vector,
            turn_created=turn,
            session_id=session,
            seq=len(self.entries),
        )
        self._append(entry, row)
        return entry.id

    def retrieve(
        self,
        query_text: str,
        k: int = DEFAULT_K,
        dist_thres: float = DEFAULT_DIST_THRES,
        context_n: int = DEFAULT_CONTEXT_N,
        session: str | None = None,
    ) -> dict[str, list[MemoryEntry]]:
        """Nearest entries within the threshold plus a recency window.

        When ``session`` is given, other sessions' short-term entries are
        invisible; long-term entries are always shared.  The relevant list is
        sorted by ascending distance with ties going to older entries; the
        context list holds the most recent entries in chronological order.
        """
        if k < 0 or context_n < 0:
            raise ValueError("k and context_n must be non-negative")
        rows, tiers, sessions, turns, seqs = self._columns()
        if session is None:
            visible = np.arange(len(self.entries))
        else:
            own = sessions == self._sessions.get(session, -1)
            visible = np.flatnonzero((tiers == _TIERS[LTM]) | own)
        turns, seqs = turns[visible], seqs[visible]
        relevant: list[MemoryEntry] = []
        if k > 0 and visible.size and query_text.strip():
            q_row, _ = self._embed(query_text)
            vectors = self._vectors[: self._n_rows]
            dist = _distances(vectors, vectors[q_row])[rows[visible]]
            nearest = np.lexsort((seqs, turns, dist))[:k]
            relevant = [
                self.entries[visible[i]] for i in nearest if dist[i] <= dist_thres
            ]
        context: list[MemoryEntry] = []
        if context_n > 0:
            recent = visible[np.lexsort((seqs, turns))[-context_n:]]
            context = [self.entries[i] for i in recent]
        return {"relevant": relevant, "context": context}

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
