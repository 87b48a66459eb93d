"""Two-tier semantic memory with embedding retrieval.

Short-term entries are session-local working context; long-term entries are
cross-session summaries produced by periodic consolidation.  Retrieval
returns the nearest entries under a distance threshold.  Distances are
Euclidean between unit-normalized embeddings, so orthogonal texts sit at
sqrt(2) and opposites at 2; the default threshold 1.5 admits the former and
rejects the latter.

Each distinct text the store holds owns one row of a matrix of embeddings, and
the store keeps the index of each entry's row; ranking reads each entry's own
turn and seq.  Entries are only ever appended, so the store keeps each (query
text, session, k)'s nearest k and the number of entries they were chosen from,
and a retrieval ranks only the entries appended since against them; a key's
first retrieval is the same catch-up from entry 0.  The store keeps the
``_SCAN_KEYS`` keys used last, and an evicted key's next retrieval is a first
one again.  Each key remembers up to ``_MEASURED_ROWS`` embedding rows'
distances, so a text that recurs is measured once.  A query's vector is
measured against the rows without becoming one, so distinct queries do not
grow the matrix.  Every row, and every query vector measured against the rows,
has the first row's width: a loaded line or a backend vector of another width
is a ValueError naming both.  Embeddings come through ``backends.ask_once``,
so a backend is asked once per distinct text across every store, client and
trigger set that shares it, while the text is among the last
``ANSWER_MEMO_SIZE`` asked of that backend.

Each session also keeps a mark: its highest short-term turn, raised as
entries are appended (by ``add`` or ``load``).  ``consolidate`` reads only
the mark until it reaches the next fold, so an idle call never scans the
entries.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .backends import ask_once
from .errors import (EmptyTextError, field_types, is_finite, is_json, json_lines, json_record,
                     naming_file)

STM = "STM"
LTM = "LTM"

DEFAULT_K = 1
DEFAULT_DIST_THRES = 1.5
DEFAULT_CONSOLIDATE_EVERY = 12

# A cached retrieve keeps at most this many rows' distances to its query: room
# for every text of a store whose texts recur (a scripted session's store has
# about ten), and a bound on the cache when every text is new.
_MEASURED_ROWS = 64

# Most (query text, session, k) keys whose scan a store keeps, least recently
# used out first: room for every query of a 200-turn session.
_SCAN_KEYS = 256


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
    def from_dict(cls, d: dict, what: str = "a memory entry") -> "MemoryEntry":
        """The entry ``d`` holds as a closed record of this class's annotated field types,
        ``seq`` optional; else a ValueError about ``what``."""
        json_record(d, what, field_types(cls, ("seq",)), cls.__dataclass_fields__.keys())
        if not is_json(d.get("seq", 0), field_types(cls)["seq"]):
            raise ValueError(f"{what} has a non-integer seq")
        if not all(type(x) is float or is_json(x, "integer") and is_finite(x)
                   for x in d["embedding"]):
            raise ValueError(f"{what} has an embedding that is not an array of floats")
        if not d["embedding"]:
            raise ValueError(f"{what} has an empty embedding")
        return cls(**d | {"embedding": np.asarray(d["embedding"], dtype=float)})


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


def _distances(vectors: np.ndarray, rows: list[int], q: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(vectors[r] - q)`` for every ``r`` in ``rows``, bit for bit.

    The per-row dot product goes through the same routine as ``norm``'s; the
    ``norm(..., axis=1)`` and ``einsum`` forms round differently, and a last-
    bit difference can reorder entries at equal true distance.  The gathered
    rows are differenced in place: a second temporary of a few hundred rows
    made the call about five times slower.
    """
    d = vectors[rows]
    d -= q
    return np.sqrt((d[:, None, :] @ d[:, :, None]).ravel())


def _ranked(dist: float, turn: int, seq: int, index: int) -> tuple:
    """Entry ``index``'s sort key, ordered as ``np.lexsort((seq, turn, dist))``
    orders entries: a NaN distance after every other, ties by index."""
    nan = dist != dist
    return (nan, 0.0 if nan else dist, turn, seq, index)


class MemoryStore:
    """Memory store; entries stay in ``entries`` in insertion order.

    ``entries`` is read-only to callers: ``add`` and ``load`` keep it, each
    entry's row index and the embedding matrix in step; ranking reads each
    entry's own turn and seq.  Entries that ``load`` appends keep the vectors
    they were saved with, even where this store's backend would embed their
    text differently.  A tier read from a file that is neither STM nor LTM is
    neither visible as long-term nor consolidated.
    """

    def __init__(self, backend):
        self.backend = backend
        self.entries: list[MemoryEntry] = []
        self._last_consolidated: dict[str, int] = {}
        # text -> row of its embedding, for every text stored by ``add``.
        self._rows: dict[str, int] = {}
        self._vectors = np.empty((0, 0))  # distinct embeddings; _n_rows in use
        self._n_rows = 0
        # The embedding row of each entry.
        self._entry_rows: list[int] = []
        # session -> its highest short-term turn; no key until it has one.
        self._stm_mark: dict[str, int] = {}
        # (query text, session, k) -> (entries ranked, their nearest k as _ranked
        # keys, {embedding row: distance} for rows it has ranked, at most
        # _MEASURED_ROWS of them between calls), least recently used first.
        self._scans: dict[tuple, tuple[int, list[tuple], dict[int, float]]] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def _checked_width(self, vector: np.ndarray, what: str = "the backend's embedding"):
        """``vector`` if it has the width of this store's rows (any width before the first)."""
        width = self._vectors.shape[1] if self._n_rows else len(vector)
        if len(vector) != width:
            raise ValueError(f"{what} has width {len(vector)}, but this store's rows "
                             f"have width {width}")
        return vector

    def _new_row(self, vector: np.ndarray, what: str = "the backend's embedding") -> int:
        self._checked_width(vector, what)
        self._vectors = _reserve(self._vectors, self._n_rows, len(vector))
        self._vectors[self._n_rows] = vector
        self._n_rows += 1
        return self._n_rows - 1

    def _append(self, entry: MemoryEntry, row: int) -> None:
        self._entry_rows.append(row)
        self.entries.append(entry)
        if entry.tier == STM:
            turn, marks = entry.turn_created, self._stm_mark
            marks[entry.session_id] = max(turn, marks.get(entry.session_id, turn))

    def add(self, tier: str, text: str, turn: int, session: str) -> str:
        """Store a text with its embedding; the id is a stable hash of the inputs."""
        if tier not in (STM, LTM):
            raise ValueError(f"unknown memory tier {tier!r}")
        if not is_json(turn, "integer"):  # the rule a loaded line's turn_created meets
            raise ValueError(f"memory turn must be an integer, got {turn!r}")
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
        if text not in self._rows:  # a text's row is made when it is first stored
            self._rows[text] = self._new_row(entry.embedding)
        self._append(entry, self._rows[text])
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
        """The ``k`` nearest visible entries as ``_ranked`` keys, nearest first.

        Each call ranks only the entries appended since the key's last call (a
        first call: from entry 0) against its nearest ``k`` so far, measuring
        each embedding row not in the key's memo.  The query is embedded only
        when a row is measured, and its vector is measured against the rows
        without becoming one: only ``add`` and ``load`` give a text a row."""
        key = (query_text, session, k)
        n = len(self.entries)
        done, best, measured = self._scans.pop(key, (0, [], {}))
        seen = [(i, row, entry) for i, (entry, row)
                in enumerate(zip(self.entries[done:n], self._entry_rows[done:n]), done)
                if session is None or entry.tier == LTM or entry.session_id == session]
        if seen:
            unmeasured = list({r for _, r, _ in seen if r not in measured})
            if unmeasured:
                q = self._checked_width(ask_once(self.backend, "embed", query_text))
                measured.update(zip(unmeasured, _distances(self._vectors, unmeasured, q).tolist()))
            ranked = [_ranked(measured[r], e.turn_created, e.seq, i) for i, r, e in seen]
            best = heapq.nsmallest(k, best + ranked)
            if len(measured) > _MEASURED_ROWS:
                measured.clear()
        self._scans[key] = (n, best, measured)
        if len(self._scans) > _SCAN_KEYS:
            del self._scans[next(iter(self._scans))]
        return best

    def consolidate(
        self, session: str, every_n_turns: int = DEFAULT_CONSOLIDATE_EVERY
    ) -> MemoryEntry | None:
        """Fold the latest block of short-term entries into one long-term summary.

        Fires when the session's highest short-term turn (its mark) reaches
        the next multiple of ``every_n_turns`` since the previous
        consolidation; otherwise returns None without reading the entries.
        """
        if every_n_turns <= 0:
            raise ValueError("every_n_turns must be positive")
        turn_count = self._stm_mark.get(session)
        last = self._last_consolidated.get(session, 0)
        if turn_count is None or turn_count < last + every_n_turns:
            return None
        block = [e.text for e in self.entries
                 if e.tier == STM and e.session_id == session and e.turn_created > last]
        summary = self.backend.summarize(block)
        self._last_consolidated[session] = turn_count
        self.add(LTM, summary, turn_count, session)
        return self.entries[-1]

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for e in self.entries:
                fh.write(json.dumps(e.to_dict(), sort_keys=True) + "\n")

    def load(self, path: str | Path) -> None:
        """Append the entries of a file ``save`` wrote; each fault names its line and the file."""
        with naming_file(path):
            for number, d in json_lines(path):
                entry = MemoryEntry.from_dict(d, f"line {number}")
                row = self._new_row(entry.embedding, f"line {number}'s embedding")
                self._append(entry, row)
