"""Labeling systems: definition files, detection, external predictions.

A system definition is a CSV with header ``system,sdg,query_id,query``
holding one query per row; multiple queries for the same SDG are
OR-combined at the system level (any matching query assigns the SDG).
External (black-box) predictions arrive as ``doc_id,sdg`` CSV and carry
no keyword evidence; they are read as one SDG mask per known doc id.

Detection and every reader fill a ``{(doc_id, system): mask}`` dictionary
and hand it, finished, to a ``PredictionMatrix``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import Dataset, read_csv_rows, warn
from .errors import SchemaError, SdgToolError
from .query import CorpusIndex, Node, parse_query

__all__ = [
    "SystemEntry",
    "SystemDefinition",
    "Hit",
    "PredictionMatrix",
    "mask_sdgs",
    "load_system",
    "detect",
    "detect_matrix",
    "to_matrix",
    "import_external_predictions",
    "keyword_frequencies",
]


@dataclass(frozen=True)
class SystemEntry:
    sdg: int
    query_id: str
    query: Node

    def __post_init__(self):
        if not 1 <= self.sdg <= 17:
            raise SchemaError(f"SDG id {self.sdg} outside 1..17")


@dataclass(frozen=True)
class SystemDefinition:
    name: str
    entries: tuple[SystemEntry, ...]

    def __post_init__(self):
        if not self.entries:
            raise SchemaError(f"system {self.name!r} has no entries")
        ids = [e.query_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise SchemaError(f"system {self.name!r} has duplicate query_ids")


@dataclass(frozen=True)
class Hit:
    doc_id: str
    system: str
    sdg: int
    query_id: str
    matched_terms: tuple[tuple[str, tuple[int, ...]], ...]


def mask_sdgs(mask: int) -> list[int]:
    """The SDG ids whose bits are set in a row mask, ascending."""
    sdgs = []
    while mask:
        low = mask & -mask
        sdgs.append(low.bit_length())
        mask ^= low
    return sdgs


class PredictionMatrix:
    """Boolean (doc_id, system, sdg) assignments plus coverage tracking.

    Coverage records which (doc, system) pairs were actually evaluated so
    that an absent assignment can be told apart from a system that was
    never run on the document.

    Each covered (doc, system) pair is one row: a 17-bit mask whose bit
    ``sdg - 1`` is set when the SDG is predicted. A matrix is built from a
    finished dictionary of such rows, which it then owns; ``merge`` ORs
    another matrix's rows in. Every lookup is one dictionary probe, and
    consumers score a whole row with mask operations through ``row``.
    """

    def __init__(self, rows: dict[tuple[str, str], int]):
        self._rows = rows

    def row(self, doc_id: str, system: str) -> int:
        """The pair's SDG mask; 0 when nothing is predicted or it is not covered."""
        return self._rows.get((doc_id, system), 0)

    def predicted(self, doc_id: str, system: str) -> frozenset[int]:
        return frozenset(mask_sdgs(self._rows.get((doc_id, system), 0)))

    def covers(self, doc_id: str, system: str) -> bool:
        return (doc_id, system) in self._rows

    @property
    def assignments(self) -> list[tuple[str, str, int]]:
        """Every (doc_id, system, sdg), sorted: rows by key, each row's SDGs ascending."""
        return [(d, s, g) for (d, s), mask in sorted(self._rows.items()) for g in mask_sdgs(mask)]

    def merge(self, other: "PredictionMatrix") -> None:
        rows = self._rows
        for key, mask in other._rows.items():
            rows[key] = rows.get(key, 0) | mask


def load_system(path: str | Path) -> SystemDefinition:
    """Load one system definition; all rows must share the system name."""
    path = Path(path)
    name: str | None = None
    entries: list[SystemEntry] = []
    seen_ids: set[str] = set()
    for where, row in read_csv_rows(path, "system file", ("system", "sdg", "query_id", "query")):
        system = (row.get("system") or "").strip()
        if not system:
            raise SchemaError(f"{where}: missing system name")
        if name is None:
            name = system
        elif system != name:
            raise SchemaError(f"{where}: mixed system names ({name!r} vs {system!r})")
        query_id = (row.get("query_id") or "").strip()
        if not query_id:
            raise SchemaError(f"{where}: missing query_id")
        if query_id in seen_ids:
            raise SchemaError(f"{where}: duplicate query_id {query_id!r}")
        seen_ids.add(query_id)
        try:
            ast = parse_query(row.get("query") or "")
        except SdgToolError as exc:
            # keep the error's type, code and position; only say where it is
            exc.args = (f"system {system!r}, query {query_id!r}: {exc}",)
            raise
        entries.append(SystemEntry(row["sdg"], query_id, ast))
    if name is None:
        raise SchemaError(f"{path.name}: no rows")
    return SystemDefinition(name, tuple(entries))


def _search(dataset: Dataset, systems: Sequence[SystemDefinition]):
    """Every system entry with its system's name, the dataset's corpus and
    every matching (document index, entry index) pair, sorted."""
    if not systems:
        raise SchemaError("detect requires at least one system")
    entries = [(system.name, entry) for system in systems for entry in system.entries]
    corpus = CorpusIndex([doc.tokens for doc in dataset.documents])
    return entries, corpus, corpus.search([entry.query for _, entry in entries])


def detect(dataset: Dataset, systems: Sequence[SystemDefinition]) -> list[Hit]:
    """Run every system entry over every document; deterministic order.

    All queries are searched at once on the dataset, each matched as one
    set of documents (``CorpusIndex.search``). A document's token index is
    released once its hits are built.
    """
    entries, corpus, found = _search(dataset, systems)
    docs = dataset.documents
    hits: list[Hit] = []
    for d, pairs in groupby(found, itemgetter(0)):
        for _, q in pairs:
            name, entry = entries[q]
            terms = corpus.matched_terms(d, q)
            hits.append(Hit(docs[d].id, name, entry.sdg, entry.query_id, terms))
        corpus.release(d)
    hits.sort(key=lambda h: (h.doc_id, h.system, h.sdg, h.query_id))
    return hits


def detect_matrix(dataset: Dataset, systems: Sequence[SystemDefinition]) -> PredictionMatrix:
    """``to_matrix(detect(dataset, systems), dataset, systems)``, set straight
    from the matching (document, query) pairs: no positions, hits or sort."""
    entries, _, found = _search(dataset, systems)
    rows = _covered(dataset, systems)
    ids = [doc.id for doc in dataset.documents]
    bits = [1 << (entry.sdg - 1) for _, entry in entries]
    for d, q in found:
        rows[ids[d], entries[q][0]] |= bits[q]
    return PredictionMatrix(rows)


def _covered(
    dataset: Dataset, systems: Sequence[SystemDefinition | str]
) -> dict[tuple[str, str], int]:
    """An all-false row for every (document, system) of the dataset."""
    names = [s if isinstance(s, str) else s.name for s in systems]
    return {(doc.id, name): 0 for doc in dataset.documents for name in names}


def to_matrix(
    hits: Iterable[Hit], dataset: Dataset, systems: Sequence[SystemDefinition | str]
) -> PredictionMatrix:
    """Collapse hits to booleans; zero-hit documents appear as all-false rows."""
    rows = _covered(dataset, systems)
    for hit in hits:
        rows[hit.doc_id, hit.system] |= 1 << (hit.sdg - 1)
    return PredictionMatrix(rows)


def import_external_predictions(
    path: str | Path, known_doc_ids: Iterable[str], strict: bool = True
) -> dict[str, int]:
    """The SDG mask that a ``doc_id,sdg`` CSV of black-box predictions gives
    each known doc id, 0 where it names none.

    Unknown doc_ids raise E_SCHEMA when strict, otherwise they are
    skipped with a warning on stderr.
    """
    rows = read_csv_rows(path, "predictions file", ("doc_id", "sdg"))
    masks = dict.fromkeys(known_doc_ids, 0)
    for where, row in rows:
        doc_id = row["doc_id"] or ""
        if doc_id not in masks:
            if strict:
                raise SchemaError(f"{where}: unknown doc_id {doc_id!r}")
            warn(f"{where}: skipping unknown doc_id {doc_id!r}")
            continue
        masks[doc_id] |= 1 << (row["sdg"] - 1)
    return masks


def keyword_frequencies(hits: Iterable[Hit]) -> list[tuple[str, str, int]]:
    """Per-system keyword hit counts, summing matched positions over documents.

    Sorted by count descending, then (system, term) for stable output.
    """
    counts: Counter[tuple[str, str]] = Counter()
    for hit in hits:
        for pattern, positions in hit.matched_terms:
            counts[(hit.system, pattern)] += len(positions)
    return sorted(
        ((system, term, count) for (system, term), count in counts.items()),
        key=lambda row: (-row[2], row[0], row[1]),
    )
