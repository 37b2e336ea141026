"""Labeling systems: definition files, detection, external predictions.

A system definition is a CSV with header ``system,sdg,query_id,query``
holding one query per row; multiple queries for the same SDG are
OR-combined at the system level (any matching query assigns the SDG).
External (black-box) predictions arrive as ``doc_id,sdg`` CSV and carry
no keyword evidence; they are read as one SDG mask per known doc id.

Detection and every reader fill one ``{doc_id: mask}`` column per system,
over every document of the dataset, and hand the columns, finished, to a
``PredictionMatrix``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import Dataset, read_csv_columns, read_csv_rows, warn
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
    """Boolean (doc_id, system, sdg) assignments of one dataset, one column per system.

    ``columns[system]`` maps every document id of the dataset to a 17-bit
    mask whose bit ``sdg - 1`` is set when the system predicts the SDG. A
    system that was run has a column over every document, all-false rows
    included, so an absent assignment is told apart from a system that was
    never run: the latter has no column at all. A matrix is built from
    finished columns, which it then owns; consumers look each system's
    column up once and score whole masks.
    """

    def __init__(self, columns: dict[str, dict[str, int]]):
        self.columns = columns

    def predicted(self, doc_id: str, system: str) -> frozenset[int]:
        """The SDGs predicted for the pair; empty where the system has no column."""
        return frozenset(mask_sdgs(self.columns.get(system, {}).get(doc_id, 0)))

    @property
    def assignments(self) -> list[tuple[str, str, int]]:
        """Every (doc_id, system, sdg), sorted."""
        rows = sorted((d, s, m) for s, column in self.columns.items() for d, m in column.items())
        return [(d, s, g) for d, s, mask in rows for g in mask_sdgs(mask)]


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
    ids = [doc.id for doc in dataset.documents]
    columns = {system.name: dict.fromkeys(ids, 0) for system in systems}
    for d, q in found:
        name, entry = entries[q]
        columns[name][ids[d]] |= 1 << (entry.sdg - 1)
    return PredictionMatrix(columns)


def to_matrix(
    hits: Iterable[Hit], dataset: Dataset, systems: Sequence[SystemDefinition]
) -> PredictionMatrix:
    """Collapse hits to booleans; zero-hit documents are all-false in every column."""
    ids = [doc.id for doc in dataset.documents]
    columns = {system.name: dict.fromkeys(ids, 0) for system in systems}
    for hit in hits:
        columns[hit.system][hit.doc_id] |= 1 << (hit.sdg - 1)
    return PredictionMatrix(columns)


def import_external_predictions(
    path: str | Path, known_doc_ids: Iterable[str], strict: bool = True
) -> dict[str, int]:
    """The SDG mask that a ``doc_id,sdg`` CSV of black-box predictions gives
    each known doc id, 0 where it names none.

    Unknown doc_ids raise E_SCHEMA when strict, otherwise they are
    skipped with a warning on stderr.
    """
    rows, where = read_csv_columns(path, "predictions file", ("doc_id", "sdg"))
    masks = dict.fromkeys(known_doc_ids, 0)
    for i, (doc_id, sdg) in enumerate(rows):
        doc_id = doc_id or ""
        if doc_id not in masks:
            if strict:
                raise SchemaError(f"{where(i)}: unknown doc_id {doc_id!r}")
            warn(f"{where(i)}: skipping unknown doc_id {doc_id!r}")
            continue
        masks[doc_id] |= 1 << (sdg - 1)
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
