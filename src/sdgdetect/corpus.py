"""Tokenization and document collection ingestion.

Tokens are maximal runs of Unicode letters/digits, lowercased; every
other character (hyphens and apostrophes included) separates tokens.
ASCII text takes one ``str.translate`` (letters and digits lowered, all
else a space) and a whitespace split; other text lowers each regex match
on its own, as lowering the whole text differs (``İ``, Greek final sigma).
Documents come from JSONL (one object per line: id, text, optional
labels / evaluated int arrays) or CSV (header ``id,text,labels,evaluated``,
labels/evaluated ``|``-separated). A document is labeled exactly when its
evaluated set, the SDGs experts judged it for, is not empty; a record with
labels but no evaluated set was judged for all 17. A document also holds
its labels and evaluated set as 17-bit masks, the form of a prediction row.
``read_input``, ``atomic_write_text`` and ``warn`` are the package's one
reader, writer and warning line.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from .errors import IoError, ParamError, SchemaError

__all__ = [
    "ALL_SDGS",
    "Document",
    "Dataset",
    "tokenize",
    "read_input",
    "read_csv_rows",
    "load_documents",
    "save_documents",
    "atomic_write_text",
    "warn",
]

import re

ALL_SDGS = frozenset(range(1, 18))

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_ASCII_TABLE = str.maketrans({i: chr(i).lower() if chr(i).isalnum() else " " for i in range(128)})


def tokenize(text: str) -> list[str]:
    if text.isascii():
        return text.translate(_ASCII_TABLE).split()
    return [t.lower() for t in _TOKEN_RE.findall(text)]


@dataclass(frozen=True)
class Document:
    """A document's text and tokens, the SDGs experts judged it for
    (``evaluated``; scoring is restricted to these) and those they assigned
    it (``labels``). It is labeled exactly when ``evaluated`` is not empty,
    so labels need an evaluated set."""

    id: str
    text: str
    tokens: tuple[str, ...]
    labels: frozenset[int] = frozenset()
    evaluated: frozenset[int] = frozenset()

    def __post_init__(self):
        if not ALL_SDGS.issuperset(self.labels) or not ALL_SDGS.issuperset(self.evaluated):
            raise SchemaError(f"document {self.id!r}: SDG ids must lie in 1..17")
        if self.labels and not self.evaluated:
            raise SchemaError(f"document {self.id!r}: labels without an evaluated set")

    @property
    def word_count(self) -> int:
        return len(self.tokens)

    # Bit ``sdg - 1`` of a mask stands for the SDG, as in a prediction matrix row.
    @cached_property
    def label_mask(self) -> int:
        return sum(1 << (g - 1) for g in self.labels)

    @cached_property
    def evaluated_mask(self) -> int:
        return sum(1 << (g - 1) for g in self.evaluated)

    @classmethod
    def from_text(
        cls,
        doc_id: str,
        text: str,
        labels: Iterable[int] | None = None,
        evaluated: Iterable[int] | None = None,
    ) -> "Document":
        """No sets give an unlabeled document; labels alone are judged on all 17 SDGs."""
        if evaluated is None:
            evaluated = () if labels is None else ALL_SDGS
        labels = frozenset(labels or ())
        return cls(doc_id, text, tuple(tokenize(text)), labels, frozenset(evaluated))


@dataclass(frozen=True)
class Dataset:
    name: str
    documents: tuple[Document, ...]

    def __post_init__(self):
        if not self.documents:
            raise SchemaError(f"dataset {self.name!r} is empty")
        ids = [d.id for d in self.documents]
        if len(set(ids)) != len(ids):
            raise SchemaError(f"dataset {self.name!r} has duplicate document ids")

    @property
    def labeled(self) -> bool:
        return any(d.evaluated for d in self.documents)


def _check_sdg_list(values, where: str) -> frozenset[int]:
    if not isinstance(values, list):
        raise SchemaError(f"{where}: SDG ids must be a list, not {values!r}")
    out = set()
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= 17:
            raise SchemaError(f"{where}: SDG id {v!r} outside 1..17")
        out.add(v)
    return frozenset(out)


def _build_document(doc_id, text, labels, evaluated, where: str) -> Document:
    if not isinstance(doc_id, str) or not doc_id:
        raise SchemaError(f"{where}: missing or invalid 'id'")
    try:
        doc_id.encode("utf-8")  # fails on a lone surrogate, such as JSON's "\ud800"
    except UnicodeEncodeError:
        raise SchemaError(f"{where}: 'id' {doc_id!r} cannot be written as UTF-8") from None
    if not isinstance(text, str):
        raise SchemaError(f"{where}: missing or invalid 'text'")
    if labels is not None:
        labels = _check_sdg_list(labels, where)
    if evaluated is not None:
        evaluated = _check_sdg_list(evaluated, where)
        if not evaluated.issuperset(labels or ()):
            outside = sorted(labels - evaluated)
            raise SchemaError(f"{where}: labels {outside} outside the evaluated set")
        if not evaluated:
            raise SchemaError(f"{where}: empty 'evaluated' set on a labeled record")
    return Document.from_text(doc_id, text, labels, evaluated)


def _parse_int_list(raw: str, where: str) -> list[int] | None:
    if raw is None or raw == "":
        return None
    out = []
    for part in raw.split("|"):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(int(part))
        except ValueError:
            raise SchemaError(f"{where}: non-integer SDG id {part!r}") from None
    return out


def read_input(path: str | Path, what: str) -> str:
    """The text of a UTF-8 input file, line ends untranslated and a leading
    byte-order mark dropped. A path holding a NUL byte, which no file system
    takes, is a ``ParamError``; an ``OSError`` is raised as ``IoError`` and
    undecodable bytes as ``SchemaError``."""
    if "\0" in str(path):
        raise ParamError(f"{what} path must not hold a NUL byte: {str(path)!r}")
    try:
        return Path(path).read_bytes().decode("utf-8-sig")
    except OSError as exc:
        raise IoError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{what} {path} is not valid UTF-8: {exc}") from exc


def read_csv_rows(path: str | Path, what: str, required: Sequence[str]) -> list[tuple[str, dict]]:
    """The data rows of a CSV input as (``file:line``, row) pairs, the line
    being the one a row ends on; an empty file has none. Only LF, CR and CRLF
    end a line, and a quoted cell keeps its line breaks. The header names each
    ``required`` column, no column twice and no column empty (as a trailing
    comma would), no row is longer than the header, and a required ``sdg``
    cell is parsed to an int in 1..17."""
    raw, name = read_input(path, what), Path(path).name
    limit = csv.field_size_limit(len(raw))  # no field is longer than the file
    try:
        reader = csv.DictReader(io.StringIO(raw, newline=""))
        header = reader.fieldnames or ()
        if raw.strip() and not set(required) <= set(header):
            raise SchemaError(f"{name}: CSV header must include {','.join(required)}")
        if len(set(header)) < len(header):
            raise SchemaError(f"{name}:{reader.line_num}: CSV header names a column twice")
        if "" in header:
            raise SchemaError(f"{name}:{reader.line_num}: CSV header has an empty column name")
        rows = [(f"{name}:{reader.line_num}", row) for row in reader]
    except csv.Error as exc:
        raise SchemaError(f"{name}: malformed CSV ({exc})") from exc
    finally:
        csv.field_size_limit(limit)  # the limit is process-wide
    for where, row in rows:
        if None in row:  # DictReader files the cells past the header under None
            raise SchemaError(f"{where}: more cells than the header has columns")
        if "sdg" in required:
            try:
                row["sdg"] = int(row["sdg"] or "")
            except ValueError:
                raise SchemaError(f"{where}: non-integer sdg {row['sdg']!r}") from None
            if not 1 <= row["sdg"] <= 17:
                raise SchemaError(f"{where}: SDG id {row['sdg']} outside 1..17")
    return rows


def load_documents(path: str | Path, name: str | None = None) -> Dataset:
    """Load a dataset from CSV (a ``.csv`` suffix) or else JSONL. JSONL lines
    end at LF (a CR before it is ignored), so a text may hold U+2028 or
    U+0085 unescaped."""
    path = Path(path)
    documents: list[Document] = []
    if path.suffix.lower() != ".csv":
        for lineno, line in enumerate(read_input(path, "dataset").split("\n"), start=1):
            if not line.strip():
                continue
            where = f"{path.name}:{lineno}"
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:  # ValueError: also a too-long integer
                raise SchemaError(f"{where}: invalid JSON ({exc})") from exc
            if not isinstance(record, dict):
                raise SchemaError(f"{where}: expected a JSON object")
            documents.append(
                _build_document(
                    record.get("id"),
                    record.get("text"),
                    record.get("labels"),
                    record.get("evaluated"),
                    where,
                )
            )
    else:
        for where, row in read_csv_rows(path, "dataset", ("id", "text")):
            documents.append(
                _build_document(
                    row.get("id"),
                    row.get("text"),
                    _parse_int_list(row.get("labels"), where),
                    _parse_int_list(row.get("evaluated"), where),
                    where,
                )
            )

    return Dataset(name or path.stem, tuple(documents))


def save_documents(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset as JSONL; a round-trip through load_documents is lossless."""
    lines = []
    for doc in dataset.documents:
        record: dict = {"id": doc.id, "text": doc.text}
        if doc.evaluated:
            record["labels"] = sorted(doc.labels)
            record["evaluated"] = sorted(doc.evaluated)
        lines.append(json.dumps(record, ensure_ascii=False, sort_keys=True))
    atomic_write_text(path, "\n".join(lines) + "\n")


def warn(message: str) -> None:
    """Print ``warning: <message>`` on stderr, the one form every warning takes."""
    print(f"warning: {message}", file=sys.stderr)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path`` through a temporary file renamed into
    place, so readers see the old file or the whole new one. The file gets the
    mode ``open`` would give a new one, ``0o666`` less the umask. On any error the
    temporary file is removed; an ``OSError`` is raised as ``IoError``, and
    text that UTF-8 cannot encode (a name holding a lone surrogate, as one
    read from undecodable bytes does) as ``SchemaError``."""
    path = Path(path)
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        os.umask(umask := os.umask(0))  # the umask can only be read by setting it
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")  # mode 0o600
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    except UnicodeEncodeError as exc:
        bad = exc.object[exc.start : exc.end]
        raise SchemaError(f"cannot write {path}: {bad!r} cannot be written as UTF-8") from exc
    finally:
        if tmp is not None:
            os.unlink(tmp)
