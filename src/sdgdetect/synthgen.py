"""Synthetic non-SDG documents sampled i.i.d. from a word-frequency table.

Sampling uses numpy's PCG64 generator. Each document draws from its own
generator seeded with SeedSequence((seed, document_counter)), where the
counter runs over documents in output order; generation is therefore
reproducible regardless of scheduling, and parallelizable per document.
Words are drawn one document at a time with ``Generator.choice`` over the
table's normalized frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Dataset, Document, read_input, tokenize
from .errors import ParamError, SchemaError

__all__ = [
    "WordFrequencyTable",
    "SynthSpec",
    "load_frequency_table",
    "generate_documents",
    "generate_matched",
]


@dataclass(frozen=True)
class WordFrequencyTable:
    words: tuple[str, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.words:
            raise SchemaError("frequency table is empty")
        if len(set(self.words)) != len(self.words):
            raise SchemaError("frequency table has duplicate words")
        if any(c <= 0 for c in self.counts):
            raise SchemaError("frequency table counts must be positive")

    @property
    def probabilities(self) -> np.ndarray:
        counts = np.asarray(self.counts, dtype=np.float64)
        return counts / counts.sum()


@dataclass(frozen=True)
class SynthSpec:
    lengths: tuple[int, ...]
    docs_per_length: int
    seed: int

    def __post_init__(self):
        if not self.lengths or any(not 1 <= n <= 10**7 for n in self.lengths):
            raise ParamError("lengths must be in [1, 10^7]")
        if self.docs_per_length < 1:
            raise ParamError("docs_per_length must be positive")


def load_frequency_table(path: str | Path) -> WordFrequencyTable:
    """Read a TSV ``word<TAB>count`` table; '#' lines are comments.

    Words are lowercased and must each be exactly one token (see
    ``corpus.tokenize``); duplicate rows are merged by summing counts.
    """
    path = Path(path)
    merged: dict[str, int] = {}
    for lineno, line in enumerate(read_input(path, "frequency table").split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise SchemaError(f"{path.name}:{lineno}: expected 'word<TAB>count'")
        word = parts[0].strip().lower()
        if not word:
            raise SchemaError(f"{path.name}:{lineno}: empty word")
        if tokenize(word) != [word]:
            # a word of several tokens would not survive a save/load round trip
            raise SchemaError(f"{path.name}:{lineno}: word {word!r} is not a single token")
        try:
            count = int(parts[1])
        except ValueError:
            raise SchemaError(f"{path.name}:{lineno}: non-integer count {parts[1]!r}") from None
        if count <= 0:
            raise SchemaError(f"{path.name}:{lineno}: non-positive count {count}")
        merged[word] = merged.get(word, 0) + count
    if not merged:
        raise SchemaError(f"{path.name}: no entries")
    words = tuple(merged)
    return WordFrequencyTable(words, tuple(merged[w] for w in words))


def _sample_document(
    table_words: np.ndarray, probs: np.ndarray, length: int, seed: int, counter: int, doc_id: str
) -> Document:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, counter))))
    tokens = tuple(rng.choice(table_words, size=length, p=probs).tolist())
    return Document(doc_id, " ".join(tokens), tokens)


def generate_documents(
    table: WordFrequencyTable, spec: SynthSpec, name: str = "synthetic"
) -> Dataset:
    """docs_per_length i.i.d. documents at each requested length."""
    words = np.asarray(table.words, dtype=object)
    probs = table.probabilities
    documents = []
    counter = 0
    for length in spec.lengths:
        for j in range(spec.docs_per_length):
            documents.append(
                _sample_document(
                    words, probs, length, spec.seed, counter, f"syn-{length}-{j:05d}"
                )
            )
            counter += 1
    return Dataset(name, tuple(documents), kind="synthetic")


def generate_matched(
    table: WordFrequencyTable, reference: Dataset, seed: int, name: str | None = None
) -> Dataset:
    """One synthetic document per reference document, word counts preserved."""
    words = np.asarray(table.words, dtype=object)
    probs = table.probabilities
    documents = []
    for counter, ref in enumerate(reference.documents):
        documents.append(
            _sample_document(words, probs, ref.word_count, seed, counter, f"syn-{ref.id}")
        )
    return Dataset(name or f"synthetic_{reference.name}", tuple(documents), kind="synthetic")
