"""Synthetic non-SDG documents sampled i.i.d. from a word-frequency table.

Sampling uses numpy's PCG64 generator. Each document draws from its own
generator seeded with SeedSequence((seed, document_counter)), where the
counter runs over documents in output order; generation is therefore
reproducible regardless of scheduling, and parallelizable per document.
Words are drawn one document at a time as ``Generator.choice`` draws them
with ``p`` set to the table's normalized frequencies: uniform draws looked up
in the table's cumulative distribution, which is built once per table.
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
        try:  # the sum that `probabilities` divides by
            with np.errstate(over="ignore"):
                total = np.asarray(self.counts, dtype=np.float64).sum()
        except OverflowError:  # a count past the float range
            total = np.inf
        if not np.isfinite(total):
            raise SchemaError("frequency table counts sum past the float range")

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


def _generate(
    table: WordFrequencyTable, docs: list[tuple[int, str]], seed: int, name: str
) -> Dataset:
    """One document per ``(length, doc_id)``; the i-th draws from SeedSequence((seed, i))."""
    words = np.asarray(table.words, dtype=object)
    # Generator.choice(words, size, p=probs)'s own draw, its checks and sums of
    # p made once per table instead of once per document
    cdf = table.probabilities.cumsum()
    cdf /= cdf[-1]
    documents = []
    for counter, (length, doc_id) in enumerate(docs):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, counter))))
        tokens = tuple(words[cdf.searchsorted(rng.random(length), side="right")].tolist())
        documents.append(Document(doc_id, " ".join(tokens), tokens))
    return Dataset(name, tuple(documents))


def generate_documents(
    table: WordFrequencyTable, spec: SynthSpec, name: str = "synthetic"
) -> Dataset:
    """docs_per_length i.i.d. documents at each requested length."""
    docs = [(n, f"syn-{n}-{j:05d}") for n in spec.lengths for j in range(spec.docs_per_length)]
    return _generate(table, docs, spec.seed, name)


def generate_matched(
    table: WordFrequencyTable, reference: Dataset, seed: int, name: str | None = None
) -> Dataset:
    """One synthetic document per reference document, word counts preserved."""
    docs = [(ref.word_count, f"syn-{ref.id}") for ref in reference.documents]
    return _generate(table, docs, seed, name or f"synthetic_{reference.name}")
