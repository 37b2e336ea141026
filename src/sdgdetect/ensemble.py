"""Per-SDG random-forest ensembles over system predictions and length.

Feature layout, built only by `_mask_table` and `_sdg_features`, for training
and scoring alike: one boolean per base system ("system s assigned this
SDG"), then the raw document word count. Rows are weighted 1/N per
labeled dataset (N = documents) and k/N for length-matched synthetic
datasets; k = 0 drops synthetic rows entirely. Each SDG's rows are one
`FeatureSet` of arrays (`X`, labels `y`, weights `w`, each row's `(origin,
doc_id)` key and synthetic flag), which every later step reads.

Trees are grown on weighted bootstraps (rows resampled with replacement,
probability proportional to weight, sample size = row count; each drawn
row then weighs its draw count), with the best split chosen by weighted
Gini impurity decrease among `mtry` features sampled per node. Forest
scores are the mean leaf positive-fraction across trees; an SDG is
assigned at score >= threshold (default 0.5). Row weights must be finite
and non-negative.

A forest is one flat node table. Each tree grows in one generator
(`_grow`) from its own stack and yields every node it searches.
`train_forest` runs the trees of many forests in lockstep and scans each
step's yielded nodes together in padded blocks, every drawn column (0/1
flag or word count) stably sorted. Two budgets bound the memory
(`GROW_ROWS` training rows in the live trees, one tree at least;
`SCAN_CELLS` cells per block, one node at least). Each scan's prefix
sums are `cumsum`s, left to right, and each node's weight totals are
numpy's `.sum()` over its rows, exact for bootstrap draw counts, so a
tree is the one it would be grown alone.
`forest_score` walks the distinct rows of each window of `SCORE_PAIRS` rows
once, in blocks of at most `SCORE_PAIRS` (row, tree) pairs, one row at least;
permutation importance stacks all its copies into one call. Other float sums
run left to right (`bias.sum_in_order`).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .bias import sum_in_order
from .corpus import Dataset, Document, atomic_write_text, read_input
from .errors import (
    DegenerateInputError,
    MissingSystemError,
    ModelCorruptError,
    ModelVersionError,
    NoLabelsError,
    OneClassError,
    ParamError,
    SchemaError,
    SchemaMismatchError,
)
from .evaluation import ConfusionCounts, MetricReport, metrics
from .systems import PredictionMatrix

__all__ = [
    "FeatureSet",
    "ForestParams",
    "Forest",
    "EnsembleModel",
    "CvConfig",
    "CvFoldRecord",
    "CvResult",
    "build_features",
    "train_forest",
    "forest_score",
    "train_model",
    "cross_validate",
    "permutation_importance",
    "model_importance",
    "save_model",
    "load_model",
    "feature_names_for",
]

MODEL_MAGIC = "sdg-ensemble"
MODEL_VERSION = 1

WORD_COUNT_FEATURE = "word_count"


def feature_names_for(system_names: Sequence[str]) -> list[str]:
    if len(set(system_names)) != len(system_names):
        raise SchemaError(f"system names repeat: {list(system_names)}")
    if WORD_COUNT_FEATURE in system_names:
        raise SchemaError(f"system name {WORD_COUNT_FEATURE!r} is the word-count feature's name")
    return list(system_names) + [WORD_COUNT_FEATURE]


@dataclass(frozen=True, eq=False)
class FeatureSet:
    """One SDG's feature rows, one array entry per row, in build order."""

    X: np.ndarray  # float, (rows, systems + 1): a 0/1 flag per system, then the word count
    y: np.ndarray  # float 0/1 labels
    w: np.ndarray  # float weights
    keys: tuple[tuple[str, str], ...]  # (origin, doc_id)
    synthetic: np.ndarray  # bool

    def __len__(self) -> int:
        return len(self.y)


@dataclass(frozen=True)
class ForestParams:
    num_trees: int = 300
    mtry: int | None = None  # default ceil(sqrt(n_features))
    min_leaf_frac: float = 1e-6  # of total training weight
    max_depth: int | None = None
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.num_trees < 1:
            raise ParamError("num_trees must be positive")
        if self.mtry is not None and self.mtry < 1:
            raise ParamError("mtry must be positive")
        if self.max_depth is not None and self.max_depth < 0:
            raise ParamError("max_depth must be non-negative")
        if not 0 <= self.min_leaf_frac < 1:
            raise ParamError("min_leaf_frac must be in [0, 1)")


@dataclass(frozen=True)
class Forest:
    """Every tree of one forest as one flat node table, one array value per node.

    Each tree is stored in pre-order, left subtree first, from its root
    node in ``trees``, so a split's left child is the node after it. A
    split has ``feature >= 0`` and sends a row with ``x[feature] <=
    threshold`` to that next node, any other row to node ``right``. A leaf
    has ``feature == -1``, positive fraction ``p`` and weight ``w``. Unused
    fields hold 0 (``right``: -1).
    """

    trees: tuple[int, ...]  # root node of each tree
    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    p: np.ndarray
    w: np.ndarray
    n_features: int
    params: ForestParams

    def __eq__(self, other):  # the generated one would take an array's truth value
        return isinstance(other, Forest) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )


def _forest(trees: list[list[list]], n_features: int, params: ForestParams) -> Forest:
    """A Forest from each tree's nodes, pre-order, each ``[feature, threshold,
    right, p, w]`` with a split's ``right`` an index into its own tree's nodes."""
    sizes = [len(nodes) for nodes in trees]
    roots = [0, *itertools.accumulate(sizes[:-1])]
    feature, threshold, right, p, w = map(np.array, zip(*itertools.chain(*trees)))
    right = np.where(right >= 0, right + np.repeat(roots, sizes), -1)
    return Forest(tuple(roots), feature, threshold, right, p, w, n_features, params)


# ---------------------------------------------------------------------------
# Feature construction
# ---------------------------------------------------------------------------


def _mask_table(
    matrix: PredictionMatrix, system_names: Sequence[str], dataset: str, docs: Sequence[Document]
) -> np.ndarray:
    """One int64 row per document of ``docs``, from dataset ``dataset``: its
    mask from each named system's column of ``matrix``, then its word count."""
    for s in system_names:
        if s not in matrix.columns:
            raise MissingSystemError(f"system {s!r} has no predictions for dataset {dataset!r}")
    columns = [matrix.columns[s] for s in system_names]
    rows = [[column[doc.id] for column in columns] + [doc.word_count] for doc in docs]
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(system_names) + 1)


def _sdg_features(table: np.ndarray, sdg: int) -> np.ndarray:
    """The feature rows of SDG ``sdg`` from `_mask_table` rows: each mask's bit
    ``sdg - 1``, then the word count, as float64."""
    X = ((table >> (sdg - 1)) & 1).astype(np.float64)
    X[:, -1] = table[:, -1]
    return X


def build_features(
    matrices: Mapping[str, PredictionMatrix],
    system_names: Sequence[str],
    labeled_datasets: Sequence[Dataset],
    synthetic_datasets: Sequence[Dataset],
    k: float,
) -> dict[int, FeatureSet]:
    """Each SDG's `FeatureSet`, with per-dataset 1/N (labeled) or k/N (synthetic) weights.

    Rows follow the labeled datasets' documents, then, when k > 0, the
    synthetic ones', which are negative for all 17 SDGs. A labeled document
    gives a row per SDG in its evaluated set, an unlabeled one (evaluated set
    empty) none. Every system must have a column in every dataset's matrix.
    """
    if k < 0:
        raise ParamError("synthetic weight factor k must be non-negative")
    feature_names_for(system_names)  # a system may not share the word count's feature name
    sources = [(ds, 1.0 / len(ds.documents), False) for ds in labeled_datasets]
    if k > 0:
        sources += [(ds, k / len(ds.documents), True) for ds in synthetic_datasets]
    tables = [np.empty((0, len(system_names) + 1), dtype=np.int64)]  # no rows without sources
    keys, weights, synthetic, evaluated, labels = [], [], [], [], []
    for ds, weight, synth in sources:
        if not synth and not ds.labeled:
            raise NoLabelsError(f"dataset {ds.name!r} has no expert labels")
        docs = ds.documents if synth else [doc for doc in ds.documents if doc.evaluated]
        tables.append(_mask_table(matrices[ds.name], system_names, ds.name, docs))
        keys += [(ds.name, doc.id) for doc in docs]
        weights += [weight] * len(docs)
        synthetic += [synth] * len(docs)
        # a synthetic document: every SDG evaluated, none of them positive
        evaluated += [(1 << 17) - 1 if synth else doc.evaluated_mask for doc in docs]
        labels += [0 if synth else doc.label_mask for doc in docs]
    table = np.concatenate(tables)
    evaluated, labels = np.array(evaluated, dtype=np.int64), np.array(labels, dtype=np.int64)
    synthetic, weights = np.array(synthetic, dtype=bool), np.array(weights)
    features = {}
    for sdg in range(1, 18):
        rows = np.flatnonzero((evaluated >> (sdg - 1)) & 1)
        X = _sdg_features(table[rows], sdg)
        y = ((labels[rows] >> (sdg - 1)) & 1).astype(np.float64)
        row_keys = tuple(keys[i] for i in rows.tolist())
        features[sdg] = FeatureSet(X, y, weights[rows], row_keys, synthetic[rows])
    return features


# ---------------------------------------------------------------------------
# Tree growing
# ---------------------------------------------------------------------------


def _child_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


# Lockstep growth holds the trees live at once to GROW_ROWS training rows in all
# (each live tree keeps a weight and a positive weight per row), one tree at
# least, and each scan block to SCAN_CELLS (segment, row) cells, one node at
# least. forest_score groups SCORE_PAIRS rows at once, and walks SCORE_PAIRS
# (row, tree) pairs at once, one row at least.
GROW_ROWS = 1 << 16
SCAN_CELLS = 1 << 13
SCORE_PAIRS = 1 << 18

Job = tuple[np.ndarray, np.ndarray, np.ndarray, ForestParams]  # X, y, w, params


def _check_training_rows(y: np.ndarray, w: np.ndarray) -> None:
    """Raise the error that growing a forest on labels ``y`` and weights ``w`` raises."""
    if not len(y):
        raise OneClassError("no training rows")
    if not (w >= 0).all() or not math.isfinite(w.sum()):  # a NaN fails w >= 0
        raise ParamError("row weights must be finite and non-negative")
    if (w[y > 0].sum() <= 0) or (w[y == 0].sum() <= 0):
        raise OneClassError("training rows contain only one class")


class _Job:
    """One forest while its trees grow: its columns (one row per feature), its
    draw settings, and each tree's nodes."""

    def __init__(self, index: int, X: np.ndarray, params: ForestParams):
        self.index, self.n, self.params = index, len(X), params  # index: the job's, in order
        self.cols = X.T.copy()
        width = len(self.cols)
        self.mtry = params.mtry if params.mtry is not None else math.ceil(math.sqrt(width))
        # With mtry >= width the draw is a permutation of every feature, which sorting
        # undoes, and the generator is used for nothing after it: it is left out.
        # Keep the branch: trained on one system (width 2, equal to the default
        # mtry), as perfbench's evaluate-wide is, drawing at every node instead
        # grows the same trees in 29-31% more train CPU.
        self.every = np.arange(width) if self.mtry >= width else None
        self.trees: list[list[list]] = [[] for _ in range(params.num_trees)]
        self.growing = params.num_trees


class _Search(NamedTuple):
    """A node to search: its ascending rows, their (weight, positive weight)
    columns and sums, its tree's minimum leaf weight, its drawn features
    ascending, and ``values[j]``, the column of ``features[j]`` over its rows."""

    rows: np.ndarray
    weights: np.ndarray
    total: float
    pos: float
    min_leaf_weight: float
    features: np.ndarray
    values: np.ndarray


def _grow(job: _Job, nodes: list[list], rng, weights: np.ndarray, rows: np.ndarray):
    """Grow one tree on ascending ``rows`` into ``nodes``, pre-order, left subtree first.

    A stack stands in for recursion, so a tree may be as deep as its data
    makes it, and pops nodes in the recursion's order, so every draw from
    ``rng`` is too. Each node to search is yielded, and the split sent back
    (position in its drawn features, threshold, or None for a leaf) is
    written. A split's right child is an index into ``nodes``.
    """
    max_depth = job.params.max_depth
    min_leaf_weight = job.params.min_leaf_frac * float(weights[0].sum())
    stack = [(rows, 0, -1)]  # (rows, depth, split it is the right child of)
    while stack:
        rows, depth, parent = stack.pop()
        if parent >= 0:
            nodes[parent][2] = len(nodes)
        w = weights.take(rows, axis=1)  # take: much faster than fancy indexing
        total, pos = float(w[0].sum()), float(w[1].sum())
        split = None
        if 0.0 < pos / total < 1.0 and (max_depth is None or depth < max_depth):
            if job.every is not None:
                drawn, values = job.every, job.cols.take(rows, axis=1)
            else:
                drawn = np.sort(rng.choice(len(job.cols), size=job.mtry, replace=False))
                values = job.cols[drawn].take(rows, axis=1)
            split = yield _Search(rows, w, total, pos, min_leaf_weight, drawn, values)
        if split is None:
            nodes.append([-1, 0.0, -1, pos / total, total])
            continue
        j, threshold = split
        nodes.append([int(drawn[j]), threshold, -1, 0.0, 0.0])
        left = values[j] <= threshold
        stack.append((rows[~left], depth + 1, len(nodes) - 1))
        stack.append((rows[left], depth + 1, -1))


def _started_trees(jobs: Iterable[Job]):
    """Each job's trees in order, as ``(job, tree)`` with ``tree`` a `_grow`
    generator, each started (generator made, bootstrap drawn) when asked for."""
    width = None
    for index, (X, y, w, params) in enumerate(jobs):
        _check_training_rows(y, w)
        if width is not None and X.shape[1] != width:
            raise ParamError(f"every job must have {width} feature columns, got {X.shape[1]}")
        n, width = X.shape
        job = _Job(index, X, params)
        rows, unit = np.arange(n), np.stack((np.ones(n), y))  # a row of weight 1
        weights = unit * w
        cdf = np.cumsum(w / w.sum())
        cdf /= cdf[-1]
        for t in range(params.num_trees):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((params.seed, t))))
            if params.bootstrap:
                m = np.bincount(cdf.searchsorted(np.sort(rng.random(n)), side="right"), minlength=n)
                rows, weights = np.flatnonzero(m), unit * m
            yield job, _grow(job, job.trees[t], rng, weights, rows)


def _sorted_gains(xs, cw, cp, total, pos, parent, min_leaf_weight) -> np.ndarray:
    """Gain of each cut between neighbours of sorted values ``xs`` (last axis),
    from the running weights ``cw`` and positive weights ``cp``; -inf where the
    cut is not valid."""
    wl, cl = cw[..., :-1], cp[..., :-1]
    wr = total - wl
    pl = np.divide(cl, wl, out=np.zeros(wl.shape), where=wl > 0)
    pr = np.divide(pos - cl, wr, out=np.zeros(wr.shape), where=wr > 0)
    children = 2.0 * pl * (1.0 - pl) * wl + 2.0 * pr * (1.0 - pr) * wr
    valid = (xs[..., :-1] < xs[..., 1:]) & (wl >= min_leaf_weight) & (wr >= min_leaf_weight)
    return np.where(valid, parent - children, -np.inf)


def _scan(block: list[_Search]) -> list[tuple[int, float] | None]:
    """Each node's split ``(position in its drawn features, threshold)``: the
    first drawn feature, ascending, whose best cut's gain is the largest and
    above 1e-12; None if there is none.

    Every (node, drawn feature) segment is a row of one ``(segments x
    rows)`` block of values, each node's rows ascending and padded with NaN
    values of zero weight past its last row. Each row is stably sorted, NaN
    last, and scanned by ``cumsum``, left to right, so padding changes no
    prefix, and no cut before a NaN is valid. A 0/1 flag column's one cut
    thus sums its 0 rows' weights in row order, at threshold 0.5.
    """
    stats, firsts, v, o = [], [], 0, 0  # firsts: each segment's first value, weight column, rows
    for node in block:
        n, p1 = len(node.rows), node.pos / node.total
        parent = 2.0 * p1 * (1.0 - p1) * node.total  # weighted Gini
        for j in range(len(node.features)):
            stats.append((node.total, node.pos, parent, node.min_leaf_weight))
            firsts.append((v + j * n, o, n))
        v, o = v + node.values.size, o + n
    weights = np.concatenate([nd.weights for nd in block] + [np.zeros((2, 1))], axis=1)
    value_cat = np.concatenate([nd.values.ravel() for nd in block] + [np.full(1, np.nan)])
    first = np.array(firsts).T[:, :, None]
    col = np.arange(max(n for *_, n in firsts))
    real = col < first[2]
    values = value_cat.take(np.where(real, first[0] + col, v))
    at = np.where(real, first[1] + col, o)  # each cell's weight column
    order = values.argsort(axis=1, kind="stable")
    r = np.arange(len(firsts))
    cells = order + (r * order.shape[1])[:, None]  # each sorted value's flat cell
    xs = values.take(cells)
    cw, cp = weights.take(at.take(cells), axis=1).cumsum(axis=2)
    gains = _sorted_gains(xs, cw, cp, *np.array(stats).T[:, :, None])
    i = gains.argmax(axis=1)
    gain, threshold = gains[r, i].tolist(), ((xs[r, i] + xs[r, i + 1]) / 2.0).tolist()
    splits, start = [], 0
    for node in block:
        found = gain[start : start + len(node.features)]
        j = found.index(max(found))
        splits.append((j, threshold[start + j]) if found[j] > 1e-12 else None)
        start += len(found)
    return splits


def _best_splits(searched: list[_Search]) -> list[tuple[int, float] | None]:
    """Each searched node's split, scanned in blocks of similar row counts."""
    blocks: list[list[int]] = []
    segments = 0
    for i in sorted(range(len(searched)), key=lambda i: len(searched[i].rows)):
        n, k = len(searched[i].rows), len(searched[i].features)
        if not blocks or (segments + k) * n > SCAN_CELLS:
            blocks.append([])
            segments = 0
        blocks[-1].append(i)
        segments += k
    splits: list[tuple[int, float] | None] = [None] * len(searched)
    for block in blocks:
        for i, split in zip(block, _scan([searched[i] for i in block])):
            splits[i] = split
    return splits


def train_forest(jobs: Iterable[Job]) -> list[Forest]:
    """The forest of each job ``(X, y, w, params)``, in order: rows ``X`` with
    0/1 labels ``y`` and weights ``w``, every job with the same columns.

    A bootstrap tree grows on the rows it drew, weighted by their integer
    draw counts, so its weight sums are exact in any order. The draws are
    those of ``rng.choice(n, size=n, replace=True, p=w / w.sum())``, from
    its CDF built once per forest and searched with the random keys sorted,
    which is faster and gives the same counts.

    Each tree grows in its own `_grow` generator, and the trees of all jobs
    grow in lockstep: at each step every live tree is sent its last split
    and runs to its next node to search, and the searched nodes of the step
    are scanned together (``_best_splits``). So each tree is the one it
    would be grown alone. Jobs are read one at a time, when their first
    tree starts, and a tree starts when none is live or while the live
    trees would hold at most ``GROW_ROWS`` rows with it, so a generator of
    jobs keeps only the growing jobs' arrays.
    """
    forests: dict[int, Forest] = {}  # by job index
    pending = _started_trees(jobs)
    live, splits = [], []  # each live (job, tree), and the split to send it
    live_rows = 0
    started = next(pending, None)
    while live or started is not None:
        while started is not None and (not live or live_rows + started[0].n <= GROW_ROWS):
            live.append(started)
            splits.append(None)  # a generator starts on None
            live_rows += started[0].n
            started = next(pending, None)
        growing, searched = [], []
        for (job, tree), split in zip(live, splits):
            try:
                searched.append(tree.send(split))
                growing.append((job, tree))
            except StopIteration:
                live_rows -= job.n
                job.growing -= 1
                if not job.growing:  # its node lists become arrays
                    forests[job.index] = _forest(job.trees, len(job.cols), job.params)
        live, splits = growing, _best_splits(searched)
    return [forests[i] for i in range(len(forests))]


def _distinct_rows(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of 2-D ``A``, equal when their bytes are, and each row's
    index among them."""
    keys = np.ascontiguousarray(A).view(f"u{A.dtype.itemsize}")  # each value's bytes
    order = np.lexsort(keys.T)
    ordered = keys[order]
    first = np.ones(len(A), dtype=bool)  # a sorted row unlike the one before it
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    group = np.empty(len(A), dtype=np.intp)
    group[order] = first.cumsum() - 1
    return A[order[first]], group


def forest_score(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Each row's mean leaf positive-fraction over all trees, in [0, 1].

    ``X`` is a 2-D float array. A score depends only on its row, so each
    window of ``SCORE_PAIRS`` rows walks only its distinct rows, in blocks of
    at most ``SCORE_PAIRS`` (row, tree) pairs, one row at least, a level per
    step. Each distinct row's leaf values are added tree by tree in stored
    order (one ``cumsum`` per block, numpy's left to right), given to each of
    its rows and divided by the tree count.
    """
    if X.shape[1] != forest.n_features:
        raise SchemaMismatchError(f"expected {forest.n_features} features, got {X.shape[1]}")
    feature, threshold, right = forest.feature, forest.threshold, forest.right
    n_trees = len(forest.trees)
    block = max(1, SCORE_PAIRS // n_trees)
    total = np.empty(len(X))
    for window in range(0, len(X), SCORE_PAIRS):
        distinct, group = _distinct_rows(X[window : window + SCORE_PAIRS])
        sums = np.empty(len(distinct))
        for start in range(0, len(distinct), block):
            rows = distinct[start : start + block]
            node = np.tile(forest.trees, len(rows))  # pair i * n_trees + t: row i in tree t
            pairs = np.flatnonzero(feature[node] >= 0)
            while pairs.size:
                at = node[pairs]
                goes_left = rows[pairs // n_trees, feature[at]] <= threshold[at]
                node[pairs] = np.where(goes_left, at + 1, right[at])
                pairs = pairs[feature[node[pairs]] >= 0]
            leaf_p = forest.p[node].reshape(len(rows), n_trees)
            sums[start : start + block] = leaf_p.cumsum(axis=1)[:, -1]
        total[window : window + SCORE_PAIRS] = sums[group]
    return total / n_trees


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnsembleModel:
    forests: dict[int, Forest]  # one per SDG 1..17
    system_names: tuple[str, ...]
    k: float
    seed: int
    threshold: float = 0.5

    def __post_init__(self):
        if sorted(self.forests) != list(range(1, 18)):
            raise SchemaMismatchError("model must have exactly 17 forests (SDGs 1..17)")

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(feature_names_for(self.system_names))

    def predict_document(
        self, system_predictions: Mapping[str, frozenset[int] | set[int]], word_count: int
    ) -> tuple[set[int], dict[int, float]]:
        """Assigned SDG set and per-SDG scores for one document."""
        if set(system_predictions) != set(self.system_names):
            raise SchemaMismatchError(
                f"model was trained on systems {sorted(self.system_names)}, "
                f"got {sorted(system_predictions)}"
            )
        masks = [
            sum(1 << (g - 1) for g in system_predictions[s] if 1 <= g <= 17)
            for s in self.system_names
        ]
        table = np.array([masks + [word_count]], dtype=np.int64)  # its `_mask_table` row
        scores = {
            sdg: float(forest_score(self.forests[sdg], _sdg_features(table, sdg))[0])
            for sdg in range(1, 18)
        }
        return {sdg for sdg, score in scores.items() if score >= self.threshold}, scores

    def score_documents(self, matrix: PredictionMatrix, dataset: Dataset) -> list[list[float]]:
        """``scores[sdg - 1][i]``: the score of ``dataset``'s document i, from its
        masks in ``matrix``, which must have a column for each of ``system_names``."""
        table = _mask_table(matrix, self.system_names, dataset.name, dataset.documents)
        return [
            forest_score(self.forests[sdg], _sdg_features(table, sdg)).tolist()
            for sdg in range(1, 18)
        ]


def train_model(
    features: Mapping[int, FeatureSet],
    system_names: Sequence[str],
    k: float,
    params: ForestParams,
    threshold: float = 0.5,
) -> EnsembleModel:
    if any(sdg not in features for sdg in range(1, 18)):
        raise OneClassError("no training rows")
    jobs = []
    for sdg in range(1, 18):
        fs, sdg_params = features[sdg], replace(params, seed=_child_seed(params.seed, sdg))
        jobs.append((fs.X, fs.y, fs.w, sdg_params))
    forests = dict(zip(range(1, 18), train_forest(jobs)))
    return EnsembleModel(forests, tuple(system_names), k, params.seed, threshold)


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CvConfig:
    folds: int = 5
    repeats: int = 2
    seed: int = 0
    threshold: float = 0.5

    def __post_init__(self):
        if self.folds < 2:
            raise ParamError("folds must be >= 2")
        if self.repeats < 1:
            raise ParamError("repeats must be >= 1")


@dataclass(frozen=True)
class CvFoldRecord:
    sdg: int
    repeat: int
    fold: int
    counts: ConfusionCounts
    report: MetricReport


@dataclass(frozen=True)
class CvResult:
    records: tuple[CvFoldRecord, ...]
    pooled_counts: ConfusionCounts
    pooled_report: MetricReport
    per_origin_accuracy: dict[str, float]
    mean_origin_accuracy: float | None  # equal dataset weight, labeled origins
    synthetic_fp_rate: float | None
    skipped: tuple[tuple[int, int, int, str], ...]
    fold_assignments: tuple[dict[tuple[str, str], int], ...]  # one per repeat


def _assign_folds(
    doc_info: dict[tuple[str, str], bool], folds: int, rng: np.random.Generator
) -> dict[tuple[str, str], int]:
    """Document-level fold assignment, stratified by (origin, any positive label)."""
    strata: dict[tuple[str, bool], list[tuple[str, str]]] = {}
    for key, positive in doc_info.items():
        strata.setdefault((key[0], positive), []).append(key)
    assignment: dict[tuple[str, str], int] = {}
    for skey in sorted(strata):
        docs = sorted(strata[skey])
        perm = rng.permutation(len(docs))
        for slot, idx in enumerate(perm):
            assignment[docs[int(idx)]] = slot % folds
    return assignment


def cross_validate(
    features: Mapping[int, FeatureSet],
    config: CvConfig,
    params: ForestParams,
) -> CvResult:
    doc_info: dict[tuple[str, str], bool] = {}
    for fs in features.values():
        for key, label in zip(fs.keys, fs.y.astype(bool).tolist()):
            doc_info[key] = doc_info.get(key, False) or label
    if not doc_info:
        raise OneClassError("no rows to cross-validate")

    records: list[CvFoldRecord] = []
    skipped: list[tuple[int, int, int, str]] = []
    assignments: list[dict[tuple[str, str], int]] = []
    index = {origin: i for i, origin in enumerate(sorted({origin for origin, _ in doc_info}))}
    group = {  # each row's group: its origin's index, plus len(index) if synthetic
        sdg: fs.synthetic * len(index) + np.array([index[o] for o, _ in fs.keys], dtype=int)
        for sdg, fs in features.items()
    }
    tally = np.zeros(4 * len(index), dtype=np.int64)  # test rows per (group, predicted right)
    synthetic_positives = 0

    sdgs = sorted(features)
    grown: list[tuple[int, int, int, np.ndarray]] = []  # (sdg, repeat, fold, test rows)
    for rep in range(config.repeats):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((config.seed, rep))))
        assignment = _assign_folds(doc_info, config.folds, rng)
        assignments.append(assignment)
        fold_of = {
            sdg: np.array([assignment[key] for key in features[sdg].keys], dtype=int)
            for sdg in sdgs
        }
        for fold in range(config.folds):
            for sdg in sdgs:
                in_test = fold_of[sdg] == fold
                if not in_test.any():
                    continue
                fs, train = features[sdg], ~in_test
                try:
                    _check_training_rows(fs.y[train], fs.w[train])
                except OneClassError as exc:
                    skipped.append((sdg, rep, fold, str(exc)))
                    continue
                grown.append((sdg, rep, fold, in_test))

    jobs = (  # each fold's training arrays are made when its first tree starts
        (fs.X[~in_test], fs.y[~in_test], fs.w[~in_test],
         replace(params, seed=_child_seed(config.seed, rep, fold, sdg)))
        for sdg, rep, fold, in_test in grown
        for fs in (features[sdg],)
    )
    for (sdg, rep, fold, in_test), forest in zip(grown, train_forest(jobs)):
        fs = features[sdg]
        predicted = forest_score(forest, fs.X[in_test]) >= config.threshold
        actual = fs.y[in_test].astype(bool)
        tn, fn, fp, tp = np.bincount(2 * predicted + actual, minlength=4).tolist()
        counts = ConfusionCounts(tp, fp, tn, fn)
        records.append(CvFoldRecord(sdg, rep, fold, counts, metrics(counts)))
        outcome = 2 * group[sdg][in_test] + (predicted == actual)
        tally += np.bincount(outcome, minlength=len(tally))
        synthetic_positives += int(predicted[fs.synthetic[in_test]].sum())

    pooled = sum((rec.counts for rec in records), ConfusionCounts())
    tally = tally.reshape(2, len(index), 2)  # [synthetic][origin][wrong, right]
    seen, right = tally.sum(axis=(0, 2)).tolist(), tally[:, :, 1].sum(axis=0).tolist()
    per_origin = {o: r / n for o, r, n in zip(index, right, seen) if n}
    labeled = [per_origin[o] for o, n in zip(index, tally[0].sum(axis=1).tolist()) if n]
    synthetic_seen = int(tally[1].sum())
    return CvResult(
        tuple(records),
        pooled,
        metrics(pooled),
        per_origin,
        sum_in_order(labeled) / len(labeled) if labeled else None,
        synthetic_positives / synthetic_seen if synthetic_seen else None,
        tuple(skipped),
        tuple(assignments),
    )


# ---------------------------------------------------------------------------
# Permutation importance
# ---------------------------------------------------------------------------


def permutation_importance(
    forest: Forest,
    features: FeatureSet,
    repetitions: int = 10,
    seed: int = 0,
    threshold: float = 0.5,
) -> list[float]:
    """Per-feature mean drop in weighted accuracy when that column is permuted.

    Every ``rng.permutation`` is drawn feature by feature, then repetition by
    repetition, as permuting and scoring one copy at a time draws them. The
    baseline and every permuted copy are stacked into one ``forest_score``
    call. The drops are taken in draw order and summed left to right, so each
    importance is the one that scoring every permuted copy gives.
    """
    if repetitions < 1:
        raise ParamError("repetitions must be >= 1")
    if not len(features):
        raise ParamError("permutation importance needs evaluation rows")
    X, w = features.X, features.w
    n, width = X.shape
    total_w = float(w.sum())
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed,))))
    stacked = np.tile(X, (1 + width * repetitions, 1, 1))  # the baseline first, unchanged
    for j in range(width * repetitions):  # copy 1 + j permutes column j // repetitions
        stacked[1 + j, :, j // repetitions] = X[rng.permutation(n), j // repetitions]
    scores = forest_score(forest, stacked.reshape(-1, width)).reshape(-1, n)
    hits = (scores >= threshold) == features.y.astype(bool)  # one row per copy
    accuracy = [sum_in_order(w[row].tolist()) / total_w for row in hits]  # weighted
    drops = [accuracy[0] - a for a in accuracy[1:]]
    return [
        sum_in_order(drops[f * repetitions : (f + 1) * repetitions]) / repetitions
        for f in range(width)
    ]


def model_importance(
    model: EnsembleModel,
    features: Mapping[int, FeatureSet],
    repetitions: int = 10,
    seed: int = 0,
) -> dict[int, dict[str, float]]:
    out: dict[int, dict[str, float]] = {}
    for sdg in range(1, 18):
        if not len(features.get(sdg, ())):
            continue
        imps = permutation_importance(
            model.forests[sdg],
            features[sdg],
            repetitions=repetitions,
            seed=_child_seed(seed, sdg),
            threshold=model.threshold,
        )
        out[sdg] = dict(zip(model.feature_names, imps))
    return out


# ---------------------------------------------------------------------------
# Persistence (versioned single-file JSON)
# ---------------------------------------------------------------------------


def _tree_objs(forest: Forest) -> list[dict]:
    """Each tree as nested ``{"f", "t", "l", "r"}`` split and ``{"p", "w"}`` leaf objects."""
    node_arrays = (forest.feature, forest.threshold, forest.right, forest.p, forest.w)
    f, t, right, p, w = (a.tolist() for a in node_arrays)
    objs = [{"p": p[i], "w": w[i]} if f[i] < 0 else {"f": f[i], "t": t[i]} for i in range(len(f))]
    for i, obj in enumerate(objs):
        if f[i] >= 0:
            obj["l"], obj["r"] = objs[i + 1], objs[right[i]]
    return [objs[root] for root in forest.trees]


# The types of the values a model.json field may hold, by the field's annotation:
# a bool is no number, and a float (5.0, or 1e999, which reads as inf) no int.
_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,)}
_JSON_TYPES["int | None"] = (int, type(None))


def _json_value(value, name: str, kind: str):
    """``value``, a float as a float, if it is a value of ``kind``, a key of ``_JSON_TYPES``."""
    if type(value) not in _JSON_TYPES[kind]:
        base = kind.removesuffix(" | None")
        raise ModelCorruptError(f"{name} {value!r} is not {'an' if base == 'int' else 'a'} {base}")
    return float(value) if kind == "float" else value  # OverflowError past the float range


def _forest_from_objs(trees: Sequence, n_features: int, params: ForestParams) -> Forest:
    """The Forest of nested tree objects, each node checked; a stack stands in
    for recursion, so any depth the JSON decoder accepts can be read."""
    tree_nodes: list[list[list]] = []
    for tree in trees:
        nodes: list[list] = []
        tree_nodes.append(nodes)
        stack = [(tree, -1)]  # (node object, the split it is the right child of, or -1)
        while stack:
            obj, parent = stack.pop()
            if parent >= 0:
                nodes[parent][2] = len(nodes)
            if not isinstance(obj, dict):
                raise ModelCorruptError("malformed tree node")
            if "p" in obj:
                p = _json_value(obj["p"], "leaf p", "float")
                w = _json_value(obj["w"], "leaf w", "float")
                if not (0.0 <= p <= 1.0 and 0.0 <= w < math.inf):
                    raise ModelCorruptError(
                        f"leaf p={p} w={w}: p must lie in [0, 1] and w be finite and non-negative"
                    )
                nodes.append([-1, 0.0, -1, p, w])
                continue
            try:
                f = _json_value(obj["f"], "split feature", "int")
                t = _json_value(obj["t"], "split threshold", "float")
                left, right = obj["l"], obj["r"]
            except KeyError as exc:
                raise ModelCorruptError(f"malformed tree node: {exc}") from exc
            if not 0 <= f < n_features:
                raise ModelCorruptError(f"split feature {f} outside 0..{n_features - 1}")
            if not math.isfinite(t):
                raise ModelCorruptError(f"split threshold {t} is not finite")
            nodes.append([f, t, -1, 0.0, 0.0])
            stack += [(right, len(nodes) - 1), (left, -1)]
    return _forest(tree_nodes, n_features, params)


def save_model(model: EnsembleModel, path: str | Path) -> None:
    payload = {
        "magic": MODEL_MAGIC,
        "version": MODEL_VERSION,
        "feature_names": list(model.feature_names),
        "system_names": list(model.system_names),
        "k": model.k,
        "seed": model.seed,
        "threshold": model.threshold,
        "forests": {
            str(sdg): {
                "params": asdict(forest.params),
                "n_features": forest.n_features,
                "trees": _tree_objs(forest),
            }
            for sdg, forest in sorted(model.forests.items())
        },
    }
    try:
        text = json.dumps(payload, sort_keys=True)
    except RecursionError:
        raise DegenerateInputError(
            f"cannot save the model to {path}: a tree nests deeper than JSON can encode; "
            "limit the tree depth with --max-depth"
        ) from None
    atomic_write_text(path, text)


def load_model(path: str | Path) -> EnsembleModel:
    try:
        payload = json.loads(read_input(path, "model"))
    except (ValueError, RecursionError) as exc:  # ValueError: also a too-long integer
        raise ModelCorruptError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("magic") != MODEL_MAGIC:
        raise ModelCorruptError("not an ensemble model file (bad magic)")
    if payload.get("version") != MODEL_VERSION or type(payload["version"]) is not int:
        raise ModelVersionError(
            f"unsupported model version {payload.get('version')!r} (expected {MODEL_VERSION})"
        )
    try:
        feature_names = tuple(payload["feature_names"])
        system_names = tuple(payload["system_names"])
        if list(feature_names) != feature_names_for(system_names):
            raise ModelCorruptError(
                f"feature_names {list(feature_names)} are not the system names plus "
                f"{WORD_COUNT_FEATURE!r}"
            )
        # keyed exactly "1".."17": int() also reads "01", " 1" and "+1", and a
        # second spelling of one SDG would replace its forest
        forest_objs = payload["forests"]
        if not isinstance(forest_objs, dict) or set(forest_objs) != set(map(str, range(1, 18))):
            raise ModelCorruptError('forests must be keyed "1" to "17", one per SDG')
        forests = {}
        for key, fobj in forest_objs.items():
            p = fobj["params"]
            n_features = _json_value(fobj["n_features"], f"forest {key}: n_features", "int")
            if n_features != len(feature_names):
                raise ModelCorruptError(
                    f"forest {key}: n_features is {n_features}, "
                    f"but there are {len(feature_names)} feature names"
                )
            if not fobj["trees"]:
                raise ModelCorruptError(f"forest {key} has no trees")
            params = ForestParams(  # f.type: the annotation's text, under the __future__ import
                **{f.name: _json_value(p[f.name], f"forest {key}: {f.name}", f.type)
                   for f in fields(ForestParams)}
            )
            if params.num_trees != len(fobj["trees"]):
                raise ModelCorruptError(
                    f"forest {key}: num_trees is {params.num_trees}, "
                    f"but {len(fobj['trees'])} trees are stored"
                )
            forests[int(key)] = _forest_from_objs(fobj["trees"], n_features, params)
        threshold = _json_value(payload["threshold"], "threshold", "float")
        if not 0.0 <= threshold <= 1.0:
            raise ModelCorruptError(f"threshold {threshold} outside [0, 1]")
        k = _json_value(payload["k"], "k", "float")
        seed = _json_value(payload["seed"], "seed", "int")
        if not 0.0 <= k <= 10.0:
            raise ModelCorruptError(f"k {k} outside [0, 10]")
        return EnsembleModel(forests, system_names, k, seed, threshold)
    except (KeyError, TypeError, ValueError, OverflowError, ParamError, SchemaError) as exc:
        raise ModelCorruptError(f"malformed model file: {exc}") from exc
