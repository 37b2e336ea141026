"""Feature rows written one at a time, as tests build them, and their
packing into the per-SDG `FeatureSet` arrays that the ensemble reads."""

from collections import namedtuple

import numpy as np

from sdgdetect.ensemble import FeatureSet, forest_score, train_forest

Row = namedtuple(
    "Row", "doc_id origin sdg features label weight synthetic", defaults=(False,)
)


def feature_set(rows) -> FeatureSet:
    """The FeatureSet of ``rows``, one array entry per row in their order."""
    return FeatureSet(
        np.array([r.features for r in rows], dtype=np.float64),
        np.array([r.label for r in rows], dtype=np.float64),
        np.array([r.weight for r in rows], dtype=np.float64),
        tuple((r.origin, r.doc_id) for r in rows),
        np.array([r.synthetic for r in rows], dtype=bool),
    )


def feature_sets(rows_by_sdg) -> dict:
    return {sdg: feature_set(rows) for sdg, rows in rows_by_sdg.items()}


def grow(rows, params):
    """The forest ``train_forest`` grows on the arrays of ``rows``, as its one job."""
    fs = feature_set(rows)
    return train_forest([(fs.X, fs.y, fs.w, params)])[0]


def score(forest, features) -> float:
    """``forest_score`` of the one row ``features``."""
    return float(forest_score(forest, np.array([features], dtype=np.float64))[0])
