"""Per-SDG bias, profile-bias correlation, and profile fidelity.

bias_g = (predicted_g - observed_g) / observed_g over the 17 relative
frequencies of assigned labels; undefined (None) where observed_g = 0.
Profile bias correlates a system's bias vectors across dataset pairs
(Pearson, over SDGs defined in both); profile fidelity is the Spearman
rank correlation between expert and system profiles.

Float sums run left to right (`sum_in_order`): from Python 3.12 on, the
builtin `sum` compensates them and would round differently.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import DegenerateInputError

__all__ = [
    "N_SDGS",
    "SdgProfile",
    "BiasVector",
    "profile",
    "bias",
    "pearson",
    "spearman",
    "profile_bias",
    "profile_fidelity",
    "sum_in_order",
]

N_SDGS = 17

BiasVector = tuple  # 17 entries, float or None


def sum_in_order(values: Iterable[float]) -> float:
    """The float sum of ``values`` taken strictly left to right from 0.0."""
    return functools.reduce(operator.add, values, 0.0)


@dataclass(frozen=True)
class SdgProfile:
    proportions: tuple[float, ...]  # 17 shares of assigned labels
    empty: bool = False  # True when no labels existed (all-zero vector)

    def __post_init__(self):
        if len(self.proportions) != N_SDGS:
            raise ValueError("profile must have 17 entries")


def profile(label_sets: Iterable[Iterable[int]]) -> SdgProfile:
    """Relative frequency of each SDG among all label assignments.

    Each assigned label counts one unit, so multi-label documents
    contribute one unit per label.
    """
    counts = [0] * N_SDGS
    total = 0
    for labels in label_sets:
        for g in labels:
            counts[g - 1] += 1
            total += 1
    if total == 0:
        return SdgProfile(tuple(0.0 for _ in range(N_SDGS)), empty=True)
    return SdgProfile(tuple(c / total for c in counts))


def bias(predicted: SdgProfile, observed: SdgProfile) -> BiasVector:
    """(predicted - observed) / observed per SDG; None where observed is 0."""
    out = []
    for p, o in zip(predicted.proportions, observed.proportions):
        out.append((p - o) / o if o > 0 else None)
    return tuple(out)


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    if len(x) != len(y):
        raise DegenerateInputError("correlation inputs must have equal length")
    n = len(x)
    if n < 3:
        raise DegenerateInputError(f"correlation needs at least 3 points, got {n}")
    mx = sum_in_order(x) / n
    my = sum_in_order(y) / n
    sxx = sum_in_order((a - mx) ** 2 for a in x)
    syy = sum_in_order((b - my) ** 2 for b in y)
    if sxx == 0 or syy == 0:
        raise DegenerateInputError("correlation undefined for a constant vector")
    sxy = sum_in_order((a - mx) * (b - my) for a, b in zip(x, y))
    return sxy / math.sqrt(sxx * syy)


def _average_ranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        # ranks are 1-based; ties share the average rank
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation of average ranks (tie-aware)."""
    return pearson(_average_ranks(x), _average_ranks(y))


def profile_bias(
    biases: Mapping[str, BiasVector], pairs: Sequence[tuple[str, str]]
) -> float:
    """Mean Pearson correlation of bias vectors over the given dataset pairs.

    Only SDGs with a defined bias in both datasets enter each correlation;
    fewer than 3 common entries is degenerate.
    """
    if not pairs:
        raise DegenerateInputError("profile bias needs at least one dataset pair")
    rs = []
    for a, b in pairs:
        va, vb = biases[a], biases[b]
        common = [(x, y) for x, y in zip(va, vb) if x is not None and y is not None]
        if len(common) < 3:
            raise DegenerateInputError(
                f"pair ({a}, {b}) has only {len(common)} commonly defined SDG biases"
            )
        rs.append(pearson([c[0] for c in common], [c[1] for c in common]))
    return sum_in_order(rs) / len(rs)


def profile_fidelity(expert: SdgProfile, system: SdgProfile) -> float:
    """Spearman rank correlation between expert and system profiles."""
    return spearman(expert.proportions, system.proportions)
