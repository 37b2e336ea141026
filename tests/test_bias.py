import math
import random

import pytest
from scipy import stats

from sdgdetect.bias import (
    N_SDGS,
    SdgProfile,
    bias,
    pearson,
    profile,
    profile_bias,
    profile_fidelity,
    spearman,
    sum_in_order,
)
from sdgdetect.errors import DegenerateInputError


def _profile(**shares):
    props = [0.0] * N_SDGS
    for key, value in shares.items():
        props[int(key[1:]) - 1] = value
    return SdgProfile(tuple(props))


class TestProfile:
    def test_single_label_per_document(self):
        p = profile([[1], [1], [2], [3]])
        assert p.proportions[0] == 0.5
        assert p.proportions[1] == 0.25
        assert p.proportions[2] == 0.25
        assert not p.empty

    def test_multi_label_counts_each_assignment(self):
        p = profile([[1, 2], [2]])
        assert p.proportions[0] == pytest.approx(1 / 3)
        assert p.proportions[1] == pytest.approx(2 / 3)

    def test_empty(self):
        p = profile([])
        assert p.empty and sum(p.proportions) == 0.0

    def test_sums_to_one(self):
        rng = random.Random(7)
        label_sets = [
            [g for g in range(1, 18) if rng.random() < 0.3] for _ in range(40)
        ]
        p = profile(label_sets)
        if not p.empty:
            assert sum(p.proportions) == pytest.approx(1.0)


class TestBias:
    def test_anchor_twenty_six_thirteen(self):
        predicted = _profile(g13=0.26)
        observed = _profile(g13=0.13)
        v = bias(predicted, observed)
        assert v[12] == pytest.approx(1.0, abs=1e-12)

    def test_perfect_match_is_zero(self):
        p = _profile(g1=0.4, g2=0.6)
        v = bias(p, p)
        assert v[0] == 0.0 and v[1] == 0.0

    def test_undefined_where_observed_zero(self):
        v = bias(_profile(g1=1.0), _profile(g2=1.0))
        assert v[0] is None
        assert v[1] == -1.0

    def test_lower_bound_minus_one(self):
        v = bias(_profile(g2=1.0), _profile(g1=0.5, g2=0.5))
        assert v[0] == -1.0
        assert all(e is None or e >= -1.0 for e in v)


class TestCorrelations:
    def test_pearson_matches_scipy(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randrange(3, 30)
            x = [rng.gauss(0, 1) for _ in range(n)]
            y = [rng.gauss(0, 1) for _ in range(n)]
            assert pearson(x, y) == pytest.approx(stats.pearsonr(x, y)[0], abs=1e-9)

    def test_spearman_matches_scipy_with_ties(self):
        rng = random.Random(19)
        for _ in range(20):
            n = 17
            x = [rng.randrange(0, 6) for _ in range(n)]
            y = [rng.randrange(0, 6) for _ in range(n)]
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert spearman(x, y) == pytest.approx(
                stats.spearmanr(x, y).statistic, abs=1e-9
            )

    def test_affine_invariance(self):
        x = [1.0, 4.0, 2.0, 8.0, 5.0]
        y = [0.3, 0.1, 0.9, 0.2, 0.4]
        assert pearson([3 * a + 7 for a in x], y) == pytest.approx(pearson(x, y))
        assert pearson([-2 * a for a in x], y) == pytest.approx(-pearson(x, y))

    def test_spearman_monotone_invariance(self):
        x = [1.0, 4.0, 2.0, 8.0, 5.0]
        y = [0.3, 0.1, 0.9, 0.2, 0.4]
        assert spearman([math.exp(a) for a in x], y) == pytest.approx(spearman(x, y))

    def test_perfect_rank_agreement(self):
        x = list(range(17))
        assert spearman(x, [2 * v + 1 for v in x]) == pytest.approx(1.0)
        assert spearman(x, list(reversed(x))) == pytest.approx(-1.0)

    @pytest.mark.parametrize(
        "x,y",
        [
            ([1.0, 2.0], [3.0, 4.0]),  # too few points
            ([5.0, 5.0, 5.0], [1.0, 2.0, 3.0]),  # constant vector
            ([1.0, 2.0, 3.0], [1.0, 2.0]),  # length mismatch
        ],
    )
    def test_degenerate(self, x, y):
        with pytest.raises(DegenerateInputError):
            pearson(x, y)

    def test_bounds(self):
        rng = random.Random(23)
        for _ in range(100):
            x = [rng.gauss(0, 1) for _ in range(10)]
            y = [rng.gauss(0, 1) for _ in range(10)]
            assert -1.0 - 1e-12 <= pearson(x, y) <= 1.0 + 1e-12


class TestProfileBias:
    def _biases(self, va, vb):
        pad = lambda v: tuple(v) + (None,) * (N_SDGS - len(v))
        return {"a": pad(va), "b": pad(vb)}

    def test_identical_vectors_perfect_correlation(self):
        biases = self._biases([0.1, 0.5, -0.2, 0.9], [0.1, 0.5, -0.2, 0.9])
        assert profile_bias(biases, [("a", "b")]) == pytest.approx(1.0)

    def test_opposite_vectors(self):
        biases = self._biases([0.1, 0.5, -0.2], [-0.1, -0.5, 0.2])
        assert profile_bias(biases, [("a", "b")]) == pytest.approx(-1.0)

    def test_undefined_entries_excluded(self):
        biases = self._biases([0.1, None, 0.5, -0.2], [0.1, 3.0, 0.5, -0.2])
        assert profile_bias(biases, [("a", "b")]) == pytest.approx(1.0)

    def test_fewer_than_three_common_degenerate(self):
        biases = self._biases([0.1, None, 0.5], [0.1, 3.0, None])
        with pytest.raises(DegenerateInputError):
            profile_bias(biases, [("a", "b")])

    def test_mean_over_pairs(self):
        pad = lambda v: tuple(v) + (None,) * (N_SDGS - len(v))
        biases = {
            "a": pad([0.1, 0.5, -0.2]),
            "b": pad([0.1, 0.5, -0.2]),
            "c": pad([-0.1, -0.5, 0.2]),
        }
        r = profile_bias(biases, [("a", "b"), ("a", "c")])
        assert r == pytest.approx(0.0, abs=1e-12)

    def test_no_pairs_degenerate(self):
        with pytest.raises(DegenerateInputError):
            profile_bias({}, [])


class TestProfileFidelity:
    def test_same_ordering(self):
        expert = _profile(g1=0.5, g2=0.3, g3=0.2)
        system = _profile(g1=0.6, g2=0.25, g3=0.15)
        # shared zeros tie but the ranked SDGs agree, so rho is high
        assert profile_fidelity(expert, system) > 0.9

    def test_equal_profiles_perfect(self):
        rng = random.Random(31)
        raw = [rng.random() for _ in range(N_SDGS)]
        total = sum(raw)
        p = SdgProfile(tuple(v / total for v in raw))
        assert profile_fidelity(p, p) == pytest.approx(1.0)

    def test_constant_profile_degenerate(self):
        uniform = SdgProfile(tuple(1 / N_SDGS for _ in range(N_SDGS)))
        varied = _profile(g1=0.5, g2=0.5)
        with pytest.raises(DegenerateInputError):
            profile_fidelity(uniform, varied)


class TestSumsInOrder:
    """Float sums run left to right from 0.0, as the builtin ``sum`` adds
    them up to Python 3.11; from 3.12 on it compensates, and the inputs
    here are ones where that rounds differently."""

    def test_sum_in_order(self):
        assert sum_in_order([0.1] * 10) == 0.9999999999999999
        assert math.fsum([0.1] * 10) == 1.0
        assert sum_in_order([1e16, 1.0, -1e16]) == 0.0
        assert sum_in_order(iter([0.5, 0.25])) == 0.75
        assert sum_in_order([]) == 0.0

    def test_pearson(self):
        x, y = [0.74, -0.42, 0.92, 0.08], [0.36, -0.59, 0.88, 0.38]
        assert pearson(x, y) == 0.8926916018753116  # compensated sums: ...118
        x, y = [-0.4, -0.28, -0.67, -0.71, -0.87, -0.4], [0.21, -0.99, 0.36, -0.32, -0.38, 0.64]
        assert pearson(x, y) == -0.018558859388014496  # compensated sums: ...4597

    def test_profile_bias(self):
        biases = {
            "a": (-0.6, 0.0, -0.3, -0.7),
            "b": (-0.4, 0.4, -0.8, 0.4),
            "c": (-0.4, 0.6, 0.3, 0.4),
        }
        pairs = [("a", "b"), ("a", "c"), ("b", "c")]
        assert profile_bias(biases, pairs) == 0.38380095345145504  # compensated: ...455
