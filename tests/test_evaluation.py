import random

import pytest

from sdgdetect.cli import _dataset_profiles
from sdgdetect.corpus import ALL_SDGS, Dataset, Document
from sdgdetect.errors import NoLabelsError, SchemaError, UndefinedMetricError
from sdgdetect.evaluation import (
    ConfusionCounts,
    confusion,
    metrics,
    roc_point,
    sdgs_per_document,
)
from sdgdetect.systems import PredictionMatrix

from oracle import naive_confusion, naive_dataset_profiles, naive_sdgs_per_document


def _labeled(doc_id, labels, evaluated=None):
    return Document.from_text(doc_id, "text", labels, evaluated)


def _matrix(predictions, doc_ids, system="sys"):
    column = dict.fromkeys(doc_ids, 0)
    for doc_id, sdg in predictions:
        column[doc_id] |= 1 << (sdg - 1)
    return PredictionMatrix({system: column})


class TestConfusion:
    def test_restricted_to_evaluated(self):
        ds = Dataset("t", (_labeled("d1", [3], [3]),))
        matrix = _matrix([("d1", 3)], ["d1"])
        assert confusion(matrix, ds, "sys") == ConfusionCounts(tp=1)

    def test_all_seventeen(self):
        ds = Dataset("t", (_labeled("d1", [3]),))
        matrix = _matrix([("d1", 3), ("d1", 5)], ["d1"])
        assert confusion(matrix, ds, "sys") == ConfusionCounts(tp=1, fp=1, tn=15, fn=0)

    def test_unlabeled_raises(self):
        ds = Dataset("t", (Document.from_text("d1", "x"),))
        with pytest.raises(NoLabelsError):
            confusion(_matrix([], ["d1"]), ds, "sys")

    def test_random_fixture_matches_pair_enumeration_oracle(self):
        rng = random.Random(42)
        docs = []
        predictions = []
        for i in range(50):
            evaluated = sorted(rng.sample(sorted(ALL_SDGS), rng.randrange(1, 18)))
            labels = sorted(g for g in evaluated if rng.random() < 0.3)
            docs.append(_labeled(f"d{i}", labels, evaluated))
            for g in range(1, 18):
                if rng.random() < 0.25:
                    predictions.append((f"d{i}", g))
        ds = Dataset("t", tuple(docs))
        matrix = _matrix(predictions, [d.id for d in docs])

        # independent double loop over all evaluated pairs
        pred = set(predictions)
        tp = fp = tn = fn = 0
        for doc in docs:
            for g in doc.evaluated:
                p = (doc.id, g) in pred
                l = g in doc.labels
                tp += p and l
                fp += p and not l
                fn += (not p) and l
                tn += (not p) and (not l)
        assert confusion(matrix, ds, "sys") == ConfusionCounts(tp, fp, tn, fn)

    def test_predictions_outside_evaluated_never_count(self):
        ds = Dataset("t", (_labeled("d1", [2], [2, 3]),))
        base = confusion(_matrix([("d1", 2)], ["d1"]), ds, "sys")
        mutated = confusion(_matrix([("d1", 2), ("d1", 9)], ["d1"]), ds, "sys")
        assert base == mutated


class TestMetrics:
    def test_formula_direct(self):
        r = metrics(ConfusionCounts(tp=8, fp=1, tn=9, fn=2))
        assert r.sensitivity == pytest.approx(0.8)
        assert r.specificity == pytest.approx(0.9)
        assert r.accuracy == pytest.approx(0.85)
        assert r.balanced_accuracy == pytest.approx(0.85)
        assert r.precision == pytest.approx(8 / 9)
        assert r.f1 == pytest.approx(2 * (8 / 9) * 0.8 / (8 / 9 + 0.8))

    def test_undefined_sensitivity(self):
        r = metrics(ConfusionCounts(tn=10))
        assert r.sensitivity is None
        assert r.specificity == 1.0

    def test_all_false_negatives(self):
        r = metrics(ConfusionCounts(fn=5))
        assert r.accuracy == 0.0
        assert r.sensitivity == 0.0
        assert r.f1 is None

    def test_accuracy_identity_and_balanced_swap(self):
        rng = random.Random(5)
        for _ in range(100):
            c = ConfusionCounts(*(rng.randrange(0, 20) for _ in range(4)))
            r = metrics(c)
            if c.total:
                assert r.accuracy == (c.tp + c.tn) / c.total
            swapped = metrics(ConfusionCounts(c.tn, c.fn, c.tp, c.fp))
            if r.balanced_accuracy is not None:
                assert swapped.balanced_accuracy == pytest.approx(r.balanced_accuracy)


class TestRocPoint:
    def test_basic(self):
        r = metrics(ConfusionCounts(tp=8, fp=1, tn=9, fn=2))
        assert roc_point(r) == pytest.approx((0.1, 0.8))

    def test_perfect(self):
        assert roc_point(metrics(ConfusionCounts(tp=5, tn=5))) == (0.0, 1.0)

    def test_chance_diagonal(self):
        assert roc_point(metrics(ConfusionCounts(3, 3, 3, 3))) == (0.5, 0.5)

    def test_undefined(self):
        with pytest.raises(UndefinedMetricError):
            roc_point(metrics(ConfusionCounts(tn=4)))


class TestSdgsPerDocument:
    def test_mean(self):
        docs = (Document.from_text("d1", "a b"), Document.from_text("d2", "c d e f"))
        ds = Dataset("t", docs)
        matrix = _matrix([("d1", 1), ("d1", 3)], ["d1", "d2"])
        mean_sdgs, mean_words = sdgs_per_document(matrix, ds, "sys")
        assert mean_sdgs == 1.0
        assert mean_words == 3.0

    def test_all_false(self):
        ds = Dataset("t", (Document.from_text("d1", "a"),))
        mean_sdgs, _ = sdgs_per_document(_matrix([], ["d1"]), ds, "sys")
        assert mean_sdgs == 0.0

    def test_bounds(self):
        rng = random.Random(3)
        docs = tuple(Document.from_text(f"d{i}", "w") for i in range(10))
        ds = Dataset("t", docs)
        preds = [(d.id, g) for d in docs for g in range(1, 18) if rng.random() < 0.5]
        mean_sdgs, _ = sdgs_per_document(_matrix(preds, [d.id for d in docs]), ds, "sys")
        assert 0.0 <= mean_sdgs <= 17.0


class TestMaskScoringOracle:
    """Mask scoring gives the per-SDG loops' counts (``tests/oracle.py``)."""

    @staticmethod
    def _sdg_set(rng, p):
        return frozenset(g for g in range(1, 18) if rng.random() < p)

    def _case(self, rng):
        docs = []
        for i in range(rng.randrange(1, 12)):
            text = " ".join("w" for _ in range(rng.randrange(0, 6)))
            kind = rng.random()
            if kind < 0.2:
                docs.append(Document.from_text(f"d{i}", text))
            elif kind < 0.4:  # a loaded document: labels within a partial evaluated set
                evaluated = self._sdg_set(rng, 0.5) or frozenset({1})
                labels = frozenset(g for g in evaluated if rng.random() < 0.4)
                docs.append(Document.from_text(f"d{i}", text, labels, evaluated))
            else:  # built directly: labels may lie outside the evaluated set
                evaluated = ALL_SDGS if rng.random() < 0.3 else self._sdg_set(rng, 0.5)
                docs.append(
                    Document(
                        f"d{i}", text, tuple(text.split()), self._sdg_set(rng, 0.3), evaluated
                    )
                )
        columns = {}
        for system in ("sys", "other"):
            if rng.random() < 0.2:
                continue  # a system with no column
            columns[system] = {
                doc.id: sum(1 << (g - 1) for g in self._sdg_set(rng, rng.random())) for doc in docs
            }
        return Dataset("t", tuple(docs)), PredictionMatrix(columns)

    def test_matches_per_sdg_loops(self):
        rng = random.Random(20)
        scored = 0
        for _ in range(800):
            ds, matrix = self._case(rng)
            for system in ("sys", "other", "absent"):
                if system not in matrix.columns:  # a system never run is not scored as all-false
                    with pytest.raises(KeyError):
                        sdgs_per_document(matrix, ds, system)
                    continue
                assert sdgs_per_document(matrix, ds, system) == naive_sdgs_per_document(
                    matrix, ds, system
                )
                if not ds.labeled:
                    with pytest.raises(NoLabelsError):
                        confusion(matrix, ds, system)
                    continue
                scored += 1
                assert confusion(matrix, ds, system) == naive_confusion(matrix, ds, system)
                expert, predicted = naive_dataset_profiles(ds, matrix, system)
                assert _dataset_profiles(ds, matrix, [system]) == (expert, {system: predicted})
        assert scored > 1000

    def test_labels_outside_evaluated_never_count(self):
        doc = Document("d1", "t", ("t",), frozenset({2, 9}), frozenset({2, 3}))
        matrix = _matrix([("d1", 9), ("d1", 3)], ["d1"])
        counts = confusion(matrix, Dataset("t", (doc,)), "sys")
        assert counts == ConfusionCounts(tp=0, fp=1, tn=0, fn=1)

    @pytest.mark.parametrize("labels, evaluated", [({0}, ALL_SDGS), ((), {18}), ((), {-1, 1})])
    def test_sdg_ids_outside_range_are_rejected(self, labels, evaluated):
        with pytest.raises(SchemaError, match="SDG ids must lie in 1..17"):
            Document("d1", "t", ("t",), frozenset(labels), frozenset(evaluated))
