"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest tests/test_acceptance.py -v``; each test prints
``ACCEPTANCE <criterion>: PASS`` on success (visible with -s or -rA).
"""

import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from scipy import stats

from sdgdetect.bias import SdgProfile, bias, pearson, spearman
from sdgdetect.cli import main
from sdgdetect.corpus import Dataset
from sdgdetect.ensemble import (
    CvConfig,
    ForestParams,
    build_features,
    cross_validate,
    model_importance,
    train_model,
)
from sdgdetect.evaluation import ConfusionCounts, metrics, sdgs_per_document
from sdgdetect.query import match_query
from sdgdetect.synthgen import SynthSpec, generate_documents, load_frequency_table
from sdgdetect.systems import detect, to_matrix

from packed_rows import Row, feature_sets, grow, score
from oracle import naive_eval, random_query, random_tokens

DEMO = Path(__file__).parent.parent / "demo"


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException as exc:
        print(f"ACCEPTANCE {name}: FAIL ({exc})", file=sys.stderr)
        raise
    print(f"ACCEPTANCE {name}: PASS", file=sys.stderr)


def test_c01_query_matcher_oracle_equivalence():
    with criterion("1 query-matcher oracle equivalence"):
        start = time.monotonic()
        rng = random.Random(2024)
        for _ in range(1000):
            ast = random_query(rng, 4)
            tokens = random_tokens(rng, max_len=50)
            assert match_query(ast, tokens).matched == naive_eval(ast, tokens)
        assert time.monotonic() - start < 10.0


def test_c02_metric_exactness_on_fixtures():
    F = Fraction
    fixtures = [
        # (counts, sensitivity, specificity, accuracy, balanced, precision, f1)
        ((8, 1, 9, 2), F(8, 10), F(9, 10), F(17, 20), F(17, 20), F(8, 9), F(16, 19)),
        ((5, 0, 5, 0), F(1), F(1), F(1), F(1), F(1), F(1)),
        ((0, 5, 5, 0), None, F(1, 2), F(1, 2), None, F(0, 1), None),
        ((0, 0, 10, 0), None, F(1), F(1), None, None, None),
        ((0, 0, 0, 7), F(0), None, F(0), None, None, None),
        ((3, 3, 3, 3), F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1, 2)),
        ((1, 0, 0, 0), F(1), None, F(1), None, F(1), F(1)),
        ((0, 1, 0, 0), None, F(0), F(0), None, F(0), None),
        ((7, 2, 88, 3), F(7, 10), F(88, 90), F(95, 100), F(151, 180), F(7, 9), F(14, 19)),
        ((2, 8, 80, 10), F(2, 12), F(80, 88), F(82, 100), F(71, 132), F(2, 10), F(2, 11)),
    ]
    with criterion("2 metric exactness (10 fixtures, tol 1e-12)"):
        for counts, sens, spec, acc, bal, prec, f1 in fixtures:
            r = metrics(ConfusionCounts(*counts))
            for got, expected in zip(
                (r.sensitivity, r.specificity, r.accuracy, r.balanced_accuracy, r.precision, r.f1),
                (sens, spec, acc, bal, prec, f1),
            ):
                if expected is None:
                    assert got is None, (counts, got)
                else:
                    assert got is not None and abs(got - float(expected)) <= 1e-12, (
                        counts,
                        got,
                        expected,
                    )


def test_c03_bias_formula_anchor():
    with criterion("3 bias anchor (.26 vs .13 -> 1.00)"):
        predicted = SdgProfile((0.26,) + (0.0,) * 16)
        observed = SdgProfile((0.13,) + (0.0,) * 16)
        value = bias(predicted, observed)[0]
        assert abs(value - 1.0) <= 1e-12


def test_c04_correlation_correctness():
    with criterion("4 correlation vs independent oracle (tol 1e-9)"):
        rng = random.Random(99)
        checked = 0
        while checked < 20:
            x = [rng.randrange(0, 7) + 0.5 * rng.randrange(0, 2) for _ in range(17)]
            y = [rng.randrange(0, 7) + 0.5 * rng.randrange(0, 2) for _ in range(17)]
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert abs(pearson(x, y) - stats.pearsonr(x, y)[0]) <= 1e-9
            assert abs(spearman(x, y) - stats.spearmanr(x, y).statistic) <= 1e-9
            checked += 1
        ranks = [float(i) for i in range(17)]
        assert abs(spearman(ranks, [2 * v + 3 for v in ranks]) - 1.0) <= 1e-12
        assert abs(spearman(ranks, list(reversed(ranks))) + 1.0) <= 1e-12


def test_c05_synthetic_generator_fidelity():
    with criterion("5 synthetic generator fidelity"):
        start = time.monotonic()
        from sdgdetect.synthgen import WordFrequencyTable

        table = WordFrequencyTable(("a", "b", "c", "d"), (3, 1, 1, 1))
        spec = SynthSpec((100_000,), 1, seed=31)
        ds = generate_documents(table, spec)
        tokens = ds.documents[0].tokens
        n = len(tokens)
        expected = {"a": 0.5, "b": 1 / 6, "c": 1 / 6, "d": 1 / 6}
        for word, p in expected.items():
            assert abs(tokens.count(word) / n - p) <= 0.01, word
        again = generate_documents(table, spec)
        assert again == ds  # byte-identical corpora from identical seeds
        assert time.monotonic() - start < 5.0


def test_c06_false_positive_growth_with_length():
    with criterion("6 mean SDGs/doc non-decreasing in length"):
        start = time.monotonic()
        table = load_frequency_table(DEMO / "wordfreq.tsv")
        from sdgdetect.systems import load_system

        system = load_system(DEMO / "system_alpha.csv")
        means = []
        for length, count in ((10, 1000), (100, 1000), (1000, 1000), (10000, 100)):
            ds = generate_documents(
                table, SynthSpec((length,), count, seed=17), name=f"len{length}"
            )
            matrix = to_matrix(detect(ds, [system]), ds, [system])
            mean_sdgs, _ = sdgs_per_document(matrix, ds, system.name)
            means.append(mean_sdgs)
        assert all(a <= b for a, b in zip(means, means[1:])), means
        assert means[-1] > 0.0
        assert time.monotonic() - start < 60.0


def _rows_for_task(labels, feature_fn, n_sdgs=1, weight=None):
    rows = {}
    n = len(labels)
    w = weight if weight is not None else 1.0 / n
    for g in range(1, n_sdgs + 1):
        rows[g] = [
            Row(f"d{i}", "task", g, tuple(feature_fn(i)), bool(labels[i]), w)
            for i in range(n)
        ]
    return feature_sets(rows)


def test_c07_ensemble_learnability():
    with criterion("7 ensemble learnability"):
        start = time.monotonic()
        rng = random.Random(7)
        n = 400
        # label equals system A's prediction exactly; 70/30 class balance
        a_pred = [1 if rng.random() < 0.7 else 0 for i in range(n)]
        rows = _rows_for_task(a_pred, lambda i: (float(a_pred[i]), 100.0))
        params = ForestParams(num_trees=50, mtry=2, max_depth=2, seed=0)
        cv = cross_validate(rows, CvConfig(folds=5, repeats=2, seed=0), params)
        assert cv.pooled_report.accuracy >= 0.95, cv.pooled_report.accuracy

        permuted = a_pred[:]
        rng.shuffle(permuted)
        rows_p = _rows_for_task(permuted, lambda i: (float(a_pred[i]), 100.0))
        cv_p = cross_validate(rows_p, CvConfig(folds=5, repeats=2, seed=0), params)
        majority = max(sum(permuted), n - sum(permuted)) / n
        assert abs(cv_p.pooled_report.accuracy - majority) <= 0.05, (
            cv_p.pooled_report.accuracy,
            majority,
        )
        assert time.monotonic() - start < 60.0


def test_c08_ensemble_beats_individual_systems():
    with criterion("8 ensemble OOF accuracy beats every 60%-correct system"):
        n = 300
        labels = [i % 2 for i in range(n)]
        slices = {"A": range(0, 180), "B": range(60, 240), "C": range(120, 300)}

        def sys_pred(name, i):
            return labels[i] if i in slices[name] else 1 - labels[i]

        def feature_fn(i):
            return (
                float(sys_pred("A", i)),
                float(sys_pred("B", i)),
                float(sys_pred("C", i)),
                float(i),  # word count stands in for the learnable region
            )

        rows = _rows_for_task(labels, feature_fn)
        cv = cross_validate(
            rows,
            CvConfig(folds=5, repeats=2, seed=1),
            ForestParams(num_trees=100, seed=1),
        )
        oof = cv.pooled_report.accuracy
        for name in slices:
            individual = sum(sys_pred(name, i) == labels[i] for i in range(n)) / n
            assert individual == pytest.approx(0.6)
            assert oof > individual, (name, oof, individual)


def test_c09_k_weighting_contract():
    with criterion("9 k-weighting contract"):
        # k = 0 drops synthetic rows entirely (checked via build_features)
        from sdgdetect.corpus import Document
        from sdgdetect.systems import PredictionMatrix

        labeled = Dataset(
            "lab",
            (
                Document.from_text("d1", "x", [1]),
                Document.from_text("d2", "y", []),
            ),
        )
        synth = Dataset("syn", (Document.from_text("s1", "z"),))
        matrices = {
            name: PredictionMatrix({"sysA": dict.fromkeys(ids, 0)})
            for name, ids in (("lab", ["d1", "d2"]), ("syn", ["s1"]))
        }
        rows0 = build_features(matrices, ["sysA"], [labeled], [synth], k=0.0)
        assert all(not s for g in rows0 for s in rows0[g].synthetic)

        # FP(10) <= FP(0) on held-out synthetic rows under a label conflict:
        # labeled rows say feature A implies positive; synthetic rows with
        # A drawn at random are always negative.
        rng = random.Random(3)
        labeled_rows = [
            Row(f"d{i}", "lab", 1, (float(i % 2), 100.0), i % 2 == 1, 1 / 200)
            for i in range(200)
        ]
        synth_train = [
            Row(f"s{i}", "syn", 1, (float(rng.random() < 0.5), 100.0), False, 1.0, True)
            for i in range(200)
        ]
        held_out = [
            Row(f"h{i}", "syn", 1, (float(rng.random() < 0.5), 100.0), False, 1.0, True)
            for i in range(200)
        ]

        def fp_rate(k):
            train = labeled_rows + (
                [Row(r.doc_id, r.origin, r.sdg, r.features, r.label, k / 200, True)
                 for r in synth_train]
                if k > 0
                else []
            )
            forest = grow(train, ForestParams(num_trees=30, seed=5))
            fp = sum(score(forest, r.features) >= 0.5 for r in held_out)
            return fp / len(held_out)

        rates = {k: fp_rate(k) for k in (0, 1, 5, 10)}
        assert rates[10] <= rates[0], rates


def test_c10_permutation_importance_sanity():
    with criterion("10 permutation importance sanity"):
        rng = random.Random(13)
        n = 120
        labels = [i % 2 for i in range(n)]

        def feature_fn(i):
            # feature 0 copies the label; 1..2 are noise; 3 is constant (unused)
            return (float(labels[i]), rng.random(), rng.random(), 1.0)

        rows = _rows_for_task(labels, feature_fn, n_sdgs=17)
        model = train_model(
            rows, ["f0", "f1", "f2"], k=0.0, params=ForestParams(num_trees=20, mtry=4, seed=2)
        )
        imps = model_importance(model, rows, repetitions=5, seed=0)
        for sdg in range(1, 18):
            by_feature = imps[sdg]
            names = list(by_feature)
            label_copy = names[0]
            others = names[1:]
            assert all(by_feature[label_copy] > by_feature[o] for o in others), by_feature
            # the constant feature is never split on and scores exactly 0
            assert by_feature[names[3]] == 0.0, by_feature


def test_c11_end_to_end_reproducibility(tmp_path):
    with criterion("11 end-to-end reproducibility"):
        start = time.monotonic()

        def pipeline(root: Path):
            # identical command strings both runs: relative outputs, cwd = root
            import os

            corpus = str(DEMO / "corpus.jsonl")
            systems = []
            for s in ("system_alpha.csv", "system_beta.csv", "system_gamma.csv"):
                systems += ["--systems", str(DEMO / s)]
            freq = str(DEMO / "wordfreq.tsv")
            cwd = os.getcwd()
            root.mkdir(parents=True, exist_ok=True)
            os.chdir(root)
            try:
                assert main(["detect", "--dataset", corpus, *systems, "--out-dir", "detect"]) == 0
                matrix = "detect/matrix.json"
                assert main(
                    ["evaluate", "--dataset", corpus, "--matrix", matrix,
                     "--out-dir", "evaluate"]
                ) == 0
                assert main(
                    ["bias", "--dataset", corpus, "--matrix", matrix, "--out-dir", "bias"]
                ) == 0
                assert main(
                    ["synth", "--freq-table", freq, "--lengths", "10,50",
                     "--docs-per-length", "5", "--out-dir", "synth"]
                ) == 0
                assert main(
                    ["train", "--dataset", corpus, *systems, "--freq-table", freq,
                     "--trees", "25", "--folds", "3", "--repeats", "1",
                     "--k", "1", "--k-grid", "0,1", "--out-dir", "train"]
                ) == 0
                assert main(
                    ["importance", "--model", "train/model.json",
                     "--dataset", corpus, *systems, "--freq-table", freq,
                     "--repetitions", "3", "--out-dir", "importance"]
                ) == 0
            finally:
                os.chdir(cwd)

        run1, run2 = tmp_path / "run1", tmp_path / "run2"
        pipeline(run1)
        pipeline(run2)

        files1 = sorted(p.relative_to(run1) for p in run1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(run2) for p in run2.rglob("*") if p.is_file())
        assert files1 == files2 and files1
        for rel in files1:
            assert (run1 / rel).read_bytes() == (run2 / rel).read_bytes(), rel
        # every stage wrote a complete manifest
        for stage in ("detect", "evaluate", "bias", "synth", "train", "importance"):
            manifest = run1 / stage / "manifest.json"
            assert manifest.exists(), stage
            import json

            payload = json.loads(manifest.read_text())
            assert {"tool", "version", "command", "seed", "params", "inputs"} <= set(payload)
            assert all(len(h) == 64 for h in payload["inputs"].values())
        assert time.monotonic() - start < 120.0
