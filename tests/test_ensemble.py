import functools
import json
import math
import operator
import os
import random
import sys
import tracemalloc
from dataclasses import asdict, astuple, replace
from pathlib import Path

import numpy as np
import pytest
from packed_rows import Row, feature_set, feature_sets, grow, score
from oracle import naive_forest_score, naive_permutation_importance, naive_trees

import sdgdetect.ensemble as ensemble
from sdgdetect.corpus import Dataset, Document, load_documents
from sdgdetect.errors import (
    IoError,
    MissingSystemError,
    ModelCorruptError,
    ModelVersionError,
    OneClassError,
    ParamError,
    SchemaMismatchError,
)
from sdgdetect.ensemble import (
    CvConfig,
    EnsembleModel,
    ForestParams,
    _forest_from_objs,
    _tree_objs,
    build_features,
    cross_validate,
    forest_score,
    load_model,
    permutation_importance,
    save_model,
    train_forest,
    train_model,
)
from sdgdetect.synthgen import generate_matched, load_frequency_table
from sdgdetect.systems import PredictionMatrix, detect, load_system, to_matrix

DATA = Path(__file__).parent / "data"
DEMO = Path(__file__).parent.parent / "demo"


def _row(doc_id, features, label, weight=1.0, origin="ds", sdg=1, synthetic=False):
    return Row(doc_id, origin, sdg, tuple(features), label, weight, synthetic)


def _separable_rows(n=40, rng_seed=0):
    """label = (feature 0 > 0.5); feature 1 is noise."""
    rng = random.Random(rng_seed)
    rows = []
    for i in range(n):
        f0 = 1.0 if i % 2 else 0.0
        rows.append(_row(f"d{i}", (f0, rng.random()), f0 > 0.5))
    return rows


class TestBuildFeatures:
    def _setup(self):
        labeled = Dataset(
            "lab",
            (
                Document.from_text("d1", "alpha beta", [1]),
                Document.from_text("d2", "gamma", []),
            ),
        )
        synth = Dataset(
            "syn",
            (Document.from_text("s1", "x y z"), Document.from_text("s2", "q")),
        )
        matrices = {
            name: PredictionMatrix({s: dict.fromkeys(docs, 0) for s in ("sysA", "sysB")})
            for name, docs in (("lab", ["d1", "d2"]), ("syn", ["s1", "s2"]))
        }
        matrices["lab"].columns["sysA"]["d1"] = 1 << 0
        return matrices, labeled, synth

    def test_weights_and_features(self):
        matrices, labeled, synth = self._setup()
        rows = build_features(matrices, ["sysA", "sysB"], [labeled], [synth], k=3.0)
        sdg1 = rows[1]
        assert sdg1.keys == (("lab", "d1"), ("lab", "d2"), ("syn", "s1"), ("syn", "s2"))
        assert sdg1.synthetic.tolist() == [False, False, True, True]
        assert all(w == pytest.approx(1 / 2) for w in sdg1.w[~sdg1.synthetic])
        assert all(w == pytest.approx(3 / 2) for w in sdg1.w[sdg1.synthetic])
        # d1: (sysA predicted, sysB not, word_count 2); label from the expert set
        assert sdg1.X[0].tolist() == [1.0, 0.0, 2.0]
        assert sdg1.y[0] == 1.0
        assert not sdg1.y[sdg1.synthetic].any()

    def test_k_zero_drops_synthetic(self):
        matrices, labeled, synth = self._setup()
        rows = build_features(matrices, ["sysA", "sysB"], [labeled], [synth], k=0.0)
        assert all(not s for g in rows for s in rows[g].synthetic)

    def test_negative_k_rejected(self):
        matrices, labeled, synth = self._setup()
        with pytest.raises(ParamError):
            build_features(matrices, ["sysA"], [labeled], [synth], k=-1.0)

    def test_missing_system_coverage(self):
        matrices, labeled, synth = self._setup()
        with pytest.raises(MissingSystemError):
            build_features(matrices, ["sysA", "sysC"], [labeled], [synth], k=1.0)

    def test_missing_column_names_the_dataset(self):
        """A matrix with no column for a system is refused, naming the system
        and the dataset; a synthetic dataset's only when it is read (k > 0)."""
        matrices, labeled, synth = self._setup()
        del matrices["syn"].columns["sysB"]
        features = build_features(matrices, ["sysA", "sysB"], [labeled], [synth], k=0.0)
        assert sorted(features) == list(range(1, 18))
        message = "system 'sysB' has no predictions for dataset 'syn'"
        with pytest.raises(MissingSystemError, match=message):
            build_features(matrices, ["sysA", "sysB"], [labeled], [synth], k=1.0)

    def test_evaluated_restriction(self):
        labeled = Dataset(
            "lab",
            (Document.from_text("d1", "t", [2], [2, 5]),),
        )
        m = PredictionMatrix({"sysA": {"d1": 0}})
        rows = build_features({"lab": m}, ["sysA"], [labeled], [], k=0.0)
        present = {g for g in rows if rows[g]}
        assert present == {2, 5}

    @pytest.mark.parametrize("k", [0.0, 1.0])
    def test_demo_rows_match_the_matrix(self, k):
        """Every row of every SDG on the demo, against ``PredictionMatrix.predicted``,
        the word count, the labels and the 1/N and k/N weights, with one document
        judged for two SDGs only and a plain Document that no system's column holds."""
        labeled = load_documents(DEMO / "corpus.jsonl")
        systems = [load_system(DEMO / f"system_{s}.csv") for s in ("alpha", "beta", "gamma")]
        table = load_frequency_table(DEMO / "wordfreq.tsv")
        synthetic = generate_matched(table, labeled, seed=17)
        matrices = {
            ds.name: to_matrix(detect(ds, systems), ds, systems) for ds in (labeled, synthetic)
        }
        names = [s.name for s in systems]
        docs = list(labeled.documents)
        docs[0] = replace(docs[0], evaluated=frozenset({1, 5}))
        docs.append(Document.from_text("plain", "poverty and hunger"))
        labeled = Dataset(labeled.name, tuple(docs))
        assert not any("plain" in column for column in matrices[labeled.name].columns.values())

        features = build_features(matrices, names, [labeled], [synthetic], k)
        assert sorted(features) == list(range(1, 18))
        sources = [(labeled, 1.0 / len(labeled.documents))]
        if k > 0:
            sources.append((synthetic, k / len(synthetic.documents)))
        for sdg in range(1, 18):
            expected = []
            for ds, weight in sources:
                for doc in ds.documents:
                    if ds is synthetic:
                        evaluated, labels = range(1, 18), ()
                    elif doc.evaluated:
                        evaluated, labels = doc.evaluated, doc.labels
                    else:
                        continue
                    if sdg in evaluated:
                        matrix = matrices[ds.name]
                        flags = [float(sdg in matrix.predicted(doc.id, s)) for s in names]
                        x = flags + [float(doc.word_count)]
                        key = (ds.name, doc.id)
                        expected.append((key, x, float(sdg in labels), weight, ds is synthetic))
            fs = features[sdg]
            got = zip(fs.keys, fs.X.tolist(), fs.y.tolist(), fs.w.tolist(), fs.synthetic.tolist())
            assert list(got) == expected
            judged = sum(sdg in d.evaluated for d in docs)
            assert len(fs) == judged + (len(synthetic.documents) if k > 0 else 0)
            assert (labeled.name, "plain") not in fs.keys
            assert ((labeled.name, docs[0].id) in fs.keys) == (sdg in (1, 5))


class TestTrainForest:
    def test_separable_perfect(self):
        rows = _separable_rows()
        forest = grow(rows, ForestParams(num_trees=20, seed=1))
        for r in rows:
            assert (score(forest, r.features) >= 0.5) == r.label

    def test_one_class_raises(self):
        rows = [_row(f"d{i}", (float(i),), True) for i in range(5)]
        with pytest.raises(OneClassError):
            grow(rows, ForestParams(num_trees=1))

    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("weight", [-0.5, -math.inf, math.nan, math.inf])
    def test_invalid_weight_rejected(self, weight, bootstrap):
        rows = _separable_rows()
        rows[3] = _row("d3", rows[3].features, rows[3].label, weight=weight)
        with pytest.raises(ParamError, match="weights must be finite and non-negative"):
            grow(rows, ForestParams(num_trees=2, bootstrap=bootstrap))

    def test_identical_features_single_leaf(self):
        rows = [_row(f"d{i}", (1.0, 2.0), i % 2 == 0) for i in range(10)]
        forest = grow(rows, ForestParams(num_trees=3, bootstrap=False, seed=0))
        assert len(forest.trees) == 3
        for tree in _tree_objs(forest):
            assert set(tree) == {"p", "w"}
            assert tree["p"] == pytest.approx(0.5)

    def test_determinism(self):
        rows = _separable_rows(rng_seed=4)
        a = grow(rows, ForestParams(num_trees=5, seed=9))
        b = grow(rows, ForestParams(num_trees=5, seed=9))
        assert a == b
        c = grow(rows, ForestParams(num_trees=5, seed=10))
        assert c != a


def _brute_force_best_split(X, y, w):
    """Minimize total weighted child Gini over all features and midpoints."""
    total = w.sum()
    best = None
    best_impurity = None
    for f in range(X.shape[1]):
        values = sorted(set(X[:, f]))
        for lo, hi in zip(values, values[1:]):
            t = (lo + hi) / 2
            mask = X[:, f] <= t
            impurity = 0.0
            for side in (mask, ~mask):
                ws = w[side].sum()
                if ws == 0:
                    continue
                p = (w[side] * y[side]).sum() / ws
                impurity += 2 * p * (1 - p) * ws
            if best_impurity is None or impurity < best_impurity - 1e-12:
                best_impurity = impurity
                best = (f, t)
    return best


class TestSplitOracle:
    def _root_split(self, rows, seed=0):
        params = ForestParams(
            num_trees=1, mtry=len(rows[0].features), max_depth=1, bootstrap=False, seed=seed
        )
        root = _tree_objs(grow(rows, params))[0]
        assert "f" in root
        return root

    def test_root_split_matches_brute_force(self):
        rng = random.Random(77)
        for trial in range(10):
            rows = [
                _row(
                    f"d{i}",
                    (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)),
                    rng.random() < 0.5,
                    weight=rng.choice([0.5, 1.0, 2.0]),
                )
                for i in range(200)
            ]
            # guarantee both classes
            rows[0] = _row("d0", rows[0].features, True, rows[0].weight)
            rows[1] = _row("d1", rows[1].features, False, rows[1].weight)
            X = np.array([r.features for r in rows])
            y = np.array([float(r.label) for r in rows])
            w = np.array([r.weight for r in rows])
            expected = _brute_force_best_split(X, y, w)
            root = self._root_split(rows, seed=trial)
            assert root["f"] == expected[0]
            assert root["t"] == pytest.approx(expected[1])

    def test_weight_doubling_invariance(self):
        rng = random.Random(5)
        rows = [
            _row(f"d{i}", (rng.gauss(0, 1), rng.gauss(0, 1)), rng.random() < 0.5)
            for i in range(100)
        ]
        rows[0] = _row("d0", rows[0].features, True)
        rows[1] = _row("d1", rows[1].features, False)
        doubled = [
            _row(r.doc_id, r.features, r.label, weight=2 * r.weight) for r in rows
        ]
        a = self._root_split(rows)
        b = self._root_split(doubled)
        assert (a["f"], a["t"]) == (b["f"], b["t"])
        assert a["l"]["p"] == pytest.approx(b["l"]["p"])
        assert a["r"]["p"] == pytest.approx(b["r"]["p"])


def _oracle_case(rng: random.Random, width=None):
    """Random rows and params over the cases a tree meets: 0/1 flag columns
    (some constant), tied and Gaussian numeric columns, non-unit weights,
    bootstrap on and off, depth and leaf-weight limits. At most 90 rows, so
    every node is small; ``test_large_nodes_at_the_default_budgets`` grows
    large ones. ``width``: the feature count, else 2 to 5."""
    choices = ["flag", "flag", "zeros", "ones", "tied", "gauss"]
    kinds = [rng.choice(choices) for _ in range(width - 1 if width else rng.randint(1, 4))]
    kinds.append(rng.choice(["tied", "gauss", "flag"]))
    n = rng.randint(8, 90)
    weights = [rng.choice([0.1, 1 / 3, 7 / 13, 2.0, 1.0]) for _ in range(n)]
    rows = []
    for i in range(n):
        features = []
        for kind in kinds:
            if kind == "flag":
                features.append(float(rng.random() < 0.4))
            elif kind in ("zeros", "ones"):
                features.append(float(kind == "ones"))
            elif kind == "tied":
                features.append(float(rng.randint(0, 6)))
            else:
                features.append(rng.gauss(0, 1))
        label = rng.random() < (0.5 if kinds[0] == "gauss" else 0.2 + 0.6 * features[0])
        rows.append(_row(f"d{i}", features, label, weight=weights[i]))
    rows[0] = _row("d0", rows[0].features, True, rows[0].weight)
    rows[1] = _row("d1", rows[1].features, False, rows[1].weight)
    params = ForestParams(
        num_trees=rng.randint(1, 3),
        mtry=rng.choice([None, rng.randint(1, len(kinds) + 1)]),
        min_leaf_frac=rng.choice([1e-6, 0.0, 0.05, 0.2]),
        max_depth=rng.choice([None, None, 1, 3]),
        bootstrap=rng.random() < 0.5,
        seed=rng.randrange(1000),
    )
    return rows, params


class TestGrowOracle:
    """The grower's trees equal the reference per-node copy-and-argsort CART's."""

    def test_random_forests_match_reference(self):
        rng = random.Random(2024)
        for _ in range(200):
            rows, params = _oracle_case(rng)
            got = _tree_objs(grow(rows, params))
            assert got == naive_trees(rows, params), params

    def test_zero_weights_and_heavy_duplicates(self):
        """Rows of weight 0.0, which a plain tree keeps (they still move
        thresholds and the flag test) and a bootstrap tree never draws, and
        bootstraps of a few rows, where most rows are drawn many times."""
        rng = random.Random(515)
        for _ in range(150):
            rows, params = _oracle_case(rng)
            if rng.random() < 0.5:
                rows, params = rows[: rng.randint(2, 6)], replace(params, bootstrap=True)
            zero_frac = rng.choice([0.0, 0.3, 0.7])
            rows[2:] = [  # rows 0 and 1 keep each class's weight positive
                _row(r.doc_id, r.features, r.label, 0.0 if rng.random() < zero_frac else r.weight)
                for r in rows[2:]
            ]
            got = _tree_objs(grow(rows, params))
            assert got == naive_trees(rows, params), params

    def test_constant_flag_columns(self):
        # columns 0 and 1 are 0/1 flags that hold one value at every node
        rng = random.Random(3)
        rows = []
        for i in range(60):
            flag = float(i % 3 == 0)
            wc = float(rng.randint(10, 14))
            label = rng.random() < 0.3 + 0.4 * flag
            weight = rng.choice([1 / 3, 2.0])
            rows.append(_row(f"d{i}", (0.0, 1.0, flag, wc), label, weight=weight))
        rows[0] = _row("d0", rows[0].features, True, rows[0].weight)
        rows[1] = _row("d1", rows[1].features, False, rows[1].weight)
        for bootstrap in (False, True):
            params = ForestParams(num_trees=4, mtry=4, bootstrap=bootstrap, seed=9)
            trees = _tree_objs(grow(rows, params))
            assert trees == naive_trees(rows, params)
            assert all("f" in t and t["f"] >= 2 for t in trees)


def _demo_model_rows():
    labeled = load_documents(DEMO / "corpus.jsonl")
    systems = [load_system(DEMO / f"system_{s}.csv") for s in ("alpha", "beta", "gamma")]
    synthetic = generate_matched(load_frequency_table(DEMO / "wordfreq.tsv"), labeled, seed=17)
    matrices = {
        ds.name: to_matrix(detect(ds, systems), ds, systems) for ds in (labeled, synthetic)
    }
    names = [s.name for s in systems]
    return build_features(matrices, names, [labeled], [synthetic], k=1.0), names


class TestLockstepGrowth:
    """``train_forest`` grows all its jobs' trees together: each forest is the
    one its job grows alone, and the reference grower's."""

    @pytest.mark.parametrize("budgets", [None, (1, 1), (150, 60)])
    def test_each_forest_is_the_one_its_job_grows_alone(self, monkeypatch, budgets):
        """Budgets of 1 start one tree at a time and scan each node alone; the
        third set crosses every group and block boundary."""
        if budgets is not None:
            for name, value in zip(("GROW_ROWS", "SCAN_CELLS"), budgets):
                monkeypatch.setattr(ensemble, name, value)
        rng = random.Random(18 if budgets is None else budgets[1])
        for _ in range(25):
            width = rng.randint(1, 5)
            cases = []
            for _ in range(rng.randint(2, 6)):
                rows, params = _oracle_case(rng, width)
                if rng.random() < 0.2:
                    rows = rows[:2]  # one positive and one negative row
                elif rng.random() < 0.3:
                    rows[2:] = [_row(r.doc_id, r.features, r.label, 0.0) for r in rows[2:]]
                cases.append((rows, params))
            sets = [feature_set(rows) for rows, _ in cases]
            jobs = [(fs.X, fs.y, fs.w, params) for fs, (_, params) in zip(sets, cases)]
            forests = train_forest(jobs)
            assert len(forests) == len(cases)
            for (rows, params), forest in zip(cases, forests):
                assert forest == grow(rows, params)
                assert _tree_objs(forest) == naive_trees(rows, params), params

    def test_large_nodes_at_the_default_budgets(self, monkeypatch):
        """Jobs of 300 to 1 200 rows, bootstrap on and off, whose root and
        first nodes hold hundreds of rows: 0/1 flag columns constant over
        every row or within each word-count half, and tied word counts."""
        rng = random.Random(20)
        cases = []
        for bootstrap, mtry in ((True, None), (False, None), (True, 5), (False, 5)):
            n = rng.randint(300, 1200)
            rows = []
            for i in range(n):
                wc = float(rng.randint(10, 400))
                flags = [0.0, 1.0, float(rng.random() < 0.3), float(wc > 200)]
                label = rng.random() < 0.1 + 0.4 * flags[2] + 0.3 * flags[3]
                weight = rng.choice([1 / 3, 2.0, 1.0])
                rows.append(_row(f"d{i}", flags + [wc], label, weight=weight))
            seed = rng.randrange(99)
            params = ForestParams(num_trees=2, mtry=mtry, bootstrap=bootstrap, seed=seed)
            cases.append((rows, params))
        searched = []
        scan = ensemble._scan

        def recorded(block):
            searched.extend(len(node.rows) for node in block)
            return scan(block)

        monkeypatch.setattr(ensemble, "_scan", recorded)
        sets = [feature_set(rows) for rows, _ in cases]
        jobs = [(fs.X, fs.y, fs.w, params) for fs, (_, params) in zip(sets, cases)]
        forests = train_forest(jobs)
        assert max(searched) >= 300
        assert min(searched) >= 2  # a searched node holds rows of both classes
        for (rows, params), forest in zip(cases, forests):
            assert forest == grow(rows, params)
            assert _tree_objs(forest) == naive_trees(rows, params), params

    def test_a_generator_of_jobs_is_read_lazily(self, monkeypatch):
        """With one tree live at a time, job i + 2 is read only after job i's
        forest is assembled, which bounds cross-validation's memory."""
        monkeypatch.setattr(ensemble, "GROW_ROWS", 1)
        rng = random.Random(19)
        jobs = []
        for _ in range(6):
            rows, params = _oracle_case(rng, 3)
            fs = feature_set(rows)
            jobs.append((fs.X, fs.y, fs.w, replace(params, num_trees=1)))
        events = []  # each job's index when it is read, "assembled" per forest
        assemble = ensemble._forest

        def recorded(*args):
            events.append("assembled")
            return assemble(*args)

        def read():
            for i, job in enumerate(jobs):
                events.append(i)
                yield job

        monkeypatch.setattr(ensemble, "_forest", recorded)
        forests = train_forest(read())
        assembled = [at for at, event in enumerate(events) if event == "assembled"]
        assert len(assembled) == len(jobs)
        for i in range(len(jobs) - 2):
            assert events.index(i + 2) > assembled[i], events
        assert forests == train_forest(jobs)

    def test_no_jobs(self):
        assert train_forest([]) == []

    def test_jobs_must_share_their_columns(self):
        fs = feature_set(_separable_rows())
        wider = np.column_stack((fs.X, fs.X[:, :1]))
        params = ForestParams(num_trees=1)
        with pytest.raises(ParamError, match=f"every job must have {fs.X.shape[1]} feature"):
            train_forest([(fs.X, fs.y, fs.w, params), (wider, fs.y, fs.w, params)])


def _golden_forest_rows():
    rng = random.Random(61)
    rows = []
    for i in range(90):
        flags = [float(rng.random() < 0.35) for _ in range(3)]
        label = rng.random() < 0.15 + 0.25 * sum(flags)
        weight = rng.choice([0.1, 1 / 3, 7 / 13, 2.0])
        rows.append(_row(f"d{i}", flags + [float(rng.randint(40, 60))], label, weight=weight))
    return rows


class TestGolden:
    """Trees pinned to files written by an earlier version of the grower.

    Two runs of one version agreeing shows determinism; these show that a
    change to the grower keeps every tree byte for byte.
    """

    def test_demo_model_bytes(self, tmp_path):
        rows, names = _demo_model_rows()
        model = train_model(rows, names, k=1.0, params=ForestParams(num_trees=20, seed=5))
        save_model(model, tmp_path / "model.json")
        assert (tmp_path / "model.json").read_bytes() == (DATA / "golden_model.json").read_bytes()

    def test_weighted_no_bootstrap_forest(self):
        params = ForestParams(num_trees=3, mtry=2, bootstrap=False, seed=8)
        trees = _tree_objs(grow(_golden_forest_rows(), params))
        assert json.dumps(trees, sort_keys=True) == (DATA / "golden_forest.json").read_text()


class TestForestScores:
    """The batch scorer against the recursive oracle over the nested tree
    objects, compared float for float."""

    def test_random_rows_match_oracle(self):
        rng = random.Random(404)
        np_rng = np.random.default_rng(404)
        for _ in range(60):
            rows, params = _oracle_case(rng)
            forest = grow(rows, params)
            n_features = forest.n_features
            X = np.vstack([
                np.array([r.features for r in rows]),
                np_rng.normal(size=(20, n_features)),
                np_rng.integers(0, 2, size=(20, n_features)).astype(float),
            ])
            # a row holding a split's threshold exactly takes the <= branch
            for f, t in zip(forest.feature.tolist(), forest.threshold.tolist()):
                if f >= 0:
                    tie = X[rng.randrange(len(X))].copy()
                    tie[f] = t
                    X = np.vstack([X, tie])
            trees = naive_trees(rows, params)
            expected = [naive_forest_score(trees, x) for x in X.tolist()]
            assert forest_score(forest, X).tolist() == expected
            assert [score(forest, x) for x in X.tolist()] == expected

    def test_one_row_and_no_rows(self):
        rows = _separable_rows(rng_seed=6)
        forest = grow(rows, ForestParams(num_trees=4, seed=2))
        one = np.array([rows[3].features])
        assert forest_score(forest, one).tolist() == [
            naive_forest_score(_tree_objs(forest), rows[3].features)
        ]
        none = forest_score(forest, np.empty((0, 2)))
        assert none.shape == (0,)

    @pytest.mark.parametrize("n", [0, 1, 23])
    def test_blocks_of_any_size_give_the_same_scores(self, monkeypatch, n):
        """Rows are walked in blocks of ``SCORE_PAIRS // trees`` rows, one row at
        least, the last block short; a row's score does not depend on its block."""
        rows = _separable_rows(rng_seed=8)
        params = ForestParams(num_trees=5, seed=4)
        forest = grow(rows, params)
        trees = len(forest.trees)
        X = np.vstack([
            np.array([r.features for r in rows[: n // 2]]).reshape(-1, 2),
            np.random.default_rng(n).normal(0.5, 0.5, size=(n - n // 2, 2)),
        ])
        expected = [naive_forest_score(naive_trees(rows, params), x) for x in X.tolist()]
        whole = forest_score(forest, X).tolist()  # one block at the default budget
        assert whole == expected
        for pairs in (1, trees - 1, trees, trees + 1, 3 * trees):
            monkeypatch.setattr(ensemble, "SCORE_PAIRS", pairs)
            assert forest_score(forest, X).tolist() == whole

    def test_memory_is_bounded_by_the_budget(self, monkeypatch):
        """Beyond the row sums and the scores it returns, a call holds arrays of
        at most ``SCORE_PAIRS`` (row, tree) pairs, however many rows it scores."""
        monkeypatch.setattr(ensemble, "SCORE_PAIRS", 2**10)
        forest = grow(_separable_rows(n=60, rng_seed=5), ForestParams(num_trees=20, seed=1))
        X = np.random.default_rng(5).normal(0.5, 0.5, size=(30_000, 2))
        tracemalloc.start()
        try:
            scores = forest_score(forest, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few int64 and float64 arrays of one value per pair, with room to spare
        assert peak <= 2 * scores.nbytes + 64 * 8 * ensemble.SCORE_PAIRS

    @pytest.mark.parametrize(
        "pairs", [lambda trees: 1, lambda trees: trees, lambda trees: 2**10], ids=["1", "T", "2^10"]
    )
    def test_repeated_nan_and_signed_zero_rows_match_oracle(self, monkeypatch, pairs):
        """Rows repeated many times, rows holding NaN (which every split sends
        right) and rows that differ only in the sign of a zero each score as
        the oracle scores them alone, in windows of any number of rows."""
        rng = random.Random(31)
        rows = [  # feature 0 is -1 or 1, so a split on it falls at 0.0
            _row(f"d{i}", (rng.choice([-1.0, 1.0]), float(rng.randint(-3, 3))), rng.random() < 0.5)
            for i in range(60)
        ]
        params = ForestParams(num_trees=7, seed=3)
        forest = grow(rows, params)
        values = [0.0, -0.0, 1.0, -1.0, 0.5, math.nan]
        distinct = np.array([(a, b) for a in values for b in values])
        X = distinct[np.random.default_rng(31).integers(0, len(distinct), size=500)]
        trees = naive_trees(rows, params)
        expected = [naive_forest_score(trees, x) for x in X.tolist()]
        assert 0.0 in forest.threshold[forest.feature == 0]
        monkeypatch.setattr(ensemble, "SCORE_PAIRS", pairs(len(forest.trees)))
        assert forest_score(forest, X).tolist() == expected

    def test_each_distinct_row_is_walked_once(self):
        """Each walked (row, tree) pair reads one leaf value, and only a
        window's distinct rows are walked: 3 rows repeated 100 times read 3
        leaf values per tree, and score as each row alone."""
        forest = grow(_separable_rows(rng_seed=9), ForestParams(num_trees=4, seed=3))
        reads = []

        class Leaves(np.ndarray):
            def __getitem__(self, index):
                reads.append(np.size(index))
                return np.asarray(self)[index]

        counted = replace(forest, p=forest.p.view(Leaves))
        distinct = np.array([[0.0, 0.2], [1.0, 0.7], [1.0, 0.2]])
        alone = forest_score(forest, distinct).tolist()
        assert forest_score(counted, distinct[np.arange(300) % 3]).tolist() == alone * 100
        assert sum(reads) == 3 * 4

    def test_width_mismatch(self):
        forest = grow(_separable_rows(), ForestParams(num_trees=2))
        with pytest.raises(SchemaMismatchError, match="expected 2 features, got 3"):
            forest_score(forest, np.zeros((4, 3)))
        with pytest.raises(SchemaMismatchError, match="expected 2 features, got 1"):
            score(forest, (0.5,))

    def test_leaf_values_add_left_to_right(self):
        """Each score is its leaves' float sum taken in tree order from 0.0. The
        builtin sum compensates float sums from Python 3.12 on, which gives
        the first row here its correctly rounded sum (math.fsum), not this."""
        left = [0.1, 0.7, 1 / 3, 0.2, 7 / 13, 0.3, 0.9, 0.05]
        right = [1 - p for p in left]
        trees = [
            {"f": 0, "t": 0.5, "l": {"p": p, "w": 1.0}, "r": {"p": q, "w": 1.0}}
            for p, q in zip(left, right)
        ]
        forest = _forest_from_objs(trees, 1, ForestParams(num_trees=len(trees)))
        in_order = [functools.reduce(operator.add, leaves, 0.0) for leaves in (left, right)]
        assert forest_score(forest, np.array([[0.0], [1.0]])).tolist() == [
            total / len(trees) for total in in_order
        ]
        assert in_order[0] != math.fsum(left)


def _depth(forest) -> int:
    depth = [0] * len(forest.feature)
    for i, (f, right) in enumerate(zip(forest.feature.tolist(), forest.right.tolist())):
        if f >= 0:  # pre-order: a split comes before its children, its left child next
            depth[i + 1] = depth[right] = depth[i] + 1
    return max(depth)


@pytest.fixture
def deep_recursion():
    """The oracle grower and scorer recurse once per tree level."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)
    yield
    sys.setrecursionlimit(limit)


class TestDeepTrees:
    """Ordered rows with alternating labels grow one split per row: a tree far
    deeper than the recursion limit, which the stack-based grower grows."""

    @pytest.mark.parametrize("n", [600, 2400])
    def test_ordered_rows_grow_and_score_like_the_oracle(self, n, deep_recursion):
        rows = [_row(f"d{i}", (0.0, float(i)), i % 2 == 1) for i in range(n)]
        params = ForestParams(num_trees=1, bootstrap=False)
        forest = grow(rows, params)
        assert _depth(forest) == n - 1
        X = np.array([r.features for r in rows] + [(0.0, i + 0.5) for i in range(-1, n)])
        trees = naive_trees(rows, params)
        expected = [naive_forest_score(trees, x) for x in X.tolist()]
        assert forest_score(forest, X).tolist() == expected
        assert ((forest_score(forest, X[:n]) >= 0.5) == [r.label for r in rows]).all()


class TestPredictOracle:
    def test_two_tree_manual_walk(self):
        def leaf(p):
            return {"p": p, "w": 1.0}

        tree1 = {"f": 0, "t": 0.5, "l": leaf(0.2), "r": leaf(0.9)}
        tree2 = {
            "f": 1,
            "t": 10.0,
            "l": leaf(0.0),
            "r": {"f": 0, "t": 0.5, "l": leaf(0.4), "r": leaf(1.0)},
        }
        forest = _forest_from_objs([tree1, tree2], 2, ForestParams(num_trees=2))
        # features (0.7, 20): tree1 -> right leaf 0.9; tree2 -> right, then right leaf 1.0
        assert score(forest, (0.7, 20.0)) == pytest.approx((0.9 + 1.0) / 2)
        # features (0.1, 5): tree1 -> 0.2; tree2 -> 0.0
        assert score(forest, (0.1, 5.0)) == pytest.approx(0.1)


def _golden_cv_rows(seed, sdgs, n_docs, n_synthetic):
    """Two labeled origins and a synthetic one; the last SDG has a single
    positive document, so the fold that holds it trains on one class."""
    rng = random.Random(seed)
    docs = [("lab_a", f"a{i}") for i in range(n_docs)] + [("lab_b", f"b{i}") for i in range(n_docs)]
    rows = {}
    for sdg in sdgs:
        rows[sdg] = []
        for j, (origin, doc_id) in enumerate(docs):
            flags = [float(rng.random() < 0.4) for _ in range(2)]
            label = j == 0 if sdg == sdgs[-1] else rng.random() < 0.2 + 0.3 * sum(flags)
            features = flags + [float(rng.randint(20, 80))]
            weight = rng.choice([1 / n_docs, 0.5 / n_docs, 2 / 3])
            rows[sdg].append(_row(doc_id, features, label, weight, origin, sdg))
        for i in range(n_synthetic):
            features = [float(rng.random() < 0.2), 0.0, float(rng.randint(20, 80))]
            rows[sdg].append(
                _row(f"syn-{i}", features, False, 1 / n_synthetic, "synthetic", sdg, True)
            )
    return rows


def _cv_json(cv) -> dict:
    """Every CvResult field; dicts keep their insertion order."""
    return {
        "records": [
            [r.sdg, r.repeat, r.fold, astuple(r.counts), asdict(r.report)] for r in cv.records
        ],
        "pooled_counts": astuple(cv.pooled_counts),
        "pooled_report": asdict(cv.pooled_report),
        "per_origin_accuracy": cv.per_origin_accuracy,
        "mean_origin_accuracy": cv.mean_origin_accuracy,
        "synthetic_fp_rate": cv.synthetic_fp_rate,
        "skipped": cv.skipped,
        "fold_assignments": [
            [[origin, doc_id, fold] for (origin, doc_id), fold in a.items()]
            for a in cv.fold_assignments
        ],
    }


def golden_cv_text() -> str:
    """The text of ``data/golden_cv.json``: two seeded cross-validations.

    Regenerate it, after a deliberate change, with
    ``PYTHONPATH=src:tests python -c "import test_ensemble as t; print(t.golden_cv_text(), end='')"``.
    """
    runs = {
        "a": cross_validate(
            feature_sets(_golden_cv_rows(5, (1, 2, 9), 12, 8)),
            CvConfig(folds=3, repeats=2, seed=4),
            ForestParams(num_trees=4, seed=2),
        ),
        "b": cross_validate(
            feature_sets(_golden_cv_rows(23, (3, 17), 15, 10)),
            CvConfig(folds=4, repeats=2, seed=9, threshold=0.4),
            ForestParams(num_trees=3, mtry=2, seed=6),
        ),
    }
    return json.dumps({name: _cv_json(cv) for name, cv in runs.items()}, indent=1) + "\n"


class TestCrossValidate:
    def test_golden_result(self):
        """Every field of two results, pinned to a file written by an earlier
        version of cross_validate (json writes each float as its repr)."""
        assert golden_cv_text() == (DATA / "golden_cv.json").read_text()
        golden = json.loads((DATA / "golden_cv.json").read_text())
        for run in golden.values():
            assert run["skipped"] and run["synthetic_fp_rate"] is not None
            assert list(run["per_origin_accuracy"]) == ["lab_a", "lab_b", "synthetic"]

    def _rows_by_sdg(self):
        rows = {g: [] for g in range(1, 18)}
        rng = random.Random(8)
        for i in range(60):
            f0 = float(i % 2)
            for g in range(1, 18):
                rows[g].append(
                    _row(f"d{i}", (f0, rng.random()), f0 > 0.5, weight=1 / 60, sdg=g)
                )
        return feature_sets(rows)

    def test_folds_partition_documents(self):
        rows = self._rows_by_sdg()
        result = cross_validate(
            rows, CvConfig(folds=5, repeats=2, seed=0), ForestParams(num_trees=3)
        )
        for assignment in result.fold_assignments:
            assert len(assignment) == 60
            assert set(assignment.values()) == set(range(5))
            folds = {}
            for key, fold in assignment.items():
                folds.setdefault(fold, set()).add(key)
            # pairwise disjoint by construction of a dict; sizes balanced
            sizes = sorted(len(v) for v in folds.values())
            assert sizes[-1] - sizes[0] <= 2

    def test_separable_task_high_accuracy(self):
        result = cross_validate(
            self._rows_by_sdg(),
            CvConfig(folds=5, repeats=1, seed=0),
            ForestParams(num_trees=5),
        )
        assert result.pooled_report.accuracy == 1.0
        assert result.mean_origin_accuracy == 1.0

    def test_determinism(self):
        rows = self._rows_by_sdg()
        cfg = CvConfig(folds=4, repeats=2, seed=3)
        params = ForestParams(num_trees=3)
        assert cross_validate(rows, cfg, params) == cross_validate(rows, cfg, params)

    def test_one_class_folds_skipped(self):
        rows = {g: [] for g in range(1, 18)}
        # SDG 1 has a single positive document: most folds are one-class
        for i in range(10):
            rows[1].append(_row(f"d{i}", (float(i),), i == 0, weight=0.1))
        result = cross_validate(
            feature_sets({1: rows[1]}),
            CvConfig(folds=5, repeats=1, seed=0),
            ForestParams(num_trees=2),
        )
        assert result.skipped
        assert all(s[0] == 1 for s in result.skipped)

    def test_sdg_evaluated_on_one_document(self):
        """With k = 0 and 2 folds, SDG 2 is evaluated on d0 only: the fold that
        holds d0 has no training rows and is skipped, and the other fold has no
        test rows, so it gives neither a record nor a skip."""
        docs = tuple(
            Document.from_text(
                f"d{i}", "poverty " * (i + 1), [1] if i % 2 else [], [1, 2] if i == 0 else [1]
            )
            for i in range(10)
        )
        matrix = PredictionMatrix({"sysA": {doc.id: i % 2 for i, doc in enumerate(docs)}})
        features = build_features({"lab": matrix}, ["sysA"], [Dataset("lab", docs)], [], k=0.0)
        assert features[2].keys == (("lab", "d0"),)
        result = cross_validate(features, CvConfig(folds=2, repeats=1), ForestParams(num_trees=2))
        fold = result.fold_assignments[0]["lab", "d0"]
        assert [s for s in result.skipped if s[0] == 2] == [(2, 0, fold, "no training rows")]
        assert [(r.sdg, r.fold) for r in result.records] == [(1, 0), (1, 1)]

    def test_invalid_weight_raises_instead_of_skipping(self):
        rows = self._rows_by_sdg()
        rows[4].w[7] = math.nan
        with pytest.raises(ParamError, match="weights must be finite and non-negative"):
            cross_validate(rows, CvConfig(folds=3, repeats=1), ForestParams(num_trees=2))

    def test_every_fold_grows_through_train_forest(self, monkeypatch):
        """A trace counts growing by wrapping ``ensemble.train_forest``: the
        jobs of its calls are the recorded folds, one each, in order, and a
        fold skipped as one-class never reaches it."""
        seeds = []
        grower = ensemble.train_forest

        def counted(jobs):
            jobs = list(jobs)
            seeds.extend(params.seed for *_, params in jobs)
            return grower(jobs)

        monkeypatch.setattr(ensemble, "train_forest", counted)
        config = CvConfig(folds=3, repeats=2, seed=4)
        result = cross_validate(
            feature_sets(_golden_cv_rows(5, (1, 2, 9), 12, 8)),
            config,
            ForestParams(num_trees=4, seed=2),
        )
        assert result.records and result.skipped
        assert {message for *_, message in result.skipped} == {
            "training rows contain only one class"
        }

        def fold_seed(sdg, rep, fold):
            return ensemble._child_seed(config.seed, rep, fold, sdg)

        assert seeds == [fold_seed(r.sdg, r.repeat, r.fold) for r in result.records]
        assert not set(seeds) & {fold_seed(*skip[:3]) for skip in result.skipped}

    def test_synthetic_fp_rate_tracked(self):
        rows = {1: []}
        rng = random.Random(2)
        for i in range(40):
            f0 = float(i % 2)
            rows[1].append(_row(f"d{i}", (f0,), f0 > 0.5, weight=1 / 40, origin="lab"))
        for i in range(20):
            rows[1].append(
                _row(f"s{i}", (rng.random(),), False, weight=1 / 20, origin="syn", synthetic=True)
            )
        result = cross_validate(
            feature_sets(rows), CvConfig(folds=4, repeats=1, seed=0), ForestParams(num_trees=5)
        )
        assert result.synthetic_fp_rate is not None
        assert 0.0 <= result.synthetic_fp_rate <= 1.0
        assert set(result.per_origin_accuracy) == {"lab", "syn"}


class TestPermutationImportance:
    def test_informative_feature_dominates_and_unused_is_zero(self):
        rows = _separable_rows(n=60, rng_seed=12)
        forest = grow(
            rows, ForestParams(num_trees=10, mtry=2, bootstrap=False, seed=0)
        )
        imps = permutation_importance(forest, feature_set(rows), repetitions=5, seed=0)
        assert imps[0] > 0.3
        # feature 1 is never split on (feature 0 separates perfectly)
        assert imps[1] == 0.0

    def test_matches_oracle(self):
        """Each permutation scores a fresh copy of the rows in the oracle, and
        every accuracy and mean drop is a left-to-right float sum."""
        rng = random.Random(17)
        for _ in range(8):
            rows, params = _oracle_case(rng)
            forest = grow(rows, params)
            seed, threshold = rng.randrange(100), rng.choice([0.5, 0.3])
            got = permutation_importance(forest, feature_set(rows), 3, seed, threshold)
            trees = naive_trees(rows, params)
            expected = naive_permutation_importance(trees, rows, 3, seed, threshold)
            assert got == expected

    @staticmethod
    def _kind_rows(kinds, n, seed):
        """``n`` rows whose columns are of ``kinds``: "flag" (0/1), "zeros",
        "ones", "two" ({0, 2}) or "tied" (integers 0..6); the last column
        stands where the word count does. Labels follow the column sum."""
        rng = random.Random(seed)
        values = {
            "flag": lambda: float(rng.random() < 0.5),
            "zeros": lambda: 0.0,
            "ones": lambda: 1.0,
            "two": lambda: 2.0 * (rng.random() < 0.5),
            "tied": lambda: float(rng.randint(0, 6)),
        }
        rows = []
        for i in range(n):
            features = [values[kind]() for kind in kinds]
            label = i == 0 or (i != 1 and rng.random() < 0.1 + 0.1 * sum(features))
            rows.append(_row(f"d{i}", features, label, weight=rng.choice([0.5, 1.0, 1 / 3])))
        return rows

    @pytest.mark.parametrize("repetitions", [1, 4])
    @pytest.mark.parametrize(
        "kinds",
        [
            ("flag", "tied", "flag"),  # a word count that holds only 0 and 1
            ("zeros", "zeros", "flag", "tied"),
            ("ones", "flag", "ones", "tied"),
            ("flag", "two", "tied"),
        ],
        ids=["word-count-0-1", "all-0-flags", "all-1-flags", "column-0-2"],
    )
    def test_matches_oracle_on_each_column_kind(self, kinds, repetitions):
        """Whatever values a column holds (0/1 flags, constants, two values or
        ties), each importance is the oracle's."""
        for seed in range(3):
            rows = self._kind_rows(kinds, 40, seed)
            params = ForestParams(num_trees=4, bootstrap=seed != 0, seed=seed)
            forest = grow(rows, params)
            got = permutation_importance(forest, feature_set(rows), repetitions, seed)
            expected = naive_permutation_importance(naive_trees(rows, params), rows, repetitions, seed)
            assert got == expected
            for f, kind in enumerate(kinds):
                if kind in ("zeros", "ones"):
                    assert got[f] == 0.0

    @pytest.mark.parametrize("block_rows", [1, 2, 3])
    def test_matrices_scored_in_one_call(self, monkeypatch, forest_score_calls, block_rows):
        """Whatever the rows of ``forest_score``'s blocks, the baseline and every
        permuted copy of every column are stacked into one call, and the
        importances stay the oracle's."""
        kinds, repetitions, n, trees = ("flag", "two", "flag", "tied"), 4, 30, 3
        rows = self._kind_rows(kinds, n, 5)
        params = ForestParams(num_trees=trees, seed=5)
        forest = grow(rows, params)
        monkeypatch.setattr(ensemble, "SCORE_PAIRS", block_rows * trees + trees - 1)
        got = permutation_importance(forest, feature_set(rows), repetitions, 9)
        assert forest_score_calls == [(1 + len(kinds) * repetitions) * n]
        expected = naive_permutation_importance(naive_trees(rows, params), rows, repetitions, 9)
        assert got == expected

    def test_determinism(self):
        rows = _separable_rows(n=30, rng_seed=3)
        forest = grow(rows, ForestParams(num_trees=5, seed=0))
        a = permutation_importance(forest, feature_set(rows), repetitions=4, seed=11)
        b = permutation_importance(forest, feature_set(rows), repetitions=4, seed=11)
        assert a == b

    def test_importances_are_python_floats(self):
        """Every importance is a ``float``, not a numpy scalar, so its ``repr``
        does not depend on numpy's version."""
        rows = _separable_rows(n=30, rng_seed=3)
        forest = grow(rows, ForestParams(num_trees=5, seed=0))
        values = permutation_importance(forest, feature_set(rows), repetitions=2, seed=1)
        model, model_rows = _full_model()
        by_sdg = ensemble.model_importance(model, feature_sets(model_rows), repetitions=2, seed=1)
        values += [v for imps in by_sdg.values() for v in imps.values()]
        assert len(values) == 2 + 17 * 2
        assert all(type(v) is float for v in values)


def _full_model(seed=0):
    rows = {}
    rng = random.Random(seed)
    for g in range(1, 18):
        rows[g] = [
            _row(f"d{i}", (float(i % 2), float(rng.randrange(5, 500))), i % 2 == 1, sdg=g)
            for i in range(20)
        ]
    model = train_model(
        feature_sets(rows), ["sysA"], k=1.0, params=ForestParams(num_trees=3, seed=seed)
    )
    return model, rows


class TestModel:
    def test_predict_document(self):
        model, _ = _full_model()
        assigned, scores = model.predict_document({"sysA": {1, 4}}, word_count=100)
        assert set(scores) == set(range(1, 18))
        assert assigned == {g for g in scores if scores[g] >= model.threshold}

    def test_predict_rejects_wrong_system_set(self):
        from sdgdetect.errors import SchemaMismatchError

        model, _ = _full_model()
        with pytest.raises(SchemaMismatchError):
            model.predict_document({"other": set()}, word_count=10)

    def test_requires_all_17_forests(self):
        model, _ = _full_model()
        partial = dict(model.forests)
        del partial[9]
        from sdgdetect.errors import SchemaMismatchError

        with pytest.raises(SchemaMismatchError):
            EnsembleModel(partial, model.system_names, 1.0, 0)


@pytest.fixture
def forest_score_calls(monkeypatch):
    """The row count of each call of ``ensemble.forest_score``."""
    calls = []
    scorer = ensemble.forest_score

    def counted(forest, X):
        calls.append(len(X))
        return scorer(forest, X)

    monkeypatch.setattr(ensemble, "forest_score", counted)
    return calls


class TestEveryScoreGoesThroughForestScore:
    """A trace counts scoring by wrapping ``ensemble.forest_score``: every
    step that scores rows reaches it, one call per batch of rows."""

    def test_cross_validate_scores_each_fold_once(self, forest_score_calls):
        result = cross_validate(
            feature_sets(_golden_cv_rows(5, (1, 2, 9), 12, 8)),
            CvConfig(folds=3, repeats=2, seed=4),
            ForestParams(num_trees=4, seed=2),
        )
        assert len(forest_score_calls) == len(result.records)
        assert forest_score_calls == [rec.counts.total for rec in result.records]

    def test_model_importance_scores_baseline_and_each_permutation(self, forest_score_calls):
        """One call per SDG: the baseline, and each of the columns ``sysA`` and
        ``word_count`` permuted once per repetition, 20 rows each."""
        model, rows = _full_model()
        features = feature_sets({g: rows[g] for g in (2, 5, 9)})
        ensemble.model_importance(model, features, repetitions=3, seed=1)
        assert forest_score_calls == [(1 + 2 * 3) * 20] * 3

    def test_score_documents_scores_each_sdg_once(self, forest_score_calls):
        model, _ = _full_model()
        texts = {"d0": "poverty " * 10, "d1": "hunger " * 200, "d2": "water " * 30}
        masks = {"d0": 1, "d1": 5, "d2": 0}
        docs = tuple(Document.from_text(doc_id, text) for doc_id, text in texts.items())
        assert [doc.word_count for doc in docs] == [10, 200, 30]
        scores = model.score_documents(PredictionMatrix({"sysA": masks}), Dataset("ds", docs))
        assert forest_score_calls == [3] * 17
        for sdg, column in enumerate(scores, 1):  # a row: sysA's bit sdg - 1, the word count
            X = [[(masks[doc.id] >> (sdg - 1)) & 1, doc.word_count] for doc in docs]
            assert column == forest_score(model.forests[sdg], np.array(X, float)).tolist()
        forest_score_calls.clear()
        model.predict_document({"sysA": {1, 4}}, word_count=100)
        assert forest_score_calls == [1] * 17


class TestPersistence:
    def test_round_trip(self, tmp_path):
        model, rows = _full_model(seed=5)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded == model
        for g in range(1, 18):
            for r in rows[g][:3]:
                assert score(loaded.forests[g], r.features) == score(
                    model.forests[g], r.features
                )

    def test_failed_write_leaves_no_temp(self, tmp_path, monkeypatch):
        model, _ = _full_model()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(IoError, match="disk full"):
            save_model(model, tmp_path / "model.json")
        assert list(tmp_path.iterdir()) == []

    def test_truncated_file_corrupt(self, tmp_path):
        model, _ = _full_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        with pytest.raises(ModelCorruptError):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"magic": "something-else", "version": 1}')
        with pytest.raises(ModelCorruptError):
            load_model(path)

    @staticmethod
    def _first_split(payload):
        for forest in payload["forests"].values():
            for tree in forest["trees"]:
                if "f" in tree:
                    return tree
        raise AssertionError("model has no split")

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda m: m["forests"]["3"].update(trees=[]), "forest 3 has no trees"),
            (lambda m: m["forests"]["3"].update(n_features=3), "n_features is 3"),
            (lambda m: m.update(feature_names=["sysB", "word_count"]), "feature_names"),
            (lambda m: TestPersistence._first_split(m).update(f=2), "split feature 2"),
            (lambda m: TestPersistence._first_split(m).update(f=-1), "split feature -1"),
        ],
        ids=["no-trees", "n-features", "feature-names", "split-feature-high", "split-feature-negative"],
    )
    def test_structurally_invalid_model_is_corrupt(self, tmp_path, edit, message):
        import json

        model, _ = _full_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelCorruptError, match=message):
            load_model(path)

    def test_tree_deeper_than_the_recursion_limit_loads(self, tmp_path, monkeypatch):
        """Reading a tree does not recurse, so a tree nested far past the
        recursion limit loads whenever the JSON decoder accepts its nesting."""
        model, _ = _full_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        depth = 10 * sys.getrecursionlimit()
        tree = {"p": 1.0, "w": 1.0}
        for _ in range(depth):
            tree = {"f": 0, "t": 0.5, "l": tree, "r": {"p": 0.0, "w": 1.0}}
        payload["forests"]["1"]["trees"] = [tree] * 3
        monkeypatch.setattr(json, "loads", lambda text: payload)
        forest = load_model(path).forests[1]
        assert forest.trees == (0, 2 * depth + 1, 4 * depth + 2)
        assert forest_score(forest, np.array([[0.0, 50.0], [1.0, 50.0]])).tolist() == [1.0, 0.0]

    def test_wrong_version(self, tmp_path):
        model, _ = _full_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        import json

        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelVersionError):
            load_model(path)

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_must_be_an_integer(self, tmp_path, version):
        model, _ = _full_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelVersionError, match=f"unsupported model version {version!r}"):
            load_model(path)
