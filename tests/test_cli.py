import argparse
import csv
import inspect
import json
import os
from pathlib import Path

import pytest

from sdgdetect.cli import TABLES, build_parser, main
from sdgdetect.ensemble import CvConfig, ForestParams, model_importance, train_model
from sdgdetect.query import _MAX_NESTING

DEMO = Path(__file__).parent.parent / "demo"


@pytest.fixture
def corpus(tmp_path):
    p = tmp_path / "corpus.jsonl"
    p.write_text(
        '{"id":"d1","text":"end poverty and hunger now","labels":[1,2]}\n'
        '{"id":"d2","text":"clean water for all","labels":[6]}\n'
        '{"id":"d3","text":"nothing relevant here","labels":[]}\n'
    )
    return str(p)


@pytest.fixture
def system(tmp_path):
    p = tmp_path / "sys.csv"
    p.write_text(
        "system,sdg,query_id,query\n"
        "demo,1,q1,poverty\n"
        "demo,2,q2,hunger\n"
        'demo,6,q3,"clean NEAR/2 water"\n'
    )
    return str(p)


def _detect(corpus, system, out, extra=()):
    return main(
        ["detect", "--dataset", corpus, "--systems", system, "--out-dir", str(out), *extra]
    )


def _fail_rename(monkeypatch):
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)


class TestDetect:
    def test_outputs(self, corpus, system, tmp_path):
        out = tmp_path / "out"
        assert _detect(corpus, system, out) == 0
        for name in ("hits.csv", "keyword_frequencies.csv", "matrix.json", "manifest.json"):
            assert (out / name).exists()
        hits = (out / "hits.csv").read_text().splitlines()
        assert hits[0] == "dataset,doc_id,system,sdg,query_id,term,positions"
        assert any("d1,demo,1,q1,poverty" in line for line in hits)
        matrix = json.loads((out / "matrix.json").read_text())
        assert matrix["systems"] == ["demo"]
        assert ["d1", "demo", 1] in matrix["datasets"]["corpus"]["assignments"]

    def test_rerun_byte_identical(self, corpus, system, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        _detect(corpus, system, out1)
        _detect(corpus, system, out2)
        for name in ("hits.csv", "keyword_frequencies.csv", "matrix.json", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_hit_with_no_positive_literal(self, tmp_path):
        """A pure NOT query's hit is one hits.csv row with no term and no
        positions; keyword_frequencies.csv counts only positive literals."""
        system = tmp_path / "not.csv"
        system.write_text(
            "system,sdg,query_id,query\nnot,3,n1,NOT zzzqq\nnot,3,n2,health AND NOT zzzqq\n"
        )
        out = tmp_path / "out"
        assert _detect(str(DEMO / "corpus.jsonl"), str(system), out) == 0
        with open(out / "hits.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        pure = [row for row in rows if row["query_id"] == "n1"]
        assert len(pure) == 30
        assert len({row["doc_id"] for row in pure}) == 30
        assert all(row["term"] == row["positions"] == "" for row in pure)
        health = [row for row in rows if row["query_id"] == "n2"]
        assert health and all(row["term"] == "health" and row["positions"] for row in health)
        assert len(rows) == len(pure) + len(health)
        count = sum(len(row["positions"].split("|")) for row in health)
        freq = (out / "keyword_frequencies.csv").read_text().splitlines()
        assert freq == ["dataset,system,term,count", f"corpus,not,health,{count}"]

    def test_carriage_return_cell_round_trips(self, system, tmp_path):
        corpus = tmp_path / "cr.jsonl"
        corpus.write_text('{"id":"d\\r1","text":"end poverty"}\n{"id":"d2","text":"poverty"}\n')
        out = tmp_path / "out"
        assert _detect(str(corpus), system, out) == 0
        with open(out / "hits.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[1:] == [
            ["cr", "d\r1", "demo", "1", "q1", "poverty", "1"],
            ["cr", "d2", "demo", "1", "q1", "poverty", "0"],
        ]

    def test_failed_table_write_leaves_no_temp(self, corpus, system, tmp_path, monkeypatch, capsys):
        _fail_rename(monkeypatch)
        out = tmp_path / "out"
        assert _detect(corpus, system, out) == 3
        assert "error [E_IO]: cannot write" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_id_not_writable_as_utf8_is_3(self, system, tmp_path, capsys):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text('{"id":"d\\ud800","text":"end poverty"}\n')
        out = tmp_path / "out"
        assert _detect(str(corpus), system, out) == 3
        assert "E_SCHEMA" in capsys.readouterr().err
        assert list(out.glob("*.tmp")) == []
        assert not (out / "manifest.json").exists()

    def test_json_mirror(self, corpus, system, tmp_path):
        out = tmp_path / "out"
        assert _detect(corpus, system, out, ["--json"]) == 0
        payload = json.loads((out / "hits.json").read_text())
        assert isinstance(payload, list) and payload

    def test_external_predictions(self, corpus, system, tmp_path):
        ext = tmp_path / "ext.csv"
        ext.write_text("doc_id,sdg\nd3,15\n")
        out = tmp_path / "out"
        assert _detect(corpus, system, out, ["--external", f"black={ext}"]) == 0
        matrix = json.loads((out / "matrix.json").read_text())
        assert "black" in matrix["systems"]
        assert ["d3", "black", 15] in matrix["datasets"]["corpus"]["assignments"]

    @pytest.mark.parametrize(
        "names", [["demo"], ["black", "black"]], ids=["same-as-system", "given-twice"]
    )
    def test_external_name_collision_is_3(self, corpus, system, tmp_path, capsys, names):
        ext = tmp_path / "ext.csv"
        ext.write_text("doc_id,sdg\nd3,15\n")
        extra = [arg for name in names for arg in ("--external", f"{name}={ext}")]
        out = tmp_path / "out"
        assert _detect(corpus, system, out, extra) == 3
        err = capsys.readouterr().err
        assert "E_SCHEMA" in err and "system names collide" in err
        assert not (out / "matrix.json").exists()

    @pytest.mark.parametrize(
        "item",
        ["=ext.csv", " =ext.csv", "ext.csv", "ext=", "ext= "],
        ids=["empty", "blank", "no-sign", "empty-path", "blank-path"],
    )
    def test_external_without_name_is_2(self, corpus, system, tmp_path, capsys, item):
        (tmp_path / "ext.csv").write_text("doc_id,sdg\nd3,15\n")
        out = tmp_path / "out"
        assert _detect(corpus, system, out, ["--external", item]) == 2
        assert capsys.readouterr().err == "error [E_PARAMS]: --external expects NAME=PATH\n"
        assert not (out / "matrix.json").exists()

    def test_second_run_in_process_keeps_no_flag_of_the_first(self, corpus, system, tmp_path):
        ext = tmp_path / "ext.csv"
        ext.write_text("doc_id,sdg\nd3,15\n")
        first, second = tmp_path / "first", tmp_path / "second"
        extra = ["--json", "--external", f"black={ext}", "--lenient-external"]
        assert _detect(corpus, system, first, extra) == 0
        assert _detect(corpus, system, second) == 0
        assert (first / "hits.json").exists()
        assert sorted(p.name for p in second.glob("*.json")) == ["manifest.json", "matrix.json"]
        params = json.loads((second / "manifest.json").read_text())["params"]
        assert (params["external"], params["lenient_external"]) == ([], False)
        assert json.loads((second / "matrix.json").read_text())["systems"] == ["demo"]

    def test_manifest_contents(self, corpus, system, tmp_path):
        out = tmp_path / "out"
        _detect(corpus, system, out, ["--seed", "42"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "sdgdetect"
        assert manifest["command"] == "detect"
        assert manifest["seed"] == 42
        assert corpus in manifest["inputs"]


DEMO_SYSTEMS = [
    arg for s in ("alpha", "beta", "gamma") for arg in ("--systems", str(DEMO / f"system_{s}.csv"))
]


@pytest.fixture(scope="module")
def demo_commands(tmp_path_factory):
    """Each command's arguments over the demo inputs, with a matrix and model made for them."""
    root = tmp_path_factory.mktemp("demo-inputs")
    data, freq = ["--dataset", str(DEMO / "corpus.jsonl")], str(DEMO / "wordfreq.tsv")
    matrix, model = str(root / "detect" / "matrix.json"), str(root / "train" / "model.json")
    commands = {
        "detect": ["detect", *data, *DEMO_SYSTEMS],
        "evaluate": ["evaluate", *data, "--matrix", matrix],
        "bias": ["bias", *data, "--matrix", matrix],
        "synth": ["synth", "--freq-table", freq, "--lengths", "10,20", "--docs-per-length", "5"],
        "train": ["train", *data, *DEMO_SYSTEMS, "--freq-table", freq, "--trees", "5",
                  "--folds", "2", "--repeats", "1"],
        "predict": ["predict", "--model", model, *data, *DEMO_SYSTEMS],
        "importance": ["importance", "--model", model, *data, *DEMO_SYSTEMS, "--freq-table", freq,
                       "--repetitions", "1"],
    }
    for name in ("detect", "train"):
        assert main([*commands[name], "--out-dir", str(root / name)]) == 0
    return commands


class TestFailedRunLeavesNoManifest:
    """Every command writes at least two files; when the second fails, the run
    exits 3 and leaves the first file only: no manifest.json, no *.tmp."""

    @pytest.mark.parametrize("mirror", [[], ["--json"]], ids=["csv", "json"])
    @pytest.mark.parametrize(
        "command", ["detect", "evaluate", "bias", "synth", "train", "predict", "importance"]
    )
    def test_second_write_fails(
        self, demo_commands, command, mirror, tmp_path, monkeypatch, capsys
    ):
        real_replace, targets = os.replace, []

        def replace(src, dst):
            targets.append(dst)
            if len(targets) == 2:
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        out = tmp_path / "out"
        assert main([*demo_commands[command], *mirror, "--out-dir", str(out)]) == 3
        assert f"error [E_IO]: cannot write {targets[1]}: disk full" in capsys.readouterr().err
        assert len(targets) == 2
        assert not (out / "manifest.json").exists()
        assert sorted(out.iterdir()) == [Path(targets[0])]


    def test_failed_rerun_removes_the_earlier_manifest(
        self, corpus, system, tmp_path, monkeypatch, capsys
    ):
        other = tmp_path / "other.csv"
        other.write_text("system,sdg,query_id,query\nother,6,q1,water\n")
        out = tmp_path / "out"
        assert _detect(corpus, system, out) == 0
        real_replace, targets = os.replace, []

        def replace(src, dst):
            targets.append(dst)
            if len(targets) == 2:
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        assert _detect(corpus, system, out, ["--systems", str(other)]) == 3
        assert f"error [E_IO]: cannot write {targets[1]}: disk full" in capsys.readouterr().err
        assert json.loads((out / "matrix.json").read_text())["systems"] == ["demo", "other"]
        assert not (out / "manifest.json").exists()
        assert list(out.glob("*.tmp")) == []


def test_parser_defaults_match_the_library():
    """build_parser restates ensemble.py's defaults, since importing them would
    load numpy for every command; a default changed on one side fails here."""
    inputs = ["--dataset", "d", "--systems", "s", "--freq-table", "f"]
    train = build_parser().parse_args(["train", *inputs])
    forest, cv = ForestParams(), CvConfig()
    assert (train.trees, train.mtry, train.max_depth, train.min_leaf_frac) == (
        forest.num_trees, forest.mtry, forest.max_depth, forest.min_leaf_frac
    )  # fmt: skip
    assert (train.folds, train.repeats, train.threshold) == (cv.folds, cv.repeats, cv.threshold)
    assert train.threshold == inspect.signature(train_model).parameters["threshold"].default
    importance = build_parser().parse_args(["importance", "--model", "m", *inputs])
    repetitions = inspect.signature(model_importance).parameters["repetitions"].default
    assert importance.repetitions == repetitions


class TestManifestParams:
    """A manifest's params are every flag its command took, defaults included."""

    GLOBAL = {"help", "seed", "out_dir", "json", "config"}
    RECORDED_AS = {"dataset": "datasets", "exclude_pair": "exclude_pairs"}

    @pytest.mark.parametrize(
        "command", ["detect", "evaluate", "bias", "synth", "train", "predict", "importance"]
    )
    def test_every_flag_is_recorded(self, demo_commands, command, tmp_path):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices[command]._actions} - self.GLOBAL
        want = {self.RECORDED_AS.get(d, d) for d in dests}
        if command == "bias":
            want.add("pairs")
        out = tmp_path / "out"
        assert main([*demo_commands[command], "--out-dir", str(out)]) == 0
        assert sorted(json.loads((out / "manifest.json").read_text())["params"]) == sorted(want)


class TestEvaluateAndBias:
    def _matrix(self, corpus, system, tmp_path):
        out = tmp_path / "det"
        _detect(corpus, system, out)
        return str(out / "matrix.json")

    def test_evaluate(self, corpus, system, tmp_path):
        matrix = self._matrix(corpus, system, tmp_path)
        out = tmp_path / "ev"
        rc = main(
            ["evaluate", "--dataset", corpus, "--matrix", matrix, "--out-dir", str(out)]
        )
        assert rc == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == (
            "dataset,system,tp,fp,tn,fn,sensitivity,specificity,"
            "accuracy,balanced_accuracy,precision,f1"
        )
        # the toy system finds every label and nothing else
        assert lines[1].startswith("corpus,demo,3,0,48,0,1,1,1,1,1,1")
        assert (out / "roc.csv").exists() and (out / "sdgs_per_doc.csv").exists()

    def test_bias(self, corpus, system, tmp_path):
        matrix = self._matrix(corpus, system, tmp_path)
        out = tmp_path / "bias"
        rc = main(["bias", "--dataset", corpus, "--matrix", matrix, "--out-dir", str(out)])
        assert rc == 0
        bias_lines = (out / "bias.csv").read_text().splitlines()
        assert bias_lines[0] == "system,dataset,sdg,observed,predicted,bias"
        # perfect agreement: defined biases are 0, undefined cells are empty
        row_sdg1 = next(l for l in bias_lines[1:] if l.startswith("demo,corpus,1,"))
        assert row_sdg1.endswith(",0")
        row_sdg5 = next(l for l in bias_lines[1:] if l.startswith("demo,corpus,5,"))
        assert row_sdg5.endswith(",")
        assert (out / "correlations.csv").exists() and (out / "profiles.csv").exists()

    def test_matrix_listing_no_system(self, corpus, tmp_path):
        """A matrix.json with ``"systems": []`` scores nothing: evaluate and bias
        exit 0 and every table is its header alone, profiles.csv included."""
        matrix = tmp_path / "matrix.json"
        matrix.write_text('{"systems": [], "datasets": {"corpus": {"assignments": []}}}')
        tables = {"evaluate": ["metrics", "roc", "sdgs_per_doc"],
                  "bias": ["bias", "correlations", "profiles"]}  # fmt: skip
        for command, names in tables.items():
            out = tmp_path / command
            argv = [command, "--dataset", corpus, "--matrix", str(matrix), "--out-dir", str(out)]
            assert main(argv) == 0
            assert sorted(p.stem for p in out.glob("*.csv")) == names
            for name in names:
                assert (out / f"{name}.csv").read_text() == ",".join(TABLES[name]) + "\n"

    @pytest.mark.parametrize("pair", ["nosuch:other", "corpus:nosuch", "nosuch:corpus"])
    def test_exclude_pair_naming_no_dataset_is_2(self, corpus, system, tmp_path, capsys, pair):
        matrix = self._matrix(corpus, system, tmp_path)
        out = tmp_path / "bias"
        argv = ["bias", "--dataset", corpus, "--matrix", matrix, "--out-dir", str(out)]
        capsys.readouterr()
        assert main([*argv, "--exclude-pair", pair]) == 2
        assert capsys.readouterr().err == (
            "error [E_PARAMS]: --exclude-pair: no dataset named 'nosuch' in this run\n"
        )
        assert not out.exists() or not any(out.iterdir())
        assert main([*argv, "--exclude-pair", "corpus:corpus"]) == 0


class TestMatrixFileValidation:
    """A malformed matrix.json assignment is a schema error (exit 3), never a crash."""

    def _run(self, corpus, system, tmp_path, capsys, assignment=None, systems=None):
        _detect(corpus, system, tmp_path / "det")
        matrix = tmp_path / "det" / "matrix.json"
        payload = json.loads(matrix.read_text())
        if assignment is not None:
            payload["datasets"]["corpus"]["assignments"].append(assignment)
        if systems is not None:
            payload["systems"] = systems
        matrix.write_text(json.dumps(payload))
        capsys.readouterr()
        for command in ("evaluate", "bias"):
            out = str(tmp_path / command)
            rc = main([command, "--dataset", corpus, "--matrix", str(matrix), "--out-dir", out])
            assert rc == 3
            err = capsys.readouterr().err
            assert "E_SCHEMA" in err and "Traceback" not in err

    def test_two_element_assignment(self, corpus, system, tmp_path, capsys):
        self._run(corpus, system, tmp_path, capsys, ["d1", "demo"])

    def test_unknown_doc_id(self, corpus, system, tmp_path, capsys):
        self._run(corpus, system, tmp_path, capsys, ["d9", "demo", 1])

    def test_system_not_listed(self, corpus, system, tmp_path, capsys):
        self._run(corpus, system, tmp_path, capsys, ["d1", "ghost", 1])

    @pytest.mark.parametrize("sdg", ["3", 3.0, True, None])
    def test_non_integer_sdg(self, corpus, system, tmp_path, capsys, sdg):
        self._run(corpus, system, tmp_path, capsys, ["d1", "demo", sdg])

    @pytest.mark.parametrize("sdg", [0, 18])
    def test_sdg_out_of_range(self, corpus, system, tmp_path, capsys, sdg):
        self._run(corpus, system, tmp_path, capsys, ["d1", "demo", sdg])

    def test_system_listed_twice(self, corpus, system, tmp_path, capsys):
        self._run(corpus, system, tmp_path, capsys, systems=["demo", "demo"])


class TestSynth:
    def test_lengths(self, tmp_path):
        freq = tmp_path / "freq.tsv"
        freq.write_text("alpha\t3\nbeta\t1\n")
        out = tmp_path / "out"
        rc = main(
            [
                "synth",
                "--freq-table",
                str(freq),
                "--lengths",
                "5,10",
                "--docs-per-length",
                "2",
                "--out-dir",
                str(out),
                "--seed",
                "7",
            ]
        )
        assert rc == 0
        lines = (out / "synthetic.jsonl").read_text().splitlines()
        assert len(lines) == 4
        assert len(json.loads(lines[0])["text"].split()) == 5
        assert len(json.loads(lines[-1])["text"].split()) == 10

    def test_non_integer_length_is_param_error(self, tmp_path, capsys):
        freq = tmp_path / "freq.tsv"
        freq.write_text("alpha\t1\n")
        rc = main(
            ["synth", "--freq-table", str(freq), "--lengths", "5,x", "--out-dir", str(tmp_path / "o")]
        )
        assert rc == 2
        assert "E_PARAMS" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body", [f"alpha\t{10**400}\n", f"alpha\t{10**308}\nbeta\t{10**308}\n"]
    )
    def test_counts_past_the_float_range_are_schema_errors(self, body, tmp_path, capsys):
        freq = tmp_path / "freq.tsv"
        freq.write_text(body)
        out = tmp_path / "o"
        rc = main(["synth", "--freq-table", str(freq), "--lengths", "5", "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 3
        assert "error [E_SCHEMA]: frequency table counts sum past the float range" in err
        assert "Traceback" not in err

    def test_failed_write_leaves_no_temp(self, tmp_path, monkeypatch, capsys):
        freq = tmp_path / "freq.tsv"
        freq.write_text("alpha\t1\n")
        out = tmp_path / "out"
        _fail_rename(monkeypatch)
        rc = main(["synth", "--freq-table", str(freq), "--lengths", "5", "--out-dir", str(out)])
        assert rc == 3
        assert "E_IO" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_match(self, corpus, tmp_path):
        freq = tmp_path / "freq.tsv"
        freq.write_text("alpha\t1\n")
        out = tmp_path / "out"
        rc = main(
            ["synth", "--freq-table", str(freq), "--match", corpus, "--out-dir", str(out)]
        )
        assert rc == 0
        lines = (out / "synthetic.jsonl").read_text().splitlines()
        assert len(json.loads(lines[0])["text"].split()) == 5  # matches d1

    @pytest.mark.parametrize("lengths", ["10", ""])
    def test_lengths_with_match_is_param_error(self, corpus, tmp_path, capsys, lengths):
        freq = tmp_path / "freq.tsv"
        freq.write_text("alpha\t1\n")
        out = tmp_path / "out"
        argv = ["synth", "--freq-table", str(freq), "--match", corpus, "--lengths", lengths]
        rc = main([*argv, "--docs-per-length", "3", "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error [E_PARAMS]: synth takes --lengths or --match, not both\n"
        assert list(out.iterdir()) == []

    def test_docs_per_length_with_match_is_param_error(self, corpus, tmp_path, capsys):
        freq = tmp_path / "freq.tsv"
        freq.write_text("alpha\t1\n")
        out = tmp_path / "out"
        argv = ["synth", "--freq-table", str(freq), "--match", corpus, "--docs-per-length", "7"]
        rc = main([*argv, "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error [E_PARAMS]: synth takes --docs-per-length with --lengths only\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "mode, recorded",
        [(["--match", None], None), (["--lengths", "5"], 1000),
         (["--lengths", "5", "--docs-per-length", "7"], 7)],
    )
    def test_manifest_records_the_docs_per_length_used(self, corpus, tmp_path, mode, recorded):
        freq = tmp_path / "freq.tsv"
        freq.write_text("alpha\t1\n")
        out = tmp_path / "out"
        mode = [corpus if arg is None else arg for arg in mode]
        assert main(["synth", "--freq-table", str(freq), *mode, "--out-dir", str(out)]) == 0
        params = json.loads((out / "manifest.json").read_text())["params"]
        assert "docs_per_length" in params and params["docs_per_length"] == recorded


class TestTrainPredictImportance:
    def _train(self, out):
        return main(
            [
                "train",
                "--dataset",
                str(DEMO / "corpus.jsonl"),
                "--systems",
                str(DEMO / "system_alpha.csv"),
                "--freq-table",
                str(DEMO / "wordfreq.tsv"),
                "--trees",
                "10",
                "--folds",
                "3",
                "--repeats",
                "1",
                "--k",
                "1",
                "--out-dir",
                str(out),
            ]
        )

    def test_tree_too_deep_to_save_exits_4(self, tmp_path, monkeypatch, capsys):
        """A tree nested past json's encoder limit fails the run with E_DEGENERATE,
        leaving no model, no manifest and no temporary file."""
        import sdgdetect.cli as cli
        from sdgdetect.ensemble import ForestParams, _forest_from_objs

        tree = {"p": 1.0, "w": 1.0}
        for i in range(100_000):
            tree = {"f": 1, "t": float(i), "l": {"p": 0.0, "w": 1.0}, "r": tree}
        deep = _forest_from_objs([tree], 2, ForestParams(num_trees=1))
        train_model = cli.train_model

        def train_deep(*args, **kwargs):
            model = train_model(*args, **kwargs)
            model.forests[1] = deep
            return model

        monkeypatch.setattr(cli, "train_model", train_deep)
        capsys.readouterr()
        out = tmp_path / "train"
        assert self._train(out) == 4
        err = capsys.readouterr().err
        assert err.startswith("error [E_DEGENERATE]: cannot save the model to ")
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    def test_train_and_downstream(self, tmp_path):
        out = tmp_path / "train"
        assert self._train(out) == 0
        for name in ("model.json", "cv_report.csv", "curve.csv", "skipped.csv", "manifest.json"):
            assert (out / name).exists()
        curve = (out / "curve.csv").read_text().splitlines()
        assert curve[0] == "k,pooled_accuracy,mean_dataset_accuracy,synthetic_fp_rate"

        pred_out = tmp_path / "pred"
        rc = main(
            [
                "predict",
                "--model",
                str(out / "model.json"),
                "--dataset",
                str(DEMO / "corpus.jsonl"),
                "--systems",
                str(DEMO / "system_alpha.csv"),
                "--out-dir",
                str(pred_out),
            ]
        )
        assert rc == 0
        lines = (pred_out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "dataset,doc_id,sdg,score,assigned"
        assert len(lines) == 1 + 30 * 17

        imp_out = tmp_path / "imp"
        rc = main(
            [
                "importance",
                "--model",
                str(out / "model.json"),
                "--dataset",
                str(DEMO / "corpus.jsonl"),
                "--systems",
                str(DEMO / "system_alpha.csv"),
                "--freq-table",
                str(DEMO / "wordfreq.tsv"),
                "--repetitions",
                "2",
                "--out-dir",
                str(imp_out),
            ]
        )
        assert rc == 0
        assert (imp_out / "importance.csv").read_text().splitlines()[0] == "sdg,feature,importance"

    def test_predict_with_out_of_range_split_feature_is_3(self, tmp_path, capsys):
        out = tmp_path / "train"
        assert self._train(out) == 0
        model = out / "model.json"
        payload = json.loads(model.read_text())
        splits = [t for f in payload["forests"].values() for t in f["trees"] if "f" in t]
        splits[0]["f"] = 99
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        rc = main(
            [
                "predict",
                "--model",
                str(model),
                "--dataset",
                str(DEMO / "corpus.jsonl"),
                "--systems",
                str(DEMO / "system_alpha.csv"),
                "--out-dir",
                str(tmp_path / "pred"),
            ]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "E_CORRUPT" in err and "split feature 99" in err and "Traceback" not in err


def _first_leaf(payload):
    node = payload["forests"]["1"]["trees"][0]
    while "p" not in node:
        node = node["l"]
    return node


def _first_split(payload):
    return next(t for f in payload["forests"].values() for t in f["trees"] if "f" in t)


def _set_params(payload, **values):
    payload["forests"]["3"]["params"].update(values)


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    assert TestTrainPredictImportance()._train(out) == 0
    return out / "model.json"


class TestPredictRejectsCorruptModel:
    """A model file whose values no training run writes is data corruption
    (exit 3), not a parameter error, and never loads silently."""

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda m: _set_params(m, num_trees=0), "num_trees must be positive"),
            (lambda m: _set_params(m, num_trees=5), "num_trees is 5, but 10 trees are stored"),
            (lambda m: _set_params(m, bootstrap="no"), "bootstrap 'no' is not a bool"),
            (lambda m: m.update(threshold=float("nan")), "threshold nan outside"),
            (lambda m: m.update(threshold=7), "threshold 7.0 outside"),
            (lambda m: _first_leaf(m).update(p=float("nan")), "leaf p=nan"),
            (lambda m: _first_leaf(m).update(p=1.5), "leaf p=1.5"),
            (lambda m: _first_leaf(m).update(w=-1.0), "w=-1.0"),
            (lambda m: _first_leaf(m).update(w=float("inf")), "w=inf"),
            (lambda m: _first_split(m).update(t=float("nan")), "split threshold nan"),
            (lambda m: m.update(k=-1), "k -1.0 outside [0, 10]"),
            (lambda m: m.update(k=float("nan")), "k nan outside"),
            (
                lambda m: m.update(system_names=["word_count"], feature_names=["word_count"] * 2),
                "system name 'word_count' is the word-count feature's name",
            ),
            (lambda m: _set_params(m, num_trees="1e999"), "forest 3: num_trees inf is not an int"),
            (lambda m: _set_params(m, num_trees=5.0), "forest 3: num_trees 5.0 is not an int"),
            (
                lambda m: m["forests"]["3"].update(n_features="1e999"),
                "forest 3: n_features inf is not an int",
            ),
            (lambda m: m.update(seed="1e999"), "seed inf is not an int"),
            (lambda m: _set_params(m, seed="1e999"), "forest 3: seed inf is not an int"),
            (lambda m: _set_params(m, mtry=1.5), "forest 3: mtry 1.5 is not an int"),
            (
                lambda m: _first_split(m).update(f="1e999"),
                "split feature inf is not an int",
            ),
            (lambda m: _first_split(m).update(f=True), "split feature True is not an int"),
            (lambda m: _first_split(m).update(f=0.9), "split feature 0.9 is not an int"),
            (
                lambda m: _first_split(m).update(t="0.5"),
                "split threshold '0.5' is not a float",
            ),
            (lambda m: m.update(threshold=True), "threshold True is not a float"),
            (lambda m: _first_leaf(m).update(p=10**400), "int too large to convert to float"),
        ],
        ids=[
            "num-trees-zero",
            "num-trees-mismatch",
            "bootstrap-string",
            "threshold-nan",
            "threshold-above-one",
            "leaf-p-nan",
            "leaf-p-above-one",
            "leaf-w-negative",
            "leaf-w-inf",
            "split-threshold-nan",
            "k-negative",
            "k-nan",
            "system-named-word-count",
            "num-trees-1e999",
            "num-trees-float",
            "n-features-1e999",
            "model-seed-1e999",
            "forest-seed-1e999",
            "mtry-float",
            "split-feature-1e999",
            "split-feature-bool",
            "split-feature-float",
            "split-threshold-string",
            "threshold-bool",
            "leaf-p-huge-integer",
        ],
    )
    def test_predict_exits_3(self, trained_model, tmp_path, capsys, edit, message):
        payload = json.loads(trained_model.read_text())
        edit(payload)
        model = tmp_path / "model.json"
        # "1e999" stands for the JSON number 1e999, which json.dumps cannot write
        model.write_text(json.dumps(payload).replace('"1e999"', "1e999"))
        capsys.readouterr()
        rc = main(
            [
                "predict",
                "--model",
                str(model),
                "--dataset",
                str(DEMO / "corpus.jsonl"),
                "--systems",
                str(DEMO / "system_alpha.csv"),
                "--out-dir",
                str(tmp_path / "pred"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error [E_CORRUPT]: ") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "pred" / "predictions.csv").exists()


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detect"])  # missing required arguments
        assert exc.value.code == 2

    def test_missing_input_is_3(self, system, tmp_path, capsys):
        rc = main(
            ["detect", "--dataset", "no_such.jsonl", "--systems", system, "--out-dir", str(tmp_path / "o")]
        )
        assert rc == 3
        assert "E_IO" in capsys.readouterr().err

    def test_query_error_names_system_and_query(self, corpus, tmp_path, capsys):
        sysfile = tmp_path / "bad.csv"
        sysfile.write_text("system,sdg,query_id,query\nbad,1,q1,poverty AND\n")
        assert _detect(corpus, str(sysfile), tmp_path / "o") == 3
        assert capsys.readouterr().err == (
            "error [E_SYNTAX]: system 'bad', query 'q1': "
            "expected a term, phrase, or '(' (at position 11)\n"
        )

    def test_query_nested_too_deeply_is_3(self, corpus, tmp_path, capsys):
        sysfile = tmp_path / "deep.csv"
        sysfile.write_text(f"system,sdg,query_id,query\ndeep,1,q1,{'(' * 250}poverty{')' * 250}\n")
        assert _detect(corpus, str(sysfile), tmp_path / "o") == 3
        assert capsys.readouterr().err == (
            "error [E_SYNTAX]: system 'deep', query 'q1': "
            f"query nested too deeply (at position {_MAX_NESTING})\n"
        )
        assert not list(tmp_path.rglob("*.tmp"))

    def test_negative_seed_flag_is_param_error(self, corpus, system, tmp_path, capsys):
        rc = main(
            [
                "train",
                "--dataset",
                corpus,
                "--systems",
                system,
                "--freq-table",
                str(DEMO / "wordfreq.tsv"),
                "--seed",
                "-1",
                "--out-dir",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            "error [E_PARAMS]: seed must be a non-negative integer, got -1\n"
        )

    def test_threads_is_unknown_argument(self, corpus, system, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            _detect(corpus, system, tmp_path / "o", ["--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    def test_schema_error_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id":"d1","text":"x","labels":[99]}\n')
        sysfile = tmp_path / "s.csv"
        sysfile.write_text("system,sdg,query_id,query\ndemo,1,q1,poverty\n")
        rc = _detect(str(bad), str(sysfile), tmp_path / "o")
        assert rc == 3
        assert "E_SCHEMA" in capsys.readouterr().err

    def test_one_class_train_is_4(self, corpus, system, tmp_path, capsys):
        freq = tmp_path / "freq.tsv"
        freq.write_text("alpha\t1\n")
        rc = main(
            [
                "train",
                "--dataset",
                corpus,
                "--systems",
                system,
                "--freq-table",
                str(freq),
                "--k",
                "0",
                "--folds",
                "2",
                "--repeats",
                "1",
                "--trees",
                "2",
                "--out-dir",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 4
        assert "E_ONE_CLASS" in capsys.readouterr().err


    def test_system_named_word_count_is_3_before_cross_validation(
        self, corpus, tmp_path, monkeypatch, capsys
    ):
        import sdgdetect.cli as cli

        def cross_validate(*args, **kwargs):
            raise AssertionError("cross-validation started")

        monkeypatch.setattr(cli, "cross_validate", cross_validate)
        sysfile = tmp_path / "wc.csv"
        sysfile.write_text("system,sdg,query_id,query\nword_count,1,q1,poverty\n")
        out = tmp_path / "o"
        rc = main(["train", "--dataset", corpus, "--systems", str(sysfile),
                   "--freq-table", str(DEMO / "wordfreq.tsv"), "--out-dir", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "error [E_SCHEMA]: system name 'word_count' is the word-count feature's name\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "flag,value",
        [("--k", "50"), ("--k", "-1"), ("--k", "nan"), ("--threshold", "nan"), ("--threshold", "1.5")],
    )
    def test_train_out_of_range_is_param_error(self, corpus, system, tmp_path, capsys, flag, value):
        rc = main(
            [
                "train",
                "--dataset",
                corpus,
                "--systems",
                system,
                "--freq-table",
                str(DEMO / "wordfreq.tsv"),
                flag,
                value,
                "--out-dir",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 2
        assert f"error [E_PARAMS]: {flag} must lie in" in capsys.readouterr().err


def _nested_lists(depth):
    return "[" * depth + "]" * depth


class TestDeeplyNestedJson:
    """JSON nested past the interpreter's stack is bad input (exit 3) in
    every reader, never a RecursionError traceback."""

    def _check(self, capsys, tmp_path, rc, start):
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith(start)
        assert "Traceback" not in err
        assert not list(tmp_path.rglob("*.tmp"))

    def test_dataset_line(self, system, tmp_path, capsys):
        dataset = tmp_path / "deep.jsonl"
        dataset.write_text('{"id":"d1","text":"x"}\n' + _nested_lists(100_000) + "\n")
        rc = _detect(str(dataset), system, tmp_path / "o")
        self._check(capsys, tmp_path, rc, "error [E_SCHEMA]: deep.jsonl:2: invalid JSON")

    def test_matrix_file(self, corpus, tmp_path, capsys):
        matrix = tmp_path / "matrix.json"
        matrix.write_text(_nested_lists(100_000))
        rc = main(
            ["evaluate", "--dataset", corpus, "--matrix", str(matrix), "--out-dir", str(tmp_path / "o")]
        )
        self._check(capsys, tmp_path, rc, "error [E_SCHEMA]: cannot read prediction matrix")

    def test_model_tree(self, trained_model, tmp_path, capsys):
        payload = json.loads(trained_model.read_text())
        payload["forests"]["1"]["trees"][0] = "TREE"
        leaf = '{"p": 0.0, "w": 1.0}'
        tree = f'{{"f": 0, "t": 0.5, "r": {leaf}, "l": ' * 1200 + leaf + "}" * 1200
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload).replace('"TREE"', tree))
        rc = main(
            [
                "predict",
                "--model",
                str(model),
                "--dataset",
                str(DEMO / "corpus.jsonl"),
                "--systems",
                str(DEMO / "system_alpha.csv"),
                "--out-dir",
                str(tmp_path / "o"),
            ]
        )
        self._check(capsys, tmp_path, rc, "error [E_CORRUPT]: ")


class TestIntegerTooLongForInt:
    """An integer with more digits than ``int()`` converts is bad input
    (exit 3) in every JSON reader, never a ValueError traceback."""

    HUGE = "9" * 5000

    def _check(self, capsys, rc, start):
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith(start) and "Exceeds the limit" in err
        assert "Traceback" not in err

    def test_dataset_line(self, system, tmp_path, capsys):
        dataset = tmp_path / "huge.jsonl"
        dataset.write_text(f'{{"id":"d1","text":"x","labels":[{self.HUGE}]}}\n')
        rc = _detect(str(dataset), system, tmp_path / "o")
        self._check(capsys, rc, "error [E_SCHEMA]: huge.jsonl:1: invalid JSON")

    def test_matrix_file(self, corpus, tmp_path, capsys):
        matrix = tmp_path / "matrix.json"
        matrix.write_text(f'{{"systems": [], "datasets": {{"corpus": {self.HUGE}}}}}')
        rc = main(
            ["evaluate", "--dataset", corpus, "--matrix", str(matrix), "--out-dir", str(tmp_path / "o")]
        )
        self._check(capsys, rc, "error [E_SCHEMA]: cannot read prediction matrix")

    def test_model_file(self, trained_model, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(trained_model.read_text().replace('"version": 1', f'"version": {self.HUGE}'))
        assert self.HUGE in model.read_text()
        rc = main(
            [
                "predict",
                "--model",
                str(model),
                "--dataset",
                str(DEMO / "corpus.jsonl"),
                "--systems",
                str(DEMO / "system_alpha.csv"),
                "--out-dir",
                str(tmp_path / "o"),
            ]
        )
        self._check(capsys, rc, "error [E_CORRUPT]: model file is not valid JSON")


class TestWarnings:
    """Each warning's stderr line, word for word (the benchmark counts ``warning:`` lines)."""

    def test_fidelity_and_profile_bias(self, tmp_path, capsys):
        for name in ("a", "b"):
            (tmp_path / f"{name}.jsonl").write_text('{"id":"d1","text":"x","labels":[1]}\n')
        system = tmp_path / "none.csv"
        system.write_text("system,sdg,query_id,query\nnone,1,q1,absent\n")
        datasets = ["--dataset", str(tmp_path / "a.jsonl"), "--dataset", str(tmp_path / "b.jsonl")]
        rc = main(["detect", *datasets, "--systems", str(system), "--out-dir", str(tmp_path / "d")])
        assert rc == 0
        matrix = str(tmp_path / "d" / "matrix.json")
        capsys.readouterr()
        rc = main(["bias", *datasets, "--matrix", matrix, "--out-dir", str(tmp_path / "b")])
        assert rc == 0
        assert capsys.readouterr().err == (
            "warning: fidelity for none/a: correlation undefined for a constant vector\n"
            "warning: fidelity for none/b: correlation undefined for a constant vector\n"
            "warning: profile bias for none: pair (a, b) has only 1 commonly defined SDG biases\n"
        )

    def test_lenient_external_unknown_doc(self, corpus, system, tmp_path, capsys):
        ext = tmp_path / "ext.csv"
        ext.write_text("doc_id,sdg\nd1,3\nd9,2\n")
        rc = _detect(corpus, system, tmp_path / "o", ["--external", f"x={ext}", "--lenient-external"])
        assert rc == 0
        assert capsys.readouterr().err == "warning: ext.csv:3: skipping unknown doc_id 'd9'\n"


class TestNonUtf8Input:
    """Every input file that is not UTF-8 is a schema error, never a traceback."""

    @pytest.mark.parametrize(
        "which", ["dataset", "system", "external", "freq-table", "model", "matrix", "config"]
    )
    def test_exit_3(self, corpus, system, tmp_path, capsys, which):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\n")
        detect = ["detect", "--dataset", corpus, "--systems", system]
        argv = {
            "dataset": ["detect", "--dataset", str(bad), "--systems", system],
            "system": ["detect", "--dataset", corpus, "--systems", str(bad)],
            "external": detect + ["--external", f"black={bad}"],
            "freq-table": ["synth", "--freq-table", str(bad), "--lengths", "5"],
            "model": ["predict", "--model", str(bad), "--dataset", corpus, "--systems", system],
            "matrix": ["evaluate", "--dataset", corpus, "--matrix", str(bad)],
            "config": detect + ["--config", str(bad)],
        }[which]
        rc = main(argv + ["--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error [E_SCHEMA]: ") and "not valid UTF-8" in err
        assert "Traceback" not in err
        assert list(tmp_path.rglob("*.tmp")) == []


class TestNulByteInputPath:
    """An input path holding a NUL byte, which no file system takes, is a
    parameter error (exit 2) that names the input, never a traceback."""

    @pytest.mark.parametrize(
        "which", ["dataset", "systems", "external", "freq-table", "match", "matrix", "model"]
    )
    def test_exit_2(self, corpus, system, tmp_path, capsys, which):
        bad, freq = f"{tmp_path}/a\0b", str(DEMO / "wordfreq.tsv")
        detect = ["detect", "--dataset", corpus, "--systems", system]
        predict = ["predict", "--model", bad, "--dataset", corpus, "--systems", system]
        argv, what = {
            "dataset": (["detect", "--dataset", bad, "--systems", system], "dataset"),
            "systems": (["detect", "--dataset", corpus, "--systems", bad], "system file"),
            "external": (detect + ["--external", f"black={bad}"], "predictions file"),
            "freq-table": (["synth", "--freq-table", bad, "--lengths", "5"], "frequency table"),
            "match": (["synth", "--freq-table", freq, "--match", bad], "dataset"),
            "matrix": (["evaluate", "--dataset", corpus, "--matrix", bad], "prediction matrix"),
            "model": (predict, "model"),
        }[which]
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        message = f"error [E_PARAMS]: {what} path must not hold a NUL byte: {bad!r}\n"
        assert capsys.readouterr().err == message
        assert not (tmp_path / "a").exists()


class TestConfig:
    def test_config_file_supplies_defaults(self, corpus, system, tmp_path):
        cfg = tmp_path / "cfg"
        out = tmp_path / "cfgout"
        cfg.write_text(f"seed=11\nout_dir={out}\n")
        rc = main(["detect", "--dataset", corpus, "--systems", system, "--config", str(cfg)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 11

    def test_config_seed_reaches_synth(self, tmp_path):
        """``seed`` from the config file seeds a command as ``--seed`` does, and
        an explicit ``--seed`` wins over it."""
        freq = tmp_path / "freq.tsv"
        freq.write_text("alpha\t3\nbeta\t1\ngamma\t2\n")
        cfg = tmp_path / "cfg"
        cfg.write_text("seed=7\n")

        def synth(out, *extra):
            argv = ["synth", "--freq-table", str(freq), "--lengths", "5,10"]
            argv += ["--docs-per-length", "3", "--out-dir", str(tmp_path / out), *extra]
            assert main(argv) == 0
            return [(tmp_path / out / f).read_bytes() for f in ("synthetic.jsonl", "manifest.json")]

        flag = synth("flag", "--seed", "7")
        assert json.loads(flag[1])["seed"] == 7
        assert synth("config", "--config", str(cfg)) == flag
        override = synth("override", "--config", str(cfg), "--seed", "8")
        assert override == synth("flag8", "--seed", "8")
        assert override[0] != flag[0]

    def test_env_var_and_flag_override(self, corpus, system, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg"
        env_out = tmp_path / "envout"
        cfg.write_text(f"seed=11\nout_dir={env_out}\n")
        monkeypatch.setenv("SDGDETECT_CONFIG", str(cfg))
        flag_out = tmp_path / "flagout"
        rc = main(
            ["detect", "--dataset", corpus, "--systems", system, "--out-dir", str(flag_out), "--seed", "5"]
        )
        assert rc == 0
        assert not env_out.exists()
        manifest = json.loads((flag_out / "manifest.json").read_text())
        assert manifest["seed"] == 5

    @pytest.mark.parametrize("line", ["seed=abc", "threads=x", "sed=5", "json=banana", "seed=-1"])
    def test_invalid_config_value_is_param_error(self, corpus, system, tmp_path, capsys, line):
        cfg = tmp_path / "cfg"
        cfg.write_text(line + "\n")
        rc = _detect(corpus, system, tmp_path / "o", ["--config", str(cfg)])
        assert rc == 2
        assert "E_PARAMS" in capsys.readouterr().err

    @pytest.mark.parametrize("value,mirrored", [("YES", True), ("1", True), ("False", False), ("no", False)])
    def test_config_json_accepts_booleans(self, corpus, system, tmp_path, value, mirrored):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"json={value}\n")
        assert _detect(corpus, system, tmp_path / "o", ["--config", str(cfg)]) == 0
        assert (tmp_path / "o" / "hits.json").exists() == mirrored

    def test_byte_order_mark_ignored(self, corpus, system, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("seed=11\njson=1\n", encoding="utf-8-sig")
        assert cfg.read_bytes().startswith(b"\xef\xbb\xbf")
        assert _detect(corpus, system, tmp_path / "o", ["--config", str(cfg)]) == 0
        assert json.loads((tmp_path / "o" / "manifest.json").read_text())["seed"] == 11
        assert (tmp_path / "o" / "hits.json").exists()

    def test_lines_end_at_line_feed_only(self, corpus, system, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("seed=1\r\n\u2028\u0085\r\nout_dirr=x\r\n", encoding="utf-8")
        assert _detect(corpus, system, tmp_path / "o", ["--config", str(cfg)]) == 2
        assert f"config {cfg}:3: unknown key 'out_dirr'" in capsys.readouterr().err

    def test_unknown_config_key_is_named(self, corpus, system, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("seed=1\nout_dirr=x\n")
        assert _detect(corpus, system, tmp_path / "o", ["--config", str(cfg)]) == 2
        assert f"config {cfg}:2: unknown key 'out_dirr'" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_nul_byte_in_out_dir_is_param_error(self, corpus, system, tmp_path, capsys, source):
        """An out_dir holding a NUL byte, which no path may hold, is E_PARAMS, not a traceback."""
        out_dir, cfg = f"{tmp_path}/a\0b", tmp_path / "cfg"
        cfg.write_text(f"out_dir={out_dir}\n")
        argv = ["detect", "--dataset", corpus, "--systems", system]
        argv += ["--config", str(cfg)] if source == "config" else ["--out-dir", out_dir]
        assert main(argv) == 2
        message = f"error [E_PARAMS]: out_dir must not hold a NUL byte: {out_dir!r}\n"
        assert capsys.readouterr().err == message
        assert not (tmp_path / "a").exists()

    def test_missing_explicit_config_is_param_error(self, corpus, system, tmp_path, capsys):
        rc = _detect(corpus, system, tmp_path / "o", ["--config", str(tmp_path / "no_such.cfg")])
        assert rc == 2
        assert "E_PARAMS" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
