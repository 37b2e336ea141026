import argparse
import csv
import hashlib
import inspect
import json
import os
import shutil
from pathlib import Path

import pytest

from sdgdetect import cli
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

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"]
    )
    def test_outputs_take_the_umask(self, corpus, system, tmp_path, umask, mode):
        """Each output, new or replacing a file of another mode, gets the mode
        ``open`` gives a new file: 0o666 less the umask."""
        new, replaced = tmp_path / "new", tmp_path / "replaced"
        saved = os.umask(0o077 if umask == 0o022 else 0o022)
        try:
            assert _detect(corpus, system, replaced) == 0
            os.umask(umask)
            assert _detect(corpus, system, new) == 0
            assert _detect(corpus, system, replaced) == 0
        finally:
            os.umask(saved)
        for out in (new, replaced):
            files = sorted(out.iterdir())
            assert [f.name for f in files] == [
                "hits.csv", "keyword_frequencies.csv", "manifest.json", "matrix.json"
            ]
            assert [f.stat().st_mode & 0o777 for f in files] == [mode] * 4

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

    def test_refused_external_searches_no_dataset(
        self, corpus, system, tmp_path, monkeypatch, capsys
    ):
        """Every --external CSV is read before any dataset is searched, so one
        that names an unknown doc id exits 3 with no search and no matrix.json."""
        searched, search = [], cli.detect

        def counted(ds, systems):
            searched.append(ds.name)
            return search(ds, systems)

        monkeypatch.setattr(cli, "detect", counted)
        ext = tmp_path / "ext.csv"
        ext.write_text("doc_id,sdg\nd3,15\n")
        assert _detect(corpus, system, tmp_path / "good", ["--external", f"black={ext}"]) == 0
        assert searched == ["corpus"]
        searched.clear()
        ext.write_text("doc_id,sdg\nd3,15\nd9,2\n")
        out = tmp_path / "out"
        assert _detect(corpus, system, out, ["--external", f"black={ext}"]) == 3
        assert capsys.readouterr().err == "error [E_SCHEMA]: ext.csv:3: unknown doc_id 'd9'\n"
        assert searched == []
        assert not (out / "matrix.json").exists()

    @pytest.mark.parametrize("lenient", [[], ["--lenient-external"]], ids=["strict", "lenient"])
    def test_external_id_held_by_two_datasets_is_3(self, system, tmp_path, capsys, lenient):
        """A doc_id,sdg row names no dataset, so an --external CSV may not name
        a doc id that two datasets hold; an id that one dataset holds is its own."""
        a, b, ext = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "ext.csv"
        a.write_text('{"id":"1","text":"end poverty"}\n')
        b.write_text('{"id":"1","text":"clean water"}\n{"id":"2","text":"hunger"}\n')
        ext.write_text("doc_id,sdg\n1,3\n")
        out = tmp_path / "out"
        extra = ["--dataset", str(b), "--external", f"ext={ext}", *lenient]
        assert _detect(str(a), system, out, extra) == 3
        assert capsys.readouterr().err == (
            "error [E_SCHEMA]: ext.csv: doc_id '1' is in datasets ['a', 'b'], "
            "and a predictions row names no dataset\n"
        )
        assert not (out / "matrix.json").exists() and not (out / "manifest.json").exists()
        ext.write_text("doc_id,sdg\n2,3\n")
        assert _detect(str(a), system, out, extra) == 0
        assignments = json.loads((out / "matrix.json").read_text())["datasets"]
        assert [row for row in assignments["b"]["assignments"] if row[1] == "ext"] == [["2", "ext", 3]]
        assert not [row for row in assignments["a"]["assignments"] if row[1] == "ext"]

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


def _read_once(monkeypatch, path: Path, after: bytes = b"") -> None:
    """Make ``path`` readable once, as a pipe such as ``<(cat ext.csv)`` is:
    its first ``Path.read_bytes`` returns its bytes and leaves ``after`` in
    the file, so a second read of it, by any means, sees other bytes."""
    read_bytes = Path.read_bytes

    def once(self):
        data = read_bytes(self)
        if self == path:
            path.write_bytes(after)
        return data

    monkeypatch.setattr(Path, "read_bytes", once)


class TestInputReadOnce:
    """detect reads each input once: an --external CSV that can be read only
    once gives the same answer as a file, and manifest.json records the digest
    of the bytes that were parsed."""

    CSV = b"doc_id,sdg\nd3,15\n\nd9,2\n"

    def _run(self, corpus, system, tmp_path, monkeypatch, extra=()):
        ext = tmp_path / "ext.csv"
        ext.write_bytes(self.CSV)
        _read_once(monkeypatch, ext)
        return _detect(corpus, system, tmp_path / "out", ["--external", f"black={ext}", *extra])

    def test_unknown_doc_id_is_3(self, corpus, system, tmp_path, monkeypatch, capsys):
        assert self._run(corpus, system, tmp_path, monkeypatch) == 3
        assert capsys.readouterr().err == "error [E_SCHEMA]: ext.csv:4: unknown doc_id 'd9'\n"

    def test_lenient_warns_with_the_line(self, corpus, system, tmp_path, monkeypatch, capsys):
        assert self._run(corpus, system, tmp_path, monkeypatch, ["--lenient-external"]) == 0
        assert capsys.readouterr().err == "warning: ext.csv:4: skipping unknown doc_id 'd9'\n"
        matrix = json.loads((tmp_path / "out" / "matrix.json").read_text())
        assert ["d3", "black", 15] in matrix["datasets"]["corpus"]["assignments"]

    @pytest.mark.parametrize("after", [b"", b"doc_id,sdg\nd1,2\n"], ids=["piped", "changed"])
    def test_manifest_records_the_bytes_parsed(self, corpus, system, tmp_path, monkeypatch, after):
        ext = tmp_path / "ext.csv"
        ext.write_bytes(b"doc_id,sdg\nd3,15\n")
        _read_once(monkeypatch, ext, after)
        assert _detect(corpus, system, tmp_path / "out", ["--external", f"black={ext}"]) == 0
        inputs = json.loads((tmp_path / "out" / "manifest.json").read_text())["inputs"]
        assert inputs[str(ext)] == hashlib.sha256(b"doc_id,sdg\nd3,15\n").hexdigest()
        for regular in (corpus, system):  # read as files are, and unchanged
            assert inputs[regular] == hashlib.sha256(Path(regular).read_bytes()).hexdigest()


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


def _relative(argv: list[str]) -> tuple[list[str], set[str]]:
    """``argv`` with each input file copied into the working directory and
    named ``./<name>``, and the set of those names."""
    out, given = [], set()
    for arg in argv:
        if Path(arg).is_absolute() and Path(arg).is_file():
            shutil.copyfile(arg, Path(arg).name)
            arg = f"./{Path(arg).name}"
            given.add(arg)
        out.append(arg)
    return out, given


class TestManifestInputs:
    """manifest.json's inputs are the files the run read, each keyed by its
    path as given and mapped to the SHA-256 of its bytes. A config file is not
    an input, and no run's inputs carry over to the next one."""

    @pytest.mark.parametrize("config", ["none", "flag", "env"])
    def test_inputs_are_the_paths_given(self, demo_commands, tmp_path, monkeypatch, config):
        monkeypatch.chdir(tmp_path)
        Path("sdgdetect.conf").write_text("seed = 7\n")
        flags = ["--config", "./sdgdetect.conf"] if config == "flag" else []
        if config == "env":
            monkeypatch.setenv(cli.CONFIG_ENV_VAR, "./sdgdetect.conf")
        first_id = json.loads((DEMO / "corpus.jsonl").read_text().split("\n", 1)[0])["id"]
        Path("external.csv").write_text(f"doc_id,sdg\n{first_id},3\n")
        freq, corpus = str(DEMO / "wordfreq.tsv"), str(DEMO / "corpus.jsonl")
        runs = {
            **demo_commands,
            "synth_match": ["synth", "--freq-table", freq, "--match", corpus],
            "detect_external": [*demo_commands["detect"], "--external", "ext=./external.csv",
                                "--lenient-external"],  # fmt: skip
        }
        for name, argv in runs.items():  # one process: each run after the one before
            argv, given = _relative(argv)
            if name == "detect_external":
                given.add("./external.csv")
            assert main([*argv, *flags, "--out-dir", f"out/{name}"]) == 0
            manifest = json.loads(Path(f"out/{name}/manifest.json").read_text())
            assert manifest["seed"] == (0 if config == "none" else 7)  # the config was read
            assert set(manifest["inputs"]) == given, name
            for path, digest in manifest["inputs"].items():
                assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest(), path

    @pytest.mark.parametrize(
        "command, flag, what",
        [
            ("detect", "--systems", "system file"),
            ("evaluate", "--dataset", "dataset"),
            ("evaluate", "--matrix", "prediction matrix"),
            ("synth", "--freq-table", "frequency table"),
            ("predict", "--model", "model"),
        ],
    )
    def test_io_error_names_the_path_as_given(
        self, demo_commands, tmp_path, monkeypatch, capsys, command, flag, what
    ):
        monkeypatch.chdir(tmp_path)
        argv = list(demo_commands[command])
        argv[argv.index(flag) + 1] = "./nope"
        capsys.readouterr()
        assert main([*argv, "--out-dir", "out"]) == 3
        assert capsys.readouterr().err == (
            f"error [E_IO]: cannot read {what} ./nope: "
            "[Errno 2] No such file or directory: 'nope'\n"
        )


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
        # a pair of two datasets of the run is excluded
        other = tmp_path / "other.jsonl"
        other.write_bytes(Path(corpus).read_bytes())
        _detect(corpus, system, tmp_path / "det", ["--dataset", str(other)])
        argv[1:1] = ["--dataset", str(other)]
        assert main(argv) == 0
        assert json.loads((out / "manifest.json").read_text())["params"]["pairs"] == [
            ["corpus", "other"]
        ]
        assert main([*argv, "--exclude-pair", "other:corpus"]) == 0
        assert json.loads((out / "manifest.json").read_text())["params"]["pairs"] == []


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


class TestModelNamesASystemTwice:
    """A model.json whose system_names (with feature_names to match) name a
    system twice is corrupt: predict and importance exit 3 and write nothing."""

    @pytest.mark.parametrize("command", ["predict", "importance"])
    def test_exits_3(self, demo_commands, command, tmp_path, capsys):
        argv = list(demo_commands[command])
        beta = argv.index(str(DEMO / "system_beta.csv"))
        del argv[beta - 1 : beta + 1]  # the systems the edited model names: alpha and gamma
        at = argv.index("--model") + 1
        payload = json.loads(Path(argv[at]).read_text())
        assert payload["system_names"] == ["alpha", "beta", "gamma"]
        payload.update(
            system_names=["alpha", "alpha", "gamma"],
            feature_names=["alpha", "alpha", "gamma", "word_count"],
        )
        argv[at] = str(tmp_path / "model.json")
        Path(argv[at]).write_text(json.dumps(payload))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([*argv, "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error [E_CORRUPT]: ") and "system names repeat" in err
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "--folds", "1"], "folds must be >= 2"),
            (["train", "--repeats", "0"], "repeats must be >= 1"),
            (["train", "--k-grid", "x"], "invalid k grid 'x'"),
            (["synth", "--lengths", "x"], "invalid --lengths 'x': expected integers"),
            (["detect", "--external", "x"], "--external expects NAME=PATH"),
            (["bias", "--exclude-pair", "x"], "--exclude-pair expects NAME:NAME"),
            (["importance", "--repetitions", "0"], "repetitions must be >= 1"),
            (["train", "--k-grid", "0,11"], "k values must lie in [0, 10]"),
            (["train", "--mtry", "0"], "mtry must be positive"),
            (["train", "--max-depth", "-1"], "max_depth must be non-negative"),
            (["train", "--min-leaf-frac", "1"], "min_leaf_frac must be in [0, 1)"),
            (["synth"], "synth requires --lengths or --match"),
            (["bias", "--exclude-pair", "corpus:corpus"],
             "--exclude-pair names dataset 'corpus' twice"),
            (["train", "--k-grid", ","], "invalid k grid ','"),
            (["train", "--k-grid", ""], "invalid k grid ''"),
        ],
        ids=["folds", "repeats", "k-grid", "lengths", "external", "exclude-pair", "repetitions",
             "k-grid-range", "mtry", "max-depth", "min-leaf-frac", "synth-bare",
             "exclude-pair-twice", "k-grid-no-value", "k-grid-empty"],  # fmt: skip
    )
    def test_flags_checked_before_any_input_is_read(self, tmp_path, capsys, argv, message):
        """A bad flag is a parameter error (exit 2) even when every input file
        is missing, which would be an I/O error (exit 3) once read."""
        missing = str(tmp_path / "missing")
        inputs = {
            "train": ["--dataset", missing, "--systems", missing, "--freq-table", missing],
            "synth": ["--freq-table", missing],
            "detect": ["--dataset", missing, "--systems", missing],
            "bias": ["--dataset", missing, "--matrix", missing],
            "importance": ["--model", missing, "--dataset", missing, "--systems", missing,
                           "--freq-table", missing],  # fmt: skip
        }[argv[0]]
        assert main([*argv, *inputs, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error [E_PARAMS]: {message}\n"

    @pytest.mark.parametrize("command", ["evaluate", "bias", "train", "importance"])
    def test_dataset_without_labels_is_e_no_labels(
        self, demo_commands, tmp_path, capsys, command
    ):
        """Every command that scores against expert labels refuses the demo
        corpus stripped of them with one code and message."""
        unlabeled = tmp_path / "corpus.jsonl"  # the name the demo matrix's dataset has
        with open(DEMO / "corpus.jsonl", encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        unlabeled.write_text("".join(json.dumps({"id": r["id"], "text": r["text"]}) + "\n"
                                     for r in records))  # fmt: skip
        demo = str(DEMO / "corpus.jsonl")
        argv = [str(unlabeled) if arg == demo else arg for arg in demo_commands[command]]
        capsys.readouterr()
        assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == (
            "error [E_NO_LABELS]: dataset 'corpus' has no expert labels\n"
        )

    @pytest.mark.parametrize("command", ["train", "importance"])
    def test_dataset_named_like_a_synthetic_one_is_e_schema(
        self, demo_commands, tmp_path, capsys, command
    ):
        """The synthetic set generated for dataset 'a' is named 'synthetic_a', so
        a labeled dataset of that name collides with it instead of losing its
        matrix to it."""
        paths = [tmp_path / f"{name}.jsonl" for name in ("a", "synthetic_a")]
        for path in paths:
            path.write_bytes((DEMO / "corpus.jsonl").read_bytes())
        argv = list(demo_commands[command])
        at = argv.index(str(DEMO / "corpus.jsonl"))
        argv[at : at + 1] = [str(paths[0]), "--dataset", str(paths[1])]
        capsys.readouterr()
        assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == (
            "error [E_SCHEMA]: dataset names collide: "
            "['a', 'synthetic_a', 'synthetic_a', 'synthetic_synthetic_a']\n"
        )

    @pytest.mark.parametrize("command", ["predict", "importance"])
    def test_other_systems_than_the_models_are_e_schema(
        self, demo_commands, tmp_path, capsys, command
    ):
        """The model was trained on alpha, beta and gamma; run with alpha and
        gamma only, predict and importance exit 3 and write nothing."""
        argv = list(demo_commands[command])
        beta = argv.index(str(DEMO / "system_beta.csv"))
        del argv[beta - 1 : beta + 1]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([*argv, "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error [E_SCHEMA]: model was trained on systems ['alpha', 'beta', 'gamma'], "
            "got ['alpha', 'gamma']\n"
        )
        assert not any(out.iterdir())

    def test_out_dir_that_is_a_file_is_e_io(self, demo_commands, tmp_path, capsys):
        """The output directory cannot be made where a file stands: exit 3 through
        main's OSError handler, and the file is left as it was."""
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        assert main([*demo_commands["synth"], "--out-dir", str(taken)]) == 3
        assert capsys.readouterr().err.startswith("error [E_IO]: ")
        assert taken.read_text() == "a file\n"

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

    def test_near_window_too_long_is_3(self, corpus, tmp_path, capsys):
        sysfile = tmp_path / "long.csv"
        sysfile.write_text(f"system,sdg,query_id,query\nlong,1,q1,a NEAR/{'9' * 5000} b\n")
        assert _detect(corpus, str(sysfile), tmp_path / "o") == 3
        assert capsys.readouterr().err == (
            "error [E_SYNTAX]: system 'long', query 'q1': "
            "NEAR window longer than 4300 digits (at position 7)\n"
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


class TestNameNotUtf8:
    """A dataset or system name holding a lone surrogate, as one read from
    undecodable bytes does, is a schema error: one error line, exit 3 and no
    *.tmp left. A dataset or ``--external`` name is refused before any output
    is written; a matrix.json system name when an output would hold it."""

    NAME = os.fsdecode(b"\xff")  # "\udcff"

    def _check(self, capsys, tmp_path, rc, table):
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error [E_SCHEMA]: cannot write {tmp_path / 'out' / table}: "
            "'\\udcff' cannot be written as UTF-8\n"
        )
        assert list(tmp_path.rglob("*.tmp")) == []

    def _check_refused(self, capsys, tmp_path, rc, kind):
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error [E_SCHEMA]: {kind} name '\\udcff' cannot be written as UTF-8\n"
        )
        assert list(tmp_path.rglob("matrix.json")) == []
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_dataset_file_name(self, corpus, system, tmp_path, capsys):
        dataset = tmp_path / f"{self.NAME}.jsonl"
        dataset.write_bytes(Path(corpus).read_bytes())
        rc = _detect(str(dataset), system, tmp_path / "out")
        self._check_refused(capsys, tmp_path, rc, "dataset")

    def test_external_name(self, corpus, system, tmp_path, capsys):
        ext = tmp_path / "ext.csv"
        ext.write_text("doc_id,sdg\nd1,3\n")
        rc = _detect(corpus, system, tmp_path / "out", ["--external", f"{self.NAME}={ext}"])
        self._check_refused(capsys, tmp_path, rc, "system")

    def test_matrix_system_name(self, corpus, tmp_path, capsys):
        matrix = tmp_path / "matrix.json"
        matrix.write_text('{"systems": ["\\udcff"], "datasets": {"corpus": {"assignments": []}}}')
        argv = ["evaluate", "--dataset", corpus, "--matrix", str(matrix)]
        rc = main([*argv, "--out-dir", str(tmp_path / "out")])
        self._check(capsys, tmp_path, rc, "metrics.csv")


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
