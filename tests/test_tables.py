"""The CLI's streamed table writer against the writer it replaced
(``naive_write_table`` in tests/oracle.py): the same CSV and JSON bytes for
every table and kind of column, in batches or not, and the same files from
``detect`` and ``predict`` over two datasets. The lean ``--external`` reader
against the dict reader it replaced: the same masks, messages and warnings."""

import json
import math
import random
from pathlib import Path

import pytest
from oracle import naive_external_predictions, naive_write_table
from test_matrix_file import CSV_MUTATIONS, _external_csv

from sdgdetect import cli
from sdgdetect.cli import TABLES, _write_table, main
from sdgdetect.corpus import Dataset, load_documents, save_documents
from sdgdetect.errors import SchemaError, SdgToolError
from sdgdetect.systems import detect, detect_matrix, import_external_predictions, load_system

DEMO = Path(__file__).parent.parent / "demo"
SYSTEMS = [str(DEMO / f"system_{name}.csv") for name in ("alpha", "beta", "gamma")]

# No NUL: csv.writer before Python 3.11 cannot write it, with either writer.
TEXTS = ["", "a", "Z9", " lead", "trail ", 'say "hi"', "a,b", "two\nlines", "é", " ",
         "\U0001f600", "\\", "'", "\t", "x" * 40]  # fmt: skip
FLOATS = [None, 0.0, -0.0, 1e-7, 0.1 + 0.2, math.nan, math.inf, -math.inf, 1.0, 2.5e-12,
          123456789012.5, 5e-324, 1e300, -2.5, 1 / 3]  # fmt: skip


def _cell(rng: random.Random, kind: str, carriage_return: bool):
    if kind == "float":
        return rng.choice(FLOATS) if rng.random() < 0.5 else rng.uniform(-1e6, 1e6)
    if kind == "bool":
        return rng.random() < 0.5
    if rng.random() < 0.3:
        return rng.choice([0, 17, -3, 10**20])
    texts = TEXTS + ["\r", "a\r\nb"] if carriage_return else TEXTS
    return "".join(rng.choice(texts) for _ in range(rng.randrange(4)))


def _rows(rng: random.Random, name: str, size: int, carriage_return: bool = False) -> list:
    kinds = list(TABLES[name].values())
    return [tuple(_cell(rng, kind, carriage_return) for kind in kinds) for _ in range(size)]


def _assert_as_old_writer(tmp_path: Path, name: str, rows: list) -> None:
    """``_write_table`` given ``rows`` as a generator writes the bytes that the
    old writer writes given them as a list, CSV and JSON."""
    new, old = tmp_path / "new", tmp_path / "old"
    _write_table(new, name, (row for row in rows), True)
    naive_write_table(old, name, list(TABLES[name]), rows, True)
    for suffix in (".csv", ".json"):
        assert (new / f"{name}{suffix}").read_bytes() == (old / f"{name}{suffix}").read_bytes()
    assert sorted(p.name for p in new.iterdir()) == [f"{name}.csv", f"{name}.json"]


@pytest.mark.parametrize("name", sorted(TABLES))
def test_every_table_as_the_old_writer(name, tmp_path):
    """Seeded rows of every column kind, from none to several batches."""
    rng = random.Random(f"tables-{name}")
    for size in (0, 1, 7, cli._BATCH, 2 * cli._BATCH + 5):
        _assert_as_old_writer(tmp_path, name, _rows(rng, name, size))
    for seed in range(3):  # cells holding "\r" somewhere
        _assert_as_old_writer(tmp_path, name, _rows(random.Random(seed), name, 40, True))


def test_edge_values_as_the_old_writer(tmp_path):
    rows = [
        ("d", "id", sdg, value, sdg % 2 == 0) for sdg, value in enumerate(FLOATS[1:], 1)
    ] + [("", "", 0, 0.0, False)]
    _assert_as_old_writer(tmp_path / "predictions", "predictions", rows)
    rows = [("s", "m", value) for value in FLOATS]
    _assert_as_old_writer(tmp_path / "correlations", "correlations", rows)


@pytest.mark.parametrize("at", ["last", "middle", "first"])
def test_carriage_return_in_one_row_quotes_the_whole_file(tmp_path, at):
    """A "\\r" in a single cell, in the last row of a long table or elsewhere,
    turns the whole streamed file, rows already written included, to
    QUOTE_ALL, as the old writer did."""
    rows = [("ds", f"d{i}", "sys", 3, "q1", "poverty", "1|4") for i in range(3 * cli._BATCH)]
    i = {"last": -1, "middle": len(rows) // 2, "first": 0}[at]
    rows[i] = ("ds", "d\r1", *rows[i][2:])
    _assert_as_old_writer(tmp_path, "hits", rows)
    text = (tmp_path / "new" / "hits.csv").read_text(encoding="utf-8")
    assert text.startswith('"dataset","doc_id","system","sdg",')
    assert '"ds","d5","sys","3","q1","poverty","1|4"\n' in text


def test_rows_that_raise_part_way_keep_the_old_files(tmp_path):
    """An error raised by the rows after several batches leaves the files of
    the previous run, byte for byte, and no temporary file."""
    rows = _rows(random.Random(5), "hits", 50)
    _write_table(tmp_path, "hits", rows, True)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def failing():
        yield from _rows(random.Random(6), "hits", 3 * cli._BATCH)
        raise SchemaError("late")

    for as_json in (False, True):
        with pytest.raises(SchemaError, match="late"):
            _write_table(tmp_path, "hits", failing(), as_json)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.fixture(scope="module")
def two_datasets(tmp_path_factory):
    """The demo corpus and a copy under other ids and another name."""
    root = tmp_path_factory.mktemp("two")
    demo = load_documents(DEMO / "corpus.jsonl")
    copy = Dataset("second", tuple(
        type(doc).from_text(f"b-{doc.id}", doc.text, doc.labels or None, doc.evaluated or None)
        for doc in reversed(demo.documents)
    ))  # fmt: skip
    save_documents(copy, root / "second.jsonl")
    return [str(DEMO / "corpus.jsonl"), str(root / "second.jsonl")]


def _dataset_flags(paths):
    return [a for p in paths for a in ("--dataset", p)]


def test_detect_over_two_datasets(two_datasets, tmp_path):
    """Each dataset's hits are its own: the streamed rows bind each dataset
    as they are written, and every table equals the old writer's."""
    out = tmp_path / "out"
    flags = [*_dataset_flags(two_datasets), *(a for s in SYSTEMS for a in ("--systems", s))]
    assert main(["detect", *flags, "--json", "--out-dir", str(out)]) == 0
    systems = [load_system(s) for s in SYSTEMS]
    hit_rows, freq_rows = [], []
    for ds in map(load_documents, two_datasets):
        hits = detect(ds, systems)
        for hit in hits:
            for term, positions in hit.matched_terms or (("", ()),):
                at = "|".join(str(p) for p in positions)
                hit_rows.append((ds.name, hit.doc_id, hit.system, hit.sdg, hit.query_id, term, at))
        freq_rows += [(ds.name, *row) for row in cli.keyword_frequencies(hits)]
    assert {row[0] for row in hit_rows} == {"corpus", "second"}
    expected = tmp_path / "expected"
    naive_write_table(expected, "hits", list(TABLES["hits"]), hit_rows, True)
    naive_write_table(expected, "keyword_frequencies", list(TABLES["keyword_frequencies"]),
                      freq_rows, True)  # fmt: skip
    for path in expected.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


def test_predict_over_two_datasets(two_datasets, tmp_path):
    """Each dataset is scored as its rows are written, under its own name."""
    systems = [a for s in SYSTEMS for a in ("--systems", s)]
    train = ["train", "--dataset", two_datasets[0], *systems, "--freq-table",
             str(DEMO / "wordfreq.tsv"), "--trees", "5", "--folds", "2", "--repeats", "1"]  # fmt: skip
    assert main([*train, "--out-dir", str(tmp_path / "train")]) == 0
    model_path = str(tmp_path / "train" / "model.json")
    out = tmp_path / "out"
    argv = ["predict", "--model", model_path, *_dataset_flags(two_datasets), *systems, "--json"]
    assert main([*argv, "--out-dir", str(out)]) == 0
    model = cli.load_model(model_path)
    loaded = [load_system(s) for s in SYSTEMS]
    rows = []
    for ds in map(load_documents, two_datasets):
        scores = model.score_documents(detect_matrix(ds, loaded), ds)
        for doc, column in zip(ds.documents, zip(*scores)):
            for sdg, score in enumerate(column, 1):
                rows.append((ds.name, doc.id, sdg, score, score >= model.threshold))
    assert {row[0] for row in rows} == {"corpus", "second"}
    naive_write_table(tmp_path / "expected", "predictions", list(TABLES["predictions"]), rows, True)
    for suffix in (".csv", ".json"):
        name = f"predictions{suffix}"
        assert (out / name).read_bytes() == (tmp_path / "expected" / name).read_bytes()


def _read_external(read, path, ids, strict, capsys):
    """What ``read`` gives: its masks or its error message, and its stderr."""
    try:
        result = read(path, ids, strict)
    except SdgToolError as exc:
        result = (type(exc).__name__, str(exc))
    return result, capsys.readouterr().err


EXTERNAL_CASES = {
    "blank lines before a bad row": b"doc_id,sdg\nd1,3\n\n\nd2,99\n",
    "blank lines before an unknown id": b"doc_id,sdg\n\nd1,3\n\r\n\nzz,4\nyy,5\n",
    "short row": b"doc_id,sdg\nd1\n",
    "short row, known id": b"sdg,doc_id\n3\n",
    "extra cell after a blank line": b"doc_id,sdg\n\nd1,3,4\n",
    "quoted line break": b'doc_id,sdg\n"d\n1",3\nzz,2\n',
    "cr line ends": b"doc_id,sdg\rd1,3\rzz,2\r",
    "columns reordered, others kept": b"x,sdg,doc_id\n1,2,d1\n,17,d2\n",
    "empty doc id": b"doc_id,sdg\n,3\n",
    "whitespace only": b"  \n \n",
    "whitespace line": b"  \n",
    "header only": b"doc_id,sdg\n",
}


def test_external_reader_as_the_dict_reader(tmp_path, capsys):
    """Every mutation of the --external sweep, at several seeds, and the cases
    above give the same masks, or the same error, and the same warnings,
    strict and lenient."""
    path = tmp_path / "ext.csv"
    raw = _external_csv()
    cases = {f"{name} {seed}": mutate(raw, random.Random(seed))
             for name, mutate in CSV_MUTATIONS.items() for seed in range(8)}  # fmt: skip
    cases.update(EXTERNAL_CASES)
    ids = [json.loads(line)["id"] for line in (DEMO / "corpus.jsonl").read_text().splitlines()]
    for name, content in cases.items():
        path.write_bytes(content)
        known = ids + ["d1", "d2", "d\n1"]
        for strict in (True, False):
            new = _read_external(import_external_predictions, path, known, strict, capsys)
            old = _read_external(naive_external_predictions, path, known, strict, capsys)
            assert new == old, (name, strict)
    # lines of whitespace are cells under a header without the columns
    path.write_bytes(EXTERNAL_CASES["whitespace only"])
    with pytest.raises(SchemaError, match=r"^ext\.csv: CSV header must include doc_id,sdg$"):
        import_external_predictions(path, ids)
