import csv
import json
import os

import pytest

from sdgdetect.corpus import (
    ALL_SDGS,
    Dataset,
    Document,
    LabeledDocument,
    atomic_write_text,
    load_documents,
    save_documents,
    tokenize,
)
from sdgdetect.errors import IoError, SchemaError


class TestTokenize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Good Health!", ["good", "health"]),
            ("co-operate", ["co", "operate"]),
            ("", []),
            ("don't stop", ["don", "t", "stop"]),
            ("SDG 13 goals", ["sdg", "13", "goals"]),
            ("snake_case splits", ["snake", "case", "splits"]),
            ("Überschuss naïve", ["überschuss", "naïve"]),
        ],
    )
    def test_cases(self, text, expected):
        assert tokenize(text) == expected

    def test_idempotent_on_canonical_form(self):
        tokens = tokenize("Some mixed-case TEXT, with 42 numbers!")
        assert tokenize(" ".join(tokens)) == tokens


class TestLoad:
    def test_jsonl_labeled(self, tmp_path):
        p = tmp_path / "ds.jsonl"
        p.write_text('{"id":"d1","text":"end poverty","labels":[1],"evaluated":[1]}\n')
        ds = load_documents(p)
        doc = ds.documents[0]
        assert isinstance(doc, LabeledDocument)
        assert doc.labels == frozenset({1})
        assert doc.evaluated == frozenset({1})
        assert ds.kind == "labeled"

    def test_labels_default_evaluated_all_17(self, tmp_path):
        p = tmp_path / "ds.jsonl"
        p.write_text('{"id":"d1","text":"x","labels":[3]}\n')
        doc = load_documents(p).documents[0]
        assert doc.evaluated == ALL_SDGS

    def test_unlabeled_record(self, tmp_path):
        p = tmp_path / "ds.jsonl"
        p.write_text('{"id":"d1","text":"plain"}\n')
        ds = load_documents(p)
        assert not isinstance(ds.documents[0], LabeledDocument)
        assert ds.kind == "unlabeled"

    def test_sdg_out_of_range(self, tmp_path):
        p = tmp_path / "ds.jsonl"
        p.write_text('{"id":"d1","text":"x","labels":[18]}\n')
        with pytest.raises(SchemaError):
            load_documents(p)

    def test_labels_must_be_subset_of_evaluated(self, tmp_path):
        p = tmp_path / "ds.jsonl"
        p.write_text('{"id":"d1","text":"x","labels":[2],"evaluated":[1]}\n')
        with pytest.raises(SchemaError):
            load_documents(p)

    def test_missing_id(self, tmp_path):
        p = tmp_path / "ds.jsonl"
        p.write_text('{"text":"x"}\n')
        with pytest.raises(SchemaError):
            load_documents(p)

    def test_id_not_writable_as_utf8(self, tmp_path):
        p = tmp_path / "ds.jsonl"
        p.write_text('{"id":"d\\ud800","text":"x"}\n')
        with pytest.raises(SchemaError) as err:
            load_documents(p)
        assert "ds.jsonl:1" in str(err.value) and "UTF-8" in str(err.value)

    def test_duplicate_ids(self, tmp_path):
        p = tmp_path / "ds.jsonl"
        p.write_text('{"id":"d1","text":"x"}\n{"id":"d1","text":"y"}\n')
        with pytest.raises(SchemaError):
            load_documents(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_documents(tmp_path / "nope.jsonl")

    def test_csv(self, tmp_path):
        p = tmp_path / "ds.csv"
        p.write_text('id,text,labels,evaluated\nd1,"end poverty, now",1|2,1|2|3\nd2,other,,\n')
        ds = load_documents(p)
        assert ds.documents[0].labels == frozenset({1, 2})
        assert ds.documents[0].evaluated == frozenset({1, 2, 3})
        assert ds.documents[0].text == "end poverty, now"
        assert not isinstance(ds.documents[1], LabeledDocument)

    @pytest.mark.parametrize("key,value", [("labels", 5), ("evaluated", True), ("labels", 0)])
    def test_jsonl_sdg_ids_not_a_list(self, tmp_path, key, value):
        p = tmp_path / "ds.jsonl"
        p.write_text(json.dumps({"id": "d1", "text": "x", key: value}) + "\n")
        with pytest.raises(SchemaError) as err:
            load_documents(p)
        assert "ds.jsonl:1" in str(err.value) and "must be a list" in str(err.value)

    def test_csv_long_text_loads_as_jsonl(self, tmp_path):
        text = "water " * 30_000  # 180 000 characters, beyond csv's default field limit
        as_csv, as_jsonl = tmp_path / "ds.csv", tmp_path / "ds.jsonl"
        as_csv.write_text(f"id,text,labels,evaluated\nd1,{text},6,6|7\n")
        as_jsonl.write_text(json.dumps({"id": "d1", "text": text, "labels": [6], "evaluated": [6, 7]}))
        limit = csv.field_size_limit()
        assert load_documents(as_csv) == load_documents(as_jsonl)
        assert csv.field_size_limit() == limit

    def test_csv_error_is_schema_error(self, tmp_path, monkeypatch):
        # a field limit that cannot be raised makes the csv module itself fail
        monkeypatch.setattr(csv, "field_size_limit", lambda *args: 131_072)
        p = tmp_path / "ds.csv"
        p.write_text("id,text\nd1," + "x" * 200_000 + "\n")
        with pytest.raises(SchemaError) as err:
            load_documents(p)
        assert "ds.csv: malformed CSV" in str(err.value)

    def test_csv_bad_header(self, tmp_path):
        p = tmp_path / "ds.csv"
        p.write_text("name,body\nx,y\n")
        with pytest.raises(SchemaError):
            load_documents(p)

    def test_roundtrip(self, tmp_path):
        docs = (
            LabeledDocument.from_text("d1", "End Poverty now", [1], [1, 2]),
            LabeledDocument.from_text("d2", "safe water"),
            Document.from_text("d3", "no labels here"),
        )
        ds = Dataset("mix", docs, kind="labeled")
        out = tmp_path / "mix.jsonl"
        save_documents(ds, out)
        loaded = load_documents(out, name="mix", kind="labeled")
        assert loaded == ds

    def test_word_count(self):
        doc = Document.from_text("d", "three word text")
        assert doc.word_count == 3 == len(doc.tokens)

    def test_invalid_json_line(self, tmp_path):
        p = tmp_path / "ds.jsonl"
        p.write_text('{"id":"d1","text":"ok"}\n{broken\n')
        with pytest.raises(SchemaError) as err:
            load_documents(p)
        assert ":2" in str(err.value)

    def test_empty_dataset_rejected(self, tmp_path):
        p = tmp_path / "ds.jsonl"
        p.write_text("\n")
        with pytest.raises(SchemaError):
            load_documents(p)


class TestAtomicWrite:
    def test_creates_directory_and_writes_utf8(self, tmp_path):
        path = tmp_path / "sub" / "out.txt"
        atomic_write_text(path, "überall\n")
        assert path.read_bytes() == "überall\n".encode("utf-8")
        assert os.listdir(path.parent) == ["out.txt"]

    def test_failed_rename_keeps_old_file_and_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        path.write_text("old")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(IoError, match="disk full"):
            atomic_write_text(path, "new")
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_other_errors_reraised_unchanged(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(tmp_path / "out.txt", "d\ud800")
        assert os.listdir(tmp_path) == []
