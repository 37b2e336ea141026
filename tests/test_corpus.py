import csv
import json
import os
import random

import pytest

from sdgdetect.corpus import (
    ALL_SDGS,
    Dataset,
    Document,
    atomic_write_text,
    load_documents,
    read_csv_rows,
    save_documents,
    tokenize,
)
from sdgdetect.errors import IoError, SchemaError

from oracle import naive_tokenize

# non-ASCII characters whose lowering or tokenizing is easy to get wrong:
# dotted capital I, Greek sigmas, combining acute and dot above, sharp s,
# no-break space, line and paragraph separators, NEL, fullwidth digits,
# Cyrillic, a curly quote and an en dash
_TRICKY = "İΣσς\u0301\u0307ß\u00a0\u2028\u2029\u0085１２ЖжДд\u2019\u2013é"


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

    @pytest.mark.parametrize(
        "text,expected",
        [
            # the sigma before an apostrophe ends its token, so it lowers to final sigma
            ("ΑΣ'Α", ["ας", "α"]),
            # İ lowers to i + U+0307, which stays inside the token
            ("İstanbul", ["i\u0307stanbul"]),
        ],
        ids=["final-sigma", "dotted-capital-i"],
    )
    def test_lowers_each_token_on_its_own(self, text, expected):
        assert tokenize(text) == expected == naive_tokenize(text)

    def test_matches_oracle_on_random_strings(self):
        rng = random.Random(8)
        ascii_chars = [chr(i) for i in range(128)]
        mixed = ascii_chars + list("ΑΣaAs'  ") + list(_TRICKY) * 4
        for n in range(5000):
            pool = ascii_chars if n % 2 else mixed
            text = "".join(rng.choice(pool) for _ in range(rng.randrange(40)))
            assert tokenize(text) == naive_tokenize(text), repr(text)


class TestDocument:
    def test_labels_need_an_evaluated_set(self):
        with pytest.raises(SchemaError, match="labels without an evaluated set"):
            Document("d1", "t", ("t",), labels=frozenset({1}))

    def test_from_text_defaults(self):
        assert Document.from_text("d1", "End now") == Document("d1", "End now", ("end", "now"))
        assert not Document.from_text("d1", "t").evaluated
        assert Document.from_text("d1", "t", [1]).evaluated == ALL_SDGS
        assert Document.from_text("d1", "t", []).evaluated == ALL_SDGS
        assert Document.from_text("d1", "t", evaluated=[3]).evaluated == {3}


class TestLoad:
    def test_jsonl_labeled(self, tmp_path):
        p = tmp_path / "ds.jsonl"
        p.write_text('{"id":"d1","text":"end poverty","labels":[1],"evaluated":[1]}\n')
        ds = load_documents(p)
        doc = ds.documents[0]
        assert doc.evaluated
        assert doc.labels == frozenset({1})
        assert doc.evaluated == frozenset({1})
        assert ds.labeled

    def test_labels_default_evaluated_all_17(self, tmp_path):
        p = tmp_path / "ds.jsonl"
        p.write_text('{"id":"d1","text":"x","labels":[3]}\n')
        doc = load_documents(p).documents[0]
        assert doc.evaluated == ALL_SDGS

    def test_unlabeled_record(self, tmp_path):
        p = tmp_path / "ds.jsonl"
        p.write_text('{"id":"d1","text":"plain"}\n')
        ds = load_documents(p)
        assert not ds.documents[0].evaluated
        assert not ds.labeled

    def test_jsonl_and_csv_load_equal_documents(self, tmp_path):
        """A labeled record, an evaluated-only one and an unlabeled one load alike
        from JSONL and CSV; the unlabeled one alone has an empty evaluated set."""
        jsonl, as_csv = tmp_path / "ds.jsonl", tmp_path / "ds.csv"
        jsonl.write_text(
            '{"id":"d1","text":"end poverty","labels":[1,2]}\n'
            '{"id":"d2","text":"clean water","evaluated":[6]}\n'
            '{"id":"d3","text":"plain"}\n'
        )
        as_csv.write_text(
            "id,text,labels,evaluated\nd1,end poverty,1|2,\nd2,clean water,,6\nd3,plain,,\n"
        )
        ds = load_documents(jsonl)
        assert ds == load_documents(as_csv)
        assert [(doc.labels, doc.evaluated) for doc in ds.documents] == [
            ({1, 2}, ALL_SDGS),
            (set(), {6}),
            (set(), set()),
        ]
        assert [doc.evaluated_mask for doc in ds.documents] == [(1 << 17) - 1, 1 << 5, 0]

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
        assert not ds.documents[1].evaluated

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

    @pytest.mark.parametrize("text", ["hello\nworld", "hello\r\nworld"], ids=["lf", "crlf"])
    def test_csv_quoted_line_break_kept(self, tmp_path, text):
        as_csv, as_jsonl = tmp_path / "ds.csv", tmp_path / "ds.jsonl"
        as_csv.write_bytes(f'id,text,labels\r\nd1,"{text}",1\r\n'.encode())
        as_jsonl.write_text(json.dumps({"id": "d1", "text": text, "labels": [1]}))
        loaded = load_documents(as_csv)
        assert loaded == load_documents(as_jsonl)
        assert loaded.documents[0].text == text
        assert loaded.documents[0].tokens == ("hello", "world")

    def test_csv_crlf_same_rows_and_lines(self, tmp_path):
        rows = ["id,text,labels", "d1,end poverty,1", "d2,clean water,6"]
        lf, crlf = tmp_path / "lf" / "ds.csv", tmp_path / "crlf" / "ds.csv"
        for path, end in ((lf, "\n"), (crlf, "\r\n")):
            path.parent.mkdir()
            path.write_bytes(end.join(rows).encode() + end.encode())
        assert load_documents(lf) == load_documents(crlf)
        for path, end in ((lf, "\n"), (crlf, "\r\n")):
            path.write_bytes(end.join(rows + ["d3,x,99"]).encode() + end.encode())
            with pytest.raises(SchemaError, match=r"^ds\.csv:4: SDG id 99 outside"):
                load_documents(path)

    def test_csv_error_names_physical_line(self, tmp_path):
        p = tmp_path / "ds.csv"
        p.write_text('id,text,labels\nd1,"two\nlines",1\n\nd2,x,99\n')
        with pytest.raises(SchemaError, match=r"^ds\.csv:5: SDG id 99 outside"):
            load_documents(p)

    def test_csv_unquoted_line_separator_stays_in_row(self, tmp_path):
        p = tmp_path / "ds.csv"
        p.write_text("id,text\nd1,end\u2028poverty\u0085now\n", encoding="utf-8")
        (doc,) = load_documents(p).documents
        assert doc.text == "end\u2028poverty\u0085now"
        assert doc.tokens == ("end", "poverty", "now")

    @pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
    def test_byte_order_mark_ignored(self, tmp_path, suffix):
        body = {
            ".jsonl": '{"id":"d1","text":"end poverty","labels":[1]}\n',
            ".csv": "id,text,labels\nd1,end poverty,1\n",
        }[suffix]
        plain, bom = tmp_path / f"plain{suffix}", tmp_path / f"bom{suffix}"
        plain.write_text(body, encoding="utf-8")
        bom.write_text(body, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_documents(bom, name="ds") == load_documents(plain, name="ds")

    def test_csv_bad_header(self, tmp_path):
        p = tmp_path / "ds.csv"
        p.write_text("name,body\nx,y\n")
        with pytest.raises(SchemaError):
            load_documents(p)

    @pytest.mark.parametrize(
        "body,error",
        [
            ("id,text,text\nd1,end,poverty\n", r"ds\.csv:1: .* twice"),
            ("id,text\nd1,end poverty,1\n", r"ds\.csv:2: more cells"),
            ("id,text,labels\nd1,end poverty,1,\n", r"ds\.csv:2: more cells"),
        ],
        ids=["repeated column", "extra cell", "trailing empty cell"],
    )
    def test_csv_extra_cells_or_repeated_column_refused(self, tmp_path, body, error):
        p = tmp_path / "ds.csv"
        p.write_text(body)
        with pytest.raises(SchemaError, match=error):
            load_documents(p)

    def test_roundtrip(self, tmp_path):
        docs = (
            Document.from_text("d1", "End Poverty now", [1], [1, 2]),
            Document.from_text("d2", "safe water", []),
            Document.from_text("d3", "no labels here"),
        )
        ds = Dataset("mix", docs)
        out = tmp_path / "mix.jsonl"
        save_documents(ds, out)
        loaded = load_documents(out, name="mix")
        assert loaded == ds

    def test_roundtrip_unicode_line_separators(self, tmp_path):
        texts = ["end\u2028poverty", "clean\u0085water", "group\x1cseparator", "crlf\r\ninside"]
        ds = Dataset("seps", tuple(Document.from_text(f"d{i}", t) for i, t in enumerate(texts)))
        out = tmp_path / "seps.jsonl"
        save_documents(ds, out)
        assert out.read_text(encoding="utf-8").count("\n") == len(texts)
        assert load_documents(out) == ds

    def test_jsonl_crlf(self, tmp_path):
        lines = ['{"id":"d1","text":"end poverty","labels":[1]}', '{"id":"d2","text":"water"}']
        lf, crlf = tmp_path / "lf" / "ds.jsonl", tmp_path / "crlf" / "ds.jsonl"
        for path, end in ((lf, b"\n"), (crlf, b"\r\n")):
            path.parent.mkdir()
            path.write_bytes(end.join(line.encode() for line in lines) + end)
        assert load_documents(crlf) == load_documents(lf)
        crlf.write_bytes(crlf.read_bytes() + b"{broken\r\n")
        with pytest.raises(SchemaError, match=r"^ds\.jsonl:3: invalid JSON"):
            load_documents(crlf)

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


def test_csv_of_whitespace_lines_lacks_the_header(tmp_path):
    """Lines of whitespace only are a header and rows without the required
    columns; a single such line is an empty file."""
    path = tmp_path / "blank.csv"
    path.write_text("  \n \n")
    with pytest.raises(SchemaError, match=r"^blank\.csv: CSV header must include doc_id,sdg$"):
        read_csv_rows(path, "predictions file", ("doc_id", "sdg"))
    with pytest.raises(SchemaError, match=r"^blank\.csv: CSV header must include id,text$"):
        load_documents(path)
    path.write_text("  \n")
    assert read_csv_rows(path, "predictions file", ("doc_id", "sdg")) == ("blank.csv", [])


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

    def test_text_utf8_cannot_encode_is_schema_error(self, tmp_path):
        path = tmp_path / "out.txt"
        with pytest.raises(SchemaError) as err:
            atomic_write_text(path, "d\ud800")
        assert str(err.value) == f"cannot write {path}: '\\ud800' cannot be written as UTF-8"
        assert os.listdir(tmp_path) == []

    def test_other_errors_reraised_unchanged(self, tmp_path):
        with pytest.raises(TypeError):
            atomic_write_text(tmp_path / "out.txt", b"not text")
        assert os.listdir(tmp_path) == []
