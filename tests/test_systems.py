import csv
import random
from collections import Counter

import pytest

from sdgdetect.corpus import Dataset, Document
from sdgdetect.errors import NearOperandError, QuerySyntaxError, SchemaError
from sdgdetect.query import _MAX_NESTING, Not, Or, Term, query_to_string
from sdgdetect.systems import (
    Hit,
    PredictionMatrix,
    SystemDefinition,
    SystemEntry,
    detect,
    detect_matrix,
    import_external_predictions,
    keyword_frequencies,
    load_system,
    mask_sdgs,
    to_matrix,
)

from oracle import PREFIX_VOCAB, NaiveMatrix, naive_eval, naive_positive_hits, random_query, random_tokens


def _dataset(*texts):
    docs = tuple(Document.from_text(f"d{i+1}", t) for i, t in enumerate(texts))
    return Dataset("test", docs)


def _system(path, rows):
    lines = ["system,sdg,query_id,query"] + rows
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoadSystem:
    def test_basic(self, tmp_path):
        p = _system(tmp_path / "s.csv", ['demo,1,q1,"poverty OR destitution"'])
        system = load_system(p)
        assert system.name == "demo"
        assert system.entries[0].sdg == 1
        assert system.entries[0].query_id == "q1"

    def test_byte_order_mark_ignored(self, tmp_path):
        rows = ['demo,1,q1,"poverty OR destitution"', "demo,6,q2,water"]
        plain = _system(tmp_path / "plain.csv", rows)
        bom = tmp_path / "bom.csv"
        bom.write_text(plain.read_text(encoding="utf-8"), encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_system(bom) == load_system(plain)

    def test_duplicate_query_id(self, tmp_path):
        p = _system(tmp_path / "s.csv", ["demo,1,q1,poverty", "demo,2,q1,hunger"])
        with pytest.raises(SchemaError):
            load_system(p)

    def test_sdg_zero(self, tmp_path):
        p = _system(tmp_path / "s.csv", ["demo,0,q1,poverty"])
        with pytest.raises(SchemaError):
            load_system(p)

    def test_syntax_error_carries_context(self, tmp_path):
        p = _system(tmp_path / "s.csv", ["demo,1,q1,(poverty OR"])
        with pytest.raises(QuerySyntaxError) as err:
            load_system(p)
        assert "q1" in str(err.value) and "demo" in str(err.value)

    @pytest.mark.parametrize(
        "query,error,message,position",
        [
            ("poverty AND", QuerySyntaxError, "expected a term, phrase, or '(' (at position 11)", 11),
            ("a b", QuerySyntaxError, "unexpected trailing input (at position 2)", 2),
            ("water  energy", QuerySyntaxError, "unexpected trailing input (at position 7)", 7),
            (
                '"(a AND b) NEAR/2 c"',
                NearOperandError,
                "NEAR operand must be a term, phrase, or OR over those (at position 10)",
                None,
            ),
        ],
    )
    def test_query_error_keeps_type_code_and_position(
        self, tmp_path, query, error, message, position
    ):
        p = _system(tmp_path / "s.csv", [f"bad,1,q1,{query}"])
        with pytest.raises(error) as err:
            load_system(p)
        assert type(err.value) is error
        assert err.value.code == error.code
        assert str(err.value) == f"system 'bad', query 'q1': {message}"
        assert getattr(err.value, "position", None) == position

    def test_query_nested_too_deeply(self, tmp_path):
        # the deepest AST per parenthesis: OR over AND over NOT
        at_bound = "(a OR b AND NOT " * _MAX_NESTING + "c" + ")" * _MAX_NESTING
        system = load_system(_system(tmp_path / "ok.csv", [f'demo,1,q1,"{at_bound}"']))
        ast = system.entries[0].query
        for _ in range(_MAX_NESTING):
            assert isinstance(ast, Or)
            ast = ast.children[1].children[1].child
        assert ast == Term("c")
        assert len(detect(_dataset("a b c"), [system])) == 1  # matching stays within the stack

        deeper = "(" * (_MAX_NESTING + 1) + "a" + ")" * (_MAX_NESTING + 1)
        with pytest.raises(QuerySyntaxError) as err:
            load_system(_system(tmp_path / "deep.csv", [f"demo,1,q1,{deeper}"]))
        assert err.value.position == _MAX_NESTING
        assert str(err.value) == (
            f"system 'demo', query 'q1': query nested too deeply (at position {_MAX_NESTING})"
        )

    @pytest.mark.parametrize(
        "body,error",
        [
            ("system,sdg,query_id,query\nalpha,1,q1,poverty OR hunger, famine\n", r"s\.csv:2: more"),
            ("system,sdg,query_id,query\nalpha,1,q1,poverty,\n", r"s\.csv:2: more"),
            ("system,sdg,query_id,query,query\nalpha,1,q1,poverty,hunger\n", r"s\.csv:1: .* twice"),
        ],
        ids=["extra cell", "trailing empty cell", "repeated column"],
    )
    def test_extra_cells_or_repeated_column_refused(self, tmp_path, body, error):
        # csv.DictReader would drop the extra cells and keep the last "query"
        p = tmp_path / "s.csv"
        p.write_text(body)
        with pytest.raises(SchemaError, match=error):
            load_system(p)

    def test_mixed_system_names(self, tmp_path):
        p = _system(tmp_path / "s.csv", ["a,1,q1,poverty", "b,2,q2,hunger"])
        with pytest.raises(SchemaError):
            load_system(p)


class TestDetect:
    def test_single_hit(self, tmp_path):
        system = load_system(_system(tmp_path / "s.csv", ["demo,1,q1,poverty"]))
        hits = detect(_dataset("end poverty now"), [system])
        assert len(hits) == 1
        assert (hits[0].doc_id, hits[0].sdg, hits[0].query_id) == ("d1", 1, "q1")

    def test_empty_document_no_hits(self, tmp_path):
        system = load_system(_system(tmp_path / "s.csv", ["demo,1,q1,poverty"]))
        assert detect(_dataset(""), [system]) == []

    def test_near_window_boundary(self, tmp_path):
        near1 = load_system(_system(tmp_path / "a.csv", ["n1,6,q1,water NEAR/1 sanitation"]))
        near0 = load_system(_system(tmp_path / "b.csv", ["n0,6,q1,water NEAR/0 sanitation"]))
        ds = _dataset("water sanitation")
        assert len(detect(ds, [near1])) == 1
        # adjacent tokens are distance 1, which exceeds a 0 window
        assert len(detect(ds, [near0])) == 0

    def test_deterministic_and_sorted(self, tmp_path):
        system = load_system(
            _system(tmp_path / "s.csv", ["demo,1,q1,poverty", "demo,2,q2,hunger"])
        )
        ds = _dataset("hunger and poverty", "poverty")
        first = detect(ds, [system])
        second = detect(ds, [system])
        assert first == second
        keys = [(h.doc_id, h.system, h.sdg, h.query_id) for h in first]
        assert keys == sorted(keys)

    def test_pure_or_single_keyword_triggers(self, tmp_path):
        system = load_system(
            _system(tmp_path / "s.csv", ["orsys,3,q1,health OR disease OR wellbeing"])
        )
        hits = detect(_dataset("only health mentioned"), [system])
        assert len(hits) == 1 and hits[0].sdg == 3

    def _hits(self, tmp_path, query, *texts):
        system = load_system(_system(tmp_path / "s.csv", [f'demo,1,q1,"{query}"']))
        return [(h.doc_id, h.matched_terms) for h in detect(_dataset(*texts), [system])]

    def test_wildcard_prefix_matching_no_corpus_word(self, tmp_path):
        assert self._hits(tmp_path, "zz*", "apple", "zebra") == []
        assert self._hits(tmp_path, "NOT zz*", "apple", "") == [("d1", ()), ("d2", ())]

    def test_wildcard_prefix_that_is_a_whole_word(self, tmp_path):
        assert self._hits(tmp_path, "app*", "app apple", "ap") == [("d1", (("app*", (0, 1)),))]

    def test_not_matches_empty_document(self, tmp_path):
        assert self._hits(tmp_path, "NOT war", "war", "", "peace") == [("d2", ()), ("d3", ())]

    def test_pure_not_visits_every_document(self, tmp_path):
        # x occurs in no document at all, so nothing narrows the documents to visit
        assert self._hits(tmp_path, "NOT x", "a", "b") == [("d1", ()), ("d2", ())]

    def test_and_not_with_negated_word_in_other_documents(self, tmp_path):
        hits = self._hits(tmp_path, "a AND NOT b", "a c", "b", "a b", "a")
        assert hits == [("d1", (("a", (0,)),)), ("d4", (("a", (0,)),))]

    def test_near_with_right_operand_absent_from_corpus(self, tmp_path):
        assert self._hits(tmp_path, "a NEAR/3 zz", "a b a", "b") == []
        assert self._hits(tmp_path, "NOT (a NEAR/3 zz*)", "a b", "") == [("d1", ()), ("d2", ())]

    def test_matches_oracle_on_random_corpora(self):
        # the corpus search vs the naive per-document scan
        for ds, systems in _random_corpora():
            expected = sorted(
                (
                    doc.id,
                    system.name,
                    entry.sdg,
                    entry.query_id,
                    naive_positive_hits(entry.query, doc.tokens),
                )
                for doc in ds.documents
                for system in systems
                for entry in system.entries
                if naive_eval(entry.query, doc.tokens)
            )
            got = [
                (h.doc_id, h.system, h.sdg, h.query_id, h.matched_terms)
                for h in detect(ds, systems)
            ]
            assert got == expected


def _random_corpora():
    """120 seeded datasets, each with one or two systems of random queries, over
    words that share prefixes (app/apple/apply/applied, über/überall) so that
    one wildcard expands to several corpus words. Some documents are empty."""
    rng = random.Random(404)
    for trial in range(120):
        vocab = rng.sample(PREFIX_VOCAB, rng.randrange(1, len(PREFIX_VOCAB) + 1))
        docs = tuple(
            Document.from_text(f"d{i}", " ".join(random_tokens(rng, 20, vocab)))
            for i in range(rng.randrange(1, 8))
        )
        systems = []
        for s in range(rng.randrange(1, 3)):
            entries = []
            for q in range(rng.randrange(1, 12)):
                ast = random_query(rng, 3, PREFIX_VOCAB)
                sdg = rng.randrange(1, 18)
                entries.append(SystemEntry(sdg, f"q{q}", ast))
            systems.append(SystemDefinition(f"s{s}", tuple(entries)))
        yield Dataset(f"t{trial}", docs), systems


class TestMatrix:
    def test_detect_matrix_equals_the_matrix_of_hits(self):
        """The matrix set straight from the matching pairs has the columns the
        hits give, on the oracle's random corpora: prefix vocabularies,
        pure NOT queries, phrases, NEAR and empty documents."""
        seen = Counter()
        for ds, systems in _random_corpora():
            columns = detect_matrix(ds, systems).columns
            assert columns == to_matrix(detect(ds, systems), ds, systems).columns
            seen["empty documents"] += sum(not doc.tokens for doc in ds.documents)
            for entry in (entry for system in systems for entry in system.entries):
                text = query_to_string(entry.query)
                seen["pure NOT"] += isinstance(entry.query, Not)
                seen["phrase"] += '"' in text
                seen["NEAR"] += "NEAR/" in text
        assert all(seen[kind] for kind in ("empty documents", "pure NOT", "phrase", "NEAR"))

    def test_every_system_has_a_column_over_every_document(self):
        """Both builders give each system one column holding every document of
        the dataset, in dataset order, whether or not any of its queries match."""
        for ds, systems in _random_corpora():
            ids = [doc.id for doc in ds.documents]
            for matrix in (detect_matrix(ds, systems), to_matrix([], ds, systems)):
                assert list(matrix.columns) == [s.name for s in systems]
                assert all(list(column) == ids for column in matrix.columns.values())

    def test_to_matrix(self, tmp_path):
        system = load_system(_system(tmp_path / "s.csv", ["demo,1,q1,poverty"]))
        ds = _dataset("poverty here", "nothing to see")
        matrix = to_matrix(detect(ds, [system]), ds, [system])
        assert 1 in matrix.predicted("d1", "demo")
        assert 1 not in matrix.predicted("d2", "demo")
        assert matrix.columns["demo"]["d2"] == 0

    def test_duplicate_hits_collapse(self, tmp_path):
        system = load_system(
            _system(tmp_path / "s.csv", ["demo,1,q1,poverty", "demo,1,q2,destitution"])
        )
        ds = _dataset("poverty and destitution")
        hits = detect(ds, [system])
        assert len(hits) == 2
        matrix = to_matrix(hits, ds, [system])
        assert matrix.predicted("d1", "demo") == frozenset({1})

    def test_all_false_when_no_hits(self, tmp_path):
        system = load_system(_system(tmp_path / "s.csv", ["demo,1,q1,poverty"]))
        ds = _dataset("nothing relevant")
        matrix = to_matrix([], ds, [system])
        assert matrix.predicted("d1", "demo") == frozenset()

    def test_system_without_hits_keeps_its_column(self, tmp_path):
        """A system that matches nothing has an all-false column beside one that matches."""
        system = load_system(_system(tmp_path / "s.csv", ["demo,1,q1,poverty"]))
        other = load_system(_system(tmp_path / "o.csv", ["other,1,q1,hunger"]))
        ds = _dataset("poverty")
        matrix = to_matrix(detect(ds, [system, other]), ds, [system, other])
        assert matrix.columns == {"demo": {"d1": 1}, "other": {"d1": 0}}
        assert 1 in matrix.predicted("d1", "demo")
        assert 1 not in matrix.predicted("d1", "other")
        assert matrix.assignments == [("d1", "demo", 1)]

    def test_matches_oracle_on_random_operations(self):
        """Random columns, and further columns added to a built matrix (as
        ``detect`` adds its external systems' columns), against ``NaiveMatrix``."""
        rng = random.Random(2024)
        docs = [f"d{i}" for i in range(6)]
        systems = ["a", "b", "c", "d", "e"]
        # 1 and 17 are the lowest and highest bits of a row
        sdgs = [1, 2, 9, 16, 17]

        def random_columns(names):
            """Random columns for ``names``, and the same as a NaiveMatrix."""
            columns, naive = {}, NaiveMatrix()
            for system in names:
                columns[system] = dict.fromkeys(docs, 0)
                for doc in docs:
                    naive.cover(doc, system)
                for _ in range(rng.randrange(0, 15)):
                    doc, sdg = rng.choice(docs), rng.choice(sdgs)
                    columns[system][doc] |= 1 << (sdg - 1)
                    naive.add(doc, system, sdg)
            return columns, naive

        def assert_same(got, want):
            assert got.assignments == want.assignments
            assert sorted(got.columns) == want.systems
            for doc in docs + ["absent"]:
                for system in systems + ["absent"]:
                    covered = doc in got.columns.get(system, ())
                    assert covered == want.covers(doc, system)
                    assert got.predicted(doc, system) == want.predicted(doc, system)
                    for sdg in range(0, 19):
                        assert (sdg in got.predicted(doc, system)) == want.is_predicted(
                            doc, system, sdg
                        )

        for _ in range(200):
            names = rng.sample(systems, rng.randrange(0, len(systems) + 1))
            split = rng.randrange(0, len(names) + 1)
            columns, want = random_columns(names[:split])
            got = PredictionMatrix(columns)
            assert_same(got, want)
            added, naive = random_columns(names[split:])
            got.columns.update(added)
            want.merge(naive)
            assert_same(got, want)

    def test_full_row_has_all_seventeen_sdgs(self, tmp_path):
        system = load_system(_system(tmp_path / "s.csv", ["demo,1,q1,poverty"]))
        hits = [Hit("d1", "demo", sdg, f"q{sdg}", ()) for sdg in range(17, 0, -1)]
        matrix = to_matrix(hits, _dataset("text"), [system])
        assert matrix.predicted("d1", "demo") == frozenset(range(1, 18))
        assert matrix.assignments == [("d1", "demo", g) for g in range(1, 18)]


class TestExternalPredictions:
    def test_import(self, tmp_path):
        p = tmp_path / "ext.csv"
        p.write_text("doc_id,sdg\nd1,3\nd1,7\n")
        masks = import_external_predictions(p, ["d1", "d2"])
        assert masks.keys() == {"d1", "d2"}
        assert mask_sdgs(masks["d1"]) == [3, 7]
        assert masks["d2"] == 0

    def test_empty_file_all_false(self, tmp_path):
        p = tmp_path / "ext.csv"
        p.write_text("doc_id,sdg\n")
        assert import_external_predictions(p, ["d1"]) == {"d1": 0}

    def test_zero_byte_file_all_false(self, tmp_path):
        p = tmp_path / "ext.csv"
        p.write_bytes(b"")
        assert import_external_predictions(p, ["d1"]) == {"d1": 0}

    def test_ids_with_line_breaks_kept_exactly(self, tmp_path):
        ids = ["d\r1", "d\r\n2", "d\n3"]
        p = tmp_path / "ext.csv"
        with open(p, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["doc_id", "sdg"]] + [[doc_id, 5] for doc_id in ids])
        masks = import_external_predictions(p, ids)
        assert [mask_sdgs(masks[doc_id]) for doc_id in ids] == [[5]] * 3

    def test_sdg_out_of_range(self, tmp_path):
        p = tmp_path / "ext.csv"
        p.write_text("doc_id,sdg\nd9,21\n")
        with pytest.raises(SchemaError):
            import_external_predictions(p, ["d9"])

    @pytest.mark.parametrize(
        "body,error",
        [
            ("doc_id,sdg,sdg\nd1,1,5,6\n", r"ext\.csv:1: .* twice"),
            ("doc_id,sdg\nd1,1,5\n", r"ext\.csv:2: more cells"),
            ("doc_id,sdg\nd1,1\nd1,2,\n", r"ext\.csv:3: more cells"),
        ],
        ids=["repeated column", "extra cell", "trailing empty cell"],
    )
    @pytest.mark.parametrize("strict", [True, False])
    def test_extra_cells_or_repeated_column_refused(self, tmp_path, body, error, strict):
        p = tmp_path / "ext.csv"
        p.write_text(body)
        with pytest.raises(SchemaError, match=error):
            import_external_predictions(p, ["d1"], strict=strict)

    @pytest.mark.parametrize("strict", [True, False])
    def test_empty_column_name_refused(self, tmp_path, strict):
        # a trailing comma in the header named a column "", which took the extra "7"
        p = tmp_path / "ext.csv"
        p.write_text("doc_id,sdg,\nd01,1,7\n")
        with pytest.raises(SchemaError, match=r"ext\.csv:1: CSV header has an empty column name"):
            import_external_predictions(p, ["d01"], strict=strict)

    def test_unknown_doc_strict_vs_lenient(self, tmp_path, capsys):
        p = tmp_path / "ext.csv"
        p.write_text("doc_id,sdg\nd9,2\n")
        with pytest.raises(SchemaError):
            import_external_predictions(p, ["d1"])
        assert import_external_predictions(p, ["d1"], strict=False) == {"d1": 0}
        assert "d9" in capsys.readouterr().err


class TestKeywordFrequencies:
    def test_counts_sum_positions_over_documents(self, tmp_path):
        system = load_system(_system(tmp_path / "s.csv", ["demo,3,q1,health"]))
        ds = _dataset("health matters", "your health")
        table = keyword_frequencies(detect(ds, [system]))
        assert table == [("demo", "health", 2)]

    def test_multiple_positions_in_one_doc(self, tmp_path):
        system = load_system(_system(tmp_path / "s.csv", ["demo,3,q1,health"]))
        text = "health and health plus health"
        ds = _dataset(text)
        table = keyword_frequencies(detect(ds, [system]))
        # independent recount by scanning tokens
        expected = sum(1 for tok in text.split() if tok == "health")
        assert table == [("demo", "health", expected)]

    def test_empty(self):
        assert keyword_frequencies([]) == []


def test_system_definition_requires_entries():
    with pytest.raises(SchemaError):
        SystemDefinition("empty", ())


@pytest.mark.parametrize("sdg", [0, 18, -1])
def test_system_entry_rejects_sdg_outside_range(sdg):
    with pytest.raises(SchemaError, match=f"SDG id {sdg} outside 1..17"):
        SystemEntry(sdg, "q1", Term("poverty"))
