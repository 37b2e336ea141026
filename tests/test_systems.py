import csv
import random

import pytest

from sdgdetect.corpus import Dataset, Document
from sdgdetect.errors import NearOperandError, QuerySyntaxError, SchemaError
from sdgdetect.query import _MAX_NESTING, Or, Term
from sdgdetect.systems import (
    PredictionMatrix,
    SystemDefinition,
    SystemEntry,
    detect,
    import_external_predictions,
    keyword_frequencies,
    load_system,
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
        # compiled corpus path vs the naive per-document scan, over words that
        # share prefixes (app/apple/apply/applied, über/überall) so that one
        # wildcard expands to several corpus words
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
            expected = sorted(
                (
                    doc.id,
                    system.name,
                    entry.sdg,
                    entry.query_id,
                    naive_positive_hits(entry.query, doc.tokens),
                )
                for doc in docs
                for system in systems
                for entry in system.entries
                if naive_eval(entry.query, doc.tokens)
            )
            got = [
                (h.doc_id, h.system, h.sdg, h.query_id, h.matched_terms)
                for h in detect(Dataset(f"t{trial}", docs), systems)
            ]
            assert got == expected


class TestMatrix:
    def test_to_matrix(self, tmp_path):
        system = load_system(_system(tmp_path / "s.csv", ["demo,1,q1,poverty"]))
        ds = _dataset("poverty here", "nothing to see")
        matrix = to_matrix(detect(ds, [system]), ds, [system])
        assert 1 in matrix.predicted("d1", "demo")
        assert 1 not in matrix.predicted("d2", "demo")
        assert matrix.covers("d2", "demo")

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

    def test_merge_keeps_consistency(self, tmp_path):
        system = load_system(_system(tmp_path / "s.csv", ["demo,1,q1,poverty"]))
        ds = _dataset("poverty")
        a = to_matrix(detect(ds, [system]), ds, [system])
        b = to_matrix([], ds, ["other"])
        a.merge(b)
        assert a.systems == ["demo", "other"]
        assert 1 in a.predicted("d1", "demo")
        assert 1 not in a.predicted("d1", "other")

    @pytest.mark.parametrize("sdg", [0, 18, -1])
    def test_add_rejects_sdg_outside_range(self, sdg):
        matrix = PredictionMatrix()
        with pytest.raises(SchemaError):
            matrix.add("d1", "demo", sdg)
        assert not matrix.covers("d1", "demo")

    def test_matches_oracle_on_random_operations(self):
        rng = random.Random(2024)
        docs = [f"d{i}" for i in range(6)]
        systems = ["a", "b", "c"]
        # 1 and 17 are the lowest and highest bits of a row
        sdgs = [1, 2, 9, 16, 17]

        def random_ops(n):
            ops = []
            for _ in range(n):
                doc, system = rng.choice(docs), rng.choice(systems)
                if rng.random() < 0.3:
                    ops.append(("cover", doc, system))
                else:
                    ops.append(("add", doc, system, rng.choice(sdgs)))
            return ops

        def apply(matrix, ops):
            for name, *args in ops:
                getattr(matrix, name)(*args)
            return matrix

        def assert_same(got, want):
            assert got.systems == want.systems
            assert got.assignments == want.assignments
            for doc in docs + ["absent"]:
                for system in systems + ["absent"]:
                    assert got.covers(doc, system) == want.covers(doc, system)
                    assert got.predicted(doc, system) == want.predicted(doc, system)
                    for sdg in range(0, 19):
                        assert (sdg in got.predicted(doc, system)) == want.is_predicted(
                            doc, system, sdg
                        )

        for _ in range(200):
            ops = random_ops(rng.randrange(0, 40))
            got, want = apply(PredictionMatrix(), ops), apply(NaiveMatrix(), ops)
            assert_same(got, want)
            other_ops = random_ops(rng.randrange(0, 20))
            got.merge(apply(PredictionMatrix(), other_ops))
            want.merge(apply(NaiveMatrix(), other_ops))
            assert_same(got, want)
            more = random_ops(5)
            assert_same(apply(got, more), apply(want, more))

    def test_full_row_has_all_seventeen_sdgs(self):
        matrix = PredictionMatrix()
        for sdg in range(17, 0, -1):
            matrix.add("d1", "demo", sdg)
        assert matrix.predicted("d1", "demo") == frozenset(range(1, 18))
        assert matrix.assignments == [("d1", "demo", g) for g in range(1, 18)]


class TestExternalPredictions:
    def test_import(self, tmp_path):
        p = tmp_path / "ext.csv"
        p.write_text("doc_id,sdg\nd1,3\nd1,7\n")
        matrix = import_external_predictions(p, "ext", known_doc_ids=["d1", "d2"])
        assert matrix.predicted("d1", "ext") == frozenset({3, 7})
        assert matrix.covers("d2", "ext")
        assert matrix.predicted("d2", "ext") == frozenset()

    def test_empty_file_all_false(self, tmp_path):
        p = tmp_path / "ext.csv"
        p.write_text("doc_id,sdg\n")
        matrix = import_external_predictions(p, "ext", known_doc_ids=["d1"])
        assert matrix.predicted("d1", "ext") == frozenset()

    def test_zero_byte_file_all_false(self, tmp_path):
        p = tmp_path / "ext.csv"
        p.write_bytes(b"")
        matrix = import_external_predictions(p, "ext", known_doc_ids=["d1"])
        assert matrix.predicted("d1", "ext") == frozenset()

    def test_ids_with_line_breaks_kept_exactly(self, tmp_path):
        ids = ["d\r1", "d\r\n2", "d\n3"]
        p = tmp_path / "ext.csv"
        with open(p, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["doc_id", "sdg"]] + [[doc_id, 5] for doc_id in ids])
        matrix = import_external_predictions(p, "ext", known_doc_ids=ids)
        assert [matrix.predicted(doc_id, "ext") for doc_id in ids] == [frozenset({5})] * 3

    def test_sdg_out_of_range(self, tmp_path):
        p = tmp_path / "ext.csv"
        p.write_text("doc_id,sdg\nd9,21\n")
        with pytest.raises(SchemaError):
            import_external_predictions(p, "ext", known_doc_ids=["d9"])

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
            import_external_predictions(p, "ext", known_doc_ids=["d1"], strict=strict)

    def test_unknown_doc_strict_vs_lenient(self, tmp_path, capsys):
        p = tmp_path / "ext.csv"
        p.write_text("doc_id,sdg\nd9,2\n")
        with pytest.raises(SchemaError):
            import_external_predictions(p, "ext", known_doc_ids=["d1"])
        matrix = import_external_predictions(p, "ext", known_doc_ids=["d1"], strict=False)
        assert matrix.predicted("d1", "ext") == frozenset()
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
