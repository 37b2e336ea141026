import random
import sys

import pytest

from sdgdetect.corpus import Dataset, Document
from sdgdetect.errors import NearOperandError, QuerySyntaxError, SdgToolError
from sdgdetect.query import (
    And,
    Near,
    Not,
    Or,
    Phrase,
    Term,
    TokenIndex,
    match_query,
    parse_query,
    query_to_string,
)
from sdgdetect.systems import SystemDefinition, SystemEntry, detect, detect_matrix

from oracle import (
    PREFIX_VOCAB,
    naive_eval,
    naive_parse_query,
    naive_positive_hits,
    random_query,
    random_tokens,
)


class TestParse:
    def test_or(self):
        assert parse_query("poverty OR hunger") == Or((Term("poverty"), Term("hunger")))

    def test_phrase_and_wildcard(self):
        ast = parse_query('"climate change" AND polic*')
        assert ast == And(
            (Phrase((Term("climate"), Term("change"))), Term("polic", wildcard=True))
        )

    def test_near_with_group(self):
        ast = parse_query("water NEAR/3 (sanitation OR hygiene)")
        assert ast == Near(
            Term("water"), Or((Term("sanitation"), Term("hygiene"))), 3
        )

    def test_precedence(self):
        # OR loosest, then AND, then NOT, then NEAR
        ast = parse_query("a OR b AND NOT c NEAR/2 d")
        assert ast == Or((Term("a"), And((Term("b"), Not(Near(Term("c"), Term("d"), 2))))))

    def test_lowercasing(self):
        assert parse_query("Health") == Term("health")
        # lowercase operator words are plain terms
        assert parse_query("or") == Term("or")

    def test_multi_child_flattening(self):
        ast = parse_query("a OR b OR c")
        assert isinstance(ast, Or) and len(ast.children) == 3

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "(a OR b",
            "a OR b)",
            '"unterminated',
            "a OR",
            "AND b",
            "a NEAR b",
            "a NEAR/ b",
            "a && b",
            "*",
            "po*verty",
            '""',
        ],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(QuerySyntaxError):
            parse_query(text)

    def test_near_operand_must_be_positional(self):
        with pytest.raises(NearOperandError):
            parse_query("(a AND b) NEAR/2 c")
        with pytest.raises(NearOperandError):
            parse_query("(NOT a) NEAR/2 c")
        # chained NEAR: the left operand is itself a NEAR node
        with pytest.raises(NearOperandError):
            parse_query("a NEAR/2 b NEAR/3 c")
        # OR over position-bearing children is fine
        parse_query("(a OR b) NEAR/2 (c OR d)")

    def test_reparse_idempotent(self):
        rng = random.Random(11)
        for _ in range(200):
            ast = random_query(rng, 3)
            assert parse_query(query_to_string(ast)) == ast


class TestLex:
    @pytest.mark.parametrize(
        "text,message,position",
        [
            ("OR*", "unexpected character '*'", 2),
            ("po*verty", "wildcard '*' must be trailing", 3),
            ("a NEAR b", "NEAR requires an integer window (NEAR/<int>)", 2),
            ("a NEAR*", "NEAR requires an integer window (NEAR/<int>)", 2),
            ('x "a-b"', "invalid word 'a-b' in phrase", 2),
            ('"a b_"', "invalid word 'b_' in phrase", 0),
            ("a _", "unexpected character '_'", 2),
        ],
    )
    def test_error_message_and_position(self, text, message, position):
        with pytest.raises(QuerySyntaxError) as err:
            parse_query(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    def test_near_window_ends_at_its_digits(self):
        assert parse_query("a NEAR/5x") == Near(Term("a"), Term("x"), 5)
        assert parse_query("a NEAR/05 b") == Near(Term("a"), Term("b"), 5)

    def test_near_window_of_at_most_4300_digits(self):
        nines = parse_query("a NEAR/" + "9" * 4300 + " b")
        assert nines == Near(Term("a"), Term("b"), 10**4300 - 1)
        assert parse_query("a NEAR/" + "0" * 4299 + "5 b") == Near(Term("a"), Term("b"), 5)
        with pytest.raises(QuerySyntaxError) as err:
            parse_query("a NEAR/" + "0" * 4300 + "5 b")
        assert str(err.value) == "NEAR window longer than 4300 digits (at position 7)"
        assert err.value.position == 7

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="int() has no digit limit here"
    )
    def test_near_window_does_not_depend_on_int_max_str_digits(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # the least Python allows
        try:
            assert parse_query("a NEAR/" + "0" * 4299 + "5 b") == Near(Term("a"), Term("b"), 5)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_operator_prefixed_words_are_terms(self):
        assert parse_query("NEARLY") == Term("nearly")
        assert parse_query("ORx AND NOTe") == And((Term("orx"), Term("note")))

    def test_phrase_words_are_not_operators(self):
        assert parse_query('"a OR b*"') == Phrase((Term("a"), Term("or"), Term("b", True)))


# Pieces the differential test builds query texts from: every token kind,
# near misses of NEAR/<int>, characters that are not word characters, and
# whitespace that only Unicode calls whitespace.
_QUERY_PIECES = [
    "OR", "AND", "NOT", "NEAR", "NEAR/", "NEAR/05", "NEAR/3", "NEARLY", "or",
    '"', '"', "(", ")", "(", ")", "*", "_", "-", "/",
    "a", "Ab", "x1", "é", "Σ", "ß", "\u0663", "\u00b2", "7",
    " ", " ", " ", " ", "\u00a0", "\u2028", "\x1c", "\t",
]


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except SdgToolError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


class TestParseOracle:
    def test_matches_naive_parser(self):
        """The token-pattern lexer gives the character scanner's AST, or its
        error type, message and position, on every text."""
        rng = random.Random(41)
        for i in range(20_000):
            if i % 4 == 0:
                text = query_to_string(random_query(rng, rng.randrange(0, 4), PREFIX_VOCAB))
                if i % 8 == 0:
                    cut = rng.randrange(len(text) + 1)
                    text = text[:cut] + rng.choice(_QUERY_PIECES) + text[cut + rng.randrange(3) :]
            else:
                text = "".join(rng.choice(_QUERY_PIECES) for _ in range(rng.randrange(0, 12)))
            assert _parse_outcome(parse_query, text) == _parse_outcome(naive_parse_query, text), text

    def test_long_near_windows_match_naive_parser(self):
        for digits in ("9" * 4300, "0" * 4299 + "\u0663", "9" * 4301, "0" * 5000):
            for text in (f"a NEAR/{digits} b", f"a NEAR/{digits}"):
                assert _parse_outcome(parse_query, text) == _parse_outcome(naive_parse_query, text)


class TestMatch:
    def test_term(self):
        result = match_query(Term("health"), ["good", "health"])
        assert result.matched
        assert result.matched_terms == (("health", (1,)),)

    def test_phrase_requires_consecutive(self):
        ast = Phrase((Term("climate"), Term("change")))
        assert not match_query(ast, ["climate", "policy", "change"]).matched
        assert match_query(ast, ["climate", "change"]).matched

    def test_near_window(self):
        ast = Near(Term("poverty"), Term("reduction"), 3)
        tokens = ["poverty", "x", "y", "reduction"]
        assert match_query(ast, tokens).matched
        assert not match_query(Near(Term("poverty"), Term("reduction"), 2), tokens).matched

    def test_empty_document(self):
        assert not match_query(Term("a"), []).matched
        assert match_query(Not(Term("war")), []).matched

    def test_unmatched_result_has_no_terms(self):
        result = match_query(And((Term("a"), Term("b"))), ["a"])
        assert not result.matched and result.matched_terms == ()

    def test_not_excludes_negated_literals(self):
        result = match_query(And((Term("a"), Not(Term("z")))), ["a", "q"])
        assert result.matched
        assert result.matched_terms == (("a", (0,)),)

    def test_near_with_absent_right_operand(self):
        assert not match_query(Near(Term("a"), Term("zz", wildcard=True), 5), ["a", "b"]).matched
        assert match_query(Not(Near(Term("a"), Term("zz"), 5)), ["a", "b"]).matched

    def test_negated_literals_still_decide_the_match(self):
        ast = And((Term("a"), Not(Term("b", wildcard=True))))
        assert not match_query(ast, ["a", "bee"]).matched

    def test_positions_within_document(self):
        tokens = ["a", "b", "a", "b"]
        result = match_query(Or((Term("a"), Phrase((Term("a"), Term("b"))))), tokens)
        for _, positions in result.matched_terms:
            assert all(p < len(tokens) for p in positions)


class TestMatchPositions:
    """A term's, phrase's or wildcard's positions, as ``match_query``'s
    matched terms report them, and an OR's, as the NEAR windows they
    satisfy; a NEAR operand without positions is refused."""

    def test_term(self):
        assert match_query(Term("a"), ["a", "b", "a"]).matched_terms == (("a", (0, 2)),)

    def test_phrase(self):
        result = match_query(Phrase((Term("a"), Term("b"))), ["a", "b", "a", "b"])
        assert result.matched_terms == (('"a b"', (0, 2)),)

    def test_or_union(self):
        ast = Near(Or((Term("b"), Term("a"))), Term("c"), 1)
        for tokens, matched in [
            (["a", "x", "b", "c"], True),  # only b is within 1 of c
            (["b", "c", "x", "x", "a"], True),  # b, the first operand, is within 1 of c
            (["a", "c", "x", "x", "b"], True),  # only a: found where the union is sorted
            (["a", "x", "x", "c", "x", "x", "b"], False),  # neither is within 1 of c
        ]:
            assert match_query(ast, tokens).matched is matched, tokens

    def test_wildcard_prefix(self):
        result = match_query(Term("pol", wildcard=True), ["policy", "polish", "nope"])
        assert result.matched_terms == (("pol*", (0, 1)),)

    def test_wildcard_prefix_that_is_a_whole_word(self):
        result = match_query(Term("app", wildcard=True), ["apple", "ap", "app"])
        assert result.matched_terms == (("app*", (0, 2)),)

    def test_wildcard_prefix_matching_no_word(self):
        # each query matches through a, and the literal without positions is not reported
        no_word = Term("zz", wildcard=True)
        result = match_query(Or((Term("a"), no_word)), ["a", "zebra"])
        assert result.matched_terms == (("a", (0,)),)
        result = match_query(Or((Term("a"), Phrase((Term("a"), no_word)))), ["a", "z"])
        assert result.matched_terms == (("a", (0,)),)

    def test_non_ascii_wildcard(self):
        tokens = ["über", "ubiquity", "überall", "zed"]
        assert match_query(Term("über", True), tokens).matched_terms == (("über*", (0, 2)),)
        assert match_query(Term("u", True), tokens).matched_terms == (("u*", (1,)),)

    @pytest.mark.parametrize(
        "node",
        [
            And((Term("a"), Term("b"))),
            Not(Term("a")),
            Near(Term("a"), Term("b"), 1),
        ],
    )
    def test_rejects_non_positional(self, node):
        # the parser refuses these operands; a hand-built AST meets the matcher's check
        for ast in (Near(node, Term("c"), 1), Near(Term("c"), node, 1)):
            with pytest.raises(NearOperandError, match=f"not {type(node).__name__}$"):
                match_query(ast, ["a", "b", "c"])

    def test_hand_built_near_rejects_non_positional_operand(self):
        # an OR has positions only when every operand has
        ast = Near(Or((Term("a"), Not(Term("b")))), Term("c"), 1)
        with pytest.raises(NearOperandError, match="not Or$"):
            match_query(ast, ["a", "b", "c"])

    @pytest.mark.parametrize(
        "ast", ["a", And((Term("a"), "b")), Near(Term("a"), "b", 1), Not(None)]
    )
    def test_rejects_non_node(self, ast):
        with pytest.raises(TypeError, match="^not a query node: "):
            match_query(ast, ["a", "b"])


class TestPruning:
    """Each query is matched as a set of documents, so a document gets a
    TokenIndex (its token positions) only where a phrase or a NEAR candidate
    needs positions; under ``detect`` also where a hit holds one of the
    query's positive literals. Every TokenIndex built is recorded."""

    # a occurs in documents 0-2, b in 2-3 and c in 1-2
    DOCS = [["a", "x"], ["a", "c"], ["a", "b", "c"], ["b"], ["x"]]

    @pytest.mark.parametrize(
        "text,visited",
        [  # (indexed under detect_matrix, indexed under detect)
            ("a AND b", ([], [2])),  # set operations only; the hit in 2 holds a and b
            ("a OR b", ([], [0, 1, 2, 3])),
            ("a OR NOT b", ([], [0, 1, 2])),  # the hit in 4 holds no positive literal
            ("NOT a", ([], [])),  # the hits in 3 and 4 have no positive literal
            ("a AND NOT b", ([], [0, 1])),
            ("(a OR b) NEAR/2 c", ([1, 2], [1, 2])),  # both operands' documents
            ('"a b"', ([2, 3], [2, 3])),  # the rarest word's documents
        ],
    )
    def test_visits_only_required_documents(self, monkeypatch, text, visited):
        dataset = Dataset("t", tuple(Document.from_text(f"d{i}", " ".join(words))
                                     for i, words in enumerate(self.DOCS)))  # fmt: skip
        system = SystemDefinition("s", (SystemEntry(1, "q", parse_query(text)),))
        seen, init = [], TokenIndex.__init__

        def counting_init(index, tokens, words):
            seen.append(self.DOCS.index(list(tokens)))
            init(index, tokens, words)

        monkeypatch.setattr(TokenIndex, "__init__", counting_init)
        for run, expected in zip((detect_matrix, detect), visited):
            seen.clear()
            run(dataset, [system])
            assert sorted(seen) == expected  # and no document indexed twice


class TestProperties:
    def test_oracle_equivalence(self):
        rng = random.Random(101)
        for _ in range(1000):
            ast = random_query(rng, 4)
            tokens = random_tokens(rng)
            assert match_query(ast, tokens).matched == naive_eval(ast, tokens)

    def test_matched_terms_oracle_equivalence(self):
        rng = random.Random(103)
        for _ in range(1000):
            ast = random_query(rng, 4, PREFIX_VOCAB)
            tokens = random_tokens(rng, 30, PREFIX_VOCAB)
            assert match_query(ast, tokens).matched_terms == naive_positive_hits(ast, tokens)

    def test_de_morgan(self):
        rng = random.Random(17)
        for _ in range(300):
            a = random_query(rng, 2)
            b = random_query(rng, 2)
            tokens = random_tokens(rng)
            lhs = match_query(Not(Or((a, b))), tokens).matched
            rhs = match_query(And((Not(a), Not(b))), tokens).matched
            assert lhs == rhs

    def test_near_symmetry(self):
        rng = random.Random(23)
        for _ in range(300):
            x = random_query(rng, 0)
            y = random_query(rng, 0)
            n = rng.randrange(0, 5)
            tokens = random_tokens(rng)
            assert (
                match_query(Near(x, y, n), tokens).matched
                == match_query(Near(y, x, n), tokens).matched
            )

    def test_near_monotone_in_window(self):
        rng = random.Random(29)
        for _ in range(300):
            x = random_query(rng, 0)
            y = random_query(rng, 0)
            n = rng.randrange(0, 5)
            tokens = random_tokens(rng)
            if match_query(Near(x, y, n), tokens).matched:
                for m in range(n, n + 4):
                    assert match_query(Near(x, y, m), tokens).matched

    def test_wildcard_subsumption(self):
        rng = random.Random(31)
        for _ in range(300):
            tokens = random_tokens(rng)
            word = rng.choice(["apple", "berry", "cedar"])
            cut = rng.randrange(1, len(word))
            exact = Term(word)
            prefix = Term(word[:cut], wildcard=True)
            if match_query(exact, tokens).matched:
                assert match_query(prefix, tokens).matched
