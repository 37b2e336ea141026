"""Boolean/proximity query language: parsing and matching.

Grammar (operators are case-sensitive uppercase; precedence from loosest
to tightest: OR, AND, NOT, NEAR; parentheses override and nest at most
100 deep):

    query  = or ;
    or     = and { "OR" and } ;
    and    = not { "AND" not } ;
    not    = [ "NOT" ] near ;
    near   = prim { "NEAR/" INT prim } ;
    prim   = TERM | PHRASE | "(" query ")" ;
    TERM   = word [ "*" ] ;
    PHRASE = '"' word { " " word } '"'   (trailing "*" allowed per word)

One token pattern lexes the text in one left-to-right pass: each match
is whitespace, NEAR/<digits>, a word with an optional trailing "*", a
parenthesis, a quoted phrase or an unclosed quote, and any other
character is a syntax error. One word pattern reads terms and phrase
words alike: a maximal run of Unicode letters/digits ("_" is not a
letter), lowercased by the parser. Wildcards are trailing-only and mean
prefix match. NEAR/n requires both operands to be position-bearing
(terms, phrases, or ORs over those); |p1 - p2| <= n over token indices,
with a phrase's position being its start index.

Matching compiles each query once per corpus (``CorpusIndex.compile``).
Wildcards are expanded against the corpus's sorted vocabulary, and every
distinct term or phrase becomes one literal shared by all queries.
``CorpusIndex.search`` finds the documents holding each literal in one
pass over the corpus, then evaluates each query once as the exact set of
documents it matches: ``OR`` is the union of its operands' sets, ``AND``
their intersection and ``NOT`` the complement; a phrase keeps its rarest
word's documents where its positions are not empty, and ``NEAR`` keeps
its operands' common documents where a pair of positions lies within the
window. A document's token positions (``TokenIndex``) are built only for
those phrase and ``NEAR`` candidates and for hits, whose positive
literals' positions ``CorpusIndex.matched_terms`` reads; ``release`` drops
a document's index once its hits are built. ``match_query`` and
``match_positions`` run the same code on a one-document corpus.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Sequence, Union

from .errors import NearOperandError, QuerySyntaxError

__all__ = [
    "Term",
    "Phrase",
    "Or",
    "And",
    "Not",
    "Near",
    "Node",
    "MatchResult",
    "TokenIndex",
    "CompiledQuery",
    "CorpusIndex",
    "parse_query",
    "match_query",
    "match_positions",
    "query_to_string",
    "is_position_bearing",
]


@dataclass(frozen=True)
class Term:
    word: str
    wildcard: bool = False


@dataclass(frozen=True)
class Phrase:
    words: tuple[Term, ...]


@dataclass(frozen=True)
class Or:
    children: tuple["Node", ...]


@dataclass(frozen=True)
class And:
    children: tuple["Node", ...]


@dataclass(frozen=True)
class Not:
    child: "Node"


@dataclass(frozen=True)
class Near:
    left: "Node"
    right: "Node"
    n: int


Node = Union[Term, Phrase, Or, And, Not, Near]


@dataclass(frozen=True)
class MatchResult:
    matched: bool
    # (surface pattern, token positions hit), positive literals only
    matched_terms: tuple[tuple[str, tuple[int, ...]], ...]


def is_position_bearing(node: Node) -> bool:
    if isinstance(node, (Term, Phrase)):
        return True
    if isinstance(node, Or):
        return all(is_position_bearing(c) for c in node.children)
    return False


# ---------------------------------------------------------------------------
# Lexer / parser
# ---------------------------------------------------------------------------

# One alternative per token: leading whitespace, NEAR/<int>, a word with an
# optional "*", a parenthesis, a quoted phrase, a quote left open, and any
# other character, so that the matches cover the whole text. Each token
# takes the whitespace after it along.
_TOKEN_RE = re.compile(r'\s+|(?:NEAR/(\d+)|([^\W_]+)(\*?)|([()])|"([^"]*)"|(")|(.))\s*', re.S)
# A term or a phrase word: letters and digits, then an optional "*".
_WORD_RE = re.compile(r"([^\W_]+)(\*?)")
# Deepest parenthesis nesting parsed; deeper queries would exhaust the stack.
_MAX_NESTING = 100
_Token = tuple[str, Union[Node, int, None], int]


def _lex(text: str) -> list[_Token]:
    """``(kind, value, position)`` tokens: each term or phrase one finished
    ``ATOM``, and last an ``END`` token at ``len(text)``."""
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        near, word, star, paren, phrase, quote, other = m.groups()
        i = m.start()
        if word == "NEAR":
            raise QuerySyntaxError("NEAR requires an integer window (NEAR/<int>)", i)
        elif word in ("OR", "AND", "NOT"):
            if star:
                raise QuerySyntaxError("unexpected character '*'", m.start(3))
            tokens.append((word, None, i))
        elif word:
            if star and _WORD_RE.match(text, m.end(3)):
                raise QuerySyntaxError("wildcard '*' must be trailing", m.end(3))
            tokens.append(("ATOM", Term(word.lower(), bool(star)), i))
        elif near:
            tokens.append(("NEAR", int(near), i))
        elif paren:
            tokens.append((paren, None, i))
        elif phrase is not None:
            parts = phrase.split()
            if not parts:
                raise QuerySyntaxError("empty phrase", i)
            words = [_WORD_RE.fullmatch(part) for part in parts]
            if None in words:
                raise QuerySyntaxError(f"invalid word {parts[words.index(None)]!r} in phrase", i)
            tokens.append(("ATOM", Phrase(tuple(Term(w[1].lower(), bool(w[2])) for w in words)), i))
        elif quote:
            raise QuerySyntaxError("unterminated phrase quote", i)
        elif other:
            raise QuerySyntaxError(f"unexpected character {other!r}", i)
    tokens.append(("END", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def _take(self, kind: str) -> bool:
        if self.tokens[self.pos][0] != kind:
            return False
        self.pos += 1
        return True

    def parse(self) -> Node:
        node = self._or()
        if self.tokens[self.pos][0] != "END":
            raise QuerySyntaxError("unexpected trailing input", self.tokens[self.pos][2])
        return node

    def _or(self) -> Node:
        return self._nary("OR", Or, self._and)

    def _and(self) -> Node:
        return self._nary("AND", And, self._not)

    def _nary(self, op: str, node_type: type[Or | And], operand: Callable[[], Node]) -> Node:
        children = [operand()]
        while self._take(op):
            children.append(operand())
        return children[0] if len(children) == 1 else node_type(tuple(children))

    def _not(self) -> Node:
        return Not(self._near()) if self._take("NOT") else self._near()

    def _near(self) -> Node:
        node = self._prim()
        while self.tokens[self.pos][0] == "NEAR":
            _, n, at = self.tokens[self.pos]
            self.pos += 1
            right = self._prim()
            for operand in (node, right):
                if not is_position_bearing(operand):
                    raise NearOperandError(
                        f"NEAR operand must be a term, phrase, or OR over those "
                        f"(at position {at})"
                    )
            node = Near(node, right, n)  # type: ignore[arg-type]
        return node

    def _prim(self) -> Node:
        kind, value, at = self.tokens[self.pos]
        self.pos += 1
        if kind == "ATOM":
            return value  # type: ignore[return-value]
        if kind == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise QuerySyntaxError("query nested too deeply", at)
            node = self._or()
            if not self._take(")"):
                raise QuerySyntaxError("missing closing parenthesis", self.tokens[self.pos][2])
            self.depth -= 1
            return node
        raise QuerySyntaxError("expected a term, phrase, or '('", at)


def parse_query(text: str) -> Node:
    if not text or not text.strip():
        raise QuerySyntaxError("empty query", 0)
    return _Parser(_lex(text)).parse()


def _term_pattern(term: Term) -> str:
    return term.word + ("*" if term.wildcard else "")


def query_to_string(node: Node) -> str:
    """Serialize an AST back to parseable query text (fully parenthesized)."""
    if isinstance(node, Term):
        return _term_pattern(node)
    if isinstance(node, Phrase):
        return '"' + " ".join(_term_pattern(w) for w in node.words) + '"'
    if isinstance(node, Or):
        return "(" + " OR ".join(query_to_string(c) for c in node.children) + ")"
    if isinstance(node, And):
        return "(" + " AND ".join(query_to_string(c) for c in node.children) + ")"
    if isinstance(node, Not):
        return f"(NOT {query_to_string(node.child)})"
    if isinstance(node, Near):
        return f"({query_to_string(node.left)} NEAR/{node.n} {query_to_string(node.right)})"
    raise TypeError(f"not a query node: {node!r}")


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


@dataclass(eq=False, slots=True)
class _Literal:
    """A term or phrase compiled against one corpus.

    A term's ``words`` are the corpus words it matches: the word itself,
    or a wildcard's expansion. A phrase has ``words = None`` and one term
    literal per word in ``parts``. ``docs`` is the set of indices of the
    documents holding the literal, once ``CorpusIndex`` has located it.
    """

    surface: str
    words: frozenset[str] | None
    parts: tuple["_Literal", ...]
    docs: frozenset[int] = frozenset()

    def located(self) -> frozenset[int]:
        return self.docs

    def positions(self, index: TokenIndex) -> list[int]:
        return index.literal_positions(self)


class TokenIndex:
    """One document's word -> sorted positions map, plus the positions of
    every literal looked up on it so far.

    Only ``words``, the words of the corpus's literals, are mapped. Each
    literal's positions are computed at most once per document and shared
    by all queries and systems run on it. ``CorpusIndex`` builds a
    document's index on first use, where a phrase or a ``NEAR`` candidate
    or a hit needs positions, and keeps it until it is released.
    """

    __slots__ = ("tokens", "positions", "_literals")

    def __init__(self, tokens: Sequence[str], words: frozenset[str]):
        self.tokens = tokens
        present = words.intersection(tokens)
        positions: dict[str, list[int]] = {w: [] for w in present}
        for i, tok in enumerate(tokens):
            if tok in present:
                positions[tok].append(i)
        self.positions = positions
        self._literals: dict[_Literal, list[int]] = {}

    def literal_positions(self, literal: _Literal) -> list[int]:
        """Sorted positions of a literal compiled against this document's corpus."""
        found = self._literals.get(literal)
        if found is None:
            found = self._literals[literal] = self._find(literal)
        return found

    def _find(self, literal: _Literal) -> list[int]:
        if literal.words is not None:
            positions = self.positions
            words = literal.words
            if len(words) <= len(positions):
                lists = [positions[w] for w in words if w in positions]
            else:
                lists = [plist for w, plist in positions.items() if w in words]
            return lists[0] if len(lists) == 1 else sorted(chain.from_iterable(lists))
        first, *rest = literal.parts
        tokens = self.tokens
        end = len(tokens) - len(rest)
        return [
            p
            for p in self.literal_positions(first)
            if p < end and all(tokens[p + k] in part.words for k, part in enumerate(rest, 1))
        ]


@dataclass(eq=False, slots=True)
class CompiledQuery:
    """A query compiled by ``CorpusIndex.compile``; ``docs`` gives the set of
    documents it matches once the literals are located, ``positive`` its
    literals under an even number of NOTs."""

    docs: Callable[[], frozenset[int]]
    positive: list[_Literal]


class CorpusIndex:
    """The documents of a corpus, the literals compiled against it and the
    token indexes built so far.

    ``compile`` turns a query AST into its one compiled form for this
    corpus in one walk (``_compile``), which yields the node's documents and
    positions functions and collects the positive literals at once. Each
    wildcard is expanded once, by bisecting its prefix range in the sorted
    vocabulary (code-point order keeps a prefix's words contiguous), and
    each distinct term or phrase becomes one literal shared by every query
    compiled here. ``search`` finds the documents holding each literal in
    one pass over the corpus, then evaluates each query once, as the exact
    set of documents it matches:

    - a term gives the documents holding one of its words;
    - a phrase gives its rarest word's documents, kept where its positions
      are not empty;
    - ``OR`` gives the union of its operands' sets, ``AND`` their
      intersection and ``NOT`` the complement of its operand's set;
    - ``NEAR`` gives the intersection of its operands' sets, kept where a
      pair of their positions lies within the window.

    So a document's positions (its ``TokenIndex``) are built only for a
    phrase or ``NEAR`` candidate, and for a hit whose terms
    ``matched_terms`` reports; ``release`` drops them.
    """

    def __init__(self, documents: Sequence[Sequence[str]]):
        self.documents = documents
        self._literals: dict[Term | Phrase, _Literal] = {}
        self._words: frozenset[str] = frozenset()
        self._indexes: dict[int, TokenIndex] = {}

    @cached_property
    def vocabulary(self) -> list[str]:
        """The corpus's distinct words in code-point order; sorted on first use."""
        return sorted(set().union(*self.documents))

    def compile(self, ast: Node) -> CompiledQuery:
        positive: dict[str, _Literal] = {}  # by surface: a literal has one surface
        docs, _ = self._compile(ast, False, positive)
        return CompiledQuery(docs, [positive[s] for s in sorted(positive)])

    def search(self, queries: Sequence[CompiledQuery]) -> list[tuple[int, int]]:
        """Every matching ``(document index, query index)`` pair, sorted."""
        self._locate_literals()
        return sorted((d, q) for q, query in enumerate(queries) for d in query.docs())

    def matched_terms(
        self, d: int, query: CompiledQuery
    ) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """``(surface, positions)`` of each positive literal of a query that
        document ``d`` holds, whether or not it decided the match."""
        held = [lit for lit in query.positive if d in lit.docs]
        if not held:
            return ()
        index = self._index(d)
        return tuple((lit.surface, tuple(index.literal_positions(lit))) for lit in held)

    def release(self, d: int) -> None:
        """Drop document ``d``'s token index, if it has one."""
        self._indexes.pop(d, None)

    def _index(self, d: int) -> TokenIndex:
        index = self._indexes.get(d)
        if index is None:
            index = self._indexes[d] = TokenIndex(self.documents[d], self._words)
        return index

    def _expand(self, term: Term) -> frozenset[str]:
        if not term.wildcard:
            return frozenset((term.word,))
        vocabulary = self.vocabulary
        start = end = bisect_left(vocabulary, term.word)
        while end < len(vocabulary) and vocabulary[end].startswith(term.word):
            end += 1
        return frozenset(vocabulary[start:end])

    def _literal(self, node: Term | Phrase) -> _Literal:
        literal = self._literals.get(node)
        if literal is None:
            if isinstance(node, Term):
                literal = _Literal(_term_pattern(node), self._expand(node), ())
            else:
                parts = tuple(self._literal(w) for w in node.words)
                literal = _Literal(query_to_string(node), None, parts)
            self._literals[node] = literal
        return literal

    def _locate_literals(self) -> None:
        """Set ``docs`` on every literal compiled so far.

        Only the literals' words are looked up in each document, so the
        pass costs one set intersection per document rather than a full
        word -> documents index of the corpus. A phrase's literal follows
        its words' literals, so their sets are known when it is located.
        """
        literals = list(self._literals.values())
        terms = [lit for lit in literals if lit.words is not None]
        self._words = words = frozenset().union(*(lit.words for lit in terms))
        self._indexes = {}
        postings: dict[str, list[int]] = {w: [] for w in words}
        for d, tokens in enumerate(self.documents):
            for word in words.intersection(tokens):
                postings[word].append(d)
        for lit in terms:
            lit.docs = frozenset().union(*(postings[w] for w in lit.words))
        for lit in literals:
            if lit.words is None:
                rarest = min((part.docs for part in lit.parts), key=len)
                lit.docs = frozenset(d for d in rarest if self._index(d).literal_positions(lit))

    def _compile(self, node: Node, negated: bool, positive: dict[str, _Literal]) -> tuple:
        """Compile ``node`` in one walk: its documents function, which gives
        the set of documents it matches once the literals are located, and
        its positions function (a document's TokenIndex -> sorted positions),
        with each literal under an even number of NOTs added to ``positive``.
        Only a node ``is_position_bearing`` accepts has positions."""
        if isinstance(node, (Term, Phrase)):
            literal = self._literal(node)
            if not negated:
                positive[literal.surface] = literal
            return literal.located, literal.positions
        if isinstance(node, Not):
            child = self._compile(node.child, not negated, positive)[0]
            return (lambda: frozenset(range(len(self.documents))) - child()), None
        if not isinstance(node, (Or, And, Near)):
            raise TypeError(f"not a query node: {node!r}")
        operands = (node.left, node.right) if isinstance(node, Near) else node.children
        docs, parts = zip(*(self._compile(c, negated, positive) for c in operands))
        if isinstance(node, Or):

            def union(index: TokenIndex) -> list[int]:
                return sorted(set().union(*[part(index) for part in parts]))

            return (lambda: frozenset().union(*[found() for found in docs])), union
        if isinstance(node, And):
            return (lambda: frozenset.intersection(*[found() for found in docs])), None
        _require_positions(*operands)
        left, right = parts
        n = node.n

        def near() -> frozenset[int]:
            found = []
            for d in docs[0]() & docs[1]():
                index = self._index(d)
                if _near_pair_exists(left(index), right(index), n):
                    found.append(d)
            return frozenset(found)

        return near, None


def _require_positions(*nodes: Node) -> None:
    for node in nodes:
        if not is_position_bearing(node):
            raise NearOperandError(
                f"positions are only defined for terms, phrases, and OR over those, "
                f"not {type(node).__name__}"
            )


def _near_pair_exists(left: list[int], right: list[int], n: int) -> bool:
    # Both lists sorted; walk the smaller-head pointer.
    i = j = 0
    while i < len(left) and j < len(right):
        d = left[i] - right[j]
        if abs(d) <= n:
            return True
        if d < 0:
            i += 1
        else:
            j += 1
    return False


def match_query(ast: Node, tokens: Sequence[str]) -> MatchResult:
    """Match a parsed query against one token list, searched as a
    one-document corpus; ``matched_terms`` is empty unless it matches."""
    corpus = CorpusIndex([tokens])
    query = corpus.compile(ast)
    if not corpus.search([query]):
        return MatchResult(False, ())
    return MatchResult(True, corpus.matched_terms(0, query))


def match_positions(ast: Node, tokens: Sequence[str]) -> list[int]:
    """Sorted match positions for a position-bearing query node."""
    _require_positions(ast)
    corpus = CorpusIndex([tokens])
    positions = corpus._compile(ast, False, {})[1]
    corpus._locate_literals()
    return list(positions(corpus._index(0)))
