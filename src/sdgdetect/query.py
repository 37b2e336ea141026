"""Boolean/proximity query language: parsing and matching.

Grammar (operators are case-sensitive uppercase; precedence from loosest
to tightest: OR, AND, NOT, NEAR; parentheses override and nest at most
100 deep):

    query  = or ;
    or     = and { "OR" and } ;
    and    = not { "AND" not } ;
    not    = [ "NOT" ] near ;
    near   = prim { "NEAR/" INT prim } ;   (INT of at most 4300 digits)
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

Matching evaluates each parsed query on its AST (``CorpusIndex.search``).
One walk of the ASTs expands the wildcards against the corpus's sorted
vocabulary and makes every distinct term or phrase one literal shared by
all queries. One pass over the corpus finds the documents holding each
literal, and each query is then evaluated once as the exact set of
documents it matches: ``OR`` is the union of its operands' sets, ``AND``
their intersection and ``NOT`` the complement; a phrase keeps its rarest
word's documents where its positions are not empty, and ``NEAR`` keeps
its operands' common documents where a pair of positions lies within the
window. A document's token positions (``TokenIndex``) are built only for
those phrase and ``NEAR`` candidates and for hits, whose positive
literals' positions ``CorpusIndex.matched_terms`` reads; ``release`` drops
a document's index once its hits are built. ``match_query`` runs the same
code on a one-document corpus.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, reduce
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
    "CorpusIndex",
    "parse_query",
    "match_query",
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
# Longest NEAR window, in digits: the most Python's int() reads by default.
_MAX_WINDOW_DIGITS = 4300
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
            if len(near) > _MAX_WINDOW_DIGITS:
                raise QuerySyntaxError(
                    f"NEAR window longer than {_MAX_WINDOW_DIGITS} digits", m.start(1)
                )
            # digit by digit, as int() refuses fewer digits under a lowered
            # sys.set_int_max_str_digits
            tokens.append(("NEAR", reduce(lambda n, digit: 10 * n + int(digit), near, 0), i))
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
    """A term or phrase made against one corpus.

    A term's ``words`` are the corpus words it matches: the word itself,
    or a wildcard's expansion. A phrase has ``words = None`` and one term
    literal per word in ``parts``. ``docs`` is the set of indices of the
    documents holding the literal, once ``CorpusIndex`` has located it.
    """

    surface: str
    words: frozenset[str] | None
    parts: tuple["_Literal", ...]
    docs: frozenset[int] = frozenset()


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
        """Sorted positions of a literal made against this document's corpus."""
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


class CorpusIndex:
    """The documents of a corpus, the literals of the queries last searched
    and the token indexes built so far.

    ``search`` walks each query's AST once (``_walk``): each wildcard is
    expanded once, by bisecting its prefix range in the sorted vocabulary
    (code-point order keeps a prefix's words contiguous), each distinct term
    or phrase becomes one literal shared by every query, and each query's
    positive literals are kept for ``matched_terms``. It finds the documents
    holding each literal in one pass over the corpus, then evaluates each
    AST once (``_docs``), as the exact set of documents it matches:

    - a term gives the documents holding one of its words;
    - a phrase gives its rarest word's documents, kept where its positions
      are not empty;
    - ``OR`` gives the union of its operands' sets, ``AND`` their
      intersection and ``NOT`` the complement of its operand's set;
    - ``NEAR`` gives the intersection of its operands' sets, kept where a
      pair of their positions (``_positions``) lies within the window.

    So a document's positions (its ``TokenIndex``) are built only for a
    phrase or ``NEAR`` candidate, and for a hit whose terms
    ``matched_terms`` reports; ``release`` drops them.
    """

    def __init__(self, documents: Sequence[Sequence[str]]):
        self.documents = documents
        self._literals: dict[Term | Phrase, _Literal] = {}
        self._positive: list[list[_Literal]] = []
        self._words: frozenset[str] = frozenset()
        self._indexes: dict[int, TokenIndex] = {}

    @cached_property
    def vocabulary(self) -> list[str]:
        """The corpus's distinct words in code-point order; sorted on first use."""
        return sorted(set().union(*self.documents))

    def search(self, asts: Sequence[Node]) -> list[tuple[int, int]]:
        """Every matching ``(document index, query index)`` pair, sorted."""
        self._literals, self._positive = {}, []
        for ast in asts:
            positive: dict[str, _Literal] = {}  # by surface: a literal has one surface
            self._walk(ast, False, positive)
            self._positive.append([positive[s] for s in sorted(positive)])
        self._locate_literals()
        return sorted((d, q) for q, ast in enumerate(asts) for d in self._docs(ast))

    def matched_terms(self, d: int, q: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """``(surface, positions)`` of each positive literal of query ``q`` of
        the last search that document ``d`` holds, whether or not it decided
        the match."""
        held = [lit for lit in self._positive[q] if d in lit.docs]
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

    def _walk(self, node: Node, negated: bool, positive: dict[str, _Literal]) -> None:
        """Make the literals of ``node``, adding each under an even number of
        NOTs to ``positive``, and check that every ``NEAR`` operand has
        positions (``is_position_bearing``)."""
        if isinstance(node, (Term, Phrase)):
            literal = self._literal(node)
            if not negated:
                positive[literal.surface] = literal
        elif isinstance(node, Not):
            self._walk(node.child, not negated, positive)
        elif isinstance(node, (Or, And, Near)):
            operands = (node.left, node.right) if isinstance(node, Near) else node.children
            for operand in operands:
                self._walk(operand, negated, positive)
            if isinstance(node, Near):
                _require_positions(*operands)
        else:
            raise TypeError(f"not a query node: {node!r}")

    def _locate_literals(self) -> None:
        """Set ``docs`` on every literal of the last search.

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

    def _docs(self, node: Node) -> frozenset[int]:
        """The documents ``node`` matches, once its literals are located."""
        if isinstance(node, (Term, Phrase)):
            return self._literals[node].docs
        if isinstance(node, Or):
            return frozenset().union(*map(self._docs, node.children))
        if isinstance(node, And):
            return frozenset.intersection(*map(self._docs, node.children))
        if isinstance(node, Not):
            return frozenset(range(len(self.documents))) - self._docs(node.child)
        # a Near, as _walk checked; its operands' literals are looked up once
        operands = self._leaves(node.left), self._leaves(node.right)
        return frozenset(
            d
            for d in self._docs(node.left) & self._docs(node.right)
            if _near_pair_exists(*[_positions(lits, self._index(d)) for lits in operands], node.n)
        )

    def _leaves(self, node: Term | Phrase | Or) -> list[_Literal]:
        """The literals of a position-bearing node, whose positions are theirs."""
        if isinstance(node, Or):
            return [lit for c in node.children for lit in self._leaves(c)]
        return [self._literals[node]]


def _positions(literals: list[_Literal], index: TokenIndex) -> list[int]:
    """A literal's sorted positions in a document, or the sorted union of an OR's."""
    if len(literals) == 1:
        return index.literal_positions(literals[0])
    return sorted(set().union(*[index.literal_positions(lit) for lit in literals]))


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
    if not corpus.search([ast]):
        return MatchResult(False, ())
    return MatchResult(True, corpus.matched_terms(0, 0))
