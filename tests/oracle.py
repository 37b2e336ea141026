"""Independent naive evaluator used as a test oracle.

Deliberately avoids the library's TokenIndex: every node is evaluated by
scanning the raw token list, and NEAR enumerates all position pairs.
"""

from sdgdetect.errors import SchemaError
from sdgdetect.query import And, Near, Node, Not, Or, Phrase, Term


def _word_ok(token: str, term: Term) -> bool:
    return token.startswith(term.word) if term.wildcard else token == term.word


def naive_positions(node: Node, tokens) -> list[int]:
    if isinstance(node, Term):
        return [i for i, t in enumerate(tokens) if _word_ok(t, node)]
    if isinstance(node, Phrase):
        out = []
        for i in range(len(tokens) - len(node.words) + 1):
            if all(_word_ok(tokens[i + k], w) for k, w in enumerate(node.words)):
                out.append(i)
        return out
    if isinstance(node, Or):
        merged = set()
        for c in node.children:
            merged.update(naive_positions(c, tokens))
        return sorted(merged)
    raise AssertionError(f"not position-bearing: {node!r}")


def naive_eval(node: Node, tokens) -> bool:
    if isinstance(node, (Term, Phrase)):
        return bool(naive_positions(node, tokens))
    if isinstance(node, Or):
        return any(naive_eval(c, tokens) for c in node.children)
    if isinstance(node, And):
        return all(naive_eval(c, tokens) for c in node.children)
    if isinstance(node, Not):
        return not naive_eval(node.child, tokens)
    if isinstance(node, Near):
        left = naive_positions(node.left, tokens)
        right = naive_positions(node.right, tokens)
        return any(abs(p - q) <= node.n for p in left for q in right)
    raise AssertionError(f"unknown node: {node!r}")


def _surface(node: Node) -> str:
    words = node.words if isinstance(node, Phrase) else (node,)
    text = " ".join(w.word + ("*" if w.wildcard else "") for w in words)
    return f'"{text}"' if isinstance(node, Phrase) else text


def naive_positive_hits(node: Node, tokens) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """``matched_terms`` as the library reports them, or () for a non-match.

    Every literal under an even number of NOTs that occurs in ``tokens``
    reports its sorted positions, merged per surface pattern.
    """
    if not naive_eval(node, tokens):
        return ()
    hits: dict[str, set[int]] = {}

    def visit(n: Node, negated: bool) -> None:
        if isinstance(n, (Term, Phrase)):
            positions = naive_positions(n, tokens)
            if positions and not negated:
                hits.setdefault(_surface(n), set()).update(positions)
        elif isinstance(n, (Or, And)):
            for c in n.children:
                visit(c, negated)
        elif isinstance(n, Not):
            visit(n.child, not negated)
        elif isinstance(n, Near):
            visit(n.left, negated)
            visit(n.right, negated)

    visit(node, False)
    return tuple((s, tuple(sorted(p))) for s, p in sorted(hits.items()))


VOCAB = ["apple", "app", "berry", "cedar", "delta", "echo", "fig", "grape"]
# words that share prefixes, including non-ASCII ones that sort after "z"
PREFIX_VOCAB = ["app", "apple", "apply", "applied", "ap", "über", "überall", "ub", "zed"]


def random_positional(rng, depth: int, vocab=VOCAB) -> Node:
    roll = rng.random()
    if roll < 0.45 or depth <= 0:
        word = rng.choice(vocab)
        if rng.random() < 0.3:
            cut = rng.randrange(1, len(word) + 1)
            return Term(word[:cut], wildcard=True)
        return Term(word)
    if roll < 0.7:
        n_words = rng.randrange(2, 4)
        return Phrase(tuple(Term(rng.choice(vocab)) for _ in range(n_words)))
    return Or(
        tuple(random_positional(rng, depth - 1, vocab) for _ in range(rng.randrange(2, 4)))
    )


def random_query(rng, depth: int, vocab=VOCAB) -> Node:
    if depth <= 0:
        return random_positional(rng, 0, vocab)
    roll = rng.random()
    if roll < 0.25:
        return random_positional(rng, depth, vocab)
    if roll < 0.45:
        return Or(tuple(random_query(rng, depth - 1, vocab) for _ in range(rng.randrange(2, 4))))
    if roll < 0.65:
        return And(tuple(random_query(rng, depth - 1, vocab) for _ in range(rng.randrange(2, 4))))
    if roll < 0.8:
        return Not(random_query(rng, depth - 1, vocab))
    return Near(
        random_positional(rng, depth - 1, vocab),
        random_positional(rng, depth - 1, vocab),
        rng.randrange(0, 6),
    )


def random_tokens(rng, max_len: int = 50, vocab=VOCAB) -> list[str]:
    return [rng.choice(vocab) for _ in range(rng.randrange(0, max_len + 1))]


class NaiveMatrix:
    """Reference prediction matrix: plain sets of tuples, every lookup a scan."""

    def __init__(self):
        self._true: set[tuple[str, str, int]] = set()
        self._covered: set[tuple[str, str]] = set()

    def cover(self, doc_id: str, system: str) -> None:
        self._covered.add((doc_id, system))

    def add(self, doc_id: str, system: str, sdg: int) -> None:
        if not 1 <= sdg <= 17:
            raise SchemaError(f"SDG id {sdg} outside 1..17")
        self._true.add((doc_id, system, sdg))
        self._covered.add((doc_id, system))

    def is_predicted(self, doc_id: str, system: str, sdg: int) -> bool:
        return (doc_id, system, sdg) in self._true

    def predicted(self, doc_id: str, system: str) -> frozenset[int]:
        return frozenset(g for (d, s, g) in self._true if d == doc_id and s == system)

    def covers(self, doc_id: str, system: str) -> bool:
        return (doc_id, system) in self._covered

    @property
    def systems(self) -> list[str]:
        return sorted({s for (_, s) in self._covered})

    @property
    def assignments(self) -> list[tuple[str, str, int]]:
        return sorted(self._true)

    def merge(self, other: "NaiveMatrix") -> None:
        self._true |= other._true
        self._covered |= other._covered
