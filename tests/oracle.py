"""Independent naive references used as test oracles.

The tokenizer lowers every regex match on its own, with no ASCII path.
The query evaluator deliberately avoids the library's TokenIndex: every
node is evaluated by scanning the raw token list, and NEAR enumerates all
position pairs. The query parser scans its text one character at a time.
Scoring visits every evaluated (document, SDG) pair on its own. The tree
grower at the end copies rows and argsorts every candidate column at
every node, and builds each tree as nested JSON objects, the form
``model.json`` stores; the tree scorer walks those objects recursively.
The table writer at the end formats every cell on its own and builds each
file's whole text before writing it. The CSV reader turns every row into a
``csv.DictReader`` dict and its ``file:line`` as it reads it, and so does the
external-predictions reader built on it.
"""

import csv
import functools
import io
import json
import math
import operator
import re
from pathlib import Path

import numpy as np

from sdgdetect.bias import profile
from sdgdetect.corpus import _parse_sdg, atomic_write_text, read_input, warn
from sdgdetect.errors import NearOperandError, NoLabelsError, QuerySyntaxError, SchemaError
from sdgdetect.evaluation import ConfusionCounts
from sdgdetect.query import And, Near, Node, Not, Or, Phrase, Term, is_position_bearing

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def naive_tokenize(text: str) -> list[str]:
    return [m.group().lower() for m in _TOKEN_RE.finditer(text)]


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


# ---------------------------------------------------------------------------
# Reference query parser: the character-at-a-time lexer and the recursive
# descent parser that the library parsed queries with before it lexed them
# with one token pattern. Kept verbatim so that a change to the library's
# front end can be checked AST for AST and error for error.
# ---------------------------------------------------------------------------


_NAIVE_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)
_NAIVE_INT_RE = re.compile(r"\d+")


def _naive_lex_word_token(text: str, i: int) -> tuple[Term, int]:
    m = _NAIVE_WORD_RE.match(text, i)
    assert m is not None
    word = m.group()
    j = m.end()
    wildcard = False
    if j < len(text) and text[j] == "*":
        wildcard = True
        j += 1
        if j < len(text) and _NAIVE_WORD_RE.match(text, j):
            raise QuerySyntaxError("wildcard '*' must be trailing", j)
    return Term(word.lower(), wildcard), j


def _naive_parse_phrase_word(part: str, position: int) -> Term:
    wildcard = part.endswith("*")
    core = part[:-1] if wildcard else part
    m = _NAIVE_WORD_RE.fullmatch(core)
    if not m or not core:
        raise QuerySyntaxError(f"invalid word {part!r} in phrase", position)
    return Term(core.lower(), wildcard)


def _naive_lex(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()":
            tokens.append((c, c, i))
            i += 1
            continue
        if c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise QuerySyntaxError("unterminated phrase quote", i)
            parts = text[i + 1 : j].split()
            if not parts:
                raise QuerySyntaxError("empty phrase", i)
            words = tuple(_naive_parse_phrase_word(p, i) for p in parts)
            tokens.append(("PHRASE", words, i))
            i = j + 1
            continue
        m = _NAIVE_WORD_RE.match(text, i)
        if m:
            word = m.group()
            if word in ("OR", "AND", "NOT"):
                tokens.append((word, word, i))
                i = m.end()
                continue
            if word == "NEAR":
                j = m.end()
                if j < n and text[j] == "/":
                    mi = _NAIVE_INT_RE.match(text, j + 1)
                    if mi:
                        digits = mi.group()
                        if len(digits) > 4300:
                            raise QuerySyntaxError("NEAR window longer than 4300 digits", j + 1)
                        # each digit times its power of ten: no int() of a long string
                        window = sum(int(c) * 10**k for k, c in enumerate(reversed(digits)))
                        tokens.append(("NEAR", window, i))
                        i = mi.end()
                        continue
                raise QuerySyntaxError("NEAR requires an integer window (NEAR/<int>)", i)
            term, j = _naive_lex_word_token(text, i)
            tokens.append(("TERM", term, i))
            i = j
            continue
        raise QuerySyntaxError(f"unexpected character {c!r}", i)
    return tokens


class _NaiveParser:
    def __init__(self, tokens: list[tuple[str, object, int]], length: int):
        self.tokens = tokens
        self.pos = 0
        self.length = length

    def _peek(self) -> str | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def _here(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][2]
        return self.length

    def parse(self) -> Node:
        node = self._or()
        if self.pos != len(self.tokens):
            raise QuerySyntaxError("unexpected trailing input", self._here())
        return node

    def _or(self) -> Node:
        children = [self._and()]
        while self._peek() == "OR":
            self.pos += 1
            children.append(self._and())
        return children[0] if len(children) == 1 else Or(tuple(children))

    def _and(self) -> Node:
        children = [self._not()]
        while self._peek() == "AND":
            self.pos += 1
            children.append(self._not())
        return children[0] if len(children) == 1 else And(tuple(children))

    def _not(self) -> Node:
        if self._peek() == "NOT":
            self.pos += 1
            return Not(self._near())
        return self._near()

    def _near(self) -> Node:
        node = self._prim()
        while self._peek() == "NEAR":
            at = self._here()
            n = self.tokens[self.pos][1]
            self.pos += 1
            right = self._prim()
            for operand in (node, right):
                if not is_position_bearing(operand):
                    raise NearOperandError(
                        f"NEAR operand must be a term, phrase, or OR over those "
                        f"(at position {at})"
                    )
            node = Near(node, right, int(n))  # type: ignore[arg-type]
        return node

    def _prim(self) -> Node:
        kind = self._peek()
        if kind == "TERM":
            term = self.tokens[self.pos][1]
            self.pos += 1
            return term  # type: ignore[return-value]
        if kind == "PHRASE":
            words = self.tokens[self.pos][1]
            self.pos += 1
            return Phrase(words)  # type: ignore[arg-type]
        if kind == "(":
            self.pos += 1
            node = self._or()
            if self._peek() != ")":
                raise QuerySyntaxError("missing closing parenthesis", self._here())
            self.pos += 1
            return node
        raise QuerySyntaxError("expected a term, phrase, or '('", self._here())


def naive_parse_query(text: str) -> Node:
    if not text or not text.strip():
        raise QuerySyntaxError("empty query", 0)
    return _NaiveParser(_naive_lex(text), len(text)).parse()


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


# ---------------------------------------------------------------------------
# Reference scoring: the per-SDG loops that evaluate and bias scored with
# before they took whole matrix rows as masks. Kept as they were, save that
# they read the matrix through ``predicted``, so that the mask arithmetic can
# be checked count for count.
# ---------------------------------------------------------------------------


def naive_confusion(matrix, dataset, system: str) -> ConfusionCounts:
    if not dataset.labeled:
        raise NoLabelsError(f"dataset {dataset.name!r} has no expert labels")
    tp = fp = tn = fn = 0
    for doc in dataset.documents:
        if not doc.evaluated:
            continue
        for sdg in doc.evaluated:
            predicted = sdg in matrix.predicted(doc.id, system)
            labeled = sdg in doc.labels
            if predicted and labeled:
                tp += 1
            elif predicted:
                fp += 1
            elif labeled:
                fn += 1
            else:
                tn += 1
    return ConfusionCounts(tp, fp, tn, fn)


def naive_sdgs_per_document(matrix, dataset, system: str) -> tuple[float, float]:
    n = len(dataset.documents)
    total_sdgs = sum(len(matrix.predicted(doc.id, system)) for doc in dataset.documents)
    total_words = sum(doc.word_count for doc in dataset.documents)
    return (total_sdgs / n, total_words / n)


def naive_dataset_profiles(ds, matrix, system: str):
    expert_sets = []
    system_sets = []
    for doc in ds.documents:
        if not doc.evaluated:
            continue
        expert_sets.append(doc.labels)
        system_sets.append(matrix.predicted(doc.id, system) & doc.evaluated)
    return profile(expert_sets), profile(system_sets)


# ---------------------------------------------------------------------------
# Reference tree grower: the per-node copy-and-argsort CART that the library
# grew its forests with before presorting. Kept verbatim so that a change to
# the library's grower can be checked tree for tree.
# ---------------------------------------------------------------------------


def naive_best_split(X, y, w, feature_ids, min_leaf_weight):
    total = w.sum()
    pos = float((w * y).sum())
    p1 = pos / total
    parent = 2.0 * p1 * (1.0 - p1) * total
    best_gain = 1e-12
    best = None
    for f in sorted(int(f) for f in feature_ids):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ws = w[order]
        ps = ws * y[order]
        cw = np.cumsum(ws)
        cp = np.cumsum(ps)
        wl = cw[:-1]
        wr = total - wl
        valid = (xs[:-1] < xs[1:]) & (wl >= min_leaf_weight) & (wr >= min_leaf_weight)
        if not valid.any():
            continue
        pl = np.divide(cp[:-1], wl, out=np.zeros_like(wl), where=wl > 0)
        pr = np.divide(pos - cp[:-1], wr, out=np.zeros_like(wr), where=wr > 0)
        children = 2.0 * pl * (1.0 - pl) * wl + 2.0 * pr * (1.0 - pr) * wr
        gains = np.where(valid, parent - children, -np.inf)
        i = int(np.argmax(gains))
        gain = float(gains[i])
        if gain > best_gain:
            best_gain = gain
            best = (f, float((xs[i] + xs[i + 1]) / 2.0))
    return best


def naive_grow(X, y, w, depth, rng, mtry, min_leaf_weight, max_depth):
    total = float(w.sum())
    pos_frac = float((w * y).sum() / total)
    if pos_frac <= 0.0 or pos_frac >= 1.0 or (max_depth is not None and depth >= max_depth):
        return {"p": pos_frac, "w": total}
    n_features = X.shape[1]
    feature_ids = rng.choice(n_features, size=min(mtry, n_features), replace=False)
    best = naive_best_split(X, y, w, feature_ids, min_leaf_weight)
    if best is None:
        return {"p": pos_frac, "w": total}
    f, threshold = best
    mask = X[:, f] <= threshold
    left = naive_grow(X[mask], y[mask], w[mask], depth + 1, rng, mtry, min_leaf_weight, max_depth)
    right = naive_grow(
        X[~mask], y[~mask], w[~mask], depth + 1, rng, mtry, min_leaf_weight, max_depth
    )
    return {"f": f, "t": threshold, "l": left, "r": right}


def naive_trees(rows, params) -> list:
    """The trees ``train_forest(rows, params)`` grows, by the reference grower,
    as the nested objects ``model.json`` stores."""
    X = np.asarray([r.features for r in rows], dtype=np.float64)
    y = np.asarray([r.label for r in rows], dtype=np.float64)
    w = np.asarray([r.weight for r in rows], dtype=np.float64)
    n, n_features = X.shape
    mtry = params.mtry if params.mtry is not None else math.ceil(math.sqrt(n_features))
    p = w / w.sum()
    trees = []
    for t in range(params.num_trees):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((params.seed, t))))
        if params.bootstrap:
            idx = rng.choice(n, size=n, replace=True, p=p)
            Xt, yt, wt = X[idx], y[idx], np.ones(n, dtype=np.float64)
        else:
            Xt, yt, wt = X, y, w
        min_leaf_weight = params.min_leaf_frac * float(wt.sum())
        trees.append(naive_grow(Xt, yt, wt, 0, rng, mtry, min_leaf_weight, params.max_depth))
    return trees


def naive_tree_score(node, features) -> float:
    if "p" in node:
        return node["p"]
    return naive_tree_score(node["l"] if features[node["f"]] <= node["t"] else node["r"], features)


def naive_forest_score(trees, features) -> float:
    """Mean leaf positive-fraction over nested tree objects, added left to right."""
    leaves = [naive_tree_score(t, features) for t in trees]
    return functools.reduce(operator.add, leaves, 0.0) / len(trees)


def naive_permutation_importance(trees, rows, repetitions, seed, threshold=0.5) -> list[float]:
    """Per-feature mean drop in weighted accuracy, from a fresh copy of the
    rows per permutation, every float sum taken left to right."""
    X = np.asarray([r.features for r in rows], dtype=np.float64)
    w = np.asarray([r.weight for r in rows], dtype=np.float64)
    labels = [r.label for r in rows]

    def accuracy(Xm):
        scores = [naive_forest_score(trees, x) for x in Xm.tolist()]
        hits = zip(scores, labels, w.tolist())
        correct = [weight for s, label, weight in hits if (s >= threshold) == label]
        return functools.reduce(operator.add, correct, 0.0) / w.sum()

    baseline = accuracy(X)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed,))))
    importances = []
    for f in range(X.shape[1]):
        drops = []
        for _ in range(repetitions):
            perm = rng.permutation(X.shape[0])
            Xp = X.copy()
            Xp[:, f] = X[perm, f]
            drops.append(baseline - accuracy(Xp))
        importances.append(functools.reduce(operator.add, drops, 0.0) / repetitions)
    return importances


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def naive_write_table(out_dir, name: str, header: list[str], rows, as_json: bool) -> None:
    """The CLI's table writer as it was before it streamed: each cell through
    ``_fmt``, each file's whole text built, then written."""
    for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n", quoting=quoting)
        writer.writerow(header)
        writer.writerows(map(_fmt, row) for row in rows)
        # with a "\n" terminator, only QUOTE_ALL quotes a cell holding "\r",
        # which csv.reader would otherwise take for the end of the row
        text = buf.getvalue()
        if "\r" not in text:
            break
    atomic_write_text(out_dir / f"{name}.csv", text)
    if as_json:
        payload = [dict(zip(header, row)) for row in rows]
        atomic_write_text(
            out_dir / f"{name}.json", json.dumps(payload, sort_keys=True, indent=2) + "\n"
        )


def _naive_read_csv(path, what: str, required, read):
    """``(header, read(name, reader))`` for a CSV input named ``name``,
    ``reader`` being a ``csv.DictReader`` past the header. Only LF, CR and
    CRLF end a line, and a quoted cell keeps its line breaks. The header names
    each ``required`` column, no column twice and no column empty (as a
    trailing comma would), unless the file holds only whitespace and ``read``
    finds no row in it."""
    raw, name = read_input(path, what), Path(path).name
    must_include = f"{name}: CSV header must include {','.join(required)}"
    limit = csv.field_size_limit(len(raw))  # no field is longer than the file
    try:
        reader = csv.DictReader(io.StringIO(raw, newline=""))
        header = reader.fieldnames or ()
        missing = not set(required) <= set(header)
        if missing and raw.strip():
            raise SchemaError(must_include)
        if len(set(header)) < len(header):
            raise SchemaError(f"{name}:{reader.line_num}: CSV header names a column twice")
        if "" in header:
            raise SchemaError(f"{name}:{reader.line_num}: CSV header has an empty column name")
        rows = read(name, reader)
    except csv.Error as exc:
        raise SchemaError(f"{name}: malformed CSV ({exc})") from exc
    finally:
        csv.field_size_limit(limit)  # the limit is process-wide
    if missing and rows:  # lines of whitespace: a header without the columns after all
        raise SchemaError(must_include)
    return header, rows


def _naive_located(name: str, reader: csv.DictReader) -> list[tuple[str, dict]]:
    """Each data row with its ``file:line``, the line the row ends on."""
    return [(f"{name}:{reader.line_num}", row) for row in reader]


def naive_csv_rows(path, what: str, required) -> list[tuple[str, dict]]:
    """``corpus.read_csv_rows`` as it was before it read by position: the
    data rows of a CSV input as (``file:line``, row dict) pairs from a
    ``csv.DictReader``, the line being the one a row ends on; an empty file
    has none. The header is checked as ``_naive_read_csv`` says, no row is
    longer than the header, and a required ``sdg`` cell is parsed to an int
    in 1..17."""
    _, rows = _naive_read_csv(path, what, required, _naive_located)
    for where, row in rows:
        if None in row:  # DictReader files the cells past the header under None
            raise SchemaError(f"{where}: more cells than the header has columns")
        if "sdg" in required:
            try:
                row["sdg"] = _parse_sdg(row["sdg"])
            except ValueError as exc:
                raise SchemaError(f"{where}: {exc}") from None
    return rows


def naive_external_predictions(path, known_doc_ids, strict: bool = True) -> dict[str, int]:
    """``systems.import_external_predictions`` as it was before it read by
    position: a dict per row, each with its ``file:line``."""
    rows = naive_csv_rows(path, "predictions file", ("doc_id", "sdg"))
    masks = dict.fromkeys(known_doc_ids, 0)
    for where, row in rows:
        doc_id = row["doc_id"] or ""
        if doc_id not in masks:
            if strict:
                raise SchemaError(f"{where}: unknown doc_id {doc_id!r}")
            warn(f"{where}: skipping unknown doc_id {doc_id!r}")
            continue
        masks[doc_id] |= 1 << (row["sdg"] - 1)
    return masks
