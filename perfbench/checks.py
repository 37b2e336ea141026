"""Output checks and the output digest.

Each check recomputes one output from the generated inputs without the
package's matcher, matrix or metric code, and returns a list of problems
(empty when the output is right). The query text is parsed with the
package's parser; matching is a naive scan over the raw token list.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import N_SDGS, Inputs

FLOAT_TOL = 1e-9


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def output_digest(out: Path) -> str:
    """SHA-256 over the relative path and bytes of every file under ``out``."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Naive matcher
# ---------------------------------------------------------------------------


def _word_ok(token: str, term) -> bool:
    return token.startswith(term.word) if term.wildcard else token == term.word


def _literal_positions(node, tokens) -> list[int]:
    words = node.words if hasattr(node, "words") else (node,)
    return [
        i
        for i in range(len(tokens) - len(words) + 1)
        if all(_word_ok(tokens[i + k], w) for k, w in enumerate(words))
    ]


def _positions(node, tokens) -> list[int]:
    if hasattr(node, "children"):  # OR over position-bearing nodes
        return sorted({p for c in node.children for p in _positions(c, tokens)})
    return _literal_positions(node, tokens)


def _eval(node, tokens) -> bool:
    kind = type(node).__name__
    if kind in ("Term", "Phrase"):
        return bool(_literal_positions(node, tokens))
    if kind == "Or":
        return any(_eval(c, tokens) for c in node.children)
    if kind == "And":
        return all(_eval(c, tokens) for c in node.children)
    if kind == "Not":
        return not _eval(node.child, tokens)
    if kind == "Near":
        right = _positions(node.right, tokens)
        return any(abs(p - q) <= node.n for p in _positions(node.left, tokens) for q in right)
    raise ValueError(f"unknown query node {kind}")


def _surface(node) -> str:
    words = node.words if hasattr(node, "words") else (node,)
    text = " ".join(w.word + ("*" if w.wildcard else "") for w in words)
    return f'"{text}"' if hasattr(node, "words") else text


def _positive_hits(node, tokens, negated: bool, out: dict[str, set[int]]) -> None:
    kind = type(node).__name__
    if kind in ("Term", "Phrase"):
        positions = [] if negated else _literal_positions(node, tokens)
        if positions:
            out.setdefault(_surface(node), set()).update(positions)
    elif kind in ("Or", "And"):
        for c in node.children:
            _positive_hits(c, tokens, negated, out)
    elif kind == "Not":
        _positive_hits(node.child, tokens, not negated, out)
    elif kind == "Near":
        _positive_hits(node.left, tokens, negated, out)
        _positive_hits(node.right, tokens, negated, out)


def check_hits(inputs: Inputs, out: Path, parse_query, seed: int, max_pairs: int) -> list[str]:
    """hits.csv agrees with a naive matcher on a seeded sample of docs x all queries."""
    queries = []  # (system, sdg, query_id, ast)
    for path in sorted(set(detect_system_paths(inputs))):
        for row in read_csv(out.parent / path):
            queries.append((row["system"], row["sdg"], row["query_id"], parse_query(row["query"])))
    docs = [(name, d) for name in inputs.detect_datasets for d in inputs.datasets[name].docs]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 7))))
    n = max(3, min(len(docs), max_pairs // max(1, len(queries))))
    sample = sorted(int(i) for i in rng.choice(len(docs), size=n, replace=False))
    wanted = {(docs[i][0], docs[i][1].id) for i in sample}
    expected = []
    for i in sample:
        ds_name, doc = docs[i]
        for system, sdg, query_id, ast in queries:
            if not _eval(ast, doc.tokens):
                continue
            hits: dict[str, set[int]] = {}
            _positive_hits(ast, doc.tokens, False, hits)
            if not hits:
                expected.append((ds_name, doc.id, system, sdg, query_id, "", ""))
            for term, positions in hits.items():
                pos = "|".join(str(p) for p in sorted(positions))
                expected.append((ds_name, doc.id, system, sdg, query_id, term, pos))
    got = [
        tuple(r[k] for k in ("dataset", "doc_id", "system", "sdg", "query_id", "term", "positions"))
        for r in read_csv(out / "detect" / "hits.csv")
        if (r["dataset"], r["doc_id"]) in wanted
    ]
    if sorted(got) != sorted(expected):
        missing = set(expected) - set(got)
        extra = set(got) - set(expected)
        return [f"hits.csv: {len(missing)} rows missing, {len(extra)} unexpected "
                f"over {n} sampled docs x {len(queries)} queries"]
    return []


def detect_system_paths(inputs: Inputs) -> list[str]:
    argv = dict(inputs.chain)["detect"]
    return [argv[i + 1] for i, a in enumerate(argv) if a == "--systems"]


# ---------------------------------------------------------------------------
# Recounts from matrix.json
# ---------------------------------------------------------------------------


def _predicted(out: Path) -> tuple[list[str], dict[tuple[str, str], set[int]]]:
    payload = json.loads((out / "detect" / "matrix.json").read_text(encoding="utf-8"))
    predicted: dict[tuple[str, str], set[int]] = {}
    for ds in payload["datasets"].values():
        for doc_id, system, sdg in ds["assignments"]:
            predicted.setdefault((doc_id, system), set()).add(int(sdg))
    return payload["systems"], predicted


def check_metrics(inputs: Inputs, out: Path) -> list[str]:
    """metrics.csv confusion counts equal a recount from matrix.json and the labels."""
    systems, predicted = _predicted(out)
    expected = {}
    for name in inputs.evaluate_datasets:
        for system in systems:
            tp = fp = tn = fn = 0
            for d in inputs.datasets[name].docs:
                pred = predicted.get((d.id, system), set())
                for g in d.evaluated or range(1, N_SDGS + 1):
                    p, l = g in pred, g in d.labels
                    tp += p and l
                    fp += p and not l
                    fn += l and not p
                    tn += not p and not l
            expected[(name, system)] = (tp, fp, tn, fn)
    got = {
        (r["dataset"], r["system"]): tuple(int(r[k]) for k in ("tp", "fp", "tn", "fn"))
        for r in read_csv(out / "evaluate" / "metrics.csv")
    }
    bad = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
    return [f"metrics.csv: confusion counts differ for {bad[:3]}"] if bad else []


def _shares(label_sets) -> list[float]:
    counts = [0] * N_SDGS
    for labels in label_sets:
        for g in labels:
            counts[g - 1] += 1
    total = sum(counts)
    return [c / total if total else 0.0 for c in counts]


def check_profiles(inputs: Inputs, out: Path) -> list[str]:
    """profiles.csv equals a recount of expert and system label shares."""
    systems, predicted = _predicted(out)
    expected = {}
    for name in inputs.evaluate_datasets:
        docs = inputs.datasets[name].docs
        sources = {"expert": [d.labels for d in docs]}
        for system in systems:
            sources[system] = [
                predicted.get((d.id, system), set()) & (d.evaluated or set(range(1, 18)))
                for d in docs
            ]
        for source, sets in sources.items():
            for g, share in enumerate(_shares(sets), start=1):
                expected[(source, name, g)] = share
    got = {
        (r["source"], r["dataset"], int(r["sdg"])): float(r["proportion"])
        for r in read_csv(out / "bias" / "profiles.csv")
    }
    if expected.keys() != got.keys():
        return [f"profiles.csv: {len(got)} rows, expected {len(expected)}"]
    bad = [k for k in expected if abs(expected[k] - got[k]) > FLOAT_TOL]
    return [f"profiles.csv: shares differ for {bad[:3]}"] if bad else []


# ---------------------------------------------------------------------------
# Ensemble outputs
# ---------------------------------------------------------------------------


def check_predictions(inputs: Inputs, out: Path, threshold: float = 0.5) -> list[str]:
    """17 rows per document, scores in [0, 1], assigned == (score >= threshold)."""
    rows = read_csv(out / "predict" / "predictions.csv")
    problems = []
    per_doc: dict[tuple[str, str], list[int]] = {}
    for r in rows:
        per_doc.setdefault((r["dataset"], r["doc_id"]), []).append(int(r["sdg"]))
        score = float(r["score"])
        if not 0.0 <= score <= 1.0:
            problems.append(f"score {score} outside [0, 1]")
        # scores are printed with 12 significant digits; one that rounds onto
        # the threshold cannot be judged from the file
        if abs(score - threshold) > 1e-11 and (r["assigned"] == "true") != (score >= threshold):
            problems.append(f"assigned={r['assigned']} for score {score}")
    expected_docs = {(n, d.id) for n in inputs.predict_datasets for d in inputs.datasets[n].docs}
    if per_doc.keys() != expected_docs:
        problems.append(f"{len(per_doc)} documents, expected {len(expected_docs)}")
    if any(sorted(v) != list(range(1, N_SDGS + 1)) for v in per_doc.values()):
        problems.append("a document does not have exactly one row per SDG")
    return [f"predictions.csv: {p}" for p in problems[:3]]


def check_importance(inputs: Inputs, out: Path) -> list[str]:
    """Finite importances, one row per (sdg, feature)."""
    rows = read_csv(out / "importance" / "importance.csv")
    features = inputs.train_systems + ["word_count"]
    expected = {(g, f) for g in range(1, N_SDGS + 1) for f in features}
    got = [(int(r["sdg"]), r["feature"]) for r in rows]
    problems = []
    if len(got) != len(set(got)) or set(got) != expected:
        problems.append(f"{len(got)} rows, expected one per (sdg, feature) = {len(expected)}")
    if not all(math.isfinite(float(r["importance"])) for r in rows):
        problems.append("non-finite importance")
    return [f"importance.csv: {p}" for p in problems]
