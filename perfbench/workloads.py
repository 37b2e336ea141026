"""Seeded workload inputs and the CLI command chain each workload runs.

Everything here is generated offline from ``demo/`` and the seed: a
Zipf-distributed filler vocabulary, per-SDG topic words with
morphological variants (so trailing wildcards expand to several words),
demo sentences that carry the SDG keywords and the expert labels, a
generated heavy system, and black-box prediction CSVs. The program under
test only ever sees the files written by :func:`write_inputs`.

Every workload runs the same six-command chain
``detect -> evaluate -> bias -> train -> predict -> importance`` so that
each reports every per-command time; the workload decides which command
carries the load and keeps the others light.
"""

from __future__ import annotations

import csv
import itertools
import json
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_SDGS = 17
COMMANDS = ("detect", "evaluate", "bias", "train", "predict", "importance")
DEMO_SYSTEMS = ("system_alpha.csv", "system_beta.csv", "system_gamma.csv")

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_ONSETS = "b c d f g h k l m n p r s t v z br st tr pl gr".split()
_VOWELS = "a e i o u".split()
_CODAS = ["", "n", "r", "s", "l"]
_SUFFIXES = ("", "s", "al", "ing", "ation", "ic", "ism")


def tokenize(text: str) -> list[str]:
    """The package's documented tokenization, re-implemented for the checks."""
    return [m.group().lower() for m in _TOKEN_RE.finditer(text)]


@dataclass
class Doc:
    id: str
    text: str
    tokens: list[str]
    labels: frozenset[int] | None  # None: unlabeled
    evaluated: frozenset[int] | None  # None: all 17 SDGs


@dataclass
class Dataset:
    name: str
    docs: list[Doc]

    @property
    def path(self) -> str:
        return f"in/{self.name}.jsonl"


@dataclass
class Query:
    sdg: int
    query_id: str
    text: str


@dataclass
class Inputs:
    """What one workload generated, kept in memory for the output checks."""

    datasets: dict[str, Dataset]
    heavy_queries: list[Query]
    externals: dict[str, dict[str, frozenset[int]]]  # name -> doc_id -> SDGs
    chain: list[tuple[str, list[str]]]  # (command, argv)
    detect_datasets: list[str]
    evaluate_datasets: list[str]
    predict_datasets: list[str]
    train_systems: list[str]
    vocabulary: list[str]  # sorted distinct tokens of every dataset


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload; why each exists is recorded in BENCHMARK.json."""

    name: str
    labeled: tuple[tuple[str, int], ...]  # (dataset name, docs)
    unlabeled: tuple[tuple[str, int], ...] = ()
    evaluated_subsets: tuple[str, ...] = ()  # datasets with per-doc evaluated sets
    heavy_queries_per_sdg: int = 0
    detect_demo_systems: tuple[str, ...] = DEMO_SYSTEMS
    externals: int = 0
    train_datasets: tuple[str, ...] = ()
    train_systems: tuple[str, ...] = DEMO_SYSTEMS
    predict_datasets: tuple[str, ...] = ()
    importance_datasets: tuple[str, ...] = ()
    trees: int = 4
    folds: int = 2
    repetitions: int = 1


SPECS = {
    s.name: s
    for s in (
        Spec(
            name="detect-heavy",
            labeled=(("heavy", 50),),
            heavy_queries_per_sdg=30,
            train_datasets=("heavy",),
            predict_datasets=("heavy",),
            importance_datasets=("heavy",),
            trees=3,
        ),
        Spec(
            name="evaluate-wide",
            labeled=(("wide_a", 120), ("wide_b", 150), ("wide_c", 180)),
            evaluated_subsets=("wide_c",),
            detect_demo_systems=("system_alpha.csv",),
            externals=5,
            train_datasets=("wide_a",),
            train_systems=("system_alpha.csv",),
            predict_datasets=("wide_b",),
            importance_datasets=("wide_a",),
            trees=3,
        ),
        Spec(
            name="ensemble",
            labeled=(("ens_a", 50), ("ens_b", 80)),
            unlabeled=(("ens_new", 250),),
            train_datasets=("ens_a", "ens_b"),
            predict_datasets=("ens_new",),
            importance_datasets=("ens_a", "ens_b"),
            trees=8,
            folds=3,
            repetitions=1,
        ),
    )
}


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------


def _syllables() -> list[str]:
    return [o + v + c for o in _ONSETS for v in _VOWELS for c in _CODAS]


def _words(rng: np.random.Generator, count: int, n_syllables: list[int], probs, taken: set):
    syl = _syllables()
    out: list[str] = []
    while len(out) < count:
        lengths = rng.choice(n_syllables, size=count, p=probs)
        picks = rng.integers(0, len(syl), size=(count, max(n_syllables)))
        for n, row in zip(lengths, picks):
            word = "".join(syl[i] for i in row[:n])
            if word not in taken:
                taken.add(word)
                out.append(word)
                if len(out) == count:
                    break
    return out


def _demo_corpus(demo: Path) -> list[dict]:
    lines = (demo / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def _system_name(path: Path) -> str:
    with open(path, encoding="utf-8", newline="") as fh:
        return next(csv.DictReader(fh))["system"]


def _demo_keywords(demo: Path) -> dict[int, list[str]]:
    """Per-SDG keywords of the demo OR-system (``a OR b`` rows)."""
    out: dict[int, list[str]] = {g: [] for g in range(1, N_SDGS + 1)}
    with open(demo / "system_alpha.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            out[int(row["sdg"])] += [w for w in row["query"].split() if w.islower()]
    return out


@dataclass
class _Language:
    vocab: list[str]  # filler, most frequent first
    probs: np.ndarray  # Zipf(1) over vocab
    stems: dict[int, list[str]]  # per SDG
    variants: dict[str, list[str]]  # stem -> surface words
    keywords: dict[int, list[str]]  # demo keywords per SDG
    demo_docs: list[dict]


def _language(rng: np.random.Generator, demo: Path, vocab_size: int = 20000) -> _Language:
    demo_docs = _demo_corpus(demo)
    keywords = _demo_keywords(demo)
    taken = {w for d in demo_docs for w in tokenize(d["text"])}
    stems_flat = _words(rng, N_SDGS * 10, [3], [1.0], taken)
    stems = {g: stems_flat[(g - 1) * 10 : g * 10] for g in range(1, N_SDGS + 1)}
    variants = {}
    for stem in stems_flat:
        k = int(rng.integers(3, 6))
        chosen = rng.choice(len(_SUFFIXES), size=k, replace=False)
        variants[stem] = sorted(stem + _SUFFIXES[i] for i in chosen)
        taken.update(variants[stem])
    vocab = _words(rng, vocab_size, [1, 2, 3, 4], [0.1, 0.45, 0.35, 0.1], taken)
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    probs = 1.0 / ranks
    return _Language(vocab, probs / probs.sum(), stems, variants, keywords, demo_docs)


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------


def _spread(rng, lo: int, hi: int, n: int) -> list[int]:
    """n integers spread evenly over [lo, hi) in random order: the same sum for every seed."""
    return [int(v) for v in rng.permutation(np.floor(np.linspace(lo, hi, n, endpoint=False)))]


def _topic_words(rng, lang: _Language, sdg: int, count: int) -> list[str]:
    stems = lang.stems[sdg]
    out = []
    for _ in range(count):
        forms = lang.variants[stems[int(rng.integers(len(stems)))]]
        out.append(forms[int(rng.integers(len(forms)))])
    return out


def _make_documents(
    rng, lang: _Language, name: str, n_docs: int, labeled: bool, subsets: bool
) -> Dataset:
    by_label: dict[int, list[dict]] = {g: [] for g in range(1, N_SDGS + 1)}
    for d in lang.demo_docs:
        for g in d["labels"]:
            by_label[g].append(d)
    lengths = _spread(rng, 80, 251, n_docs)
    demo_counts = _spread(rng, 0, 4, n_docs)  # 0-3 demo sentences, a quarter each
    filler = rng.choice(len(lang.vocab), size=sum(lengths), p=lang.probs)
    docs = []
    offset = 0
    for i in range(n_docs):
        words = [lang.vocab[j] for j in filler[offset : offset + lengths[i]]]
        offset += lengths[i]
        demo = [
            lang.demo_docs[int(rng.integers(len(lang.demo_docs)))] for _ in range(demo_counts[i])
        ]
        if i < N_SDGS:  # every SDG is labeled in every dataset, so every forest trains
            pool = by_label[i + 1]
            demo.append(pool[int(rng.integers(len(pool)))])
        labels = frozenset(g for d in demo for g in d["labels"])
        for g in sorted(labels):
            if rng.random() < 0.8:
                at = int(rng.integers(0, len(words)))
                cluster = _topic_words(rng, lang, g, int(rng.integers(2, 5)))
                words[at:at] = [w for t in cluster for w in (t, lang.vocab[int(rng.integers(50))])]
        if rng.random() < 0.15:
            at = int(rng.integers(0, len(words)))
            words[at:at] = _topic_words(rng, lang, int(rng.integers(1, N_SDGS + 1)), 1)
        sentences = [" ".join(words[k : k + 16]) + "." for k in range(0, len(words), 16)]
        for d in demo:
            sentences.insert(int(rng.integers(0, len(sentences) + 1)), d["text"])
        text = " ".join(sentences)
        evaluated = None
        if labeled and subsets:
            others = [g for g in range(1, N_SDGS + 1) if g not in labels]
            extra = rng.choice(others, size=int(rng.integers(3, 10)), replace=False)
            evaluated = labels | frozenset(int(g) for g in extra)
        docs.append(
            Doc(f"{name}-{i:05d}", text, tokenize(text), labels if labeled else None, evaluated)
        )
    return Dataset(name, docs)


def _write_dataset(ds: Dataset, work: Path) -> None:
    lines = []
    for d in ds.docs:
        record: dict = {"id": d.id, "text": d.text}
        if d.labels is not None:
            record["labels"] = sorted(d.labels)
        if d.evaluated is not None:
            record["evaluated"] = sorted(d.evaluated)
        lines.append(json.dumps(record, sort_keys=True))
    (work / ds.path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------


def _heavy_system(rng, lang: _Language, per_sdg: int) -> list[Query]:
    """``per_sdg`` queries per SDG in five forms over that SDG's topic words.

    List sizes and which literals are wildcards (30%) or demo keywords (10%)
    follow a fixed pattern, so every seed gives a system of the same shape.
    """
    literal_index = itertools.count()

    def literal(sdg: int) -> str:
        i = next(literal_index) % 10
        stem = lang.stems[sdg][int(rng.integers(10))]
        if i < 3:
            return stem + "*"
        if i == 3 and lang.keywords[sdg]:
            return lang.keywords[sdg][int(rng.integers(len(lang.keywords[sdg])))]
        forms = lang.variants[stem]
        return forms[int(rng.integers(len(forms)))]

    def or_list(sdg: int, lo: int, hi: int, k: int) -> str:
        return " OR ".join(literal(sdg) for _ in range(lo + k % (hi - lo + 1)))

    queries = []
    for g in range(1, N_SDGS + 1):
        for j in range(per_sdg):
            form, k = j % 5, j // 5
            if form == 0:
                text = or_list(g, 6, 10, k)
            elif form == 1:
                other = g % N_SDGS + 1
                text = f"({or_list(g, 4, 6, k)}) AND NOT ({or_list(other, 2, 3, k)})"
            elif form == 2:
                phrase = " ".join(_topic_words(rng, lang, g, 2))
                text = f'"{phrase}" OR {or_list(g, 4, 6, k)}'
            elif form == 3:
                text = f"({or_list(g, 2, 3, k)}) NEAR/5 ({or_list(g, 2, 4, k)})"
            else:
                text = f"({or_list(g, 3, 5, k)}) AND ({or_list(g, 3, 5, k + 1)})"
            queries.append(Query(g, f"h{g:02d}q{j:02d}", text))
    return queries


def _write_system(name: str, queries: list[Query], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["system", "sdg", "query_id", "query"])
        for q in queries:
            writer.writerow([name, q.sdg, q.query_id, q.text])


def _externals(rng, datasets: list[Dataset], count: int) -> dict[str, dict[str, frozenset[int]]]:
    """Black-box systems with 0-3 SDGs per document, each with its own recall."""
    out = {}
    for e in range(count):
        keep = 0.45 + 0.1 * e
        preds = {}
        for ds in datasets:
            for d in ds.docs:
                sdgs = {g for g in sorted(d.labels or ()) if rng.random() < keep}
                if rng.random() < 0.35:
                    sdgs.add(int(rng.integers(1, N_SDGS + 1)))
                preds[d.id] = frozenset(sorted(sdgs)[:3])
        out[f"ext{e + 1}"] = preds
    return out


# ---------------------------------------------------------------------------
# Workload assembly
# ---------------------------------------------------------------------------


def _chain(spec: Spec, inputs: Inputs) -> list[tuple[str, list[str]]]:
    def datasets(names):
        return [a for n in names for a in ("--dataset", inputs.datasets[n].path)]

    def systems(files):
        return [a for f in files for a in ("--systems", f"in/{f}")]

    detect_systems = (["heavy.csv"] if spec.heavy_queries_per_sdg else []) + list(
        spec.detect_demo_systems
    )
    external = [a for name in inputs.externals for a in ("--external", f"{name}=in/{name}.csv")]
    labeled = [n for n, _ in spec.labeled]
    model = "out/train/model.json"
    return [
        ("detect", ["detect", *datasets(inputs.detect_datasets), *systems(detect_systems),
                    *external, "--out-dir", "out/detect"]),
        ("evaluate", ["evaluate", *datasets(labeled), "--matrix", "out/detect/matrix.json",
                      "--out-dir", "out/evaluate"]),
        ("bias", ["bias", *datasets(labeled), "--matrix", "out/detect/matrix.json",
                  "--out-dir", "out/bias"]),
        ("train", ["train", *datasets(spec.train_datasets), *systems(spec.train_systems),
                   "--freq-table", "in/wordfreq.tsv", "--k", "1", "--folds", str(spec.folds),
                   "--repeats", "1", "--trees", str(spec.trees), "--out-dir", "out/train"]),
        ("predict", ["predict", "--model", model, *datasets(spec.predict_datasets),
                     *systems(spec.train_systems), "--out-dir", "out/predict"]),
        ("importance", ["importance", "--model", model, *datasets(spec.importance_datasets),
                        *systems(spec.train_systems), "--freq-table", "in/wordfreq.tsv",
                        "--repetitions", str(spec.repetitions), "--out-dir", "out/importance"]),
    ]


def generate(spec: Spec, seed: int, demo: Path) -> Inputs:
    """Build a workload's inputs in memory; the same seed gives the same inputs."""
    index = list(SPECS).index(spec.name)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))
    lang = _language(rng, demo)
    datasets = {}
    for name, n in spec.labeled:
        datasets[name] = _make_documents(rng, lang, name, n, True, name in spec.evaluated_subsets)
    for name, n in spec.unlabeled:
        datasets[name] = _make_documents(rng, lang, name, n, False, False)
    labeled = [datasets[n] for n, _ in spec.labeled]
    heavy = _heavy_system(rng, lang, spec.heavy_queries_per_sdg) if spec.heavy_queries_per_sdg else []
    # detect covers the predict corpus too, so a per-corpus detect cost shows in every workload
    detect_names = [n for n, _ in spec.labeled] + [n for n, _ in spec.unlabeled]
    inputs = Inputs(
        datasets=datasets,
        heavy_queries=heavy,
        externals=_externals(rng, labeled, spec.externals),
        chain=[],
        detect_datasets=detect_names,
        evaluate_datasets=[n for n, _ in spec.labeled],
        predict_datasets=list(spec.predict_datasets),
        train_systems=[_system_name(demo / f) for f in spec.train_systems],
        vocabulary=sorted({t for ds in datasets.values() for d in ds.docs for t in d.tokens}),
    )
    inputs.chain = _chain(spec, inputs)
    return inputs


def write_inputs(inputs: Inputs, work: Path, demo: Path) -> None:
    """Write every input file under ``work/in`` (the only files the program reads)."""
    target = work / "in"
    if target.exists():
        shutil.rmtree(target)
    target.mkdir(parents=True)
    for f in (*DEMO_SYSTEMS, "wordfreq.tsv"):
        shutil.copyfile(demo / f, target / f)
    for ds in inputs.datasets.values():
        _write_dataset(ds, work)
    if inputs.heavy_queries:
        _write_system("heavy", inputs.heavy_queries, target / "heavy.csv")
    for name, preds in inputs.externals.items():
        rows = [f"{doc_id},{g}" for doc_id, sdgs in preds.items() for g in sorted(sdgs)]
        (target / f"{name}.csv").write_text("doc_id,sdg\n" + "".join(r + "\n" for r in rows))
