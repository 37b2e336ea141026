"""matrix.json: its exact bytes, and how evaluate and bias take a broken one;
how predict takes a broken model.json, synth and train a broken wordfreq.tsv,
evaluate a broken config file, detect a broken query cell, system CSV or
--external CSV, and detect and evaluate a broken JSONL or CSV corpus."""

import csv
import io
import json
import math
import random
from pathlib import Path

import pytest

from sdgdetect.cli import _BATCH, _load_matrix_file, _matrix_json, main
from sdgdetect.corpus import load_documents
from sdgdetect.query import _MAX_NESTING
from sdgdetect.systems import PredictionMatrix

DATA = Path(__file__).parent / "data"
DEMO = Path(__file__).parent.parent / "demo"

# ids with every kind of character json.dumps escapes: non-ASCII, '"', '\',
# control characters, U+2028 and a character outside the BMP
TRICKY_IDS = [
    "plain",
    "café über",
    'say "hi"',
    "back\\slash",
    "ctrl\x01\x1f\ttab",
    "line\u2028sep",
    "cr\rlf\n",
    "emoji \U0001f600",
]


def golden_inputs(root: Path) -> list[str]:
    """Write the golden matrix's inputs under ``root``; return detect's flags.

    Dataset ``corpus`` holds the tricky ids, and ``quiet`` matches nothing,
    so it has no assignments. ``extérn\\al`` exists only as an
    ``--external`` system.
    """
    texts = [
        "poverty and hunger",
        "clean water here",
        "poverty",
        "hunger water clean",
        "poverty clean water",
        "nothing",
        "hunger",
        "water",
    ]
    with open(root / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for doc_id, text in zip(TRICKY_IDS, texts):
            fh.write(json.dumps({"id": doc_id, "text": text}) + "\n")
    (root / "quiet.jsonl").write_text(
        '{"id": "q1", "text": "nothing relevant"}\n{"id": "q2", "text": "still nothing"}\n',
        encoding="utf-8",
    )
    with open(root / "sys.csv", "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["system", "sdg", "query_id", "query"])
        name = 'sys "é"\\'
        out.writerows(
            [
                [name, 1, "q1", "poverty"],
                [name, 2, "q2", "hunger"],
                [name, 6, "q3", "clean NEAR/2 water"],
            ]
        )
    with open(root / "ext.csv", "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["doc_id", "sdg"])
        out.writerows(
            [
                ['say "hi"', 3],
                ["line\u2028sep", 17],
                ["café über", 9],
                ["café über", 5],
                ["cr\rlf\n", 1],
                ["emoji \U0001f600", 4],
            ]
        )
    return [
        "--dataset", str(root / "corpus.jsonl"),
        "--dataset", str(root / "quiet.jsonl"),
        "--systems", str(root / "sys.csv"),
        "--external", f"extérn\\al={root / 'ext.csv'}",
    ]  # fmt: skip


def test_golden_matrix(tmp_path):
    """detect writes the bytes the json.dumps writer wrote (tests/data/golden_matrix.json)."""
    flags = golden_inputs(tmp_path)
    assert main(["detect", *flags, "--out-dir", str(tmp_path / "out")]) == 0
    written = (tmp_path / "out" / "matrix.json").read_bytes()
    assert written == (DATA / "golden_matrix.json").read_bytes()


def test_loaded_matrix_round_trips(tmp_path):
    """Reading the golden matrix back gives every listed system a column over
    every document, in dataset order, and the columns write the same bytes."""
    flags = golden_inputs(tmp_path)
    datasets = [load_documents(path) for path in flags[1:4:2]]
    path = DATA / "golden_matrix.json"
    systems, matrices = _load_matrix_file(path, datasets)
    for ds in datasets:
        columns = matrices[ds.name].columns
        assert list(columns) == systems
        assert all(list(column) == [doc.id for doc in ds.documents] for column in columns.values())
    assert "".join(_matrix_json(systems, matrices)) == path.read_text(encoding="utf-8")


def _old_writer(system_names, matrices) -> str:
    payload = {
        "systems": sorted(system_names),
        "datasets": {
            name: {"assignments": [list(t) for t in matrix.assignments]}
            for name, matrix in sorted(matrices.items())
        },
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_emitter_matches_json_dumps():
    rng = random.Random(10)
    alphabet = ["a", "Z", "0", " ", "é", '"', "\\", "\x00", "\x1f", "\u2028", "\ud800",
                "\U0001f600", "/", "\x7f"]  # fmt: skip

    def text():
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 5)))

    cases = [([], {}), ([], {"d": PredictionMatrix({})}), (["s"], {})]
    # one dataset of as many assignments as a batch lays out, one more and two
    # batches' worth, beside a dataset with none
    for size in (_BATCH, _BATCH + 1, 2 * _BATCH):
        column = {f"d{i:05}": 1 << (i % 17) for i in range(size)}
        cases.append((["s"], {"big": PredictionMatrix({"s": column}),
                              "none": PredictionMatrix({"s": {"q": 0}})}))  # fmt: skip
    for _ in range(500):
        systems = sorted({text() for _ in range(rng.randrange(0, 4))})
        matrices = {}
        for _ in range(rng.randrange(0, 4)):
            doc_ids = sorted({text() for _ in range(rng.randrange(0, 8))})
            matrices[text()] = PredictionMatrix({
                system: {
                    doc_id: sum(1 << (g - 1) for g in rng.sample(range(1, 18), rng.randrange(0, 5)))
                    for doc_id in doc_ids
                }
                for system in rng.sample(systems, rng.randrange(0, len(systems) + 1))
            })
        cases.append((systems, matrices))
    for systems, matrices in cases:
        assert "".join(_matrix_json(systems, matrices)) == _old_writer(systems, matrices)


# ---------------------------------------------------------------------------
# Seeded mutations of the demo matrix.json, run through evaluate and bias
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def demo_matrix(tmp_path_factory):
    out = tmp_path_factory.mktemp("detect")
    systems = []
    for name in ("alpha", "beta", "gamma"):
        systems += ["--systems", str(DEMO / f"system_{name}.csv")]
    corpus = str(DEMO / "corpus.jsonl")
    assert main(["detect", "--dataset", corpus, *systems, "--out-dir", str(out)]) == 0
    return (out / "matrix.json").read_bytes()


def _edit(edit):
    """A mutation that edits the parsed payload and writes it back as JSON."""

    def mutate(raw: bytes, rng: random.Random) -> bytes:
        payload = json.loads(raw)
        edit(payload, rng)
        return json.dumps(payload).encode()

    return mutate


def _assignments(payload) -> list:
    return payload["datasets"]["corpus"]["assignments"]


def _set_field(index, value):
    def edit(payload, rng):
        rng.choice(_assignments(payload))[index] = value

    return _edit(edit)


def _append(item):
    return _edit(lambda payload, rng: _assignments(payload).append(item))


def _drop(path):
    def edit(payload, rng):
        *parents, key = path
        for p in parents:
            payload = payload[p]
        del payload[key]

    return _edit(edit)


def _duplicate_key(raw: bytes, rng: random.Random) -> bytes:
    # a second "systems" key last; json.loads keeps it, so no listed system is used
    assert raw.endswith(b"\n}\n")
    return raw[:-3] + b',\n  "systems": ["ghost"]\n}\n'


def _duplicate_assignment(payload, rng):
    items = _assignments(payload)
    items.insert(rng.randrange(len(items) + 1), list(rng.choice(items)))


MUTATIONS = {
    "truncated": lambda raw, rng: raw[: rng.randrange(len(raw) - 2)],  # cuts the last "}"
    "empty": lambda raw, rng: b"",
    "non-utf8": lambda raw, rng: raw[:40] + b"\xff\xfe" + raw[40:],
    "bom": lambda raw, rng: b"\xef\xbb\xbf" + raw,
    "crlf": lambda raw, rng: raw.replace(b"\n", b"\r\n"),
    "not an object": lambda raw, rng: b"[1, 2, 3]",
    "a string": lambda raw, rng: b'"matrix"',
    "dropped systems": _drop(["systems"]),
    "dropped datasets": _drop(["datasets"]),
    "dropped dataset": _drop(["datasets", "corpus"]),
    "dropped assignments": _drop(["datasets", "corpus", "assignments"]),
    "duplicated key": _duplicate_key,
    "duplicate assignment": _edit(_duplicate_assignment),
    "systems as object": _edit(lambda p, rng: p.update(systems={"alpha": 1})),
    "system not a string": _edit(lambda p, rng: p.update(systems=p["systems"] + [7])),
    "datasets as list": _edit(lambda p, rng: p.update(datasets=[])),
    "dataset as list": _edit(lambda p, rng: p["datasets"].update(corpus=[])),
    "assignments as number": _edit(lambda p, rng: p["datasets"]["corpus"].update(assignments=1)),
    "assignment as object": _append({"doc_id": "d01"}),
    "assignment too long": _append(["d01", "alpha", 1, 1]),
    "bool sdg": _set_field(2, True),
    "float sdg": _set_field(2, 1.0),
    "nan sdg": _set_field(2, math.nan),
    "inf sdg": lambda raw, rng: raw.replace(b" 1\n", b" 1e400\n", 1),
    "huge sdg": lambda raw, rng: raw.replace(b" 1\n", b" " + b"9" * 5000 + b"\n", 1),
    "sdg 0": _set_field(2, 0),
    "sdg 18": _set_field(2, 18),
    "negative sdg": _set_field(2, -3),
    "string sdg": _set_field(2, "3"),
    "unknown doc": _set_field(0, "d99"),
    "doc id not a string": _set_field(0, ["d01"]),
    "unknown system": _set_field(1, "ghost"),
    "system id not a string": _set_field(1, {"a": 1}),
    "null doc id": _set_field(0, None),
}


def _sweep(raw: bytes, mutations: dict, seed: int, path: Path, commands: dict, capsys) -> dict:
    """Write each mutation of ``raw`` to ``path`` and run each of ``commands``
    (name -> argv, given an output directory) on it; return the exit codes by
    (mutation, command).

    Every run exits 0, 2, 3 or 4, a failed one prints one ``error [E_*]``
    line and no traceback, and no run leaves a temporary file.
    """
    rng = random.Random(seed)
    outcomes = {}
    for name, mutate in mutations.items():
        path.write_bytes(mutate(raw, rng))
        for command, argv in commands.items():
            rc = main(argv(path.parent / "out" / command))
            err = capsys.readouterr().err
            assert rc in (0, 2, 3, 4), (name, command, rc)
            assert "Traceback" not in err, (name, command)
            if rc:
                assert err.startswith("error [E_") and err.count("\n") == 1, (name, command, err)
            assert not list((path.parent / "out").rglob("*.tmp")), (name, command)
            outcomes[name, command] = rc
    return outcomes


def test_mutated_matrix_files_fail_cleanly(demo_matrix, tmp_path, capsys):
    """Every mutation exits 0, 2, 3 or 4, names its error, and leaves no temporary file."""
    corpus, path = str(DEMO / "corpus.jsonl"), tmp_path / "matrix.json"
    commands = {
        command: lambda out, command=command: [
            command, "--dataset", corpus, "--matrix", str(path), "--out-dir", str(out)
        ]
        for command in ("evaluate", "bias")
    }
    outcomes = _sweep(demo_matrix, MUTATIONS, 4, path, commands, capsys)
    # what a reader may rely on: harmless layouts load, broken content does not
    for name in ("bom", "crlf", "duplicate assignment"):
        assert outcomes[name, "evaluate"] == outcomes[name, "bias"] == 0, name
    for name in set(MUTATIONS) - {"bom", "crlf", "duplicate assignment"}:
        assert outcomes[name, "evaluate"] == outcomes[name, "bias"] == 3, name


# ---------------------------------------------------------------------------
# Seeded mutations of a demo model.json, run through predict
# ---------------------------------------------------------------------------

DEMO_SYSTEMS = [a for name in ("alpha", "beta", "gamma")
                for a in ("--systems", str(DEMO / f"system_{name}.csv"))]  # fmt: skip


@pytest.fixture(scope="module")
def demo_model(tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    argv = ["train", "--dataset", str(DEMO / "corpus.jsonl"), *DEMO_SYSTEMS, "--freq-table",
            str(DEMO / "wordfreq.tsv"), "--trees", "6", "--folds", "2", "--repeats", "1"]  # fmt: skip
    assert main([*argv, "--out-dir", str(out)]) == 0
    return (out / "model.json").read_bytes()


def _slots(payload) -> list:
    """Every tree node of the model as ``(container, key)``: a tree in its
    forest's list, or a split's ``"l"`` or ``"r"`` child."""
    slots = []
    for _, forest in sorted(payload["forests"].items()):
        stack = [(forest["trees"], i) for i in range(len(forest["trees"]))]
        while stack:
            slots.append(stack.pop())
            node = slots[-1][0][slots[-1][1]]
            if "f" in node:
                stack += [(node, "l"), (node, "r")]
    return slots


def _model_edit(edit, kind=None):
    """A mutation that edits one random node (a split if ``kind`` is "f", a leaf
    if "p") as ``edit(payload, container, key, rng)``, then writes the JSON back."""

    def mutate(raw: bytes, rng: random.Random) -> bytes:
        payload = json.loads(raw)
        slots = [s for s in _slots(payload) if kind is None or kind in s[0][s[1]]]
        edit(payload, *rng.choice(slots), rng)
        return json.dumps(payload).encode()

    return mutate


def _node_field(kind, field, value):
    """Set ``field`` of a random node of ``kind`` to ``value``, or drop it if ``value`` is None."""

    def edit(payload, container, key, rng):
        if value is None:
            del container[key][field]
        else:
            container[key][field] = value

    return _model_edit(edit, kind)


def _copy_subtree(payload, container, key, rng):
    # a split's child replaced by a copy of a random subtree: still a tree, only another one
    source, at = rng.choice(_slots(payload))
    container[key][rng.choice("lr")] = json.loads(json.dumps(source[at]))


def _huge_threshold(raw: bytes, rng: random.Random) -> bytes:
    # json.dumps cannot write 1e400, so a marker value is replaced in the text
    marked = _node_field("f", "t", 123456.789)(raw, rng)
    return marked.replace(b"123456.789", b"1e400")


def _forest_key(old, new):
    """Store forest ``old`` under the key ``new`` in its place."""

    def edit(payload, rng):
        forests = payload["forests"].items()
        payload["forests"] = {new if key == old else key: forest for key, forest in forests}

    return _edit(edit)


MODEL_MUTATIONS = {
    "truncated": lambda raw, rng: raw[: rng.randrange(len(raw) - 1)],  # cuts the last "}"
    "empty": lambda raw, rng: b"",
    "non-utf8": lambda raw, rng: raw[:40] + b"\xff\xfe" + raw[40:],
    "bom": lambda raw, rng: b"\xef\xbb\xbf" + raw,
    "crlf": lambda raw, rng: json.dumps(json.loads(raw), indent=1).encode().replace(b"\n", b"\r\n"),
    "dropped forests": _drop(["forests"]),
    "dropped trees": _edit(lambda p, rng: p["forests"][rng.choice(sorted(p["forests"]))].pop("trees")),
    "dropped l": _node_field("f", "l", None),
    "dropped r": _node_field("f", "r", None),
    "dropped p": _node_field("p", "p", None),
    "node as list": _model_edit(lambda p, container, key, rng: container.__setitem__(key, [1, 2])),
    "bool f": _node_field("f", "f", True),
    "nan t": _node_field("f", "t", math.nan),
    "t of 1e400": _huge_threshold,
    "p of 2": _node_field("p", "p", 2),
    "w of -1": _node_field("p", "w", -1),
    "f past n_features": _node_field("f", "f", 4),
    "subtree copied under a split": _model_edit(_copy_subtree, "f"),
    # a second spelling of SDG 1, after "1": int() reads both, and the last forest would win
    "forest 2 also keyed 01": _edit(lambda p, rng: p["forests"].update({"01": p["forests"]["2"]})),
    "forest key ' 1'": _forest_key("1", " 1"),
    "forest key '+3'": _forest_key("3", "+3"),
    "forests as list": _edit(lambda p, rng: p.update(forests=list(p["forests"].values()))),
}

# values a random edit sets a node field to
_ODD_VALUES = [None, True, False, -1, 0, 1, 2, 3, 4, 0.5, -0.0, 1e308, math.nan, math.inf, "1",
               [], {}, {"p": 0.5, "w": 1.0}, {"f": 0, "t": 0.5}]  # fmt: skip


def _random_edit(payload, container, key, rng):
    node = container[key]
    roll = rng.random()
    if roll < 0.1 or not isinstance(node, dict):
        container[key] = rng.choice(_ODD_VALUES)
    elif roll < 0.4 and node:
        del node[rng.choice(sorted(node))]
    else:
        node[rng.choice(["f", "t", "l", "r", "p", "w"])] = rng.choice(_ODD_VALUES)


def test_mutated_model_files_fail_cleanly(demo_model, tmp_path, capsys):
    """Every named mutation and 200 seeded random node edits exit 0, 2, 3 or 4
    through predict, name their error, and leave no temporary file."""
    path = tmp_path / "model.json"
    argv = ["predict", "--model", str(path), "--dataset", str(DEMO / "corpus.jsonl"), *DEMO_SYSTEMS]
    commands = {"predict": lambda out: [*argv, "--out-dir", str(out)]}
    mutations = dict(MODEL_MUTATIONS)
    mutations.update((f"random edit {i}", _model_edit(_random_edit)) for i in range(200))
    outcomes = _sweep(demo_model, mutations, 19, path, commands, capsys)
    # what a reader may rely on: harmless layouts and a reshaped tree load, broken content does not
    loads = {"bom", "crlf", "subtree copied under a split"}
    for name in loads:
        assert outcomes[name, "predict"] == 0, name
    for name in set(MODEL_MUTATIONS) - loads:
        assert outcomes[name, "predict"] == 3, name


# ---------------------------------------------------------------------------
# Seeded mutations of the demo wordfreq.tsv, run through synth and train
# ---------------------------------------------------------------------------


def _freq_line(edit):
    """A mutation that rewrites the first ``word<TAB>count`` line as ``edit(word, count)``."""

    def mutate(raw: bytes, rng: random.Random) -> bytes:
        lines = raw.split(b"\n")
        at = next(i for i, line in enumerate(lines) if b"\t" in line)
        lines[at] = edit(*lines[at].split(b"\t"))
        return b"\n".join(lines)

    return mutate


FREQ_MUTATIONS = {
    "truncated": lambda raw, rng: raw[: rng.randrange(len(raw))],
    "empty": lambda raw, rng: b"",
    "bom": lambda raw, rng: b"\xef\xbb\xbf" + raw,
    "crlf": lambda raw, rng: raw.replace(b"\n", b"\r\n"),
    "non-utf8": _freq_line(lambda word, count: word + b"\xff\t" + count),
    "no tab": _freq_line(lambda word, count: word + b" " + count),
    "3 columns": _freq_line(lambda word, count: word + b"\t" + count + b"\t7"),
    "nan count": _freq_line(lambda word, count: word + b"\tnan"),
    "1e400 count": _freq_line(lambda word, count: word + b"\t1e400"),
    "5000-digit count": _freq_line(lambda word, count: word + b"\t" + b"9" * 5000),
    "zero count": _freq_line(lambda word, count: word + b"\t0"),
    "negative count": _freq_line(lambda word, count: word + b"\t-3"),
    "tab-led line": _freq_line(lambda word, count: b"\t" + count),
    "multi-token word": _freq_line(lambda word, count: word + b"-" + word + b"\t" + count),
    "duplicate words": lambda raw, rng: raw + raw.split(b"\n", 2)[1] + b"\n",
    "two counts of 1e308": lambda raw, rng: raw + b"".join(
        word + b"\t1" + b"0" * 308 + b"\n" for word in (b"huge", b"huger")
    ),
}


def test_mutated_frequency_tables_fail_cleanly(tmp_path, capsys):
    """Every mutation exits 0 or 3 through synth and train, names its error,
    and leaves no temporary file; harmless layouts and repeated words load."""
    path = tmp_path / "wordfreq.tsv"
    synth = ["synth", "--freq-table", str(path), "--lengths", "5,20", "--docs-per-length", "3"]
    train = ["train", "--dataset", str(DEMO / "corpus.jsonl"), *DEMO_SYSTEMS, "--freq-table",
             str(path), "--trees", "2", "--folds", "2", "--repeats", "1"]  # fmt: skip
    commands = {
        "synth": lambda out: [*synth, "--out-dir", str(out)],
        "train": lambda out: [*train, "--out-dir", str(out)],
    }
    raw = (DEMO / "wordfreq.tsv").read_bytes()
    outcomes = _sweep(raw, FREQ_MUTATIONS, 20, path, commands, capsys)
    loads = {"bom", "crlf", "duplicate words"}
    for name in FREQ_MUTATIONS:
        expected = {0, 3} if name == "truncated" else {0} if name in loads else {3}
        assert {outcomes[name, "synth"], outcomes[name, "train"]} <= expected, name
    # strip() takes the tab with it, so the line holds one column, not an empty word
    path.write_bytes(FREQ_MUTATIONS["tab-led line"](raw, random.Random(0)))
    assert main(commands["synth"](tmp_path / "out" / "tab-led")) == 3
    assert "expected 'word<TAB>count'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Seeded mutations of a config file, run through evaluate
# ---------------------------------------------------------------------------


def _config_value(key: bytes, value):
    """A mutation that sets ``key``'s value to ``value(old, rng)``."""

    def mutate(raw: bytes, rng: random.Random) -> bytes:
        lines = raw.split(b"\n")
        at = next(i for i, line in enumerate(lines) if line.startswith(key + b"="))
        lines[at] = key + b"=" + value(lines[at].split(b"=", 1)[1], rng)
        return b"\n".join(lines)

    return mutate


def _insert(byte: bytes):
    """A value edit that inserts ``byte`` at a random position of the old value."""

    def insert(old: bytes, rng: random.Random) -> bytes:
        at = rng.randrange(len(old) + 1)
        return old[:at] + byte + old[at:]

    return insert


CONFIG = b"seed=3\nout_dir=out/evaluate\njson=yes\n"
CONFIG_MUTATIONS = {
    "truncated": lambda raw, rng: raw[: rng.randrange(len(raw))],
    "empty": lambda raw, rng: b"",
    "bom": lambda raw, rng: b"\xef\xbb\xbf" + raw,
    "crlf": lambda raw, rng: raw.replace(b"\n", b"\r\n"),
    "non-utf8": _config_value(b"out_dir", _insert(b"\xff")),
    "nul in out_dir": _config_value(b"out_dir", _insert(b"\x00")),
    "duplicate keys": lambda raw, rng: raw + b"seed=4\njson=no\n",
    "5000-digit seed": _config_value(b"seed", lambda old, rng: b"9" * 5000),
    "nan seed": _config_value(b"seed", lambda old, rng: b"nan"),
    "fractional seed": _config_value(b"seed", lambda old, rng: b"1.5"),
    "underscored seed": _config_value(b"seed", lambda old, rng: b"1_000"),
}


def test_mutated_config_files_fail_cleanly(demo_matrix, tmp_path, capsys, monkeypatch):
    """Every mutation exits 0 or 2 through evaluate, names its error, and leaves
    no temporary file. The run takes no --out-dir and starts in ``tmp_path``,
    so the config's relative out_dir is the directory it writes."""
    monkeypatch.chdir(tmp_path)
    matrix, path = tmp_path / "matrix.json", tmp_path / "sdgdetect.cfg"
    matrix.write_bytes(demo_matrix)
    argv = ["evaluate", "--dataset", str(DEMO / "corpus.jsonl"), "--matrix", str(matrix)]
    commands = {"evaluate": lambda out: [*argv, "--config", str(path)]}
    outcomes = _sweep(CONFIG, CONFIG_MUTATIONS, 21, path, commands, capsys)
    # harmless layouts and values that int() reads load, an undecodable file is
    # an input error, and every other broken value a parameter error
    loads = ("empty", "bom", "crlf", "duplicate keys", "underscored seed")
    exits = {"truncated": {0, 2}, "non-utf8": {3}} | dict.fromkeys(loads, {0})
    for name in CONFIG_MUTATIONS:
        assert outcomes[name, "evaluate"] in exits.get(name, {2}), name
    # the last line of a key wins, and int() reads "1_000" as --seed does
    path.write_bytes(CONFIG_MUTATIONS["underscored seed"](CONFIG, random.Random(0)))
    assert main(commands["evaluate"](None)) == 0
    assert json.loads((tmp_path / "out" / "evaluate" / "manifest.json").read_text())["seed"] == 1000


# ---------------------------------------------------------------------------
# Seeded edits of one query cell in a demo system, run through detect
# ---------------------------------------------------------------------------

# Text spliced into the query cells.
_QUERY_MUTATIONS = ['"', "(", ")", "*", "_", "-", "/", "NEAR/", "NEAR/3 ", " OR ", " AND ", "NOT ",
                    "é", "\u00a0", "\u2028", "\x1c", "\n"]  # fmt: skip


def _mutate_query(rng: random.Random, query: str) -> str:
    roll = rng.random()
    if roll < 0.1:
        depth = rng.randrange(2 * _MAX_NESTING)
        return "(" * depth + query + ")" * depth
    if roll < 0.2:
        return query[: rng.randrange(len(query) + 1)]
    cut = rng.randrange(len(query) + 1)
    return query[:cut] + rng.choice(_QUERY_MUTATIONS) + query[cut + rng.randrange(3) :]


def _edit_query_cell(raw: bytes, rng: random.Random) -> bytes:
    """A demo system picked at random, one query cell of it edited one to three
    times; ``raw`` is unused, since the system is picked here."""
    names = ("system_alpha.csv", "system_beta.csv", "system_gamma.csv")
    with open(DEMO / rng.choice(names), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    row = rng.choice(rows[1:])
    for _ in range(rng.randrange(1, 4)):
        row[3] = _mutate_query(rng, row[3])
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode("utf-8")


def test_mutated_query_cells_fail_cleanly(tmp_path, capsys):
    """200 seeded query-cell edits exit 0 or 3 through detect, name their
    error, and leave no temporary file; both outcomes occur."""
    path = tmp_path / "system.csv"
    argv = ["detect", "--dataset", str(DEMO / "corpus.jsonl"), "--systems", str(path)]
    commands = {"detect": lambda out: [*argv, "--out-dir", str(out)]}
    mutations = {f"query edit {i}": _edit_query_cell for i in range(200)}
    outcomes = _sweep(b"", mutations, 59, path, commands, capsys)
    assert set(outcomes.values()) == {0, 3}


# ---------------------------------------------------------------------------
# Seeded mutations of an --external CSV and of a whole system CSV, run through
# detect with and without --lenient-external
# ---------------------------------------------------------------------------


def _csv_edit(edit):
    """A mutation that applies ``edit(rows, rng)`` to the parsed CSV rows, the
    header first, and writes them back with LF line ends."""

    def mutate(raw: bytes, rng: random.Random) -> bytes:
        rows = list(csv.reader(io.StringIO(raw.decode("utf-8"), newline="")))
        edit(rows, rng)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue().encode("utf-8")

    return mutate


def _each_row(edit):
    """A CSV edit that rewrites every row, header included, as ``edit(row, column)``
    for one column picked at random."""

    def rows_edit(rows, rng):
        column = rng.randrange(len(rows[0]))
        rows[:] = [edit(row, column) for row in rows]

    return _csv_edit(rows_edit)


def _cell(column: str, value: str):
    """A CSV edit that sets ``column`` of a random data row to ``value``."""

    def edit(rows, rng):
        rng.choice(rows[1:])[rows[0].index(column)] = value

    return _csv_edit(edit)


def _last_cell_of_a_row(suffix: bytes):
    """A mutation that appends ``suffix`` to the last cell of a random data row
    (``sdg`` in an --external CSV, ``query`` in a system CSV)."""

    def mutate(raw: bytes, rng: random.Random) -> bytes:
        lines = raw.split(b"\n")
        at = rng.randrange(1, len(lines) - 1)  # the last line is empty
        lines[at] += suffix
        return b"\n".join(lines)

    return mutate


CSV_MUTATIONS = {
    "truncated": lambda raw, rng: raw[: rng.randrange(len(raw))],
    "empty": lambda raw, rng: b"",
    "bom": lambda raw, rng: b"\xef\xbb\xbf" + raw,
    "crlf": lambda raw, rng: raw.replace(b"\n", b"\r\n"),
    "non-utf8": _last_cell_of_a_row(b"\xff"),
    "dropped column": _each_row(lambda row, column: row[:column] + row[column + 1 :]),
    "duplicated column": _each_row(lambda row, column: row + [row[column]]),
    "extra cell": _last_cell_of_a_row(b",7"),
    "trailing empty cell": _last_cell_of_a_row(b","),
    "trailing comma in header": lambda raw, rng: raw.replace(b"\n", b",\n", 1),
    "nan sdg": _cell("sdg", "nan"),
    "inf sdg": _cell("sdg", "inf"),
    "5000-digit sdg": _cell("sdg", "9" * 5000),
    "sdg 0": _cell("sdg", "0"),
    "sdg 18": _cell("sdg", "18"),
    "duplicate rows": _csv_edit(lambda rows, rng: rows.append(list(rng.choice(rows[1:])))),
    "nul in a cell": _last_cell_of_a_row(b"\0"),
}


SYSTEM_CSV_MUTATIONS = CSV_MUTATIONS | {
    "empty system": _cell("system", ""),
    "empty query_id": _cell("query_id", ""),
}


def _external_csv() -> bytes:
    """A valid --external CSV: one prediction for every demo document."""
    with open(DEMO / "corpus.jsonl", encoding="utf-8") as fh:
        ids = [json.loads(line)["id"] for line in fh if line.strip()]
    rows = [f"{doc_id},{i % 17 + 1}\n" for i, doc_id in enumerate(ids)]
    return "".join(["doc_id,sdg\n", *rows]).encode()


def _detect_commands(system: Path, external: Path, extra=()) -> dict:
    argv = ["detect", "--dataset", str(DEMO / "corpus.jsonl"), "--systems", str(system),
            "--external", f"ext={external}", *extra]  # fmt: skip
    return {
        "strict": lambda out: [*argv, "--out-dir", str(out)],
        "lenient": lambda out: [*argv, "--lenient-external", "--out-dir", str(out)],
    }


def _assert_csv_outcomes(outcomes: dict, loads: set) -> None:
    """Harmless layouts and the ``loads`` mutations exit 0 with and without
    --lenient-external, a truncation 0 or 3, and every other mutation 3."""
    for name in {name for name, _ in outcomes}:
        expected = {0, 3} if name == "truncated" else {0} if name in loads else {3}
        assert {outcomes[name, "strict"], outcomes[name, "lenient"]} <= expected, name


def test_mutated_external_csvs_fail_cleanly(tmp_path, capsys):
    """Every mutation of an --external CSV exits 0 or 3, names its error, and
    leaves no temporary file. A repeated row merges into the same prediction and
    an empty file predicts nothing, so both load."""
    path = tmp_path / "external.csv"
    commands = _detect_commands(DEMO / "system_alpha.csv", path)
    outcomes = _sweep(_external_csv(), CSV_MUTATIONS, 60, path, commands, capsys)
    _assert_csv_outcomes(outcomes, {"bom", "crlf", "duplicate rows", "empty"})


def test_mutated_system_csvs_fail_cleanly(tmp_path, capsys):
    """Every mutation of a whole system CSV exits 0 or 3, names its error, and
    leaves no temporary file. A repeated row repeats its query_id and an empty
    file holds no rows, so both fail."""
    path, external = tmp_path / "system.csv", tmp_path / "external.csv"
    external.write_bytes(_external_csv())
    raw = (DEMO / "system_alpha.csv").read_bytes()
    commands = _detect_commands(path, external)
    outcomes = _sweep(raw, SYSTEM_CSV_MUTATIONS, 61, path, commands, capsys)
    _assert_csv_outcomes(outcomes, {"bom", "crlf"})


def _second_dataset(kept):
    """A mutation that copies the demo corpus with the prefix ``b-`` on every
    doc id but those that ``kept(ids, rng)`` picks."""

    def mutate(raw: bytes, rng: random.Random) -> bytes:
        records = [json.loads(line) for line in raw.splitlines() if line.strip()]
        keep = kept([r["id"] for r in records], rng)
        for r in records:
            r["id"] = r["id"] if r["id"] in keep else "b-" + r["id"]
        return "".join(json.dumps(r) + "\n" for r in records).encode()

    return mutate


SHARED_ID_MUTATIONS = {
    "no id shared": _second_dataset(lambda ids, rng: set()),
    "the unnamed id shared": _second_dataset(lambda ids, rng: {ids[-1]}),
    "one named id shared": _second_dataset(lambda ids, rng: {rng.choice(ids[:-1])}),
    "every id shared": _second_dataset(lambda ids, rng: set(ids)),
}


def test_external_ids_held_by_two_datasets_fail_cleanly(tmp_path, capsys):
    """A doc_id,sdg row names no dataset, so detect refuses an --external CSV
    that names a doc id two datasets hold (exit 3, with or without
    --lenient-external), and keeps one that names no shared id. The CSV names
    every demo document but the last; the second dataset is the demo corpus
    with some of its ids kept."""
    path, external = tmp_path / "second.jsonl", tmp_path / "external.csv"
    external.write_bytes(_external_csv().rsplit(b"\n", 2)[0] + b"\n")
    commands = _detect_commands(DEMO / "system_alpha.csv", external, ["--dataset", str(path)])
    raw = (DEMO / "corpus.jsonl").read_bytes()
    outcomes = _sweep(raw, SHARED_ID_MUTATIONS, 62, path, commands, capsys)
    for name in SHARED_ID_MUTATIONS:
        expected = 3 if name in ("one named id shared", "every id shared") else 0
        assert outcomes[name, "strict"] == outcomes[name, "lenient"] == expected, name


# ---------------------------------------------------------------------------
# Seeded mutations of the demo corpus, as JSONL and as CSV, run through detect
# and evaluate
# ---------------------------------------------------------------------------


def _record(edit):
    """A mutation that rewrites one random JSONL record as ``edit(record)``: a
    dict to write back as JSON, or the bytes of the new line."""

    def mutate(raw: bytes, rng: random.Random) -> bytes:
        lines = raw.split(b"\n")
        at = rng.randrange(len(lines) - 1)  # the last line is empty
        new = edit(json.loads(lines[at]))
        lines[at] = new if isinstance(new, bytes) else json.dumps(new).encode()
        return b"\n".join(lines)

    return mutate


def _without(key: str):
    return _record(lambda r: {k: v for k, v in r.items() if k != key})


def _with(**values):
    return _record(lambda r: {**r, **values})


def _drop_column(name: str):
    def edit(rows, rng):
        at = rows[0].index(name)
        rows[:] = [row[:at] + row[at + 1 :] for row in rows]

    return _csv_edit(edit)


def _duplicate_line(raw: bytes, rng: random.Random) -> bytes:
    lines = raw.split(b"\n")
    lines.insert(rng.randrange(len(lines)), rng.choice(lines[:-1]))
    return b"\n".join(lines)


def _set_sets(labels: str, evaluated: str):
    """A CSV edit that sets the labels and evaluated cells of a random data row."""

    def edit(rows, rng):
        rng.choice(rows[1:])[2:] = [labels, evaluated]

    return edit


def _repeat_id(record) -> bytes:
    """The record with its "id" key written twice; json.loads keeps the last."""
    return f'{json.dumps(record)[:-1]}, "id": {json.dumps(record["id"])}}}'.encode()


_HUGE = "9" * 5000  # more digits than int() takes


def _huge_label(record) -> bytes:
    return json.dumps({**record, "labels": [0]}).replace("[0]", f"[{_HUGE}]").encode()


# the byte-level mutations, shared with the CSV sweeps: truncation may load
_LAYOUTS = {"truncated": {0, 3}, "empty": {3}, "bom": {0}, "crlf": {0}, "non-utf8": {3}}

# mutation -> (mutate, the exit codes that detect and evaluate may give)
JSONL_MUTATIONS = {
    **{name: (CSV_MUTATIONS[name], codes) for name, codes in _LAYOUTS.items()},
    "blank lines": (lambda raw, rng: raw.replace(b"\n", b"\n\n\r\n"), {0}),
    "duplicate ids": (_duplicate_line, {3}),
    "dropped id": (_without("id"), {3}),
    "dropped text": (_without("text"), {3}),
    "dropped labels": (_without("labels"), {0}),  # the record is unlabeled
    "duplicated key": (_record(_repeat_id), {0}),
    "not an object": (_record(lambda r: [r["id"], r["text"]]), {3}),
    "id a number": (_with(id=7), {3}),
    "text null": (_with(text=None), {3}),
    "lone surrogate in text": (_with(text="poverty \ud800"), {0}),  # no token holds it
    "labels a string": (_with(labels="1"), {3}),
    "bool label": (_with(labels=[True]), {3}),
    "float label": (_with(labels=[1.0]), {3}),
    "nan label": (_with(labels=[math.nan]), {3}),
    "inf label": (_with(labels=[math.inf]), {3}),
    "5000-digit label": (_record(_huge_label), {3}),
    "label 18": (_with(labels=[18]), {3}),
    "evaluated only": (_record(lambda r: {"id": r["id"], "text": r["text"], "evaluated": [1]}),
                       {0}),  # labeled, no positive label
    "empty evaluated": (_with(labels=[], evaluated=[]), {3}),
    "label outside evaluated": (_with(labels=[1], evaluated=[2]), {3}),
}

CORPUS_CSV_MUTATIONS = {
    **{name: (CSV_MUTATIONS[name], codes) for name, codes in _LAYOUTS.items()},
    **{name: (CSV_MUTATIONS[name], {3}) for name in
       ("duplicated column", "extra cell", "trailing comma in header", "nul in a cell")},
    "duplicate ids": (CSV_MUTATIONS["duplicate rows"], {3}),
    "dropped id column": (_drop_column("id"), {3}),
    "dropped labels column": (_drop_column("labels"), {0}),  # evaluated, no positive
    "dropped evaluated column": (_drop_column("evaluated"), {0}),  # judged on all 17
    "nan label": (_cell("labels", "nan"), {3}),
    "inf label": (_cell("labels", "inf"), {3}),
    "5000-digit label": (_cell("labels", _HUGE), {3}),
    "label 18": (_cell("labels", "18"), {3}),
    "label outside evaluated": (_cell("evaluated", "17"), {3}),
    "empty evaluated": (_csv_edit(_set_sets("", "|")), {3}),
    "unlabeled row": (_csv_edit(_set_sets("", "")), {0}),
}


def _demo_corpus_csv() -> bytes:
    """The demo corpus as CSV, every labeled record judged on all 17 SDGs."""
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(["id", "text", "labels", "evaluated"])
    every_sdg = "|".join(map(str, range(1, 18)))
    for line in (DEMO / "corpus.jsonl").read_text(encoding="utf-8").splitlines():
        r = json.loads(line)
        out.writerow([r["id"], r["text"], "|".join(map(str, r["labels"])), every_sdg])
    return buf.getvalue().encode()


@pytest.mark.parametrize(
    "suffix,mutations,seed",
    [(".jsonl", JSONL_MUTATIONS, 62), (".csv", CORPUS_CSV_MUTATIONS, 63)],
    ids=["jsonl", "csv"],
)
def test_mutated_corpora_fail_cleanly(demo_matrix, tmp_path, capsys, suffix, mutations, seed):
    """Every mutation of the demo corpus exits 0 or 3 through detect and
    evaluate, names its error, and leaves no temporary file."""
    path, matrix = tmp_path / f"corpus{suffix}", tmp_path / "matrix.json"
    matrix.write_bytes(demo_matrix)
    raw = _demo_corpus_csv() if suffix == ".csv" else (DEMO / "corpus.jsonl").read_bytes()
    commands = {
        "detect": lambda out: ["detect", "--dataset", str(path), *DEMO_SYSTEMS,
                               "--out-dir", str(out)],
        "evaluate": lambda out: ["evaluate", "--dataset", str(path), "--matrix", str(matrix),
                                 "--out-dir", str(out)],
    }  # fmt: skip
    outcomes = _sweep(raw, {n: m for n, (m, _) in mutations.items()}, seed, path, commands, capsys)
    for name, (_, codes) in mutations.items():
        assert {outcomes[name, "detect"], outcomes[name, "evaluate"]} <= codes, name
