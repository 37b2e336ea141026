"""Command-line surface for the SDG detection pipeline.

Subcommands: detect, evaluate, bias, synth, train, predict, importance.
All outputs are plot-ready CSV (mirrored to JSON with --json) plus a
manifest.json recording inputs (sha256), parameters, and seed, so a run
can be reproduced byte-for-byte. Outputs are written atomically.

Exit codes: 0 success, 2 usage/parameter error, 3 data/schema error,
4 degenerate computation.

A key=value config file (via --config or the SDGDETECT_CONFIG env var)
may supply defaults for the global flags seed, out_dir, json; any other
key is a parameter error. Command-line flags always win.

Only synth, train, predict and importance load numpy: they import ensemble
and synthgen when they are dispatched (NUMPY_COMMANDS), and so does looking
up one of those modules' names on this module (NUMPY_NAMES). detect,
evaluate, bias, --help, --version and every usage error run without it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import importlib
import io
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .bias import bias as bias_vector
from .bias import profile, profile_bias, profile_fidelity, sum_in_order
from .corpus import (
    Dataset,
    atomic_write_text,
    load_documents,
    read_input,
    save_documents,
    warn,
)
from .errors import DegenerateInputError, NoLabelsError, ParamError, SchemaError, SdgToolError
from .errors import UndefinedMetricError
from .evaluation import ConfusionCounts, MetricReport, confusion, metrics
from .evaluation import roc_point, sdgs_per_document
from .systems import (
    PredictionMatrix,
    detect,
    detect_matrix,
    import_external_predictions,
    keyword_frequencies,
    load_system,
    mask_sdgs,
    to_matrix,
)

# The names taken from ensemble and synthgen, the modules that import numpy.
NUMPY_NAMES = {
    "ensemble": (
        "CvConfig",
        "ForestParams",
        "_child_seed",
        "build_features",
        "cross_validate",
        "feature_names_for",
        "load_model",
        "model_importance",
        "save_model",
        "train_model",
    ),
    "synthgen": ("SynthSpec", "generate_documents", "generate_matched", "load_frequency_table"),
}
NUMPY_COMMANDS = {"synth", "train", "predict", "importance"}


def _import_numpy_names() -> None:
    """Bind every name of NUMPY_NAMES here. A name already bound is kept: it is
    a wrapper that a caller set on this module before the first import."""
    for module_name, names in NUMPY_NAMES.items():
        module = importlib.import_module(f".{module_name}", __package__)
        for name in names:
            globals().setdefault(name, getattr(module, name))


def __getattr__(name: str):
    """``cli.<name>`` for a name of NUMPY_NAMES imports it (PEP 562)."""
    if any(name in names for names in NUMPY_NAMES.values()):
        _import_numpy_names()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


CONFIG_ENV_VAR = "SDGDETECT_CONFIG"
_CONFIG_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
# Parsed arguments that are not a command's manifest params, and the names
# under which two flags are recorded there.
_NOT_PARAMS = {"command", "func", "seed", "out_dir", "json", "config"}
_PARAM_NAMES = {"dataset": "datasets", "exclude_pair": "exclude_pairs"}


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_table(out_dir: Path, name: str, header: list[str], rows, as_json: bool) -> None:
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


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, params: dict, inputs, seed: int) -> None:
    manifest = {
        "tool": "sdgdetect",
        "version": __version__,
        "command": command,
        "seed": seed,
        "params": params,
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
    }
    atomic_write_text(
        out_dir / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )


def _json_block(brackets: str, lines: list[str], indent: str) -> str:
    """A JSON array or object laid out as ``json.dumps(..., indent=2)`` lays it
    out at ``indent``, from its members' lines, each indented one level more."""
    if not lines:
        return brackets
    return brackets[0] + "\n" + ",\n".join(lines) + "\n" + indent + brackets[1]


def _matrix_json(system_names: list[str], matrices: dict[str, PredictionMatrix]) -> str:
    """The text of matrix.json: ``json.dumps(payload, sort_keys=True, indent=2)
    + "\\n"`` for ``{"systems": sorted(system_names), "datasets": {name:
    {"assignments": [[doc_id, system, sdg], ...]}}}``, byte for byte.

    json's C encoder does no ``indent``, so the layout is joined here and
    only each string is encoded, by ``json.dumps``. A row's doc id and
    system are encoded once for all its SDGs.
    """
    datasets = []
    for name, matrix in sorted(matrices.items()):
        items, key, head = [], None, ""
        for doc_id, system, sdg in matrix.assignments:
            if (doc_id, system) != key:
                key = (doc_id, system)
                doc_json, system_json = json.dumps(doc_id), json.dumps(system)
                head = f"        [\n          {doc_json},\n          {system_json},\n"
            items.append(f"{head}          {sdg}\n        ]")
        assignments = _json_block("[]", items, "      ")
        datasets.append(f'    {json.dumps(name)}: {{\n      "assignments": {assignments}\n    }}')
    systems = [f"    {json.dumps(s)}" for s in sorted(system_names)]
    return (
        f'{{\n  "datasets": {_json_block("{}", datasets, "  ")},\n'
        f'  "systems": {_json_block("[]", systems, "  ")}\n}}\n'
    )


def _load_matrix_file(
    path: Path, datasets: list[Dataset]
) -> tuple[list[str], dict[str, PredictionMatrix]]:
    try:
        payload = json.loads(read_input(path, "prediction matrix"))
        systems = payload["systems"]
        raw = payload["datasets"]
    except (ValueError, RecursionError, KeyError, TypeError) as exc:
        # ValueError: invalid JSON, or an integer longer than int() converts
        raise SchemaError(f"cannot read prediction matrix {path}: {exc}") from exc
    if not isinstance(systems, list) or not all(isinstance(s, str) for s in systems):
        raise SchemaError(f"{path}: 'systems' must be a list of names")
    if len(set(systems)) != len(systems):
        raise SchemaError(f"{path}: 'systems' lists a name twice: {systems}")
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: 'datasets' must map dataset names to assignments")
    matrices: dict[str, PredictionMatrix] = {}
    for ds in datasets:
        if ds.name not in raw:
            raise SchemaError(f"matrix file has no predictions for dataset {ds.name!r}")
        entry = raw[ds.name]
        assignments = entry.get("assignments") if isinstance(entry, dict) else None
        if not isinstance(assignments, list):
            raise SchemaError(f"{path}: dataset {ds.name!r} has no 'assignments' list")
        doc_ids = dict.fromkeys((doc.id for doc in ds.documents), 0)  # dataset order
        columns = {s: doc_ids.copy() for s in systems}
        for item in assignments:
            if type(item) is not list or len(item) != 3:
                problem = "expected [doc_id, system, sdg]"
            elif type(item[0]) is not str or item[0] not in doc_ids:
                problem = "unknown doc_id"
            elif type(item[1]) is not str or item[1] not in columns:
                problem = "system not listed in 'systems'"
            elif type(item[2]) is not int or not 1 <= item[2] <= 17:
                problem = "SDG id must be an integer in 1..17"
            else:
                columns[item[1]][item[0]] |= 1 << (item[2] - 1)
                continue
            raise SchemaError(f"{path}: dataset {ds.name!r}, assignment {item!r}: {problem}")
        matrices[ds.name] = PredictionMatrix(columns)
    return systems, matrices


# ---------------------------------------------------------------------------
# Shared loading
# ---------------------------------------------------------------------------


def _distinct_names(names: list[str], kind: str) -> None:
    """Refuse two equal names, or a name that UTF-8 cannot encode (one that
    holds a lone surrogate, as a name read from undecodable bytes does),
    before any output is written."""
    if len(set(names)) != len(names):
        raise SchemaError(f"{kind} names collide: {names}")
    for name in names:
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            raise SchemaError(f"{kind} name {name!r} cannot be written as UTF-8") from None


def _load_named(load, paths: list[str], kind: str) -> list:
    """``load`` of each path; two results with one name are a SchemaError."""
    loaded = [load(p) for p in paths]
    _distinct_names([x.name for x in loaded], kind)
    return loaded


def _load_scored(args) -> tuple[list[Dataset], list[str], dict[str, PredictionMatrix]]:
    """The datasets that evaluate and bias score, the matrix.json systems and matrices."""
    datasets = _load_named(load_documents, args.dataset, "dataset")
    return (datasets, *_load_matrix_file(Path(args.matrix), datasets))


def _load_model_and_systems(model_path: str, system_paths: list[str]):
    """The saved model and the systems it must be applied with."""
    model = load_model(model_path)
    systems = _load_named(load_system, system_paths, "system")
    if {s.name for s in systems} != set(model.system_names):
        raise SchemaError(
            f"model was trained on systems {sorted(model.system_names)}, "
            f"got {sorted(s.name for s in systems)}"
        )
    return model, systems


def _ensemble_inputs(args, systems):
    """The labeled datasets that train and importance read, a length-matched
    synthetic one for each, and all their matrices."""
    labeled = _load_named(load_documents, args.dataset, "dataset")
    table = load_frequency_table(args.freq_table)
    synthetic = [
        generate_matched(table, ds, _child_seed(args.seed, i)) for i, ds in enumerate(labeled)
    ]
    _distinct_names([ds.name for ds in labeled + synthetic], "dataset")
    matrices = {ds.name: detect_matrix(ds, systems) for ds in labeled + synthetic}
    return labeled, synthetic, matrices


def _parse_k_grid(raw: str) -> list[float]:
    try:
        values = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ParamError(f"invalid k grid {raw!r}") from None
    if not values or any(not 0 <= v <= 10 for v in values):
        raise ParamError("k values must lie in [0, 10]")
    return values


# ---------------------------------------------------------------------------
# Commands
#
# Each cmd_* takes the parsed arguments, with seed, out_dir and json already
# resolved, and returns (tables, params, inputs): its rows keyed by table
# name, the manifest params it computes and its input files. main records
# every parsed flag of the command as a manifest param, writes every table
# and then, last, manifest.json; a command writes only its own files
# (matrix.json, synthetic.jsonl, model.json).
# ---------------------------------------------------------------------------

# The columns of each table a command returns, by table name. The count and
# metric columns are derived: they are the fields of ConfusionCounts and
# MetricReport, and a row takes those cells from the records' attributes in
# field order (vars, which unlike astuple copies nothing).
_COUNTS = [f.name for f in fields(ConfusionCounts)]
TABLES = {
    "hits": ["dataset", "doc_id", "system", "sdg", "query_id", "term", "positions"],
    "keyword_frequencies": ["dataset", "system", "term", "count"],
    "metrics": ["dataset", "system", *_COUNTS, *(f.name for f in fields(MetricReport))],
    "roc": ["dataset", "system", "fpr", "tpr"],
    "sdgs_per_doc": ["dataset", "system", "mean_words", "mean_sdgs_per_doc"],
    "bias": ["system", "dataset", "sdg", "observed", "predicted", "bias"],
    "profiles": ["source", "dataset", "sdg", "proportion"],
    "correlations": ["system", "metric", "value"],
    "cv_report": ["sdg", "fold", "repeat", *_COUNTS, "accuracy", "f1"],
    "curve": ["k", "pooled_accuracy", "mean_dataset_accuracy", "synthetic_fp_rate"],
    "skipped": ["sdg", "repeat", "fold", "reason"],
    "predictions": ["dataset", "doc_id", "sdg", "score", "assigned"],
    "importance": ["sdg", "feature", "importance"],
}


def cmd_detect(args) -> tuple[dict, dict, list]:
    externals = [item.split("=", 1) for item in args.external]
    if any(len(pair) != 2 or not pair[0].strip() or not pair[1].strip() for pair in externals):
        raise ParamError("--external expects NAME=PATH")
    systems = _load_named(load_system, args.systems, "system")
    system_names = [s.name for s in systems] + [name for name, _ in externals]
    _distinct_names(system_names, "system")
    datasets = _load_named(load_documents, args.dataset, "dataset")
    held: dict[str, list[str]] = {}  # each doc id's datasets
    for ds in datasets:
        for doc in ds.documents:
            held.setdefault(doc.id, []).append(ds.name)
    external = []
    for name, path in externals:
        masks = import_external_predictions(path, held, not args.lenient_external)
        shared = next((i for i, names in held.items() if len(names) > 1 and masks[i]), None)
        if shared is not None:  # a doc_id,sdg row cannot say which dataset it means
            raise SchemaError(f"{Path(path).name}: doc_id {shared!r} is in datasets "
                              f"{held[shared]}, and a predictions row names no dataset")
        external.append((name, masks))
    matrices = {}
    hit_rows = []
    freq_rows = []
    for ds in datasets:
        hits = detect(ds, systems)
        matrices[ds.name] = to_matrix(hits, ds, systems)
        for name, masks in external:
            matrices[ds.name].columns[name] = {doc.id: masks[doc.id] for doc in ds.documents}
        for hit in hits:
            # a hit with no positive literal (a pure NOT query) is one row with no term
            for term, positions in hit.matched_terms or (("", ()),):
                at = "|".join(str(p) for p in positions)
                hit_rows.append((ds.name, hit.doc_id, hit.system, hit.sdg, hit.query_id, term, at))
        freq_rows += [(ds.name, *row) for row in keyword_frequencies(hits)]

    atomic_write_text(args.out_dir / "matrix.json", _matrix_json(system_names, matrices))
    return (
        {"hits": hit_rows, "keyword_frequencies": freq_rows},
        {},
        args.dataset + args.systems + [path for _, path in externals],
    )


def cmd_evaluate(args) -> tuple[dict, dict, list]:
    datasets, systems, matrices = _load_scored(args)

    metric_rows = []
    roc_rows = []
    spd_rows = []
    for ds in datasets:
        matrix = matrices[ds.name]
        for system in systems:
            counts = confusion(matrix, ds, system)
            report = metrics(counts)
            metric_rows.append((ds.name, system, *vars(counts).values(), *vars(report).values()))
            with contextlib.suppress(UndefinedMetricError):  # a rate is undefined: no point
                roc_rows.append((ds.name, system, *roc_point(report)))
            mean_sdgs, mean_words = sdgs_per_document(matrix, ds, system)
            spd_rows.append((ds.name, system, mean_words, mean_sdgs))

    return (
        {"metrics": metric_rows, "roc": roc_rows, "sdgs_per_doc": spd_rows},
        {},
        args.dataset + [args.matrix],
    )


def _dataset_profiles(ds: Dataset, matrix: PredictionMatrix, systems: list[str]):
    """The expert SDG profile of a dataset and each system's, by system name;
    a system's counts only the SDGs evaluated on each document."""
    docs = ds.documents
    expert = profile([doc.labels for doc in docs])
    predicted = {}
    for s in systems:
        column = matrix.columns[s]
        predicted[s] = profile([mask_sdgs(column[doc.id] & doc.evaluated_mask) for doc in docs])
    return expert, predicted


def cmd_bias(args) -> tuple[dict, dict, list]:
    if any(":" not in item for item in args.exclude_pair):
        raise ParamError("--exclude-pair expects NAME:NAME")
    datasets, systems, matrices = _load_scored(args)

    names = sorted(d.name for d in datasets)
    excluded = set()
    for item in args.exclude_pair:
        a, b = item.split(":", 1)
        for name in (a, b):
            if name not in names:
                raise ParamError(f"--exclude-pair: no dataset named {name!r} in this run")
        excluded.add(frozenset((a, b)))
    pairs = [
        (a, b)
        for i, a in enumerate(names)
        for b in names[i + 1 :]
        if frozenset((a, b)) not in excluded
    ]

    bias_rows = []
    profile_rows = []
    corr_rows = []
    for ds in datasets:
        if not ds.labeled:
            raise NoLabelsError(f"dataset {ds.name!r} has no expert labels")
    profiles = {ds.name: _dataset_profiles(ds, matrices[ds.name], systems) for ds in datasets}
    for system in systems:
        biases = {}
        fidelities = []
        for ds in datasets:
            expert, by_system = profiles[ds.name]
            predicted = by_system[system]
            vec = bias_vector(predicted, expert)
            biases[ds.name] = vec
            shares = zip(expert.proportions, predicted.proportions, vec)
            for sdg, (observed, share, sdg_bias) in enumerate(shares, 1):
                bias_rows.append((system, ds.name, sdg, observed, share, sdg_bias))
                profile_rows.append((system, ds.name, sdg, share))
            try:
                fidelities.append(profile_fidelity(expert, predicted))
            except DegenerateInputError as exc:
                warn(f"fidelity for {system}/{ds.name}: {exc}")
        fidelity = sum_in_order(fidelities) / len(fidelities) if fidelities else None
        corr_rows.append((system, "profile_fidelity_mean_rho", fidelity))
        try:
            mean_r = profile_bias(biases, pairs) if pairs else None
        except DegenerateInputError as exc:
            warn(f"profile bias for {system}: {exc}")
            mean_r = None
        corr_rows.append((system, "profile_bias_mean_r", mean_r))

    # with no system, profiles.csv is its header alone, as every other table is
    for name, (expert, _) in sorted(profiles.items()) if systems else ():
        profile_rows += [("expert", name, sdg, p) for sdg, p in enumerate(expert.proportions, 1)]
    profile_rows.sort(key=lambda r: (r[0], r[1], r[2]))

    return (
        {"bias": bias_rows, "profiles": profile_rows, "correlations": corr_rows},
        {"pairs": [list(p) for p in pairs]},
        args.dataset + [args.matrix],
    )


def cmd_synth(args) -> tuple[dict, dict, list]:
    if args.match and args.lengths is not None:
        raise ParamError("synth takes --lengths or --match, not both")
    if args.match and args.docs_per_length is not None:
        raise ParamError("synth takes --docs-per-length with --lengths only")
    if args.match:
        spec, params, inputs = None, {}, [args.freq_table, args.match]
    else:
        if not args.lengths:
            raise ParamError("synth requires --lengths or --match")
        try:
            lengths = tuple(int(x) for x in args.lengths.split(","))
        except ValueError:
            raise ParamError(f"invalid --lengths {args.lengths!r}: expected integers") from None
        docs_per_length = 1000 if args.docs_per_length is None else args.docs_per_length
        spec = SynthSpec(lengths, docs_per_length, args.seed)
        params, inputs = {"docs_per_length": docs_per_length}, [args.freq_table]
    table = load_frequency_table(args.freq_table)
    if spec is None:
        dataset = generate_matched(table, load_documents(args.match), args.seed)
    else:
        dataset = generate_documents(table, spec)
    save_documents(dataset, args.out_dir / "synthetic.jsonl")
    return {}, params, inputs


def cmd_train(args) -> tuple[dict, dict, list]:
    if not 0 <= args.k <= 10:
        raise ParamError("--k must lie in [0, 10]")
    if not 0 <= args.threshold <= 1:
        raise ParamError("--threshold must lie in [0, 1]")
    seed = args.seed
    params = ForestParams(args.trees, args.mtry, args.min_leaf_frac, args.max_depth, seed=seed)
    # the grid's own values first: of two equal values (0.0 and -0.0) a set keeps the first
    grid = sorted({*(_parse_k_grid(args.k_grid) if args.k_grid else ()), args.k})
    config = CvConfig(folds=args.folds, repeats=args.repeats, seed=seed, threshold=args.threshold)
    systems = _load_named(load_system, args.systems, "system")
    labeled, synthetic, matrices = _ensemble_inputs(args, systems)
    system_names = [s.name for s in systems]

    curve_rows = []
    for kg in grid:
        features = build_features(matrices, system_names, labeled, synthetic, kg)
        cv = cross_validate(features, config, params)
        curve_rows.append(
            (kg, cv.pooled_report.accuracy, cv.mean_origin_accuracy, cv.synthetic_fp_rate)
        )
        if kg == args.k:
            final_cv, final_features = cv, features

    cv_rows = [
        (r.sdg, r.fold, r.repeat, *vars(r.counts).values(), r.report.accuracy, r.report.f1)
        for r in final_cv.records
    ]

    model = train_model(final_features, system_names, args.k, params, args.threshold)
    save_model(model, args.out_dir / "model.json")
    return (
        {"cv_report": cv_rows, "curve": curve_rows, "skipped": final_cv.skipped},
        {"k_grid": grid},
        args.dataset + args.systems + [args.freq_table],
    )


def cmd_predict(args) -> tuple[dict, dict, list]:
    model, systems = _load_model_and_systems(args.model, args.systems)
    datasets = _load_named(load_documents, args.dataset, "dataset")

    rows = []
    for ds in datasets:
        scores = model.score_documents(detect_matrix(ds, systems), ds)
        for doc, column in zip(ds.documents, zip(*scores)):
            for sdg, score in enumerate(column, 1):
                rows.append((ds.name, doc.id, sdg, score, score >= model.threshold))
    return (
        {"predictions": rows},
        {},
        [args.model] + args.dataset + args.systems,
    )


def cmd_importance(args) -> tuple[dict, dict, list]:
    if args.repetitions < 1:
        raise ParamError("repetitions must be >= 1")
    model, systems = _load_model_and_systems(args.model, args.systems)
    labeled, synthetic, matrices = _ensemble_inputs(args, systems)
    features = build_features(matrices, list(model.system_names), labeled, synthetic, model.k)
    importances = model_importance(model, features, repetitions=args.repetitions, seed=args.seed)

    out_rows = []
    for sdg in sorted(importances):
        for feature in feature_names_for(model.system_names):
            out_rows.append((sdg, feature, importances[sdg][feature]))
    return (
        {"importance": out_rows},
        {},
        [args.model] + args.dataset + args.systems + [args.freq_table],
    )


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------


def _read_config(path: str | None) -> dict[str, str]:
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
        if not path or not Path(path).exists():
            return {}
    elif not Path(path).exists():
        raise ParamError(f"config file {path} does not exist")
    config = {}
    for lineno, line in enumerate(read_input(path, "config file").split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParamError(f"config {path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in ("seed", "out_dir", "json"):
            raise ParamError(f"config {path}:{lineno}: unknown key {key!r}")
        config[key] = value
    return config


@functools.cache  # parse_args leaves the parser as it was, so one per process serves every call
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    common.add_argument("--out-dir", default=None, help="output directory (default ./out)")
    common.add_argument("--json", action="store_true", default=None, help="mirror CSVs as JSON")
    common.add_argument("--config", default=None, help=f"key=value config (or ${CONFIG_ENV_VAR})")

    # the docstring's last paragraph is for readers of the code, not of --help
    parser = argparse.ArgumentParser(prog="sdgdetect", description=__doc__.rsplit("\n\n", 1)[0])
    parser.add_argument("--version", action="version", version=f"sdgdetect {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(func, summary: str) -> argparse.ArgumentParser:
        """The subcommand that runs ``func``, named as it is without "cmd_"."""
        p = sub.add_parser(func.__name__.removeprefix("cmd_"), parents=[common], help=summary)
        p.set_defaults(func=func)
        return p

    p = command(cmd_detect, "run labeling systems over datasets")
    p.add_argument("--dataset", action="append", required=True)
    p.add_argument("--systems", action="append", required=True)
    p.add_argument(
        "--external", action="append", default=[], help="NAME=PATH external predictions CSV"
    )
    p.add_argument("--lenient-external", action="store_true", help="skip unknown doc ids")

    p = command(cmd_evaluate, "score predictions against labels")
    p.add_argument("--dataset", action="append", required=True)
    p.add_argument("--matrix", required=True, help="matrix.json from detect")

    p = command(cmd_bias, "per-SDG bias and profile correlations")
    p.add_argument("--dataset", action="append", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--exclude-pair", action="append", default=[], help="NAME:NAME pair to skip")

    p = command(cmd_synth, "generate synthetic documents")
    p.add_argument("--freq-table", required=True)
    p.add_argument("--lengths", help="comma-separated document lengths")
    p.add_argument("--docs-per-length", type=int, help="with --lengths (default 1000)")
    p.add_argument("--match", help="dataset to length-match instead of --lengths")

    p = command(cmd_train, "train the per-SDG ensemble")
    p.add_argument("--dataset", action="append", required=True, help="labeled dataset")
    p.add_argument("--systems", action="append", required=True)
    p.add_argument("--freq-table", required=True)
    p.add_argument("--k", type=float, default=1.0, help="synthetic weight factor")
    p.add_argument("--k-grid", help="comma-separated k values for curve data")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--repeats", type=int, default=2)
    p.add_argument("--trees", type=int, default=300)
    p.add_argument("--mtry", type=int, default=None)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--min-leaf-frac", type=float, default=1e-6)
    p.add_argument("--threshold", type=float, default=0.5)

    p = command(cmd_predict, "apply a saved ensemble model")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", action="append", required=True)
    p.add_argument("--systems", action="append", required=True)

    p = command(cmd_importance, "permutation feature importance")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", action="append", required=True, help="labeled dataset")
    p.add_argument("--systems", action="append", required=True)
    p.add_argument("--freq-table", required=True)
    p.add_argument("--repetitions", type=int, default=10)

    return parser


def _resolve_global_flags(args) -> None:
    """Set ``args.seed``, ``args.out_dir`` and ``args.json`` in place from the
    flag, else the config file, else the default."""
    config = _read_config(args.config)

    def pick(flag_value, key, fallback, convert):
        if flag_value is not None:
            return flag_value
        if key in config:
            try:
                return convert(config[key])
            except (KeyError, ValueError):
                raise ParamError(f"config key {key}: invalid value {config[key]!r}") from None
        return fallback

    args.seed = pick(args.seed, "seed", 0, int)
    if args.seed < 0:
        raise ParamError(f"seed must be a non-negative integer, got {args.seed}")
    out_dir = pick(args.out_dir, "out_dir", "out", str)
    if "\0" in out_dir:  # no file system takes it; os.mkdir would raise ValueError
        raise ParamError(f"out_dir must not hold a NUL byte: {out_dir!r}")
    args.out_dir = Path(out_dir)
    args.json = pick(args.json, "json", False, lambda v: _CONFIG_BOOLS[v.lower()])


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_global_flags(args)
        args.out_dir.mkdir(parents=True, exist_ok=True)
        # an earlier run's manifest must not outlive a rerun that fails part-way
        (args.out_dir / "manifest.json").unlink(missing_ok=True)
        if args.command in NUMPY_COMMANDS:
            _import_numpy_names()
        tables, computed, inputs = args.func(args)
        params = {_PARAM_NAMES.get(k, k): v for k, v in vars(args).items() if k not in _NOT_PARAMS}
        for name, rows in tables.items():
            _write_table(args.out_dir, name, TABLES[name], rows, args.json)
        _write_manifest(args.out_dir, args.command, params | computed, inputs, args.seed)
        return 0
    except SdgToolError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error [E_IO]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
