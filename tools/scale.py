#!/usr/bin/env python3
"""The ensemble at scale: features, cross-validation, the final model and its
permutation importance on thousands of documents, where a tree's first nodes
hold thousands of rows.

Run from the repository root:

    python3 tools/scale.py --docs 1500 --trees 50 --folds 5 --repetitions 10

The labeled documents come from the benchmark's generator
(``perfbench/workloads.py``, read only): the ``ensemble`` spec resized to
two datasets of ``--docs`` documents each, seed 11. Each dataset gets a
length-matched synthetic one (seeds 0 and 1), and ``detect_matrix`` builds
each one's prediction matrix with the three demo systems, as ``sdgdetect
train`` does. ``build_features`` uses k = 1. ``cross_validate``
runs ``--folds`` folds of one repeat and ``train_model`` grows the 17 final
forests, each forest with ``--trees`` trees and every other setting at the
CLI's default. ``model_importance`` permutes each feature of the trained
model ``--repetitions`` times (the CLI's default is 10) with seed 0, as
``sdgdetect importance`` does. Then ``EnsembleModel.score_documents`` scores
every labeled and synthetic dataset with the trained model, from the dataset
and its prediction matrix, as ``sdgdetect predict`` does, and ``tracemalloc``
records the peak memory of a second, untimed call (tracing doubled the time
of scoring).

The last line of standard output is one JSON object: each SDG's feature rows
and distinct ``(x, y)`` rows, the wall and CPU seconds and the minor page
faults of ``detect_matrix`` (over the four datasets), ``build_features``,
``cross_validate``, ``train_model``, ``model_importance`` and scoring
(``predict``), the ``tracemalloc`` peak of scoring, the SHA-256 of ``repr``
of the ``CvResult``, of the saved ``model.json``, of ``repr`` of the
importances and of ``repr`` of the score lists, and the process's peak RSS. The digests depend only on the flags, so
two runs of one tree must print the same ones; the times, faults and memory
figures do not.
"""

import argparse
import dataclasses
import hashlib
import json
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402

from sdgdetect.corpus import load_documents  # noqa: E402
from sdgdetect.ensemble import (  # noqa: E402
    CvConfig,
    ForestParams,
    build_features,
    cross_validate,
    model_importance,
    save_model,
    train_model,
)
from sdgdetect.synthgen import generate_matched, load_frequency_table  # noqa: E402
from sdgdetect.systems import detect_matrix, load_system  # noqa: E402

DEMO = ROOT / "demo"
SEED = 11


def _inputs(docs: int, work: Path):
    """The systems, the labeled datasets and a length-matched synthetic one
    for each."""
    spec = workloads.SPECS["ensemble"]
    spec = dataclasses.replace(spec, labeled=(("ens_a", docs), ("ens_b", docs)))
    workloads.write_inputs(workloads.generate(spec, SEED, DEMO), work, DEMO)
    labeled = [load_documents(work / "in" / f"{name}.jsonl") for name, _ in spec.labeled]
    table = load_frequency_table(DEMO / "wordfreq.tsv")
    synthetic = [generate_matched(table, ds, seed) for seed, ds in enumerate(labeled)]
    systems = [load_system(DEMO / name) for name in workloads.DEMO_SYSTEMS]
    return systems, labeled, synthetic


def _timed(stages: dict, name: str, call):
    """``call()``'s result; its wall seconds, CPU seconds and minor page faults
    go to ``stages`` as ``<name>_wall_s``, ``<name>_cpu_s`` and
    ``<name>_minor_faults``."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    wall, cpu = time.perf_counter(), time.process_time()
    result = call()
    stages[f"{name}_wall_s"] = round(time.perf_counter() - wall, 3)
    stages[f"{name}_cpu_s"] = round(time.process_time() - cpu, 3)
    stages[f"{name}_minor_faults"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return result


def _score(model, matrices, datasets):
    """Each dataset's score lists, computed as ``sdgdetect predict`` computes them."""
    return [model.score_documents(matrices[ds.name], ds) for ds in datasets]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--docs", type=int, default=1500, help="documents per labeled dataset")
    parser.add_argument("--trees", type=int, default=300, help="trees per forest")
    parser.add_argument("--folds", type=int, default=5, help="cross-validation folds")
    parser.add_argument("--repetitions", type=int, default=10, help="permutations per feature")
    args = parser.parse_args(argv)
    if args.docs < workloads.N_SDGS:
        parser.error(f"--docs must be at least {workloads.N_SDGS}, one document per SDG")
    if args.repetitions < 1:
        parser.error("--repetitions must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        systems, labeled, synthetic = _inputs(args.docs, work)
        names = [s.name for s in systems]
        stages = {}
        matrices = _timed(
            stages, "detect_matrix",
            lambda: {ds.name: detect_matrix(ds, systems) for ds in labeled + synthetic},
        )
        features = _timed(
            stages, "build_features",
            lambda: build_features(matrices, names, labeled, synthetic, k=1.0),
        )
        params = ForestParams(num_trees=args.trees)
        cv = _timed(
            stages, "cross_validate",
            lambda: cross_validate(features, CvConfig(folds=args.folds, repeats=1), params),
        )
        model = _timed(stages, "train_model", lambda: train_model(features, names, 1.0, params))
        save_model(model, work / "model.json")
        model_bytes = (work / "model.json").read_bytes()
        importances = _timed(
            stages, "model_importance",
            lambda: model_importance(model, features, repetitions=args.repetitions),
        )
        predictions = _timed(
            stages, "predict", lambda: _score(model, matrices, labeled + synthetic)
        )
        tracemalloc.start()
        try:
            _score(model, matrices, labeled + synthetic)
            predict_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    result = {
        "docs": 2 * args.docs,
        "trees": args.trees,
        "folds": args.folds,
        "repetitions": args.repetitions,
        "rows": {sdg: len(f) for sdg, f in features.items()},
        "distinct_rows": {
            sdg: len(np.unique(np.column_stack((f.X, f.y)), axis=0)) for sdg, f in features.items()
        },
        **stages,
        "predict_tracemalloc_peak_mb": round(predict_peak / 2**20, 1),
        "cv_result_sha256": hashlib.sha256(repr(cv).encode()).hexdigest(),
        "model_json_sha256": hashlib.sha256(model_bytes).hexdigest(),
        "importance_sha256": hashlib.sha256(repr(importances).encode()).hexdigest(),
        "predictions_sha256": hashlib.sha256(repr(predictions).encode()).hexdigest(),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
