"""Timing spans around the package's public functions, for the traced run.

The tracer patches, for the duration of one traced repetition, every
library function that ``sdgdetect.cli`` imports (in the ``cli`` module's
namespace only), plus four names that the library calls internally:
``PredictionMatrix.predicted``, ``EnsembleModel.predict_document``,
``ensemble.train_forest`` and ``ensemble.forest_score``. Each call is a
span ``[name, start, end, parent, workload]`` kept in memory; the runner
wraps each ``cli.main`` call in a ``cli.<command>`` span, so every span
has a command as its root. A wrapped name that no longer exists is
reported as missing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

BIAS_FUNCTIONS = ("bias", "profile", "profile_bias", "profile_fidelity")
LAYERS = ("corpus", "query", "systems", "evaluation", "bias", "synthgen", "ensemble", "cli")

# span name -> names the cli module imports it under
CLI_IMPORTS = {
    "bias.bias": "bias_vector",
    "bias.profile": "profile",
    "bias.profile_bias": "profile_bias",
    "bias.profile_fidelity": "profile_fidelity",
    "corpus.load_documents": "load_documents",
    "corpus.save_documents": "save_documents",
    "ensemble.build_features": "build_features",
    "ensemble.cross_validate": "cross_validate",
    "ensemble.feature_names_for": "feature_names_for",
    "ensemble.load_model": "load_model",
    "ensemble.model_importance": "model_importance",
    "ensemble.save_model": "save_model",
    "ensemble.train_model": "train_model",
    "evaluation.confusion": "confusion",
    "evaluation.metrics": "metrics",
    "evaluation.roc_point": "roc_point",
    "evaluation.sdgs_per_document": "sdgs_per_document",
    "synthgen.generate_documents": "generate_documents",
    "synthgen.generate_matched": "generate_matched",
    "synthgen.load_frequency_table": "load_frequency_table",
    "systems.detect": "detect",
    "systems.import_external": "import_external_predictions",
    "systems.keyword_frequencies": "keyword_frequencies",
    "query.load_system": "load_system",  # parses every query: the query layer's entry
    "systems.to_matrix": "to_matrix",
}

# span name -> (module, attribute path) patched where the library looks it up
INTERNAL = {
    "systems.predicted": ("sdgdetect.systems", "PredictionMatrix.predicted"),
    "ensemble.predict_document": ("sdgdetect.ensemble", "EnsembleModel.predict_document"),
    "ensemble.train_forest": ("sdgdetect.ensemble", "train_forest"),
    "ensemble.forest_score": ("sdgdetect.ensemble", "forest_score"),
}


def walk(node, visit) -> None:
    """Depth-first over query ASTs and trees, whatever their node classes."""
    visit(node)
    for attr in ("children", "words"):
        for child in getattr(node, attr, ()):
            walk(child, visit)
    for attr in ("child", "left", "right"):
        child = getattr(node, attr, None)
        if child is not None:
            walk(child, visit)


def _count_nodes(root, test) -> int:
    found = []
    walk(root, lambda n: found.append(1) if test(n) else None)
    return len(found)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# Counts recorded when a span ends: (counters, args, kwargs, result) -> None.
def _count_documents(c, a, kw, ds):
    c["corpus.docs"] += len(ds.documents)
    c["corpus.tokens"] += sum(d.word_count for d in ds.documents)


def _count_system(c, a, kw, system):
    c["query.queries"] += len(system.entries)
    c["query.wildcard_literals"] += sum(
        _count_nodes(e.query, lambda n: getattr(n, "wildcard", False)) for e in system.entries
    )


def _count_detect(c, a, kw, hits):
    dataset, systems = _arg(a, kw, 0, "dataset"), _arg(a, kw, 1, "systems")
    c["systems.doc_query_pairs"] += len(dataset.documents) * sum(len(s.entries) for s in systems)
    c["systems.query_hits"] += len(hits)


def _count_model(c, a, kw, model):
    c["ensemble.tree_nodes"] += sum(
        _count_nodes(t, lambda n: True) for f in model.forests.values() for t in f.trees
    )


def _count_saved(c, a, kw, _):
    c["ensemble.model_bytes"] += os.path.getsize(_arg(a, kw, 1, "path"))


COUNTERS = {
    "corpus.load_documents": _count_documents,
    "query.load_system": _count_system,
    "systems.detect": _count_detect,
    "systems.to_matrix": lambda c, a, kw, m: c.update({"systems.assignments": len(m.assignments)}),
    "synthgen.generate_matched": lambda c, a, kw, ds: c.update(
        {"synthgen.tokens": sum(d.word_count for d in ds.documents)}
    ),
    "ensemble.build_features": lambda c, a, kw, rows: c.update(
        {"ensemble.rows": sum(len(r) for r in rows.values())}
    ),
    "ensemble.cross_validate": lambda c, a, kw, cv: c.update(
        {"ensemble.cv_skipped_folds": len(cv.skipped)}
    ),
    "ensemble.train_model": _count_model,
    "ensemble.save_model": _count_saved,
}


class Tracer:
    """Spans and counts of one traced repetition."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []  # [name, start, end, parent index or -1, workload]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.workload]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        spans, stack, workload = self.spans, self._stack, self.workload

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, workload]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str) -> None:
        original = inspect.getattr_static(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, getattr(owner, attr)))

    def install(self) -> None:
        cli = importlib.import_module("sdgdetect.cli")
        for name, attr in CLI_IMPORTS.items():
            if inspect.isfunction(getattr(cli, attr, None)):
                self._patch(cli, attr, name)
            else:
                self.missing.append(name)
        known = set(CLI_IMPORTS.values())
        for attr, value in sorted(vars(cli).items()):
            module = getattr(value, "__module__", "") or ""
            if (
                attr not in known
                and inspect.isfunction(value)
                and module.startswith("sdgdetect.")
                and module != "sdgdetect.cli"
            ):  # library functions the cli imports that the list above does not name
                self._patch(cli, attr, f"{module.split('.')[1]}.{value.__name__}")
        for name, (module_name, path) in INTERNAL.items():
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for p in parents:
                    owner = getattr(owner, p)
                getattr(owner, attr)
            except AttributeError:
                self.missing.append(name)
                continue
            self._patch(owner, attr, name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(tracer: Tracer) -> dict[str, float]:
    """Inclusive time and call count per span name, self time per layer."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Counter = Counter()
    for i, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        self_time = duration - child_time[i]
        out[f"{name}_s"] += duration
        out[f"{name}_calls"] += 1
        out[f"{layer_of(name)}.self_s"] += self_time
        if layer_of(name) == "cli":
            out[f"{name}.self_s"] += self_time
        if parent < 0:
            out["trace.root_s"] += duration
    out.update(tracer.counts)
    return dict(out)
