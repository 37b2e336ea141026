#!/usr/bin/env python3
"""Benchmark of the sdgdetect CLI: one workload per run, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload detect-heavy --seed 1 --seconds 30 --trace 0

Set-up generates the workload's inputs from ``demo/`` and the seed. The run
then repeats the workload's command chain through ``sdgdetect.cli.main`` in
this process, one command after another, for about ``--seconds`` seconds;
the first repetition is a warm-up that is checked but not timed. Each
metric is the median over the timed repetitions. With ``--trace 1`` every
other repetition is traced (see ``tracing.py``) and the per-layer metrics
are reported instead of the end-to-end ones.

Host speed: on a shared host the same code runs up to 1.7x slower from one
minute to the next. A fixed pure-Python reference loop therefore runs
before every command and after the last one, and every reported time is
the measured wall time scaled to a host on which that loop takes
``REF_NOMINAL_S``: a command's time by the loop times just before and
after it, ``reported = measured * REF_NOMINAL_S / mean(loop before, loop
after)``, and a per-layer time by the median loop time of its repetition.
The raw wall times and the loop times are in the report.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
``failed / attempted`` is the error rate. Workload properties, the host
record and the output digest go to the line before it, and everything per
repetition to ``.perfbench/reports/``. Metric names, units and workloads
are those of ``BENCHMARK.json``.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from bisect import bisect_left
from pathlib import Path
from time import perf_counter

import numpy

import checks
import tracing
import workloads

ROOT = Path.cwd()
SETUP_TRIALS = 5
HIT_CHECK_PAIRS = 6000  # sampled (document, query) pairs for the naive matcher
REF_LOOPS = 150_000
REF_NOMINAL_S = 0.02


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _reference_s() -> float:
    """Time of a fixed pure-Python loop: the host's speed right now."""
    start = perf_counter()
    counts = {}
    for i in range(REF_LOOPS):
        key = i & 1023
        counts[key] = counts.get(key, 0) + 1
    return perf_counter() - start


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _host_scale(reference_times: list[float]) -> float:
    """Factor from wall time here and now to wall time on the nominal host."""
    return REF_NOMINAL_S / _median(reference_times)


def _scaled_times(times: dict[str, float], refs: list[float]) -> dict[str, float]:
    """Each command's time scaled by the reference loops just before and after it."""
    return {c: t * _host_scale(refs[i : i + 2]) for i, (c, t) in enumerate(times.items())}


def _setup(spec, seed: int, work: Path) -> tuple[workloads.Inputs, list[float]]:
    """Interpreter imports plus generating and writing the inputs, several times."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    trials = []
    for _ in range(SETUP_TRIALS):
        before = _reference_s()
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import sdgdetect.cli"], cwd=ROOT, env=env, check=True)
        inputs = workloads.generate(spec, seed, ROOT / "demo")
        workloads.write_inputs(inputs, work, ROOT / "demo")
        elapsed = perf_counter() - start
        trials.append(elapsed * _host_scale([before, _reference_s()]))
    return inputs, trials


def _run_chain(cli, inputs: workloads.Inputs, work: Path, tracer=None) -> dict:
    """One repetition of the command chain; outputs land in ``work/out``."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    times, refs, problems, warnings = {}, [], [], 0
    if tracer is not None:
        tracer.install()
    try:
        for command, argv in inputs.chain:
            refs.append(_reference_s())
            span = tracer.span(f"cli.{command}") if tracer else contextlib.nullcontext()
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                start = perf_counter()
                with span:
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:
                        code = exc.code
                    except Exception:  # a crash is a failed operation, not the end of the run
                        code = traceback.format_exc()
                times[command] = perf_counter() - start
            warnings += err.getvalue().count("warning:")
            if code != 0:
                problems.append(f"{command} exited with {code!r}: {err.getvalue()[-500:]}")
        refs.append(_reference_s())
    finally:
        if tracer is not None:
            tracer.uninstall()
    scaled = _scaled_times(times, refs)
    return {
        "times": times,
        "scaled": scaled,
        "pipeline_s": sum(scaled.values()),
        "reference_s": refs,
        "scale": _host_scale(refs),
        "problems": problems,
        "warnings": warnings,
        "digest": checks.output_digest(out),
        "bytes_written": sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
        "traced": tracer is not None,
    }


def _properties(spec, seed: int, inputs: workloads.Inputs, work: Path, parse_query) -> dict:
    """What the workload exercises, from its inputs and its detect outputs."""
    terms = []
    queries = 0
    for path in checks.detect_system_paths(inputs):
        for row in checks.read_csv(work / path):
            queries += 1
            tracing.walk(
                parse_query(row["query"]),
                lambda n: terms.append(n) if hasattr(n, "wildcard") else None,
            )
    prefixes = {t.word for t in terms if t.wildcard}
    vocab = inputs.vocabulary
    words_per_prefix = [
        bisect_left(vocab, p[:-1] + chr(ord(p[-1]) + 1)) - bisect_left(vocab, p)
        for p in prefixes
    ]
    try:
        matrix = json.loads((work / "out" / "detect" / "matrix.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):  # detect failed; the checks report it
        matrix = {"systems": [], "datasets": {}}
    detect_docs = sum(len(inputs.datasets[n].docs) for n in inputs.detect_datasets)
    assigned = [a[1] for ds in matrix["datasets"].values() for a in ds["assignments"]]
    train = [inputs.datasets[n] for n in spec.train_datasets]
    synthetic = sum(len(ds.docs) for ds in train)  # one length-matched doc each, k = 1
    datasets = inputs.datasets.values()
    return {
        "seed": seed,
        "datasets": {ds.name: len(ds.docs) for ds in datasets},
        "docs": sum(len(ds.docs) for ds in datasets),
        "tokens": sum(len(d.tokens) for ds in datasets for d in ds.docs),
        "vocabulary": len(vocab),
        "systems": len(matrix["systems"]),
        "queries": queries,
        "wildcard_share": sum(t.wildcard for t in terms) / len(terms) if terms else 0.0,
        "vocabulary_words_per_wildcard_prefix": (
            sum(words_per_prefix) / len(words_per_prefix) if words_per_prefix else 0.0
        ),
        "sdgs_per_doc_per_system": {
            s: assigned.count(s) / detect_docs for s in matrix["systems"]
        },
        "feature_rows_per_sdg": [
            sum(1 for ds in train for d in ds.docs if d.evaluated is None or g in d.evaluated)
            + synthetic
            for g in range(1, workloads.N_SDGS + 1)
        ],
    }


def _check_outputs(inputs: workloads.Inputs, work: Path, seed: int, parse_query) -> dict:
    out = work / "out"
    found = {}
    for name, check in (
        ("hits", lambda: checks.check_hits(inputs, out, parse_query, seed, HIT_CHECK_PAIRS)),
        ("metrics", lambda: checks.check_metrics(inputs, out)),
        ("profiles", lambda: checks.check_profiles(inputs, out)),
        ("predictions", lambda: checks.check_predictions(inputs, out)),
        ("importance", lambda: checks.check_importance(inputs, out)),
    ):
        try:
            found[name] = check()
        except Exception:  # an unreadable output fails its check
            found[name] = [traceback.format_exc(limit=2)]
    return found


def _layer_value(name: str, summary: dict, rep: dict) -> float:
    if name == "systems.hit_ratio":
        pairs = summary.get("systems.doc_query_pairs", 0)
        return summary.get("systems.query_hits", 0) / pairs if pairs else 0.0
    if name == "bias.compute_s":
        return sum(summary.get(f"bias.{f}_s", 0.0) for f in tracing.BIAS_FUNCTIONS)
    if name == "cli.bytes_written":
        return rep["bytes_written"]
    return summary.get(name, 0)


def _layer_metrics(per_layer: list[dict], summaries: list[dict], tracers, reps: list[dict]) -> dict:
    """Medians over the traced repetitions; times scaled like the end-to-end ones."""
    traced = [r for r in reps if r["traced"]]
    values = {}
    for metric in per_layer:
        name, timed = metric["name"], metric["unit"] == "s"
        values[name] = _median([
            _layer_value(name, s, r) * (r["scale"] if timed else 1)
            for s, r in zip(summaries, traced)
        ])
    untraced = [r["pipeline_s"] for r in reps if not r["traced"]]
    values["trace.overhead_s"] = _median([r["pipeline_s"] for r in traced]) - _median(untraced)
    values["trace.missing_spans"] = len(tracers[0].missing) if tracers else 0
    return values


def _spans_add_up(summary: dict) -> bool:
    """Layer self times sum to the command spans, and each command has one span."""
    layer_total = sum(summary.get(f"{layer}.self_s", 0.0) for layer in tracing.LAYERS)
    one_span_each = all(summary.get(f"cli.{c}_calls") == 1 for c in workloads.COMMANDS)
    return one_span_each and abs(layer_total - summary.get("trace.root_s", 0.0)) <= 1e-6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        _fail(f"run from the repository root; cannot read BENCHMARK.json: {exc}")
    if args.workload not in workloads.SPECS:
        _fail(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "sdgdetect" / "cli.py").is_file() or not (ROOT / "demo").is_dir():
        _fail("src/sdgdetect and demo/ not found: run from the repository root")
    sys.path.insert(0, str(ROOT / "src"))
    import sdgdetect
    from sdgdetect import cli
    from sdgdetect.query import parse_query

    if Path(sdgdetect.__file__).resolve().parent != (ROOT / "src" / "sdgdetect").resolve():
        _fail(f"imported sdgdetect from {sdgdetect.__file__}, not from ./src")

    spec = workloads.SPECS[args.workload]
    work = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    reports = ROOT / ".perfbench" / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    try:
        inputs, setup_trials = _setup(spec, args.seed, work)
        os.chdir(work)  # the CLI sees relative paths only, so manifests do not depend on `work`
        start = perf_counter()
        reps, tracers = [_run_chain(cli, inputs, work)], []  # warm-up: checked, not timed
        while True:
            tracer = None
            if args.trace and len(reps) % 2 == 0:
                tracer = tracing.Tracer(args.workload)
                tracers.append(tracer)
            reps.append(_run_chain(cli, inputs, work, tracer))
            elapsed = perf_counter() - start
            typical = _median([r["pipeline_s"] for r in reps])
            if len(reps) > (4 if args.trace else 3) and elapsed + typical > args.seconds:
                break
        properties = _properties(spec, args.seed, inputs, work, parse_query)
        found = _check_outputs(inputs, work, args.seed, parse_query)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    # operations: every command run, every rerun's digest, every output check, every trace
    problems = [p for r in reps for p in r["problems"]]
    attempted = len(inputs.chain) * len(reps)
    failed = len(problems)
    for rep in reps[1:]:  # reruns of the same inputs must give byte-identical outputs
        attempted += 1
        if rep["digest"] != reps[0]["digest"]:
            failed += 1
            problems.append("output digest differs between repetitions")
    for found_problems in found.values():
        attempted += 1
        failed += bool(found_problems)
        problems += found_problems
    summaries = [tracing.summarize(t) for t in tracers]
    for summary in summaries:
        attempted += 1
        if not _spans_add_up(summary):
            failed += 1
            problems.append("traced spans do not add up to the command times")

    timed = reps[1:]
    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = _layer_metrics(bench["per_layer"], summaries, tracers, timed)
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        untraced = [r for r in timed if not r["traced"]]
        values = {
            f"{c}_s": _median([r["scaled"][c] for r in untraced]) for c in workloads.COMMANDS
        }
        values["pipeline_s"] = _median([r["pipeline_s"] for r in untraced])
        values["setup_s"] = _median(setup_trials)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    missing = sorted(set(units) - set(values))
    if missing:
        _fail(f"metrics listed in BENCHMARK.json but not measured: {missing}")

    refs = [x for r in reps for x in r["reference_s"]]
    host = {
        "reference_loop_s": {"median": _median(refs), "min": min(refs), "max": max(refs)},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "properties": properties,
        "host": host,
        "output_sha256": reps[0]["digest"],
        "repetitions": len(timed),
        "error_rate": failed / attempted,
        "problems": problems,
        "missing_spans": tracers[0].missing if tracers else [],
        "setup_trials_s": setup_trials,
        "reps": [
            {k: r[k] for k in ("times", "scaled", "reference_s", "traced", "digest", "warnings")}
            for r in reps
        ],
        "metrics": {k: values[k] for k in units},
    }
    stem = f"{args.workload}-seed{args.seed}"
    (reports / f"{stem}-trace{args.trace}.json").write_text(json.dumps(report, indent=2) + "\n")
    if tracers:  # the last traced repetition; one chain is tens of thousands of spans
        with open(reports / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for name, begin, end, parent, workload in tracers[-1].spans:
                record = {"name": name, "start": begin, "end": end, "parent": parent,
                          "workload": workload}
                fh.write(json.dumps(record) + "\n")
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    keys = ("workload", "properties", "host", "output_sha256", "repetitions", "error_rate")
    print(json.dumps({k: report[k] for k in keys}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
