"""The seven-command demo pipeline against fixed output digests.

``tests/data/golden_demo_sha256.json`` maps each output path, relative to
the run's ``out/`` directory, to the sha256 of its bytes. The commands are
CI's demo commands with ``--json``, run from a copy of ``demo/`` with
relative paths, so the manifests hold no machine-specific path.

To regenerate the digests after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden_demo.py > tests/data/golden_demo_sha256.json``.
"""

import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

from sdgdetect.cli import main

DEMO = Path(__file__).parent.parent / "demo"
GOLDEN = Path(__file__).parent / "data" / "golden_demo_sha256.json"

SYSTEMS = ["--systems", "system_alpha.csv", "--systems", "system_beta.csv",
           "--systems", "system_gamma.csv"]
COMMANDS = [
    ["detect", "--dataset", "corpus.jsonl", *SYSTEMS, "--out-dir", "out/detect"],
    ["evaluate", "--dataset", "corpus.jsonl", "--matrix", "out/detect/matrix.json",
     "--out-dir", "out/evaluate"],
    ["bias", "--dataset", "corpus.jsonl", "--matrix", "out/detect/matrix.json",
     "--out-dir", "out/bias"],
    ["synth", "--freq-table", "wordfreq.tsv", "--lengths", "10,100", "--docs-per-length", "50",
     "--out-dir", "out/synth"],
    ["train", "--dataset", "corpus.jsonl", *SYSTEMS, "--freq-table", "wordfreq.tsv",
     "--k-grid", "0,1,5", "--trees", "20", "--folds", "3", "--repeats", "1",
     "--out-dir", "out/train"],
    ["predict", "--model", "out/train/model.json", "--dataset", "corpus.jsonl", *SYSTEMS,
     "--out-dir", "out/predict"],
    ["importance", "--model", "out/train/model.json", "--dataset", "corpus.jsonl", *SYSTEMS,
     "--freq-table", "wordfreq.tsv", "--repetitions", "3", "--out-dir", "out/importance"],
]


def run_pipeline(root: Path) -> dict[str, str]:
    """Run the demo pipeline in a copy of ``demo/`` at ``root``; the digest of every output."""
    shutil.copytree(DEMO, root)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in COMMANDS:
            assert main([*argv, "--json"]) == 0, argv[0]
    finally:
        os.chdir(cwd)
    out = root / "out"
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def test_demo_pipeline_matches_golden_digests(tmp_path):
    got = run_pipeline(tmp_path / "demo")
    want = json.loads(GOLDEN.read_text())
    assert sorted(got) == sorted(want)
    assert [name for name in sorted(want) if got[name] != want[name]] == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = run_pipeline(Path(tmp) / "demo")
    sys.stdout.write(json.dumps(digests, sort_keys=True, indent=2) + "\n")
