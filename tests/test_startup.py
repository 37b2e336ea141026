"""What a fresh process imports: detect, evaluate, bias, --help, --version and
usage errors run without numpy, and the commands that need it load it on
dispatch, through names that a caller may replace on ``cli`` beforehand.
What a module exports: every name in its ``__all__``."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sdgdetect

DEMO = Path(__file__).parent.parent / "demo"
SRC = str(Path(sdgdetect.__file__).resolve().parent.parent)

# Runs argv lists through cli.main in this order; sys.argv: demo dir, output dir.
PRELUDE = """
import sys
from sdgdetect import cli

demo, out = sys.argv[1:]
corpus, matrix = f"{demo}/corpus.jsonl", f"{out}/detect/matrix.json"
systems = [a for n in ("alpha", "beta", "gamma") for a in ("--systems", f"{demo}/system_{n}.csv")]
train = ["train", "--dataset", corpus, *systems, "--freq-table", f"{demo}/wordfreq.tsv",
         "--trees", "2", "--folds", "2", "--repeats", "1", "--out-dir", f"{out}/train"]


def run(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # --help, --version and usage errors
        return exc.code
"""


def _python(script: str, tmp_path: Path) -> None:
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", PRELUDE + script, str(DEMO), str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_numpy_loads_only_for_the_commands_that_use_it(tmp_path):
    _python(
        """
assert "numpy" not in sys.modules
for argv, code in [
    (["detect", "--dataset", corpus, *systems, "--out-dir", f"{out}/detect"], 0),
    (["evaluate", "--dataset", corpus, "--matrix", matrix, "--out-dir", f"{out}/evaluate"], 0),
    (["bias", "--dataset", corpus, "--matrix", matrix, "--out-dir", f"{out}/bias"], 0),
    (["--help"], 0),
    (["--version"], 0),
    (["evaluate", "--dataset", corpus], 2),
]:
    assert run(argv) == code, argv
    assert "numpy" not in sys.modules, argv
assert run(train) == 0
assert "numpy" in sys.modules
from sdgdetect import ensemble
assert cli.train_model is ensemble.train_model
""",
        tmp_path,
    )


def test_a_name_set_on_cli_before_the_import_is_the_one_called(tmp_path):
    """The benchmark's tracer and monkeypatch replace names on ``cli``; one set
    before numpy is loaded must survive the import and be called."""
    _python(
        """
calls = []


def wrapper(*args, **kwargs):
    calls.append(args)
    from sdgdetect.ensemble import train_model
    return train_model(*args, **kwargs)


cli.train_model = wrapper
assert "numpy" not in sys.modules
assert run(train) == 0
assert "numpy" in sys.modules
assert cli.train_model is wrapper and len(calls) == 1
""",
        tmp_path,
    )


@pytest.mark.parametrize("module", [m.name for m in pkgutil.iter_modules(sdgdetect.__path__)])
def test_every_name_in_all_exists(module):
    module = importlib.import_module(f"sdgdetect.{module}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
