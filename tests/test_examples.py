"""Every script in ``examples/`` runs to completion at a small scale.

Each runs in its own interpreter, as a user runs it, with ``src/`` on
the path; only the exit code is checked.
"""

import os
import subprocess
import sys

import pytest

from repro.experiments import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_example(name: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", name), *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "name, args",
    [
        ("quickstart.py", ()),
        ("contention_study.py", ("4",)),
        ("diurnal_study.py", ("4",)),
        ("incast_loss_study.py", ()),
        ("alpha_tuning_study.py", ()),
    ],
)
def test_example_exits_cleanly(name, args):
    result = run_example(name, *args)
    assert result.returncode == 0, result.stderr


def test_released_data_pipeline_exits_cleanly(tmp_path, capsys):
    """On an exported directory: without one the example exports 6 x 3
    rack runs of its own."""
    directory = str(tmp_path / "msdata")
    assert cli.main(["export", directory, "--racks", "1", "--runs-per-rack", "1"]) == 0
    capsys.readouterr()
    result = run_example("released_data_pipeline.py", directory)
    assert result.returncode == 0, result.stderr
