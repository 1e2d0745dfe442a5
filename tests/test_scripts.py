"""The scripts in ``scripts/`` run to completion and report no violated bound."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import src_env

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ["headline_numbers.py", "--samples", "10000", "--pi-samples", "100000"],
        ["rational_uniform_limit.py", "--ks", "10,100", "--grid", "50"],
        ["rational_uniform_limit.py", "--ks", "10,100", "--grid", "50", "--family", "poisson"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_script_runs_clean(argv):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert "VIOLATED" not in proc.stdout


@pytest.mark.parametrize(
    "args, named",
    [
        (["--grid", "0"], "--grid must be at least 1"),
        (["--grid", "-3"], "--grid must be at least 1"),
        (["--ks", "100,10"], "strictly increasing"),
        (["--ks", "10,10"], "strictly increasing"),
        (["--ks", "10,1e3"], "--ks must be integers"),
        (["--ks", "1"], "k must be >= 2"),
        (["--probe", "0.5,0.2"], "probe must satisfy"),
        (["--probe", "0.5"], "--probe must be two numbers"),
        (["--probe", "0,0.5,1"], "--probe must be two numbers"),
        (["--probe", "0,x"], "--probe must be two numbers"),
        (["--probe", "nan,0.5"], "probe must satisfy"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_uniform_limit_refuses_bad_arguments_by_name(args, named):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "rational_uniform_limit.py"), "--ks", "10,100", *args],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert named in proc.stderr and "Traceback" not in proc.stderr


def test_digest_docstring_counts_its_commands():
    spec = importlib.util.spec_from_file_location("cli_digest", SCRIPTS / "cli_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    stated = re.search(r"(\d+) CLI commands", digest.__doc__)
    assert int(stated.group(1)) == len(digest.commands())
