#!/usr/bin/env python3
"""Digest the stdout of a fixed matrix of 204 CLI commands and 2 script runs.

    python3 scripts/cli_digest.py [CHECKOUT] > digest.txt

Each command runs cold as ``python -m bertrand_lab`` with ``PYTHONPATH`` set
to ``CHECKOUT/src`` (by default the checkout holding this script) and prints
one line, ``sha256-of-stdout  exit-code  argv``, in a fixed order (``argv``
shell-quoted, with newlines and non-ASCII characters backslash-escaped).  The
last two lines run ``CHECKOUT/scripts/rational_uniform_limit.py`` the same
way, for both families at its default arguments, which covers ``cdf_grid``:
no CLI command reaches it.  Running it on two checkouts and diffing the
outputs shows whether a change moved any output byte or exit code.  Standard
library only.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SEEDS = ("7311", "7312", "7313")
LAWS = (
    "geometric:0.5",
    "geometric:0.001",
    "geometric:1e-4",
    "geometric:1e-5",
    "poisson:4",
    "poisson:10000",
    "poisson:100000",
    "degenerate:7",
    "custom:2=0.5,3=0.25,7=0.25",
)
SAMPLE_LAWS = ("geometric:0.5", "geometric:0.001", "poisson:4", "degenerate:7")
# script runs, as argv after the interpreter, relative to the checkout
SCRIPTS = (
    ["scripts/rational_uniform_limit.py"],
    ["scripts/rational_uniform_limit.py", "--family", "poisson"],
)
# law texts that CSV must quote (comma), the CLI must refuse (newline) or JSON
# must escape (non-ASCII digit)
ENCODING_LAWS = ("custom:1=0.5,3=0.5", "custom:1=1\n", "custom:\u0661=1")


def commands() -> list[list[str]]:
    out: list[list[str]] = []
    for family in ("bertrand", "buffon"):
        for seed in SEEDS:
            for shards in ("1", "2"):
                for fmt in ("csv", "json"):
                    out.append([family, "--seed", seed, "--shards", shards, "--format", fmt])
    for family, models in (
        ("bertrand", ("midpoint", "tangent", "polar")),
        ("buffon", ("center-angle", "endpoints")),
    ):
        for model in models:
            for seed in ("0", str(2**64 - 1)):
                out.append([family, "--model", model, "--seed", seed])
            out.append([family, "--model", model, "--samples", "65537"])
    # many batches per worker, so per-thread batch state is reused across batches
    for family, model in (("bertrand", "midpoint"), ("buffon", "center-angle")):
        for shards in ("1", "2"):
            out.append([family, "--model", model, "--samples", "1000000", "--shards", shards])
    out += [
        ["bertrand", "--pushforward"],
        ["bertrand", "--pushforward", "--format", "json"],
        ["squares"],
        ["squares", "--threshold", "25"],
        ["squares", "--threshold", "0"],
        ["squares", "--threshold", "100"],
        ["squares", "--finite", "100"],
        ["squares", "--finite", "7", "--threshold", "3"],
        ["squares", "--finite", "100", "--format", "json"],
        # counting rows of none and of all, still printed as fractions
        ["squares", "--finite", "3", "--threshold", "100"],
        ["squares", "--finite", "3", "--threshold", "0", "--format", "json"],
    ]
    for law in LAWS:
        for fmt in ("csv", "json"):
            out += [
                ["rationals", "atom", "--q", "1/2", "--law", law, "--format", fmt],
                ["rationals", "cdf", "--x", "0.37", "--law", law, "--format", fmt],
                ["rationals", "interval", "--a", "0.2", "--b", "0.7", "--law", law, "--format", fmt],
            ]
        out += [
            ["rationals", "atom", "--q", "3/7", "--law", law],
            ["rationals", "cdf", "--x", "0.7", "--law", law],
        ]
    for law in SAMPLE_LAWS:
        for seed in SEEDS[:2]:
            out.append(["rationals", "sample", "--law", law, "--seed", seed])
        out.append(["rationals", "sample", "--law", law, "--samples", "1000", "--format", "json"])
    out += [
        ["rationals", "sample", "--law", "geometric:0.001", "--samples", "1000000"],
        ["rationals", "sample", "--law", "geometric:0.001", "--samples", "200000", "--format", "json"],
        ["rationals", "sample", "--law", "geometric:1e-4", "--samples", "300000", "--format", "json"],
    ]
    # a law text that CSV must quote, on four rows and on more rows than one rendered block
    for law in ("custom:1=0.5,3=0.5", "custom:1=0.5,199999=0.5"):
        for fmt in ("csv", "json"):
            out.append(["rationals", "sample", "--law", law, "--samples", "300000", "--format", fmt])
    for law in ENCODING_LAWS:
        for fmt in ("csv", "json"):
            out += [
                ["rationals", "sample", "--law", law, "--samples", "20", "--seed", "7", "--format", fmt],
                ["rationals", "atom", "--q", "1/2", "--law", law, "--format", fmt],
            ]
    out += [
        ["rationals", "converge"],
        ["rationals", "converge", "--ks", "10,100,1000,10000,100000"],
        ["rationals", "converge", "--family", "poisson"],
        ["rationals", "converge", "--family", "poisson", "--ks", "10,100,1000", "--format", "json"],
        ["rationals", "converge", "--probe", "0.2,0.7"],
        ["rationals", "converge", "--format", "json"],
    ]
    out += [
        ["bertrand", "--samples", "0"],
        # a shard count that does not divide the sample count
        ["bertrand", "--samples", "1000", "--shards", "3"],
        ["buffon", "--samples", "1000", "--shards", "3"],
        ["buffon", "--samples", "999"],
        ["squares", "--threshold", "101"],
        ["squares", "--finite", "0"],
        ["rationals", "atom", "--q", "1/0", "--law", "geometric:0.5"],
        ["rationals", "cdf", "--x", "0.5", "--law", "bogus:1"],
        ["rationals", "cdf", "--x", "nan", "--law", "geometric:0.5"],
        ["rationals", "sample", "--law", "geometric:1e-10", "--samples", "5"],
        ["rationals", "sample", "--law", "geometric:1e-300", "--samples", "2"],
        ["rationals", "converge", "--ks", "a"],
        ["rationals", "atom", "--q", "1/2", "--law", "poisson:1e300"],
        ["rationals", "cdf", "--x", "0.3", "--law", "poisson:1e300"],
        ["rationals", "atom", "--q", "1/2", "--law", "geometric:5e-324"],
        ["rationals", "interval", "--a", "0", "--b", "0.5", "--law", "geometric:1e-300"],
        ["rationals", "atom", "--q", "1/2", "--law", "degenerate:99999999999999999999"],
        ["rationals", "sample", "--law", "degenerate:99999999999999999999", "--samples", "2"],
        ["rationals", "atom", "--q", "1/2", "--law", "custom:99999999999999999999=1"],
        ["rationals", "atom", "--q", "1/2", "--law", "custom:1=1\r"],
        # a custom denominator given twice
        ["rationals", "atom", "--q", "1/2", "--law", "custom:2=1,2=1"],
        ["rationals", "atom", "--q", "1/2", "--law", "custom:2=0.5,2=0.5"],
        ["rationals", "atom", "--q", "1/2", "--law", "poisson:inf"],
        # law parameters that overflow a float along the way
        ["rationals", "atom", "--q", "1/2", "--law", "poisson:1e307"],
        ["rationals", "converge", "--ks", f"2,{10**309}"],
        ["rationals", "converge", "--family", "poisson", "--ks", f"1,{10**309}"],
        ["rationals", "converge", "--ks", "1"],
        # a tol outside (0, 1) certifies nothing and is refused
        ["rationals", "cdf", "--x", "0.5", "--law", "geometric:0.5", "--tol", "inf"],
        ["rationals", "atom", "--q", "1/2", "--law", "poisson:4", "--tol", "5"],
        ["rationals", "interval", "--a", "0.2", "--b", "0.7", "--law", "degenerate:7", "--tol", "1"],
        ["rationals", "converge", "--tol", "1"],
        # an --out that cannot be opened
        ["squares", "--out", "/dev/null/x.csv"],
        ["rationals", "cdf", "--x", "0.5", "--law", "geometric:0.5", "--out", "/dev/null/x.csv"],
    ]
    # a negative seed runs, and is echoed, as its residue modulo 2**64
    for seed in ("-1", str(2**64 - 1)):
        out.append(["rationals", "sample", "--law", "geometric:0.5", "--seed", seed])
    out += [
        ["bertrand", "--model", "polar", "--seed", "-1"],
        ["buffon", "--model", "endpoints", "--seed", "-1"],
    ]
    # both routes of an atom: at geometric:1e-5, L = 2,302,574 and 1517**2 <= L < 1518**2;
    # the filter where the series is long (geometric:1e-7, L = 230,258,498) or the mean large
    out += [
        ["rationals", "atom", "--q", "1/1517", "--law", "geometric:1e-5"],
        ["rationals", "atom", "--q", "1/1518", "--law", "geometric:1e-5"],
        ["rationals", "atom", "--q", "1/2", "--law", "geometric:1e-7"],
        ["rationals", "atom", "--q", "3/7", "--law", "poisson:1000000"],
    ]
    return out


def digest(checkout: Path, argv: list[str], script: bool = False) -> str:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env.pop("BERTRAND_LAB_SEED", None)
    head = [str(checkout / argv[0])] if script else ["-m", "bertrand_lab", argv[0]]
    proc = subprocess.run([sys.executable, *head, *argv[1:]], env=env, capture_output=True)
    shown = shlex.join(argv).encode("unicode_escape").decode("ascii")
    return f"{hashlib.sha256(proc.stdout).hexdigest()}  {proc.returncode}  {shown}"


def main() -> int:
    checkout = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    checkout = checkout.resolve()
    if not (checkout / "src" / "bertrand_lab").is_dir():
        print(f"no src/bertrand_lab under {checkout}", file=sys.stderr)
        return 2
    runs = [(argv, False) for argv in commands()] + [(argv, True) for argv in SCRIPTS]
    with ThreadPoolExecutor(max_workers=2) as pool:
        for line in pool.map(lambda run: digest(checkout, *run), runs):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
