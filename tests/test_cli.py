import csv
import io
import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from argparse import Namespace
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bertrand_lab.cli import (
    _CHUNK_ROWS, DEFAULT_SEED, SEED_ENV_VAR, Lookup, _emit, _emit_blocks, _parse_law, build_parser, main,
)
from bertrand_lab.montecarlo import stream_generator
from bertrand_lab.rationals import sample_rational_batch


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH, for subprocesses."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


class TestBertrandCommand:
    def test_all_models_schema_and_exacts(self, capsys):
        code, out, _ = run_cli(
            ["bertrand", "--model", "all", "--samples", "20000", "--seed", "42"], capsys
        )
        assert code == 0
        rows = parse_csv(out)
        assert [r["model"] for r in rows] == [
            "midpoint_uniform",
            "tangent_angle_uniform",
            "polar_uniform",
        ]
        assert [r["exact_p"] for r in rows] == ["0.25", "0.333333333", "0.5"]
        for r in rows:
            assert r["n"] == "20000"
            assert r["seed"] == "42"
            assert float(r["ci_low"]) <= float(r["p_hat"]) <= float(r["ci_high"])

    def test_pushforward_row(self, capsys):
        code, out, _ = run_cli(
            ["bertrand", "--model", "polar", "--samples", "1000", "--pushforward"], capsys
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[-1]["model"] == "midpoint_to_polar_pushforward"
        assert abs(float(rows[-1]["exact_p"]) - 0.25) <= 1e-9
        assert rows[-1]["p_hat"] == ""

    def test_zero_samples_is_a_config_error(self, capsys):
        code, _, err = run_cli(["bertrand", "--samples", "0"], capsys)
        assert code == 2
        assert "samples" in err

    def test_unknown_model_is_a_config_error(self, capsys):
        code, _, _ = run_cli(["bertrand", "--model", "diagonal"], capsys)
        assert code == 2

    def test_shards_need_not_divide_the_sample_count(self, capsys):
        # shards hand out whole batches, so any count gives the one-shard bytes
        for family in ("bertrand", "buffon"):
            one = run_cli([family, "--samples", "1000", "--shards", "1"], capsys)
            three = run_cli([family, "--samples", "1000", "--shards", "3"], capsys)
            assert three == one
            assert one[0] == 0


class TestBuffonCommand:
    def test_schema_and_pi_estimates(self, capsys):
        code, out, _ = run_cli(["buffon", "--samples", "100000", "--seed", "42"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert [r["model"] for r in rows] == ["center_angle", "endpoints"]
        assert float(rows[0]["exact_p"]) == pytest.approx(2.0 / math.pi, abs=1e-8)
        assert float(rows[1]["exact_p"]) == 0.5
        assert float(rows[0]["pi_estimate"]) == pytest.approx(math.pi, abs=0.05)
        assert float(rows[1]["pi_estimate"]) == pytest.approx(4.0, abs=0.05)

    def test_too_few_samples_rejected(self, capsys):
        code, _, _ = run_cli(["buffon", "--samples", "10"], capsys)
        assert code == 2


class TestSquaresCommand:
    def test_default_run_shows_the_paradox(self, capsys):
        code, out, _ = run_cli(["squares"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert [(r["model"], r["probability"]) for r in rows] == [
            ("uniform_x", "0.5"),
            ("naive_uniform_square", "0.75"),
            ("pushforward_square", "0.5"),
        ]
        assert [r["threshold"] for r in rows] == ["50", "2500", "2500"]

    def test_finite_counting_appends_exact_fractions(self, capsys):
        code, out, _ = run_cli(["squares", "--finite", "100", "--threshold", "50"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert rows[-2]["model"] == "counting_plain"
        assert rows[-2]["probability"] == "1/2"
        assert rows[-1]["model"] == "counting_squared"
        assert rows[-1]["probability"] == "1/2"
        assert rows[-1]["threshold"] == "2500"

    @pytest.mark.parametrize("threshold, exact", [("100", "0/1"), ("0", "1/1")])
    def test_finite_counting_of_none_or_all_prints_a_fraction(self, threshold, exact, capsys):
        argv = ["squares", "--finite", "3", "--threshold", threshold]
        _, csv_out, _ = run_cli(argv, capsys)
        _, json_out, _ = run_cli(argv + ["--format", "json"], capsys)
        for rows in (parse_csv(csv_out), json.loads(json_out)["rows"]):
            assert [r["probability"] for r in rows[-2:]] == [exact, exact]

    def test_out_of_range_threshold(self, capsys):
        code, _, _ = run_cli(["squares", "--threshold", "200"], capsys)
        assert code == 2

    def test_fractional_threshold_rejected_for_counting(self, capsys):
        code, _, _ = run_cli(["squares", "--finite", "100", "--threshold", "50.5"], capsys)
        assert code == 2


class TestRationalsCommand:
    def test_atom_value(self, capsys):
        code, out, _ = run_cli(
            ["rationals", "atom", "--q", "1/2", "--law", "geometric:0.5"], capsys
        )
        assert code == 0
        rows = parse_csv(out)
        closed = 2.0 * (math.atanh(0.5) - 0.5)
        assert abs(float(rows[0]["probability"]) - closed) <= 1e-9
        assert rows[0]["q"] == "1/2"

    def test_atom_canonicalizes_input(self, capsys):
        code, out, _ = run_cli(
            ["rationals", "atom", "--q", "3/6", "--law", "degenerate:2"], capsys
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["q"] == "1/2"
        assert float(rows[0]["probability"]) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_cdf_value(self, capsys):
        code, out, _ = run_cli(
            ["rationals", "cdf", "--x", "0.6", "--law", "degenerate:2"], capsys
        )
        assert code == 0
        rows = parse_csv(out)
        assert float(rows[0]["value"]) == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_interval_misordered_bounds(self, capsys):
        code, _, _ = run_cli(
            ["rationals", "interval", "--a", "0.5", "--b", "0.25", "--law", "degenerate:2"],
            capsys,
        )
        assert code == 2

    def test_sample_emits_sorted_atoms(self, capsys):
        code, out, _ = run_cli(
            ["rationals", "sample", "--law", "degenerate:2", "--samples", "3000", "--seed", "7"],
            capsys,
        )
        assert code == 0
        rows = parse_csv(out)
        assert [r["q"] for r in rows] == ["0/1", "1/1", "1/2"]
        assert sum(int(r["count"]) for r in rows) == 3000

    def test_sample_rejects_denominators_too_large_to_tabulate(self, capsys):
        # (den, num) pairs are packed into int64 codes; a denominator near
        # 1e10 would overflow them and print negative "rationals"
        code, out, err = run_cli(
            ["rationals", "sample", "--law", "geometric:1e-10", "--samples", "5"], capsys
        )
        assert code == 2
        assert out == ""
        assert "denominator" in err

    def test_sample_tabulates_large_denominators_exactly(self, capsys):
        code, out, _ = run_cli(
            ["rationals", "sample", "--law", "geometric:1e-8", "--samples", "5", "--seed", "3"],
            capsys,
        )
        assert code == 0
        rows = parse_csv(out)
        for r in rows:
            n, m = (int(part) for part in r["q"].split("/"))
            assert 0 <= n <= m and math.gcd(n, m) == 1
        assert sum(int(r["count"]) for r in rows) == 5

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n", [1, 2, 100_000])
    @pytest.mark.parametrize("law", [
        "degenerate:1", "degenerate:2", "custom:2=0.5,3=0.25,7=0.25", "poisson:4", "geometric:0.001",
    ])
    def test_sample_rows_count_the_draws(self, law, n, fmt, capsys):
        seed = 5
        code, out, _ = run_cli(
            ["rationals", "sample", "--law", law, "--samples", str(n), "--seed", str(seed), "--format", fmt],
            capsys,
        )
        assert code == 0
        nums, dens = sample_rational_batch(_parse_law(law), stream_generator(seed, 0), n)
        counted = sorted(Counter(zip(dens.tolist(), nums.tolist())).items())
        expected = [
            {"law": law, "q": f"{num}/{den}", "count": count, "frequency": format(count / n, ".9g"),
             "n": n, "seed": seed}
            for (den, num), count in counted
        ]
        if fmt == "csv":
            rows = parse_csv(out)
            expected = [{name: str(value) for name, value in row.items()} for row in expected]
        else:
            rows = json.loads(out)["rows"]
            for row in expected:
                row["frequency"] = float(row["frequency"])
        assert rows == expected
        if law == "geometric:0.001" and n == 100_000:
            assert len(rows) > 2 * _CHUNK_ROWS  # three blocks

    @staticmethod
    def sample_peak(law, n, fmt, out):
        """The tracemalloc peak of one ``rationals sample`` command written to ``out``."""
        argv = ["rationals", "sample", "--law", law, "--samples", str(n),
                "--seed", "5", "--format", fmt, "--out", str(out)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sample_memory_holds_no_second_copy_of_the_draws(self, fmt, tmp_path):
        # the codes (8 MB at 1e6 draws) and the run starts set the CSV peak, 15.1 MiB, and the
        # renderer's blocks the JSON peak, 27.3 MiB; the bounds keep the 3.2 and 2.7 MiB margins
        # they had over the peaks when the draws, numerators and gcd were three 8 MB arrays
        peak = self.sample_peak("geometric:0.001", 1_000_000, fmt, tmp_path / "table")
        assert peak < {"csv": 18.3, "json": 30.0}[fmt] * 2**20

    def test_sample_memory_is_one_int64_per_draw(self, tmp_path):
        # degenerate:3 has four atoms, so beyond the codes' 8 B per draw the peak holds no
        # other n-sized array
        small, large = (self.sample_peak("degenerate:3", n, "csv", tmp_path / "table")
                        for n in (200_000, 1_000_000))
        assert large - small <= 9 * 800_000

    def test_converge_table(self, capsys):
        code, out, _ = run_cli(
            [
                "rationals", "converge", "--family", "geometric",
                "--ks", "10,100,1000", "--probe", "0,0.5",
            ],
            capsys,
        )
        assert code == 0
        rows = parse_csv(out)
        mus = [float(r["mean_reciprocal"]) for r in rows]
        assert mus == sorted(mus, reverse=True)
        for r in rows:
            assert float(r["interval_error"]) <= 1.5 * float(r["mean_reciprocal"])

    def test_converge_prints_the_closed_form_of_e_inverse_m(self, capsys):
        # (1 - e^-k) / k; the series over its L = 1,006,369 denominators printed 9.99999999e-07
        code, out, _ = run_cli(["rationals", "converge", "--family", "poisson", "--ks", "1000000"], capsys)
        assert code == 0
        assert parse_csv(out)[0]["mean_reciprocal"] == "1e-06"

    def test_bad_law_string(self, capsys):
        code, _, err = run_cli(
            ["rationals", "atom", "--q", "1/2", "--law", "zipf:3"], capsys
        )
        assert code == 2
        assert "law" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["atom", "--q", "1/2", "--law", "custom:1=0.5,2=nan"],
            ["cdf", "--x", "0.5", "--law", "custom:1=0.5,2=nan"],
            ["interval", "--a", "0", "--b", "0.5", "--law", "custom:1=0.5,2=nan"],
            ["cdf", "--x", "nan", "--law", "geometric:0.5"],
            ["atom", "--q", "1/2", "--law", "custom:1=0.5,2=0.5", "--tol", "nan"],
        ],
    )
    def test_nan_input_is_a_config_error(self, argv, capsys):
        code, out, err = run_cli(["rationals", *argv], capsys)
        assert code == 2
        assert out == ""
        assert "nan" in err.lower()

    @pytest.mark.parametrize(
        "law", ["custom:2=1,2=1", "custom:2=0.5,2=0.5", "custom:2=0.5,02=0.5", "custom:2=0.5,\u0662=0.5"]
    )
    def test_repeated_custom_denominator_is_a_config_error(self, law, capsys):
        code, out, err = run_cli(["rationals", "atom", "--q", "1/2", "--law", law], capsys)
        assert code == 2
        assert out == ""
        assert f"bad law {law!r}: denominator 2 appears twice" in err

    @pytest.mark.parametrize("tol", ["1", "5", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["atom", "--q", "1/2", "--law", "poisson:4"],
            ["cdf", "--x", "0.5", "--law", "geometric:0.5"],
            ["interval", "--a", "0.2", "--b", "0.7", "--law", "degenerate:7"],
            ["converge", "--ks", "10,100"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_tol_outside_the_unit_interval_is_a_config_error(self, argv, tol, capsys):
        # a tol of 1 or more would stop every series at L = 1 and certify nothing
        code, out, err = run_cli(["rationals", *argv, "--tol", tol], capsys)
        assert code == 2
        assert out == ""
        assert "tol must lie in (0, 1)" in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            # L = 23,025,850,919 denominators
            (["interval", "--a", "0", "--b", "0.5", "--law", "geometric:1e-9"], "23025850919"),
            # the Bernstein bulk behind L alone is about 2.2e10 terms
            (["cdf", "--x", "0.5", "--law", "poisson:1e18"], "cells"),
            (["atom", "--q", "1/2", "--law", "degenerate:1000000000000"], "1000000000000"),
            (["converge", "--ks", "1000000000"], "23025850919"),
        ],
    )
    def test_series_over_the_work_budget_is_a_config_error(self, argv, named, capsys):
        code, out, err = run_cli(["rationals", *argv], capsys)
        assert code == 2
        assert out == ""
        assert "budget" in err and named in err

    @pytest.mark.parametrize(
        "argv",
        [
            # denominators or series ends beyond 2**62 - 1
            ["atom", "--q", "1/2", "--law", "poisson:1e300"],
            ["cdf", "--x", "0.3", "--law", "poisson:1e300"],
            ["atom", "--q", "1/2", "--law", "geometric:5e-324"],
            ["interval", "--a", "0", "--b", "0.5", "--law", "geometric:1e-300"],
            ["atom", "--q", "1/2", "--law", "degenerate:99999999999999999999"],
            ["sample", "--law", "degenerate:99999999999999999999", "--samples", "2"],
            # numpy's geometric draws saturate at the int64 maximum
            ["sample", "--law", "geometric:1e-300", "--samples", "2"],
            ["atom", "--q", "1/2", "--law", "custom:99999999999999999999=1"],
            # law parameters that overflow a float along the way
            ["atom", "--q", "1/2", "--law", "poisson:1e307"],
            ["converge", "--ks", f"2,{10**309}"],
            ["converge", "--family", "poisson", "--ks", f"1,{10**309}"],
            # law texts with control characters, which the tables would echo
            ["atom", "--q", "1/2", "--law", "custom:1=1\r"],
            ["sample", "--law", "custom:1=1\n", "--samples", "2"],
            ["cdf", "--x", "0.5", "--law", "geometric:0.5\x7f"],
            # laws that do not exist
            ["atom", "--q", "1/2", "--law", "poisson:inf"],
            ["converge", "--ks", "1"],
        ],
        ids=" ".join,
    )
    def test_law_out_of_range_exits_2_with_a_message(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "bertrand_lab", "rationals", *argv],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_series_overflow_is_refused_without_a_warning(self):
        # sup_pmf's log-gamma squares the mean, which overflows a float beyond 1.3e154; the
        # square's reciprocal 0 is right there, so numpy's overflow warning must not reach stderr
        k = 10**300
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "bertrand_lab",
             "rationals", "converge", "--family", "poisson", "--ks", f"1,{k}"],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        m = int(float(k))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: series over m = {m}..{m} passes the largest denominator {2**62 - 1}\n"

    def test_sample_out_of_memory_is_a_config_error(self, capsys, monkeypatch):
        from bertrand_lab import rationals

        def unable(law, rng, n):
            # numpy's _ArrayMemoryError is a MemoryError; nothing is allocated here
            raise MemoryError(f"Unable to allocate 72.8 TiB for an array with shape ({n},)")

        monkeypatch.setattr(rationals, "_draw", unable)
        argv = ["rationals", "sample", "--law", "geometric:0.5", "--samples", "10000000000000"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == "error: Unable to allocate 72.8 TiB for an array with shape (10000000000000,)\n"

    def test_minus_infinity_point_has_cdf_zero(self, capsys):
        code, out, _ = run_cli(["rationals", "cdf", "--x=-inf", "--law", "geometric:0.5"], capsys)
        assert code == 0
        assert parse_csv(out)[0]["value"] == "0"

    def test_bad_ks(self, capsys):
        code, _, _ = run_cli(
            ["rationals", "converge", "--ks", "100,10"], capsys
        )
        assert code == 2


class TestDeterminism:
    CASES = [
        ["bertrand", "--model", "all", "--samples", "20000", "--seed", "11"],
        ["buffon", "--samples", "10000", "--seed", "11"],
        ["squares", "--finite", "100", "--threshold", "50"],
        ["rationals", "atom", "--q", "1/2", "--law", "geometric:0.5"],
        ["rationals", "sample", "--law", "degenerate:3", "--samples", "5000", "--seed", "11"],
        ["rationals", "converge", "--ks", "10,100"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda c: c[0] + "_" + c[1].lstrip("-"))
    def test_two_runs_are_byte_identical(self, argv, capsys):
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_shard_count_does_not_change_output(self, fmt, capsys):
        outputs = []
        for shards in ("1", "2", "4"):
            _, out, _ = run_cli(
                ["bertrand", "--model", "midpoint", "--samples", "65536",
                 "--seed", "11", "--shards", shards, "--format", fmt],
                capsys,
            )
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]


def _reference_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def reference_text(rows, fmt):
    """The row-at-a-time rendering: csv.writer, or json.dumps of floats rounded to 9 digits."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list(rows[0]))
        for row in rows:
            writer.writerow([_reference_cell(v) for v in row.values()])
        return buf.getvalue()
    json_rows = [
        {h: float(format(v, ".9g")) if isinstance(v, float) else v for h, v in row.items()}
        for row in rows
    ]
    return json.dumps({"rows": json_rows}, indent=2) + "\n"


# characters that CSV must quote or JSON must escape, beside plain ones
TEXTS = st.text(st.sampled_from(list('ab1/:=.,"\r\n %\\\t\x7f\u00e9\u0661')), max_size=6)
FLOATS = st.one_of(
    st.sampled_from([1.0, 1e-05, 0.1234567895, 2.0000000005, 0.30000000000000004, -0.0, 0.0]),
    st.floats(),
)
SCALARS = st.one_of(st.none(), FLOATS, st.integers(-(2**70), 2**70), TEXTS)
INT64S = st.integers(-(2**63), 2**63 - 1)
# the numerators and denominators of a fraction column, as rationals sample writes them
FRACTION_PARTS = st.integers(0, 2**63 - 1)
SEQUENCE_CELLS = {"cells": SCALARS, "floats": FLOATS, "ints": INT64S, "texts": TEXTS}


def listed(cells):
    """A list column as the block renderer takes it: a Lookup of one cell per row."""
    return Lookup(cells, np.arange(len(cells)))


@st.composite
def column_tables(draw):
    """Tables of 2-5 columns; each a constant, a Lookup of any cells, one row per cell of
    any cells, floats, ints or texts, or a (numerators, denominators) pair of non-negative int arrays."""
    n = draw(st.integers(1, 5))
    columns = {}
    for name in draw(st.lists(TEXTS, min_size=2, max_size=5, unique=True)):
        kind = draw(st.sampled_from(["constant", "fractions", "lookup", *SEQUENCE_CELLS]))
        if kind == "constant":
            columns[name] = draw(SCALARS)
        elif kind == "lookup":
            cells = draw(st.lists(SCALAR_CELLS, min_size=1, max_size=4))
            index = draw(st.lists(st.integers(0, len(cells) - 1), min_size=n, max_size=n))
            columns[name] = Lookup(cells, np.array(index))
        elif kind == "fractions":
            pairs = draw(st.lists(st.tuples(FRACTION_PARTS, FRACTION_PARTS), min_size=n, max_size=n))
            columns[name] = tuple(np.array(part, dtype=np.int64) for part in zip(*pairs))
        else:
            columns[name] = listed(draw(st.lists(SEQUENCE_CELLS[kind], min_size=n, max_size=n)))
    return columns


def _nine_digit_edge(digits, exponent, step):
    """The float nearest the decimal tie digits.5 * 10**exponent (digits has 9 digits),
    or its neighbour one ulp below or above."""
    x = float(f"{digits}5e{exponent}")
    return x if step == 0 else math.nextafter(x, step * math.inf)


# floats whose 9-digit rounding is decided by the last bits, beside -0.0, NaN and infinities
EDGE_FLOATS = st.one_of(
    st.builds(_nine_digit_edge, st.integers(-(10**9) + 1, 10**9 - 1).filter(lambda d: abs(d) >= 10**8),
              st.integers(-330, 290), st.sampled_from([-1, 0, 1])),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
)
SCALAR_CELLS = st.one_of(SCALARS, EDGE_FLOATS)


@st.composite
def scalar_tables(draw):
    """Tables of 2-5 columns, each a constant or a list of cells: the tables written without numpy."""
    n = draw(st.integers(1, 5))
    return {
        name: draw(st.one_of(SCALAR_CELLS, st.lists(SCALAR_CELLS, min_size=n, max_size=n)))
        for name in draw(st.lists(TEXTS, min_size=2, max_size=5, unique=True))
    }


def spelled_rows(columns):
    """The table as row dicts, with each constant repeated in every row and fractions as "n/m"."""
    columns = {
        h: [f"{num}/{den}" for num, den in zip(*v)] if isinstance(v, tuple)
        else [v.cells[i] for i in v.index] if isinstance(v, Lookup)
        else v
        for h, v in columns.items()
    }
    n = max((len(v) for v in columns.values() if isinstance(v, list)), default=1)
    return [{h: v[i] if isinstance(v, list) else v for h, v in columns.items()} for i in range(n)]


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# a table constant that CSV quotes and JSON escapes
QUOTED_CONSTANT = 'custom:1=0.5,3=0.5 "\u00e9"'


def many_rows_table():
    """A table of 2 * _CHUNK_ROWS + 1 rows, two block boundaries, with the edge cases of every
    column kind in the rows on each side of them."""
    n = 2 * _CHUNK_ROWS + 1
    i = np.arange(n)
    edges = [0, _CHUNK_ROWS - 1, _CHUNK_ROWS, 2 * _CHUNK_ROWS - 1, 2 * _CHUNK_ROWS]
    ints = i * 7919 - 3000 * n
    ints[edges] = [INT64_MIN, INT64_MAX, INT64_MIN, INT64_MAX, INT64_MIN]
    # fraction parts are never negative: the widest and the narrowest on each side of an edge
    nums, dens = np.abs(ints[::-1]), i + 1
    nums[edges] = [0, INT64_MAX, 0, INT64_MAX, 0]
    dens[edges] = [INT64_MAX, 0, 1, 0, INT64_MAX]
    floats = i / 7.0
    specials = [-0.0, math.nan, math.inf, -math.inf, 0.1234567895, 1e-05, 2.0000000005, -3.5e300]
    floats[::5] = np.resize(specials, len(floats[::5]))
    texts = ["plain", "a,b", 'say "hi"', "\r", "caf\u00e9", "\u0661\u0662", "two\nlines", "", "%d"]
    cells = [None, 2**70, -1.5, "x,y", INT64_MIN, 0.30000000000000004, "\u00e9"]
    # a Lookup picks every cell and special float, and a different one on each side of a block edge
    table = [*cells, *specials]
    picked = i % len(table)
    picked[edges] = [1, 14, 0, 9, 3]
    return {
        "law": QUOTED_CONSTANT,
        "int": listed(ints.tolist()),
        "q": (nums, dens),
        "fr\u00e9q": listed(floats.tolist()),
        "text,t": listed([texts[k % len(texts)] for k in range(n)]),
        "cell": listed([cells[k % len(cells)] for k in range(n)]),
        "lookup": Lookup(table, picked),
        "none": None,
    }


def sample_shaped_table(rows):
    """The columns of a ``rationals sample`` table of ``rows`` distinct atoms."""
    rng = np.random.default_rng(3)
    counts, picked = [1, 2, 3, 4], rng.integers(0, 4, rows)
    return {
        "law": "geometric:0.001",
        "q": (np.arange(rows) % 997, np.sort(rng.integers(1, 5000, rows))),
        "count": Lookup(counts, picked),
        "frequency": Lookup([count / 10**6 for count in counts], picked),
        "n": 10**6,
        "seed": 12345,
    }


# the tracemalloc peak of _emit, beyond its input columns, was 6.9 MiB (CSV) and
# 20.1 MiB (JSON) at 300,000 and at 600,000 rows alike; rendering these 300,000
# rows as one block peaks at 50 and 140 MiB
EMIT_PEAK_BOUND = {"csv": 12 * 2**20, "json": 32 * 2**20}
SAMPLE_MANY_ROWS = ["rationals", "sample", "--law", "geometric:0.001", "--samples", "300000", "--seed", "5"]


class TestOutputFormats:
    @settings(max_examples=300, deadline=None)
    @given(columns=column_tables(), fmt=st.sampled_from(["csv", "json"]))
    def test_column_renderer_matches_row_reference(self, columns, fmt):
        expected = reference_text(spelled_rows(columns), fmt)
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert _emit(Namespace(format=fmt, out=None), columns) == 0
        assert buf.getvalue() == expected
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table"
            assert _emit(Namespace(format=fmt, out=str(path)), columns) == 0
            with open(path, newline="") as f:
                assert f.read() == expected

    @settings(max_examples=300, deadline=None)
    @given(columns=scalar_tables(), fmt=st.sampled_from(["csv", "json"]))
    def test_scalar_writer_matches_block_renderer(self, columns, fmt):
        def written(emit, columns):
            buf = io.StringIO()
            with redirect_stdout(buf):
                assert emit(Namespace(format=fmt, out=None), columns) == 0
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "table"
                assert emit(Namespace(format=fmt, out=str(path)), columns) == 0
                return buf.getvalue(), path.read_bytes()

        lookups = {h: listed(v) if isinstance(v, list) else v for h, v in columns.items()}
        assert written(_emit, columns) == written(_emit_blocks, lookups)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_renderer_matches_row_reference_across_blocks(self, fmt, tmp_path):
        columns = many_rows_table()
        expected = reference_text(spelled_rows(columns), fmt)
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert _emit(Namespace(format=fmt, out=None), columns) == 0
        assert buf.getvalue() == expected
        path = tmp_path / "table"
        assert _emit(Namespace(format=fmt, out=str(path)), columns) == 0
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_emit_memory_does_not_grow_with_rows(self, fmt, tmp_path):
        columns = sample_shaped_table(300_000)
        tracemalloc.start()
        try:
            assert _emit(Namespace(format=fmt, out=str(tmp_path / "table")), columns) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < EMIT_PEAK_BOUND[fmt]

    def test_json_mirrors_csv_fields(self, capsys):
        argv = ["squares", "--finite", "4", "--threshold", "2"]
        _, csv_out, _ = run_cli(argv, capsys)
        _, json_out, _ = run_cli(argv + ["--format", "json"], capsys)
        csv_rows = parse_csv(csv_out)
        json_rows = json.loads(json_out)["rows"]
        assert len(csv_rows) == len(json_rows)
        for c, j in zip(csv_rows, json_rows):
            assert set(c) == set(j)
            assert c["model"] == j["model"]

    def test_csv_uses_lf_line_endings(self, capsys):
        _, out, _ = run_cli(["squares"], capsys)
        assert "\r" not in out
        assert out.endswith("\n")

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        argv = ["rationals", "converge", "--ks", "10,100"]
        _, stdout_text, _ = run_cli(argv, capsys)
        path = tmp_path / "table.csv"
        code, empty, _ = run_cli(argv + ["--out", str(path)], capsys)
        assert code == 0
        assert empty == ""
        assert path.read_bytes().decode() == stdout_text

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_file_matches_stdout_across_blocks(self, fmt, tmp_path, capsys):
        argv = SAMPLE_MANY_ROWS + ["--format", fmt]
        _, stdout_text, _ = run_cli(argv, capsys)
        assert stdout_text.count("\n") > 2 * _CHUNK_ROWS
        path = tmp_path / "table"
        assert run_cli(argv + ["--out", str(path)], capsys)[:2] == (0, "")
        assert path.read_bytes() == stdout_text.encode()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cold_out_file_matches_stdout_across_blocks(self, fmt, tmp_path):
        argv = [sys.executable, "-m", "bertrand_lab", *SAMPLE_MANY_ROWS, "--format", fmt]
        path = tmp_path / "table"
        stdout = subprocess.run(argv, capture_output=True, env=src_env(), check=True).stdout
        subprocess.run(argv + ["--out", str(path)], capture_output=True, env=src_env(), check=True)
        assert stdout.count(b"\n") > 2 * _CHUNK_ROWS
        assert path.read_bytes() == stdout


class TestSeedResolution:
    def test_env_var_overrides_default(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "777")
        _, out, _ = run_cli(["bertrand", "--model", "polar", "--samples", "1000"], capsys)
        assert parse_csv(out)[0]["seed"] == "777"

    def test_flag_beats_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "777")
        _, out, _ = run_cli(
            ["bertrand", "--model", "polar", "--samples", "1000", "--seed", "5"], capsys
        )
        assert parse_csv(out)[0]["seed"] == "5"

    def test_default_seed_documented_constant(self, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        _, out, _ = run_cli(["bertrand", "--model", "polar", "--samples", "1000"], capsys)
        assert parse_csv(out)[0]["seed"] == str(DEFAULT_SEED)

    @pytest.mark.parametrize(
        "argv",
        [
            ["bertrand", "--model", "polar", "--samples", "1000"],
            ["buffon", "--model", "endpoints", "--samples", "1000"],
            ["rationals", "sample", "--law", "geometric:0.5", "--samples", "50"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_seed_is_echoed_modulo_two_to_the_64(self, argv, capsys, monkeypatch):
        # -1 and 2**64 - 1 seed the same streams, so every table prints the same bytes
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        outs = [run_cli([*argv, "--seed", seed], capsys) for seed in ("-1", str(2**64 - 1))]
        assert outs[0] == outs[1]
        assert outs[0][0] == 0
        assert {row["seed"] for row in parse_csv(outs[0][1])} == {str(2**64 - 1)}
        monkeypatch.setenv(SEED_ENV_VAR, str(2**64 + 5))
        assert parse_csv(run_cli(argv, capsys)[1])[0]["seed"] == "5"

    def test_garbage_env_var_is_a_config_error(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-seed")
        code, _, _ = run_cli(["bertrand", "--model", "polar", "--samples", "1000"], capsys)
        assert code == 2


# the modules a subcommand must leave unloaded: the other subcommands' library code
BERTRAND, BUFFON, RATIONALS, SQUARES, MONTECARLO = (
    f"bertrand_lab.{name}" for name in ("bertrand", "buffon", "rationals", "squares", "montecarlo")
)
IMPORT_BOUNDARIES = [
    pytest.param(
        ["rationals", "cdf", "--x", "0.3", "--law", "poisson:4"],
        [BERTRAND, BUFFON, SQUARES, MONTECARLO, "concurrent.futures"],
        id="rationals-cdf",
    ),
    # montecarlo for stream_generator alone, without the pool and the normal quantile
    pytest.param(
        ["rationals", "sample", "--law", "geometric:0.5", "--samples", "100"],
        [BERTRAND, BUFFON, SQUARES, "concurrent.futures", "logging", "statistics", "fractions", "decimal"],
        id="rationals-sample",
    ),
    # squares is plain arithmetic, and a table of constants and lists is written without numpy
    pytest.param(
        ["squares", "--finite", "10"], [BERTRAND, BUFFON, RATIONALS, MONTECARLO, "numpy"], id="squares"
    ),
    pytest.param(
        ["squares", "--finite", "10", "--format", "json"],
        [BERTRAND, BUFFON, RATIONALS, MONTECARLO, "numpy"],
        id="squares-json",
    ),
    pytest.param(["--help"], ["numpy"], id="help"),
    pytest.param(["rationals", "cdf", "--help"], ["numpy"], id="rationals-cdf-help"),
    pytest.param(
        ["bertrand", "--samples", "1000", "--pushforward"],
        [BUFFON, RATIONALS, SQUARES, "statistics", "fractions", "decimal",
         "numpy.polynomial"],
        id="bertrand",
    ),
    pytest.param(
        ["buffon", "--samples", "1000"],
        [BERTRAND, RATIONALS, SQUARES, "statistics", "fractions", "decimal"],
        id="buffon",
    ),
]


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bertrand_lab", "squares"],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "model,threshold,probability"

    def run_python(self, script, **env):
        proc = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(script)],
            capture_output=True,
            text=True,
            env=dict(src_env(), **env),
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_package_import_leaves_numpy_and_blas_threads_alone(self):
        # a library user's process keeps its own BLAS pool; only the CLI's start holds it to one
        out = self.run_python(
            """
            import os, sys
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
            import bertrand_lab
            print("numpy" in sys.modules, os.environ.get("OPENBLAS_NUM_THREADS"))
            """
        )
        assert out == "False None\n"

    def test_main_module_import_is_quiet_and_is_the_cli(self):
        out = self.run_python(
            """
            import io, contextlib
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                import bertrand_lab.__main__ as entry
            from bertrand_lab import cli
            print(repr(buffer.getvalue()), entry.main is cli.main)
            """
        )
        assert out == "'' True\n"

    def test_console_script_starts_through_the_main_module(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"bertrand-lab": "bertrand_lab.__main__:main"}

    def test_cli_start_holds_openblas_to_one_thread(self):
        # the setting must override the caller's: a second thread may sum a dgemv in another order
        script = """
            import contextlib, ctypes, glob, io, json, os, runpy, sys
            sys.argv = ["bertrand-lab", "rationals", "cdf", "--x", "0.3", "--law", "poisson:4"]
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    runpy.run_module("bertrand_lab", run_name="__main__")
            except SystemExit as stop:
                assert stop.code == 0, stop.code
            # the command loaded numpy itself: the pool read below is the one the CLI started
            assert "numpy" in sys.modules
            import numpy
            libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
            counts = []
            for path in glob.glob(os.path.join(libs, "*openblas*")):
                lib = ctypes.CDLL(path)
                for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                    if hasattr(lib, fn):
                        counts.append(getattr(lib, fn)())
                        break
            print(json.dumps(counts))
            """
        counts = json.loads(self.run_python(script, OPENBLAS_NUM_THREADS="2").splitlines()[-1])
        if not counts:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        assert counts == [1]

    def test_cli_runs_without_scipy(self):
        # scipy is a test-only reference: importing the CLI and running
        # commands that use every former scipy call site must not load it
        out = self.run_python(
            """
            import sys
            from bertrand_lab import cli
            for argv in (
                ["squares"],
                ["bertrand", "--pushforward"],
                ["rationals", "cdf", "--x", "0.3", "--law", "poisson:4"],
            ):
                assert cli.main(argv) == 0
            print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
            """
        )
        assert out.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("argv, unloaded", IMPORT_BOUNDARIES)
    def test_subcommand_imports_only_its_own_modules(self, argv, unloaded):
        out = self.run_python(
            f"""
            import sys
            from bertrand_lab import cli
            assert cli.main({argv!r}) == 0
            print(sorted(m for m in {unloaded!r} if m in sys.modules))
            """
        )
        assert out.splitlines()[-1] == "[]"

    def test_every_package_module_is_reached_by_a_command(self):
        # the package keeps what a command runs: a module only tests import stays unloaded here
        out = self.run_python(
            """
            import pkgutil, sys
            import bertrand_lab
            from bertrand_lab import cli
            for argv in (
                ["bertrand", "--samples", "1000", "--pushforward"],
                ["buffon", "--samples", "1000"],
                ["squares"],
                ["rationals", "cdf", "--x", "0.3", "--law", "poisson:4"],
                ["rationals", "sample", "--law", "geometric:0.5", "--samples", "100"],
            ):
                assert cli.main(argv) == 0
            names = {m.name for m in pkgutil.iter_modules(bertrand_lab.__path__)} - {"__main__"}
            assert "cli" in names, names
            print(sorted(n for n in names if f"bertrand_lab.{n}" not in sys.modules))
            """
        )
        assert out.splitlines()[-1] == "[]"


class TestOutputErrors:
    @pytest.mark.parametrize(
        "out",
        [
            lambda tmp: tmp / "file" / "x.csv",  # NotADirectoryError
            lambda tmp: tmp / "missing" / "x.csv",  # FileNotFoundError
            lambda tmp: tmp,  # IsADirectoryError
        ],
        ids=["under-a-file", "missing-directory", "a-directory"],
    )
    def test_unopenable_out_is_a_config_error(self, out, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        code, stdout, err = run_cli(["squares", "--out", str(out(tmp_path))], capsys)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ")

    def test_closed_stdout_ends_quietly(self):
        # about 20 MB of rows: the writer meets the closed pipe long before it is done
        argv = ["rationals", "sample", "--law", "geometric:0.001", "--samples", "300000"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "bertrand_lab", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=src_env(),
        )
        assert proc.stdout.readline() == b"law,q,count,frequency,n,seed\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err == b""


# every parser's options as (flags, or dest for subcommands; default; required; choices; type),
# keyed by prog; a changed default, a dropped or an added option shows here
HELP = (("-h", "--help"), argparse.SUPPRESS, False, None, None)
OUTPUT = [(("--format",), "csv", False, ["csv", "json"], None), (("--out",), None, False, None, None)]
CLI_SURFACE = {
    "bertrand-lab": [HELP, ("command", None, True, ["bertrand", "buffon", "squares", "rationals"], None)],
    "bertrand-lab bertrand": [
        HELP,
        (("--model",), "all", False, ["midpoint", "tangent", "polar", "all"], None),
        (("--samples",), 100000, False, None, "int"),
        (("--seed",), None, False, None, "int"),
        (("--shards",), 1, False, None, "int"),
        (("--pushforward",), False, False, None, None),
        *OUTPUT,
    ],
    "bertrand-lab buffon": [
        HELP,
        (("--model",), "all", False, ["center-angle", "endpoints", "all"], None),
        (("--samples",), 100000, False, None, "int"),
        (("--seed",), None, False, None, "int"),
        (("--shards",), 1, False, None, "int"),
        *OUTPUT,
    ],
    "bertrand-lab squares": [
        HELP,
        (("--threshold",), 50.0, False, None, "float"),
        (("--finite",), None, False, None, "int"),
        *OUTPUT,
    ],
    "bertrand-lab rationals": [
        HELP,
        ("mode", None, True, ["atom", "cdf", "interval", "sample", "converge"], None),
    ],
    "bertrand-lab rationals atom": [
        HELP,
        (("--q",), None, True, None, None),
        (("--law",), None, True, None, None),
        (("--tol",), None, False, None, "float"),
        *OUTPUT,
    ],
    "bertrand-lab rationals cdf": [
        HELP,
        (("--x",), None, True, None, "float"),
        (("--law",), None, True, None, None),
        (("--tol",), None, False, None, "float"),
        *OUTPUT,
    ],
    "bertrand-lab rationals interval": [
        HELP,
        (("--a",), None, True, None, "float"),
        (("--b",), None, True, None, "float"),
        (("--law",), None, True, None, None),
        (("--tol",), None, False, None, "float"),
        *OUTPUT,
    ],
    "bertrand-lab rationals sample": [
        HELP,
        (("--law",), None, True, None, None),
        (("--samples",), 100000, False, None, "int"),
        (("--seed",), None, False, None, "int"),
        *OUTPUT,
    ],
    "bertrand-lab rationals converge": [
        HELP,
        (("--family",), "geometric", False, ["geometric", "poisson"], None),
        (("--ks",), "10,100,1000", False, None, None),
        (("--probe",), "0,0.5", False, None, None),
        (("--tol",), None, False, None, "float"),
        *OUTPUT,
    ],
}


def cli_surface(parser):
    """Each parser reachable from ``parser`` with its options, in CLI_SURFACE's shape."""
    options, children = [], []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            children += action.choices.values()
        flags = tuple(action.option_strings) or action.dest
        choices = None if action.choices is None else list(action.choices)
        type_name = None if action.type is None else action.type.__name__
        options.append((flags, action.default, action.required, choices, type_name))
    surface = {parser.prog: options}
    for child in children:
        surface.update(cli_surface(child))
    return surface


class TestCliSurface:
    def test_every_option_keeps_its_flags_default_and_type(self):
        assert cli_surface(build_parser()) == CLI_SURFACE
