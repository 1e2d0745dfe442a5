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
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bertrand_lab.cli import _CHUNK_ROWS, DEFAULT_SEED, SEED_ENV_VAR, _emit, build_parser, main


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

    def test_sample_out_of_memory_is_a_config_error(self, capsys, monkeypatch):
        from bertrand_lab import rationals

        def unable(law, rng, n):
            # numpy's _ArrayMemoryError is a MemoryError; nothing is allocated here
            raise MemoryError(f"Unable to allocate 72.8 TiB for an array with shape ({n},)")

        monkeypatch.setattr(rationals, "sample_rational_batch", unable)
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
SEQUENCE_CELLS = {"cells": SCALARS, "floats": FLOATS, "ints": INT64S}


@st.composite
def column_tables(draw):
    """Tables of 2-5 columns; each a constant, a list of any cells, a float or int array, texts,
    or a (numerators, denominators) pair of int arrays."""
    n = draw(st.integers(1, 5))
    columns = {}
    for name in draw(st.lists(TEXTS, min_size=2, max_size=5, unique=True)):
        kind = draw(st.sampled_from(["constant", "cells", "floats", "ints", "texts", "fractions"]))
        if kind == "constant":
            columns[name] = draw(SCALARS)
        elif kind == "texts":
            columns[name] = draw(st.lists(TEXTS, min_size=n, max_size=n))
        elif kind == "fractions":
            pairs = draw(st.lists(st.tuples(INT64S, INT64S), min_size=n, max_size=n))
            columns[name] = tuple(np.array(part, dtype=np.int64) for part in zip(*pairs))
        else:
            values = draw(st.lists(SEQUENCE_CELLS[kind], min_size=n, max_size=n))
            columns[name] = values if kind == "cells" else np.array(values)
    return columns


def spelled_rows(columns):
    """The table as row dicts, with each constant repeated in every row and fractions as "n/m"."""
    columns = {
        h: v.tolist() if isinstance(v, np.ndarray)
        else [f"{num}/{den}" for num, den in zip(*v)] if isinstance(v, tuple)
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
    nums, dens = ints[::-1].copy(), i + 1
    dens[edges] = [INT64_MAX, INT64_MIN, -1, INT64_MIN, INT64_MAX]
    floats = i / 7.0
    specials = [-0.0, math.nan, math.inf, -math.inf, 0.1234567895, 1e-05, 2.0000000005, -3.5e300]
    floats[::5] = np.resize(specials, len(floats[::5]))
    texts = ["plain", "a,b", 'say "hi"', "\r", "caf\u00e9", "\u0661\u0662", "two\nlines", "", "%d"]
    cells = [None, 2**70, -1.5, "x,y", INT64_MIN, 0.30000000000000004, "\u00e9"]
    return {
        "law": QUOTED_CONSTANT,
        "int": ints,
        "q": (nums, dens),
        "fr\u00e9q": floats,
        "text,t": [texts[k % len(texts)] for k in range(n)],
        "cell": [cells[k % len(cells)] for k in range(n)],
        "none": None,
    }


def sample_shaped_table(rows):
    """The columns of a ``rationals sample`` table of ``rows`` distinct atoms."""
    rng = np.random.default_rng(3)
    counts = rng.integers(1, 5, rows)
    return {
        "law": "geometric:0.001",
        "q": (np.arange(rows) % 997, np.sort(rng.integers(1, 5000, rows))),
        "count": counts,
        "frequency": counts / 10**6,
        "n": 10**6,
        "seed": 12345,
    }


# the tracemalloc peak of _emit, beyond its input columns, was 7.1 MiB (CSV) and
# 20.2 MiB (JSON) at 300,000 and at 600,000 rows alike; rendering these 300,000
# rows as one block peaks at 51 and 141 MiB
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
    pytest.param(["squares", "--finite", "10"], [BERTRAND, BUFFON, RATIONALS], id="squares"),
    pytest.param(
        ["bertrand", "--samples", "1000", "--pushforward"],
        [BUFFON, RATIONALS, SQUARES, "statistics", "fractions", "decimal"],
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

    def test_cli_runs_without_scipy(self):
        # scipy is a test-only reference: importing the CLI and running
        # commands that use every former scipy call site must not load it
        script = textwrap.dedent(
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
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=src_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("argv, unloaded", IMPORT_BOUNDARIES)
    def test_subcommand_imports_only_its_own_modules(self, argv, unloaded):
        script = textwrap.dedent(
            f"""
            import sys
            from bertrand_lab import cli
            assert cli.main({argv!r}) == 0
            print(sorted(m for m in {unloaded!r} if m in sys.modules))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=src_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


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
