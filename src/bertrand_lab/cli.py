"""Command-line front end: run the experiments and emit CSV or JSON tables.

Every run is deterministic: the seed defaults to a fixed constant, can be
overridden by the BERTRAND_LAB_SEED environment variable or --seed, and is
taken modulo 2**64, the value the tables echo.  The output bytes depend only
on the parsed arguments: no command calls BLAS, so they depend on neither
the host's cores nor the caller's environment.  Floats are printed with 9 significant digits
(round-half-even); exact rationals are printed as "n/m" strings, never as
decimals.  CSV uses RFC-4180 quoting with LF line endings;
JSON output is a single object with a "rows" array carrying the same fields.
Tables of constants and lists are written with the standard library; the
one table of ``Lookup`` columns and fraction pairs, ``rationals sample``'s,
is rendered in numpy blocks.  Both writers write the same bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Any, Iterable, Sequence

# handlers import the modules they run, so a cold command loads only those; this is for annotations
if TYPE_CHECKING:
    import numpy as np

    from . import rationals

DEFAULT_SEED = 42
SEED_ENV_VAR = "BERTRAND_LAB_SEED"
DEFAULT_SAMPLES = 100_000
# isqrt(2**63 - 1): den * base + num fits in int64 for any base up to this
_MAX_CODE_BASE = 3_037_000_499

# CLI token -> enum member name, resolved by the handler
_CHORD_TOKENS = {
    "midpoint": "MIDPOINT_UNIFORM", "tangent": "TANGENT_ANGLE_UNIFORM", "polar": "POLAR_UNIFORM"
}
_NEEDLE_TOKENS = {"center-angle": "CENTER_ANGLE", "endpoints": "ENDPOINTS"}


# the characters that make Python 3.11's csv.writer(lineterminator="\n") quote a field;
# a lone "\r" is written bare (tests/test_cli.py compares with csv.writer itself)
_CSV_QUOTED = ',"\n'


def _encode(value: Any, as_json: bool) -> str:
    """One cell: floats at 9 significant digits, None blank in CSV and null in JSON."""
    if isinstance(value, float):
        text = format(value, ".9g")
        return json.dumps(float(text)) if as_json else text
    if as_json:
        return json.dumps(value)
    text = "" if value is None else str(value)
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in _CSV_QUOTED) else text


class Lookup:
    """A column whose row i is ``cells[index[i]]``, so that each distinct cell is encoded once."""

    __slots__ = ("cells", "index")

    def __init__(self, cells: list[Any], index: np.ndarray) -> None:
        self.cells, self.index = cells, index

    def __len__(self) -> int:
        return len(self.index)


# rows per rendered byte block: the renderer's memory follows this, not the row count
_CHUNK_ROWS = 2**15


def _rows(block: np.ndarray) -> np.ndarray:
    """A (rows, width) block of bytes or masks as one np.void cell per row, copied whole."""
    return block.view(f"V{block.shape[1]}")[:, 0]


def _digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Non-negative integers as right-aligned ASCII digits, with the mask of the bytes kept."""
    import numpy as np
    mag = values.astype(np.uint64)
    width = len(str(mag.max()))
    block = np.empty((len(mag), width), np.uint8)
    keep = np.empty(block.shape, bool)
    keep[:, width - 1] = True
    # column k holds the digit of 10**(width - 1 - k), kept when the cell is that long
    for k in range(width - 1):
        keep[:, k] = mag >= 10 ** (width - 1 - k)
    for k in range(width - 1, -1, -1):
        digit = mag // 10
        digit *= 10
        np.subtract(mag, digit, out=digit)
        digit += ord("0")
        block[:, k] = digit
        mag //= 10
    return _rows(block), _rows(keep)


def _texts(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Texts as left-aligned UTF-8 cells, one np.void each, with the masks of the bytes kept."""
    import numpy as np
    encoded = [text.encode() for text in texts]
    table = np.array(encoded, dtype="S")
    keep = np.arange(table.itemsize) < np.array([len(b) for b in encoded])[:, None]
    return table.view(f"V{table.itemsize}"), _rows(keep)


def _pick(table: tuple[np.ndarray, np.ndarray], index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells of a ``_texts`` table at ``index``, with their masks."""
    cells, keep = table
    return cells[index], keep[index]


def _column(values: Any, as_json: bool) -> list[Any]:
    """A column as pieces of the row template: texts, and cell makers for the varying parts.

    A column is a constant, a ``Lookup``, or a (numerators, denominators)
    pair of integer arrays printed as "n/m" strings.  A cell maker takes a
    row range lo..hi and returns its cells as one np.void per row, with the
    masks of their bytes to keep.
    """
    if isinstance(values, Lookup):
        table = _texts([_encode(v, as_json) for v in values.cells])
        return [lambda lo, hi: _pick(table, values.index[lo:hi])]
    if isinstance(values, tuple):
        num, den = values
        quote = '"' if as_json else ""
        return [quote, lambda lo, hi: _digits(num[lo:hi]), "/", lambda lo, hi: _digits(den[lo:hi]), quote]
    return [_encode(values, as_json)]


def _render(template: list[Any], lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi as one flat byte array: the pieces side by side, padding masked out."""
    import numpy as np
    pieces = [piece if isinstance(piece, bytes) else piece(lo, hi) for piece in template]
    # every row starts as the template's texts, with zeros where the cells go
    row = b"".join(p if isinstance(p, bytes) else bytes(p[0].itemsize) for p in pieces)
    block = np.tile(np.frombuffer(row, np.uint8), (hi - lo, 1))
    keep = np.ones(block.shape, bool)
    at = 0
    for piece in pieces:
        if isinstance(piece, bytes):
            at += len(piece)
            continue
        cells, cells_keep = piece
        width = cells.itemsize
        _rows(block[:, at : at + width])[:] = cells
        _rows(keep[:, at : at + width])[:] = cells_keep
        at += width
    return block[keep]


def _write(args: argparse.Namespace, text: Iterable[str]) -> int:
    """Write the pieces of a table's text to --out, or to stdout."""
    if args.out:
        with open(args.out, "w", newline="") as f:
            f.writelines(text)
    else:
        sys.stdout.writelines(text)
    return 0


def _emit(args: argparse.Namespace, columns: dict[str, Any]) -> int:
    r"""Write a table of two or more columns: constants, lists, ``Lookup``s or fraction pairs.

    The columns that vary share one length, the row count, of at least 1; a table of
    constants is one row.  The text equals csv.writer(lineterminator="\n") or
    json.dumps({"rows": [...]}, indent=2) + "\n" on the rows spelled out.
    A table of constants and lists is spelled out here, one CSV line per row;
    a table of constants, ``Lookup``s and fraction pairs goes to ``_emit_blocks``.
    """
    if not all(isinstance(values, (list, str, int, float, type(None))) for values in columns.values()):
        return _emit_blocks(args, columns)
    rows = max((len(values) for values in columns.values() if isinstance(values, list)), default=1)
    cells = [[v[i] if isinstance(v, list) else v for v in columns.values()] for i in range(rows)]
    if args.format == "json":
        rounded = [{name: float(format(v, ".9g")) if isinstance(v, float) else v
                    for name, v in zip(columns, row)} for row in cells]
        return _write(args, [json.dumps({"rows": rounded}, indent=2) + "\n"])
    return _write(args, (",".join(_encode(v, False) for v in row) + "\n" for row in [list(columns), *cells]))


def _emit_blocks(args: argparse.Namespace, columns: dict[str, Any]) -> int:
    """``_emit`` for a table of constants, ``Lookup``s and fraction pairs: rows are rendered
    _CHUNK_ROWS at a time as numpy byte blocks, and each block is written as soon as it is built."""
    as_json = args.format == "json"
    pieces: list[Any] = []
    rows = 1
    for i, (name, values) in enumerate(columns.items()):
        if as_json:
            pieces.append(("    {\n" if i == 0 else ",\n") + f"      {json.dumps(name)}: ")
        elif i:
            pieces.append(",")
        pieces += _column(values, as_json)
        if isinstance(values, (tuple, Lookup)):
            rows = len(values[0] if isinstance(values, tuple) else values)
    # every JSON row ends in the separator, which the last row drops
    pieces.append("\n    },\n" if as_json else "\n")
    template = [piece.encode() if isinstance(piece, str) else piece for piece in pieces]

    def text():
        yield '{\n  "rows": [\n' if as_json else ",".join(_encode(name, False) for name in columns) + "\n"
        for lo in range(0, rows, _CHUNK_ROWS):
            flat = _render(template, lo, min(lo + _CHUNK_ROWS, rows))
            yield str(flat[:-2] if as_json and lo + _CHUNK_ROWS >= rows else flat, "utf-8")
        if as_json:
            yield "\n  ]\n}\n"

    return _write(args, text())


def _fields(records: Sequence[Any], *names: str) -> dict[str, list[Any]]:
    """One column per attribute of the records, None where a record is None."""
    return {name: [None if r is None else getattr(r, name) for r in records] for name in names}


def _resolve_seed(args: argparse.Namespace) -> int:
    """The run seed reduced modulo 2**64, as the streams read it and the tables echo it."""
    seed = args.seed
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR, str(DEFAULT_SEED))
        try:
            seed = int(env)
        except ValueError as exc:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return seed % 2**64


def _check_samples(n: int) -> int:
    if n < 1:
        raise ValueError(f"--samples must be >= 1, got {n}")
    return n


def cmd_bertrand(args: argparse.Namespace) -> int:
    from . import bertrand, montecarlo

    n = _check_samples(args.samples)
    seed = _resolve_seed(args)
    members = _CHORD_TOKENS.values() if args.model == "all" else [_CHORD_TOKENS[args.model]]
    models = [bertrand.ChordModel[member] for member in members]
    names = [model.value for model in models]
    exact = [bertrand.exact_exceed_probability(model) for model in models]
    ests = [montecarlo.run(bertrand.chord_exceed_experiment(m), n, seed, args.shards) for m in models]
    if args.pushforward:
        midpoint, polar = bertrand.ChordModel.MIDPOINT_UNIFORM, bertrand.ChordModel.POLAR_UNIFORM
        names.append("midpoint_to_polar_pushforward")
        exact.append(bertrand.exceed_probability_under_measure(midpoint, polar))
        ests.append(None)
    columns = _fields(ests, "p_hat", "ci_low", "ci_high", "n", "seed")
    return _emit(args, {"model": names, "exact_p": exact, **columns})


def cmd_buffon(args: argparse.Namespace) -> int:
    from . import buffon

    seed = _resolve_seed(args)
    members = _NEEDLE_TOKENS.values() if args.model == "all" else [_NEEDLE_TOKENS[args.model]]
    models = [buffon.NeedleModel[member] for member in members]
    pis = [buffon.estimate_pi(model, args.samples, seed, args.shards) for model in models]
    ests = [pi.crossings for pi in pis]
    columns = {
        "model": [model.value for model in models],
        "exact_p": [buffon.exact_cross_probability(model) for model in models],
        **_fields(ests, "p_hat", "ci_low", "ci_high"),
        "pi_estimate": [pi.value for pi in pis],
        "pi_ci_low": [pi.ci_low for pi in pis],
        "pi_ci_high": [pi.ci_high for pi in pis],
    }
    return _emit(args, {**columns, **_fields(ests, "n", "seed")})


def cmd_squares(args: argparse.Namespace) -> int:
    from . import squares

    t = args.threshold
    models = list(squares.IntervalModel)
    thresholds = [squares.model_threshold(model, t) for model in models]
    columns = {
        "model": [model.value for model in models],
        "threshold": thresholds,
        "probability": [squares.exceed_probability(m, th) for m, th in zip(models, thresholds)],
    }
    if args.finite is not None:
        if t != int(t):
            raise ValueError(f"--threshold must be an integer for counting, got {t}")
        ti = int(t)
        for model, threshold, squared in (
            ("counting_plain", ti, False),
            ("counting_squared", ti * ti, True),
        ):
            probability = squares.finite_counting_probability(args.finite, threshold, squared)
            exact = f"{probability.numerator}/{probability.denominator}"
            for name, value in zip(columns, (model, threshold, exact)):
                columns[name].append(value)
    return _emit(args, columns)


def _parse_law(text: str) -> rationals.DenominatorLaw:
    from . import rationals

    # every table echoes the law text, and a lone \r there splits a CSV record
    if any(c < " " or c == "\x7f" for c in text):
        raise ValueError(f"bad law {text!r}: control characters are not allowed")
    kind, _, rest = text.partition(":")
    try:
        if kind == "geometric":
            return rationals.GeometricLaw(float(rest))
        if kind == "poisson":
            return rationals.PoissonLaw(float(rest))
        if kind == "degenerate":
            return rationals.DegenerateLaw(int(rest))
        if kind == "custom":
            table = {}
            for item in rest.split(","):
                m, sep, p = item.partition("=")
                if not sep:
                    raise ValueError(f"bad custom table entry {item!r}, expected m=p")
                den = int(m)
                if den in table:
                    raise ValueError(f"denominator {den} appears twice")
                table[den] = float(p)
            return rationals.CustomLaw(table)
    except ValueError as exc:
        raise ValueError(f"bad law {text!r}: {exc}") from exc
    raise ValueError(
        f"unknown law {text!r}; expected geometric:W, poisson:MEAN, degenerate:M "
        "or custom:m=p,..."
    )


def _tol(args: argparse.Namespace) -> float:
    from . import rationals

    return rationals.DEFAULT_TOL if args.tol is None else args.tol


def cmd_atom(args: argparse.Namespace) -> int:
    from . import rationals

    law = _parse_law(args.law)
    parts = args.q.split("/")
    if len(parts) != 2:
        raise ValueError(f"expected a fraction like 1/2, got {args.q!r}")
    q = rationals.canonicalize(int(parts[0]), int(parts[1]))
    value = rationals.atom_probability(q, law, _tol(args))
    return _emit(args, {"law": args.law, "q": str(q), "probability": value})


def cmd_cdf(args: argparse.Namespace) -> int:
    from . import rationals

    value = rationals.cdf(args.x, _parse_law(args.law), _tol(args))
    return _emit(args, {"law": args.law, "x": args.x, "value": value})


def cmd_interval(args: argparse.Namespace) -> int:
    from . import rationals

    value = rationals.interval_probability(args.a, args.b, _parse_law(args.law), _tol(args))
    return _emit(args, {"law": args.law, "a": args.a, "b": args.b, "probability": value})


def cmd_sample(args: argparse.Namespace) -> int:
    import numpy as np
    from . import montecarlo, rationals

    law = _parse_law(args.law)
    n = _check_samples(args.samples)
    seed = _resolve_seed(args)
    rng = montecarlo.stream_generator(seed, 0)
    # each chunk's (denominator, numerator) pairs become den * _MAX_CODE_BASE + num in the
    # denominators' own array, so that sorting these codes orders the atoms; it is the one n-sized array
    codes, walk = rationals._draw(law, rng, n)
    top = 0
    for lo, nums in walk:
        dens = codes[lo : lo + len(nums)]
        top = max(top, int(dens.max()))
        # the codes of a run refused below wrap, and are never read
        dens *= _MAX_CODE_BASE
        dens += nums
    # dens is a view: held, it would keep the codes alive past their last read
    del nums, dens
    if top >= _MAX_CODE_BASE:
        raise ValueError(f"drew denominator {top}; sample tabulates up to {_MAX_CODE_BASE - 1}")
    # sorted in place, the codes of each atom form one run, whose starts are found a chunk at a time
    codes.sort()
    step = rationals._CHUNK_CELLS
    changed = np.empty(min(n, step), bool)
    starts = [np.zeros(1, np.int64)]
    for lo in range(1, n, step):
        hi = min(lo + step, n)
        found = np.flatnonzero(np.not_equal(codes[lo:hi], codes[lo - 1 : hi - 1], out=changed[: hi - lo]))
        found += lo
        starts.append(found)
    starts = np.concatenate(starts)
    # every part of an atom is below _MAX_CODE_BASE < 2**32, so its columns are uint32
    den = np.empty(len(starts), np.uint32)
    num = np.empty(len(starts), np.uint32)
    for lo in range(0, len(starts), step):
        hi = lo + step
        np.divmod(codes[starts[lo:hi]], _MAX_CODE_BASE, out=(den[lo:hi], num[lo:hi]), casting="unsafe")
    del codes
    # each run's length, written over its start a chunk at a time: a chunk reads one start past it
    counts, last = starts, int(starts[-1])
    for lo in range(0, len(counts) - 1, step):
        hi = min(lo + step, len(counts) - 1)
        np.subtract(counts[lo + 1 : hi + 1], counts[lo:hi], out=counts[lo:hi])
    counts[-1] = n - last
    del starts
    # count and frequency follow from the count, and a table has few distinct counts:
    # each is encoded once, and each atom picks it by its rank among them
    present = np.zeros(int(counts.max()) + 1, bool)
    present[counts] = True
    picked = np.cumsum(present)[counts]
    picked -= 1
    del counts
    distinct = np.flatnonzero(present).tolist()
    columns = {
        "q": (num, den),
        "count": Lookup(distinct, picked),
        "frequency": Lookup([count / n for count in distinct], picked),
        "n": n,
        "seed": seed,
    }
    return _emit(args, {"law": args.law, **columns})


def cmd_converge(args: argparse.Namespace) -> int:
    from . import rationals

    family = (
        rationals.GeometricFamily() if args.family == "geometric" else rationals.PoissonFamily()
    )
    try:
        ks = [int(part) for part in args.ks.split(",")]
        a, b = (float(part) for part in args.probe.split(","))
    except ValueError as exc:
        raise ValueError(f"bad --ks or --probe: {exc}") from exc
    table = rationals.convergence_table(family, ks, (a, b), _tol(args))
    columns = _fields(
        table, "k", "pmf_sup", "pmf_sup_log_k", "harmonic_number", "mean_reciprocal", "interval_error"
    )
    return _emit(args, {"family": args.family, **columns})


# options that several subcommands take, each declared once: flag -> add_argument keywords
_SHARED_OPTIONS: dict[str, dict[str, Any]] = {
    "--samples": dict(type=int, default=DEFAULT_SAMPLES),
    "--seed": dict(type=int, default=None),
    "--shards": dict(type=int, default=1),
    "--law": dict(required=True),
    "--tol": dict(type=float, default=None),
}


def _command(sub: Any, name: str, help: str, handler: Any, *options: Any) -> None:
    """Add subcommand ``name`` run by ``handler``: ``options`` in order, then --format and --out.

    An option is a shared flag, or a (flag, keywords) pair extending the flag's shared spec if any.
    """
    p = sub.add_parser(name, help=help)
    for option in options:
        flag, keywords = (option, {}) if isinstance(option, str) else option
        p.add_argument(flag, **_SHARED_OPTIONS.get(flag, {}), **keywords)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None, help="write to this path instead of stdout")
    p.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bertrand-lab",
        description="Exact and Monte Carlo answers for the classic 'at random' paradoxes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _command(sub, "bertrand", "random chords vs the inscribed-triangle edge", cmd_bertrand,
             ("--model", dict(choices=[*_CHORD_TOKENS, "all"], default="all")),
             "--samples", "--seed", "--shards",
             ("--pushforward", dict(action="store_true",
                                    help="add the midpoint measure integrated in polar coordinates")))
    _command(sub, "buffon", "needle crossings and the implied pi estimate", cmd_buffon,
             ("--model", dict(choices=[*_NEEDLE_TOKENS, "all"], default="all")),
             "--samples", "--seed", "--shards")
    _command(sub, "squares", "number-vs-square probabilities on [0, 100]", cmd_squares,
             ("--threshold", dict(type=float, default=50.0, help="threshold on the [0, 100] scale")),
             ("--finite", dict(type=int, default=None, metavar="N_MAX",
                               help="also count integers 1..N_MAX exactly")))
    r = sub.add_parser("rationals", help="random rationals in [0, 1]")
    rsub = r.add_subparsers(dest="mode", required=True)
    _command(rsub, "atom", "probability of one rational value", cmd_atom,
             ("--q", dict(required=True, help="the rational, e.g. 1/2")),
             ("--law", dict(help="e.g. geometric:0.5, degenerate:2")), "--tol")
    _command(rsub, "cdf", "cumulative distribution at a point", cmd_cdf,
             ("--x", dict(type=float, required=True)), "--law", "--tol")
    _command(rsub, "interval", "probability of (a, b]", cmd_interval,
             ("--a", dict(type=float, required=True)), ("--b", dict(type=float, required=True)),
             "--law", "--tol")
    _command(rsub, "sample", "draw rationals and tabulate atom frequencies", cmd_sample,
             "--law", "--samples", "--seed")
    _command(rsub, "converge", "flattening diagnostics along a law family", cmd_converge,
             ("--family", dict(choices=["geometric", "poisson"], default="geometric")),
             ("--ks", dict(default="10,100,1000", help="comma-separated k schedule")),
             ("--probe", dict(default="0,0.5", help="probe interval a,b")), "--tol")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a reader that closed stdout early is met here, not at exit
    except BrokenPipeError:
        # the Python docs' recipe: the flush at exit writes to devnull, not to the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code
