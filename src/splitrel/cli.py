"""Command-line front end for the split-half reliability toolkit.

Five subcommands: ``split``, ``reliability``, ``truescore``, ``battery``
and ``simulate``.  Reports are JSON (optionally CSV tables where a table
is the natural shape) wrapped in a provenance envelope carrying the tool
version, the sha256 digest of every input file, and the effective
parameters.  Nothing time-dependent goes into a report, so a rerun on
the same inputs writes byte-identical output.

A command loads the toolkit modules it runs the first time it runs them,
so ``simulate`` never loads the splitter and ``reliability`` never loads
the battery algebra.

Exit codes: 0 success, 1 usage or validation error (or too little
memory), 2 degenerate computation (zero variance, singular matrix, an
unconverged F-test p-value, or a reliability outside [0, 1] for ``truescore``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import stat
import sys
import threading
from importlib import import_module
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

# An idle OpenBLAS worker spins for about 2**28 cycles before it sleeps,
# and start-up pays for that spin; with 2**4 it sleeps at once.  Only the
# wait changes, not the thread count, so no threaded sum changes its order.
# A value the caller set wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

import numpy as np

from ._version import __version__
from .data_model import (
    ExamineeScores,
    RowBlock,
    ScoreMatrix,
    TestStats,
    descriptive_stats,
    load_score_matrix,
    write_score_matrix,
)
from .errors import Degenerate, ToolkitError

if TYPE_CHECKING:
    # bound at run time by ``_bind``, when a command first needs them
    from .battery import (
        BatteryInput,
        ComponentTest,
        covariance_matrix,
        eigen_weights,
        equal_weights,
        nonnegative_weights,
        optimal_weights,
        weighted_reliability,
    )
    from .reliability import (
        ReliabilityReport,
        SubTestScores,
        classical_reliability,
        sub_test_scores,
        true_score_geometry,
    )
    from .simulate import SimModel, generate
    from .splitter import SplitResult, split
    from .truescore import compare_estimators, estimate_true_scores, percentile_rank

__all__ = ["Analysis", "analyze", "main", "load_schema"]

_WEIGHT_METHODS = ("optimal", "nonneg", "eigen-cov", "eigen-corr", "equal")

# rows of a ``RowBlock`` that ``_rows`` renders and writes as one piece
_CHUNK_ROWS = 4096

# values that ``_json`` writes as nested JSON rather than as one scalar
_CONTAINERS = (dict, list, tuple, np.ndarray, RowBlock)

# namespace entries that are not analysis parameters of the envelope
_NOT_PARAMETERS = frozenset(
    {"command", "handler", "input", "inputs", "output", "fmt", "digests"}
)

# the toolkit modules that ``_bind`` loads when a command first runs them
_LAZY_MODULES = ("splitter", "reliability", "truescore", "battery", "simulate")
_bound: set[str] = set()


def _bind(*modules: str) -> None:
    """Bind the public names of each toolkit module in ``modules`` here, once.

    A name already bound keeps its value, so a function a caller has
    replaced here (a tracer's wrapper, a test's stub) is the one called.
    """
    for module in modules:
        if module not in _bound:
            loaded = import_module(f".{module}", __package__)
            for name in loaded.__all__:
                globals().setdefault(name, getattr(loaded, name))
            _bound.add(module)


def __getattr__(name: str):
    # a toolkit name looked up from outside before any command bound it;
    # the import system's probes, such as ``__path__``, load nothing
    if not name.startswith("_"):
        _bind(*_LAZY_MODULES)
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, but 2 is reserved
    # here for degenerate computations; remap usage problems to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)

    # argparse drops a failed write of --help or --version and exits 0;
    # write and flush here, so that ``main`` reports it as any OSError
    def _print_message(self, message, file=None):
        if message:
            file = file or sys.stderr
            file.write(message)
            file.flush()


class _UsageError(ToolkitError):
    exit_code = 1


class Analysis(NamedTuple):
    """One split matrix carried through half scores, totals, stats and the report."""

    split: SplitResult
    scores: SubTestScores
    x: ExamineeScores
    stats: TestStats
    report: ReliabilityReport


def analyze(m: ScoreMatrix, result: SplitResult) -> Analysis:
    """Half scores, reduced-test totals and stats, and the classical report
    of a split of ``m``.

    ``x`` and the stats describe the reduced test: a dropped odd item is
    in neither half, so it does not count towards n.
    """
    _bind("reliability")
    scores = sub_test_scores(m, result.assignment)
    x = ExamineeScores(scores.combined())
    stats = descriptive_stats(x, 2 * result.assignment.n_rows)
    return Analysis(result, scores, x, stats, classical_reliability(scores, stats))


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _InputDigests(threading.Thread):
    """The sha256 of each input path, hashed once per distinct path.

    This daemon thread hashes the regular files while the command parses
    them (hashlib releases the GIL); a pipe's or FIFO's one reader adds
    the digest of the bytes it read.  ``by_path`` raises what the thread
    raised, and hashes a path that became a regular file meanwhile.
    """

    def __init__(self, paths: list[str]) -> None:
        super().__init__(daemon=True)
        self.paths = list(dict.fromkeys(paths))
        self.digests: dict[str, str] = {}
        self.error: Exception | None = None
        self.start()

    def run(self) -> None:
        try:
            for path in self.paths:
                if stat.S_ISREG(os.stat(path).st_mode):
                    self.digests[path] = _sha256(path)
        except Exception as exc:
            self.error = exc

    def add(self, path: str, data: bytes) -> None:
        self.digests[path] = hashlib.sha256(data).hexdigest()

    def by_path(self) -> dict[str, str]:
        self.join()
        if self.error is not None:
            raise self.error
        return {path: self.digests.get(path) or _sha256(path) for path in self.paths}


def _envelope(args: argparse.Namespace, report: dict) -> dict:
    options = vars(args)
    return {
        "tool": "splitrel",
        "version": __version__,
        "command": args.command,
        "parameters": {k: v for k, v in options.items() if k not in _NOT_PARAMETERS},
        "inputs": args.digests.by_path(),
        "report": report,
    }


def _emit(pieces: Iterable[str], output: str | None) -> None:
    """Write the text ``pieces`` one by one to ``output``, or to stdout."""
    if output is None:
        sys.stdout.writelines(pieces)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)


def _json_values(values: list) -> list[str]:
    """The JSON text of each scalar in a list, as ``_dump`` writes it."""
    kinds = set(map(type, values))
    if kinds <= {int}:
        return list(map(int.__repr__, values))
    if kinds <= {float} and all(map(math.isfinite, values)):
        return list(map(float.__repr__, values))
    if kinds <= {bool}:
        return ["true" if v else "false" for v in values]
    values = [v.item() if isinstance(v, np.generic) else v for v in values]
    return [
        "null" if isinstance(v, float) and not math.isfinite(v) else json.dumps(v) for v in values
    ]


def _rows(block: RowBlock, pieces: list, end: str, sep: str, text: Callable) -> Iterator[str]:
    """The rows of ``block``, ``sep`` between them, in chunks of ``_CHUNK_ROWS``
    rows.  A row is ``piece`` and the text of column k for each ``(k, piece)``
    of ``pieces``, then ``end``.  Each column that ``block.coding()`` marks
    as coded is rendered once per code, at the representative rows, and
    each run of them is one segment per code, with the pieces and the row
    end inside.  Every other column has one text per row, from ``text``,
    which maps a list of values to their texts.  A chunk is one join over
    the segments' texts of its rows."""
    codes, reps, coded = block.coding()
    n_rows = codes.size
    segments: list[tuple[np.ndarray, np.ndarray | None]] = []
    texts = [""] * reps.size
    for k, piece in pieces:
        column = block.columns[k]
        if coded[k]:
            values = text(column[reps].tolist())
            texts = [row + piece + value for row, value in zip(texts, values)]
            continue
        segments.append((np.array([row + piece for row in texts], dtype=object), codes))
        segments.append((np.array(text(column.tolist()), dtype=object), None))
        texts = [""] * reps.size
    segments.append((np.array([row + end + sep for row in texts], dtype=object), codes))
    for start in range(0, n_rows, _CHUNK_ROWS):
        rows = slice(start, min(start + _CHUNK_ROWS, n_rows))
        cells = np.empty((rows.stop - start, len(segments)), dtype=object)
        for s, (segment, index) in enumerate(segments):
            cells[:, s] = segment[rows] if index is None else segment[index[rows]]
        if rows.stop == n_rows:
            cells[-1, -1] = cells[-1, -1].removesuffix(sep)
        yield "".join(cells.ravel().tolist())


def _csv(block: RowBlock) -> Iterator[str]:
    """The text a ``csv.writer`` with line terminator ``\\n`` writes for
    the fields of ``block`` and then its rows, in pieces."""
    import csv
    import io

    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(block.fields)
    yield header.getvalue()
    pieces = [(k, "," if k else "") for k in range(len(block.fields))]
    yield from _rows(block, pieces, "\n", "", lambda values: list(map(str, values)))


def _json(obj, indent: str) -> Iterator[str]:
    """The text ``json.dumps(obj, indent=2, sort_keys=True)`` writes for
    ``obj`` on a line indented by ``indent``, in pieces: dict keys as
    ``str(k)``, numpy scalars as Python ones, NaN and inf as ``null``.  A
    list of scalars is one piece, and a ``RowBlock`` (as its row dicts) one
    piece per chunk of rows."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    inner = indent + "  "
    if isinstance(obj, dict):
        items = {str(k): v for k, v in obj.items()}
        for n, key in enumerate(sorted(items)):
            yield f"{',' if n else '{'}\n{inner}{json.dumps(key)}: "
            yield from _json(items[key], inner)
        yield f"\n{indent}}}" if items else "{}"
    elif not isinstance(obj, (list, tuple, RowBlock)):
        yield _json_values([obj])[0]
    elif isinstance(obj, RowBlock) or not any(
        issubclass(kind, _CONTAINERS) for kind in set(map(type, obj))
    ):
        if isinstance(obj, RowBlock):
            keys = [
                (k, f"{',' if j else '{'}\n{inner}  {json.dumps(obj.fields[k])}: ")
                for j, k in enumerate(sorted(range(len(obj.fields)), key=obj.fields.__getitem__))
            ]
            chunks = _rows(obj, keys, f"\n{inner}}}", f",\n{inner}", _json_values)
        else:
            chunks = iter([f",\n{inner}".join(_json_values(obj))])
        first = next(chunks, "")
        yield from chain([f"[\n{inner}", first], chunks, [f"\n{indent}]"]) if first else ["[]"]
    else:
        for n, value in enumerate(obj):
            yield f"{',' if n else '['}\n{inner}"
            yield from _json(value, inner)
        yield f"\n{indent}]"


def _dump(envelope: dict, output: str | None) -> None:
    _emit(chain(_json(envelope, ""), ["\n"]), output)


def load_schema() -> dict:
    """The published JSON schema that every report envelope satisfies."""
    from importlib import resources

    text = resources.files("splitrel").joinpath("report_schema.json").read_text("utf-8")
    return json.loads(text)


def _load_and_split(path: str, args: argparse.Namespace) -> tuple[ScoreMatrix, SplitResult]:
    _bind("splitter")
    source = path
    if not stat.S_ISREG(os.stat(path).st_mode):
        # a pipe or FIFO gives its bytes once: digest the bytes parsed
        with open(path, "rb") as fh:
            source = fh.read()
        args.digests.add(path, source)
    m = load_score_matrix(source, has_header=args.has_header)
    return m, split(m, args.criterion, max_iter=args.max_iter, policy=args.policy)


def _histogram(values: np.ndarray, capacity: int, width: int) -> list[int]:
    # fixed-width bins [k*w, (k+1)*w) covering every reachable score,
    # so the counts always sum to the number of examinees; any width
    # above the capacity gives one bin, as capacity + 1 does inside int64
    width = min(width, capacity + 1)
    counts = np.bincount(values // width, minlength=capacity // width + 1)
    return [int(c) for c in counts]


def _cmd_split(args: argparse.Namespace) -> None:
    _, result = _load_and_split(args.input, args)
    if args.fmt == "csv":
        _emit(_csv(result.to_dict()["rows"]), args.output)
        return
    _dump(_envelope(args, result.to_dict()), args.output)


def _cmd_reliability(args: argparse.Namespace) -> None:
    result, scores, x, stats, report = analyze(*_load_and_split(args.input, args))
    n_pair = result.assignment.n_rows
    stats_g = descriptive_stats(ExamineeScores(scores.g), n_pair)
    stats_h = descriptive_stats(ExamineeScores(scores.h), n_pair)

    geometry = None
    warnings = []
    if 0.0 <= report.r_tt <= 1.0:
        geometry = true_score_geometry(stats, report.r_tt)._asdict()
    else:
        warnings.append("true-score geometry skipped: r_tt outside [0, 1]")

    body = {
        "split": result.to_dict(),
        "stats": {
            "full": stats.to_dict(),
            "g": stats_g.to_dict(),
            "h": stats_h.to_dict(),
        },
        "reliability": report.to_dict(),
        "true_score_geometry": geometry,
        "histograms": {
            "bin_width": args.bin_width,
            "full": _histogram(x.totals, stats.n, args.bin_width),
            "g": _histogram(scores.g, n_pair, args.bin_width),
            "h": _histogram(scores.h, n_pair, args.bin_width),
        },
        "warnings": warnings,
    }
    _dump(_envelope(args, body), args.output)


def _cmd_truescore(args: argparse.Namespace) -> None:
    if args.fmt == "csv" and args.percentile_of is not None:
        # the CSV table has no place for the rank, so it would be dropped
        raise _UsageError("argument --percentile-of: not allowed with --format csv")
    _bind("truescore")
    _, _, x, stats, report = analyze(*_load_and_split(args.input, args))
    r = report.r_tt if args.reliability_kind == "classical" else report.r_gh
    if not 0.0 <= r <= 1.0:
        # a negative or undefined reliability is degenerate data, not bad input
        raise Degenerate(
            f"{args.reliability_kind} reliability is {r!r}, outside [0, 1], "
            "so true scores are undefined"
        )
    table = estimate_true_scores(x, stats, r, args.reliability_kind)
    if args.fmt == "csv":
        _emit(_csv(table.row_block()), args.output)
        return
    comparison = compare_estimators(x, stats, report.r_tt, report.r_gh)
    percentile = None
    if args.percentile_of is not None:
        percentile = {
            "t": args.percentile_of,
            "rank": percentile_rank(table, args.percentile_of),
        }
    body = {
        "reliability": report.to_dict(),
        "table": table.to_dict(),
        "comparison": comparison.to_dict(),
        "percentile": percentile,
    }
    _dump(_envelope(args, body), args.output)


def _pick_weights(method: str, d, k: int):
    if method == "optimal":
        return optimal_weights(d)
    if method == "nonneg":
        return nonnegative_weights(d)
    if method == "eigen-cov":
        return eigen_weights(d, "cov_proportional")
    if method == "eigen-corr":
        return eigen_weights(d, "corr_scaled")
    return equal_weights(k)


def _cmd_battery(args: argparse.Namespace) -> None:
    _bind("battery")
    tests = []
    details = []
    for path in args.inputs:
        result, _, x, stats, report = analyze(*_load_and_split(path, args))
        tests.append(ComponentTest(scores=x, S_X_sq=stats.variance, r_tt=report.r_tt, name=path))
        details.append(
            {
                "name": path,
                "N": stats.N,
                "n_reduced": stats.n,
                "abs_S": result.abs_S,
                "r_tt": report.r_tt,
                "r_gh": report.r_gh,
                "variance": stats.variance,
            }
        )
    battery = BatteryInput(tests=tuple(tests))
    d = covariance_matrix(battery)
    weights = _pick_weights(args.weights, d, battery.k)
    battery_report = weighted_reliability(battery, d, weights)
    body = {
        "battery": battery_report.to_dict(),
        "component_details": details,
    }
    _dump(_envelope(args, body), args.output)


def _cmd_simulate(args: argparse.Namespace) -> None:
    _bind("simulate")
    model = SimModel(kind=args.model, N=args.N, n=args.n, seed=args.seed)
    sidecar = args.output + ".meta.json"
    open(sidecar, "w").close()  # made first, so failing here leaves --output unwritten
    try:
        digest = write_score_matrix(generate(model), args.output)
    except BaseException:
        os.unlink(sidecar)
        raise
    _dump(_envelope(args, {**model.metadata(), "matrix_sha256": digest}), sidecar)


def _seed(text: str) -> int:
    seed = int(text)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def _bin_width(text: str) -> int:
    width = int(text)
    if width < 1:
        raise argparse.ArgumentTypeError(f"bin width must be a positive integer, got {width}")
    return width


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


# argparse names the type in "invalid int value: 'x'" when int() fails
_seed.__name__ = _bin_width.__name__ = "int"
_finite.__name__ = "float"


def _build_parser() -> _Parser:
    parser = _Parser(prog="splitrel", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"splitrel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json",)):
        p.add_argument("--output", help="write the report here instead of stdout")
        if len(formats) > 1:
            p.add_argument("--format", choices=formats, default="json", dest="fmt")

    def split_opts(p):
        p.add_argument("--has-header", action="store_true", help="first row holds item ids")
        p.add_argument("--criterion", choices=("abs_S", "product"), default="abs_S")
        p.add_argument("--max-iter", type=int, default=None)
        p.add_argument("--policy", choices=("single", "all"), default="single")

    def matrix_opts(p):
        p.add_argument("--input", required=True, help="CSV of 0/1 scores, rows are examinees")
        split_opts(p)

    p = sub.add_parser("split", help="dichotomise a test into two parallel halves")
    p.set_defaults(handler=_cmd_split)
    matrix_opts(p)
    common(p, formats=("json", "csv"))

    p = sub.add_parser("reliability", help="split, then compute the reliability report")
    p.set_defaults(handler=_cmd_reliability)
    matrix_opts(p)
    p.add_argument(
        "--bin-width", type=_bin_width, default=1, help="histogram bin width in score units"
    )
    common(p)

    p = sub.add_parser("truescore", help="per-examinee true-score estimates")
    p.set_defaults(handler=_cmd_truescore)
    matrix_opts(p)
    p.add_argument(
        "--kind",
        choices=("classical", "split_half"),
        default="classical",
        dest="reliability_kind",
        help="which reliability to regress with",
    )
    p.add_argument("--percentile-of", type=_finite, default=None, metavar="T")
    common(p, formats=("json", "csv"))

    p = sub.add_parser("battery", help="battery reliability over several tests")
    p.set_defaults(handler=_cmd_battery)
    p.add_argument("--inputs", required=True, nargs="+", help="one score CSV per test")
    split_opts(p)
    p.add_argument("--weights", choices=_WEIGHT_METHODS, default="optimal")
    common(p)

    p = sub.add_parser("simulate", help="generate a synthetic score matrix")
    p.set_defaults(handler=_cmd_simulate)
    p.add_argument("--model", choices=("D1", "D2", "D3", "D4"), required=True)
    p.add_argument("--N", type=int, required=True, help="number of examinees")
    p.add_argument("--n", type=int, required=True, help="number of items")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--output", required=True, help="matrix CSV path; metadata sidecar gets .meta.json")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; library callers use this."""
    parser = _build_parser()
    digests = None
    try:
        args = parser.parse_args(argv)
        options = vars(args)
        paths = options.get("inputs", [options["input"]] if "input" in options else [])
        args.digests = digests = _InputDigests(paths)
        args.handler(args)
        sys.stdout.flush()
        return 0
    except ToolkitError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error[MemoryError]: {str(exc) or 'not enough memory'}", file=sys.stderr)
        return 1
    finally:
        if digests is not None:
            digests.join()


def run() -> None:
    """The process entry point: ``main``, then ``os._exit`` without the
    interpreter's teardown; ``main`` has flushed and closed every output."""
    try:
        code = main()
    except SystemExit as exc:
        # --help and --version, written and flushed, end in argparse's exit
        code = exc.code
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
