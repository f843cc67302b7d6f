"""Command-line front end: evaluate one model, or compare two.

Exit codes are a stable scripting contract: 0 success, 2 input error
(unreadable or malformed data), 3 usage error (bad flags or arguments), 4
output error (stdout cannot be written), 130 interrupted (SIGINT, as by
Ctrl-C), with nothing printed. Output is deterministic for identical inputs
and flags; set CLFMETRICS_NO_COLOR to disable ANSI styling on terminals.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from typing import IO, TYPE_CHECKING, Iterable, NoReturn, Sequence

from . import __version__

if TYPE_CHECKING:  # the layers are imported where they are run, so that --version or --help loads none of them
    from .confusion import ConfusionMatrix
    from .metrics import ClassWeights, EvaluationReport, XentOptions

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_USAGE = 3
EXIT_OUTPUT = 4
EXIT_INTERRUPT = 130

_DELIMITERS = {"comma": ",", "tab": "\t"}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors and drops a failed write; here 2 is for input errors,
    and help and version go to stdout through _write, so that a failed write exits 4."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def _print_message(self, message: str, file: IO[str] | None = None) -> None:
        if file is sys.stderr:
            _say(message)
        elif message and _write([message.encode("utf-8")]) != EXIT_OK:
            self.exit(EXIT_OUTPUT)


def _build_parser() -> _Parser:
    parser = _Parser(prog="clfmetrics", description=__doc__)
    parser.add_argument("--version", action="version", version=f"clfmetrics {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser) -> None:
        p.add_argument(
            "--kind",
            required=True,
            choices=("labels", "probs", "matrix"),
            help="input file shape",
        )
        p.add_argument("--format", default="text", choices=("text", "json"))
        p.add_argument("--weights", metavar="PATH", help="CSV of class,weight overriding the frequency defaults")
        p.add_argument("--lenient", action="store_true", help="macro averages skip undefined classes instead of going undefined")
        p.add_argument("--reduce", default="mean", choices=("mean", "sum"), help="cross-entropy dataset reduction")
        p.add_argument("--epsilon", type=float, help="cross-entropy log clipping floor")  # None: XentOptions' default
        p.add_argument("--delimiter", default="comma", choices=("comma", "tab"))
        p.add_argument("--has-header", action="store_true", help="label files only: skip the first row")

    cmd_evaluate = commands.add_parser("evaluate", help="full metric report for one model")
    add_common(cmd_evaluate)
    cmd_evaluate.add_argument("path")

    cmd_compare = commands.add_parser("compare", help="side-by-side report for two models")
    add_common(cmd_compare)
    cmd_compare.add_argument("--kind-b", choices=("labels", "probs", "matrix"), help="input shape for side B when it differs")
    cmd_compare.add_argument("path_a")
    cmd_compare.add_argument("path_b")
    return parser


def _load_weights(path: str, matrix: ConfusionMatrix, delimiter: str) -> ClassWeights:
    """Read class,weight rows and lay them over the frequency defaults."""
    from .ingest import read_weights
    from .metrics import ClassWeights

    base = list(ClassWeights.from_actual_frequencies(matrix).w) if matrix.grand_total else [0] * matrix.k
    for label, value in read_weights(path, delimiter=delimiter, registry=matrix.registry):
        base[matrix.registry.index(label)] = value
    return ClassWeights(tuple(base))


def _evaluate_one(path: str, kind: str, args: argparse.Namespace, options: XentOptions) -> EvaluationReport:
    from .ingest import read_matrix, score_probs, tally_labels
    from .metrics import evaluate

    delimiter = _DELIMITERS[args.delimiter]
    cross_entropy = None
    if kind == "labels":
        matrix = tally_labels(path, delimiter=delimiter, has_header=args.has_header)
    elif kind == "matrix":
        matrix = read_matrix(path, delimiter=delimiter)
    else:
        matrix, cross_entropy = score_probs(path, delimiter=delimiter, options=options)

    weights = None
    weights_source = None
    if args.weights:
        weights = _load_weights(args.weights, matrix, delimiter)
        weights_source = f"file:{args.weights}"
    return evaluate(
        matrix,
        weights,
        lenient=args.lenient,
        dataset=path,
        weights_source=weights_source,
        epsilon=options.epsilon,
        reduce=options.reduce,
        cross_entropy=cross_entropy,
    )


def _write(payloads: Iterable[bytes]) -> int:
    """Write each payload to stdout, flushed before the next is made: EXIT_OK, or EXIT_OUTPUT at one it refuses."""
    try:
        if sys.stdout is None:  # the process started with its stdout closed
            raise OSError("stdout is closed")
        buffer = getattr(sys.stdout, "buffer", None)
        for payload in payloads:
            if buffer is None:
                sys.stdout.write(payload.decode("utf-8", errors="backslashreplace"))
                continue
            view = memoryview(payload)
            while view:  # a raw stdout (python -u) may take a part: a reader gone then fails the next write
                if (written := buffer.write(view)) is None:  # a raw non-blocking stdout that is full
                    raise BlockingIOError(errno.EAGAIN, "stdout would block")
                view = view[written:]
            sys.stdout.flush()
    except OSError as exc:
        if sys.stdout is not None:  # os.devnull in its place, so that the flush at exit cannot fail again
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):  # a reader that has gone wants no more, not an error
            _say(f"clfmetrics: error: cannot write output: {exc}\n")
        return EXIT_OUTPUT
    return EXIT_OK


def _say(text: str) -> None:
    """Write to stderr; a stderr that cannot take the text costs the text, not the exit code."""
    try:
        sys.stderr.write(text)
    except (AttributeError, OSError):  # AttributeError: stderr was closed at start and is None
        pass


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # Each layer is imported once the command is known, here, where a SIGINT still exits 130.
        from .ingest import IngestError
        from .metrics import XentOptions
        from .report import color_enabled, compare_reports, comparison_pieces, report_pieces

        try:
            options = XentOptions(reduce=args.reduce) if args.epsilon is None else XentOptions(args.epsilon, args.reduce)
        except ValueError as exc:
            _say(f"clfmetrics: error: {exc}\n")
            return EXIT_USAGE

        if args.command == "evaluate":
            sides = [("", args.path, args.kind)]
        else:
            sides = [("side A: ", args.path_a, args.kind), ("side B: ", args.path_b, args.kind_b or args.kind)]
        reports = []
        for tag, path, kind in sides:
            try:
                reports.append(_evaluate_one(path, kind, args, options))
            except (IngestError, OSError, ValueError) as exc:
                _say(f"clfmetrics: error: {tag}{exc}\n")
                return EXIT_INPUT

        if args.command == "evaluate":
            pieces = report_pieces(reports[0], args.format)
        else:
            pieces = comparison_pieces(compare_reports(*reports), args.format, color=color_enabled())
        return _write(piece.encode("utf-8", errors="backslashreplace") for piece in pieces)
    except KeyboardInterrupt:  # a forked half, if any, is already killed and reaped
        return EXIT_INTERRUPT


def run() -> NoReturn:
    """The command's entry point: main's code, or argparse's int exit code, once both streams are flushed,
    through os._exit. Interpreter teardown, atexit handlers included, is skipped: the report is already out."""
    try:
        code = main()
    except SystemExit as exc:  # --version, --help and usage errors; a code of another type propagates
        if exc.code is not None and not isinstance(exc.code, int):
            raise
        code = exc.code or 0
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except (OSError, ValueError):  # a full or closed stream costs what it holds, not the code
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
