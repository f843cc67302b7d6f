"""Report assembly and text rendering: aligned text tables and comparisons.

Output is deterministic byte for byte: fixed key order, no timestamps, the
tool version pinned in a header line. Confusion-matrix metrics carry both a
decimal rendering and the exact rational they were computed from, so reports
diff cleanly and exact values survive a round-trip. Undefined metrics are
rendered as an explicit token, never as 0 or an empty cell. JSON reports and
parse_json are in jsonreport.py, which only a JSON report loads, with json.
report_pieces and comparison_pieces give a writer a report in either format.
"""

from __future__ import annotations

import os
import sys
from decimal import Decimal
from fractions import Fraction
from functools import partial
from typing import Any, Callable, IO, Iterator, Sequence

from .confusion import _Frozen
from .metrics import EvaluationReport, MetricValue, Numeric

PER_CLASS_METRICS = ("precision", "recall", "f1")
_ANSI_HIGHLIGHT = "\x1b[33m"
_ANSI_RESET = "\x1b[0m"
# Text tables abbreviate a longer numerator or denominator, JSON always carries every digit.
# 4300 is CPython's default int-to-str limit: only numbers str() would refuse are cut.
_EXACT_MAX_DIGITS = 4300


def fraction_decimal(value: Fraction) -> str:
    """Exact decimal expansion of a rational, truncated after 18 places.

    Terminating expansions stop early, so 3/4 renders as "0.75". Truncation
    keeps the function exact and deterministic; the rational itself is always
    serialized alongside as the lossless form.
    """
    numerator, denominator = value.numerator, value.denominator
    sign = "-" if numerator < 0 else ""
    scaled, rem = divmod(abs(numerator) * 10**18, denominator)
    whole, places = divmod(scaled, 10**18)
    digits = f"{places:018d}" if rem else f"{places:018d}".rstrip("0")
    return f"{sign}{whole}.{digits}" if digits else f"{sign}{whole}"


def color_enabled(stream: IO[str] | None = None) -> bool:
    """ANSI styling is on only for a terminal, and CLFMETRICS_NO_COLOR kills it."""
    if os.environ.get("CLFMETRICS_NO_COLOR"):
        return False
    stream = stream if stream is not None else sys.stdout
    return bool(getattr(stream, "isatty", lambda: False)())


def _text_value(v: MetricValue) -> str:
    if not v.is_defined:
        return f"undef({v.reason.value})"
    return f"{float(v.unwrap()):.4f}"


def _rational_parts(value: Fraction) -> list[str]:
    """Digits of the numerator, and of the denominator unless it is 1, at any size."""
    parts = [_digits(value.numerator)]
    if value.denominator != 1:
        parts.append(_digits(value.denominator))
    return parts


def _digits(n: int) -> str:
    try:
        return int.__repr__(n)  # as json.dumps writes an int
    except ValueError:  # it refuses ints longer than sys.get_int_max_str_digits(); Decimal does not
        return str(Decimal(n))


def _text_exact(v: MetricValue) -> str:
    if not (v.is_defined and isinstance(v.unwrap(), Fraction)):
        return ""
    return "/".join(
        f"{part[:12]}...({len(part.lstrip('-'))} digits)" if len(part) > _EXACT_MAX_DIGITS else part
        for part in _rational_parts(v.unwrap())
    )


def _table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    """Left-aligned columns two spaces apart, trailing blanks trimmed: the header line, then one per row."""
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    return [
        "  ".join(f"{cell:<{w}}" for cell, w in zip(line, widths)).rstrip()
        for line in (header, *rows)
    ]


def render_text(report: EvaluationReport) -> str:
    """Aligned table at 4 decimal places, with exact rationals in a side column."""
    lines = [
        f"clfmetrics {report.tool_version}",
        f"dataset: {report.dataset}",
        f"classes ({report.k}): {', '.join(report.labels)}",
        f"units: {_digits(report.total_units)}",
        f"options: mode={report.mode} weights={report.weights_source} "
        f"epsilon={report.epsilon!r} reduce={report.reduce}",
        "",
    ]

    rows = [(name, _text_value(v), _text_exact(v)) for name, v in report.metrics.items()]
    lines += _table(("metric", "value", "exact"), rows)
    lines.append("")
    columns = [getattr(report.per_class, name) for name in PER_CLASS_METRICS]
    lines += _table(
        ("class", *PER_CLASS_METRICS),
        [(label, *(_text_value(c[i]) for c in columns)) for i, label in enumerate(report.labels)],
    )
    if report.skipped_classes is not None:
        lines.append("")
        skipped = " ".join(f"{k}={v}" for k, v in report.skipped_classes.items())
        lines.append(f"lenient averaging skipped undefined classes: {skipped}")
    return "\n".join(lines) + "\n"


def _pieces(fmt: str, subject: Any, text: Callable[[Any], str], tree: str) -> Iterator[str]:
    """subject in format fmt, in pieces for a writer to take in turn: text(subject) whole, or the JSON of the tree
    that jsonreport's function of that name makes, in jsonreport._json_pieces' pieces."""
    if fmt not in ("text", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    if fmt == "text":
        return iter([text(subject)])
    from . import jsonreport  # its own module: a text report neither compiles nor loads it, nor json

    return jsonreport._json_pieces(getattr(jsonreport, tree)(subject))


def report_pieces(report: EvaluationReport, fmt: str) -> Iterator[str]:
    return _pieces(fmt, report, render_text, "_report_to_obj")


def format_report(report: EvaluationReport, fmt: str = "text") -> bytes:
    """Serialize a report to UTF-8 bytes in the requested format; a path's undecodable bytes read as in JSON."""
    return "".join(report_pieces(report, fmt)).encode("utf-8", errors="backslashreplace")


class ComparisonReport(_Frozen):
    """Two evaluation reports side by side with per-metric deltas.

    Deltas are side B minus side A and exist only where both sides are
    defined. Class registries need not match; when they differ the per-class
    deltas are suppressed and the chance-corrected agreement score (kappa) is
    the row to compare, since removing the accuracy expected from the
    marginals alone is what makes two different datasets commensurable.
    """

    __slots__ = __match_args__ = ("a", "b", "registries_match", "deltas", "per_class_deltas", "notes", "flagged")

    def __init__(
        self, a: EvaluationReport, b: EvaluationReport, registries_match: bool, deltas: dict[str, Numeric | None],
        per_class_deltas: dict[str, dict[str, Numeric | None]] | None, notes: tuple[str, ...],
        flagged: tuple[str, ...] = (),
    ) -> None:
        self._fill(a, b, registries_match, deltas, per_class_deltas, notes, flagged)


def _delta(a: MetricValue, b: MetricValue) -> Numeric | None:
    return None if a.value is None or b.value is None else b.value - a.value


def compare_reports(a: EvaluationReport, b: EvaluationReport) -> ComparisonReport:
    """Build the side-by-side comparison of two evaluation reports, each per-class delta once per distinct
    pair of operands: per_class shares a value among classes with equal tallies, so their ids find repeats."""
    match = a.labels == b.labels
    deltas = {name: _delta(v, b.metrics[name]) for name, v in a.metrics.items() if name in b.metrics}

    per_class_deltas: dict[str, dict[str, Numeric | None]] | None = None
    if match:
        made: dict[tuple[int, int], Numeric | None] = {}  # both reports, alive throughout, hold the keyed operands
        per_class_deltas = {label: {} for label in a.labels}
        for name in PER_CLASS_METRICS:
            for label, x, y in zip(a.labels, getattr(a.per_class, name), getattr(b.per_class, name)):
                pair = id(x), id(y)
                if pair not in made:
                    made[pair] = _delta(x, y)
                per_class_deltas[label][name] = made[pair]

    notes: list[str] = []
    flagged: list[str] = []
    kappa_delta = deltas["kappa"]  # a delta is None unless both sides are defined
    if match and deltas["accuracy"] == 0 and kappa_delta not in (None, 0):
        flagged.append("kappa")
        better = "B" if kappa_delta > 0 else "A"
        notes.append(
            "equal accuracy but different kappa: the two models distribute their "
            f"errors differently across classes; side {better} agrees more beyond chance."
        )
    if not match:
        notes.append(
            "class registries differ; per-class deltas are suppressed. kappa subtracts "
            "the agreement expected from the marginals alone, so it remains comparable "
            "across different datasets."
        )
    return ComparisonReport(
        a=a,
        b=b,
        registries_match=match,
        deltas=deltas,
        per_class_deltas=per_class_deltas,
        notes=tuple(notes),
        flagged=tuple(flagged),
    )


def _text_delta(value: Numeric | None) -> str:
    if value is None:
        return "undef(operand_undefined)"
    return f"{float(value):+.4f}"


def render_comparison_text(comparison: ComparisonReport, color: bool = False) -> str:
    a, b = comparison.a, comparison.b
    lines = [
        f"clfmetrics {a.tool_version}",
        f"compare: A={a.dataset}  B={b.dataset}",
        f"class registries match: {'yes' if comparison.registries_match else 'no'}",
        "",
    ]
    rows = []
    for name, delta in comparison.deltas.items():
        marker = "<< differs at equal accuracy" if name in comparison.flagged else ""
        rows.append((name, _text_value(a.metrics[name]), _text_value(b.metrics[name]), _text_delta(delta), marker))
    header, *table = _table(("metric", "A", "B", "delta", ""), rows)
    lines.append(header)
    for line, row in zip(table, rows):
        lines.append(f"{_ANSI_HIGHLIGHT}{line}{_ANSI_RESET}" if color and row[-1] else line)
    if comparison.per_class_deltas is not None:
        lines.append("")
        lines.append("per-class deltas (B - A):")
        lines += _table(
            ("class", *PER_CLASS_METRICS),
            [
                (label, *(_text_delta(d[name]) for name in PER_CLASS_METRICS))
                for label, d in comparison.per_class_deltas.items()
            ],
        )
    if comparison.notes:
        lines.append("")
        lines.append("notes:")
        for note in comparison.notes:
            lines.append(f"  - {note}")
    return "\n".join(lines) + "\n"


def comparison_pieces(comparison: ComparisonReport, fmt: str, color: bool = False) -> Iterator[str]:
    return _pieces(fmt, comparison, partial(render_comparison_text, color=color), "_comparison_to_obj")


def format_comparison(comparison: ComparisonReport, fmt: str = "text", color: bool = False) -> bytes:
    return "".join(comparison_pieces(comparison, fmt, color)).encode("utf-8", errors="backslashreplace")
