"""Report assembly and serialization: aligned text tables and stable JSON.

Output is deterministic byte for byte: fixed key order, no timestamps, the
tool version pinned in a header line. Confusion-matrix metrics carry both a
decimal rendering and the exact rational they were computed from, so reports
diff cleanly and exact values survive a round-trip. Undefined metrics are
rendered as an explicit token, never as 0 or an empty cell.

JSON is byte for byte the standard library's json.dumps(obj, indent=2,
ensure_ascii=True) layout, all written by _json_text: json.dumps serves indent
only from its pure-Python encoder, several times slower on a large report. A
per-class table, most of a large-K report, is one f-string per class around
each distinct value's leaf, written once (_per_class_json). Ints of any
length are written whole. report_pieces and comparison_pieces give a writer one table at a time.
"""

from __future__ import annotations

import json
import os
import re
import sys
from decimal import Decimal
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii as _escape
from typing import Any, Callable, IO, Iterator, Sequence

from .confusion import _Frozen
from .metrics import (
    EvaluationReport,
    MetricValue,
    Numeric,
    PerClassBreakdown,
    UndefinedReason,
)

SCHEMA_VERSION = 1
PER_CLASS_METRICS = ("precision", "recall", "f1")
_ANSI_HIGHLIGHT = "\x1b[33m"
_ANSI_RESET = "\x1b[0m"
# Text tables abbreviate a longer numerator or denominator, JSON always carries every digit.
# 4300 is CPython's default int-to-str limit: only numbers str() would refuse are cut.
_EXACT_MAX_DIGITS = 4300
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


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


def _parse_rational(text: str) -> Fraction:
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f"bad rational {text!r}")
    numerator, denominator = match.groups()
    return Fraction(int(Decimal(numerator)), int(Decimal(denominator or 1)))


def _text_exact(v: MetricValue) -> str:
    if not (v.is_defined and isinstance(v.unwrap(), Fraction)):
        return ""
    return "/".join(
        f"{part[:12]}...({len(part.lstrip('-'))} digits)" if len(part) > _EXACT_MAX_DIGITS else part
        for part in _rational_parts(v.unwrap())
    )


def _cell(v: MetricValue) -> Numeric | str:
    """A metric value as its number, or as the name of the reason it is undefined."""
    return v.reason.value if v.value is None else v.value


def _json_leaf(cell: Numeric | str | None) -> dict[str, str]:
    """A number's decimal and exact rational, or why it is undefined: a reason's name, or None for a delta's operand."""
    if cell is None or type(cell) is str:
        return {"undefined": cell or "operand_undefined"}
    if isinstance(cell, Fraction):
        return {"value": fraction_decimal(cell), "rational": "/".join(_rational_parts(cell))}
    return {"value": repr(cell)}


def _parse_json_value(obj: dict[str, str]) -> MetricValue:
    if "undefined" in obj:
        return MetricValue.undefined(UndefinedReason(obj["undefined"]))
    if "rational" in obj:
        return MetricValue.defined(_parse_rational(obj["rational"]))
    return MetricValue.defined(float(obj["value"]))


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


def _report_to_obj(report: EvaluationReport) -> dict[str, Any]:
    metrics = dict(report.metrics)
    xent = metrics.pop("cross_entropy", None)  # schema v1 keeps it outside "metrics"
    obj: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "tool": "clfmetrics",
        "tool_version": report.tool_version,
        "report": "evaluation",
        "dataset": report.dataset,
        "classes": list(report.labels),
        "num_classes": report.k,
        "units": report.total_units,
        "options": {
            "mode": report.mode,
            "weights": report.weights_source,
            "epsilon": repr(report.epsilon),
            "reduce": report.reduce,
        },
        "metrics": {name: _json_leaf(_cell(v)) for name, v in metrics.items()},
        "per_class": partial(_per_class_json, dict(zip(report.labels, zip(*(
            map(_cell, getattr(report.per_class, name)) for name in PER_CLASS_METRICS
        ))))),
    }
    if xent is not None:
        obj["cross_entropy"] = _json_leaf(_cell(xent))
    if report.skipped_classes is not None:
        obj["skipped_classes"] = dict(report.skipped_classes)
    return obj


def _json_text(obj: Any, pad: str = "", defer: Callable[[Callable[[], str]], None] | None = None) -> str:
    """obj as json.dumps(obj, indent=2, ensure_ascii=True) writes it, indented by pad.

    Takes dicts with str keys, lists, str, int, bool and None; any other type raises TypeError. Strings are escaped
    by the json module's C escaper. Given defer, a function of the pad (a per-class table) is handed to it, bound to
    its pad, and written as a NUL, which the escaper writes as \u0000 anywhere else.
    """
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return _digits(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        return _block([_escape(k) + ": " + _json_text(v, inner, defer) for k, v in obj.items()], pad, "{}")
    if isinstance(obj, list):
        return _block([_json_text(v, inner, defer) for v in obj], pad, "[]")
    if callable(obj) and defer is not None:
        return defer(partial(obj, pad)) or "\0"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _block(items: list[str], pad: str, brackets: str = "{}") -> str:
    """Written items one per line, indented one level past pad, inside the brackets closed at pad."""
    inner = "\n" + pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + pad + brackets[1] if items else brackets


def _per_class_json(rows: dict[str, tuple[Numeric | str | None, ...]], pad: str) -> str:
    """{label: {metric: leaf}} as _json_text writes it at pad, from each label's cells in PER_CLASS_METRICS order.

    Each label's entry is one f-string. Each distinct cell's leaf is written once and reused, keyed on a Fraction's
    numerator and denominator, or else on type and repr, so that 1 and Fraction(1), or 0.0 and -0.0, stay apart.
    A Fraction's leaf is one f-string of digits, which need no escape; any other takes _json_leaf and _json_text.
    """
    inner, deep, close = "\n" + pad + "    ", "\n" + pad + "      ", "\n" + pad + "  }"
    p, r, f = (inner + _escape(name) + ": " for name in PER_CLASS_METRICS)
    memo: dict[tuple, str] = {}

    def leaf(cell: Numeric | str | None) -> str:
        fraction = isinstance(cell, Fraction)
        key = (cell.numerator, cell.denominator) if fraction else (type(cell), repr(cell))
        if key not in memo:
            memo[key] = (
                f'{{{deep}"value": "{fraction_decimal(cell)}",{deep}"rational": "{"/".join(_rational_parts(cell))}"'
                f"{inner}}}" if fraction else _json_text(_json_leaf(cell), pad + "    ")
            )
        return memo[key]

    parts = [f"{_escape(label)}: {{{p}{leaf(x)},{r}{leaf(y)},{f}{leaf(z)}{close}" for label, (x, y, z) in rows.items()]
    return _block(parts, pad)


def _json_pieces(obj: Any) -> Iterator[str]:
    """_json_text(obj) and a line end, in pieces: the text around the per-class tables, each table when asked for."""
    tables: list[Callable[[], str]] = []
    first, *texts = (_json_text(obj, "", tables.append) + "\n").split("\0")
    yield first
    for table, text in zip(tables, texts):
        yield from (table(), text)


def render_json(report: EvaluationReport) -> str:
    return "".join(_json_pieces(_report_to_obj(report)))


def parse_json(text: str) -> EvaluationReport:
    """Rebuild an evaluation report from its JSON form, losslessly."""
    obj = json.loads(text, parse_int=lambda digits: int(Decimal(digits)))  # int() refuses ints past the limit
    if obj.get("report") != "evaluation":
        raise ValueError(f"not an evaluation report: {obj.get('report')!r}")
    labels = tuple(obj["classes"])
    per_class = obj["per_class"]
    breakdown = PerClassBreakdown(**{
        name: tuple(_parse_json_value(per_class[lab][name]) for lab in labels)
        for name in PER_CLASS_METRICS
    })
    metrics = {name: _parse_json_value(v) for name, v in obj["metrics"].items()}
    if "cross_entropy" in obj:
        metrics["cross_entropy"] = _parse_json_value(obj["cross_entropy"])
    skipped = obj.get("skipped_classes")
    return EvaluationReport(
        dataset=obj["dataset"],
        labels=labels,
        total_units=obj["units"],
        metrics=metrics,
        per_class=breakdown,
        mode=obj["options"]["mode"],
        weights_source=obj["options"]["weights"],
        epsilon=float(obj["options"]["epsilon"]),
        reduce=obj["options"]["reduce"],
        skipped_classes=dict(skipped) if skipped is not None else None,
        tool_version=obj["tool_version"],
    )


def _pieces(fmt: str, text: Callable[[], str], tree: Callable[[], dict[str, Any]]) -> Iterator[str]:
    """A report in format fmt, in pieces for a writer to take in turn: text() whole, or tree()'s JSON (_json_pieces)."""
    if fmt not in ("text", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    return iter([text()]) if fmt == "text" else _json_pieces(tree())


def report_pieces(report: EvaluationReport, fmt: str) -> Iterator[str]:
    return _pieces(fmt, partial(render_text, report), partial(_report_to_obj, report))


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


def _comparison_to_obj(comparison: ComparisonReport) -> dict[str, Any]:
    obj: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "tool": "clfmetrics",
        "tool_version": comparison.a.tool_version,
        "report": "comparison",
        "a": _report_to_obj(comparison.a),
        "b": _report_to_obj(comparison.b),
        "registries_match": comparison.registries_match,
        "deltas": {name: _json_leaf(d) for name, d in comparison.deltas.items()},
        "flagged": list(comparison.flagged),
        "notes": list(comparison.notes),
    }
    if comparison.per_class_deltas is not None:
        obj["per_class_deltas"] = partial(_per_class_json, {
            label: tuple(d[m] for m in PER_CLASS_METRICS)
            for label, d in comparison.per_class_deltas.items()
        })
    return obj


def render_comparison_json(comparison: ComparisonReport) -> str:
    return "".join(_json_pieces(_comparison_to_obj(comparison)))


def comparison_pieces(comparison: ComparisonReport, fmt: str, color: bool = False) -> Iterator[str]:
    return _pieces(fmt, partial(render_comparison_text, comparison, color), partial(_comparison_to_obj, comparison))


def format_comparison(comparison: ComparisonReport, fmt: str = "text", color: bool = False) -> bytes:
    return "".join(comparison_pieces(comparison, fmt, color)).encode("utf-8", errors="backslashreplace")
