"""JSON reports and parse_json, in a module of their own: a text report neither compiles nor loads it, nor json.

JSON is byte for byte the standard library's json.dumps(obj, indent=2,
ensure_ascii=True) layout, all written by _json_text: json.dumps serves indent
only from its pure-Python encoder, several times slower on a large report. A
per-class table, most of a large-K report, is one f-string per class around
each distinct value's leaf, written once (_per_class_json). Ints of any
length are written whole. report.report_pieces and report.comparison_pieces
give a writer one table at a time, through _json_pieces.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii as _escape
from typing import Any, Callable, Iterator

from .metrics import EvaluationReport, MetricValue, Numeric, PerClassBreakdown, UndefinedReason
from .report import PER_CLASS_METRICS, ComparisonReport, _digits, _rational_parts, fraction_decimal

SCHEMA_VERSION = 1
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _parse_rational(text: str) -> Fraction:
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f"bad rational {text!r}")
    numerator, denominator = match.groups()
    return Fraction(int(Decimal(numerator)), int(Decimal(denominator or 1)))


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
