"""Tests for report rendering, JSON round-trips and model comparison."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clfmetrics import (
    ClassRegistry,
    ConfusionMatrix,
    EvaluationReport,
    MetricValue,
    PerClassBreakdown,
    ProbRecord,
    XentOptions,
    compare_reports,
    evaluate,
    format_report,
    fraction_decimal,
    parse_json,
    render_comparison_text,
    render_json,
    render_text,
    score_records,
)
from clfmetrics.report import _json_text, color_enabled, format_comparison, render_comparison_json


class TestFractionDecimal:
    def test_repeating_expansion_is_truncated(self):
        assert fraction_decimal(Fraction(37, 52)) == "0.711538461538461538"
        assert fraction_decimal(Fraction(1, 3)) == "0." + "3" * 18

    def test_terminating_expansion_stops_early(self):
        assert fraction_decimal(Fraction(3, 4)) == "0.75"
        assert fraction_decimal(Fraction(1, 2)) == "0.5"

    def test_integers(self):
        assert fraction_decimal(Fraction(0)) == "0"
        assert fraction_decimal(Fraction(1)) == "1"
        assert fraction_decimal(Fraction(-2)) == "-2"

    def test_negative(self):
        assert fraction_decimal(Fraction(-1, 4)) == "-0.25"

    @given(
        st.integers(min_value=-(10**40), max_value=10**40),
        st.one_of(
            st.integers(min_value=1, max_value=10**30),
            st.builds(lambda a, b: 2**a * 5**b, st.integers(0, 30), st.integers(0, 30)),
        ),
    )
    @example(1, 3 * 10**18)  # truncates to 18 zeros
    @example(-1, 2**18)  # terminates at exactly 18 places
    @example(1, 2**19)  # terminates one place too late
    def test_matches_long_division(self, numerator, denominator):
        value = Fraction(numerator, denominator)
        assert fraction_decimal(value) == _long_division_decimal(value)


def _long_division_decimal(value: Fraction, digits: int = 18) -> str:
    """Reference: one quotient digit per step, stopping when the remainder vanishes."""
    sign = "-" if value < 0 else ""
    n, d = abs(value.numerator), value.denominator
    whole, rem = divmod(n, d)
    if rem == 0:
        return f"{sign}{whole}"
    out = [f"{sign}{whole}."]
    for _ in range(digits):
        rem *= 10
        q, rem = divmod(rem, d)
        out.append(str(q))
        if rem == 0:
            break
    return "".join(out)


class TestTextRendering:
    def test_four_decimal_fixed_point(self, four_class_matrix):
        text = render_text(evaluate(four_class_matrix, dataset="demo"))
        assert "accuracy" in text
        assert "0.7115" in text
        assert "0.7072" in text
        assert "37/52" in text

    def test_undefined_token(self, zero_matrix):
        text = render_text(evaluate(zero_matrix, dataset="empty"))
        assert "undef(empty_denominator)" in text
        assert " 0.0000" not in text

    def test_version_header_line(self, four_class_matrix):
        from clfmetrics import __version__

        text = render_text(evaluate(four_class_matrix))
        assert text.splitlines()[0] == f"clfmetrics {__version__}"

    def test_low_recall_is_printed_at_four_decimals(self):
        m = ConfusionMatrix.from_grid(
            ("a", "b", "c", "d"),
            ((5, 30, 20, 7), (2, 40, 5, 3), (1, 2, 60, 2), (0, 1, 2, 30)),
        )
        text = render_text(evaluate(m))
        row = next(line for line in text.splitlines() if line.startswith("a "))
        assert "0.0806" in row


class TestJsonRoundTrip:
    def test_plain_report(self, four_class_matrix):
        report = evaluate(four_class_matrix, dataset="demo")
        assert parse_json(render_json(report)) == report

    def test_all_undefined_report(self, zero_matrix):
        report = evaluate(zero_matrix, dataset="empty")
        assert parse_json(render_json(report)) == report

    def test_report_with_cross_entropy_and_float_metrics(self):
        registry = ClassRegistry(("a", "b", "c"))
        records = [
            ProbRecord(0, (0.7, 0.2, 0.1)),
            ProbRecord(1, (0.3, 0.4, 0.3)),
            ProbRecord(2, (0.5, 0.2, 0.3)),
        ]
        m, xent = score_records(records, registry, XentOptions())
        report = evaluate(m, dataset="p", cross_entropy=xent)
        assert parse_json(render_json(report)) == report

    def test_cross_entropy_is_the_last_metric_and_a_top_level_json_key(self, four_class_matrix):
        report = evaluate(four_class_matrix, dataset="p", cross_entropy=0.625)
        assert list(report.metrics)[-2:] == ["kappa", "cross_entropy"]
        assert report.metric("cross_entropy") == MetricValue.defined(0.625)
        obj = json.loads(render_json(report))
        assert "cross_entropy" not in obj["metrics"]
        assert list(obj)[list(obj).index("per_class") + 1] == "cross_entropy"
        assert obj["cross_entropy"] == {"value": "0.625"}
        assert parse_json(render_json(report)) == report

    def test_lenient_report_round_trips_skip_counts(self):
        m = ConfusionMatrix.from_grid(("a", "b"), ((3, 0), (2, 0)))
        report = evaluate(m, lenient=True, dataset="skewed")
        rebuilt = parse_json(render_json(report))
        assert rebuilt == report
        assert rebuilt.skipped_classes == report.skipped_classes

    def test_rendering_is_stable(self, four_class_matrix):
        report = evaluate(four_class_matrix, dataset="demo")
        assert render_json(report) == render_json(report)
        assert format_report(report, "json") == format_report(report, "json")

    def test_exact_rational_fields_present(self, four_class_matrix):
        payload = render_json(evaluate(four_class_matrix, dataset="demo"))
        assert '"rational": "37/52"' in payload
        assert '"value": "0.711538461538461538"' in payload

    def test_non_evaluation_payload_rejected(self):
        with pytest.raises(ValueError):
            parse_json('{"report": "comparison"}')

    def test_unknown_format_rejected(self, four_class_matrix):
        with pytest.raises(ValueError):
            format_report(evaluate(four_class_matrix), "yaml")


# Any code point, lone surrogates included, next to the characters JSON must escape.
JSON_STRINGS = st.one_of(
    st.text(st.characters(exclude_categories=())),
    st.sampled_from(["", "\x00\x1f\x7f", '"\\/', "\u2028\ud800\udfff", "\U0001f600", "caf\u00e9"]),
)
JSON_TREES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.sampled_from([2**64, -(2**200), 10**4299]),
        JSON_STRINGS,
    ),
    lambda children: st.lists(children) | st.dictionaries(JSON_STRINGS, children),
    max_leaves=40,
)


class TestJsonWriter:
    @settings(max_examples=300)
    @given(JSON_TREES)
    @example({"a": [], "b": {}, "c": [[[]], [{}]], "d": [True, False, None, -0, 10**4299]})
    def test_writes_the_bytes_of_json_dumps_with_indent_2(self, tree):
        assert _json_text(tree) + "\n" == json.dumps(tree, indent=2, ensure_ascii=True) + "\n"

    @pytest.mark.parametrize("value", [1.5, (1, 2), Fraction(1, 2)], ids=["float", "tuple", "fraction"])
    def test_other_types_are_refused(self, value):
        for tree in (value, [value], {"k": value}):
            with pytest.raises(TypeError):
                _json_text(tree)


def plain_leaf(value, reason=None):
    if reason is not None:
        return {"undefined": reason}
    if isinstance(value, Fraction):
        rational = str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
        return {"value": fraction_decimal(value), "rational": rational}
    return {"value": repr(value)}


def plain_value(v):
    return plain_leaf(v.value, v.reason and v.reason.value)


def plain_delta(d):
    return plain_leaf(d, "operand_undefined" if d is None else None)


def plain_report(r):
    """The schema-v1 evaluation tree, built leaf by leaf without the package's writer."""
    metrics = dict(r.metrics)
    xent = metrics.pop("cross_entropy", None)
    tree = {
        "schema_version": 1,
        "tool": "clfmetrics",
        "tool_version": r.tool_version,
        "report": "evaluation",
        "dataset": r.dataset,
        "classes": list(r.labels),
        "num_classes": len(r.labels),
        "units": r.total_units,
        "options": {"mode": r.mode, "weights": r.weights_source, "epsilon": repr(r.epsilon), "reduce": r.reduce},
        "metrics": {name: plain_value(v) for name, v in metrics.items()},
        "per_class": {
            label: {name: plain_value(getattr(r.per_class, name)[i]) for name in ("precision", "recall", "f1")}
            for i, label in enumerate(r.labels)
        },
    }
    if xent is not None:
        tree["cross_entropy"] = plain_value(xent)
    if r.skipped_classes is not None:
        tree["skipped_classes"] = dict(r.skipped_classes)
    return tree


def plain_comparison(c):
    tree = {
        "schema_version": 1,
        "tool": "clfmetrics",
        "tool_version": c.a.tool_version,
        "report": "comparison",
        "a": plain_report(c.a),
        "b": plain_report(c.b),
        "registries_match": c.registries_match,
        "deltas": {name: plain_delta(d) for name, d in c.deltas.items()},
        "flagged": list(c.flagged),
        "notes": list(c.notes),
    }
    if c.per_class_deltas is not None:
        tree["per_class_deltas"] = {
            label: {name: plain_delta(d[name]) for name in ("precision", "recall", "f1")}
            for label, d in c.per_class_deltas.items()
        }
    return tree


def dumps(tree):
    return json.dumps(tree, indent=2, ensure_ascii=True) + "\n"


LABELS = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=4),
    st.sampled_from(['"', "\\", "a\"b\\c", "\x00\x1f\x7f", "caf\u00e9", "\u65e5", "\u2028\ud800", "\U0001f600"]),
)
# Equal values of different types, and the two zeros: each must keep its own leaf.
ODD_VALUES = st.sampled_from([1, 1.0, Fraction(1), 0, 0.0, -0.0, Fraction(0), Fraction(1, 2), 0.5, 2, Fraction(2)])


def with_per_class(report, per_class):
    """The report with its per-class breakdown replaced, built with the constructor."""
    return EvaluationReport(
        report.dataset, report.labels, report.total_units, report.metrics, per_class, report.mode,
        report.weights_source, report.epsilon, report.reduce, report.skipped_classes, report.tool_version,
    )


@st.composite
def small_reports(draw, labels=None):
    """evaluate on a small matrix of counts 0..3: empty rows and columns, tp = 0, values 0 and 1, many repeats."""
    if labels is None:
        labels = tuple(draw(st.lists(LABELS, min_size=2, max_size=5, unique=True)))
    k = len(labels)
    grid = draw(st.lists(st.lists(st.integers(0, 3), min_size=k, max_size=k).map(tuple), min_size=k, max_size=k))
    report = evaluate(
        ConfusionMatrix.from_grid(labels, tuple(grid)),
        lenient=draw(st.booleans()),
        dataset=draw(LABELS),
        cross_entropy=draw(st.none() | st.floats(0, 50, allow_nan=False)),
    )
    if draw(st.booleans()):  # values a parsed or hand-built report may hold
        per_class = PerClassBreakdown(*(
            tuple(MetricValue.defined(draw(ODD_VALUES)) if draw(st.booleans()) else v for v in column)
            for column in (report.per_class.precision, report.per_class.recall, report.per_class.f1)
        ))
        report = with_per_class(report, per_class)
    return report


@st.composite
def comparisons(draw):
    a = draw(small_reports())
    b = draw(small_reports(labels=a.labels if draw(st.booleans()) else None))
    return compare_reports(a, b)


ODD_REPORT = with_per_class(
    evaluate(ConfusionMatrix.from_grid(("a", "b", "c"), ((1, 0, 0), (0, 1, 0), (0, 0, 0)))),
    PerClassBreakdown(
        tuple(map(MetricValue.defined, (1, 1.0, Fraction(1)))),
        tuple(map(MetricValue.defined, (0.0, -0.0, Fraction(0)))),
        tuple(map(MetricValue.defined, (0, -0.0, 0.0))),
    ),
)


class TestPerClassTables:
    """The per-class tables, written from memoised leaves, are the standard library's bytes for the plain tree."""

    @settings(max_examples=200)
    @given(small_reports())
    @example(ODD_REPORT)
    def test_evaluation_json_is_json_dumps_of_the_plain_tree(self, report):
        assert render_json(report) == dumps(plain_report(report))

    @settings(max_examples=100)
    @given(comparisons())
    @example(compare_reports(ODD_REPORT, ODD_REPORT))
    @example(compare_reports(ODD_REPORT, evaluate(ConfusionMatrix.from_grid(("a", "b", "c"), ((2, 1, 0), (0, 0, 0), (0, 3, 0))))))
    def test_comparison_json_is_json_dumps_of_the_plain_tree(self, comparison):
        assert render_comparison_json(comparison) == dumps(plain_comparison(comparison))

    def test_undefined_operands_and_equal_values_of_other_types(self):
        b = evaluate(ConfusionMatrix.from_grid(("a", "b", "c"), ((2, 1, 0), (0, 0, 0), (0, 3, 0))))
        tree = json.loads(render_comparison_json(compare_reports(ODD_REPORT, b)))
        assert tree["a"]["per_class"]["a"]["precision"] == {"value": "1"}
        assert tree["a"]["per_class"]["b"]["precision"] == {"value": "1.0"}
        assert tree["a"]["per_class"]["c"]["precision"] == {"value": "1", "rational": "1"}
        assert [tree["a"]["per_class"][c]["recall"] for c in "abc"] == [{"value": "0.0"}, {"value": "-0.0"}, {"value": "0", "rational": "0"}]
        assert tree["per_class_deltas"]["b"]["recall"] == {"undefined": "operand_undefined"}


class TestComparison:
    def test_self_comparison_has_zero_deltas(self, four_class_matrix):
        report = evaluate(four_class_matrix, dataset="x")
        comparison = compare_reports(report, report)
        assert comparison.registries_match
        assert all(d == 0 for d in comparison.deltas.values())
        assert all(
            d == 0
            for per in comparison.per_class_deltas.values()
            for d in per.values()
        )
        assert comparison.flagged == ()

    def test_equal_accuracy_different_kappa_is_flagged(self):
        a = evaluate(ConfusionMatrix.from_grid(("x", "y"), ((60, 10), (10, 20))), dataset="A")
        b = evaluate(ConfusionMatrix.from_grid(("x", "y"), ((65, 5), (15, 15))), dataset="B")
        assert a.metric("accuracy").unwrap() == b.metric("accuracy").unwrap()
        assert a.metric("kappa").unwrap() != b.metric("kappa").unwrap()
        comparison = compare_reports(a, b)
        assert comparison.flagged == ("kappa",)
        text = render_comparison_text(comparison)
        assert "differs at equal accuracy" in text
        assert any("equal accuracy but different kappa" in note for note in comparison.notes)

    def test_cross_registry_comparison_suppresses_per_class(self):
        a = evaluate(ConfusionMatrix.from_grid(("x", "y"), ((3, 1), (1, 3))), dataset="A")
        b = evaluate(
            ConfusionMatrix.from_grid(("p", "q", "r"), ((2, 0, 0), (0, 2, 1), (1, 0, 2))),
            dataset="B",
        )
        comparison = compare_reports(a, b)
        assert not comparison.registries_match
        assert comparison.per_class_deltas is None
        assert any("comparable" in note for note in comparison.notes)
        text = render_comparison_text(comparison)
        assert "per-class deltas" not in text.split("notes:")[0]

    def test_delta_requires_both_sides_defined(self, four_class_matrix, zero_matrix):
        a = evaluate(four_class_matrix, dataset="A")
        b = evaluate(
            ConfusionMatrix.from_grid(("a", "b", "c", "d"), tuple((0,) * 4 for _ in range(4))),
            dataset="B",
        )
        comparison = compare_reports(a, b)
        assert comparison.deltas["accuracy"] is None
        assert "undef(operand_undefined)" in render_comparison_text(comparison)

    def test_exact_deltas_for_rational_metrics(self):
        a = evaluate(ConfusionMatrix.from_grid(("x", "y"), ((60, 10), (10, 20))), dataset="A")
        b = evaluate(ConfusionMatrix.from_grid(("x", "y"), ((65, 5), (15, 15))), dataset="B")
        delta = compare_reports(a, b).deltas["kappa"]
        assert delta == Fraction(9, 19) - Fraction(11, 21)

    def test_cross_entropy_delta_needs_it_on_both_sides(self, four_class_matrix):
        a = evaluate(four_class_matrix, dataset="A", cross_entropy=0.5)
        b = evaluate(four_class_matrix, dataset="B", cross_entropy=0.75)
        assert list(compare_reports(a, b).deltas)[-1] == "cross_entropy"
        assert compare_reports(a, b).deltas["cross_entropy"] == 0.25
        plain = evaluate(four_class_matrix, dataset="C")
        assert "cross_entropy" not in compare_reports(a, plain).deltas
        assert "cross_entropy" not in compare_reports(plain, b).deltas

    def test_comparison_json_is_stable(self):
        a = evaluate(ConfusionMatrix.from_grid(("x", "y"), ((60, 10), (10, 20))), dataset="A")
        b = evaluate(ConfusionMatrix.from_grid(("x", "y"), ((65, 5), (15, 15))), dataset="B")
        comparison = compare_reports(a, b)
        assert render_comparison_json(comparison) == render_comparison_json(comparison)
        payload = render_comparison_json(comparison)
        assert '"flagged"' in payload and '"kappa"' in payload

    def test_comparison_format_bytes(self):
        a = evaluate(ConfusionMatrix.from_grid(("x", "y"), ((3, 1), (1, 3))), dataset="A")
        comparison = compare_reports(a, a)
        assert format_comparison(comparison, "text").decode("utf-8") == render_comparison_text(comparison)
        with pytest.raises(ValueError):
            format_comparison(comparison, "yaml")


class TestColor:
    def test_env_var_disables_color(self, monkeypatch):
        class FakeTty:
            def isatty(self):
                return True

        monkeypatch.delenv("CLFMETRICS_NO_COLOR", raising=False)
        assert color_enabled(FakeTty())
        monkeypatch.setenv("CLFMETRICS_NO_COLOR", "1")
        assert not color_enabled(FakeTty())

    def test_non_tty_is_plain(self, monkeypatch):
        class NotTty:
            def isatty(self):
                return False

        monkeypatch.delenv("CLFMETRICS_NO_COLOR", raising=False)
        assert not color_enabled(NotTty())

    def test_flagged_row_is_highlighted_when_colored(self):
        a = evaluate(ConfusionMatrix.from_grid(("x", "y"), ((60, 10), (10, 20))), dataset="A")
        b = evaluate(ConfusionMatrix.from_grid(("x", "y"), ((65, 5), (15, 15))), dataset="B")
        comparison = compare_reports(a, b)
        assert "\x1b[33m" in render_comparison_text(comparison, color=True)
        assert "\x1b[33m" not in render_comparison_text(comparison, color=False)
