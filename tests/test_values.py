"""Behaviour of the ten frozen value types: equality, hashing, repr, immutability, copies and construction."""

import copy
import inspect
import pickle
import sys
from fractions import Fraction

import pytest

from clfmetrics import (
    ClassRegistry,
    ClassWeights,
    ComparisonReport,
    ConfusionMatrix,
    EvaluationReport,
    MetricValue,
    OneVsRest,
    PerClassBreakdown,
    ProbRecord,
    UndefinedReason,
    XentOptions,
    evaluate,
)
from conftest import LONG_COUNTS_GRID

REGISTRY = ClassRegistry(("a", "b"))
EMPTY_BREAKDOWN = PerClassBreakdown((), (), ())
REPORT = EvaluationReport("d", ("a", "b"), 3, {"accuracy": MetricValue(1)}, EMPTY_BREAKDOWN)
REPORT_REPR = (
    "EvaluationReport(dataset='d', labels=('a', 'b'), total_units=3, "
    "metrics={'accuracy': MetricValue(value=1, reason=None)}, "
    "per_class=PerClassBreakdown(precision=(), recall=(), f1=()), mode='strict', weights_source='frequency', "
    "epsilon=1e-15, reduce='mean', skipped_classes=None, tool_version='')"
)

# Per class: (positional arguments, keyword arguments for the same value, a value that differs,
# the repr of the first, whether it hashes).
BREAKDOWN_ARGS = ((MetricValue(1),), (MetricValue(0.5),), (MetricValue(Fraction(1, 3)),))
CASES = {
    ClassRegistry: (
        (("a", "b"),), {"labels": ("a", "b")}, ClassRegistry(("a", "c")), "ClassRegistry(labels=('a', 'b'))", True,
    ),
    OneVsRest: (
        (1, 2, 3, 4), {"tp": 1, "fp": 2, "fn": 3, "tn": 4}, OneVsRest(1, 2, 3, 5),
        "OneVsRest(tp=1, fp=2, fn=3, tn=4)", True,
    ),
    ConfusionMatrix: (
        (REGISTRY, {(0, 0): 2, (0, 1): 1, (1, 1): 0}),
        {"registry": REGISTRY, "cells": {(0, 0): 2, (0, 1): 1}},
        ConfusionMatrix(REGISTRY, {(0, 0): 2, (1, 1): 1}),
        "ConfusionMatrix(registry=ClassRegistry(labels=('a', 'b')), cells=mappingproxy({(0, 0): 2, (0, 1): 1}), "
        "row_totals=(3, 0), col_totals=(2, 1), trace=2, grand_total=3)",
        True,
    ),
    MetricValue: (
        (Fraction(1, 2),), {"value": Fraction(1, 2)}, MetricValue(Fraction(1, 3)),
        "MetricValue(value=Fraction(1, 2), reason=None)", True,
    ),
    ClassWeights: (
        ((1, Fraction(1, 2)),), {"w": (Fraction(1), Fraction(1, 2))}, ClassWeights((1, 1)),
        "ClassWeights(w=(Fraction(1, 1), Fraction(1, 2)))", True,
    ),
    PerClassBreakdown: (
        BREAKDOWN_ARGS,
        dict(zip(("precision", "recall", "f1"), BREAKDOWN_ARGS)),
        EMPTY_BREAKDOWN,
        "PerClassBreakdown(precision=(MetricValue(value=1, reason=None),), "
        "recall=(MetricValue(value=0.5, reason=None),), f1=(MetricValue(value=Fraction(1, 3), reason=None),))",
        True,
    ),
    EvaluationReport: (
        ("d", ("a", "b"), 3, {"accuracy": MetricValue(1)}, EMPTY_BREAKDOWN),
        {"dataset": "d", "labels": ("a", "b"), "total_units": 3, "metrics": {"accuracy": MetricValue(1)},
         "per_class": EMPTY_BREAKDOWN, "mode": "strict"},
        EvaluationReport("d", ("a", "b"), 3, {"accuracy": MetricValue(1)}, EMPTY_BREAKDOWN, mode="lenient"),
        REPORT_REPR,
        False,
    ),
    ProbRecord: (
        (1, (0.25, 0.75)), {"true_class": 1, "probs": (0.25, 0.75)}, ProbRecord(0, (0.25, 0.75)),
        "ProbRecord(true_class=1, probs=(0.25, 0.75))", True,
    ),
    XentOptions: (
        (), {"epsilon": 1e-15, "reduce": "mean"}, XentOptions(reduce="sum"),
        "XentOptions(epsilon=1e-15, reduce='mean')", True,
    ),
    ComparisonReport: (
        (REPORT, REPORT, True, {"accuracy": 0}, None, ("n",)),
        {"a": REPORT, "b": REPORT, "registries_match": True, "deltas": {"accuracy": 0}, "per_class_deltas": None,
         "notes": ("n",), "flagged": ()},
        ComparisonReport(REPORT, REPORT, True, {"accuracy": 0}, None, ("n",), ("accuracy",)),
        f"ComparisonReport(a={REPORT_REPR}, b={REPORT_REPR}, registries_match=True, deltas={{'accuracy': 0}}, "
        "per_class_deltas=None, notes=('n',), flagged=())",
        False,
    ),
}
CLASSES = list(CASES)

# The constructors' parameters, in order, with their defaults.
SIGNATURES = {
    ClassRegistry: ["labels"],
    OneVsRest: ["tp", "fp", "fn", "tn"],
    ConfusionMatrix: ["registry", "cells"],
    MetricValue: [("value", None), ("reason", None)],
    ClassWeights: ["w"],
    PerClassBreakdown: ["precision", "recall", "f1"],
    EvaluationReport: ["dataset", "labels", "total_units", "metrics", "per_class", ("mode", "strict"),
                       ("weights_source", "frequency"), ("epsilon", 1e-15), ("reduce", "mean"),
                       ("skipped_classes", None), ("tool_version", "")],
    ProbRecord: ["true_class", "probs"],
    XentOptions: [("epsilon", 1e-15), ("reduce", "mean")],
    ComparisonReport: ["a", "b", "registries_match", "deltas", "per_class_deltas", "notes", ("flagged", ())],
}


def make(cls):
    return cls(*CASES[cls][0])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestValueTypes:
    def test_positional_and_keyword_construction_agree(self, cls):
        args, kwargs = CASES[cls][:2]
        assert cls(*args) == cls(**kwargs)

    def test_the_constructor_signature(self, cls):
        params = list(inspect.signature(cls).parameters.values())
        want = [p if isinstance(p, tuple) else (p, inspect.Parameter.empty) for p in SIGNATURES[cls]]
        assert [(p.name, p.default) for p in params] == want
        assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
        assert cls.__match_args__ == tuple(name for name, _ in want)

    def test_equality(self, cls):
        a, b, other = make(cls), make(cls), CASES[cls][2]
        assert a is not b
        assert a == b and not (a != b)
        assert a != other and not (a == other)

    def test_a_value_of_another_class_is_never_equal(self, cls):
        a = make(cls)
        stranger = OneVsRest(1, 2, 3, 4) if cls is not OneVsRest else XentOptions()
        assert a != stranger and not (a == stranger)
        assert a.__eq__(stranger) is NotImplemented
        fields = tuple(getattr(a, name) for name in cls.__match_args__)
        assert a != fields and a.__eq__(fields) is NotImplemented

    def test_hash(self, cls):
        a, b = make(cls), make(cls)
        if CASES[cls][4]:
            assert hash(a) == hash(b)
            assert len({a, b, CASES[cls][2]}) == 2
        else:
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(a)

    def test_repr(self, cls):
        assert repr(make(cls)) == CASES[cls][3]

    def test_a_frozen_write_raises(self, cls):
        a = make(cls)
        for name in (cls.__match_args__[0], cls.__match_args__[-1]):
            before = getattr(a, name)
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(a, name, 1)
            assert getattr(a, name) is before

    def test_a_frozen_delete_raises(self, cls):
        a = make(cls)
        name = cls.__match_args__[-1]
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(a, name)
        assert a == make(cls)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, cls, protocol):
        a = make(cls)
        back = pickle.loads(pickle.dumps(a, protocol))
        assert type(back) is cls and back == a and repr(back) == repr(a)

    def test_deepcopy_and_copy(self, cls):
        a = make(cls)
        for twin in (copy.deepcopy(a), copy.copy(a)):
            assert type(twin) is cls and twin == a and repr(twin) == repr(a)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_no_new_attribute_can_be_set(cls):
    a = make(cls)
    with pytest.raises(AttributeError, match="^cannot assign to field 'not_a_field'$"):
        a.not_a_field = 1
    assert not hasattr(a, "not_a_field")


def test_positional_patterns_match_the_constructor_fields():
    match OneVsRest(1, 2, 3, 4):
        case OneVsRest(tp, fp, fn, tn=tn):
            assert (tp, fp, fn, tn) == (1, 2, 3, 4)
        case _:
            pytest.fail("no match")


def test_the_registry_repr_hides_its_index():
    r = ClassRegistry(("x", "y", "z"))
    assert repr(r) == "ClassRegistry(labels=('x', 'y', 'z'))"
    assert r.index("z") == 2
    with pytest.raises(AttributeError, match="^cannot assign to field '_index'$"):
        r._index = {}


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit before Python 3.11")
def test_a_repr_shows_a_field_past_the_int_to_str_limit_as_a_placeholder():
    """At the default limit the unit total, a cell total and a Fraction of 4,301 digits, at any depth, name their type."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        m = ConfusionMatrix.from_grid(("a", "b"), LONG_COUNTS_GRID)
        shown = repr(m), repr(evaluate(m))
    finally:
        sys.set_int_max_str_digits(limit)
    assert shown[0].endswith(
        "row_totals=<unprintable tuple object>, col_totals=<unprintable tuple object>, "
        "trace=<unprintable int object>, grand_total=<unprintable int object>)"
    )
    assert "total_units=<unprintable int object>" in shown[1]
    precision = "precision=(MetricValue(value=<unprintable Fraction object>, reason=None), MetricValue(value=Fraction(1, 2)"
    assert precision in shown[1] and len(shown[1]) < 2000


def test_a_registry_equals_one_built_from_a_list():
    assert ClassRegistry(["a", "b"]) == REGISTRY and ClassRegistry(["a", "b"]).labels == ("a", "b")


def test_the_matrix_totals_are_read_only():
    m = ConfusionMatrix.from_grid(("a", "b"), ((2, 1), (0, 0)))
    assert (m.row_totals, m.col_totals, m.trace, m.grand_total) == ((3, 0), (2, 1), 2, 3)
    assert m == make(ConfusionMatrix) and hash(m) == hash(make(ConfusionMatrix))
    for name in ("row_totals", "col_totals", "trace", "grand_total", "counts"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(m, name, 0)


def test_the_matrix_grid_is_built_once():
    m = make(ConfusionMatrix)
    first = m.counts
    assert first == ((2, 1), (0, 0))
    assert m.counts is first
    twin = pickle.loads(pickle.dumps(m))
    assert twin.counts == first and twin.counts is twin.counts


def test_an_undefined_metric_value():
    a = MetricValue.undefined(UndefinedReason.EMPTY_DENOMINATOR)
    assert repr(a) == "MetricValue(value=None, reason=<UndefinedReason.EMPTY_DENOMINATOR: 'empty_denominator'>)"
    assert a == MetricValue(reason=UndefinedReason.EMPTY_DENOMINATOR) != MetricValue(0)
    assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a) == a
    with pytest.raises(ValueError, match="exactly one of value and reason must be set"):
        MetricValue()


def test_a_deep_copy_of_a_report_shares_no_dict():
    twin = copy.deepcopy(REPORT)
    assert twin == REPORT and twin.metrics is not REPORT.metrics


def test_constructor_checks_still_run():
    with pytest.raises(TypeError, match=r"ClassRegistry.__init__\(\) missing 1 required positional argument: 'labels'"):
        ClassRegistry()
    with pytest.raises(ValueError, match="reduce must be 'mean' or 'sum'"):
        XentOptions(reduce="max")
    with pytest.raises(ValueError, match="outside"):
        ProbRecord(0, (1.5, -0.5))
