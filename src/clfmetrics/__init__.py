"""Exact multi-class classification metrics.

Confusion-matrix scores (accuracy, balanced accuracy, macro/micro F1,
Matthews correlation, Cohen's kappa) computed in exact integer and rational
arithmetic, probability-space cross-entropy, CSV ingestion, and a CLI for
evaluating and comparing models. Degenerate inputs surface as explicit
Undefined values instead of silent zeros or NaNs.

Each public name is imported from its module on first use (PEP 562), so that
`import clfmetrics` loads no submodule and a command loads only what it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names, by the module that defines each.
_EXPORTS = {
    "confusion": "ClassRegistry ConfusionMatrix OneVsRest from_pairs UnknownLabelError EmptyInputError "
    "ClassOutOfRangeError RegistryMismatchError",
    "metrics": "MetricValue UndefinedReason ClassWeights PerClassBreakdown InvalidWeightsError EvaluationReport "
    "XentOptions accuracy misclassification_rate per_class balanced_accuracy balanced_accuracy_weighted "
    "macro_precision macro_f1 micro_f1 harmonic_f1 mcc_binary mcc_multiclass kappa_binary kappa_multiclass evaluate",
    "proba": "ProbRecord xent_unit argmax_rule score_records InvalidRecordError EmptyDatasetError MixedDimensionsError",
    "ingest": "IngestError ParseError EmptyLabelError ProbSumOutOfToleranceError UnknownActualLabelError "
    "NonSquareError NegativeEntryError NameMismatchError read_matrix read_weights score_probs stream_labels "
    "tally_labels",
    "report": "ComparisonReport compare_reports format_report format_comparison fraction_decimal render_text "
    "render_comparison_text",
    "jsonreport": "parse_json render_json",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = ["__version__", *_HOME]


def __getattr__(name: str) -> object:
    """A public name, or one of the modules that define them, imported on first use and kept as an attribute."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")  # which binds it here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
