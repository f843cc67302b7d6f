"""Property-based checks of the structural invariants."""

import copy
import csv
import io
import math
import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import pairwise

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clfmetrics import (
    ClassRegistry,
    ConfusionMatrix,
    EmptyDatasetError,
    OneVsRest,
    ProbRecord,
    UnknownLabelError,
    XentOptions,
    accuracy,
    argmax_rule,
    balanced_accuracy,
    compare_reports,
    evaluate,
    from_pairs,
    kappa_binary,
    kappa_multiclass,
    macro_f1,
    macro_precision,
    mcc_binary,
    mcc_multiclass,
    micro_f1,
    misclassification_rate,
    per_class,
    score_probs,
    score_records,
    xent_unit,
)
from clfmetrics.confusion import from_tally
from clfmetrics.probfile import _score_rows, _score_steps, _SerialOnly
from clfmetrics.ingest import IngestError, NegativeEntryError, NonSquareError, read_matrix
from clfmetrics.metrics import (
    ClassWeights,
    MetricValue,
    PerClassBreakdown,
    UndefinedReason,
    _mean_of,
    _ratio,
    exact_sum,
    harmonic_f1,
)
from clfmetrics.proba import (
    PROB_SUM_TOLERANCE,
    InvalidRecordError,
    exact_steps,
    exact_sum_steps,
    round_steps,
)

@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


RATE_METRICS = (
    accuracy,
    misclassification_rate,
    balanced_accuracy,
    macro_precision,
    macro_f1,
    micro_f1,
)


@st.composite
def matrices(draw, min_k=2, max_k=5, max_entry=8):
    k = draw(st.integers(min_k, max_k))
    grid = tuple(
        tuple(draw(st.integers(0, max_entry)) for _ in range(k)) for _ in range(k)
    )
    labels = tuple(f"c{i}" for i in range(k))
    return ConfusionMatrix.from_grid(labels, grid)


@st.composite
def prob_records(draw, k=None):
    if k is None:
        k = draw(st.integers(2, 6))
    raw = draw(
        st.lists(
            st.floats(0.001, 1.0, allow_nan=False, allow_infinity=False),
            min_size=k,
            max_size=k,
        )
    )
    total = math.fsum(raw)
    probs = tuple(x / total for x in raw)
    true_class = draw(st.integers(0, k - 1))
    return ProbRecord(true_class=true_class, probs=probs)


@given(matrices())
def test_one_vs_rest_tiles_partition_the_matrix(m):
    for k in range(m.k):
        o = m.one_vs_rest(k)
        assert o.total == m.grand_total
        assert o.tp == m.counts[k][k]


@given(matrices())
def test_micro_f1_equals_accuracy(m):
    left, right = micro_f1(m), accuracy(m)
    assert left.is_defined == right.is_defined
    if left.is_defined:
        assert left.unwrap() == right.unwrap()


@given(matrices())
def test_accuracy_and_misclassification_sum_to_one(m):
    acc, mis = accuracy(m), misclassification_rate(m)
    if acc.is_defined:
        assert acc.unwrap() + mis.unwrap() == 1


@given(matrices())
def test_defined_rates_stay_in_unit_interval(m):
    for metric in RATE_METRICS:
        v = metric(m)
        if v.is_defined:
            assert 0 <= v.unwrap() <= 1, metric.__name__
    pc = per_class(m)
    for vector in (pc.precision, pc.recall, pc.f1):
        for v in vector:
            if v.is_defined:
                assert 0 <= v.unwrap() <= 1


@given(matrices())
def test_association_scores_stay_in_signed_unit_interval(m):
    for metric in (mcc_multiclass, kappa_multiclass):
        v = metric(m)
        if v.is_defined:
            assert -1 <= float(v.unwrap()) <= 1, metric.__name__


@given(matrices(), st.randoms(use_true_random=False))
def test_relabeling_leaves_aggregates_unchanged(m, rng):
    order = list(range(m.k))
    rng.shuffle(order)
    p = m.permuted(order)
    assert accuracy(p) == accuracy(m)
    assert balanced_accuracy(p) == balanced_accuracy(m)
    assert macro_f1(p) == macro_f1(m)
    assert kappa_multiclass(p) == kappa_multiclass(m)
    assert mcc_multiclass(p) == mcc_multiclass(m)
    before, after = per_class(m), per_class(p)
    for new_k, old_k in enumerate(order):
        assert after.precision[new_k] == before.precision[old_k]
        assert after.recall[new_k] == before.recall[old_k]
        assert after.f1[new_k] == before.f1[old_k]


@given(matrices(max_entry=6), st.integers(2, 9))
def test_scaling_every_cell_leaves_metrics_unchanged(m, factor):
    scaled = m.scaled(factor)
    assert accuracy(scaled) == accuracy(m)
    assert balanced_accuracy(scaled) == balanced_accuracy(m)
    assert macro_f1(scaled) == macro_f1(m)
    assert micro_f1(scaled) == micro_f1(m)
    assert kappa_multiclass(scaled) == kappa_multiclass(m)
    a, b = mcc_multiclass(m), mcc_multiclass(scaled)
    if a.is_defined:
        assert math.isclose(float(a.unwrap()), float(b.unwrap()), rel_tol=1e-12, abs_tol=1e-15)


@given(matrices(min_k=3, max_k=3), matrices(min_k=3, max_k=3))
def test_merge_is_commutative_and_conserves_marginals(a, b):
    b = ConfusionMatrix(a.registry, b.counts)
    left = a + b
    assert left == b + a
    assert left.grand_total == a.grand_total + b.grand_total
    assert left.row_totals == tuple(x + y for x, y in zip(a.row_totals, b.row_totals))


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
@example(6 * 10**76 + 1, 5 * 10**76, 4 * 10**76, 5 * 10**76 + 3)  # radicand near float overflow
def test_two_class_forms_match_multiclass_forms(a, b, c, d):
    m = ConfusionMatrix.from_grid(("x", "y"), ((a, b), (c, d)))
    o = m.one_vs_rest(0)
    assert mcc_binary(o) == mcc_multiclass(m)
    assert kappa_binary(o) == kappa_multiclass(m)


@given(prob_records())
def test_cross_entropy_is_non_negative_and_zero_only_at_certainty(r):
    v = xent_unit(r)
    assert v >= 0
    assert (v == 0) == (r.probs[r.true_class] == 1.0)


@given(prob_records(k=4), st.randoms(use_true_random=False))
def test_cross_entropy_ignores_mass_outside_the_true_class(r, rng):
    rest = [i for i in range(r.k) if i != r.true_class]
    rng.shuffle(rest)
    reordered = [0.0] * r.k
    reordered[r.true_class] = r.probs[r.true_class]
    leftovers = [r.probs[i] for i in range(r.k) if i != r.true_class]
    for slot, mass in zip(rest, leftovers):
        reordered[slot] = mass
    other = ProbRecord(r.true_class, tuple(reordered))
    assert xent_unit(other) == xent_unit(r)


@settings(max_examples=30)
@given(st.lists(prob_records(k=3), min_size=1, max_size=40), st.randoms(use_true_random=False))
def test_dataset_cross_entropy_is_order_independent(records, rng):
    shuffled = records[:]
    rng.shuffle(shuffled)
    registry = ClassRegistry(("a", "b", "c"))
    assert score_records(records, registry)[1] == score_records(shuffled, registry)[1]


@settings(max_examples=30)
@given(st.lists(prob_records(k=3), min_size=1, max_size=40))
def test_hardened_accuracy_counts_argmax_hits(records):
    registry = ClassRegistry(("a", "b", "c"))
    m = score_records(records, registry)[0]
    hits = sum(1 for r in records if argmax_rule(r.probs) == r.true_class)
    assert accuracy(m).unwrap() == Fraction(hits, len(records))


@settings(max_examples=30)
@given(matrices())
def test_evaluate_is_deterministic(m):
    assert evaluate(m, dataset="p") == evaluate(m, dataset="p")


# Vectors whose highest probability is shared, so the lowest-index tie rule decides.
tied_records = st.builds(
    ProbRecord,
    st.integers(0, 3),
    st.sampled_from([(0.4, 0.4, 0.1, 0.1), (0.1, 0.4, 0.1, 0.4), (0.25,) * 4, (0.0, 0.5, 0.0, 0.5)]),
)


def two_pass_reference(records, registry, options):
    """Hardened matrix and cross-entropy written out longhand, one pass each."""
    pairs = [
        (registry.labels[r.true_class], registry.labels[max(range(r.k), key=lambda i: (r.probs[i], -i))])
        for r in records
    ]
    total = math.fsum(-math.log(max(r.probs[r.true_class], options.epsilon)) for r in records)
    return from_pairs(pairs, registry), total / len(records) if options.reduce == "mean" else total


@settings(max_examples=60)
@given(
    st.lists(st.one_of(prob_records(k=4), tied_records), min_size=1, max_size=40),
    st.sampled_from(["mean", "sum"]),
)
def test_one_pass_matches_separate_reductions(work, records, reduce):
    registry = ClassRegistry(("a", "b", "c", "d"))
    options = XentOptions(reduce=reduce)
    matrix, xent = score_records(iter(records), registry, options)
    # The same records as a probability file, floats written by repr so that they read back exactly.
    path = work / "records.csv"
    rows = (",".join([registry.labels[r.true_class], *map(repr, r.probs)]) + "\n" for r in records)
    path.write_text("actual,a,b,c,d\n" + "".join(rows), encoding="utf-8")
    from_file, xent_from_file = score_probs(str(path), options=options)
    assert matrix == from_file
    assert xent.hex() == xent_from_file.hex()
    ref_matrix, ref_xent = two_pass_reference(records, registry, options)
    assert matrix == ref_matrix
    assert xent.hex() == ref_xent.hex()


# Sparse storage: every builder must give the matrix a dense grid gives.
@st.composite
def sparse_tallies(draw, min_k=2, max_k=8):
    """A registry and a pair tally over it that leaves most cells zero."""
    k = draw(st.integers(min_k, max_k))
    labels = tuple(f"c{i}" for i in range(k))
    pairs = st.tuples(st.sampled_from(labels), st.sampled_from(labels))
    tally = draw(st.dictionaries(pairs, st.integers(1, 50), max_size=k + 2))
    return ClassRegistry(labels), tally


def dense(registry, tally):
    grid = [[0] * registry.k for _ in range(registry.k)]
    for (actual, predicted), n in tally.items():
        grid[registry.index(actual)][registry.index(predicted)] += n
    return grid


@given(sparse_tallies())
def test_sparse_build_equals_dense_build(case):
    registry, tally = case
    grid = dense(registry, tally)
    m = from_tally(tally, registry)
    reference = ConfusionMatrix.from_grid(registry.labels, grid)
    assert m == reference
    assert hash(m) == hash(reference)
    assert pickle.loads(pickle.dumps(m)) == copy.deepcopy(m) == m
    assert m.counts == tuple(map(tuple, grid))
    assert m.row_totals == tuple(map(sum, grid))
    assert m.col_totals == tuple(map(sum, zip(*grid)))
    assert m.trace == sum(grid[i][i] for i in range(m.k))
    assert m.grand_total == sum(map(sum, grid))
    for k in range(m.k):
        tp = grid[k][k]
        fp = sum(grid[i][k] for i in range(m.k)) - tp
        fn = sum(grid[k]) - tp
        assert m.one_vs_rest(k) == OneVsRest(tp, fp, fn, m.grand_total - tp - fp - fn)


def one_hot_records(registry, tally):
    """For each (actual, predicted) pair in tally order, its count of records whose probabilities pick predicted."""
    for (actual, predicted), n in tally.items():
        probs = tuple(float(label == predicted) for label in registry.labels)
        yield from [ProbRecord(registry.index(actual), probs)] * n


@settings(max_examples=200)
@given(sparse_tallies())
def test_matrices_from_proven_cells_equal_the_checked_constructor(work, case):
    """from_tally, score_records and read_matrix keep their own dict of cells, unchecked: each equals the matrix the
    checked constructor builds from the same cells in the same order, in every field, and its totals are the tally's."""
    registry, tally = case
    cells = {(registry.index(actual), registry.index(predicted)): n for (actual, predicted), n in tally.items()}
    lines = ["," + ",".join(registry.labels)]
    lines += [f"{label}," + ",".join(map(str, row)) for label, row in zip(registry.labels, dense(registry, tally))]
    path = work / "proven.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    built = {"from_tally": from_tally(tally, registry), "read_matrix": read_matrix(str(path))}
    if tally:  # score_records refuses zero records
        built["score_records"] = score_records(one_hot_records(registry, tally), registry)[0]
    k, rows, cols = registry.k, [0] * registry.k, [0] * registry.k
    for (i, j), n in cells.items():
        rows[i] += n
        cols[j] += n
    for name, m in built.items():
        ordered = dict(sorted(cells.items())) if name == "read_matrix" else cells  # a file is read row by row
        checked = ConfusionMatrix(registry, ordered)
        assert m == checked and hash(m) == hash(checked) and repr(m) == repr(checked), name
        assert pickle.loads(pickle.dumps(m)) == m and repr(pickle.loads(pickle.dumps(m))) == repr(m), name
        assert dict(m.cells) == dict(checked.cells) == cells and type(m.cells) is type(checked.cells), name
        assert (m.row_totals, m.col_totals) == (checked.row_totals, checked.col_totals) == (tuple(rows), tuple(cols))
        assert m.trace == checked.trace == sum(cells.get((i, i), 0) for i in range(k)), name
        assert m.grand_total == checked.grand_total == sum(tally.values()), name


def test_readers_of_proven_cells_keep_their_messages(tmp_path):
    """The checks that prove from_pairs' and read_matrix's cells raise as before the cells were kept unchecked."""
    with pytest.raises(UnknownLabelError, match=r"^label 'zz' is not in the registry \('a', 'b'\)$"):
        from_pairs([("a", "b"), ("zz", "a")], registry=ClassRegistry(("a", "b")))
    with pytest.raises(ValueError, match="values to unpack"):
        from_pairs([("a", "b"), ("a", "b", "c")])
    for text, error, message in (
        (",a,b\na,1,-2\nb,0,3\n", NegativeEntryError, "line 2, column 3: negative count -2"),
        (",a,b\na,1,2,3\nb,4,5\n", NonSquareError, "line 2: expected 3 fields, got 4"),
        (",a,b\na,1,2\n", NonSquareError, "line 2: expected 2 data rows, got 1"),
    ):
        (tmp_path / "m.csv").write_text(text, encoding="utf-8")
        with pytest.raises(error) as err:
            read_matrix(str(tmp_path / "m.csv"))
        assert str(err.value) == message


@given(sparse_tallies(min_k=3, max_k=3), sparse_tallies(min_k=3, max_k=3), st.integers(1, 9), st.permutations(range(3)))
def test_merge_permute_and_scale_equal_their_dense_longhand(a, b, factor, order):
    (registry, ta), (_, tb) = a, b
    ga, gb = dense(registry, ta), dense(registry, tb)
    ma, mb = from_tally(ta, registry), from_tally(tb, registry)
    summed = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(ga, gb)]
    assert ma + mb == ConfusionMatrix.from_grid(registry.labels, summed)
    permuted = [[ga[i][j] for j in order] for i in order]
    assert ma.permuted(order) == ConfusionMatrix.from_grid([registry.labels[i] for i in order], permuted)
    scaled = [[n * factor for n in row] for row in ga]
    assert ma.scaled(factor) == ConfusionMatrix.from_grid(registry.labels, scaled)


@given(st.lists(st.one_of(prob_records(k=4), tied_records), max_size=40))
def test_score_records_matrix_equals_a_dense_tally(records):
    registry = ClassRegistry(("a", "b", "c", "d"))
    grid = [[0] * 4 for _ in range(4)]
    for r in records:
        grid[r.true_class][argmax_rule(r.probs)] += 1
    if records:
        assert score_records(records, registry)[0] == ConfusionMatrix(registry, grid)
    else:  # no records, no cross-entropy: the matrix alone is ConfusionMatrix.zeros(registry)
        with pytest.raises(EmptyDatasetError):
            score_records(records, registry)


def longhand_accepts(probs):
    """The per-value vector check, written out: each value in [0, 1] (NaN fails), then the sum."""
    return all(0.0 <= p <= 1.0 for p in probs) and abs(math.fsum(probs) - 1.0) <= PROB_SUM_TOLERANCE


def check_accepts(probs):
    try:
        ProbRecord.check_probs(probs)
    except InvalidRecordError:
        return False
    return True


# Values that a valid vector holds, next to every kind that must be rejected, in any position.
PROB_VALUES = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, math.nan, math.inf, -math.inf, -0.0, -1e-300, 1.0000001, 2.0]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0.0, 1.0),
)


@settings(max_examples=500)
@given(st.lists(PROB_VALUES, max_size=6))
@example((0.5, math.nan, 0.5))  # min and max both skip this NaN; only the sum test rejects it
@example((0.5, 0.5, math.nan))
@example((1.0, math.inf, -math.inf))
@example(())
def test_vector_check_matches_the_per_value_longhand(probs):
    assert check_accepts(tuple(probs)) == longhand_accepts(probs)


@settings(max_examples=300)
@given(st.lists(PROB_VALUES, min_size=1, max_size=6), st.integers(0, 5), PROB_VALUES)
@example(raw=[8.988465674311579e307, 8.98846567431158e307], position=0, value=0.5)  # their sum overflows
def test_vector_check_matches_the_longhand_on_vectors_that_sum_to_one(raw, position, value):
    """A valid vector with one value swapped for any other: the cases the sum test alone must decide."""
    weights = [abs(x) if math.isfinite(x) else 1.0 for x in raw]
    top = max(weights) or 1.0
    weights = [w / top for w in weights]  # each in [0, 1], so the sum cannot overflow
    total = math.fsum(weights) or 1.0
    probs = [w / total for w in weights]
    probs[position % len(probs)] = value
    assert check_accepts(tuple(probs)) == longhand_accepts(probs)


def nudged(values, at, ulps):
    """values as a tuple, with the one at `at` moved by `ulps` units in the last place."""
    values = list(values)
    for _ in range(abs(ulps)):
        values[at] = math.nextafter(values[at], math.copysign(math.inf, ulps))
    return tuple(values)


# The block scorer of a split probability file, against the serial csv rows. csv keeps \x85 and U+2028 in a field,
# and reads a quote inside an unquoted field as itself.
BLOCK_REGISTRY = ClassRegistry(("a", "b\x85", 'c"\u2028c'))
BLOCK_VECTORS = st.one_of(
    st.sampled_from([(1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (1 / 3,) * 3, (0.1, 0.2, 0.7), (0.5, 0.5, 5e-324)]),
    # The sum test's edge: 1e-6 off is accepted, 1.0000001e-6 off is not.
    st.sampled_from([(0.5, 0.5, 1e-6), (0.5, 0.5, 1.0000001e-6), (0.5, 0.5 - 1e-6, 0), (0.5, 0.5 - 1.0000001e-6, 0)]),
    st.tuples(*[st.floats(0.0, 1.0)] * 3).filter(any).map(lambda w: tuple(x / math.fsum(w) for x in w)),
    # Exact sums a few ulps from the edge, where the plain sum and fsum can fall on either side of it.
    st.builds(
        lambda w, target, at, ulps: nudged([x * target / math.fsum(w) for x in w], at, ulps),
        st.tuples(*[st.floats(0.0, 1.0)] * 3).filter(any),
        st.sampled_from([1 - PROB_SUM_TOLERANCE, 1 + PROB_SUM_TOLERANCE]),
        st.integers(0, 2),
        st.integers(-6, 6),
    ),
)
# None drops the field; a token past the row's end widens it. The field limit is 64 in the test.
BLOCK_FAULTS = [None, "nan", "inf", "-inf", "-0.0", "5e-324", " 0.5", "0.5 ", "\x0c0\x85", "1_0", "", "z", "a ", '"a"']
BLOCK_FAULTS += ["0.5,0.5", "0.5\t0.5", "0\x00", "1e-6", "1.0000001e-6", "0." + "0" * 70 + "1", "a" * 65]
LINE_ENDS = ["\n", "\r\n", "\r", "\n\n", "\r\r\n", "\r\n\n"]


# True-class probabilities at the clipping edges: exactly 0, below each epsilon drawn, equal to 5e-324, exactly 1.
TRUE_CLASS_EDGES = [0.0, 1e-300, 1e-16, 1e-7, 5e-324, 1.0]


def edge_vector(p, true):
    """A vector that gives the true class p and splits the rest evenly."""
    rest = (1.0 - p) / 2
    return tuple(p if i == true else rest for i in range(3))


@st.composite
def block_lines(draw, delimiter):
    """A data line with its line end: a valid row, or, one time in four, one with a faulty token."""
    true = draw(st.integers(0, len(BLOCK_REGISTRY.labels) - 1))
    edges = st.sampled_from(TRUE_CLASS_EDGES).map(lambda p: edge_vector(p, true))
    name = BLOCK_REGISTRY.labels[true]
    label = draw(st.sampled_from([name, quoted(name)]))
    fields = [label, *map(repr, draw(st.one_of(BLOCK_VECTORS, edges)))]
    if draw(st.sampled_from([False, False, False, True])):
        where, token = draw(st.integers(0, len(fields))), draw(st.sampled_from(BLOCK_FAULTS))
        if where == len(fields):
            fields.append(token or "0")
        elif token is None:
            del fields[where]
        else:
            fields[where] = token
    return delimiter.join(fields) + draw(st.sampled_from(LINE_ENDS))


@st.composite
def block_steps(draw):
    """A delimiter and the step texts of a byte range: each ends a line, save perhaps the last."""
    delimiter = draw(st.sampled_from([",", "\t"]))
    lines = draw(st.lists(st.one_of(block_lines(delimiter), st.just("\n")), max_size=12))  # "\n" after "\r": a CRLF
    cuts = sorted(draw(st.sets(st.integers(0, len(lines)))))
    steps = ["".join(lines[a:b]) for a, b in pairwise([0, *cuts, len(lines)])]
    if steps and draw(st.booleans()):
        steps[-1] = steps[-1].rstrip("\r\n")  # a file without a final line end
    return delimiter, steps


def quoted(name):
    """A class name as csv quotes it."""
    return '"' + name.replace('"', '""') + '"'


def quote_outside_a_quoted_label(text, delimiter, registry):
    """Whether a quote in text lies anywhere but in a line's label written as csv quotes a class name."""
    names = set(map(quoted, registry.labels))
    for line in text.replace("\r", "\n").split("\n"):
        label, _, rest = line.partition(delimiter)
        if '"' in (rest if label in names else line):
            return True
    return False


def longhand_scores(rows, registry, epsilon):
    """The (true, argmax) tally and exact cross-entropy sum of csv rows, one ProbRecord at a time; None for a bad row."""
    tally, total, options = Counter(), 0, XentOptions(epsilon)
    for row in rows:
        if len(row) != registry.k + 1 or row[0] not in registry:
            return None
        try:
            record = ProbRecord(registry.index(row[0]), tuple(map(float, row[1:])))
        except ValueError:  # a bad float, or InvalidRecordError
            return None
        tally[record.true_class, argmax_rule(record.probs)] += 1
        total += exact_steps(xent_unit(record, options))
    return tally, total


def assert_block_scorer_equals_the_serial_rows(steps, delimiter, epsilon, registry=BLOCK_REGISTRY):
    """_score_steps refuses, or gives the longhand scores of the serial rows exactly; it refuses valid rows only for a
    quote outside a label quoted as csv quotes a class name. The row stream, a header then the same text, gives the
    longhand scores, or an IngestError where they fail."""
    text = "".join(steps)
    header = delimiter.join(["actual", *registry.labels]) + "\n"
    limit = csv.field_size_limit(64)
    try:
        try:
            rows = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
            expected = longhand_scores(filter(None, rows), registry, epsilon)
        except csv.Error:
            expected = None
        try:
            streamed = _score_rows(io.StringIO(header + text, newline=""), delimiter, epsilon)
        except IngestError as error:
            assert expected is None
            assert "none is bad" not in str(error)  # the slow walk names the refused block's bad row
        else:
            assert expected is not None
            assert (streamed[0], dict(streamed[1][0]), streamed[1][1]) == (registry, dict(expected[0]), expected[1])
        try:
            tally, total = _score_steps(steps, registry, delimiter, epsilon)
        except _SerialOnly:
            assert expected is None or quote_outside_a_quoted_label(text, delimiter, registry)
            return
    finally:
        csv.field_size_limit(limit)
    assert expected is not None
    assert (dict(tally), total) == (dict(expected[0]), expected[1])


@settings(max_examples=500, deadline=None)
@given(block_steps(), st.sampled_from([1e-15, 1e-6, 5e-324]))
@example(block_steps=(",", ["b\x85,0.5,0.25,0.25\n"]), epsilon=1e-15)  # str.splitlines would end the line at \x85
@example(block_steps=(",", ["a,0.5,0.5,0\nb\x85,0.5,nan,0.5\n"]), epsilon=1e-15)  # min and max skip the NaN
@example(block_steps=(",", ["a,0." + "0" * 70 + "5,0.5,0.5\n"]), epsilon=1e-15)  # a valid field past the limit
# At the sum's edge Python 3.10 and 3.11's plain sum and fsum disagree: fsum passes the first and refuses the second.
@example(block_steps=(",", ["a,0.09026548956892363,0.3429273877975787,0.5668081226334977\n"]), epsilon=1e-15)
@example(block_steps=(",", ["a,0.23362314422711547,0.2890842078803234,0.4772916478925611\n"]), epsilon=1e-15)
# Rows outside the band on both sides of 1 that pass, then one past the tolerance: each row outside takes fsum.
@example(block_steps=(",", ["a,0.5,0.499999,0\na,0.5,0.5,1e-6\na,0.5,0.5,0\na,0.5,0.4999989,0\n"]), epsilon=1e-15)
@example(block_steps=(",", ["a,0.5,0.499999,0\na,0.5,0.5,1e-6\na,0.5,0.5,0\na,0.5,0.5,1.0000001e-6\n"]), epsilon=1e-15)
def test_block_scorer_equals_the_serial_rows_or_refuses(block_steps, epsilon):
    assert_block_scorer_equals_the_serial_rows(block_steps[1], block_steps[0], epsilon)


@pytest.mark.parametrize("k", [64, 1024])
@pytest.mark.parametrize(
    ("target", "tiny"),
    [
        (1 + PROB_SUM_TOLERANCE, 2.0**-54),  # under half an ulp of the running sum: a plain sum drops each
        (1 - PROB_SUM_TOLERANCE, 0.6 * 2.0**-53),  # over half an ulp: a plain sum rounds each up to a whole one
        (1 + PROB_SUM_TOLERANCE, 0.0),  # zeros: the plain sum is exact
    ],
    ids=["tiny_values_dropped", "tiny_values_rounded_up", "zeros"],
)
def test_block_scorer_at_the_sum_edge_with_many_classes(k, target, tiny):
    """Two halves, then K - 2 tiny values that each move the plain sum off the exact one: the band must allow for K."""
    registry = ClassRegistry(tuple(f"c{i}" for i in range(k)))
    middle = target - 0.5 - (k - 2) * tiny
    for ulps in range(-64, 65):
        vector = (0.5, nudged([middle], 0, ulps)[0], *[tiny] * (k - 2))
        line = ",".join(["c1", *map(repr, vector)]) + "\n"
        assert_block_scorer_equals_the_serial_rows([line], ",", 1e-15, registry)


# Finite floats of every exponent up to 2**900, so no sum of a few dozen overflows.
EXACT_SUM_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.0**900, -(2.0**900), 1.0, 0.1]),
    st.floats(-(2.0**900), 2.0**900),
    st.floats(-1e-300, 1e-300),
    st.floats(-1.0, 1.0),
)


@st.composite
def exact_sum_lists(draw):
    """Floats of mixed exponents in any order, some of them with their exact negation in the list too."""
    values = draw(st.lists(EXACT_SUM_FLOATS, max_size=30))
    values += [-x for x in values[: draw(st.integers(0, len(values)))]]
    return draw(st.permutations(values))


@settings(max_examples=500)
@given(exact_sum_lists())
@example([])
@example([2.0**900, 1.0, -(2.0**900)])  # the huge values cancel exactly and leave the 1.0
@example([2.0**900, 5e-324])  # a sum that spans every exponent: one pass per 53 bits of it
@example([2.0**-k for k in range(0, 1075, 50)])
@example([0.1] * 10)
def test_exact_sum_steps_is_the_sum_of_exact_steps(values):
    before = list(values)
    assert exact_sum_steps(values) == sum(map(exact_steps, values))
    assert values == before  # the argument is left as it was


NON_NEGATIVE = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e308, 1.0]),
    st.floats(0.0, 1e308),
    st.floats(0.0, 1e-300),
)


@settings(max_examples=500)
@given(st.lists(NON_NEGATIVE, max_size=30), st.integers(0, 30))
@example([1e308, 1e308], 1)
@example([5e-324] * 3, 2)
def test_two_exact_half_sums_round_to_fsum(values, cut):
    halves = sum(map(exact_steps, values[:cut])) + sum(map(exact_steps, values[cut:]))
    try:
        expected = math.fsum(values)
    except OverflowError:
        with pytest.raises(OverflowError):
            round_steps(halves)
        return
    assert round_steps(halves).hex() == expected.hex()


# per_class and the exact sum against the formulations they replaced.
def tile_per_class(m):
    """Per-class values through one-vs-rest tiles, _ratio, then harmonic_f1."""
    tiles = [m.one_vs_rest(k) for k in range(m.k)]
    precision = tuple(_ratio(o.tp, o.tp + o.fp) for o in tiles)
    recall = tuple(_ratio(o.tp, o.tp + o.fn) for o in tiles)
    return PerClassBreakdown(precision, recall, tuple(map(harmonic_f1, precision, recall)))


@settings(max_examples=300)
@given(sparse_tallies(max_k=10))
@example((ClassRegistry(("c0", "c1", "c2")), {}))
@example((ClassRegistry(("c0", "c1", "c2")), {("c0", "c1"): 3, ("c1", "c0"): 2}))  # tp = 0, c2 empty
@example((ClassRegistry(("c0", "c1", "c2")), {("c0", "c0"): 4, ("c2", "c0"): 1, ("c1", "c2"): 2}))
def test_per_class_equals_the_one_vs_rest_formulation(case):
    registry, tally = case
    m = from_tally(tally, registry)
    got, expected = per_class(m), tile_per_class(m)
    for name in ("precision", "recall", "f1"):
        for g, e in zip(getattr(got, name), getattr(expected, name), strict=True):
            assert (g.value, g.reason) == (e.value, e.reason), name
            assert type(g.value) is type(e.value)


@st.composite
def tied_matrices(draw, k):
    """K x K counts 0..3 where each row is either one drawn row, shifted i places, or a row of its own.

    Shifted rows share their tp, row and column totals, so many classes have equal tallies.
    """
    counts = st.lists(st.integers(0, 3), min_size=k, max_size=k)
    base = draw(counts)
    return ConfusionMatrix.from_grid(
        tuple(f"c{i}" for i in range(k)), [base[-i:] + base[:-i] if draw(st.booleans()) else draw(counts) for i in range(k)]
    )


def plain_per_class(m):
    """Each class's tp/col, tp/row and 2tp/(row + col), each made anew, Undefined as per_class documents."""
    empty, zero = MetricValue.undefined(UndefinedReason.EMPTY_DENOMINATOR), UndefinedReason.DEGENERATE_ZERO_OVER_ZERO
    rows, cols = [sum(row) for row in m.counts], [sum(col) for col in zip(*m.counts)]
    diagonal = [m.counts[i][i] for i in range(m.k)]
    return PerClassBreakdown(
        tuple(MetricValue.defined(Fraction(tp, col)) if col else empty for tp, col in zip(diagonal, cols)),
        tuple(MetricValue.defined(Fraction(tp, row)) if row else empty for tp, row in zip(diagonal, rows)),
        tuple(
            empty if not (row and col) else MetricValue.undefined(zero) if not tp else
            MetricValue.defined(Fraction(2 * tp, row + col))
            for tp, row, col in zip(diagonal, rows, cols)
        ),
    )


@settings(max_examples=200)
@given(st.integers(2, 12).flatmap(lambda k: st.tuples(tied_matrices(k), tied_matrices(k))))
@example((ConfusionMatrix.from_grid(("a", "b"), ((1, 0), (0, 1))),) * 2)  # zero deltas
# Integer deltas of -1, and None where B's F1 is a degenerate 0/0.
@example((ConfusionMatrix.from_grid(("a", "b"), ((1, 0), (0, 1))), ConfusionMatrix.from_grid(("a", "b"), ((0, 1), (1, 0)))))
@example((ConfusionMatrix.from_grid(("a", "b", "c"), ((1, 1, 0), (1, 1, 0), (0, 0, 3))),) * 2)  # a and b share values
def test_shared_per_class_values_and_deltas_equal_the_plain_formulas(pair):
    """per_class shares a value among classes with equal tallies, and compare_reports a delta among equal operand
    pairs: every value is still the plain formula's, and every delta b - a, or None where an operand is undefined."""
    a, b = (evaluate(m) for m in pair)

    def values(breakdown):
        return [*breakdown.precision, *breakdown.recall, *breakdown.f1]

    for m, report in zip(pair, (a, b)):
        for breakdown in (per_class(m), report.per_class):
            for got, want in zip(values(breakdown), values(plain_per_class(m)), strict=True):
                assert got == want and type(got.value) is type(want.value)
    deltas = compare_reports(a, b).per_class_deltas
    for name in ("precision", "recall", "f1"):
        for label, x, y in zip(a.labels, getattr(a.per_class, name), getattr(b.per_class, name), strict=True):
            expected = y.value - x.value if x.is_defined and y.is_defined else None
            assert deltas[label][name] == expected and type(deltas[label][name]) is type(expected)


def tile_micro_f1(m):
    """micro_f1 through the one-vs-rest tiles: every class's TP, summed over the grand total."""
    return _ratio(sum(m.one_vs_rest(k).tp for k in range(m.k)), m.grand_total)


@settings(max_examples=300)
@given(sparse_tallies(max_k=10))
@example((ClassRegistry(("c0", "c1", "c2")), {}))
@example((ClassRegistry(("c0", "c1", "c2")), {("c0", "c1"): 3, ("c1", "c0"): 2}))  # no TP, c2 empty
@example((ClassRegistry(("c0", "c1", "c2")), {("c2", "c2"): 5}))  # c0 and c1 empty rows and columns
def test_micro_f1_equals_the_one_vs_rest_formulation_and_accuracy(case):
    registry, tally = case
    m = from_tally(tally, registry)
    got, expected = micro_f1(m), tile_micro_f1(m)
    assert (got.value, got.reason) == (expected.value, expected.reason) == (accuracy(m).value, accuracy(m).reason)
    assert type(got.value) is type(expected.value)


def loop_mean(values, lenient, weights=None):
    """_mean_of as a left-to-right running Fraction sum."""
    weights_k = (1,) * len(values) if weights is None else weights.w
    total, weight, skipped = Fraction(0), 0, 0
    for w_k, v in zip(weights_k, values):
        if w_k == 0:
            continue
        if not v.is_defined:
            if not lenient:
                return v, 0
            skipped += 1
        else:
            total += w_k * v.unwrap()
            weight += w_k
    if weight == 0:
        return MetricValue.undefined(UndefinedReason.EMPTY_DENOMINATOR), skipped
    return MetricValue.defined(total / weight), skipped


PRIMES = (2, 3, 5, 7, 11, 13, 101, 65537, 2**61 - 1, 2**89 - 1)
DENOMINATORS = st.one_of(
    st.sampled_from((1, 2, 4, 6, 12)),  # repeated
    st.sampled_from(PRIMES),  # pairwise coprime
    st.integers(1, 10**40),  # long
)
RATIONALS = st.builds(lambda n, d: Fraction(n, d), st.integers(0, 10**30), DENOMINATORS)
PER_CLASS_VALUES = st.one_of(
    st.builds(MetricValue.defined, RATIONALS),
    st.sampled_from(tuple(MetricValue.undefined(r) for r in UndefinedReason)),
)
WEIGHTS = st.one_of(st.integers(0, 5), st.just(0), RATIONALS)


@given(st.lists(st.one_of(st.integers(-(10**30), 10**30), RATIONALS, RATIONALS.map(lambda x: -x)), max_size=40))
@example([])
@example([Fraction(1, p) for p in PRIMES])
def test_exact_sum_equals_the_builtin_sum(terms):
    assert exact_sum(terms) == sum(terms, Fraction(0))
    assert type(exact_sum(terms)) is Fraction


@settings(max_examples=300)
@given(st.data(), st.lists(PER_CLASS_VALUES, max_size=12), st.booleans(), st.booleans())
def test_mean_of_equals_the_running_sum(data, values, lenient, weighted):
    weights = None
    if weighted and values:
        w = data.draw(st.lists(WEIGHTS, min_size=len(values), max_size=len(values)))
        w[0] = w[0] or 1  # not all zero
        weights = ClassWeights(tuple(w))
        assert weights.total == sum(w, Fraction(0))
    got, expected = _mean_of(values, lenient, weights), loop_mean(values, lenient, weights)
    assert (got[0].value, got[0].reason, got[1]) == (expected[0].value, expected[0].reason, expected[1])
    assert type(got[0].value) is type(expected[0].value)


def test_mean_of_long_denominators_equals_the_running_sum():
    """Recalls like a dense K=1000 count matrix's: row totals near 500,000, so the mean's denominator is long."""
    rng = random.Random(1000)
    values = [MetricValue.defined(Fraction(rng.randint(0, 1000), rng.randint(400_000, 600_000))) for _ in range(1000)]
    weights = ClassWeights(tuple(Fraction(rng.randint(0, 9), rng.randint(1, 9)) for _ in values))
    for lenient in (False, True):
        for w in (None, weights):
            got = _mean_of(values, lenient, w)
            assert got == loop_mean(values, lenient, w)
    assert got[0].unwrap().denominator.bit_length() > 5_000
