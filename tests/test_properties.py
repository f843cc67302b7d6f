"""Property-based checks of the structural invariants."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clfmetrics import (
    ClassRegistry,
    ConfusionMatrix,
    OneVsRest,
    ProbRecord,
    XentOptions,
    accuracy,
    argmax_rule,
    balanced_accuracy,
    evaluate,
    from_pairs,
    harden,
    kappa_binary,
    kappa_multiclass,
    macro_f1,
    macro_precision,
    macro_recall,
    mcc_binary,
    mcc_multiclass,
    merge,
    micro_f1,
    misclassification_rate,
    per_class,
    score_records,
    xent_dataset,
    xent_unit,
)
from clfmetrics.confusion import from_tally
from clfmetrics.proba import PROB_SUM_TOLERANCE, InvalidRecordError, exact_steps, round_steps

RATE_METRICS = (
    accuracy,
    misclassification_rate,
    balanced_accuracy,
    macro_precision,
    macro_recall,
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
    left = merge(a, b)
    assert left == merge(b, a)
    assert left.grand_total == a.grand_total + b.grand_total
    assert left.row_totals == tuple(x + y for x, y in zip(a.row_totals, b.row_totals))


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
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
    assert xent_dataset(records) == xent_dataset(shuffled)


@settings(max_examples=30)
@given(st.lists(prob_records(k=3), min_size=1, max_size=40))
def test_hardened_accuracy_counts_argmax_hits(records):
    registry = ClassRegistry(("a", "b", "c"))
    m = harden(records, registry)
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
def test_one_pass_matches_separate_reductions(records, reduce):
    registry = ClassRegistry(("a", "b", "c", "d"))
    options = XentOptions(reduce=reduce)
    matrix, xent = score_records(iter(records), registry, options)
    assert matrix == harden(records, registry)
    assert xent.hex() == xent_dataset(records, options).hex()
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


@given(sparse_tallies(min_k=3, max_k=3), sparse_tallies(min_k=3, max_k=3), st.integers(1, 9), st.permutations(range(3)))
def test_merge_permute_and_scale_equal_their_dense_longhand(a, b, factor, order):
    (registry, ta), (_, tb) = a, b
    ga, gb = dense(registry, ta), dense(registry, tb)
    ma, mb = from_tally(ta, registry), from_tally(tb, registry)
    summed = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(ga, gb)]
    assert merge(ma, mb) == ma + mb == ConfusionMatrix.from_grid(registry.labels, summed)
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
    assert harden(records, registry) == ConfusionMatrix(registry, grid)


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
@given(st.lists(PROB_VALUES, min_size=1, max_size=6), st.data())
def test_vector_check_matches_the_longhand_on_vectors_that_sum_to_one(raw, data):
    """A valid vector with one value swapped for any other: the cases the sum test alone must decide."""
    weights = [abs(x) if math.isfinite(x) else 1.0 for x in raw]
    total = math.fsum(weights) or 1.0
    probs = [w / total for w in weights]
    probs[data.draw(st.integers(0, len(probs) - 1))] = data.draw(PROB_VALUES)
    assert check_accepts(tuple(probs)) == longhand_accepts(probs)


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
