"""
Building confusion matrices
===========================

Tally labeled pairs into a cross-table, read its marginals, slice out
one-vs-rest tiles, and combine partial tallies from parallel workers.
"""

from clfmetrics import ClassRegistry, from_pairs

# A confusion matrix is a tally of (actual, predicted) label pairs.
# Rows are the actual classes, columns the predicted ones.
pairs = [
    ("cat", "cat"), ("cat", "dog"), ("cat", "cat"),
    ("dog", "dog"), ("dog", "dog"), ("dog", "bird"),
    ("bird", "bird"), ("bird", "cat"),
]
m = from_pairs(pairs)

print("classes:", m.registry.labels)  # inferred as the sorted label union
print("counts by row:")
for label, row in zip(m.registry.labels, m.counts):
    print(f"  {label:>5}: {row}")
print("row totals (actual):   ", m.row_totals)
print("column totals (predicted):", m.col_totals)
print("units:", m.grand_total, " on the diagonal:", m.trace)

# One-vs-rest treats a single class as "positive" and pools the rest.
# The four tiles always partition every unit exactly once.
o = m.one_vs_rest(m.registry.index("cat"))
print("\ncat vs rest:", o)
print("tiles partition the matrix:", o.total == m.grand_total)

# Classes listed in a registry but absent from the data keep their
# all-zero row and column; nothing is silently dropped.
registry = ClassRegistry(("bird", "cat", "dog", "fish"))
wide = from_pairs(pairs, registry)
print("\nwith an extra registered class:", wide.registry.labels)
print("fish row is all zeros:", wide.counts[3])

# Partial tallies over one registry add elementwise with +, so ingestion
# can fan out over chunks of the data and combine at the end.
first_half = from_pairs(pairs[:4], registry)
second_half = from_pairs(pairs[4:], registry)
print("\nsum equals one-pass tally:", first_half + second_half == wide)
