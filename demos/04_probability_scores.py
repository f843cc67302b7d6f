"""
Scoring probability outputs
===========================

Cross-entropy reads the probability a model gave the true class, nothing
else; hardening turns probability vectors into labels via the
highest-probability rule and hands them to the confusion matrix.
"""

import math

from clfmetrics import (
    ClassRegistry,
    ProbRecord,
    XentOptions,
    accuracy,
    argmax_rule,
    score_records,
    xent_unit,
)

# One unit whose true class is index 2, with 40% of the mass on it.
unit = ProbRecord(true_class=2, probs=(0.35, 0.25, 0.4))
print("per-unit cross-entropy:", xent_unit(unit))
print("which is -ln(0.4):     ", -math.log(0.4))

# Two models can put the SAME 0.4 on the true class but spread the rest very
# differently; cross-entropy cannot tell them apart, even though the
# highest-probability rule classifies one right and the other wrong.
confident_right = ProbRecord(2, (0.35, 0.25, 0.4))
confident_wrong = ProbRecord(2, (0.55, 0.05, 0.4))
print("\nsame score for both:", xent_unit(confident_right) == xent_unit(confident_wrong))
print("but argmax picks:", argmax_rule(confident_right.probs), "vs", argmax_rule(confident_wrong.probs))

# score_records reads a dataset of records once: it hardens each vector into
# the confusion matrix and sums the per-unit cross-entropies.
registry = ClassRegistry(("a", "b", "c"))

# A certain and correct model scores exactly zero.
sure = [ProbRecord(i, tuple(1.0 if j == i else 0.0 for j in range(3))) for i in (0, 1, 2)]
print("\none-hot-correct dataset:", score_records(sure, registry)[1])

# Dataset reduction defaults to the mean; a plain sum is available, and a
# clipping floor keeps -log finite when a model assigns a hard zero.
batch = [confident_right, confident_wrong, ProbRecord(0, (0.0, 0.6, 0.4))]
m, mean = score_records(batch, registry)
print("mean reduction:", mean)
print("sum reduction: ", score_records(batch, registry, XentOptions(reduce="sum"))[1])

# Hardening: highest probability wins, ties break to the lowest class index.
print("\nhardened matrix, rows = actual:")
for label, row in zip(registry.labels, m.counts):
    print(f"  {label}: {row}")
print("hardened accuracy:", accuracy(m).unwrap())
