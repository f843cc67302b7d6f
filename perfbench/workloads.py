"""Seeded input files for the benchmark, with the exact answers they must produce.

Every generator returns a Workload: the CLI arguments, the files it reads and,
for each side of the report, the exact confusion counts the generator wrote
(plus the exactly rounded cross-entropy for probability input). The reference
scores are recomputed from those counts with this module's own Fraction code,
and CLI output is checked against them without importing clfmetrics.

The shape of a workload (N, K, accuracy, class balance) is fixed by its name;
the seed only changes which rows are drawn.
"""

from __future__ import annotations

import json
import math
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

CHECKED_METRICS = ("accuracy", "kappa", "macro_f1")
EPSILON = 1e-15  # the CLI's default cross-entropy floor


@dataclass
class Side:
    """What one evaluated file must report: its exact tallies and cross-entropy."""

    counts: Counter  # (actual label, predicted label) -> units
    cross_entropy: float | None = None
    expected: dict = field(init=False)

    def __post_init__(self) -> None:
        self.expected = reference_scores(self.counts)

    @property
    def units(self) -> int:
        return sum(self.counts.values())

    @property
    def labels(self) -> list[str]:
        return sorted({label for pair in self.counts for label in pair})


@dataclass
class Workload:
    name: str
    argv: list[str]  # CLI arguments after the program name
    files: list[Path]
    sides: list[Side]
    output: str  # "text", "json" or "compare-json"

    @property
    def units(self) -> int:
        """Input rows scored by one invocation, summed over both sides for compare."""
        return sum(side.units for side in self.sides)


# --- reference scores -------------------------------------------------------


def reference_scores(counts: Counter) -> dict:
    """accuracy, kappa and macro_f1 from exact tallies, per Grandini et al. (2020).

    Kappa is (Po - Pe) / (1 - Pe) with Pe the sum over classes of the product
    of the actual and predicted marginal shares. Macro F1 is the harmonic mean
    of macro precision and macro recall. An empty denominator gives None.
    """
    actual, predicted, hits = Counter(), Counter(), Counter()
    for (a, p), n in counts.items():
        actual[a] += n
        predicted[p] += n
        if a == p:
            hits[a] += n
    labels = set(actual) | set(predicted)
    total = sum(actual.values())
    if total == 0:
        return dict.fromkeys(CHECKED_METRICS)
    po = Fraction(sum(hits.values()), total)
    pe = sum((Fraction(actual[c] * predicted[c], total * total) for c in labels), Fraction(0))
    kappa = (po - pe) / (1 - pe) if pe != 1 else Fraction(int(po == 1))
    macro_f1 = None
    if all(predicted[c] for c in labels) and all(actual[c] for c in labels):
        mp = sum((Fraction(hits[c], predicted[c]) for c in labels), Fraction(0)) / len(labels)
        mr = sum((Fraction(hits[c], actual[c]) for c in labels), Fraction(0)) / len(labels)
        macro_f1 = 2 * mp * mr / (mp + mr) if mp + mr else None
    return {"accuracy": po, "kappa": kappa, "macro_f1": macro_f1}


# --- output checks ----------------------------------------------------------

_RATIONAL = re.compile(r"-?\d+(/\d+)?")


def _check_text_value(name: str, want: Fraction | None, shown: str, exact: str) -> list[str]:
    if want is None:
        return [] if shown.startswith("undef(") else [f"{name}: expected undefined, got {shown!r}"]
    errors = []
    if shown != f"{float(want):.4f}":
        errors.append(f"{name}: shown {shown!r}, expected {float(want):.4f}")
    # A rational too long for the table may be abbreviated; a complete one must be exact.
    if _RATIONAL.fullmatch(exact) and Fraction(exact) != want:
        errors.append(f"{name}: exact {exact!r}, expected {want}")
    elif not exact:
        errors.append(f"{name}: exact column is empty")
    return errors


def check_text(text: str, side: Side) -> list[str]:
    """Compare a text report's header counts and checked metric rows with the reference."""
    errors = []
    if f"\nunits: {side.units}\n" not in text:
        errors.append(f"units line is not 'units: {side.units}'")
    if f"\nclasses ({len(side.labels)}): " not in text:
        errors.append(f"classes line does not give {len(side.labels)} classes")
    rows = {}
    for line in text.splitlines():
        tokens = line.split()
        if tokens and tokens[0] in CHECKED_METRICS and tokens[0] not in rows:
            rows[tokens[0]] = tokens[1:]
    for name in CHECKED_METRICS:
        if name not in rows or not rows[name]:
            errors.append(f"{name}: row missing")
            continue
        shown, exact = rows[name][0], rows[name][1] if len(rows[name]) > 1 else ""
        errors += _check_text_value(name, side.expected[name], shown, exact)
    return errors


def _check_json_value(where: str, want: Fraction | None, obj: object) -> list[str]:
    if not isinstance(obj, dict):
        return [f"{where}: not an object"]
    if want is None:
        return [] if "undefined" in obj else [f"{where}: expected undefined, got {obj!r}"]
    if obj.get("rational") is None or Fraction(obj["rational"]) != want:
        return [f"{where}: rational {obj.get('rational')!r}, expected {want}"]
    return []


def _check_json_side(obj: dict, side: Side, where: str) -> list[str]:
    errors = []
    if obj.get("units") != side.units:
        errors.append(f"{where}units {obj.get('units')!r}, expected {side.units}")
    if obj.get("classes") != side.labels:
        errors.append(f"{where}classes differ from the {len(side.labels)} generated labels")
    metrics = obj.get("metrics", {})
    for name in CHECKED_METRICS:
        errors += _check_json_value(f"{where}{name}", side.expected[name], metrics.get(name))
    if side.cross_entropy is not None:
        got = obj.get("cross_entropy", {}).get("value")
        if got is None or float(got) != side.cross_entropy:
            errors.append(f"{where}cross_entropy {got!r}, expected {side.cross_entropy!r}")
    return errors


def check_output(workload: Workload, stdout: bytes) -> list[str]:
    """Every disagreement between one invocation's stdout and the reference."""
    try:
        text = stdout.decode("utf-8")
        if workload.output == "text":
            return check_text(text, workload.sides[0])
        obj = json.loads(text)
        if workload.output == "json":
            return _check_json_side(obj, workload.sides[0], "")
        side_a, side_b = workload.sides
        errors = _check_json_side(obj["a"], side_a, "a.")
        errors += _check_json_side(obj["b"], side_b, "b.")
        for name in CHECKED_METRICS:
            want_a, want_b = side_a.expected[name], side_b.expected[name]
            want = None if want_a is None or want_b is None else want_b - want_a
            errors += _check_json_value(f"delta.{name}", want, obj["deltas"].get(name))
        return errors
    except (ValueError, TypeError, AttributeError, KeyError, ZeroDivisionError) as exc:
        return [f"malformed output: {exc!r}"]


# --- generators -------------------------------------------------------------


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _wrong(rng: random.Random, actual: int, k: int) -> int:
    return (actual + 1 + rng.randrange(k - 1)) % k


def _write_labels(path: Path, names: list[str], pairs: list[tuple[int, int]]) -> Counter:
    """Write actual,predicted rows and return their exact tally by label."""
    k = len(names)
    line = [[f"{names[a]},{names[p]}\n" for p in range(k)] for a in range(k)]
    path.write_text("".join(line[a][p] for a, p in pairs), encoding="utf-8", newline="")
    tally = Counter(pairs)
    return Counter({(names[a], names[p]): n for (a, p), n in tally.items()})


def labels_1m(seed: int, work: Path) -> Workload:
    """1,000,000 label rows, K=10 with class shares 1:2:...:10, about 70% correct."""
    n, k, accuracy = 1_000_000, 10, 0.70
    rng = _rng("labels-1m", seed)
    names = [f"c{c}" for c in range(k)]
    actuals = rng.choices(range(k), weights=range(1, k + 1), k=n)
    rand = rng.random
    pairs = [(a, a if rand() < accuracy else _wrong(rng, a, k)) for a in actuals]
    path = work / "labels-1m.csv"
    counts = _write_labels(path, names, pairs)
    return Workload("labels-1m", ["evaluate", "--kind", "labels", str(path)], [path], [Side(counts)], "text")


def probs_200k(seed: int, work: Path) -> Workload:
    """200,000 rows of 10 full-precision probabilities, as a softmax dump would hold.

    The highest probability sits on the actual class for about 70% of rows.
    Each row is integer weights over their sum, written with repr, so the
    floats the CLI reads back are exactly the ones the reference uses: the
    largest weight gives the hardened class and the true-class probability
    gives the cross-entropy term.
    """
    n, k, accuracy = 200_000, 10, 0.70
    rng = _rng("probs-200k", seed)
    names = [f"class{c}" for c in range(k)]
    bits, rand = rng.getrandbits, rng.random
    lines = ["actual," + ",".join(names) + "\n"]
    pairs = []
    terms = []
    for _ in range(n):
        actual = rng.randrange(k)
        top = actual if rand() < accuracy else _wrong(rng, actual, k)
        weights = [bits(12) for _ in range(k)]
        weights[top] = max(weights) + 1 + bits(12)  # strictly the largest
        total = sum(weights)
        probs = [w / total for w in weights]
        lines.append(f"{names[actual]},{','.join(map(repr, probs))}\n")
        pairs.append((actual, top))
        terms.append(-math.log(max(probs[actual], EPSILON)))
    path = work / "probs-200k.csv"
    path.write_text("".join(lines), encoding="utf-8", newline="")
    tally = Counter(pairs)
    counts = Counter({(names[a], names[p]): c for (a, p), c in tally.items()})
    side = Side(counts, cross_entropy=math.fsum(terms) / n)
    argv = ["evaluate", "--kind", "probs", "--format", "json", str(path)]
    return Workload("probs-200k", argv, [path], [side], "json")


def imagenet_compare(seed: int, work: Path) -> Workload:
    """Two models on one ImageNet-validation-shaped set: K=1000, 50 units per class.

    Model A is right on about 76% of units and model B on about 80%. A wrong
    prediction lands on one of the ten neighbouring classes, so each matrix is
    sparse and heavy on the diagonal, like real top-1 confusions.
    """
    k, per_class = 1000, 50
    rng = _rng("imagenet-compare", seed)
    names = [f"n{c:08d}" for c in range(k)]
    actuals = [c for c in range(k) for _ in range(per_class)]
    rng.shuffle(actuals)
    offsets = [d for d in range(-5, 6) if d]
    sides, files = [], []
    for tag, accuracy in (("a", 0.76), ("b", 0.80)):
        pairs = [
            (a, a if rng.random() < accuracy else (a + rng.choice(offsets)) % k) for a in actuals
        ]
        path = work / f"imagenet-{tag}.csv"
        sides.append(Side(_write_labels(path, names, pairs)))
        files.append(path)
    argv = ["compare", "--kind", "labels", "--format", "json", *map(str, files)]
    return Workload("imagenet-compare", argv, files, sides, "compare-json")


GENERATORS = {
    "labels-1m": labels_1m,
    "probs-200k": probs_200k,
    "imagenet-compare": imagenet_compare,
}


def generate(name: str, seed: int, work: Path) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    return GENERATORS[name](seed, work)
