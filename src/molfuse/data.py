"""CSV ingestion, reproducible splits, batching, and naive baselines.

The split shuffle is pinned to an explicitly documented generator (see
:class:`Lcg64`) so that an implementation in any language can reproduce
the exact same partitions from (records, seed, ratios).
"""

import csv
import math
from dataclasses import dataclass, field

from .smiles import MolecularGraph, SmilesError, parse

PROTOCOL_SEEDS = (0, 7, 42, 100, 2024)
TASK_KINDS = ("regression", "binary-classification")
RATIO_TOLERANCE = 1e-9

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


class Lcg64:
    """64-bit linear congruential generator, fully specified for reruns.

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64,
    initialized with state = seed. ``below(n)`` advances once and returns
    (state' >> 33) mod n. ``shuffle`` is a Fisher-Yates pass from the last
    index down to 1, swapping index i with j = below(i + 1).
    """

    def __init__(self, seed):
        self.state = seed & _MASK64

    def next_u64(self):
        self.state = (_LCG_MULT * self.state + _LCG_INC) & _MASK64
        return self.state

    def below(self, n):
        return (self.next_u64() >> 33) % n

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


@dataclass
class DataRecord:
    smiles: str
    label: float
    row_index: int
    # load_csv parses each SMILES once, and set-up reads only this
    graph: MolecularGraph = field(repr=False, compare=False)


@dataclass
class TaskKind:
    kind: str  # one of TASK_KINDS

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind '{self.kind}'")

    @property
    def metric_name(self):
        return "mae" if self.kind == "regression" else "accuracy"

    @property
    def higher_is_better(self):
        return self.kind != "regression"


REGRESSION = TaskKind("regression")
CLASSIFICATION = TaskKind("binary-classification")


@dataclass
class SplitSpec:
    ratios: tuple = (0.8, 0.1, 0.1)
    seed: int = 0

    def __post_init__(self):
        if len(self.ratios) != 3 or any(r <= 0 for r in self.ratios):
            raise ValueError(f"ratios = {self.ratios}: must be three positives")
        if abs(sum(self.ratios) - 1.0) > RATIO_TOLERANCE:
            raise ValueError(f"ratios = {self.ratios}: must sum to 1.0")


def parse_ratio_string(text):
    """'8:1:1' or '9:0.5:0.5' -> normalized (train, valid, test) fractions;
    fields that already sum to 1 are kept, so written fractions read back."""
    parts = tuple(float(p) for p in text.split(":"))
    if len(parts) != 3:
        raise ValueError(f"ratio '{text}' must have three fields")
    total = sum(parts)
    if not (math.isfinite(total) and total > 0):
        raise ValueError(f"ratio '{text}' must have a finite, positive sum")
    if abs(total - 1.0) <= RATIO_TOLERANCE:
        return parts
    return tuple(p / total for p in parts)


@dataclass
class QuarantineEntry:
    row_index: int
    smiles: str
    reason: str


@dataclass
class LoadResult:
    records: list
    quarantined: list = field(default_factory=list)
    warnings: int = 0


def load_csv(path, smiles_column, label_column, task):
    """Read records in file order; bad rows land in the quarantine list.

    Quarantine reasons: missing/blank fields, non-finite or (for
    classification) non-binary labels, and SMILES the parser rejects.
    A record keeps its parse's :class:`MolecularGraph`.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file")
        for col in (smiles_column, label_column):
            if col not in reader.fieldnames:
                raise ValueError(
                    f"{path}: no column '{col}'; available: {reader.fieldnames}"
                )
        result = LoadResult(records=[])
        for i, row in enumerate(reader):
            smiles = (row.get(smiles_column) or "").strip()
            raw_label = (row.get(label_column) or "").strip()
            if not smiles:
                result.quarantined.append(QuarantineEntry(i, smiles, "missing smiles"))
                continue
            if not raw_label:
                result.quarantined.append(QuarantineEntry(i, smiles, "missing label"))
                continue
            try:
                label = float(raw_label)
            except ValueError:
                result.quarantined.append(
                    QuarantineEntry(i, smiles, f"unreadable label '{raw_label}'")
                )
                continue
            if not math.isfinite(label):
                result.quarantined.append(QuarantineEntry(i, smiles, "non-finite label"))
                continue
            if task.kind == "binary-classification" and label not in (0.0, 1.0):
                result.quarantined.append(
                    QuarantineEntry(i, smiles, f"non-binary label {label}")
                )
                continue
            try:
                graph = parse(smiles)
            except SmilesError as exc:
                result.quarantined.append(QuarantineEntry(i, smiles, str(exc)))
                continue
            result.warnings += len(graph.warnings)
            result.records.append(DataRecord(smiles, label, i, graph))
    if not result.records:
        raise ValueError(f"{path}: no usable records")
    return result


def split(records, spec):
    """Deterministic (train, valid, test) partition.

    The record list is shuffled with Lcg64(seed) and cut at
    floor(r_train * N) and floor(r_train * N) + floor(r_valid * N); the
    remainder is the test set. Every partition must be non-empty.
    """
    order = list(records)
    Lcg64(spec.seed).shuffle(order)
    n = len(order)
    n_train = math.floor(spec.ratios[0] * n)
    n_valid = math.floor(spec.ratios[1] * n)
    train = order[:n_train]
    valid = order[n_train:n_train + n_valid]
    test = order[n_train + n_valid:]
    if not train or not valid or not test:
        raise ValueError(
            f"split of {n} records at ratios {spec.ratios} leaves an empty partition"
        )
    return train, valid, test


def batch_iter(subset, batch_size, epoch_seed):
    """Epoch-seeded shuffle, then consecutive batches; the tail is kept."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = list(subset)
    Lcg64(epoch_seed).shuffle(order)
    for lo in range(0, len(order), batch_size):
        yield order[lo:lo + batch_size]


def naive_baseline(train, test, task):
    """Mean predictor MAE (regression) or majority-class accuracy."""
    if not train or not test:
        raise ValueError("naive_baseline needs non-empty splits")
    train_labels = [r.label for r in train]
    if task.kind == "regression":
        mean = sum(train_labels) / len(train_labels)
        return sum(abs(r.label - mean) for r in test) / len(test)
    ones = sum(1 for y in train_labels if y == 1.0)
    majority = 1.0 if ones * 2 >= len(train_labels) else 0.0
    return sum(1 for r in test if r.label == majority) / len(test)
