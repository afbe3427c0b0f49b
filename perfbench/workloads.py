"""Workload definitions and their seeded inputs.

Each workload is one dataset kind from ``molfuse.synthdata`` plus the
strategies the protocol trains on it. The inputs are generated from the
workload seed alone; the program sees only the written CSV file.
"""

import csv
import dataclasses
import math
import statistics

# Injected bad rows per file: (dotted SMILES, unsupported element,
# missing label). They send the loader down its quarantine path.
BAD_ROWS = (3, 2, 2)
# A large test share keeps the naive-baseline check decisive on a small
# file: with 180 test molecules a classifier at 0.8 accuracy beats a 0.65
# majority baseline by several standard errors.
RATIOS = (0.5, 0.1, 0.4)
BATCH_SIZE = 32
# 448 loadable rows give a 224-molecule train split, 7 full batches: no
# short tail batch whose smaller summed MLM loss would pass for learning.
MOLECULES = 448


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # synthdata dataset kind: "esol" or "bbbp"
    molecules: int     # loadable rows in the generated file
    strategies: tuple
    epochs: tuple      # training epochs, one entry per strategy
    mlm_epochs: int = 0
    fusion: str = "sum"

    @property
    def task(self):
        return "regression" if self.kind == "esol" else "binary-classification"

    @property
    def label_column(self):
        return "log_solubility" if self.kind == "esol" else "p_np"

    def smoke(self):
        """The same workload at a size that finishes in seconds."""
        return dataclasses.replace(self, molecules=60,
                                   epochs=(1,) * len(self.strategies),
                                   mlm_epochs=min(self.mlm_epochs, 1))


WORKLOADS = {
    w.name: w
    for w in (
        # Small graphs and short SMILES, where integration helps; per-op
        # tape overhead in the encoder dominates.
        Workload("small-graph-integration", "esol", MOLECULES,
                 ("contrast-node", "lm2mpnn"), epochs=(3, 3)),
        # Large graphs and long SMILES with MLM pretraining: the only run of
        # the MLM, CLS and embedding-injection paths. mpnn2lm can sit at the
        # majority class for many steps before it learns (seen with sum,
        # max and concat fusion; 49 steps on seed 505 with concat), so it
        # gets 10 epochs of 7 steps; concat leaves that plateau soonest.
        Workload("large-graph-pretrained-fusion", "bbbp", MOLECULES,
                 ("late-fusion", "mpnn2lm"), epochs=(3, 10), mlm_epochs=1,
                 fusion="concat"),
        # The same molecules with the message passer alone: no encoder, so
        # an encoder or tape change should leave it unchanged.
        Workload("large-graph-mpnn", "bbbp", MOLECULES, ("mpnn-baseline",),
                 epochs=(4,)),
    )
}


def data_seed(seed):
    return seed % (1 << 32)


def write_inputs(workload, seed, path):
    """Write the workload's CSV; returns the number of rows written."""
    from molfuse.synthdata import write_dataset

    return write_dataset(path, workload.kind, workload.molecules,
                         data_seed(seed), bad_counts=BAD_ROWS)


def expected_train_size(usable):
    """The pinned split rule: the train partition is floor(r_train * N)."""
    return math.floor(RATIOS[0] * usable)


def describe_inputs(workload, path):
    """Atom and token counts of the file's parseable molecules."""
    from molfuse.smiles import SmilesError, parse, tokenize_raw

    atoms, tokens = [], []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            if not row[workload.label_column]:
                continue
            try:
                graph = parse(row["smiles"])
            except SmilesError:
                continue
            atoms.append(graph.num_atoms)
            tokens.append(len(tokenize_raw(row["smiles"])) + 1)  # + CLS

    def dist(xs):
        q = statistics.quantiles(xs, n=4)
        return {"mean": round(statistics.fmean(xs), 2), "p25": q[0],
                "median": q[1], "p75": q[2], "max": max(xs)}

    return {"molecules": len(atoms), "atoms": dist(atoms), "tokens": dist(tokens)}
