#!/usr/bin/env python3
"""SHA-256 of every benchmark workload's parsed dataset, and of every
workload strategy's trained weights and test-split predictions.

    python3 tools/state_hashes.py [--root CHECKOUT]

For each workload in ``perfbench/workloads.py`` this writes the
workload's CSV for seed 3 and prints one line, ``<workload>
parsed-dataset <sha>``: the SHA-256 of what ``data.load_csv`` read from
it, that is every record's SMILES, label and parse warning count (from
``smiles.parse`` of its SMILES, which every checkout has), its
``node_features``, ``edge_features`` and ``bond_index`` (dtype, shape
and bytes) and its ``tokenize_raw`` list, and every quarantined row's
reason, so a generator or parser change shows on its own line. It then
takes each strategy's ``RunConfig`` from
``perfbench/worker.run_configs`` with ``max_epochs`` and ``patience``
set to 2, trains one seed with ``training.train_one`` on the
``training.load_dataset`` result and prints one line per strategy: the
workload, the strategy, the test metric, the SHA-256 of the trained
``state_dict`` (parameter names and float64 bytes, in name order) and
the SHA-256 of the trained model's predictions on the test split
(float64 bytes, predicted in batches of 64 as ``training.evaluate``
does), so a change to the prediction path shows even where the test
metric hides it, and last the same hash for the freshly built model
before any training (``training.build_model`` with the seed and the
train split's vocabulary), so a change to the forward shows apart from
a change to training. The configurations in ``EXTRA``, which no
workload trains, run on the inputs and the first config of the workload
they are listed under, with their field overrides, so all seven wirings
are covered, as are the frozen message passer, a message passer with no
message step, the two-layer GraphConv variant, the gate and max fusion
ops, the concat and gate fusions of both injecting wirings, and
``mpnn2lm`` without its MLM stage. A line with overrides names
them after the strategy, as ``strategy+field=value``. ``--root`` picks the source checkout whose
``src/`` and ``perfbench/`` are imported (default: the one holding this
script), so two checkouts compare with one ``diff`` of the outputs.
"""

import argparse
import dataclasses
import hashlib
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 3
EPOCHS = 2
PREDICT_BATCH = 64  # the batch size training.evaluate predicts with
# (strategy, field overrides) no workload trains, hashed on one workload's
# inputs and first config; frozen_mpnn keeps every message-passer weight at
# its initial value, message_steps=0 builds the input layer alone, the
# late-fusion lines train GraphConv and the fusion ops no workload uses, the
# lm2mpnn and mpnn2lm fusion lines cover the injection paths the workloads'
# own configs (lm2mpnn sum, mpnn2lm concat) miss, and mpnn2lm without MLM is
# the one encoder wiring whose encoder reads every row
EXTRA = {
    "small-graph-integration": (
        ("lm-baseline", {}),
        ("contrast-graph", {}),
        ("contrast-node", {"frozen_mpnn": True}),
        ("contrast-graph", {"frozen_mpnn": True}),
        ("contrast-node", {"message_steps": 0}),
        ("contrast-graph", {"message_steps": 0}),
        ("lm2mpnn", {"frozen_mpnn": True}),
        ("late-fusion", {"gnn_variant": "graphconv"}),
        ("late-fusion", {"fusion": "gate"}),
        ("late-fusion", {"fusion": "max"}),
        ("lm2mpnn", {"fusion": "concat"}),
        ("lm2mpnn", {"fusion": "gate"}),
    ),
    "large-graph-pretrained-fusion": (
        ("late-fusion", {"frozen_mpnn": True}),
        ("mpnn2lm", {"mlm_pretrain": False}),
        ("mpnn2lm", {"fusion": "gate"}),
    ),
}


def state_hash(state):
    digest = hashlib.sha256()
    for name in sorted(state):
        digest.update(name.encode())
        digest.update(state[name].tobytes())
    return digest.hexdigest()


def dataset_hash(data):
    """SHA-256 of a ``load_csv`` result's parsed records and quarantine."""
    from molfuse.smiles import parse

    digest = hashlib.sha256()
    for rec in data.records:
        warnings = len(parse(rec.smiles).warnings)
        digest.update(repr((rec.smiles, rec.label, warnings)).encode())
        graph = rec.graph
        for array in (graph.node_features, graph.edge_features,
                      graph.bond_index):
            digest.update(repr((array.dtype.str, array.shape)).encode())
            digest.update(array.tobytes())
        digest.update(repr(graph.tokens).encode())
    for entry in data.quarantined:
        digest.update(repr((entry.row_index, entry.reason)).encode())
    return digest.hexdigest()


def predictions_hash(model, test_mols):
    """SHA-256 of the model's test-split predictions."""
    import numpy as np

    preds = np.concatenate([model.predict(test_mols[lo:lo + PREDICT_BATCH])
                            for lo in range(0, len(test_mols), PREDICT_BATCH)])
    return hashlib.sha256(preds.astype(np.float64).tobytes()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=os.path.dirname(HERE),
                        help="source checkout to import (default: this one)")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]

    from molfuse.training import build_model, load_dataset, prepare_splits, train_one
    from worker import run_configs
    from workloads import WORKLOADS, data_seed, write_inputs

    with tempfile.TemporaryDirectory() as work:
        for name, workload in WORKLOADS.items():
            csv_path = os.path.join(work, f"{name}.csv")
            write_inputs(workload, SEED, csv_path)
            seed = data_seed(SEED)
            configs = run_configs(workload, csv_path, seed)
            print(f"{name} parsed-dataset {dataset_hash(load_dataset(configs[0]))}",
                  flush=True)
            runs = [(config, {}) for config in configs]
            runs += [(dataclasses.replace(configs[0], strategy=strategy,
                                          **overrides), overrides)
                     for strategy, overrides in EXTRA.get(name, ())]
            for config, overrides in runs:
                config = dataclasses.replace(
                    config, max_epochs=EPOCHS, patience=EPOCHS)
                data = load_dataset(config)
                _, vocab, (_, _, (test_mols, _, _)) = prepare_splits(
                    config, data.records, seed)
                untrained = predictions_hash(
                    build_model(config, len(vocab), seed), test_mols)
                model, result = train_one(config, seed, data)
                label = "".join([config.strategy] + [
                    f"+{key}={value}" for key, value in overrides.items()])
                print(f"{name} {label} {result.test_metric!r} "
                      f"{state_hash(model.state_dict())} "
                      f"{predictions_hash(model, test_mols)} {untrained}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
