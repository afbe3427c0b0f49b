"""Tests of the benchmark itself: output form at smoke size, and that each
correctness check can fail.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

from molfuse import training  # noqa: E402
from molfuse.autodiff import backward  # noqa: E402
from molfuse.checkpoint import save_checkpoint  # noqa: E402
from molfuse.data import REGRESSION, SplitSpec, load_csv, split  # noqa: E402
from molfuse.smiles import Vocabulary  # noqa: E402
from molfuse.training import RunConfig, build_model, prepare_molecules  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_end_to_end_form(workload):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert isinstance(result["correct"], bool)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads((BENCH / "out" / "results" /
                         f"{workload}-seed5-trace0.json").read_text())
    assert set(record["fingerprint"]) >= {"cores", "blas", "blas_threads",
                                          "use_numba", "numpy", "python"}
    # At smoke size the model is barely trained (one MLM batch, one
    # epoch), so only the two learning checks may fail there.
    failing = {c["check"].split(".")[-1] for c in record["checks"]
               if not c["passed"]}
    assert failing <= {"beats_naive", "mlm_loss"}, record["checks"]


def test_smoke_traced_form():
    proc = run_bench("--workload", "large-graph-mpnn", "--seed", "5",
                     "--seconds", "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == want
    for name in ("lm.embed", "lm.encode", "lm.extract", "lm.mlm_pretrain_step"):
        assert metrics[f"{name}.calls"]["value"] == 0
    assert metrics["optim.adam_step.calls"]["value"] > 0
    assert metrics["autodiff.records_per_batch"]["value"] > 0
    assert metrics["trace.unattributed_s"]["value"] < metrics[
        "trace.run_s_traced"]["value"]


def test_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "large-graph-mpnn", "--seed", "0",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A small regression model, its molecules and its config."""
    path = tmp_path_factory.mktemp("tiny") / "tiny.csv"
    write_inputs(WORKLOADS["small-graph-integration"].smoke(), 9, str(path))
    config = RunConfig(strategy="contrast-node", dataset=str(path),
                       seeds=(9,), hidden_dim=16, num_heads=2, ffn_dim=32,
                       num_layers=1, message_steps=1, edge_hidden=8)
    loaded = load_csv(str(path), "smiles", "log_solubility", REGRESSION)
    train, _, test = split(loaded.records, SplitSpec(config.ratios, 9))
    vocab = Vocabulary.build(r.smiles for r in train)
    train_mols, _, _ = prepare_molecules(train, vocab, config.max_len)
    test_mols, _, _ = prepare_molecules(test, vocab, config.max_len)
    model = build_model(config, len(vocab), 9)
    return config, vocab, model, train, test, train_mols, test_mols


def test_pinned_split_matches_program(tiny):
    config, _, _, train, test, _, _ = tiny
    records = train + test  # any list will do; order matters, not content
    for seed in (0, 1, 2**40 + 3):
        mine = checks.pinned_split(records, config.ratios, seed)
        theirs = split(records, SplitSpec(config.ratios, seed))
        assert [list(map(id, part)) for part in mine] == [
            list(map(id, part)) for part in theirs]
    assert len(mine[0]) == math.floor(config.ratios[0] * len(records))


def test_gradient_check_passes_and_rejects_scaled_gradient(tiny):
    _, _, model, _, _, train_mols, _ = tiny
    batch = train_mols[:8]
    before = [p.values.copy() for p in model.parameters()]
    assert checks.gradient_check(model, batch, 1)[0]

    def scaled(loss, tape):
        return {k: 1.01 * g for k, g in backward(loss, tape).items()}

    assert not checks.gradient_check(model, batch, 1, backward_fn=scaled)[0]
    for p, b in zip(model.parameters(), before):
        assert p.values.tobytes() == b.tobytes()


def test_naive_check_rejects_train_mean_predictor(tiny):
    _, _, _, train, test, _, _ = tiny
    train_labels = [r.label for r in train]
    test_labels = [r.label for r in test]
    naive = checks.naive_metric("regression", train_labels, test_labels)
    mean_preds = np.full(len(test_labels), np.mean(train_labels))
    metric = checks.metric_from_predictions("regression", mean_preds, test_labels)
    assert not checks.beats_naive("regression", metric, naive)[0]
    assert checks.beats_naive("regression", np.nextafter(naive, 0), naive)[0]
    # majority-class predictor for classification
    labels = [1.0, 1.0, 0.0, 1.0]
    naive = checks.naive_metric("binary-classification", labels, labels)
    metric = checks.metric_from_predictions("binary-classification",
                                            [5.0] * 4, labels)
    assert not checks.beats_naive("binary-classification", metric, naive)[0]


def test_reported_metric_check_rejects_one_ulp(tiny):
    _, _, model, _, _, _, test_mols = tiny
    preds = checks.predict_all(model, test_mols)
    value = checks.metric_from_predictions(
        "regression", preds, [m.label for m in test_mols])
    assert value == training.evaluate(model, test_mols, REGRESSION)
    assert checks.reported_metric_matches("regression", model, test_mols, value)[0]
    off = float(np.nextafter(value, np.inf))
    assert not checks.reported_metric_matches("regression", model, test_mols, off)[0]


def test_recording_check_rejects_changed_predictions(tiny):
    _, _, model, _, _, _, test_mols = tiny
    batch = test_mols[:8]
    assert checks.recording_check(model, batch)[0]

    class Drifting:
        def predict(self, mols):
            return np.nextafter(model.predict(mols), np.inf)

        def forward_batch(self, *args, **kwargs):
            return model.forward_batch(*args, **kwargs)

    assert not checks.recording_check(Drifting(), batch)[0]


def test_checkpoint_check_rejects_corrupt_tensor(tiny, tmp_path):
    config, vocab, model, _, _, _, test_mols = tiny
    path = tmp_path / "ck.bin"
    state = model.state_dict()
    save_checkpoint(path, {"seed": 9, **config.to_dict()}, state)
    assert checks.checkpoint_check(path, model, len(vocab), test_mols)[0]
    state["head.b2"] = state["head.b2"] + 1e-12
    save_checkpoint(path, {"seed": 9, **config.to_dict()}, state)
    assert not checks.checkpoint_check(path, model, len(vocab), test_mols)[0]


def test_count_and_mlm_checks_reject():
    assert checks.work_count_check([40, 40], 2, 40)[0]
    assert not checks.work_count_check([40, 39], 2, 40)[0]
    assert not checks.work_count_check([40], 2, 40)[0]
    assert checks.mlm_count_check([1.0] * 7, 0, 1, 200, 32)[0]
    assert not checks.mlm_count_check([1.0] * 6, 0, 1, 200, 32)[0]
    assert checks.mlm_loss_check([4.0, 3.0, 3.5, 2.0, 2.5, 1.0, 1.5, 1.2])[0]
    assert not checks.mlm_loss_check([2.0, 2.1, 2.2, 2.0, 2.3, 2.4, 2.5, 2.6])[0]


def test_tracer_patches_where_looked_up_and_restores(tiny):
    from molfuse import data, smiles

    _, _, _, train, _, _, _ = tiny
    originals = (smiles.parse, data.parse, training.parse, training.backward)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        vocab = Vocabulary.build(r.smiles for r in train[:5])
        training.prepare_molecules(train[:5], vocab, 256)
    finally:
        tracer.uninstall()
    assert (smiles.parse, data.parse, training.parse,
            training.backward) == originals
    assert tracer.calls["smiles.parse"] == 5
    assert tracer.calls["smiles.tokenize"] == 5
    assert tracer.calls["training.prepare_molecules"] == 1
    assert tracer.top_level_s > 0
