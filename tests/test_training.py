import concurrent.futures
import dataclasses
import gc
import json
import math
import os
import platform
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from molfuse import autodiff, lm, training
from molfuse.autodiff import Tape, backward, constant
from molfuse.checkpoint import load_checkpoint, save_checkpoint
from molfuse.data import CLASSIFICATION, REGRESSION
from molfuse.integration import IntegratedModel
from molfuse.optim import AdamState, adam_step
from molfuse.synthdata import write_dataset
from molfuse.training import (
    FLOORS,
    RunConfig,
    RunReport,
    SeedResult,
    attention_scaling,
    build_model,
    evaluate,
    load_dataset,
    logistic,
    profile_strategies,
    run_seeds,
    train_epoch,
    train_one,
)

from tests.conftest import without_timing
from tests.test_integration import VOCAB, mols_for, tiny_model


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tiny.csv"
    write_dataset(path, "esol", 90, seed=31)
    return str(path)


@pytest.fixture(scope="module")
def tiny_cls_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tinycls.csv"
    write_dataset(path, "bbbp", 90, seed=32)
    return str(path)


def train(config, seed, **kwargs):
    """train_one on the config's own dataset."""
    return train_one(config, seed, load_dataset(config), **kwargs)


def tiny_config(dataset, **overrides):
    base = dict(
        strategy="lm-baseline", dataset=dataset, task="regression",
        seeds=(0,), batch_size=16, max_epochs=3, patience=5,
        hidden_dim=16, num_layers=1, num_heads=2, ffn_dim=24,
        message_steps=2, edge_hidden=8,
    )
    base.update(overrides)
    return RunConfig(**base)


class FixedPredictor:
    """Stub model: predicts a constant."""

    def __init__(self, value):
        self.value = value

    def predict(self, mols):
        return np.full(len(mols), self.value)


class Rec:
    def __init__(self, label):
        self.label = label


class TestEvaluate:
    def test_perfect_predictions(self):
        class Echo:
            def predict(self, mols):
                return np.array([m.label for m in mols])

        mols = [Rec(0.2), Rec(-1.0)]
        assert evaluate(Echo(), mols, REGRESSION) == 0.0

    def test_constant_predictor_mae(self):
        mols = [Rec(0.0), Rec(2.0)]
        assert evaluate(FixedPredictor(1.0), mols, REGRESSION) == 1.0

    def test_classification_threshold(self):
        class TwoLogits:
            def predict(self, mols):
                # logistic(-1.39) ~ 0.2, logistic(1.39) ~ 0.8
                return np.array([-1.39, 1.39])

        mols = [Rec(0.0), Rec(1.0)]
        assert evaluate(TwoLogits(), mols, CLASSIFICATION) == 1.0
        assert logistic(0.0) == 0.5


class TestPrepareMolecules:
    def test_set_up_parses_each_smiles_once(self, tiny_csv, monkeypatch):
        # load_csv parses through data.parse, and prepare_splits takes each
        # molecule's graph from its record
        from molfuse import data, smiles
        from molfuse.data import load_csv

        calls = []

        def counted(text):
            calls.append(text)
            return smiles.parse(text)

        monkeypatch.setattr(data, "parse", counted)
        loaded = load_csv(tiny_csv, "smiles", "log_solubility", REGRESSION)
        assert not loaded.quarantined
        splits, _, prepared = training.prepare_splits(
            tiny_config(tiny_csv), loaded.records, 0)
        assert sorted(calls) == sorted(r.smiles for r in loaded.records)
        for recs, (mols, dropped, _) in zip(splits, prepared):
            assert dropped == 0 and len(mols) == len(recs)
            assert all(m.graph is r.graph for m, r in zip(mols, recs))

    def test_set_up_tokenizes_each_smiles_once(self, tiny_csv, monkeypatch):
        # parse's token list feeds the vocabulary and prepare_molecules
        from molfuse import smiles
        from molfuse.data import load_csv

        calls = []
        real = smiles.tokenize_raw

        def counted(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(smiles, "tokenize_raw", counted)
        loaded = load_csv(tiny_csv, "smiles", "log_solubility", REGRESSION)
        assert not loaded.quarantined
        training.prepare_splits(tiny_config(tiny_csv), loaded.records, 0)
        assert sorted(calls) == sorted(r.smiles for r in loaded.records)


class TestTrainOne:
    def test_lr_zero_keeps_untrained_metric(self, tiny_csv):
        cfg_frozen = tiny_config(tiny_csv, lr=1e-30, max_epochs=2)
        _, frozen = train(cfg_frozen, 0)
        assert len(set(round(v, 12) for v in frozen.val_history)) == 1

    def test_same_seed_bitwise_identical(self, tiny_csv):
        cfg = tiny_config(tiny_csv, strategy="contrast-node", max_epochs=2)
        _, a = train(cfg, 0)
        _, b = train(cfg, 0)
        ra, rb = a.to_record(), b.to_record()
        ra.pop("timing")
        rb.pop("timing")
        assert ra == rb

    def test_beats_naive_on_tiny_regression(self, tiny_csv):
        cfg = tiny_config(tiny_csv, max_epochs=5)
        _, res = train(cfg, 0)
        assert res.test_metric < res.naive_metric

    def test_early_stop_selects_best_epoch(self, tiny_csv):
        cfg = tiny_config(tiny_csv, max_epochs=6, patience=2)
        _, res = train(cfg, 7)
        assert res.best_val_metric == min(res.val_history)
        assert res.val_history[res.best_epoch] == res.best_val_metric

    def test_mlm_stage_runs(self, tiny_csv):
        cfg = tiny_config(tiny_csv, mlm_pretrain=True, mlm_epochs=1, max_epochs=1)
        _, res = train(cfg, 0)
        assert res.counters["mlm_batches"] + res.counters["mlm_skipped"] > 0

    def test_checkpoint_written(self, tiny_csv, tmp_path):
        cfg = tiny_config(tiny_csv, max_epochs=1)
        _, res = train(cfg, 0, out_dir=str(tmp_path))
        config, tensors = load_checkpoint(tmp_path / "checkpoint_seed0.bin")
        assert config["seed"] == 0
        assert any(name.startswith("lm.") for name in tensors)


class TestRunSeeds:
    def test_aggregate_mean_std(self):
        report = RunReport(
            config={"task": "regression", "strategy": "s", "dataset": "d"},
            results=[
                SeedResult(seed=s, test_metric=m)
                for s, m in zip((0, 1, 2), (1.0, 2.0, 3.0))
            ],
        )
        mean, std = report.aggregate()
        assert mean == 2.0 and std == 1.0

    def test_identical_metrics_zero_std(self):
        report = RunReport(
            config={}, results=[SeedResult(seed=s, test_metric=1.5) for s in range(3)]
        )
        assert report.aggregate() == (1.5, 0.0)

    def test_format_four_decimals(self):
        report = RunReport(
            config={},
            results=[SeedResult(seed=0, test_metric=0.55294),
                     SeedResult(seed=1, test_metric=0.49)],
        )
        text = report.formatted_aggregate()
        assert text == "0.5215 ± 0.0445"

    def test_failed_seed_flagged_and_excluded(self):
        report = RunReport(
            config={"task": "regression"},
            results=[
                SeedResult(seed=0, test_metric=1.0),
                SeedResult(seed=1, failed=True, failure_reason="non-finite loss"),
            ],
        )
        mean, _ = report.aggregate()
        assert mean == 1.0
        assert "FAILED" in report.text_table()

    def test_two_seed_protocol_run(self, tiny_csv):
        cfg = tiny_config(tiny_csv, seeds=(0, 7), max_epochs=2)
        report = run_seeds(cfg)
        assert [r.seed for r in report.results] == [0, 7]
        lines = report.jsonl().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert sum(1 for r in records if r["type"] == "seed") == 2
        assert records[-1]["type"] == "aggregate"
        mean, std = report.aggregate()
        metrics = [r.test_metric for r in report.results]
        assert mean == pytest.approx(sum(metrics) / 2, abs=0)
        assert std == pytest.approx(
            math.sqrt(sum((m - mean) ** 2 for m in metrics)), abs=1e-15
        )

    def test_comparable_records_have_no_timing(self, tiny_csv):
        cfg = tiny_config(tiny_csv, max_epochs=1)
        report = run_seeds(cfg)
        assert all("timing" in r.to_record() for r in report.results)

    def test_parallel_workers_match_sequential(self, tiny_csv):
        cfg = tiny_config(tiny_csv, seeds=(0, 7), max_epochs=2)
        sequential = run_seeds(cfg)
        parallel = run_seeds(tiny_config(tiny_csv, seeds=(0, 7), max_epochs=2,
                                         workers=2))
        assert (without_timing(r.to_record() for r in sequential.results)
                == without_timing(r.to_record() for r in parallel.results))

    def test_workers_share_cores_and_parent_env_is_restored(
        self, tiny_csv, monkeypatch
    ):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        report = run_seeds(tiny_config(tiny_csv, seeds=(0, 7), max_epochs=1,
                                       workers=2))
        budget = max(1, len(os.sched_getaffinity(0)) // 2)
        assert [r.blas_threads for r in report.results] == [budget, budget]
        assert os.environ["OPENBLAS_NUM_THREADS"] == "7"
        assert "OMP_NUM_THREADS" not in os.environ

    def test_workers_never_outnumber_the_cores(self, tiny_csv, monkeypatch):
        pools = []

        class RecordingPool:
            def __init__(self, max_workers, mp_context):
                pools.append((max_workers, os.environ["OPENBLAS_NUM_THREADS"]))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, config_dict, seed, out_dir, data):
                done = concurrent.futures.Future()
                done.set_result(seed)
                return done

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        config = tiny_config(tiny_csv, seeds=(0, 1, 2, 3), workers=4)
        assert training._run_parallel(config, None, None) == [0, 1, 2, 3]
        assert pools == [(2, "1")]

    def test_timing_records_peak_rss_and_threads(self, tiny_csv, monkeypatch):
        # the seed's minor faults are the counter's rise over train_one
        readings = iter([1000, 1234])
        monkeypatch.setattr(training, "minor_faults", lambda: next(readings))
        report = run_seeds(tiny_config(tiny_csv, max_epochs=1))
        timing = report.results[0].to_record()["timing"]
        assert timing["peak_rss_mb"] > 0
        assert timing["blas_threads"] >= 1
        assert timing["minor_faults"] == 234

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_in_one_seed_fails_that_seed_only(self, tiny_csv, monkeypatch):
        # seed 0 runs first: a NaN written into the token embedding after
        # its third Adam step reaches the embedding gather on the next step
        real_step = training.adam_step
        steps = []

        def poisoned(state, grads):
            out = real_step(state, grads)
            steps.append(state.t)
            if len(steps) == 3:
                state.params[0].values[0, 0] = np.nan
            return out

        monkeypatch.setattr(training, "adam_step", poisoned)
        report = run_seeds(tiny_config(tiny_csv, seeds=(0, 1), max_epochs=2))
        first, second = report.results
        assert first.failed
        assert first.failure_reason == (
            "non-finite value at epoch 0: op 'gather-rows': NaN in input values"
        )
        assert not second.failed and math.isfinite(second.test_metric)
        assert report.aggregate() == (second.test_metric, 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_loss_fails_before_its_step(self, tiny_csv, monkeypatch):
        # the second training batch's loss is replaced by inf
        real_forward = IntegratedModel.forward_batch
        losses = []

        def forward(model, tape, mols, batch_seed=0, predict_only=False):
            loss, preds, info = real_forward(model, tape, mols, batch_seed,
                                             predict_only)
            if not predict_only:
                losses.append(loss)
                if len(losses) == 2:
                    loss = constant(np.inf)
            return loss, preds, info

        steps = []
        real_step = training.adam_step
        monkeypatch.setattr(IntegratedModel, "forward_batch", forward)
        monkeypatch.setattr(training, "adam_step",
                            lambda *args: steps.append(real_step(*args)))
        _, result = train(tiny_config(tiny_csv, max_epochs=2), 0)
        assert result.failed and result.epochs_run == 0
        assert result.failure_reason == "non-finite value at epoch 0: non-finite loss"
        assert len(steps) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_in_mlm_pretraining_names_the_stage(self, tiny_csv, monkeypatch):
        # a NaN written into the token embedding after the first MLM step
        # reaches the embedding gather on the second
        real_step = lm.adam_step

        def poisoned(state, grads):
            real_step(state, grads)
            state.params[0].values[0, 0] = np.nan

        monkeypatch.setattr(lm, "adam_step", poisoned)
        _, result = train(
            tiny_config(tiny_csv, mlm_pretrain=True, mlm_epochs=1), 0)
        assert result.failed and result.epochs_run == 0
        assert result.failure_reason == (
            "non-finite value in MLM pretraining: "
            "op 'gather-rows': NaN in input values"
        )

    def test_non_finite_mlm_loss_without_a_bad_input_fails(
            self, tiny_csv, monkeypatch):
        # the MLM loss op returns inf from finite logits: the replay finds
        # no bad input, and the loss is not stepped into the weights
        real_op = autodiff._OPS["cross-entropy-with-logits"]

        def inf_loss(inputs, kw):
            _, bwd = real_op(inputs, kw)
            return np.asarray(np.inf), bwd

        monkeypatch.setitem(autodiff._OPS, "cross-entropy-with-logits", inf_loss)
        steps = []
        monkeypatch.setattr(lm, "adam_step", lambda *args: steps.append(args))
        _, result = train(
            tiny_config(tiny_csv, mlm_pretrain=True, mlm_epochs=1), 0)
        assert result.failure_reason == (
            "non-finite value in MLM pretraining: non-finite MLM loss")
        assert not steps

    def test_non_finite_prediction_without_a_bad_input_fails(
            self, tiny_csv, monkeypatch):
        # predictions that come out inf from finite inputs are no longer
        # returned: the replay finds no bad input, so predict raises
        real_forward = IntegratedModel.forward_batch

        def forward(model, tape, mols, batch_seed=0, predict_only=False):
            loss, preds, info = real_forward(model, tape, mols, batch_seed,
                                             predict_only)
            if predict_only:
                preds = constant(np.full(preds.shape, np.inf))
            return loss, preds, info

        monkeypatch.setattr(IntegratedModel, "forward_batch", forward)
        _, result = train(tiny_config(tiny_csv, max_epochs=2), 0)
        assert result.failure_reason == (
            "non-finite value at epoch 0: non-finite prediction")

    def test_nan_in_an_unselected_embedding_row_does_not_fail_a_step(self):
        # no token of the batch selects the "Br" row, so no op reads its NaN
        # and the loss stays finite: the step is taken
        model = tiny_model("lm-baseline")
        model.encoder.token_embedding.values[VOCAB.token_to_id["Br"], 0] = np.nan
        state = AdamState(model.parameters())
        train_epoch(model, state, mols_for(["CCO", "C1CC1"]), 2, 0, 0)
        assert state.t == 1


# Ten training steps of a small mpnn-baseline model on one fixed batch of
# 32 bbbp-like molecules, after retain_heap; prints each step's minor page
# faults (forward, backward and Adam update). The collector is paused, as
# profile_strategies pauses it, so that its passes do not move the heap's
# high-water mark at an arbitrary step.
STEP_FAULTS_PROBE = """
import gc, os, resource, tempfile
from molfuse import training
from molfuse.autodiff import Tape, backward
from molfuse.data import TaskKind, load_csv
from molfuse.optim import AdamState, adam_step
from molfuse.smiles import Vocabulary
from molfuse.synthdata import write_dataset

training.retain_heap()
path = os.path.join(tempfile.mkdtemp(), "graphs.csv")
write_dataset(path, "bbbp", 32, seed=5)
config = training.RunConfig(
    strategy="mpnn-baseline", dataset=path, task="binary-classification"
)
records = load_csv(path, "smiles", "p_np", TaskKind(config.task)).records
vocab = Vocabulary.build(r.smiles for r in records)
batch, _, _ = training.prepare_molecules(records, vocab, config.max_len)
model = training.build_model(config, len(vocab), seed=0)
state = AdamState(model.parameters())
steps = []
gc.disable()
for step in range(10):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    tape = Tape()
    loss, _, _ = model.forward_batch(tape, batch, batch_seed=step)
    adam_step(state, backward(loss, tape))
    steps.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(" ".join(map(str, steps)))
"""


class TestHeapRetention:
    def _fake_libc(self, monkeypatch, result=1, has_mallopt=True):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return result

        libc = SimpleNamespace(**({"mallopt": mallopt} if has_mallopt else {}))
        monkeypatch.setattr(training.ctypes, "CDLL", lambda name: libc)
        monkeypatch.setattr(training, "_heap_retained", False)
        return calls

    def test_sets_both_thresholds_once(self, monkeypatch):
        calls = self._fake_libc(monkeypatch)
        assert training.retain_heap() is True
        assert training.retain_heap() is True
        assert calls == [
            (training.M_MMAP_THRESHOLD, training.HEAP_MMAP_THRESHOLD),
            (training.M_TRIM_THRESHOLD, training.HEAP_TRIM_THRESHOLD),
        ]

    def test_rejected_setting_is_reported(self, monkeypatch):
        calls = self._fake_libc(monkeypatch, result=0)
        assert training.retain_heap() is False
        assert calls == [
            (training.M_MMAP_THRESHOLD, training.HEAP_MMAP_THRESHOLD)
        ]

    def test_no_op_without_mallopt(self, monkeypatch):
        self._fake_libc(monkeypatch, has_mallopt=False)
        assert training.retain_heap() is False

    @pytest.mark.skipif(
        platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's"
    )
    def test_steady_training_steps_do_not_fault(self, tmp_path):
        # a fresh interpreter, so no earlier test has set the allocator
        out = subprocess.run(
            [sys.executable, "-c", STEP_FAULTS_PROBE],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, cwd=tmp_path,
        )
        assert out.returncode == 0, out.stderr
        faults = [int(n) for n in out.stdout.split()]
        assert len(faults) == 10
        # the first two steps bring the heap to its high-water mark
        assert max(faults[2:]) < 50, faults

    def test_gradients_die_with_their_step(self, monkeypatch):
        # backward's dict is a gradient's only home: once a step returns,
        # no array backward returned is alive, without the collector's help
        model = build_model(RunConfig(
            strategy="late-fusion", hidden_dim=8, num_layers=1, num_heads=2,
            ffn_dim=12, max_len=64, message_steps=2, edge_hidden=6,
        ), len(VOCAB), seed=0)
        real_backward, real_forward = training.backward, model.forward_batch
        refs = []

        def recording_backward(loss, tape):
            grads = real_backward(loss, tape)
            refs.extend(weakref.ref(g) for g in grads.values())
            return grads

        def checking_forward(*args, **kwargs):
            assert all(ref() is None for ref in refs)
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(training, "backward", recording_backward)
        monkeypatch.setattr(model, "forward_batch", checking_forward)
        gc.disable()
        try:
            train_epoch(model, AdamState(model.parameters()),
                        TestModelFields.MOLS, 2, seed=0, epoch=0)
            assert len(refs) == 2 * len(model.parameters())
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestClassificationRun:
    def test_beats_majority_on_tiny(self, tiny_cls_csv):
        cfg = tiny_config(
            tiny_cls_csv, task="binary-classification", max_epochs=6,
            strategy="late-fusion",
        )
        _, res = train(cfg, 0)
        assert res.test_metric > 0.0
        assert np.isfinite(res.naive_metric)


class TestProfile:
    def test_profile_reports_medians_and_verdicts(self, tiny_csv):
        cfg = tiny_config(tiny_csv, max_epochs=1)
        out = profile_strategies(
            cfg, ["contrast-graph", "contrast-node"],
            measured_epochs=2, warmup_epochs=1,
        )
        assert set(out["timings"]) == {"contrast-graph", "contrast-node"}
        for entry in out["timings"].values():
            assert entry["median"] > 0
            assert len(entry["epochs"]) == 2
            assert len(entry["minor_faults"]) == 2
            assert all(n >= 0 for n in entry["minor_faults"])
        assert out["verdicts"][0]["check"] == "graph-contrast <= node-contrast"

    def test_profile_uses_the_first_configured_seed(self, tiny_csv, monkeypatch):
        seeds = []
        real_split = training.split

        def recording_split(records, spec):
            seeds.append(spec.seed)
            return real_split(records, spec)

        monkeypatch.setattr(training, "split", recording_split)
        profile_strategies(tiny_config(tiny_csv, seeds=(7, 0)), ["mpnn-baseline"],
                           measured_epochs=1, warmup_epochs=0)
        assert seeds == [7]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_in_an_op_input_names_the_strategy_and_the_op(
            self, tiny_csv, monkeypatch):
        # a NaN written into the token embedding after the first Adam step
        # reaches the embedding gather on the next
        real_step = training.adam_step

        def poisoned(state, grads):
            real_step(state, grads)
            state.params[0].values[0, 0] = np.nan

        monkeypatch.setattr(training, "adam_step", poisoned)
        with pytest.raises(FloatingPointError) as exc:
            profile_strategies(tiny_config(tiny_csv), ["lm-baseline"],
                               measured_epochs=1, warmup_epochs=0)
        assert str(exc.value) == "lm-baseline: op 'gather-rows': NaN in input values"
        assert gc.isenabled()

    def test_attention_scaling_quadratic(self):
        out = attention_scaling(base_len=128, repeats=9)
        assert out["seconds"][128] > 0
        assert out["ratio"] > 1.0


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.bin"
        tensors = {
            "a": np.arange(6.0).reshape(2, 3),
            "b": np.array(2.5),
        }
        save_checkpoint(path, {"k": 1}, tensors)
        config, loaded = load_checkpoint(path)
        assert config == {"k": 1}
        np.testing.assert_array_equal(loaded["a"], tensors["a"])
        np.testing.assert_array_equal(loaded["b"], tensors["b"])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)


class TestRunConfig:
    def test_round_trip_dict(self):
        cfg = RunConfig(strategy="late-fusion", seeds=(0, 7), ratios=(0.7, 0.2, 0.1))
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(seeds=())
        with pytest.raises(ValueError):
            RunConfig(max_epochs=0)

    def test_label_column_defaults_by_task(self):
        assert RunConfig(task="regression").label_column == "log_solubility"
        assert (
            RunConfig(task="binary-classification").label_column == "p_np"
        )

    @pytest.mark.parametrize("overrides, key", [
        ({"task": "x"}, "task"),
        ({"strategy": "lm"}, "strategy"),
        *[({name: floor - 1}, name) for name, floor in FLOORS.items()],
        ({"fusion": "mean"}, "fusion"),
        ({"lr": 0.0}, "lr"),
        ({"margin": 0.0}, "margin"),
        ({"alpha": -0.1}, "alpha"),
        ({"gnn_variant": "gat"}, "gnn_variant"),
        ({"mlm_rate": -0.1}, "mlm_rate"),
        ({"mlm_rate": 1.1}, "mlm_rate"),
        ({"hidden_dim": 30}, "hidden_dim"),
        ({"seeds": ()}, "seeds"),
        ({"seeds": (0, -1)}, "seeds"),
        ({"ratios": (1.0, 0.0, 0.0)}, "ratios"),
        ({"ratios": (0.5, 0.2, 0.2)}, "ratios"),
        ({"strategy": "lm2mpnn", "gnn_variant": "graphconv"}, "gnn_variant"),
    ])
    def test_out_of_range_names_its_field(self, overrides, key):
        with pytest.raises(ValueError, match=f"^{key} = "):
            RunConfig(**overrides)

    def test_zero_counts_and_weights_are_valid(self):
        RunConfig(num_layers=0, message_steps=0, mlm_epochs=0, mlm_rate=0.0,
                  alpha=0.0)
        RunConfig(mlm_rate=1.0, hidden_dim=1, num_heads=1)


# RunConfig fields that build_model does not read
PROTOCOL_FIELDS = {
    "dataset", "smiles_column", "label_column", "ratios", "seeds", "lr",
    "batch_size", "max_epochs", "patience", "mlm_pretrain", "mlm_epochs",
    "mlm_rate", "workers",
}
# (field, a value other than its default, the other fields of both configs)
STRUCTURE_FIELDS = [
    ("strategy", "mpnn-baseline", {}),
    ("hidden_dim", 12, {"strategy": "late-fusion"}),
    ("num_layers", 2, {}),
    ("ffn_dim", 16, {}),
    ("max_len", 48, {}),
    ("gnn_variant", "graphconv", {"strategy": "mpnn-baseline"}),
    ("edge_hidden", 5, {"strategy": "mpnn-baseline"}),
    ("fusion", "concat", {"strategy": "late-fusion"}),
    ("fusion", "gate", {"strategy": "late-fusion"}),
]
LOSS_FIELDS = [
    ("task", "binary-classification", {}),
    ("num_heads", 4, {}),
    ("message_steps", 3, {"strategy": "mpnn-baseline"}),
    ("margin", 3.0, {"strategy": "contrast-node"}),
    ("alpha", 0.5, {"strategy": "contrast-node"}),
    ("frozen_mpnn", True, {"strategy": "contrast-node"}),
]


def field_cases(cases):
    return pytest.mark.parametrize(
        "key, value, base", cases, ids=[f"{k}={v}" for k, v, _ in cases])


class TestModelFields:
    """Every RunConfig field that build_model reads changes the model it
    builds: its state_dict's names or shapes, or, with the same weights,
    its loss on a fixed batch before or after one Adam step."""

    MOLS = mols_for(["CC(=O)O", "C1CC1", "CCO", "c1ccccc1"],
                    [0.0, 1.0, 1.0, 0.0])

    @staticmethod
    def pair(key, value, base):
        config = RunConfig(**{
            "hidden_dim": 8, "num_layers": 1, "num_heads": 2, "ffn_dim": 12,
            "max_len": 64, "message_steps": 2, "edge_hidden": 6, **base,
        })
        assert getattr(config, key) != value
        return config, dataclasses.replace(config, **{key: value})

    @staticmethod
    def shapes(config):
        model = build_model(config, len(VOCAB), seed=0)
        return {name: v.shape for name, v in model.state_dict().items()}

    def losses(self, config, state):
        model = build_model(config, len(VOCAB), seed=0)
        model.load_state_dict(state)
        tape = Tape()
        loss, _, _ = model.forward_batch(tape, self.MOLS, batch_seed=1)
        adam_step(AdamState(model.parameters(), lr=0.01), backward(loss, tape))
        after, _, _ = model.forward_batch(Tape(), self.MOLS, batch_seed=1)
        return float(loss.values), float(after.values)

    def test_every_field_is_protocol_or_tested(self):
        tested = {key for key, _, _ in STRUCTURE_FIELDS + LOSS_FIELDS}
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert tested | PROTOCOL_FIELDS == fields
        assert not tested & PROTOCOL_FIELDS

    @field_cases(STRUCTURE_FIELDS)
    def test_field_changes_the_state_dict(self, key, value, base):
        default, changed = self.pair(key, value, base)
        assert self.shapes(changed) != self.shapes(default)

    @field_cases(LOSS_FIELDS)
    def test_field_changes_the_loss(self, key, value, base):
        default, changed = self.pair(key, value, base)
        assert self.shapes(changed) == self.shapes(default)
        state = build_model(default, len(VOCAB), seed=0).state_dict()
        assert self.losses(changed, state) != self.losses(default, state)
