"""One workload run in a fresh process.

Repeats whole rounds of the training protocol (one ``run_seeds`` call per
strategy, one worker) for the time it is given; an untraced run then
repeats the last round's evaluations until each eval batch has enough
timings. It checks the outputs of the last round and prints one JSON
record as its last line. Run by
``perfbench/run.py``, which generates the input file first.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import checks
from tracing import Tracer
from workloads import (BAD_ROWS, BATCH_SIZE, RATIOS, WORKLOADS,
                       data_seed, expected_train_size)

# Set-up-only protocol starts before the timed rounds; they add samples to
# the set-up median and warm the process up.
SETUP_REPEATS = 10
# Every eval batch is timed at least this often in an untraced run. The
# protocol evaluates the test split once per round, so a run of one or two
# rounds repeats its evaluate calls on the trained models.
EVAL_SAMPLES = 5


class SetupDone(Exception):
    """Stops a protocol once its model is built."""


@dataclass
class Protocol:
    """What one run_seeds call did, seen from outside."""

    strategy: str
    started: float
    setup_s: float = 0.0
    run_s: float = 0.0
    steps: list = field(default_factory=list)     # (molecules, seconds)
    epochs: list = field(default_factory=list)    # molecules stepped
    # (eval batch key, molecules, seconds); the key is (split size, batch
    # index), so the same batch has the same key in every epoch and round
    predicts: list = field(default_factory=list)
    eval_repeats: list = field(default_factory=list)  # as predicts, after the rounds
    eval_sets: dict = field(default_factory=dict)     # split size -> molecules
    mlm_losses: list = field(default_factory=list)
    mlm_skipped: int = 0
    model: object = None
    result: object = None
    out_dir: str = ""

    @property
    def operations(self):
        """Training steps, MLM steps and eval batches."""
        return (len(self.steps) + len(self.mlm_losses) + self.mlm_skipped
                + len(self.predicts) + len(self.eval_repeats))


class ProtocolHooks:
    """Wrappers on the per-protocol, per-step and per-eval-batch calls of
    the protocol. They cost two clock reads per batch, so the untraced
    end-to-end figures are taken with them in place."""

    def __init__(self, training, model_cls):
        self.training = training
        self.model_cls = model_cls
        self.current = None
        self.setup_only = False
        self.eval_batch = None  # (split size, index) of the next predict
        self._originals = []

    def install(self):
        t = self.training
        train_one, build_model = t.train_one, t.build_model
        batch_iter, mlm = t.batch_iter, t.run_mlm_pretraining
        evaluate = t.evaluate
        predict = self.model_cls.predict
        clock = time.perf_counter

        def timed_train_one(*args, **kwargs):
            model, result = train_one(*args, **kwargs)
            self.current.model, self.current.result = model, result
            return model, result

        def timed_build_model(*args, **kwargs):
            model = build_model(*args, **kwargs)
            self.current.setup_s = clock() - self.current.started
            if self.setup_only:
                raise SetupDone
            return model

        def timed_batch_iter(*args, **kwargs):
            steps = self.current.steps
            molecules = 0
            for batch in batch_iter(*args, **kwargs):
                started = clock()
                yield batch  # the loop body is one training step
                steps.append((len(batch), clock() - started))
                molecules += len(batch)
            self.current.epochs.append(molecules)

        def keyed_evaluate(model, mols, task, **kwargs):
            self.current.eval_sets[len(mols)] = mols
            self.eval_batch = (len(mols), 0)
            return evaluate(model, mols, task, **kwargs)

        def timed_predict(model, mols):
            started = clock()
            preds = predict(model, mols)
            elapsed = clock() - started
            split, index = self.eval_batch
            self.eval_batch = (split, index + 1)
            self.current.predicts.append(((split, index), len(mols), elapsed))
            return preds

        def timed_mlm(*args, **kwargs):
            losses, skipped = mlm(*args, **kwargs)
            self.current.mlm_losses, self.current.mlm_skipped = losses, skipped
            return losses, skipped

        for owner, name, fn in (
            (t, "train_one", timed_train_one),
            (t, "build_model", timed_build_model),
            (t, "batch_iter", timed_batch_iter),
            (t, "run_mlm_pretraining", timed_mlm),
            (t, "evaluate", keyed_evaluate),
            (self.model_cls, "predict", timed_predict),
        ):
            self._originals.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, fn)

    def uninstall(self):
        while self._originals:
            owner, name, fn = self._originals.pop()
            setattr(owner, name, fn)

    def run(self, config, out_dir):
        self.current = Protocol(config.strategy, time.perf_counter(),
                                out_dir=out_dir)
        self.training.run_seeds(config, out_dir=out_dir)
        self.current.run_s = time.perf_counter() - self.current.started
        return self.current

    def repeat_evals(self, rounds, task):
        """Repeats the last round's evaluate calls on its trained models
        until every eval batch of the run has EVAL_SAMPLES timings. The
        repeats take turns between strategies and splits, so that a burst
        of load from elsewhere does not fall on every repeat of one."""
        pending = []
        for index, proto in enumerate(rounds[-1]):
            timed = Counter(key for r in rounds for key, _, _ in r[index].predicts)
            for split, mols in proto.eval_sets.items():
                pending.append((proto, mols, EVAL_SAMPLES - timed[split, 0]))
            proto.eval_repeats = []
        for repeat in range(max(n for _, _, n in pending)):
            for proto, mols, n in pending:
                if repeat < n:
                    self.current = Protocol(proto.strategy, time.perf_counter())
                    self.training.evaluate(proto.model, mols, task)
                    proto.eval_repeats += self.current.predicts

    def time_setup(self, config):
        self.current = Protocol(config.strategy, time.perf_counter())
        self.setup_only = True
        try:
            self.training.run_seeds(config)
        except SetupDone:
            pass
        finally:
            self.setup_only = False
        return self.current.setup_s


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be read."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def fingerprint():
    import numpy as np
    from molfuse import kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "use_numba": kernels.USE_NUMBA,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def run_configs(workload, csv_path, seed):
    from molfuse.training import RunConfig

    return [
        RunConfig(
            strategy=strategy, dataset=csv_path, task=workload.task,
            ratios=RATIOS, seeds=(seed,), batch_size=BATCH_SIZE,
            max_epochs=epochs, patience=epochs,
            fusion=workload.fusion, mlm_pretrain=workload.mlm_epochs > 0,
            mlm_epochs=max(workload.mlm_epochs, 1), workers=1,
        )
        for strategy, epochs in zip(workload.strategies, workload.epochs)
    ]


def train_rate(protos):
    """Molecules per second over every training step of the run, with each
    step's time per molecule replaced by the median over the run's steps of
    the same strategy. A burst of load from elsewhere on the machine during
    a few steps then does not move the figure."""
    per_molecule = defaultdict(list)
    molecules = defaultdict(int)
    for proto in protos:
        for count, seconds in proto.steps:
            per_molecule[proto.strategy].append(seconds / count)
            molecules[proto.strategy] += count
    seconds = sum(molecules[s] * statistics.median(times)
                  for s, times in per_molecule.items())
    return sum(molecules.values()) / seconds


def eval_rate(rounds):
    """Molecules per second over one round's eval batches, each batch's
    time the median of its timings in the run. Batches of one split differ
    in their molecules, so each is compared only with itself; the same
    batch is the same computation each time (predict's cost does not
    depend on the weights' values)."""
    times = defaultdict(list)
    for protos in rounds:
        for proto in protos:
            for key, _, seconds in proto.predicts + proto.eval_repeats:
                times[proto.strategy, key].append(seconds)
    one_round = [(proto.strategy, key, count)
                 for proto in rounds[0] for key, count, _ in proto.predicts]
    seconds = sum(statistics.median(times[strategy, key])
                  for strategy, key, _ in one_round)
    return sum(count for _, _, count in one_round) / seconds


def eval_timings(protos):
    """Seconds of every eval batch, by strategy and "split size/index"."""
    out = defaultdict(lambda: defaultdict(list))
    for proto in protos:
        for (split, index), _, seconds in proto.predicts + proto.eval_repeats:
            out[proto.strategy][f"{split}/{index}"].append(round(seconds, 4))
    return out


def run_check(outcomes, name, fn, *args):
    """One check is one operation; an exception counts it as failed."""
    try:
        passed, detail = fn(*args)
    except Exception as exc:  # a check that cannot run is a failed operation
        outcomes.append({"check": name, "passed": False, "failed": True,
                         "detail": f"{type(exc).__name__}: {exc}"})
        return
    outcomes.append({"check": name, "passed": bool(passed), "failed": False,
                     "detail": detail})


def check_outputs(workload, configs, last_round, all_rounds, seed):
    """Every correctness check on the last round's outputs."""
    from molfuse.data import TaskKind, load_csv
    from molfuse.smiles import Vocabulary
    from molfuse.training import build_model, prepare_molecules

    outcomes = []
    config = configs[0]
    loaded = load_csv(config.dataset, "smiles", workload.label_column,
                      TaskKind(workload.task))
    run_check(outcomes, "quarantine", lambda: (
        len(loaded.records) == workload.molecules
        and len(loaded.quarantined) == sum(BAD_ROWS),
        f"{len(loaded.records)} usable, {len(loaded.quarantined)} quarantined"))
    train, _, test = checks.pinned_split(loaded.records, RATIOS, seed)
    naive = checks.naive_metric(workload.task, [r.label for r in train],
                                [r.label for r in test])
    vocab = Vocabulary.build(r.smiles for r in train)
    train_mols, _, _ = prepare_molecules(train, vocab, config.max_len)
    test_mols, _, _ = prepare_molecules(test, vocab, config.max_len)
    train_size = expected_train_size(workload.molecules)
    batch = train_mols[:BATCH_SIZE]

    for index, (config, proto) in enumerate(zip(configs, last_round)):
        tag = proto.strategy
        result, model = proto.result, proto.model
        run_check(outcomes, f"{tag}.completed", lambda: (
            not result.failed and result.counters["dropped_too_long"] == 0,
            result.failure_reason or f"{result.epochs_run} epochs"))
        run_check(outcomes, f"{tag}.work_counts", checks.work_count_check,
                  proto.epochs, config.max_epochs, train_size)
        run_check(outcomes, f"{tag}.beats_naive", checks.beats_naive,
                  workload.task, result.test_metric, naive)
        run_check(outcomes, f"{tag}.reported_metric",
                  checks.reported_metric_matches, workload.task, model,
                  test_mols, result.test_metric)
        run_check(outcomes, f"{tag}.repeatable", lambda: (
            len({r[index].result.test_metric for r in all_rounds}) == 1,
            f"{len(all_rounds)} rounds"))
        run_check(outcomes, f"{tag}.recording", checks.recording_check, model,
                  test_mols[:BATCH_SIZE])
        run_check(outcomes, f"{tag}.checkpoint", checks.checkpoint_check,
                  os.path.join(proto.out_dir, f"checkpoint_seed{seed}.bin"),
                  model, len(vocab), test_mols)
        if config.mlm_pretrain:
            run_check(outcomes, f"{tag}.mlm_steps", checks.mlm_count_check,
                      proto.mlm_losses, proto.mlm_skipped, config.mlm_epochs,
                      len(train_mols), BATCH_SIZE)
            run_check(outcomes, f"{tag}.mlm_loss", checks.mlm_loss_check,
                      proto.mlm_losses)
        run_check(outcomes, f"{tag}.gradient_trained", checks.gradient_check,
                  model, batch, seed + 2 * index)
        run_check(outcomes, f"{tag}.gradient_init", lambda: checks.gradient_check(
            build_model(config, len(vocab), seed), batch, seed + 2 * index + 1))
    return outcomes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--csv", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    from molfuse import training
    from molfuse.data import TaskKind
    from molfuse.integration import IntegratedModel

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    seed = data_seed(args.seed)
    configs = run_configs(workload, args.csv, seed)
    hooks = ProtocolHooks(training, IntegratedModel)
    hooks.install()
    setups = [hooks.time_setup(configs[i % len(configs)])
              for i in range(SETUP_REPEATS)]

    def run_round():
        return [hooks.run(c, os.path.join(args.out, c.strategy)) for c in configs]

    def round_s(protos):
        return sum(p.run_s for p in protos)

    started = time.perf_counter()
    rounds = [run_round()]
    # Later rounds repeat the same work; reading the peak after the first
    # keeps the round count, which follows the machine's speed, out of it.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer = None
    eval_repeat_s = 0.0
    if args.trace:
        tracer = Tracer()
        tracer.install()
    traced = []
    while True:
        done = traced if tracer else rounds
        if done and (time.perf_counter() - started
                     + statistics.median(map(round_s, done)) > args.seconds):
            break
        done.append(run_round())
    if tracer:
        tracer.uninstall()
    else:
        repeats_started = time.perf_counter()
        hooks.repeat_evals(rounds, TaskKind(workload.task))
        eval_repeat_s = time.perf_counter() - repeats_started
    hooks.uninstall()

    all_rounds = rounds + traced
    checks_started = time.perf_counter()
    outcomes = check_outputs(workload, configs, all_rounds[-1], all_rounds, seed)
    check_s = time.perf_counter() - checks_started
    protos = [p for r in all_rounds for p in r]
    attempted = sum(p.operations for p in protos) + len(outcomes)
    failed = (sum(1 for p in protos if p.result.failed)
              + sum(1 for o in outcomes if o["failed"]))
    correct = all(o["passed"] for o in outcomes if not o["failed"])

    if tracer:
        metrics = tracer.metrics(len(traced))
        untraced = statistics.median(round_s(r) for r in rounds)
        traced_s = statistics.median(round_s(r) for r in traced)
        top = tracer.top_level_s / len(traced)
        sampling = tracer.sampling_s / len(traced)
        metrics.update({
            "trace.run_s_untraced": untraced,
            "trace.run_s_traced": traced_s,
            "trace.overhead_s": traced_s - untraced,
            "trace.top_level_s": top,
            "trace.sampling_s": sampling,
            "trace.unattributed_s": traced_s - top - sampling,
        })
    else:
        metrics = {
            "setup_s": statistics.median(setups + [p.setup_s for p in protos]),
            "run_s": statistics.median(round_s(r) for r in rounds),
            "train_mol_per_s": train_rate(protos),
            "eval_mol_per_s": eval_rate(rounds),
            "peak_rss_mb": peak_rss_mb,
        }

    record = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "rounds": len(all_rounds),
        "traced_rounds": len(traced),
        "round_s": [round_s(r) for r in all_rounds],
        "eval_repeat_s": eval_repeat_s,
        "check_s": check_s,
        "step_s": {c.strategy: [round(s, 4) for p in protos
                                if p.strategy == c.strategy for _, s in p.steps]
                   for c in configs},
        "eval_s": eval_timings(protos),
        "checks": outcomes,
        "fingerprint": fingerprint(),
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
