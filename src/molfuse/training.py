"""Training loops, metrics, multi-seed aggregation, and timing profiles."""

import ctypes
import dataclasses
import json
import math
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, backward, checked, constant
from .checkpoint import save_checkpoint
from .data import (
    PROTOCOL_SEEDS,
    TASK_KINDS,
    SplitSpec,
    TaskKind,
    batch_iter,
    load_csv,
    naive_baseline,
    split,
)
from .gnn import GNN_VARIANTS
from .integration import FUSION_OPS, STRATEGIES, EncodedMolecule, IntegratedModel
from .lm import run_mlm_pretraining
from .optim import AdamState, adam_step
# parse is not called here: it stays bound because perfbench/tracing.py
# patches it in every namespace that has looked it up
from .smiles import Vocabulary, parse, tokenize

EVAL_BATCH = 64
DEFAULT_LABEL_COLUMNS = {"regression": "log_solubility",
                         "binary-classification": "p_np"}
# read by OpenBLAS (first) and OpenMP builds when they load
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# glibc mallopt parameters and the values retain_heap sets. By default
# glibc maps each buffer above its mmap threshold (128 KiB, raised as such
# buffers are freed, to at most 32 MiB) on its own and unmaps it when
# freed, and trims the heap top once it holds more free memory than the
# trim threshold, so a training step that frees its tape during backward
# hands the pages back and the next step faults them in again. A step's largest buffer is about 6 MB and a fusion batch's tape
# about 47 MB: both fit under these thresholds and stay in the heap for
# the next step. A larger array is still mapped and unmapped on its own.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
HEAP_MMAP_THRESHOLD = 64 << 20
HEAP_TRIM_THRESHOLD = 256 << 20

# the valid values of each RunConfig field that has a fixed set of them
CHOICES = {
    "strategy": STRATEGIES,
    "task": TASK_KINDS,
    "fusion": FUSION_OPS,
    "gnn_variant": GNN_VARIANTS,
}
# the least value of each integer RunConfig field: a count of layers,
# message steps or MLM epochs may be 0, every other size must be >= 1
FLOORS = {
    "batch_size": 1, "max_epochs": 1, "patience": 1, "hidden_dim": 1,
    "num_layers": 0, "num_heads": 1, "ffn_dim": 1, "max_len": 1,
    "message_steps": 0, "edge_hidden": 1,
    "mlm_epochs": 0, "workers": 1,
}


@dataclass
class RunConfig:
    """One run: the data, the protocol and every model hyperparameter.

    Each field is declared, given its default and validated here alone;
    the model components read their sizes and options from this object.
    """

    strategy: str = "lm-baseline"
    dataset: str = "data/esol.csv"
    task: str = "regression"
    smiles_column: str = "smiles"
    label_column: str = ""  # empty = task default
    ratios: tuple = (0.8, 0.1, 0.1)
    seeds: tuple = PROTOCOL_SEEDS
    lr: float = 0.001
    batch_size: int = 32
    max_epochs: int = 50
    patience: int = 10
    fusion: str = "sum"
    alpha: float = 0.1
    margin: float = 1.0
    hidden_dim: int = 64
    num_layers: int = 3
    num_heads: int = 4
    ffn_dim: int = 256
    max_len: int = 256
    gnn_variant: str = "mpnn"
    message_steps: int = 3
    edge_hidden: int = 64
    mlm_pretrain: bool = False
    mlm_epochs: int = 3
    mlm_rate: float = 0.15
    frozen_mpnn: bool = False
    workers: int = 1

    def __post_init__(self):
        """Raises ValueError naming the first field out of its range."""
        def check(name, ok, why):
            if not ok:
                raise ValueError(f"{name} = {getattr(self, name)}: {why}")

        check("seeds", self.seeds, "must be non-empty")
        check("seeds", min(self.seeds) >= 0, "must be >= 0")
        SplitSpec(self.ratios)  # the split's own check: "ratios = ...: why"
        for name, choices in CHOICES.items():
            check(name, getattr(self, name) in choices,
                  f"choose from {', '.join(choices)}")
        for name, floor in FLOORS.items():
            check(name, getattr(self, name) >= floor, f"must be >= {floor}")
        check("lr", self.lr > 0, "must be > 0")
        check("margin", self.margin > 0, "must be > 0")
        check("alpha", self.alpha >= 0, "must be >= 0")
        check("mlm_rate", 0 <= self.mlm_rate <= 1, "must be in [0, 1]")
        check("hidden_dim", self.hidden_dim % self.num_heads == 0,
              f"not divisible by num_heads = {self.num_heads}")
        check("gnn_variant", self.strategy != "lm2mpnn"
              or self.gnn_variant == "mpnn", "lm2mpnn requires mpnn")
        if not self.label_column:
            self.label_column = DEFAULT_LABEL_COLUMNS[self.task]

    def to_dict(self):
        out = dataclasses.asdict(self)
        out["ratios"] = list(self.ratios)
        out["seeds"] = list(self.seeds)
        return out

    @classmethod
    def from_dict(cls, data):
        data = dict(data)
        if "ratios" in data:
            data["ratios"] = tuple(data["ratios"])
        if "seeds" in data:
            data["seeds"] = tuple(data["seeds"])
        return cls(**data)


# the SeedResult fields that differ between runs of one seed; to_record
# puts them under "timing", the one key determinism checks strip
TIMING_FIELDS = ("epoch_times", "peak_rss_mb", "blas_threads", "minor_faults")


@dataclass
class SeedResult:
    seed: int
    test_metric: float = math.nan
    best_epoch: int = -1
    best_val_metric: float = math.nan
    val_history: list = field(default_factory=list)
    epochs_run: int = 0
    naive_metric: float = math.nan
    epoch_times: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    failed: bool = False
    failure_reason: str = ""
    peak_rss_mb: float = math.nan
    blas_threads: int = 0
    minor_faults: int = 0

    def to_record(self):
        rec = {"type": "seed", **dataclasses.asdict(self)}
        rec["timing"] = {name: rec.pop(name) for name in TIMING_FIELDS}
        return rec


@dataclass
class RunReport:
    config: dict
    results: list

    @property
    def successes(self):
        return [r for r in self.results if not r.failed]

    def aggregate(self):
        """(mean, sample std) of the test metric over successful seeds."""
        metrics = [r.test_metric for r in self.successes]
        if not metrics:
            return math.nan, math.nan
        mean = sum(metrics) / len(metrics)
        if len(metrics) < 2:
            return mean, 0.0
        var = sum((m - mean) ** 2 for m in metrics) / (len(metrics) - 1)
        return mean, math.sqrt(var)

    def formatted_aggregate(self):
        mean, std = self.aggregate()
        return f"{mean:.4f} ± {std:.4f}"

    def text_table(self):
        metric = TaskKind(self.config["task"]).metric_name
        lines = [
            f"strategy: {self.config.get('strategy')}   "
            f"dataset: {self.config.get('dataset')}   metric: {metric}",
            f"{'seed':>6}  {metric:>10}  {'naive':>10}  {'best epoch':>10}",
        ]
        for r in self.results:
            if r.failed:
                lines.append(f"{r.seed:>6}  {'FAILED':>10}  ({r.failure_reason})")
            else:
                lines.append(
                    f"{r.seed:>6}  {r.test_metric:>10.4f}  "
                    f"{r.naive_metric:>10.4f}  {r.best_epoch:>10}"
                )
        lines.append(f"aggregate: {self.formatted_aggregate()}")
        if len(self.successes) != len(self.results):
            lines.append("warning: aggregate computed over successful seeds only")
        return "\n".join(lines)

    def jsonl(self):
        lines = [json.dumps(r.to_record(), sort_keys=True) for r in self.results]
        mean, std = self.aggregate()
        lines.append(json.dumps(
            {"type": "aggregate", "mean": mean, "std": std,
             "formatted": self.formatted_aggregate(),
             "n_success": len(self.successes)},
            sort_keys=True,
        ))
        return "\n".join(lines)


def _mix(*parts):
    state = 0x9E3779B97F4A7C15
    for p in parts:
        state = (state ^ (int(p) + 0x9E3779B97F4A7C15)) * 0xBF58476D1CE4E5B9
        state &= (1 << 64) - 1
    return state >> 11


def logistic(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def evaluate(model, mols, task):
    """MAE (regression) or accuracy at logistic threshold 0.5, predicted
    in batches of ``EVAL_BATCH``."""
    if not mols:
        raise ValueError("evaluate: empty subset")
    preds = []
    for lo in range(0, len(mols), EVAL_BATCH):
        preds.append(model.predict(mols[lo:lo + EVAL_BATCH]))
    preds = np.concatenate(preds)
    labels = np.asarray([m.label for m in mols])
    if task.kind == "regression":
        return float(np.abs(preds - labels).mean())
    decisions = (logistic(preds) >= 0.5).astype(np.float64)
    return float((decisions == labels).mean())


def prepare_molecules(records, vocab, max_len):
    """EncodedMolecule list; over-long sequences are dropped and counted.

    Each record's kept parse gives both the graph and the token list.
    """
    mols = []
    dropped = 0
    unknown = 0
    for rec in records:
        seq = tokenize(rec.graph.tokens, vocab)
        if len(seq) > max_len:
            dropped += 1
            continue
        unknown += seq.unknown_tokens
        mols.append(EncodedMolecule(rec.graph, seq, rec.label))
    return mols, dropped, unknown


def prepare_splits(config, records, seed):
    """The seed's (train, valid, test) records, the vocabulary of the train
    split and each split's ``prepare_molecules`` result.

    Raises ValueError naming ``max_len`` when it drops every molecule of a
    non-empty split.
    """
    splits = split(records, SplitSpec(config.ratios, seed))
    vocab = Vocabulary.from_token_lists(r.graph.tokens for r in splits[0])
    prepared = []
    for name, recs in zip(("train", "valid", "test"), splits):
        mols, dropped, unknown = prepare_molecules(recs, vocab, config.max_len)
        if recs and not mols:
            raise ValueError(f"max_len = {config.max_len}: drops all "
                             f"{len(recs)} molecules of the {name} split")
        prepared.append((mols, dropped, unknown))
    return splits, vocab, prepared


def load_dataset(config):
    """The ``load_csv`` result of the config's dataset, columns and task."""
    return load_csv(config.dataset, config.smiles_column, config.label_column,
                    TaskKind(config.task))


def build_model(config, vocab_size, seed):
    return IntegratedModel(config, vocab_size, seed)


def blas_threads():
    """BLAS threads this process was started with: OPENBLAS_NUM_THREADS
    or OMP_NUM_THREADS when set, else OpenBLAS's default of one per
    usable core."""
    for name in BLAS_THREAD_VARS:
        value = os.environ.get(name, "")
        if value.isdigit() and int(value) > 0:
            return int(value)
    return len(os.sched_getaffinity(0))


def peak_rss_mb():
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def minor_faults():
    """Minor page faults of this process so far: pages the kernel mapped
    in on first touch, such as freshly allocated buffers."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


_heap_retained = False


def retain_heap():
    """Keep freed training buffers in this process's heap (glibc only).

    Sets glibc's mmap and trim thresholds once per process (see
    HEAP_MMAP_THRESHOLD); later calls do nothing. Returns whether both
    settings are in force: False where libc has no ``mallopt`` or rejects
    a value, and the allocator then keeps its defaults.
    """
    global _heap_retained
    if not _heap_retained:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is None:
            return False
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        # mallopt returns 1 on success and 0 on error
        _heap_retained = (
            mallopt(M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD) == 1
            and mallopt(M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD) == 1
        )
    return _heap_retained


def train_epoch(model, state, mols, batch_size, seed, epoch):
    """Adam steps over ``mols`` in the epoch's seeded batch order.

    Each loss passes :func:`autodiff.checked`: a non-finite one raises
    ``FloatingPointError`` before its step is taken.
    """
    for b, batch in enumerate(batch_iter(mols, batch_size, _mix(seed, epoch))):
        batch_seed = _mix(seed, epoch, b)

        def batch_loss(tape):
            return model.forward_batch(tape, batch, batch_seed=batch_seed)[0]

        tape = Tape()
        loss = checked(batch_loss, tape, "loss")
        # no name holds the gradients, so they are freed before the next batch
        adam_step(state, backward(loss, tape))


def train_one(config, seed, load_result, out_dir=None):
    """One full protocol run for one seed on a :func:`load_dataset` result.

    split -> (optional MLM stage) -> epoch loop with Adam -> early stop on
    the validation metric -> test metric from the best-validation
    snapshot. A non-finite loss or prediction aborts the run and is
    recorded as a failure of this seed only, its reason reading
    ``non-finite value <stage>: <cause>``: the stage is MLM pretraining,
    an epoch or test evaluation, and the cause the ``FloatingPointError``
    of :func:`autodiff.checked`.
    """
    retain_heap()
    faults_before = minor_faults()
    task = TaskKind(config.task)
    result = SeedResult(seed=seed, blas_threads=blas_threads())

    def finish():
        result.epochs_run = len(result.val_history)
        result.peak_rss_mb = peak_rss_mb()
        result.minor_faults = minor_faults() - faults_before
        return model, result

    (train_recs, _, test_recs), vocab, prepared = prepare_splits(
        config, load_result.records, seed)
    result.naive_metric = naive_baseline(train_recs, test_recs, task)
    (train_mols, _, _), (valid_mols, _, _), (test_mols, _, _) = prepared
    result.counters = {
        "quarantined": len(load_result.quarantined),
        "parse_warnings": load_result.warnings,
        "dropped_too_long": sum(dropped for _, dropped, _ in prepared),
        "unknown_tokens": sum(unknown for _, _, unknown in prepared),
        "vocab_size": len(vocab),
    }

    model = build_model(config, len(vocab), seed)
    stage = "in MLM pretraining"
    try:
        if config.mlm_pretrain and model.encoder is not None:
            losses, skipped = run_mlm_pretraining(
                model.encoder, [m.tokens for m in train_mols],
                epochs=config.mlm_epochs, batch_size=config.batch_size,
                lr=config.lr, mask_rate=config.mlm_rate, seed=_mix(seed, 0xA11),
            )
            result.counters["mlm_batches"] = len(losses)
            result.counters["mlm_skipped"] = skipped

        state = AdamState(model.parameters(), lr=config.lr)
        best_state = model.state_dict()
        best_val = None
        stale = 0
        for epoch in range(config.max_epochs):
            stage = f"at epoch {epoch}"
            started = time.perf_counter()
            train_epoch(model, state, train_mols, config.batch_size, seed, epoch)
            val_metric = evaluate(model, valid_mols, task)
            result.val_history.append(val_metric)
            result.epoch_times.append(time.perf_counter() - started)
            better = best_val is None or (
                val_metric > best_val if task.higher_is_better
                else val_metric < best_val
            )
            if better:
                best_val = val_metric
                best_state = model.state_dict()
                result.best_epoch = epoch
                stale = 0
            else:
                stale += 1
            if stale >= config.patience:
                break
        result.best_val_metric = best_val if best_val is not None else math.nan
        model.load_state_dict(best_state)
        stage = "in test evaluation"
        result.test_metric = evaluate(model, test_mols, task)
    except FloatingPointError as exc:
        result.failed = True
        result.failure_reason = f"non-finite value {stage}: {exc}"
        return finish()
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        save_checkpoint(
            os.path.join(out_dir, f"checkpoint_seed{seed}.bin"),
            {"seed": seed, **config.to_dict()},
            model.state_dict(),
        )
    return finish()


def _train_seed_entry(config_dict, seed, out_dir, load_result):
    config = RunConfig.from_dict(config_dict)
    _, result = train_one(config, seed, load_result, out_dir=out_dir)
    return result


def _run_parallel(config, data, out_dir):
    """Seeds on spawned worker processes, each given an equal share of the
    usable cores as its BLAS thread budget (so workers x threads <= cores).
    There are no more workers than seeds or usable cores.

    The budget goes into the environment the workers start with, before
    they load numpy; the parent's environment is restored afterwards.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    cores = len(os.sched_getaffinity(0))
    workers = min(config.workers, len(config.seeds), cores)
    threads = str(cores // workers)
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, threads))
    try:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            futures = [
                pool.submit(_train_seed_entry, config.to_dict(), seed, out_dir, data)
                for seed in config.seeds
            ]
            return [f.result() for f in futures]
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def run_seeds(config, out_dir=None):
    """Full protocol over config.seeds; aggregate is mean +/- sample std.

    The dataset is loaded once. Seeds run on parallel workers when
    config.workers > 1; results are ordered by the configured seed list
    either way.
    """
    data = load_dataset(config)
    if config.workers > 1:
        results = _run_parallel(config, data, out_dir)
    else:
        results = []
        for seed in config.seeds:
            _, result = train_one(config, seed, data, out_dir=out_dir)
            results.append(result)
    return RunReport(config=config.to_dict(), results=results)


# ---------------------------------------------------------------------------
# timing profile
# ---------------------------------------------------------------------------

def profile_strategies(config, strategies, measured_epochs=5, warmup_epochs=1):
    """Median per-epoch training wall time per strategy, plus the ordering
    verdicts (violations are reported, never raised).

    Every strategy trains on the split and initial weights of seeds[0].
    Strategies advance one epoch at a time in rotation so slow machine
    drift hits them symmetrically, and the garbage collector pauses during
    measured epochs (tape churn otherwise triggers collector scans at
    arbitrary points). Each strategy's entry also lists the minor page
    faults of every measured epoch. A non-finite loss raises
    ``FloatingPointError`` with the strategy before its cause.
    """
    import gc

    if measured_epochs < 1:
        raise ValueError("measured_epochs must be at least 1")
    if warmup_epochs < 0:
        raise ValueError("warmup_epochs must not be negative")
    retain_heap()
    seed = config.seeds[0]
    data = load_dataset(config)
    _, vocab, ((train_mols, _, _), _, _) = prepare_splits(config, data.records, seed)

    runners = {}
    for strategy in strategies:
        run_cfg = dataclasses.replace(config, strategy=strategy)
        model = build_model(run_cfg, len(vocab), seed)
        runners[strategy] = (model, AdamState(model.parameters(), lr=config.lr))

    times = {strategy: [] for strategy in strategies}
    faults = {strategy: [] for strategy in strategies}
    gc_was_enabled = gc.isenabled()
    try:
        for epoch in range(warmup_epochs + measured_epochs):
            for strategy in strategies:
                model, state = runners[strategy]
                gc.collect()
                gc.disable()
                faults_before = minor_faults()
                started = time.perf_counter()
                try:
                    train_epoch(model, state, train_mols, config.batch_size,
                                seed, epoch)
                except FloatingPointError as exc:
                    raise FloatingPointError(f"{strategy}: {exc}") from exc
                elapsed = time.perf_counter() - started
                epoch_faults = minor_faults() - faults_before
                gc.enable()
                if epoch >= warmup_epochs:
                    times[strategy].append(elapsed)
                    faults[strategy].append(epoch_faults)
    finally:
        if gc_was_enabled:
            gc.enable()
    timings = {
        strategy: {"median": float(np.median(ts)), "epochs": ts,
                   "minor_faults": faults[strategy]}
        for strategy, ts in times.items()
    }

    verdicts = []
    def check(label, faster, slower):
        if faster in timings and slower in timings:
            ok = timings[faster]["median"] <= timings[slower]["median"]
            verdicts.append({
                "check": label,
                "passed": bool(ok),
                "faster": timings[faster]["median"],
                "slower": timings[slower]["median"],
            })

    check("graph-contrast <= node-contrast", "contrast-graph", "contrast-node")
    check("late-fusion <= lm2mpnn", "late-fusion", "lm2mpnn")
    return {"timings": timings, "verdicts": verdicts}


def attention_core_seconds(seq_len, hidden_dim, num_heads, repeats, seed=0):
    """Median wall time of the O(N^2 d) attention core at one length.

    Times one ``packed-attention`` op on a single sequence of ``seq_len``
    rows. An untimed same-shape matmul precedes every repeat so a sleeping
    BLAS thread pool never bills its wake-up to the measurement.
    """
    rng = np.random.default_rng(seed)
    dk = hidden_dim // num_heads
    qkv = constant(rng.normal(size=(seq_len, 3 * hidden_dim)))
    offsets = np.array([0, seq_len])
    warm_a = np.ones((seq_len, seq_len))
    warm_b = np.ones((seq_len, dk))
    times = []
    for _ in range(repeats + 2):
        tape = Tape(grad_enabled=False)
        warm_a @ warm_b
        started = time.perf_counter()
        tape.apply("packed-attention", qkv, offsets=offsets, num_heads=num_heads)
        times.append(time.perf_counter() - started)
    return float(np.median(times[2:]))  # first two are warmup


def attention_scaling(base_len=128, repeats=25):
    """Time the attention core at N and 2N; ratio tracks the N^2 cost.

    The heads and width are RunConfig's defaults. The default lengths keep
    both score matrices inside the cache so the ratio reflects the
    quadratic flop count rather than a cache cliff.
    """
    if base_len < 1:
        raise ValueError("base_len must be at least 1")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    d, heads = RunConfig.hidden_dim, RunConfig.num_heads
    t1 = attention_core_seconds(base_len, d, heads, repeats)
    t2 = attention_core_seconds(2 * base_len, d, heads, repeats)
    return {
        "base_len": base_len,
        "seconds": {base_len: t1, 2 * base_len: t2},
        "ratio": t2 / t1,
    }
