"""Per-layer tracing by wrappers installed from outside the program.

Each wrapper counts calls and inclusive seconds of one public function.
A function is patched in every namespace that looks it up: ``training``
binds ``parse``, ``backward``, ``adam_step`` and ``save_checkpoint`` in
its own namespace, so patching only the defining module would miss those
calls. Nothing under ``src/`` changes.
"""

import time
from collections import defaultdict

import numpy as np

# Op kinds the three workloads run, each reported on every workload (zero
# where unused). Any other kind lands in autodiff.apply.other.
OP_KINDS = (
    "add", "binary-cross-entropy-with-logit", "broadcast-add-bias",
    "concat-last-axis", "concat-rows", "cross-entropy-with-logits",
    "gather-rows", "layer-normalize", "masked-softmax", "matmul",
    "mean-over-rows", "multiply", "p-norm-of-difference", "relu",
    "scatter-add-rows", "segment-mean", "sigmoid", "squared-error",
    "subtract", "sum-over-rows", "tanh", "transpose", "typed-edge-message",
)

# Metric key -> [(owner, attribute name), ...]; owners are resolved by
# ``targets``. The first group holds the top-level steps whose time should
# account for a protocol's wall time.
TOP_LEVEL = {
    "data.load_csv": [("data", "load_csv"), ("training", "load_csv")],
    "data.split": [("data", "split"), ("training", "split")],
    "training.prepare_molecules": [("training", "prepare_molecules")],
    "integration.forward_batch": [("IntegratedModel", "forward_batch")],
    "autodiff.backward": [("autodiff", "backward"), ("training", "backward"),
                          ("lm", "backward")],
    "optim.adam_step": [("optim", "adam_step"), ("training", "adam_step"),
                        ("lm", "adam_step")],
    "lm.mlm_pretrain_step": [("lm", "mlm_pretrain_step")],
    "training.evaluate": [("training", "evaluate")],
    "checkpoint.save_checkpoint": [("checkpoint", "save_checkpoint"),
                                   ("training", "save_checkpoint")],
}
NESTED = {
    "smiles.parse": [("smiles", "parse"), ("data", "parse"),
                     ("training", "parse")],
    "smiles.tokenize": [("smiles", "tokenize"), ("training", "tokenize")],
    "lm.embed": [("SmilesEncoder", "embed")],
    "lm.encode": [("SmilesEncoder", "encode")],
    "lm.extract": [("SmilesEncoder", "extract")],
    "gnn.from_graphs": [("GraphBatch", "from_graphs")],
    "gnn.run": [("Mpnn", "run")],
    "gnn.readout": [("Mpnn", "readout")],
    "kernels.scatter_add_rows": [("kernels", "scatter_add_rows")],
    "kernels.scatter_add_into": [("kernels", "scatter_add_into")],
    "kernels.segment_mean": [("kernels", "segment_mean")],
    "kernels.segment_mean_grad": [("kernels", "segment_mean_grad")],
    "integration.build_triples": [("integration", "build_triples")],
    "integration.triplet_loss": [("integration", "triplet_loss")],
    "integration.fuse": [("integration", "fuse")],
    "integration.predict": [("IntegratedModel", "predict")],
}
TIMED = (*TOP_LEVEL, *NESTED, "autodiff.apply",
         *(f"autodiff.apply.{k}" for k in OP_KINDS), "autodiff.apply.other")
# Whole-round figures of the traced run.
ROUND = ("trace.run_s_untraced", "trace.run_s_traced", "trace.overhead_s",
         "trace.top_level_s", "trace.sampling_s", "trace.unattributed_s")


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for key in TIMED:
        units[f"{key}.calls"] = "count"
        units[f"{key}.s"] = "s"
    # measured on training batches only, not on MLM tapes
    units["autodiff.records_per_batch"] = "count"
    units["autodiff.tape_bytes_per_batch"] = "bytes"
    for key in ROUND:
        units[key] = "s"
    return units


def targets():
    from molfuse import (autodiff, checkpoint, data, integration, kernels, lm,
                         optim, smiles, training)
    from molfuse.gnn import GraphBatch, Mpnn

    return {
        "autodiff": autodiff, "checkpoint": checkpoint, "data": data,
        "integration": integration, "kernels": kernels, "lm": lm,
        "optim": optim, "smiles": smiles, "training": training,
        "IntegratedModel": integration.IntegratedModel,
        "SmilesEncoder": lm.SmilesEncoder, "GraphBatch": GraphBatch,
        "Mpnn": Mpnn,
    }


def tape_bytes(tape):
    """Bytes of the distinct buffers the tape's backward closures keep
    alive, parameters excluded."""
    from molfuse.autodiff import Tensor

    params = {id(t.values) for t in tape.watched.values() if t.name}
    seen = set()
    total = 0

    def visit(obj):
        nonlocal total
        if isinstance(obj, Tensor):
            if id(obj.values) in params:
                return
            obj = obj.values
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            if id(obj) not in seen:
                seen.add(id(obj))
                total += obj.nbytes
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                visit(item)

    for _, backward_fn in tape.records:
        for cell in backward_fn.__closure__ or ():
            visit(cell.cell_contents)
    return total


class Tracer:
    """Installs timing wrappers; ``uninstall`` restores the originals."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.top_level_s = 0.0
        self.sampling_s = 0.0
        self._top_depth = 0
        self._batches = 0
        self._records = 0
        self._bytes = 0
        self._patched = []

    def _timed(self, key, fn, top):
        calls, seconds = self.calls, self.seconds
        clock = time.perf_counter

        if not top:
            def wrapper(*args, **kwargs):
                started = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds[key] += clock() - started
                    calls[key] += 1
            return wrapper

        def top_wrapper(*args, **kwargs):
            self._top_depth += 1
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                self._top_depth -= 1
                if self._top_depth == 0:
                    self.top_level_s += elapsed
                seconds[key] += elapsed
                calls[key] += 1
        return top_wrapper

    def _patch(self, owner, name, replacement):
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self):
        owners = targets()
        for groups, top in ((TOP_LEVEL, True), (NESTED, False)):
            for key, sites in groups.items():
                for owner_name, name in sites:
                    owner = owners[owner_name]
                    original = owner.__dict__[name]
                    if isinstance(original, classmethod):
                        wrapped = classmethod(
                            self._timed(key, original.__func__, top))
                    else:
                        wrapped = self._timed(key, original, top)
                    self._patch(owner, name, wrapped)
        self._install_apply(owners["autodiff"].Tape)
        self._install_batch_sampler(owners["training"])

    def _install_apply(self, tape_cls):
        apply = tape_cls.__dict__["apply"]
        calls, seconds = self.calls, self.seconds
        clock = time.perf_counter
        known = {k: f"autodiff.apply.{k}" for k in OP_KINDS}

        def timed_apply(tape, kind, *inputs, **kwargs):
            started = clock()
            try:
                return apply(tape, kind, *inputs, **kwargs)
            finally:
                elapsed = clock() - started
                sub = known.get(kind, "autodiff.apply.other")
                seconds["autodiff.apply"] += elapsed
                seconds[sub] += elapsed
                calls["autodiff.apply"] += 1
                calls[sub] += 1

        self._patch(tape_cls, "apply", timed_apply)

    def _install_batch_sampler(self, training):
        # training.backward is already timed; sampling the tape here, outside
        # that timer, keeps its cost out of autodiff.backward.s.
        timed_backward = training.backward

        def sampled_backward(loss, tape):
            started = time.perf_counter()
            self._batches += 1
            self._records += len(tape.records)
            self._bytes += tape_bytes(tape)
            self.sampling_s += time.perf_counter() - started
            return timed_backward(loss, tape)

        self._patch(training, "backward", sampled_backward)

    def uninstall(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def metrics(self, rounds):
        """Per-round call counts and seconds, plus per-batch tape figures."""
        out = {}
        for key in TIMED:
            out[f"{key}.calls"] = self.calls[key] / rounds
            out[f"{key}.s"] = self.seconds[key] / rounds
        batches = max(self._batches, 1)
        out["autodiff.records_per_batch"] = self._records / batches
        out["autodiff.tape_bytes_per_batch"] = self._bytes / batches
        return out
