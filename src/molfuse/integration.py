"""Strategies for combining the token encoder with the message passer.

Seven wirings are selectable: the two single-model baselines, node- and
graph-level contrastive supervision of the token encoder, late fusion of
the two graph embeddings, and the two joint fusions (message-passer
states injected into the encoder input, or encoder token outputs injected
into every message-passing step; both fuse through one injection step,
which projects ``concat``'s 2d-wide row back to d). The encoder computes
only the rows a wiring reads: the CLS rows for ``lm-baseline``,
graph-level contrast and late fusion, the atom rows for node-level
contrast and ``lm2mpnn``, and every row for ``mpnn2lm``'s mean pool. Both
contrast levels draw negatives through :func:`build_triples` and weigh
their triplet term by ``alpha``: node-level negatives come from seeded
within-graph derangements, and graph-level negatives from one
derangement of the batch, passed as one segment with each graph counted
as one node. ``IntegratedModel`` takes one
:class:`molfuse.training.RunConfig` and hands it to both components, so
they share one ``hidden_dim``; the strategy, fusion op, task, contrast
weight and margin come from the same object.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .autodiff import Tape, checked, constant, parameter
from .gnn import GraphBatch, build_gnn
from .lm import PredictionHead, SmilesEncoder, xavier
from .smiles import pack_batch

STRATEGIES = (
    "lm-baseline",
    "mpnn-baseline",
    "contrast-node",
    "contrast-graph",
    "late-fusion",
    "mpnn2lm",
    "lm2mpnn",
)
FUSION_OPS = ("sum", "max", "concat", "gate")


@dataclass
class EncodedMolecule:
    """One record, fully preprocessed for training."""

    graph: object
    tokens: object
    label: float


@dataclass
class TripleBatch:
    """Row indices defining (anchor, positive, negative) triples.

    anchor_idx indexes both the anchor matrix and the positive matrix;
    neg_idx indexes the positive matrix. skipped counts nodes for which no
    valid negative existed.
    """

    anchor_idx: np.ndarray
    neg_idx: np.ndarray
    skipped: int = 0

    def __len__(self):
        return len(self.anchor_idx)


def derangement(n, rng):
    """Uniform fixed-point-free permutation of range(n) via rejection."""
    if n < 2:
        raise ValueError("derangements need n >= 2")
    while True:
        perm = rng.permutation(n)
        if not (perm == np.arange(n)).any():
            return perm


def build_triples(lm_nodes, mpnn_nodes, offsets, seed):
    """Per-node triples: anchors from the encoder, positives from the
    message passer, negatives from a seeded derangement.

    Each graph's node indices are deranged; single-node graphs borrow a
    uniform node from another graph (or are skipped and counted when the
    batch offers none). Offsets ``[0, n]`` derange the whole batch at once.
    """
    rows_a, rows_p = lm_nodes.shape[0], mpnn_nodes.shape[0]
    if rows_a != rows_p:
        raise ValueError(
            f"anchor rows {rows_a} != positive rows {rows_p}"
        )
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets[-1] != rows_a:
        raise ValueError("graph boundaries do not cover the node rows")
    rng = np.random.default_rng(seed)
    total = int(offsets[-1])
    anchor = []
    neg = []
    skipped = 0
    for g in range(len(offsets) - 1):
        lo, hi = int(offsets[g]), int(offsets[g + 1])
        size = hi - lo
        if size >= 2:
            perm = derangement(size, rng)
            anchor.extend(range(lo, hi))
            neg.extend(lo + perm)
        else:
            outside = total - size
            if outside == 0:
                skipped += 1
                continue
            pick = int(rng.integers(0, outside))
            if pick >= lo:
                pick += size
            anchor.append(lo)
            neg.append(pick)
    return TripleBatch(
        np.asarray(anchor, dtype=np.int64), np.asarray(neg, dtype=np.int64), skipped
    )


def triplet_loss(tape, anchors, positives, triples, margin):
    """Sum over triples of max(||a-p||_2 - ||a-n||_2 + margin, 0)."""
    if len(triples) == 0:
        return constant(np.asarray(0.0))
    a = tape.apply("gather-rows", anchors, indices=triples.anchor_idx)
    p = tape.apply("gather-rows", positives, indices=triples.anchor_idx)
    n = tape.apply("gather-rows", positives, indices=triples.neg_idx)
    d_ap = tape.apply("p-norm-of-difference", a, p)
    d_an = tape.apply("p-norm-of-difference", a, n)
    hinge = tape.apply(
        "relu",
        tape.apply(
            "add", tape.apply("subtract", d_ap, d_an), constant(margin)
        ),
    )
    return tape.apply("sum-over-rows", hinge)


def fuse(tape, h1, h2, op, gate_params=None):
    """Combine two same-shape embeddings: sum, max, concat, or gate.

    The gate is a highway-style convex mix g * h1 + (1 - g) * h2 with
    g = sigmoid([h1 || h2] W_g + b_g).
    """
    if h1.shape != h2.shape:
        raise ValueError(f"fuse: shapes {h1.shape} and {h2.shape} differ")
    if op == "sum":
        return tape.apply("add", h1, h2)
    if op == "max":
        return tape.apply("elementwise-max", h1, h2)
    if op == "concat":
        return tape.apply("concat-last-axis", h1, h2)
    if op == "gate":
        if gate_params is None:
            raise ValueError("gate fusion requires gate parameters")
        w, b = gate_params
        joint = tape.apply("concat-last-axis", h1, h2)
        g = tape.apply("sigmoid", tape.apply("matmul", joint, w, b))
        keep = tape.apply("subtract", constant(1.0), g)
        return tape.apply(
            "add", tape.apply("multiply", g, h1), tape.apply("multiply", keep, h2)
        )
    raise ValueError(f"unknown fusion op '{op}'")


class IntegratedModel:
    """Bundles the components one strategy needs and runs its forward.

    Component initialization draws from per-component seeded streams, so
    two models built with the same seed share bitwise-identical weights
    for the components they have in common regardless of strategy.
    """

    def __init__(self, config, vocab_size, seed=0):
        self.config = config
        strategy, fusion = config.strategy, config.fusion
        d = config.hidden_dim

        self.encoder = None
        self.gnn = None
        self.gate_w = None
        self.gate_b = None
        self.fuse_proj = None

        if strategy != "mpnn-baseline":
            self.encoder = SmilesEncoder(
                config, vocab_size, np.random.default_rng([seed, 0])
            )
        if strategy != "lm-baseline":
            self.gnn = build_gnn(config, np.random.default_rng([seed, 1]))
            # frozen weights are constants: no tape records them, no Adam steps them
            for p in self.gnn.parameters():
                p.requires_grad = not config.frozen_mpnn
        head_width = 2 * d if (strategy == "late-fusion" and fusion == "concat") else d
        self.head = PredictionHead(
            head_width, d, np.random.default_rng([seed, 2])
        )
        rng_fuse = np.random.default_rng([seed, 3])
        if fusion == "gate" and strategy in ("late-fusion", "mpnn2lm", "lm2mpnn"):
            self.gate_w = parameter(xavier(rng_fuse, 2 * d, d), "fuse.gate_w")
            self.gate_b = parameter(np.zeros(d), "fuse.gate_b")
        if fusion == "concat" and strategy in ("mpnn2lm", "lm2mpnn"):
            self.fuse_proj = parameter(xavier(rng_fuse, 2 * d, d), "fuse.proj")

    # -- plumbing ----------------------------------------------------------

    @property
    def gate_params(self):
        return (self.gate_w, self.gate_b) if self.gate_w is not None else None

    def parameters(self):
        params = []
        if self.encoder is not None:
            params.extend(self.encoder.parameters())
        if self.gnn is not None:
            params.extend(self.gnn.parameters())
        params.extend(self.head.parameters())
        if self.gate_w is not None:
            params.extend([self.gate_w, self.gate_b])
        if self.fuse_proj is not None:
            params.append(self.fuse_proj)
        return params

    def _inject(self, tape, rows, injected):
        """Fuse the other model's aligned rows into ``rows``: the one
        injection step of both joint fusions. ``concat``'s 2d-wide row is
        projected back to d through ``fuse.proj``."""
        fused = fuse(tape, rows, injected, self.config.fusion, self.gate_params)
        if self.fuse_proj is not None:
            fused = tape.apply("matmul", fused, self.fuse_proj)
        return fused

    def _mpnn_readout(self, tape, gb):
        return self.gnn.readout(tape, self.gnn.run(tape, gb), gb)

    def _prediction_loss(self, tape, preds, labels):
        target = constant(labels.reshape(-1, 1))
        kind = (
            "squared-error"
            if self.config.task == "regression"
            else "binary-cross-entropy-with-logit"
        )
        return tape.apply(kind, preds, target)

    # -- strategy forwards --------------------------------------------------

    def _forward_mpnn2lm(self, tape, mols, mpnn_states):
        packed = pack_batch([mol.tokens for mol in mols])
        # message-passer states are in graph atom order, which is the
        # order of the atom tokens, so row k lands on atom_rows[k]
        injected = tape.apply(
            "scatter-add-rows", mpnn_states, indices=packed.atom_rows,
            num_rows=len(packed.token_ids),
        )
        e_out = self.encoder.forward(
            tape, packed, fuse_fn=partial(self._inject, injected=injected)
        )
        pooled = tape.apply("segment-mean", e_out, offsets=packed.offsets)
        return self.head.forward(tape, pooled)

    def _forward_lm2mpnn(self, tape, gb, lm_node_rows):
        states = self.gnn.run(
            tape, gb, fuse_fn=partial(self._inject, injected=lm_node_rows)
        )
        pooled = self.gnn.readout(tape, states, gb)
        return self.head.forward(tape, pooled)

    def forward_batch(self, tape, mols, batch_seed=0, predict_only=False):
        """Loss, raw predictions, and counters for one batch.

        Regression predictions are raw head outputs; classification
        predictions are logits (consumers apply the logistic function).
        ``predict_only`` builds no loss and returns None in its place. Both
        contrast levels then add one weighted triplet term (module docstring).
        """
        config = self.config
        strategy = config.strategy
        labels = np.asarray([m.label for m in mols], dtype=np.float64)
        gb = GraphBatch.from_graphs([m.graph for m in mols]) \
            if self.gnn is not None else None
        info = {"skipped_triples": 0}

        if strategy == "mpnn-baseline":
            pooled = self._mpnn_readout(tape, gb)
            preds = self.head.forward(tape, pooled)
        elif strategy == "mpnn2lm":
            preds = self._forward_mpnn2lm(tape, mols, self.gnn.run(tape, gb))
        else:
            packed = pack_batch([mol.tokens for mol in mols])
            # node-level wirings read the atom rows, the others the CLS rows
            rows = (packed.atom_rows if strategy in ("contrast-node", "lm2mpnn")
                    else packed.offsets[:-1])
            lm_rows = self.encoder.forward(tape, packed, rows)
            if strategy == "contrast-node":
                per_graph = tape.apply("segment-mean", lm_rows, offsets=gb.offsets)
                preds = self.head.forward(tape, per_graph)
            elif strategy == "late-fusion":
                pooled = self._mpnn_readout(tape, gb)
                fused = fuse(tape, lm_rows, pooled, config.fusion, self.gate_params)
                preds = self.head.forward(tape, fused)
            elif strategy == "lm2mpnn":
                preds = self._forward_lm2mpnn(tape, gb, lm_rows)
            else:  # lm-baseline, contrast-graph
                preds = self.head.forward(tape, lm_rows)
        if predict_only:
            return None, preds, info

        loss = self._prediction_loss(tape, preds, labels)
        if strategy == "contrast-node":
            positives, offsets = self.gnn.run(tape, gb), gb.offsets
        elif strategy == "contrast-graph":
            # the whole batch is one segment, each graph one node
            positives, offsets = self._mpnn_readout(tape, gb), [0, len(mols)]
        else:
            return loss, preds, info
        triples = build_triples(lm_rows, positives, offsets, batch_seed)
        info["skipped_triples"] = triples.skipped
        trip = triplet_loss(tape, lm_rows, positives, triples, config.margin)
        scaled = tape.apply("multiply", constant(config.alpha), trip)
        return tape.apply("add", loss, scaled), preds, info

    def predict(self, mols):
        """Raw predictions under a non-recording tape; they pass
        :func:`autodiff.checked`, so a NaN or inf raises
        ``FloatingPointError``."""
        def run(tape):
            return self.forward_batch(tape, mols, batch_seed=0, predict_only=True)[1]

        return checked(run, Tape(grad_enabled=False), "prediction").values.reshape(-1)

    def state_dict(self):
        return {p.name: p.values.copy() for p in self.parameters()}

    def load_state_dict(self, state):
        """Copy values in by parameter name; the names and shapes must
        match exactly, and nothing is copied when one does not."""
        params = self.parameters()
        names = {p.name for p in params}
        missing = sorted(names - set(state))
        unexpected = sorted(set(state) - names)
        if missing or unexpected:
            raise ValueError(
                f"state does not match the model's parameters: missing "
                f"{missing}, unexpected {unexpected}"
            )
        for p in params:
            if np.shape(state[p.name]) != p.values.shape:
                raise ValueError(
                    f"parameter {p.name}: state has shape "
                    f"{np.shape(state[p.name])}, the model's is {p.values.shape}"
                )
        for p in params:
            p.values[:] = state[p.name]
