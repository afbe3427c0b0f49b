"""Edge-conditioned message passing over block-diagonal molecule batches.

Messages flow in both orientations of every bond: a per-edge matrix built
from the bond features multiplies the neighbor state, and contributions
are scatter-added per destination node. The node update is a gated
recurrent cell. Batches concatenate graphs with boundary offsets instead
of padding; readout is the mean over each graph's block. Both variants
read their sizes from a :class:`molfuse.training.RunConfig`:
``gnn_variant`` and ``hidden_dim``, plus ``message_steps`` and
``edge_hidden`` for the message passer; GraphConv is always two layers.
With ``message_steps = 0`` the message passer builds its input layer
alone: no forward would read an edge network or an update cell.
"""

import numpy as np

from .autodiff import constant, parameter
from .lm import xavier
from .smiles import EDGE_FEATURE_DIM, NODE_FEATURE_DIM

GNN_VARIANTS = ("mpnn", "graphconv")


class GraphBatch:
    """Block-diagonal concatenation of molecular graphs.

    Every bond appears twice in the directed edge arrays, sharing its
    feature row: bond j of the batch is edge 2j (u->v) and edge 2j+1
    (v->u).
    """

    def __init__(self, node_features, edge_src, edge_dst, edge_features, offsets):
        self.node_features = node_features
        self.edge_src = edge_src
        self.edge_dst = edge_dst
        self.edge_features = edge_features
        self.offsets = offsets

    @property
    def num_nodes(self):
        return self.node_features.shape[0]

    @classmethod
    def from_graphs(cls, graphs):
        if not graphs:
            raise ValueError("empty graph batch")
        sizes = [g.num_atoms for g in graphs]
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        # the graphs' (bonds x 2) endpoint arrays, shifted to the batch's
        # node numbering (concatenate copies, so no graph's array changes)
        pairs = np.concatenate([g.bond_index for g in graphs])
        pairs += np.repeat(offsets[:-1], [len(g.bond_index) for g in graphs])[:, None]
        return cls(
            np.concatenate([g.node_features for g in graphs], axis=0),
            pairs.reshape(-1),
            pairs[:, ::-1].reshape(-1),
            np.repeat(np.concatenate([g.edge_features for g in graphs]), 2, axis=0),
            offsets,
        )


def edge_types(rows):
    """Group edges by their feature row: (unique rows, order, bounds).

    Bond feature rows are near-categorical. One stable lexicographic sort
    lists the edge ids by type, ascending within a type, and each sorted
    row that differs from its predecessor starts a type; ``bounds``
    delimits the types in ``order``. The unique rows come out in
    ``np.unique(rows, axis=0)`` order. ``rows`` must have at least one row.
    """
    order = np.lexsort(rows.T[::-1])
    sorted_rows = rows[order]
    starts = np.flatnonzero((sorted_rows[1:] != sorted_rows[:-1]).any(axis=1))
    bounds = np.concatenate([[0], starts + 1, [len(rows)]]).astype(np.int64)
    return sorted_rows[bounds[:-1]], order, bounds


class Mpnn:
    def __init__(self, config, rng, cell_width=None):
        self.config = config
        d = config.hidden_dim
        w = cell_width or d
        self.cell_width = w
        eh = config.edge_hidden
        self._params = []  # in build order

        def build(name, values):
            p = parameter(values, f"gnn.{name}")
            self._params.append(p)
            return p

        self.w_in = build("w_in", xavier(rng, NODE_FEATURE_DIM, d))
        self.b_in = build("b_in", np.zeros(d))
        if config.message_steps == 0:
            return
        self.we1 = build("edge.w1", xavier(rng, EDGE_FEATURE_DIM, eh))
        self.be1 = build("edge.b1", np.zeros(eh))
        self.we2 = build("edge.w2", xavier(rng, eh, w * w))
        self.be2 = build("edge.b2", np.zeros(w * w))
        self.wz = build("cell.wz", xavier(rng, 2 * w, w))
        self.bz = build("cell.bz", np.zeros(w))
        self.wr = build("cell.wr", xavier(rng, 2 * w, w))
        self.br = build("cell.br", np.zeros(w))
        self.wm = build("cell.wm", xavier(rng, w, w))
        self.wh = build("cell.wh", xavier(rng, w, w))
        if w != d:
            self.w_proj = build("w_proj", xavier(rng, w, d))
            self.b_proj = build("b_proj", np.zeros(d))

    def parameters(self):
        return list(self._params)

    def initial_states(self, tape, batch):
        x = constant(batch.node_features)
        return tape.apply("matmul", x, self.w_in, self.b_in)

    def _edge_mlp(self, tape, ef):
        if ef.shape[-1] != EDGE_FEATURE_DIM:
            raise ValueError(
                f"edge features of width {ef.shape[-1]}, expected {EDGE_FEATURE_DIM}"
            )
        hidden = tape.apply("relu", tape.apply("matmul", ef, self.we1, self.be1))
        return tape.apply("matmul", hidden, self.we2, self.be2)

    def _message_operator(self, tape, batch):
        """message_fn(tape, states) with the edge network evaluated once
        per unique bond feature row and applied per type via BLAS."""
        unique, order, bounds = edge_types(batch.edge_features)
        a_types = self._edge_mlp(tape, constant(unique))
        src, dst = batch.edge_src[order], batch.edge_dst[order]

        def message_fn(t, states):
            return t.apply(
                "typed-edge-message", a_types, states,
                src=src, dst=dst, bounds=bounds,
            )

        return message_fn

    def update(self, tape, states, messages):
        """Gated update: h' = (1 - z) * h + z * tanh(Wm m + Wh (r * h))."""
        joint = tape.apply("concat-last-axis", states, messages)
        z = tape.apply("sigmoid", tape.apply("matmul", joint, self.wz, self.bz))
        r = tape.apply("sigmoid", tape.apply("matmul", joint, self.wr, self.br))
        gated = tape.apply("multiply", r, states)
        cand = tape.apply(
            "tanh",
            tape.apply(
                "add",
                tape.apply("matmul", messages, self.wm),
                tape.apply("matmul", gated, self.wh),
            ),
        )
        keep = tape.apply("subtract", constant(1.0), z)
        return tape.apply(
            "add", tape.apply("multiply", keep, states), tape.apply("multiply", z, cand)
        )

    def _project(self, tape, states):
        if self.cell_width == self.config.hidden_dim:
            return states
        return tape.apply("matmul", states, self.w_proj, self.b_proj)

    def run(self, tape, batch, fuse_fn=None):
        """T message-passing steps; fuse_fn (if given) injects aligned
        cross-model rows into h before both aggregation and update."""
        h = self.initial_states(tape, batch)
        message_fn = (
            self._message_operator(tape, batch)
            if self.config.message_steps and batch.edge_src.size else None
        )
        for _ in range(self.config.message_steps):
            fused = fuse_fn(tape, h) if fuse_fn is not None else h
            if message_fn is not None:
                m = message_fn(tape, fused)
            else:
                m = constant(np.zeros((batch.num_nodes, self.cell_width)))
            h = self._project(tape, self.update(tape, fused, m))
        return h

    def readout(self, tape, states, batch):
        return tape.apply("segment-mean", states, offsets=batch.offsets)


class GraphConv:
    """Two stacked h' = relu(W_self h + W_nbr sum_neighbors h_u + b) layers."""

    def __init__(self, config, rng):
        d = config.hidden_dim
        self.layers = [
            {
                "w_self": parameter(xavier(rng, width, d), f"gc.{n}.w_self"),
                "w_nbr": parameter(xavier(rng, width, d), f"gc.{n}.w_nbr"),
                "b": parameter(np.zeros(d), f"gc.{n}.b"),
            }
            for n, width in enumerate((NODE_FEATURE_DIM, d))
        ]

    def parameters(self):
        out = []
        for layer in self.layers:
            out.extend([layer["w_self"], layer["w_nbr"], layer["b"]])
        return out

    def layer_forward(self, tape, states, batch, layer):
        own = tape.apply("matmul", states, layer["w_self"], layer["b"])
        if batch.edge_src.size:
            pulled = tape.apply("gather-rows", states, indices=batch.edge_src)
            summed = tape.apply(
                "scatter-add-rows", pulled,
                indices=batch.edge_dst, num_rows=batch.num_nodes,
            )
            own = tape.apply("add", own, tape.apply("matmul", summed, layer["w_nbr"]))
        return tape.apply("relu", own)

    def run(self, tape, batch, fuse_fn=None):
        if fuse_fn is not None:
            raise ValueError("graphconv does not support message-level fusion")
        h = constant(batch.node_features)
        for layer in self.layers:
            h = self.layer_forward(tape, h, batch, layer)
        return h

    def readout(self, tape, states, batch):
        return tape.apply("segment-mean", states, offsets=batch.offsets)


def build_gnn(config, rng, cell_width=None):
    if config.gnn_variant == "graphconv":
        return GraphConv(config, rng)
    return Mpnn(config, rng, cell_width=cell_width)
