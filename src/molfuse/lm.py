"""Transformer encoder over SMILES tokens with an optional MLM stage.

Produces the three outputs the integration strategies consume: per-atom
node embeddings (rows of the final hidden state at atom token positions),
a sequence-level embedding (the CLS row), and a property prediction.
Node-level contrast anchors on the atom rows, graph-level contrast on the
CLS rows (its negatives are one batch derangement from
:func:`molfuse.integration.build_triples`). ``SmilesEncoder.forward`` is
the one entry point of all seven strategies and of the MLM stage.
Blocks are post-layer-norm: x = LN(x + attention(x)); x = LN(x + ffn(x)).
A batch runs as one packed matrix of all its token rows; attention is
computed per sequence, so no row sees another sequence and none is padded.
The encoder reads ``hidden_dim``, ``num_layers``, ``num_heads``,
``ffn_dim`` and ``max_len`` from a :class:`molfuse.training.RunConfig`;
the vocabulary size comes from the training split.
"""

import math

import numpy as np

from .autodiff import Tape, backward, checked, parameter
from .optim import AdamState, adam_step
from .smiles import Vocabulary, pack_batch


def xavier(rng, fan_in, fan_out):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class SmilesEncoder:
    """Runs a whole batch as one packed (rows x d) matrix.

    Every public method works on the packed layout of
    :func:`molfuse.smiles.pack_batch`: rows of all sequences laid end to
    end, with ``offsets`` marking where each sequence starts.
    """

    def __init__(self, config, vocab_size, rng):
        self.config = config
        self.vocab_size = vocab_size
        d = config.hidden_dim
        dk = d // config.num_heads
        self.token_embedding = parameter(
            rng.normal(0.0, 0.02, size=(vocab_size, d)), "lm.tok_emb"
        )
        self.position_embedding = parameter(
            rng.normal(0.0, 0.02, size=(config.max_len, d)), "lm.pos_emb"
        )
        self.layers = []
        for n in range(config.num_layers):
            # column blocks [q heads | k heads | v heads], each head drawn
            # with its own (d x dk) Xavier limit
            wqkv = np.concatenate(
                [xavier(rng, d, dk) for _ in range(3 * config.num_heads)], axis=1
            )
            layer = {
                "wqkv": parameter(wqkv, f"lm.{n}.wqkv"),
                "wo": parameter(xavier(rng, d, d), f"lm.{n}.wo"),
                "bo": parameter(np.zeros(d), f"lm.{n}.bo"),
                "ln1_g": parameter(np.ones(d), f"lm.{n}.ln1_g"),
                "ln1_b": parameter(np.zeros(d), f"lm.{n}.ln1_b"),
                "ln2_g": parameter(np.ones(d), f"lm.{n}.ln2_g"),
                "ln2_b": parameter(np.zeros(d), f"lm.{n}.ln2_b"),
                "w1": parameter(xavier(rng, d, config.ffn_dim), f"lm.{n}.w1"),
                "b1": parameter(np.zeros(config.ffn_dim), f"lm.{n}.b1"),
                "w2": parameter(xavier(rng, config.ffn_dim, d), f"lm.{n}.w2"),
                "b2": parameter(np.zeros(d), f"lm.{n}.b2"),
            }
            self.layers.append(layer)

    def parameters(self):
        params = [self.token_embedding, self.position_embedding]
        for layer in self.layers:
            params.extend(layer.values())
        return params

    def embed(self, tape, token_ids, positions=None):
        """Token embedding + learned positional embedding, (rows x d).

        ``positions`` gives each row's position within its own sequence;
        by default the rows form one sequence.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if positions is None:
            positions = np.arange(len(token_ids), dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and positions.max() >= self.config.max_len:
            raise IndexError(
                f"sequence of {positions.max() + 1} tokens exceeds max_len "
                f"{self.config.max_len}"
            )
        tok = tape.apply("gather-rows", self.token_embedding, indices=token_ids)
        pos = tape.apply("gather-rows", self.position_embedding, indices=positions)
        return tape.apply("add", tok, pos)

    def encode(self, tape, x, offsets=None, collect_attention=None):
        """Stack of self-attention + feed-forward blocks on packed rows.

        ``offsets`` delimit the sequences (default: all rows are one);
        attention stays within a sequence, everything else is row-wise.
        ``collect_attention``, when a list, receives every layer's
        per-sequence (heads x L x L) attention probabilities.
        """
        if offsets is None:
            offsets = np.array([0, x.shape[0]])
        for layer in self.layers:
            qkv = tape.apply("matmul", x, layer["wqkv"])
            ctx = tape.apply(
                "packed-attention", qkv, offsets=offsets,
                num_heads=self.config.num_heads, collect=collect_attention,
            )
            attn = tape.apply("matmul", ctx, layer["wo"], layer["bo"])
            x = tape.apply(
                "layer-normalize", attn, layer["ln1_g"], layer["ln1_b"], x
            )
            hidden = tape.apply(
                "relu", tape.apply("matmul", x, layer["w1"], layer["b1"])
            )
            ffn = tape.apply("matmul", hidden, layer["w2"], layer["b2"])
            x = tape.apply(
                "layer-normalize", ffn, layer["ln2_g"], layer["ln2_b"], x
            )
        return x

    def forward(self, tape, packed, fuse_fn=None, collect_attention=None):
        """Final hidden state of a :class:`~molfuse.smiles.PackedBatch`;
        ``fuse_fn(tape, e_in)``, if given, maps the embedded rows to the
        blocks' input (how another model's rows are injected)."""
        x = self.embed(tape, packed.token_ids, packed.positions)
        if fuse_fn is not None:
            x = fuse_fn(tape, x)
        return self.encode(tape, x, packed.offsets, collect_attention)

    def extract(self, tape, e_out, offsets, atom_rows):
        """(node embeddings, CLS embeddings) from the final hidden state.

        The CLS row of sequence i is row offsets[i]; ``atom_rows`` are the
        packed rows of the atom tokens.
        """
        cls_rows = np.asarray(offsets, dtype=np.int64)[:-1]
        atom_rows = np.asarray(atom_rows, dtype=np.int64)
        if atom_rows.size == 0:
            raise ValueError("extract: empty atom position list")
        if np.isin(atom_rows, cls_rows).any():
            raise ValueError("extract: a CLS token row is not an atom")
        nodes = tape.apply("gather-rows", e_out, indices=atom_rows)
        graph_emb = tape.apply("gather-rows", e_out, indices=cls_rows)
        return nodes, graph_emb


class PredictionHead:
    """Two-layer perceptron (in_width -> hidden -> 1) with relu between."""

    def __init__(self, in_width, hidden, rng, name="head"):
        self.in_width = in_width
        self.w1 = parameter(xavier(rng, in_width, hidden), f"{name}.w1")
        self.b1 = parameter(np.zeros(hidden), f"{name}.b1")
        self.w2 = parameter(xavier(rng, hidden, 1), f"{name}.w2")
        self.b2 = parameter(np.zeros(1), f"{name}.b2")

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2]

    def forward(self, tape, x):
        if x.shape[-1] != self.in_width:
            raise ValueError(
                f"prediction head expects width {self.in_width}, got {x.shape[-1]}"
            )
        hidden = tape.apply("relu", tape.apply("matmul", x, self.w1, self.b1))
        return tape.apply("matmul", hidden, self.w2, self.b2)


class MlmHead:
    def __init__(self, hidden_dim, vocab_size, rng):
        self.w = parameter(xavier(rng, hidden_dim, vocab_size), "mlm.w")
        self.b = parameter(np.zeros(vocab_size), "mlm.b")

    def parameters(self):
        return [self.w, self.b]


def select_mlm_positions(sequence, mask_rate, rng):
    """Indices of non-special tokens chosen for masking (Bernoulli per token)."""
    picks = []
    for pos, tid in enumerate(sequence.token_ids):
        if tid in (Vocabulary.CLS, Vocabulary.PAD, Vocabulary.MASK, Vocabulary.UNK):
            continue
        if rng.random() < mask_rate:
            picks.append(pos)
    return picks


def mlm_pretrain_step(encoder, head, state, batch, mask_rate, seed=0):
    """Mask tokens, predict the originals, take one Adam step.

    Returns the scalar loss, or None when no token was maskable (the step
    is skipped). The loss passes :func:`autodiff.checked`: a non-finite one
    raises ``FloatingPointError`` and is not stepped.
    """
    rng = np.random.default_rng(seed)
    masked = []
    for seq in batch:
        picks = select_mlm_positions(seq, mask_rate, rng)
        if picks:
            masked.append((seq, picks))
    if not masked:
        return None
    packed = pack_batch([seq for seq, _ in masked])
    rows = np.concatenate([
        packed.offsets[i] + np.asarray(picks, dtype=np.int64)
        for i, (_, picks) in enumerate(masked)
    ])
    targets = packed.token_ids[rows]
    packed.token_ids[rows] = Vocabulary.MASK

    def mlm_loss(tape):
        e_out = encoder.forward(tape, packed)
        picked = tape.apply("gather-rows", e_out, indices=rows)
        logits = tape.apply("matmul", picked, head.w, head.b)
        return tape.apply("cross-entropy-with-logits", logits, target_ids=targets)

    tape = Tape()
    loss = checked(mlm_loss, tape, "MLM loss")
    adam_step(state, backward(loss, tape))
    return float(loss.values)


def run_mlm_pretraining(encoder, train_sequences, epochs, batch_size, lr,
                        mask_rate, seed):
    """Self-contained MLM stage over the training split's sequences."""
    rng = np.random.default_rng(seed)
    head = MlmHead(encoder.config.hidden_dim, encoder.vocab_size, rng)
    state = AdamState(encoder.parameters() + head.parameters(), lr=lr)
    losses = []
    skipped = 0
    for epoch in range(epochs):
        order = list(range(len(train_sequences)))
        np.random.default_rng(seed * 1000 + epoch).shuffle(order)
        for lo in range(0, len(order), batch_size):
            batch = [train_sequences[i] for i in order[lo:lo + batch_size]]
            loss = mlm_pretrain_step(
                encoder, head, state, batch, mask_rate,
                seed=seed * 100003 + epoch * 1009 + lo,
            )
            if loss is None:
                skipped += 1
            else:
                losses.append(loss)
    return losses, skipped
