"""Transformer encoder over SMILES tokens with an optional MLM stage.

``SmilesEncoder.forward`` is the one entry point of all seven strategies
and of the MLM stage. It returns the final hidden state of the rows its
caller reads: the CLS rows (sequence-level embeddings) for the wirings
that read one row per molecule, the atom rows (node embeddings) for
node-level contrast and ``lm2mpnn``, the masked rows for the MLM stage,
and every row for ``mpnn2lm``'s mean pool.
Blocks are post-layer-norm: x = LN(x + attention(x)); x = LN(x + ffn(x)).
A batch runs as one packed matrix of all its token rows; attention is
computed per sequence, so no row sees another sequence and none is padded.
Every row is a key and a value of the last block's attention, but only
the rows read go through its row-wise half (output projection, both
layer norms and the FFN).
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

    def embed(self, tape, token_ids, positions):
        """Token embedding + learned positional embedding, (rows x d);
        ``positions`` gives each row's position within its own sequence."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and positions.max() >= self.config.max_len:
            raise IndexError(
                f"sequence of {positions.max() + 1} tokens exceeds max_len "
                f"{self.config.max_len}"
            )
        tok = tape.apply("gather-rows", self.token_embedding, indices=token_ids)
        pos = tape.apply("gather-rows", self.position_embedding, indices=positions)
        return tape.apply("add", tok, pos)

    def encode(self, tape, x, offsets, rows=None):
        """Stack of self-attention + feed-forward blocks on packed rows.

        ``offsets`` delimit the sequences; attention stays within a
        sequence, everything else is row-wise. With ``rows``, only those
        rows' final state is computed and returned, in the order given:
        the last block attends over every row, since every row is a key
        and a value, and runs its row-wise half on ``rows`` alone.
        """
        if rows is not None and not self.layers:
            return self.extract(tape, x, rows)
        for n, layer in enumerate(self.layers, 1):
            qkv = tape.apply("matmul", x, layer["wqkv"])
            ctx = tape.apply(
                "packed-attention", qkv, offsets=offsets,
                num_heads=self.config.num_heads,
            )
            if rows is not None and n == len(self.layers):
                ctx, x = self.extract(tape, ctx, rows), self.extract(tape, x, rows)
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

    def forward(self, tape, packed, rows=None, fuse_fn=None):
        """Final hidden state of ``rows`` of a
        :class:`~molfuse.smiles.PackedBatch`, in the order given, or of
        every row when ``rows`` is None; ``fuse_fn(tape, e_in)``, if given,
        maps the embedded rows to the blocks' input (how another model's
        rows are injected)."""
        x = self.embed(tape, packed.token_ids, packed.positions)
        if fuse_fn is not None:
            x = fuse_fn(tape, x)
        return self.encode(tape, x, packed.offsets, rows)

    def extract(self, tape, state, rows):
        """``rows`` of a packed state, in the order given: the one gather
        behind every read of a subset of the encoder's rows."""
        return tape.apply("gather-rows", state, indices=rows)


class PredictionHead:
    """Two-layer perceptron (in_width -> hidden -> 1) with relu between."""

    def __init__(self, in_width, hidden, rng):
        self.in_width = in_width
        self.w1 = parameter(xavier(rng, in_width, hidden), "head.w1")
        self.b1 = parameter(np.zeros(hidden), "head.b1")
        self.w2 = parameter(xavier(rng, hidden, 1), "head.w2")
        self.b2 = parameter(np.zeros(1), "head.b2")

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
        picked = encoder.forward(tape, packed, rows)
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
