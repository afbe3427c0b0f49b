import numpy as np
import pytest

from molfuse.autodiff import Tape, backward, constant, fd_gradients, parameter
from molfuse.lm import (
    MlmHead,
    PredictionHead,
    SmilesEncoder,
    mlm_pretrain_step,
    run_mlm_pretraining,
)
from molfuse.optim import AdamState
from molfuse.smiles import (
    TokenSequence,
    Vocabulary,
    pack_batch,
    tokenize,
    tokenize_raw,
)
from molfuse.training import RunConfig

from tests.conftest import encoder_attention

VOCAB_SIZE = 12


def small_config(**overrides):
    base = dict(hidden_dim=16, num_layers=2, num_heads=2, ffn_dim=24, max_len=32)
    base.update(overrides)
    return RunConfig(**base)


def token_sequence(ids):
    """TokenSequence over raw ids whose non-CLS tokens all count as atoms."""
    return TokenSequence(
        token_ids=list(ids),
        atom_token_positions=list(range(1, len(ids))),
    )


@pytest.fixture
def encoder():
    return SmilesEncoder(small_config(), VOCAB_SIZE, np.random.default_rng(0))


def zero_block_weights(enc):
    for layer in enc.layers:
        for key in ("wqkv", "wo", "bo", "w1", "b1", "w2", "b2"):
            layer[key].values[:] = 0.0


class TestEmbed:
    def test_shape(self, encoder):
        tape = Tape()
        out = encoder.embed(tape, np.arange(14) % 12, np.arange(14))
        assert out.shape == (14, 16)

    def test_repeated_token_differs_only_by_position(self, encoder):
        tape = Tape()
        out = encoder.embed(tape, np.array([5, 5]), np.array([0, 1]))
        pos = encoder.position_embedding.values
        assert not np.array_equal(out.values[0], out.values[1])
        encoder.position_embedding.values[1] = pos[0]
        out2 = encoder.embed(Tape(), np.array([5, 5]), np.array([0, 1]))
        np.testing.assert_array_equal(out2.values[0], out2.values[1])

    def test_zero_embeddings_give_zero(self, encoder):
        encoder.token_embedding.values[:] = 0.0
        encoder.position_embedding.values[:] = 0.0
        out = encoder.embed(Tape(), np.array([1, 2, 3]), np.arange(3))
        assert not out.values.any()

    def test_out_of_range_id(self, encoder):
        with pytest.raises(IndexError):
            encoder.embed(Tape(), np.array([99]), np.array([0]))

    def test_over_max_len(self):
        enc = SmilesEncoder(small_config(max_len=4), VOCAB_SIZE,
                            np.random.default_rng(0))
        with pytest.raises(IndexError):
            enc.embed(Tape(), np.zeros(5, dtype=np.int64), np.arange(5))


class TestEncode:
    def test_shape_preserved(self, encoder):
        tape = Tape()
        e = encoder.embed(tape, np.arange(10) % 12, np.arange(10))
        out = encoder.encode(tape, e, np.array([0, 10]))
        assert out.shape == (10, 16)

    def test_batch_invariance(self, encoder):
        # a sequence's rows encoded alone match the same sequence packed
        # between a shorter and a longer one
        seqs = [
            token_sequence([0, 4]),
            token_sequence([0, 4, 5, 6, 7]),
            token_sequence([0, 7, 6, 5, 4, 3, 2, 1]),
        ]
        tape = Tape(grad_enabled=False)
        alone = encoder.forward(tape, pack_batch(seqs[1:2])).values
        packed = pack_batch(seqs)
        batch = encoder.forward(tape, packed).values
        inside = batch[packed.offsets[1]:packed.offsets[2]]
        assert np.abs(inside - alone).max() <= 1e-9

    def test_zero_weights_leaves_layernorm_composition(self, encoder):
        zero_block_weights(encoder)
        ids = np.array([1, 2, 3, 4])
        tape = Tape(grad_enabled=False)
        e_in = encoder.embed(tape, ids, np.arange(4))
        out = encoder.encode(tape, e_in, np.array([0, 4])).values

        x = e_in.values
        for _ in range(2):  # two blocks, each LN twice with unit gain
            for _ in range(2):
                mu = x.mean(axis=-1, keepdims=True)
                var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
                x = (x - mu) / np.sqrt(var + 1e-5)
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_zero_layers_identity(self):
        enc = SmilesEncoder(small_config(num_layers=0), VOCAB_SIZE,
                            np.random.default_rng(1))
        tape = Tape(grad_enabled=False)
        e_in = enc.embed(tape, np.array([3, 4, 5]), np.arange(3))
        out = enc.encode(tape, e_in, np.array([0, 3]))
        np.testing.assert_array_equal(out.values, e_in.values)

    def test_attention_rows_are_probabilities(self, encoder):
        packed = pack_batch([token_sequence([0, 4, 5, 6]), token_sequence([0, 1])])
        attn = encoder_attention(encoder, packed)
        # layers x sequences, each (heads x L x L)
        assert [p.shape for p in attn] == [(2, 4, 4), (2, 2, 2)] * 2
        for probs in attn:
            assert (probs >= 0).all()
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)


class TestExtract:
    def test_phenol_row_count(self, encoder):
        vocab = Vocabulary.build(["C1=CC=C(C=C1)O"])
        seq = tokenize(tokenize_raw("C1=CC=C(C=C1)O"), vocab)
        enc = SmilesEncoder(small_config(), len(vocab),
                            np.random.default_rng(0))
        tape = Tape(grad_enabled=False)
        packed = pack_batch([seq, seq])
        e_out = enc.forward(tape, packed)
        nodes = enc.forward(tape, packed, packed.atom_rows)
        graph_emb = enc.forward(tape, packed, packed.offsets[:-1])
        assert nodes.shape == (14, 16)
        np.testing.assert_array_equal(graph_emb.values[0], e_out.values[0])
        np.testing.assert_array_equal(graph_emb.values[1], e_out.values[15])


ROW_SEQS = [
    token_sequence([0, 4, 5, 6]),
    token_sequence([0, 1]),
    token_sequence([0, 7, 6, 5, 4, 3]),
]


def row_reads(packed):
    """The row lists the callers read: CLS rows, atom rows and a
    scattered list out of order."""
    return {
        "cls": packed.offsets[:-1],
        "atoms": packed.atom_rows,
        "scattered": np.array([9, 0, 5, 11, 2]),
    }


def projection(rng):
    """A ``fuse_fn`` that maps the embedded rows through a fixed matrix."""
    proj = constant(rng.normal(size=(16, 16)))
    return lambda tape, e_in: tape.apply("matmul", e_in, proj)


class TestRows:
    @pytest.mark.parametrize("num_layers", [0, 1, 3])
    @pytest.mark.parametrize("fused", [False, True])
    def test_rows_equal_the_full_output_gathered_bitwise(self, num_layers, fused):
        enc = SmilesEncoder(small_config(num_layers=num_layers), VOCAB_SIZE,
                            np.random.default_rng(3))
        fuse_fn = projection(np.random.default_rng(4)) if fused else None
        packed = pack_batch(ROW_SEQS)
        tape = Tape(grad_enabled=False)
        full = enc.forward(tape, packed, fuse_fn=fuse_fn).values
        for name, rows in row_reads(packed).items():
            got = enc.forward(tape, packed, rows, fuse_fn=fuse_fn).values
            assert np.array_equal(got, full[rows]), name

    def test_last_block_row_wise_half_sees_only_the_rows(self, monkeypatch):
        from molfuse import autodiff

        seen = []
        for kind in ("matmul", "layer-normalize"):
            real = autodiff._OPS[kind]

            def spy(inputs, kwargs, real=real):
                # the second input is the weight or the norm's gain
                seen.append((inputs[1].name, inputs[0].shape[0]))
                return real(inputs, kwargs)

            monkeypatch.setitem(autodiff._OPS, kind, spy)
        enc = SmilesEncoder(small_config(num_layers=3), VOCAB_SIZE,
                            np.random.default_rng(3))
        packed = pack_batch(ROW_SEQS)
        total = len(packed.token_ids)
        rows = row_reads(packed)["scattered"]
        enc.forward(Tape(), packed, rows)
        want = []
        for n in range(3):
            last = n == 2
            want.append((f"lm.{n}.wqkv", total))
            want += [(f"lm.{n}.{w}", len(rows) if last else total)
                     for w in ("wo", "ln1_g", "w1", "w2", "ln2_g")]
        assert seen == want

    def test_every_subset_read_goes_through_extract(self, monkeypatch):
        calls = []
        real = SmilesEncoder.extract

        def spy(self, tape, state, rows):
            calls.append(len(rows))
            return real(self, tape, state, rows)

        monkeypatch.setattr(SmilesEncoder, "extract", spy)
        packed = pack_batch(ROW_SEQS)
        for num_layers in (0, 2):
            enc = SmilesEncoder(small_config(num_layers=num_layers), VOCAB_SIZE,
                                np.random.default_rng(3))
            enc.forward(Tape(), packed)
            assert calls == []
            enc.forward(Tape(), packed, packed.offsets[:-1])
            # the last block gathers its context and its residual
            assert calls == [3] * (2 if num_layers else 1)
            calls.clear()

    def test_gradients_match_the_full_output_gathered(self):
        enc = SmilesEncoder(small_config(num_layers=2), VOCAB_SIZE,
                            np.random.default_rng(5))
        packed = pack_batch(ROW_SEQS)
        rows = row_reads(packed)["atoms"]
        weights = constant(np.random.default_rng(6).normal(size=(len(rows), 16)))

        def grads(read):
            tape = Tape()
            out = read(tape)
            loss = tape.apply("multiply", out, weights)
            for _ in range(2):  # over rows, then over columns
                loss = tape.apply("sum-over-rows", loss)
            got = backward(loss, tape)
            return [got[p.node_id] for p in enc.parameters()]

        subset = grads(lambda tape: enc.forward(tape, packed, rows))
        gathered = grads(lambda tape: tape.apply(
            "gather-rows", enc.forward(tape, packed), indices=rows))
        for a, b in zip(subset, gathered):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-14)


class TestPredictionHead:
    def test_zero_weights_output_is_bias(self):
        head = PredictionHead(16, 16, np.random.default_rng(0))
        head.w1.values[:] = 0
        head.w2.values[:] = 0
        head.b2.values[:] = 3.5
        out = head.forward(Tape(), constant(np.random.default_rng(1).normal(size=(4, 16))))
        np.testing.assert_array_equal(out.values, np.full((4, 1), 3.5))

    def test_width_mismatch_names_expected(self):
        head = PredictionHead(32, 16, np.random.default_rng(0))
        with pytest.raises(ValueError, match="32"):
            head.forward(Tape(), constant(np.ones((2, 16))))

    def test_double_width_accepted(self):
        head = PredictionHead(32, 16, np.random.default_rng(0))
        out = head.forward(Tape(), constant(np.ones((2, 32))))
        assert out.shape == (2, 1)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(2)
        head = PredictionHead(8, 8, rng)
        g = parameter(rng.normal(size=(3, 8)))

        def run():
            tape = Tape()
            out = head.forward(tape, g)
            s = tape.apply("sum-over-rows", out)
            return tape.apply("sum-over-rows", s), tape

        loss, tape = run()
        grads = backward(loss, tape)
        numeric = fd_gradients(lambda: run()[0].values, [g])[0]
        ana = grads[g.node_id]
        denom = np.maximum(np.abs(ana), np.maximum(np.abs(numeric), 1e-3))
        assert (np.abs(ana - numeric) / denom).max() < 1e-4


class TestMlm:
    def _setup(self, smiles_list, seed=0):
        vocab = Vocabulary.build(smiles_list)
        cfg = small_config()
        rng = np.random.default_rng(seed)
        enc = SmilesEncoder(cfg, len(vocab), rng)
        head = MlmHead(cfg.hidden_dim, len(vocab), rng)
        state = AdamState(enc.parameters() + head.parameters(), lr=0.01)
        seqs = [tokenize(tokenize_raw(s), vocab) for s in smiles_list]
        return enc, head, state, seqs

    def test_rate_zero_skips(self):
        enc, head, state, seqs = self._setup(["CCO", "CCC"])
        assert mlm_pretrain_step(enc, head, state, seqs, 0.0, 1) is None
        assert state.t == 0

    def test_single_token_corpus_loss_goes_to_zero(self):
        enc, head, state, seqs = self._setup(["C"] * 4)
        losses = [
            mlm_pretrain_step(enc, head, state, seqs, 1.0, seed=k)
            for k in range(120)
        ]
        assert losses[-1] < 0.05 * losses[0]
        assert losses[-1] < 0.1

    def test_descent_on_majority_of_early_steps(self):
        smiles = ["CCO", "CC(=O)O", "C1CC1", "OCC(O)CO", "CCC", "C#N"]
        enc, head, state, seqs = self._setup(smiles, seed=3)
        improved = 0
        trials = 10
        for k in range(trials):
            before = mlm_pretrain_step(enc, head, state, seqs, 0.3, seed=77)
            after_tape_loss = mlm_pretrain_step(
                enc, head, state, seqs, 0.3, seed=77
            )
            if after_tape_loss <= before:
                improved += 1
        assert improved > trials // 2

    def test_run_pretraining_counts_skips(self):
        enc, head, state, seqs = self._setup(["CCO"])
        losses, skipped = run_mlm_pretraining(
            enc, seqs, epochs=2, batch_size=2, lr=0.001, mask_rate=0.2, seed=0
        )
        assert len(losses) + skipped == 2
