import numpy as np
import pytest

from molfuse.autodiff import Tape, backward, constant, fd_gradients, parameter
from molfuse.lm import (
    EncoderConfig,
    MlmHead,
    PredictionHead,
    SmilesEncoder,
    mlm_pretrain_step,
    run_mlm_pretraining,
)
from molfuse.optim import AdamState
from molfuse.smiles import TokenSequence, Vocabulary, pack_batch, tokenize


def small_config(**overrides):
    base = dict(vocab_size=12, hidden_dim=16, num_layers=2, num_heads=2,
                ffn_dim=24, max_len=32)
    base.update(overrides)
    return EncoderConfig(**base)


def token_sequence(ids):
    """TokenSequence over raw ids whose non-CLS tokens all count as atoms."""
    return TokenSequence(
        token_ids=list(ids),
        atom_token_positions=list(range(1, len(ids))), raw_tokens=[],
    )


@pytest.fixture
def encoder():
    return SmilesEncoder(small_config(), np.random.default_rng(0))


def zero_block_weights(enc):
    for layer in enc.layers:
        for key in ("wqkv", "wo", "bo", "w1", "b1", "w2", "b2"):
            layer[key].values[:] = 0.0


class TestEmbed:
    def test_shape(self, encoder):
        tape = Tape()
        out = encoder.embed(tape, np.arange(14) % 12)
        assert out.shape == (14, 16)

    def test_repeated_token_differs_only_by_position(self, encoder):
        tape = Tape()
        out = encoder.embed(tape, np.array([5, 5]))
        pos = encoder.position_embedding.values
        assert not np.array_equal(out.values[0], out.values[1])
        encoder.position_embedding.values[1] = pos[0]
        out2 = encoder.embed(Tape(), np.array([5, 5]))
        np.testing.assert_array_equal(out2.values[0], out2.values[1])

    def test_zero_embeddings_give_zero(self, encoder):
        encoder.token_embedding.values[:] = 0.0
        encoder.position_embedding.values[:] = 0.0
        out = encoder.embed(Tape(), np.array([1, 2, 3]))
        assert not out.values.any()

    def test_out_of_range_id(self, encoder):
        with pytest.raises(IndexError):
            encoder.embed(Tape(), np.array([99]))

    def test_over_max_len(self):
        enc = SmilesEncoder(small_config(max_len=4), np.random.default_rng(0))
        with pytest.raises(IndexError):
            enc.embed(Tape(), np.zeros(5, dtype=np.int64))


class TestEncode:
    def test_shape_preserved(self, encoder):
        tape = Tape()
        e = encoder.embed(tape, np.arange(10) % 12)
        out = encoder.encode(tape, e)
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
        e_in = encoder.embed(tape, ids)
        out = encoder.encode(tape, e_in).values

        x = e_in.values
        for _ in range(2):  # two blocks, each LN twice with unit gain
            for _ in range(2):
                mu = x.mean(axis=-1, keepdims=True)
                var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
                x = (x - mu) / np.sqrt(var + 1e-5)
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_zero_layers_identity(self):
        enc = SmilesEncoder(small_config(num_layers=0), np.random.default_rng(1))
        tape = Tape(grad_enabled=False)
        e_in = enc.embed(tape, np.array([3, 4, 5]))
        out = enc.encode(tape, e_in)
        np.testing.assert_array_equal(out.values, e_in.values)

    def test_attention_rows_are_probabilities(self, encoder):
        packed = pack_batch([token_sequence([0, 4, 5, 6]), token_sequence([0, 1])])
        attn = []
        encoder.forward(Tape(grad_enabled=False), packed, collect_attention=attn)
        # layers x sequences, each (heads x L x L)
        assert [p.shape for p in attn] == [(2, 4, 4), (2, 2, 2)] * 2
        for probs in attn:
            assert (probs >= 0).all()
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)


class TestExtract:
    def test_phenol_row_count(self, encoder):
        vocab = Vocabulary.build(["C1=CC=C(C=C1)O"])
        seq = tokenize("C1=CC=C(C=C1)O", vocab)
        enc = SmilesEncoder(small_config(vocab_size=len(vocab)),
                            np.random.default_rng(0))
        tape = Tape(grad_enabled=False)
        packed = pack_batch([seq, seq])
        e_out = enc.forward(tape, packed)
        nodes, graph_emb = enc.extract(tape, e_out, packed.offsets, packed.atom_rows)
        assert nodes.shape == (14, 16)
        np.testing.assert_array_equal(graph_emb.values[0], e_out.values[0])
        np.testing.assert_array_equal(graph_emb.values[1], e_out.values[15])

    def test_empty_positions_error(self, encoder):
        tape = Tape(grad_enabled=False)
        e_out = encoder.encode(tape, encoder.embed(tape, np.array([0, 4, 5])))
        with pytest.raises(ValueError, match="empty"):
            encoder.extract(tape, e_out, [0, 3], [])

    def test_cls_position_rejected(self, encoder):
        tape = Tape(grad_enabled=False)
        e_out = encoder.encode(tape, encoder.embed(tape, np.array([0, 4, 5])))
        with pytest.raises(ValueError, match="CLS"):
            encoder.extract(tape, e_out, [0, 3], [0, 1])


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
        cfg = small_config(vocab_size=len(vocab))
        rng = np.random.default_rng(seed)
        enc = SmilesEncoder(cfg, rng)
        head = MlmHead(cfg.hidden_dim, cfg.vocab_size, rng)
        params = enc.parameters() + head.parameters()
        state = AdamState(params, lr=0.01)
        seqs = [tokenize(s, vocab) for s in smiles_list]
        return enc, head, params, state, seqs

    def test_rate_zero_skips(self):
        enc, head, params, state, seqs = self._setup(["CCO", "CCC"])
        assert mlm_pretrain_step(enc, head, params, state, seqs, 0.0, 1) is None
        assert state.t == 0

    def test_single_token_corpus_loss_goes_to_zero(self):
        enc, head, params, state, seqs = self._setup(["C"] * 4)
        losses = [
            mlm_pretrain_step(enc, head, params, state, seqs, 1.0, seed=k)
            for k in range(120)
        ]
        assert losses[-1] < 0.05 * losses[0]
        assert losses[-1] < 0.1

    def test_descent_on_majority_of_early_steps(self):
        smiles = ["CCO", "CC(=O)O", "C1CC1", "OCC(O)CO", "CCC", "C#N"]
        enc, head, params, state, seqs = self._setup(smiles, seed=3)
        improved = 0
        trials = 10
        for k in range(trials):
            before = mlm_pretrain_step(enc, head, params, state, seqs, 0.3, seed=77)
            after_tape_loss = mlm_pretrain_step(
                enc, head, params, state, seqs, 0.3, seed=77
            )
            if after_tape_loss <= before:
                improved += 1
        assert improved > trials // 2

    def test_run_pretraining_counts_skips(self):
        enc, head, params, state, seqs = self._setup(["CCO"])
        losses, skipped = run_mlm_pretraining(
            enc, seqs, epochs=2, batch_size=2, lr=0.001, mask_rate=0.2, seed=0
        )
        assert len(losses) + skipped == 2
