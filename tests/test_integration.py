import math

import numpy as np
import pytest

from molfuse.autodiff import Tape, backward, constant, fd_gradients
from molfuse.gnn import GraphBatch
from molfuse.integration import (
    FUSION_OPS,
    STRATEGIES,
    EncodedMolecule,
    IntegratedModel,
    TripleBatch,
    build_triples,
    derangement,
    fuse,
    triplet_loss,
)
from molfuse.optim import AdamState
from molfuse.smiles import Vocabulary, pack_batch, parse, tokenize, tokenize_raw
from molfuse.training import RunConfig

from tests.conftest import CURATED_CORPUS, triples

VOCAB = Vocabulary.build([s for s, *_ in CURATED_CORPUS])


def tiny_model(strategy, seed=0, fusion="sum", task="regression", **overrides):
    config = RunConfig(
        strategy=strategy, fusion=fusion, task=task, hidden_dim=8,
        num_layers=1, num_heads=2, ffn_dim=12, max_len=64, message_steps=2,
        edge_hidden=6, **overrides,
    )
    return IntegratedModel(config, len(VOCAB), seed)


def mols_for(smiles_list, labels=None):
    labels = labels if labels is not None else [0.5] * len(smiles_list)
    return [
        EncodedMolecule(parse(s), tokenize(tokenize_raw(s), VOCAB), y)
        for s, y in zip(smiles_list, labels)
    ]


def brute_force_triplet_total(triples, margin):
    """Independent per-triple loop over materialized vectors."""
    losses = []
    for a, p, n in triples:
        dp = np.sqrt(((a - p) * (a - p)).sum())
        dn = np.sqrt(((a - n) * (a - n)).sum())
        losses.append(max(dp - dn + margin, 0.0))
    return np.asarray(losses).sum()


def chunked_triplet_total(triples, margin, chunk):
    """Eq-style double sum over chunks of size `chunk` (python floats)."""
    hinges = []
    for a, p, n in triples:
        dp = np.sqrt(((a - p) * (a - p)).sum())
        dn = np.sqrt(((a - n) * (a - n)).sum())
        hinges.append(max(float(dp - dn + margin), 0.0))
    total = 0.0
    n_chunks = math.ceil(len(hinges) / chunk) if hinges else 0
    for i in range(n_chunks):
        for j in range(chunk):
            k = chunk * i + j
            if k < len(hinges):
                total += hinges[k]
    return total


class TestBuildTriples:
    def test_two_node_graph_swaps(self):
        lm = np.zeros((2, 4))
        mp = np.arange(8.0).reshape(2, 4)
        tb = build_triples(lm, mp, [0, 2], seed=1)
        mat = triples(tb, lm, mp)
        np.testing.assert_array_equal(mat[0][2], mp[1])
        np.testing.assert_array_equal(mat[1][2], mp[0])

    def test_same_seed_same_permutation(self):
        lm = np.zeros((5, 3))
        mp = np.zeros((5, 3))
        a = build_triples(lm, mp, [0, 5], seed=7)
        b = build_triples(lm, mp, [0, 5], seed=7)
        np.testing.assert_array_equal(a.neg_idx, b.neg_idx)

    def test_thousand_draws_never_fixed_point(self):
        lm = np.zeros((4, 2))
        mp = np.zeros((4, 2))
        for seed in range(1000):
            tb = build_triples(lm, mp, [0, 4], seed=seed)
            assert (tb.neg_idx != tb.anchor_idx).all()

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            build_triples(np.zeros((3, 2)), np.zeros((4, 2)), [0, 3], seed=0)

    def test_single_node_graph_borrows_neighbor_graph(self):
        lm = np.zeros((4, 2))
        mp = np.zeros((4, 2))
        for seed in range(50):
            tb = build_triples(lm, mp, [0, 1, 4], seed=seed)
            assert tb.skipped == 0
            first = tb.neg_idx[tb.anchor_idx == 0]
            assert first[0] in (1, 2, 3)

    def test_lone_single_node_graph_skipped(self):
        tb = build_triples(np.zeros((1, 2)), np.zeros((1, 2)), [0, 1], seed=0)
        assert len(tb) == 0 and tb.skipped == 1

    def test_cross_graph_mode_is_whole_batch_derangement(self):
        # graph-level contrast passes the batch as one segment: the
        # negatives are one derangement of all its rows, drawn first from
        # the seed's generator
        lm = np.zeros((6, 2))
        mp = np.zeros((6, 2))
        tb = build_triples(lm, mp, [0, 6], seed=3)
        np.testing.assert_array_equal(tb.anchor_idx, np.arange(6))
        want = derangement(6, np.random.default_rng(3))
        np.testing.assert_array_equal(tb.neg_idx, want)
        assert tb.neg_idx.dtype == np.int64 and tb.skipped == 0

    def test_derangement_uniform_support(self):
        rng = np.random.default_rng(0)
        seen = {tuple(derangement(3, rng)) for _ in range(200)}
        assert seen == {(1, 2, 0), (2, 0, 1)}


class TestTripletLoss:
    def _loss(self, a, p, n, margin=1.0):
        tape = Tape()
        anchors = constant(np.atleast_2d(a))
        positives = constant(np.atleast_2d(np.vstack([p, n])))
        tb = TripleBatch(np.array([0]), np.array([1]))
        return triplet_loss(tape, anchors, positives, tb, margin).values

    def test_zero_when_anchor_equals_positive_far_negative(self):
        assert self._loss([0.0, 0.0], [0.0, 0.0], [1.0, 0.0]) == 0.0

    def test_unit_when_positive_equals_negative(self):
        assert self._loss([0.0, 0.0], [1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_matches_brute_force_on_100_random_batches(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n_graphs = int(rng.integers(1, 5))
            sizes = rng.integers(2, 6, size=n_graphs)
            offsets = np.concatenate([[0], np.cumsum(sizes)])
            total = int(offsets[-1])
            d = int(rng.integers(2, 8))
            lm = rng.normal(size=(total, d))
            mp = rng.normal(size=(total, d))
            tb = build_triples(lm, mp, offsets, seed=int(rng.integers(1 << 30)))
            got = triplet_loss(
                Tape(), constant(lm), constant(mp), tb, 1.0
            ).values
            want = brute_force_triplet_total(triples(tb, lm, mp), 1.0)
            assert float(got) == float(want)

    def test_chunking_identity_k_1_2_n(self):
        rng = np.random.default_rng(9)
        lm = rng.normal(size=(12, 5))
        mp = rng.normal(size=(12, 5))
        tb = build_triples(lm, mp, [0, 4, 9, 12], seed=4)
        mat = triples(tb, lm, mp)
        flat = chunked_triplet_total(mat, 1.0, chunk=len(mat))
        assert chunked_triplet_total(mat, 1.0, chunk=1) == flat
        assert chunked_triplet_total(mat, 1.0, chunk=2) == flat
        got = triplet_loss(
            Tape(), constant(lm), constant(mp), tb, 1.0
        ).values
        assert float(got) == pytest.approx(flat, rel=1e-12)

    def test_nonnegative_and_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            lm = rng.uniform(-2, 2, size=(8, 4))
            mp = rng.uniform(-2, 2, size=(8, 4))
            tb = build_triples(lm, mp, [0, 8], seed=int(rng.integers(1 << 30)))
            val = float(
                triplet_loss(
                    Tape(), constant(lm), constant(mp), tb, 1.0
                ).values
            )
            assert val >= 0.0
            max_dp = max(
                np.sqrt(((a - p) ** 2).sum()) for a, p, _ in triples(tb, lm, mp)
            )
            assert val <= len(tb) * (1.0 + max_dp) + 1e-12

    def test_empty_triples_zero(self):
        tb = TripleBatch(np.empty(0, np.int64), np.empty(0, np.int64), skipped=1)
        out = triplet_loss(
            Tape(), constant(np.zeros((1, 2))), constant(np.zeros((1, 2))),
            tb, 1.0,
        )
        assert out.values == 0.0


class TestFuse:
    def test_sum(self):
        out = fuse(Tape(), constant([[1.0, 2.0]]), constant([[3.0, 4.0]]), "sum")
        np.testing.assert_array_equal(out.values, [[4.0, 6.0]])

    def test_max(self):
        out = fuse(Tape(), constant([[1.0, 5.0]]), constant([[4.0, 2.0]]), "max")
        np.testing.assert_array_equal(out.values, [[4.0, 5.0]])

    def test_gate_zero_params_averages(self):
        rng = np.random.default_rng(0)
        h1, h2 = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        gate = (constant(np.zeros((8, 4))), constant(np.zeros(4)))
        out = fuse(Tape(), constant(h1), constant(h2), "gate", gate)
        np.testing.assert_allclose(out.values, 0.5 * h1 + 0.5 * h2, atol=1e-15)

    def test_concat_width(self):
        out = fuse(Tape(), constant(np.ones((2, 4))), constant(np.zeros((2, 4))),
                   "concat")
        assert out.shape == (2, 8)

    def test_sum_and_max_commute_concat_does_not(self):
        rng = np.random.default_rng(1)
        h1, h2 = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        for op in ("sum", "max"):
            ab = fuse(Tape(), constant(h1), constant(h2), op).values
            ba = fuse(Tape(), constant(h2), constant(h1), op).values
            np.testing.assert_array_equal(ab, ba)
        ab = fuse(Tape(), constant(h1), constant(h2), "concat").values
        ba = fuse(Tape(), constant(h2), constant(h1), "concat").values
        assert not np.array_equal(ab, ba)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            fuse(Tape(), constant(np.ones((2, 3))), constant(np.ones((3, 2))), "sum")


def encoder_rows(model, tape, mols, which):
    """The encoder's final ``which`` rows ("atoms" or "cls") of ``mols``."""
    packed = pack_batch([m.tokens for m in mols])
    rows = packed.atom_rows if which == "atoms" else packed.offsets[:-1]
    return model.encoder.forward(tape, packed, rows)


def zero_mpnn_input(model):
    model.gnn.w_in.values[:] = 0.0
    model.gnn.b_in.values[:] = 0.0


class TestContrastStrategies:
    def test_alpha_zero_reduces_to_prediction_loss_bitwise(self):
        model = tiny_model("contrast-node", alpha=0.0)
        mols = mols_for(["CCO", "C1CC1"], [0.3, -0.8])
        tape = Tape()
        total, preds, _ = model.forward_batch(tape, mols, batch_seed=5)

        ref_tape = Tape()
        gb = GraphBatch.from_graphs([m.graph for m in mols])
        lm_nodes = encoder_rows(model, ref_tape, mols, "atoms")
        per_graph = ref_tape.apply("segment-mean", lm_nodes, offsets=gb.offsets)
        ref_preds = model.head.forward(ref_tape, per_graph)
        ref_loss = model._prediction_loss(
            ref_tape, ref_preds, np.array([0.3, -0.8])
        )
        assert float(total.values) == float(ref_loss.values)
        np.testing.assert_array_equal(preds.values, ref_preds.values)

    def test_graph_alpha_zero_equals_lm_baseline_bitwise(self):
        contrast = tiny_model("contrast-graph", seed=3, alpha=0.0)
        baseline = tiny_model("lm-baseline", seed=3)
        mols = mols_for(["CCO", "CC(=O)O", "C#N"], [0.1, 0.2, 0.3])
        loss_c, preds_c, _ = contrast.forward_batch(Tape(), mols, batch_seed=1)
        loss_b, preds_b, _ = baseline.forward_batch(Tape(), mols, batch_seed=1)
        assert float(loss_c.values) == float(loss_b.values)
        np.testing.assert_array_equal(preds_c.values, preds_b.values)

    def test_node_total_matches_oracle(self):
        model = tiny_model("contrast-node", alpha=0.1)
        mols = mols_for(["CCO", "C1CC1", "CC(=O)O"], [0.3, -0.8, 1.1])
        gb = GraphBatch.from_graphs([m.graph for m in mols])
        tape = Tape()
        total, _, _ = model.forward_batch(tape, mols, batch_seed=17)

        ref_tape = Tape()
        lm_nodes = encoder_rows(model, ref_tape, mols, "atoms")
        per_graph = ref_tape.apply("segment-mean", lm_nodes, offsets=gb.offsets)
        ref_preds = model.head.forward(ref_tape, per_graph)
        pred_loss = float(
            model._prediction_loss(
                ref_tape, ref_preds, np.array([0.3, -0.8, 1.1])
            ).values
        )
        mpnn_states = model.gnn.run(ref_tape, gb)
        tb = build_triples(lm_nodes, mpnn_states, gb.offsets, 17)
        trip = brute_force_triplet_total(
            triples(tb, lm_nodes.values, mpnn_states.values), 1.0
        )
        assert float(total.values) == pytest.approx(pred_loss + 0.1 * trip, rel=1e-12)

    def test_graph_batch_of_two_uses_swap(self):
        model = tiny_model("contrast-graph", alpha=0.5)
        mols = mols_for(["CCO", "C1CC1"], [0.0, 1.0])
        tape = Tape()
        total, preds, info = model.forward_batch(tape, mols, batch_seed=2)
        gb = GraphBatch.from_graphs([m.graph for m in mols])
        ref_tape = Tape()
        cls_rows = encoder_rows(model, ref_tape, mols, "cls")
        pooled = model._mpnn_readout(ref_tape, gb)
        pred_loss = float(
            model._prediction_loss(
                ref_tape, model.head.forward(ref_tape, cls_rows),
                np.array([0.0, 1.0]),
            ).values
        )
        # only derangement of size 2 is the swap
        tb = TripleBatch(np.array([0, 1]), np.array([1, 0]))
        trip = brute_force_triplet_total(
            triples(tb, cls_rows.values, pooled.values), 1.0
        )
        assert float(total.values) == pytest.approx(pred_loss + 0.5 * trip, rel=1e-12)

    def test_single_graph_batch_skips_contrast(self):
        model = tiny_model("contrast-graph")
        mols = mols_for(["CCO"])
        loss, _, info = model.forward_batch(Tape(), mols, batch_seed=0)
        assert info["skipped_triples"] == 1
        assert np.isfinite(loss.values)

    @pytest.mark.parametrize("batch_seed", [0, 1, 7, 12345])
    def test_graph_negatives_are_the_batch_derangement(self, monkeypatch, batch_seed):
        # the triples drawn equal a derangement of the batch from the
        # batch seed's own generator, as drawn before both levels shared
        # build_triples
        from molfuse import integration

        drawn = []

        def spy(*args, **kwargs):
            drawn.append(build_triples(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(integration, "build_triples", spy)
        model = tiny_model("contrast-graph")
        mols = mols_for(["CCO", "C1CC1", "CC(=O)O", "C#N", "CN"])
        model.forward_batch(Tape(), mols, batch_seed=batch_seed)
        (triples,) = drawn
        want = derangement(len(mols), np.random.default_rng(batch_seed))
        np.testing.assert_array_equal(triples.anchor_idx, np.arange(len(mols)))
        np.testing.assert_array_equal(triples.neg_idx, want)
        assert triples.skipped == 0

    def test_frozen_mpnn_blocks_gnn_gradients(self):
        model = tiny_model("contrast-node", alpha=1.0, frozen_mpnn=True)
        mols = mols_for(["CCO", "C1CC1"])
        tape = Tape()
        loss, _, _ = model.forward_batch(tape, mols, batch_seed=3)
        grads = backward(loss, tape)
        gnn_grads = [grads.get(p.node_id) for p in model.gnn.parameters()]
        assert all(g is None or not g.any() for g in gnn_grads)

    @pytest.mark.parametrize(
        "strategy", [s for s in STRATEGIES if s != "lm-baseline"])
    def test_frozen_mpnn_stays_off_the_tape(self, strategy):
        model = tiny_model(strategy, frozen_mpnn=True)
        tape = Tape()
        model.forward_batch(tape, mols_for(["CCO", "C1CC1"]), batch_seed=3)
        gnn_ids = {p.node_id for p in model.gnn.parameters()}
        assert gnn_ids and not gnn_ids & set(tape.watched)
        stepped = {p.node_id for p in AdamState(model.parameters()).params}
        assert not gnn_ids & stepped

    def test_encoder_trains_through_a_frozen_lm2mpnn_message_passer(self):
        # the injected encoder rows are recorded through the frozen steps
        model = tiny_model("lm2mpnn", frozen_mpnn=True)
        tape = Tape()
        loss, _, _ = model.forward_batch(
            tape, mols_for(["CCO", "C1CC1"]), batch_seed=3)
        grads = backward(loss, tape)
        embedding = model.encoder.token_embedding
        assert grads[embedding.node_id].any()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_predict_only_builds_no_loss(strategy, monkeypatch):
    model = tiny_model(strategy)
    mols = mols_for(["CCO", "C1CC1", "CC(=O)O"], [0.3, -0.8, 1.1])
    loss, preds, _ = model.forward_batch(Tape(), mols, batch_seed=4)
    assert loss is not None

    def no_loss(*args):
        raise AssertionError("predict_only built a loss")

    monkeypatch.setattr(model, "_prediction_loss", no_loss)
    none, only, _ = model.forward_batch(Tape(), mols, batch_seed=4, predict_only=True)
    assert none is None
    np.testing.assert_array_equal(only.values, preds.values)


class TestLateFusion:
    def test_zero_mpnn_sum_equals_lm_head_path(self):
        model = tiny_model("late-fusion", fusion="sum")
        zero_mpnn_input(model)
        mols = mols_for(["CCO", "CC(=O)O"])
        tape = Tape()
        _, preds, _ = model.forward_batch(tape, mols, batch_seed=0)
        ref_tape = Tape()
        cls_rows = encoder_rows(model, ref_tape, mols, "cls")
        ref = model.head.forward(ref_tape, cls_rows)
        np.testing.assert_array_equal(preds.values, ref.values)

    def test_concat_doubles_head_width(self):
        model = tiny_model("late-fusion", fusion="concat")
        assert model.head.in_width == 16
        mols = mols_for(["CCO", "C"])
        loss, preds, _ = model.forward_batch(Tape(), mols, batch_seed=0)
        assert preds.shape == (2, 1) and np.isfinite(loss.values)

    def test_gradient_vs_fd_two_molecule_batch(self):
        model = tiny_model("late-fusion", fusion="gate")
        mols = mols_for(["CCO", "C1CC1"], [0.5, -0.5])
        params = model.parameters()

        def run():
            tape = Tape()
            loss, _, _ = model.forward_batch(tape, mols, batch_seed=0)
            return loss, tape

        loss, tape = run()
        grads = backward(loss, tape)
        numeric = fd_gradients(lambda: run()[0].values, params)
        for p, num in zip(params, numeric):
            ana = grads[p.node_id]
            denom = np.maximum(np.abs(ana), np.maximum(np.abs(num), 1e-3))
            assert (np.abs(ana - num) / denom).max() < 1e-4, p.name


class TestMpnn2Lm:
    def test_zero_states_match_baseline_encoder_bitwise(self):
        model = tiny_model("mpnn2lm", fusion="sum")
        zero_mpnn_input(model)
        mols = mols_for(["CC(=O)O", "C1CC1"])
        gb = GraphBatch.from_graphs([m.graph for m in mols])
        tape = Tape(grad_enabled=False)
        states = model.gnn.run(tape, gb)
        assert not states.values.any()  # exactly zero
        preds = model._forward_mpnn2lm(tape, mols, gb, states)

        packed = pack_batch([m.tokens for m in mols])
        ref_tape = Tape(grad_enabled=False)
        e_out = model.encoder.forward(ref_tape, packed)
        inj_tape = Tape(grad_enabled=False)
        e_in = model.encoder.embed(inj_tape, packed.token_ids, packed.positions)
        e_out_inj = model.encoder.encode(
            inj_tape,
            inj_tape.apply("add", e_in, constant(np.zeros(e_in.shape))),
            packed.offsets,
        )
        np.testing.assert_array_equal(e_out_inj.values, e_out.values)
        pooled = ref_tape.apply("segment-mean", e_out, offsets=packed.offsets)
        ref = model.head.forward(ref_tape, pooled)
        np.testing.assert_array_equal(preds.values, ref.values)

    def test_non_atom_rows_get_zero_injection(self):
        model = tiny_model("mpnn2lm")
        mols = mols_for(["C1=CC=C(C=C1)O"])
        gb = GraphBatch.from_graphs([m.graph for m in mols])
        tape = Tape(grad_enabled=False)
        states = model.gnn.run(tape, gb)
        seq = mols[0].tokens
        injected = tape.apply(
            "scatter-add-rows", states,
            indices=np.asarray(seq.atom_token_positions),
            num_rows=len(seq.token_ids),
        )
        non_atom = sorted(
            set(range(len(seq.token_ids))) - set(seq.atom_token_positions)
        )
        assert (injected.values[non_atom] == 0).all()
        assert injected.values[seq.atom_token_positions].any()

    def test_batch_invariance_after_injection(self):
        # CCO's pooled encoder output alone and packed between a shorter
        # and a longer molecule, with message-passer states injected
        model = tiny_model("mpnn2lm")

        def pooled(smiles):
            mols = mols_for(smiles)
            gb = GraphBatch.from_graphs([m.graph for m in mols])
            tape = Tape(grad_enabled=False)
            states = model.gnn.run(tape, gb)
            packed = pack_batch([m.tokens for m in mols])
            injected = tape.apply(
                "scatter-add-rows", states, indices=packed.atom_rows,
                num_rows=len(packed.token_ids),
            )
            e_in = model.encoder.embed(tape, packed.token_ids, packed.positions)
            fused = fuse(tape, e_in, injected, "sum")
            e_out = model.encoder.encode(tape, fused, packed.offsets)
            return tape.apply("segment-mean", e_out, offsets=packed.offsets).values

        alone = pooled(["CCO"])[0]
        batch = pooled(["C", "CCO", "C1=CC=C(C=C1)O"])[1]
        assert np.abs(alone - batch).max() <= 1e-9

    def test_concat_projection_keeps_width(self):
        model = tiny_model("mpnn2lm", fusion="concat")
        mols = mols_for(["CCO", "C"])
        loss, preds, _ = model.forward_batch(Tape(), mols, batch_seed=0)
        assert preds.shape == (2, 1) and np.isfinite(loss.values)


class TestLm2Mpnn:
    def test_zero_lm_rows_equal_mpnn_baseline_bitwise(self):
        model = tiny_model("lm2mpnn", fusion="sum")
        mols = mols_for(["CC(=O)O", "C1CC1"])
        gb = GraphBatch.from_graphs([m.graph for m in mols])
        tape = Tape(grad_enabled=False)
        preds = model._forward_lm2mpnn(
            tape, gb, constant(np.zeros((gb.num_nodes, 8)))
        )
        ref_tape = Tape(grad_enabled=False)
        pooled = model._mpnn_readout(ref_tape, gb)
        ref = model.head.forward(ref_tape, pooled)
        np.testing.assert_array_equal(preds.values, ref.values)

    def test_two_node_identity_message_hand_evaluation(self):
        model = tiny_model("lm2mpnn", fusion="sum")
        d = 8
        model.gnn.we1.values[:] = 0.0
        model.gnn.be1.values[:] = 0.0
        model.gnn.we2.values[:] = 0.0
        model.gnn.be2.values[:] = np.eye(d).reshape(-1)
        mols = mols_for(["CO"])
        gb = GraphBatch.from_graphs([m.graph for m in mols])
        rng = np.random.default_rng(5)
        h = rng.normal(size=(2, d))
        lmm = rng.normal(size=(2, d))
        tape = Tape(grad_enabled=False)
        fused = fuse(tape, constant(h), constant(lmm), "sum")
        m = model.gnn._message_operator(tape, gb)(tape, fused)
        np.testing.assert_allclose(m.values[0], h[1] + lmm[1], rtol=1e-15)
        np.testing.assert_allclose(m.values[1], h[0] + lmm[0], rtol=1e-15)

    def test_gradient_vs_fd_one_molecule(self):
        model = tiny_model("lm2mpnn", fusion="sum")
        mols = mols_for(["CCO"], [0.7])
        params = model.parameters()

        def run():
            tape = Tape()
            loss, _, _ = model.forward_batch(tape, mols, batch_seed=0)
            return loss, tape

        loss, tape = run()
        grads = backward(loss, tape)
        numeric = fd_gradients(lambda: run()[0].values, params)
        for p, num in zip(params, numeric):
            ana = grads[p.node_id]
            denom = np.maximum(np.abs(ana), np.maximum(np.abs(num), 1e-3))
            assert (np.abs(ana - num) / denom).max() < 1e-4, p.name

    def test_concat_runs_with_double_cell_width(self):
        model = tiny_model("lm2mpnn", fusion="concat")
        assert model.gnn.cell_width == 16
        mols = mols_for(["CCO", "C1CC1"])
        loss, preds, _ = model.forward_batch(Tape(), mols, batch_seed=0)
        assert preds.shape == (2, 1) and np.isfinite(loss.values)


class TestAllStrategiesOnCorpus:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_finite_loss_and_gradients_everywhere(self, strategy, corpus_smiles):
        model = tiny_model(
            strategy, task="binary-classification", alpha=0.2
        )
        for lo in range(0, len(corpus_smiles), 4):
            chunk = corpus_smiles[lo:lo + 4]
            mols = mols_for(chunk, [float(i % 2) for i in range(len(chunk))])
            tape = Tape()
            loss, preds, _ = model.forward_batch(tape, mols, batch_seed=lo)
            assert np.isfinite(loss.values), (strategy, chunk)
            assert np.isfinite(preds.values).all()
            grads = backward(loss, tape)
            for p in model.parameters():
                g = grads.get(p.node_id)
                assert g is None or np.isfinite(g).all(), (strategy, p.name)

    @pytest.mark.parametrize("op", FUSION_OPS)
    def test_every_fusion_op_runs_late_fusion(self, op):
        model = tiny_model("late-fusion", fusion=op)
        mols = mols_for(["CCO", "C1CC1"])
        loss, _, _ = model.forward_batch(Tape(), mols, batch_seed=0)
        assert np.isfinite(loss.values)


class TestPackedEncoderBatch:
    @pytest.mark.parametrize(
        "strategy", [s for s in STRATEGIES if s != "mpnn-baseline"]
    )
    def test_fewer_than_200_tape_records_per_32_molecule_batch(
        self, strategy, corpus_smiles
    ):
        config = RunConfig(
            strategy=strategy, hidden_dim=8, num_layers=3, num_heads=4,
            ffn_dim=12, max_len=64, message_steps=3, edge_hidden=6,
        )
        model = IntegratedModel(config, len(VOCAB))
        smiles = (corpus_smiles * 2)[:32]
        tape = Tape()
        model.forward_batch(tape, mols_for(smiles), batch_seed=0)
        assert len(tape.records) < 200


class TestLoadStateDict:
    def test_round_trip(self):
        source = tiny_model("late-fusion", seed=1)
        target = tiny_model("late-fusion", seed=2)
        target.load_state_dict(source.state_dict())
        for a, b in zip(source.parameters(), target.parameters()):
            np.testing.assert_array_equal(a.values, b.values)

    def test_mismatch_names_missing_and_unexpected(self):
        # a checkpoint in the per-head layout of earlier versions
        model = tiny_model("lm-baseline")
        state = model.state_dict()
        del state["lm.0.wqkv"]
        state["lm.0.wq0"] = np.zeros((8, 4))
        with pytest.raises(ValueError) as exc:
            model.load_state_dict(state)
        assert "missing ['lm.0.wqkv']" in str(exc.value)
        assert "unexpected ['lm.0.wq0']" in str(exc.value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_loaded_nan_fails_a_model_that_already_ran(self):
        # the first forward marks every weight as scanned; a load replaces
        # the values, so they must be scanned again
        mols = mols_for(["CCO", "C1CC1"])
        model = tiny_model("lm-baseline")
        model.predict(mols)
        state = model.state_dict()
        state["head.w2"][0, 0] = np.nan
        model.load_state_dict(state)
        with pytest.raises(FloatingPointError, match="NaN in input values"):
            model.predict(mols)
