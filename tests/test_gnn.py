import numpy as np
import pytest

from molfuse.autodiff import Tape, backward, constant, fd_gradients, parameter
from molfuse.gnn import GraphBatch, GraphConv, Mpnn, build_gnn, edge_types
from molfuse.smiles import EDGE_FEATURE_DIM, parse
from molfuse.training import RunConfig


def cfg(**overrides):
    # one attention head, so that any hidden_dim is a valid RunConfig
    base = dict(hidden_dim=8, message_steps=2, edge_hidden=6, num_heads=1)
    base.update(overrides)
    return RunConfig(**base)


def batch_of(smiles_list):
    return GraphBatch.from_graphs([parse(s) for s in smiles_list])


def permuted_copy(smiles, perm):
    """Parsed graph with atoms relabeled by perm (features and bonds moved)."""
    g = parse(smiles)
    inv = np.argsort(perm)
    out = parse(smiles)
    out.atoms = [g.atoms[i] for i in perm]
    for b_new, b_old in zip(out.bonds, g.bonds):
        b_new.u, b_new.v = int(inv[b_old.u]), int(inv[b_old.v])
        b_new.order, b_new.conjugated, b_new.in_ring = (
            b_old.order, b_old.conjugated, b_old.in_ring,
        )
    out.node_features = g.node_features[perm]
    out.bond_index = inv[g.bond_index]
    return out


class TestGraphBatch:
    def test_both_orientations(self):
        b = batch_of(["CCO"])
        assert len(b.edge_src) == 4  # 2 bonds x 2 directions
        pairs = set(zip(b.edge_src.tolist(), b.edge_dst.tolist()))
        assert (0, 1) in pairs and (1, 0) in pairs

    def test_offsets(self):
        b = batch_of(["CCO", "C", "C1CC1"])
        assert b.offsets.tolist() == [0, 3, 4, 7]
        assert b.num_nodes == 7


def per_edge_messages(a_flat, h, src, dst):
    """Plain per-edge reference: m[dst[e]] += A_e @ h[src[e]], with A_e the
    (w x w) matrix a_flat[e], edges added in id order."""
    w = h.shape[1]
    out = np.zeros_like(h)
    for e in range(len(src)):
        out[dst[e]] += a_flat[e].reshape(w, w) @ h[src[e]]
    return out


def per_edge_message_grads(g, a_flat, h, src, dst):
    """Gradients of sum(g * per_edge_messages(...)) w.r.t. a_flat and h."""
    w = h.shape[1]
    grad_a = np.empty_like(a_flat)
    grad_h = np.zeros_like(h)
    for e in range(len(src)):
        grad_a[e] = np.outer(g[dst[e]], h[src[e]]).reshape(-1)
        grad_h[src[e]] += a_flat[e].reshape(w, w).T @ g[dst[e]]
    return grad_a, grad_h


def typed_messages(a_types, h, src, dst, bounds):
    return Tape().apply(
        "typed-edge-message", constant(a_types), constant(h),
        src=src, dst=dst, bounds=bounds,
    ).values


def per_bond_batch(graphs):
    """Reference batch build: one (u->v, v->u) edge pair per bond."""
    src, dst, efeats, offsets = [], [], [], [0]
    for g in graphs:
        base = offsets[-1]
        for j, b in enumerate(g.bonds):
            src.extend((base + b.u, base + b.v))
            dst.extend((base + b.v, base + b.u))
            efeats.extend((g.edge_features[j], g.edge_features[j]))
        offsets.append(base + g.num_atoms)
    return src, dst, np.array(efeats).reshape(len(src), EDGE_FEATURE_DIM), offsets


class TestBatchBuild:
    @pytest.mark.parametrize("smiles", [
        ["CCO", "C", "c1ccccc1C(=O)N", "C"],
        ["C"],
        ["C", "O"],
        ["N#Cc1ccccc1"],
    ])
    def test_from_graphs_matches_per_bond_reference(self, smiles):
        graphs = [parse(s) for s in smiles]
        b = GraphBatch.from_graphs(graphs)
        src, dst, efeats, offsets = per_bond_batch(graphs)
        assert b.edge_src.dtype == b.edge_dst.dtype == np.int64
        assert b.offsets.dtype == np.int64
        np.testing.assert_array_equal(b.edge_src, src)
        np.testing.assert_array_equal(b.edge_dst, dst)
        assert b.edge_features.dtype == np.float64
        np.testing.assert_array_equal(b.edge_features, efeats)
        np.testing.assert_array_equal(b.offsets, offsets)
        np.testing.assert_array_equal(
            b.node_features, np.concatenate([g.node_features for g in graphs])
        )

    @pytest.mark.parametrize("kind", ["mixed", "one type"])
    def test_edge_types_match_unique_argsort_bincount(self, kind):
        if kind == "mixed":
            rows = batch_of(
                ["N#Cc1ccccc1", "CC(=O)O", "C1CC1", "C=CC#N", "c1ccncc1O", "C"]
            ).edge_features
            rows = np.concatenate([rows, rows[::3]])  # more repeats, reordered
        else:
            rows = np.ones((3, EDGE_FEATURE_DIM))
        unique, inverse = np.unique(rows, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        got_unique, order, bounds = edge_types(rows)
        np.testing.assert_array_equal(got_unique, unique)
        np.testing.assert_array_equal(order, np.argsort(inverse, kind="stable"))
        counts = np.bincount(inverse, minlength=len(unique))
        np.testing.assert_array_equal(bounds, np.concatenate([[0], np.cumsum(counts)]))


class TestEdgeNetwork:
    def test_identity_bias_gives_identity_matrices(self):
        model = Mpnn(cfg(), np.random.default_rng(0))
        d = 8
        model.we1.values[:] = 0.0
        model.we2.values[:] = 0.0
        model.be1.values[:] = 0.0
        model.be2.values[:] = np.eye(d).reshape(-1)
        b = batch_of(["CCO"])
        a_flat = model._edge_mlp(Tape(), constant(b.edge_features))
        for e in range(a_flat.shape[0]):
            np.testing.assert_array_equal(a_flat.values[e].reshape(d, d), np.eye(d))

    def test_output_shape(self):
        model = Mpnn(cfg(), np.random.default_rng(0))
        b = batch_of(["C1CC1"])
        a_flat = model._edge_mlp(Tape(), constant(b.edge_features))
        assert a_flat.shape == (6, 64)

    def test_width_mismatch(self):
        model = Mpnn(cfg(), np.random.default_rng(0))
        with pytest.raises(ValueError, match="width"):
            model._edge_mlp(Tape(), constant(np.ones((2, 7))))

    def test_gradient_wrt_edge_features(self):
        rng = np.random.default_rng(4)
        model = Mpnn(cfg(hidden_dim=4, edge_hidden=5), rng)
        ef = parameter(rng.normal(size=(3, 4)))

        def run():
            tape = Tape()
            out = model._edge_mlp(tape, ef)
            s = tape.apply("sum-over-rows", out)
            return tape.apply("sum-over-rows", s), tape

        loss, tape = run()
        grads = backward(loss, tape)
        num = fd_gradients(lambda: run()[0].values, [ef])[0]
        ana = grads[ef.node_id]
        denom = np.maximum(np.abs(ana), np.maximum(np.abs(num), 1e-3))
        assert (np.abs(ana - num) / denom).max() < 1e-4


def identity_messages(model, batch, states):
    d = states.shape[1]
    return typed_messages(
        np.eye(d).reshape(1, -1), states, batch.edge_src, batch.edge_dst,
        np.array([0, len(batch.edge_src)]),
    )


class TestMessagePass:
    def test_single_edge_identity_swap(self):
        model = Mpnn(cfg(hidden_dim=3), np.random.default_rng(0))
        b = batch_of(["CO"])
        h = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        m = identity_messages(model, b, h)
        np.testing.assert_array_equal(m[0], h[1])
        np.testing.assert_array_equal(m[1], h[0])

    def test_isolated_node_zero_message(self):
        model = Mpnn(cfg(hidden_dim=3), np.random.default_rng(0))
        b = batch_of(["CCO", "C"])
        h = np.random.default_rng(1).normal(size=(4, 3))
        m = identity_messages(model, b, h)
        np.testing.assert_array_equal(m[3], np.zeros(3))

    def test_star_center_sums_leaves(self):
        b = batch_of(["C(C)(C)C"])  # atom 0 bonded to 1, 2, 3
        h = np.random.default_rng(2).normal(size=(4, 5))
        model = Mpnn(cfg(hidden_dim=5), np.random.default_rng(0))
        m = identity_messages(model, b, h)
        np.testing.assert_allclose(m[0], h[1] + h[2] + h[3], rtol=1e-15)

    def test_dangling_edge_rejected(self):
        with pytest.raises(IndexError, match="dangling"):
            typed_messages(
                np.ones((1, 4)), np.ones((2, 2)),
                src=[0], dst=[5], bounds=[0, 1],
            )

    def test_typed_route_matches_per_edge_route(self):
        rng = np.random.default_rng(12)
        model = Mpnn(cfg(hidden_dim=6), rng)
        b = batch_of(["C1=CC=C(C=C1)O", "CC(=O)O"])
        h = rng.normal(size=(b.num_nodes, 6))
        tape = Tape(grad_enabled=False)
        a_flat = model._edge_mlp(tape, constant(b.edge_features)).values
        dense = per_edge_messages(a_flat, h, b.edge_src, b.edge_dst)
        typed = model._message_operator(tape, b)(tape, constant(h))
        np.testing.assert_allclose(typed.values, dense, atol=1e-12)


class TestTypedEdgeMessageOracle:
    """typed-edge-message against the plain per-edge reference, each edge
    taking its type's matrix; the edges are numbered in type order, as the
    op takes them, and one type is left without edges."""

    @pytest.fixture
    def case(self, rng):
        n, d, e, types = 12, 5, 30, 4
        # grouped by type; the last type is empty
        type_of = np.sort(rng.integers(0, types - 1, size=e))
        counts = np.bincount(type_of, minlength=types)
        return {
            "a_types": rng.normal(size=(types, d * d)),
            "h": rng.normal(size=(n, d)),
            "src": rng.integers(0, n, size=e),
            "dst": rng.integers(0, n, size=e),
            "type_of": type_of,
            "bounds": np.concatenate([[0], np.cumsum(counts)]),
        }

    def test_forward(self, case):
        typed = typed_messages(
            case["a_types"], case["h"], case["src"], case["dst"],
            case["bounds"],
        )
        ref = per_edge_messages(
            case["a_types"][case["type_of"]], case["h"], case["src"], case["dst"]
        )
        np.testing.assert_allclose(typed, ref, atol=1e-12)

    def test_backward(self, case, rng):
        a_types, h = parameter(case["a_types"]), parameter(case["h"])
        g = rng.normal(size=case["h"].shape)
        tape = Tape()
        out = tape.apply(
            "typed-edge-message", a_types, h, src=case["src"], dst=case["dst"],
            bounds=case["bounds"],
        )
        loss = tape.apply(
            "sum-over-rows",
            tape.apply("sum-over-rows", tape.apply("multiply", out, constant(g))),
        )
        grads = backward(loss, tape)
        grad_edge, grad_h = per_edge_message_grads(
            g, case["a_types"][case["type_of"]], case["h"], case["src"],
            case["dst"],
        )
        grad_types = np.zeros_like(case["a_types"])
        np.add.at(grad_types, case["type_of"], grad_edge)
        np.testing.assert_allclose(grads[a_types.node_id], grad_types, atol=1e-12)
        np.testing.assert_allclose(grads[h.node_id], grad_h, atol=1e-12)


class TestUpdate:
    def _states(self, rng, n=4, d=8):
        return constant(rng.normal(size=(n, d))), constant(rng.normal(size=(n, d)))

    def test_gate_bias_minus_30_keeps_state(self):
        rng = np.random.default_rng(1)
        model = Mpnn(cfg(), rng)
        model.wz.values[:] = 0.0
        model.bz.values[:] = -30.0
        h, m = self._states(rng)
        out = model.update(Tape(), h, m)
        np.testing.assert_allclose(out.values, h.values, atol=1e-9)

    def test_gate_bias_plus_30_takes_candidate(self):
        rng = np.random.default_rng(1)
        model = Mpnn(cfg(), rng)
        model.wz.values[:] = 0.0
        model.bz.values[:] = 30.0
        h, m = self._states(rng)
        out = model.update(Tape(), h, m).values
        r = 1.0 / (1.0 + np.exp(-(np.hstack([h.values, m.values]) @ model.wr.values
                                  + model.br.values)))
        cand = np.tanh(m.values @ model.wm.values + (r * h.values) @ model.wh.values)
        np.testing.assert_allclose(out, cand, atol=1e-9)

    def test_full_step_gradient(self):
        rng = np.random.default_rng(3)
        model = Mpnn(cfg(hidden_dim=3, edge_hidden=4, message_steps=1), rng)
        b = batch_of(["CCO"])

        def run():
            tape = Tape()
            h = model.run(tape, b)
            s = tape.apply("sum-over-rows", h)
            return tape.apply("sum-over-rows", s), tape

        loss, tape = run()
        grads = backward(loss, tape)
        params = model.parameters()
        numeric = fd_gradients(lambda: run()[0].values, params)
        for p, num in zip(params, numeric):
            ana = grads[p.node_id]
            denom = np.maximum(np.abs(ana), np.maximum(np.abs(num), 1e-3))
            assert (np.abs(ana - num) / denom).max() < 1e-4, p.name


def identity_layer(layer):
    """Sets a GraphConv layer to h' = relu(h), which passes the
    non-negative outputs of a layer before it through unchanged."""
    layer["w_self"].values[:] = np.eye(layer["w_self"].shape[0])
    layer["w_nbr"].values[:] = 0.0
    layer["b"].values[:] = 0.0


class TestGraphConv:
    def test_no_edges_identity_weights(self):
        model = GraphConv(cfg(hidden_dim=9), np.random.default_rng(0))
        for layer in model.layers:
            identity_layer(layer)
        b = batch_of(["C", "C"])
        out = model.run(Tape(), b)
        np.testing.assert_allclose(out.values, np.maximum(b.node_features, 0.0))

    def test_isolated_identical_nodes_identical_outputs(self):
        model = GraphConv(cfg(), np.random.default_rng(0))
        out = model.run(Tape(), batch_of(["C", "C"]))
        np.testing.assert_array_equal(out.values[0], out.values[1])

    def test_path_graph_hand_evaluation(self):
        config = RunConfig(hidden_dim=2, num_heads=1)
        model = GraphConv(config, np.random.default_rng(0))
        ws = np.zeros((9, 2)); ws[0, 0] = 1.0
        wn = np.zeros((9, 2)); wn[0, 1] = 1.0
        model.layers[0]["w_self"].values[:] = ws
        model.layers[0]["w_nbr"].values[:] = wn
        model.layers[0]["b"].values[:] = 0.0
        identity_layer(model.layers[1])  # the first layer's output is >= 0
        b = batch_of(["CCO"])  # path 0-1-2
        x = b.node_features[:, 0]
        out = model.run(Tape(), b).values
        expected = np.array([
            [x[0], x[1]],
            [x[1], x[0] + x[2]],
            [x[2], x[1]],
        ])
        np.testing.assert_allclose(out, np.maximum(expected, 0.0), rtol=1e-15)

    def test_build_gnn_dispatch(self):
        assert isinstance(
            build_gnn(cfg(gnn_variant="graphconv"), np.random.default_rng(0)), GraphConv
        )
        assert isinstance(build_gnn(cfg(), np.random.default_rng(0)), Mpnn)


class TestReadout:
    def test_mean(self):
        model = Mpnn(cfg(hidden_dim=2), np.random.default_rng(0))
        b = batch_of(["CO"])
        states = constant(np.array([[1.0, 1.0], [3.0, 3.0]]))
        out = model.readout(Tape(), states, b)
        np.testing.assert_array_equal(out.values, [[2.0, 2.0]])

    def test_single_node_graph(self):
        model = Mpnn(cfg(hidden_dim=2), np.random.default_rng(0))
        b = batch_of(["C"])
        states = constant(np.array([[5.0, -1.0]]))
        out = model.readout(Tape(), states, b)
        np.testing.assert_array_equal(out.values, [[5.0, -1.0]])

    def test_node_permutation_within_graph(self):
        model = Mpnn(cfg(hidden_dim=3), np.random.default_rng(0))
        b = batch_of(["CCO"])
        rng = np.random.default_rng(7)
        states = rng.normal(size=(3, 3))
        a = model.readout(Tape(), constant(states), b).values
        c = model.readout(Tape(), constant(states[[2, 0, 1]]), b).values
        np.testing.assert_allclose(a, c, atol=1e-12)


class TestInvariances:
    def test_permutation_invariance(self):
        model = Mpnn(cfg(), np.random.default_rng(5))
        smiles = "CC(=O)O"
        perm = [2, 0, 3, 1]
        g1, g2 = parse(smiles), permuted_copy(smiles, np.array(perm))
        tape = Tape(grad_enabled=False)
        r1 = model.readout(
            tape, model.run(tape, GraphBatch.from_graphs([g1])),
            GraphBatch.from_graphs([g1]),
        ).values
        tape = Tape(grad_enabled=False)
        r2 = model.readout(
            tape, model.run(tape, GraphBatch.from_graphs([g2])),
            GraphBatch.from_graphs([g2]),
        ).values
        assert np.abs(r1 - r2).max() < 1e-9

    def test_batch_independence(self):
        model = Mpnn(cfg(), np.random.default_rng(5))
        solo = batch_of(["C1CC1"])
        batched = batch_of(["CCO", "C1CC1", "C"])
        tape = Tape(grad_enabled=False)
        alone = model.readout(tape, model.run(tape, solo), solo).values[0]
        tape = Tape(grad_enabled=False)
        together = model.readout(tape, model.run(tape, batched), batched).values[1]
        assert np.abs(alone - together).max() < 1e-9

    def test_t0_is_mean_projected_features(self):
        model = Mpnn(cfg(message_steps=0), np.random.default_rng(5))
        # no forward reads the edge network or the update cell
        assert [p.name for p in model.parameters()] == ["gnn.w_in", "gnn.b_in"]
        b = batch_of(["CCO"])
        tape = Tape(grad_enabled=False)
        out = model.readout(tape, model.run(tape, b), b).values
        proj = b.node_features @ model.w_in.values + model.b_in.values
        np.testing.assert_allclose(out[0], proj.mean(axis=0), atol=1e-12)

    def test_edge_order_independence(self):
        rng = np.random.default_rng(0)
        model = Mpnn(cfg(), rng)
        g = parse("N#Cc1ccccc1")
        b1 = GraphBatch.from_graphs([g])
        g2 = parse("N#Cc1ccccc1")
        order = list(range(len(g2.bonds)))[::-1]
        g2.bonds = [g2.bonds[i] for i in order]
        g2.edge_features = g2.edge_features[order]
        g2.bond_index = g2.bond_index[order]
        b2 = GraphBatch.from_graphs([g2])
        tape = Tape(grad_enabled=False)
        r1 = model.readout(tape, model.run(tape, b1), b1).values
        tape = Tape(grad_enabled=False)
        r2 = model.readout(tape, model.run(tape, b2), b2).values
        assert np.abs(r1 - r2).max() < 1e-12
