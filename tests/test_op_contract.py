"""The op layer's shared input rules, and the bond-less batches that lean
on them: input counts declared once per kind, one offsets check, one
row-index check, and message passing over zero edges."""

import numpy as np
import pytest

from molfuse.autodiff import (
    OP_KINDS,
    ShapeError,
    Tape,
    _ARITY,
    _OPS,
    _trial_inputs,
    backward,
    constant,
)
from molfuse.gnn import GraphConv, Mpnn, edge_types
from molfuse.optim import AdamState, adam_step
from molfuse.smiles import EDGE_FEATURE_DIM

from tests.test_gnn import batch_of, cfg

BOND_LESS = ["C", "O", "[NH4+]"]


class TestInputCounts:
    def test_every_kind_declares_its_counts(self):
        assert set(_ARITY) == set(_OPS) == set(OP_KINDS)

    @pytest.mark.parametrize("kind", OP_KINDS)
    def test_wrong_count_names_the_kind(self, kind):
        takes = " or ".join(str(n) for n in _ARITY[kind])
        noun = "input" if _ARITY[kind] == (1,) else "inputs"
        wrong = [n for n in range(max(_ARITY[kind]) + 2) if n not in _ARITY[kind]]
        for count in wrong:
            inputs = [constant(np.ones((2, 2))) for _ in range(count)]
            with pytest.raises(ShapeError) as exc:
                Tape().apply(kind, *inputs)
            assert str(exc.value) == f"op '{kind}': takes {takes} {noun}, got {count}"

    @pytest.mark.parametrize("kind, count, message", [
        ("relu", 0, "op 'relu': takes 1 input, got 0"),
        ("matmul", 1, "op 'matmul': takes 2 or 3 inputs, got 1"),
        ("layer-normalize", 5, "op 'layer-normalize': takes 3 or 4 inputs, got 5"),
    ])
    def test_wrong_count_message(self, kind, count, message):
        with pytest.raises(ShapeError, match=f"^{message}$"):
            Tape().apply(kind, *[constant(np.ones((2, 2)))] * count)

    @pytest.mark.parametrize("kind", OP_KINDS)
    def test_trial_inputs_have_a_declared_count(self, kind):
        rng = np.random.default_rng(0)
        for trial in (0, 1):
            tensors, _ = _trial_inputs(kind, (3, 2), rng, trial)
            assert len(tensors) in _ARITY[kind]


SEGMENT_KINDS = ("segment-mean", "packed-attention")


def apply_segments(kind, offsets):
    # two rows of width 6: q, k and v of width 2 for one head
    x = constant(np.ones((2, 6)))
    if kind == "packed-attention":
        return Tape().apply(kind, x, offsets=offsets, num_heads=1)
    return Tape().apply(kind, x, offsets=offsets)


class TestSegments:
    @pytest.mark.parametrize("kind", SEGMENT_KINDS)
    @pytest.mark.parametrize("offsets", [[], [0], [[0, 2]], [0, 1], [1, 2]])
    def test_offsets_that_do_not_cover_the_rows(self, kind, offsets):
        with pytest.raises(ShapeError, match=f"^op '{kind}': "):
            apply_segments(kind, offsets)

    @pytest.mark.parametrize("kind", SEGMENT_KINDS)
    @pytest.mark.parametrize("offsets", [[0, 2, 2], [0, 0, 2]])
    def test_empty_segment(self, kind, offsets):
        with pytest.raises(ValueError) as exc:
            apply_segments(kind, offsets)
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"{kind}: empty or non-increasing segment"

    @pytest.mark.parametrize("kind", SEGMENT_KINDS)
    def test_valid_offsets(self, kind):
        assert apply_segments(kind, np.array([0, 1, 2])).shape[0] == 2


def apply_rows(kind, indices):
    """``kind`` over three rows, with ``indices`` as every row index."""
    x = constant(np.ones((3, 2)))
    if kind == "gather-rows":
        return Tape().apply(kind, x, indices=indices)
    if kind == "scatter-add-rows":
        rows = constant(np.ones((len(indices), 2)))
        return Tape().apply(kind, rows, indices=indices, num_rows=3)
    a_types = constant(np.ones((1, 4)))
    return Tape().apply(kind, a_types, x, src=indices, dst=indices,
                        bounds=[0, len(indices)])


ROW_KINDS = ("gather-rows", "scatter-add-rows", "typed-edge-message")


class TestRowIndices:
    @pytest.mark.parametrize("kind", ROW_KINDS)
    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range(self, kind, bad):
        with pytest.raises(
                IndexError, match=f"^{kind}: index out of range for 3 rows$"):
            apply_rows(kind, [0, bad])

    @pytest.mark.parametrize("kind", ROW_KINDS)
    def test_empty_indices_are_valid(self, kind):
        out = apply_rows(kind, np.zeros(0, dtype=np.int64))
        assert not out.values.any()

    def test_typed_edge_message_checks_destinations_too(self):
        with pytest.raises(IndexError, match="for 3 rows$"):
            Tape().apply("typed-edge-message", constant(np.ones((1, 4))),
                         constant(np.ones((3, 2))), src=[0], dst=[3],
                         bounds=[0, 1])


class TestBondLessBatch:
    def test_edge_types_of_zero_rows(self):
        unique, order, bounds = edge_types(np.zeros((0, EDGE_FEATURE_DIM)))
        assert unique.shape == (0, EDGE_FEATURE_DIM)
        assert order.shape == (0,)
        assert bounds.tolist() == [0]

    @staticmethod
    def stepped(model, run, batch):
        """Bytes of ``run(tape, batch)``'s states and of their readout sum,
        the parameters' bytes after one Adam step on that sum's gradients,
        and the gradients."""
        tape = Tape()
        states = run(tape, batch)
        pooled = model.readout(tape, states, batch)
        loss = tape.apply("sum-over-rows", tape.apply("sum-over-rows", pooled))
        grads = backward(loss, tape)
        adam_step(AdamState(model.parameters()), grads)
        stepped = [p.values.tobytes() for p in model.parameters()]
        return states.values.tobytes(), loss.values.tobytes(), stepped, grads

    def test_mpnn_equals_a_run_with_zero_messages(self):
        batch = batch_of(BOND_LESS)
        assert batch.edge_src.size == 0

        def zero_messages(tape, batch):
            h = model.initial_states(tape, batch)
            for _ in range(model.config.message_steps):
                m = constant(np.zeros((batch.num_nodes, model.config.hidden_dim)))
                h = model.update(tape, h, m)
            return h

        model = Mpnn(cfg(), np.random.default_rng(3))
        want = self.stepped(model, zero_messages, batch)
        model = Mpnn(cfg(), np.random.default_rng(3))
        got = self.stepped(model, model.run, batch)
        assert got[:3] == want[:3]
        for p in (model.we1, model.be1, model.we2, model.be2):
            assert p.node_id in got[3] and not got[3][p.node_id].any()

    def test_graphconv_equals_a_run_without_neighbours(self):
        batch = batch_of(BOND_LESS)

        def self_only(tape, batch):
            h = constant(batch.node_features)
            for layer in model.layers:
                h = tape.apply("relu", tape.apply(
                    "matmul", h, layer["w_self"], layer["b"]))
            return h

        model = GraphConv(cfg(), np.random.default_rng(3))
        want = self.stepped(model, self_only, batch)
        model = GraphConv(cfg(), np.random.default_rng(3))
        got = self.stepped(model, model.run, batch)
        assert got[:3] == want[:3]
        for layer in model.layers:
            assert not got[3][layer["w_nbr"].node_id].any()
