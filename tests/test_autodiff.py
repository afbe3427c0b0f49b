import numpy as np
import pytest

from molfuse.autodiff import (
    OP_KINDS,
    ShapeError,
    Tape,
    Tensor,
    _trial_inputs,
    backward,
    check_gradients,
    check_op_gradient,
    checked,
    constant,
    fd_gradients,
    parameter,
)

from tests.conftest import attention_probabilities


# op kinds whose output can leave out an input element, and a NaN with it:
# gather-rows reads only the rows it selects, typed-edge-message only the
# source rows and the edge types its edges use
NAN_DROPPING_KINDS = ("gather-rows", "typed-edge-message")


def scalar(tape, t):
    out = t
    while out.values.ndim > 0:
        out = tape.apply("sum-over-rows", out)
    return out


class TestForwardExamples:
    def test_add(self):
        tape = Tape()
        out = tape.apply("add", constant([1.0, 2.0]), constant([3.0, 4.0]))
        np.testing.assert_array_equal(out.values, [4.0, 6.0])

    def test_packed_attention_equal_scores_are_uniform(self):
        # zero queries give equal scores: every row of a sequence of
        # length L attends 1/L to each of its rows, so its output is the
        # mean of that sequence's value rows
        rng = np.random.default_rng(0)
        offsets = np.array([0, 2, 5])
        qkv = rng.normal(size=(5, 18))
        qkv[:, :6] = 0.0
        out = Tape().apply(
            "packed-attention", constant(qkv), offsets=offsets, num_heads=2
        )
        probs = attention_probabilities(qkv, offsets, num_heads=2)
        assert [p.shape for p in probs] == [(2, 2, 2), (2, 3, 3)]
        np.testing.assert_array_equal(probs[0], np.full((2, 2, 2), 0.5))
        np.testing.assert_array_equal(probs[1], np.full((2, 3, 3), 1.0 / 3.0))
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            np.testing.assert_allclose(
                out.values[lo:hi],
                np.broadcast_to(qkv[lo:hi, 12:].mean(axis=0), (hi - lo, 6)),
                rtol=1e-14, atol=1e-15,
            )

    def test_packed_attention_stays_within_sequence(self):
        rng = np.random.default_rng(1)
        offsets = np.array([0, 3, 4, 8])
        qkv = rng.normal(size=(8, 12))
        base = Tape().apply(
            "packed-attention", constant(qkv), offsets=offsets, num_heads=2
        ).values
        changed = qkv.copy()
        changed[3:] = rng.normal(size=(5, 12)) * 100.0
        out = Tape().apply(
            "packed-attention", constant(changed), offsets=offsets, num_heads=2
        ).values
        np.testing.assert_array_equal(out[:3], base[:3])
        alone = Tape().apply(
            "packed-attention", constant(qkv[:3]), offsets=[0, 3], num_heads=2
        ).values
        np.testing.assert_array_equal(alone, base[:3])

    def test_pnorm_345(self):
        tape = Tape()
        out = tape.apply(
            "p-norm-of-difference", constant([0.0, 0.0]), constant([3.0, 4.0])
        )
        assert out.values == pytest.approx(5.0, abs=0)

    def test_matmul(self):
        tape = Tape()
        a = constant([[1.0, 2.0], [3.0, 4.0]])
        b = constant([[1.0], [1.0]])
        out = tape.apply("matmul", a, b)
        np.testing.assert_array_equal(out.values, [[3.0], [7.0]])

    def test_elementwise_max(self):
        tape = Tape()
        out = tape.apply("elementwise-max", constant([1.0, 5.0]), constant([4.0, 2.0]))
        np.testing.assert_array_equal(out.values, [4.0, 5.0])

    def test_gather_then_scatter_roundtrip(self):
        tape = Tape()
        x = constant(np.arange(12.0).reshape(4, 3))
        g = tape.apply("gather-rows", x, indices=[2, 0, 2])
        np.testing.assert_array_equal(g.values[0], x.values[2])
        s = tape.apply("scatter-add-rows", g, indices=[2, 0, 2], num_rows=4)
        np.testing.assert_array_equal(s.values[2], 2 * x.values[2])
        np.testing.assert_array_equal(s.values[1], np.zeros(3))

    def test_scalar_broadcast(self):
        tape = Tape()
        out = tape.apply("multiply", constant([[2.0, 4.0]]), constant(0.5))
        np.testing.assert_array_equal(out.values, [[1.0, 2.0]])


class TestErrors:
    def test_shape_mismatch_names_kind_and_shapes(self):
        tape = Tape()
        with pytest.raises(ShapeError) as exc:
            tape.apply("add", constant([1.0, 2.0]), constant([1.0, 2.0, 3.0]))
        msg = str(exc.value)
        assert "add" in msg and "(2,)" in msg and "(3,)" in msg

    @pytest.mark.parametrize("kind", ["add", "subtract", "multiply"])
    def test_zero_d_operand_needing_a_gradient_does_not_broadcast(self, kind):
        # a 0-d constant broadcasts; a 0-d parameter against an array
        # would need its gradient summed, which no op does
        tape = Tape()
        array = constant(np.ones((2, 3)))
        for a, b in ((parameter(2.0), array), (array, parameter(2.0))):
            with pytest.raises(ShapeError, match=f"^op '{kind}': "):
                tape.apply(kind, a, b)
        tape.apply(kind, constant(2.0), parameter(np.ones((2, 3))))

    def test_nan_rejected(self):
        tape = Tape(check=True)
        with pytest.raises(FloatingPointError):
            tape.apply("relu", constant([np.nan, 1.0]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_lone_inf_rejected_with_op_kind(self, bad):
        with pytest.raises(FloatingPointError,
                           match="op 'relu': non-finite input values"):
            Tape(check=True).apply("relu", constant([bad, 1.0]))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_finite_values_whose_sum_overflows_accepted(self):
        x = constant([1e308, 1e308])
        out = Tape(check=True).apply("relu", x)
        np.testing.assert_array_equal(out.values, [1e308, 1e308])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", OP_KINDS)
    def test_nan_input_reaches_the_output(self, kind):
        # the default tape scans no input, so a NaN must surface where the
        # one test of a loss or a prediction sees it; a kind that can drop
        # input elements (NAN_DROPPING_KINDS) need only pass on an all-NaN input
        rng = np.random.default_rng(5)
        for trial, shape in enumerate([(3, 4), (1, 1), (2, 3), (4, 2)]):
            tensors, kwargs = _trial_inputs(kind, shape, rng, trial)
            for i in range(len(tensors)):
                inputs = [constant(t.values.copy()) for t in tensors]
                if kind in NAN_DROPPING_KINDS:
                    inputs[i].values[...] = np.nan
                else:
                    inputs[i].values.flat[0] = np.nan
                out = Tape().apply(kind, *inputs, **kwargs)
                assert not np.isfinite(out.values).all(), (kind, shape, i)

    def test_gather_drops_a_nan_in_an_unselected_row(self):
        x = constant([[1.0, 2.0], [np.nan, 0.0], [3.0, 4.0]])
        out = Tape().apply("gather-rows", x, indices=[2, 0])
        np.testing.assert_array_equal(out.values, [[3.0, 4.0], [1.0, 2.0]])

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        w = parameter([1.0, 2.0])
        out = tape.apply("relu", w)
        with pytest.raises(ValueError):
            backward(out, tape)

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            Tape().apply("frobnicate", constant([1.0]))

    def test_gather_out_of_range(self):
        with pytest.raises(IndexError):
            Tape().apply("gather-rows", constant(np.ones((2, 2))), indices=[5])


    @pytest.mark.parametrize("offsets", [[0, 2, 2, 4], [0, 3, 1, 4]])
    def test_packed_attention_rejects_empty_sequence(self, offsets):
        with pytest.raises(ValueError, match="empty"):
            Tape().apply(
                "packed-attention", constant(np.ones((4, 6))),
                offsets=offsets, num_heads=1,
            )

    @pytest.mark.parametrize("offsets", [[0, 3], [1, 4], [0, 2, 5], [], [0]])
    def test_packed_attention_rejects_non_covering_offsets(self, offsets):
        with pytest.raises(ShapeError, match="packed-attention"):
            Tape().apply(
                "packed-attention", constant(np.ones((4, 6))),
                offsets=offsets, num_heads=1,
            )

class TestChecked:
    def test_finite_result_is_returned_from_one_run(self):
        tapes = []

        def run(tape):
            tapes.append(tape)
            return tape.apply("relu", constant([-1.0, 2.0]))

        tape = Tape()
        out = checked(run, tape, "loss")
        np.testing.assert_array_equal(out.values, [0.0, 2.0])
        assert tapes == [tape]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_reaching_an_op_input_raises_that_ops_message(self):
        def run(tape):
            return tape.apply("tanh", constant([np.nan, 1.0]))

        with pytest.raises(FloatingPointError) as exc:
            checked(run, Tape(), "loss")
        assert str(exc.value) == "op 'tanh': NaN in input values"

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_inf_made_from_finite_inputs_raises_non_finite_what(self):
        tapes = []

        def run(tape):
            tapes.append(tape)
            return tape.apply("multiply", constant([1e308, 1.0]), constant(10.0))

        with pytest.raises(FloatingPointError) as exc:
            checked(run, Tape(), "prediction")
        assert str(exc.value) == "non-finite prediction"
        replay = tapes[1]
        assert replay.check and not replay.grad_enabled and not replay.records


class TestBackwardExamples:
    def test_sum_of_squares(self):
        tape = Tape()
        w = parameter([1.0, 2.0])
        sq = tape.apply("multiply", w, w)
        loss = tape.apply("sum-over-rows", sq)
        grads = backward(loss, tape)
        np.testing.assert_array_equal(grads[w.node_id], [2.0, 4.0])

    def test_sigmoid_at_zero(self):
        tape = Tape()
        x = parameter(0.0)
        loss = tape.apply("sigmoid", x)
        grads = backward(loss, tape)
        assert grads[x.node_id] == pytest.approx(0.25, abs=1e-15)

    def test_sigmoid_bitwise_three_exp_formula(self, rng):
        v = np.concatenate([
            [-700.0, 700.0, -745.0, 745.0, -1e3, 1e3, 0.0, -0.0, 1e-300, -1e-300],
            rng.normal(scale=20.0, size=200),
        ]).reshape(15, 14)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = Tape().apply("sigmoid", constant(v)).values
        with np.errstate(all="ignore"):
            ref = np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.abs(v))),
                           np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v))))
        np.testing.assert_array_equal(out, ref)
        assert out[0, 0] > 0.0 and out[0, 1] == 1.0

    def test_fanout_accumulates(self):
        tape = Tape()
        x = parameter(3.0)
        loss = tape.apply("add", x, x)
        grads = backward(loss, tape)
        assert grads[x.node_id] == pytest.approx(2.0, abs=0)

    def test_unused_parameter_gets_exact_zero(self):
        tape = Tape()
        w = parameter([1.0, 2.0])
        u = parameter([5.0])
        loss = scalar(tape, tape.apply("multiply", w, w))
        # record an op involving u that never reaches the loss
        tape.apply("relu", u)
        grads = backward(loss, tape)
        np.testing.assert_array_equal(grads[u.node_id], [0.0])

    def test_three_layer_composition_vs_fd(self):
        rng = np.random.default_rng(7)
        w1 = parameter(rng.normal(size=(3, 4)))
        w2 = parameter(rng.normal(size=(4, 2)))
        b = parameter(rng.normal(size=(2,)))
        x = constant(rng.normal(size=(5, 3)))

        def run():
            tape = Tape()
            h = tape.apply("tanh", tape.apply("matmul", x, w1))
            out = tape.apply("sigmoid", tape.apply("matmul", h, w2, b))
            return scalar(tape, out), tape

        loss, tape = run()
        grads = backward(loss, tape)
        numeric = fd_gradients(lambda: run()[0].values, [w1, w2, b], h=1e-5)
        for t, num in zip([w1, w2, b], numeric):
            ana = grads[t.node_id]
            denom = np.maximum(np.abs(ana), np.maximum(np.abs(num), 1e-3))
            assert (np.abs(ana - num) / denom).max() < 1e-4


def projected_grads(build, leaves, seed=0):
    """Output values and leaf gradients of sum(build(tape) * P), P fixed."""
    tape = Tape()
    out = build(tape)
    projection = np.random.default_rng(seed).normal(size=out.shape)
    loss = scalar(tape, tape.apply("multiply", out, constant(projection)))
    grads = backward(loss, tape)
    return out.values, [grads[t.node_id] for t in leaves]


class TestLeanTape:
    """backward consumes the tape; closures keep only what backward reads."""

    def _mlp(self, rng):
        x = constant(rng.normal(size=(5, 3)))
        w1, b1 = parameter(rng.normal(size=(3, 4))), parameter(rng.normal(size=4))
        w2 = parameter(rng.normal(size=(4, 1)))
        return x, [w1, b1, w2]

    def test_relu_pre_activation_freed_when_forward_ends(self, rng):
        import weakref

        x, (w1, b1, w2) = self._mlp(rng)

        def forward(tape):
            pre = tape.apply("matmul", x, w1, b1)
            ref = weakref.ref(pre.values)
            hidden = tape.apply("relu", pre)
            return scalar(tape, tape.apply("matmul", hidden, w2)), ref

        tape = Tape()
        loss, ref = forward(tape)
        assert ref() is None
        assert backward(loss, tape)[w1.node_id] is not None

    def test_backward_consumes_tape_and_returns_leaves_only(self, rng):
        x, params = self._mlp(rng)
        w1, b1, w2 = params
        tape = Tape()
        pre = tape.apply("matmul", x, w1, b1)
        hidden = tape.apply("relu", pre)
        loss = scalar(tape, tape.apply("matmul", hidden, w2))
        assert set(tape.watched) == {p.node_id for p in params}
        grads = backward(loss, tape)
        assert tape.records == []
        assert set(grads) == {p.node_id for p in params}
        assert not {x.node_id, pre.node_id, hidden.node_id, loss.node_id} & set(grads)
        with pytest.raises(RuntimeError, match="consumed"):
            backward(loss, tape)

    def test_constant_inputs_get_no_gradient_work(self):
        # a closure calls acc only for inputs that require a gradient
        seen = []
        tape = Tape()
        w = parameter(np.ones((2, 2)))
        out = tape.apply("matmul", constant(np.ones((3, 2))), w)
        _, backward_fn = tape.records[-1]
        backward_fn(np.ones(out.shape), lambda nid, g: seen.append(nid))
        assert seen == [w.node_id]

    def test_matmul_bias_equals_unfused_sequence(self, rng):
        a = parameter(rng.normal(size=(6, 4)))
        b = parameter(rng.normal(size=(4, 3)))
        bias = parameter(rng.normal(size=3))
        out, (ga, gb, gbias) = projected_grads(
            lambda t: t.apply("matmul", a, b, bias), [a, b, bias]
        )
        # unfused: the product, then the bias broadcast over the rows as a
        # separate add whose bias gradient is the sum over rows
        rows = parameter(np.broadcast_to(bias.values, (6, 3)).copy())
        ref, (ra, rb, rrows) = projected_grads(
            lambda t: t.apply("add", t.apply("matmul", a, b), rows), [a, b, rows]
        )
        assert np.array_equal(out, ref)
        assert np.array_equal(ga, ra) and np.array_equal(gb, rb)
        assert np.array_equal(gbias, rrows.sum(axis=0))

    def test_layer_norm_residual_equals_unfused_sequence(self, rng):
        x = parameter(rng.normal(size=(5, 4)))
        res = parameter(rng.normal(size=(5, 4)))
        gain = parameter(rng.normal(size=4))
        bias = parameter(rng.normal(size=4))
        leaves = [x, gain, bias, res]
        out, fused = projected_grads(
            lambda t: t.apply("layer-normalize", x, gain, bias, res), leaves
        )
        ref, unfused = projected_grads(
            lambda t: t.apply(
                "layer-normalize", t.apply("add", res, x), gain, bias
            ),
            leaves,
        )
        assert np.array_equal(out, ref)
        for g, r in zip(fused, unfused):
            assert np.array_equal(g, r)

    @pytest.mark.parametrize("kind,arities", [
        ("matmul", {2, 3}), ("layer-normalize", {3, 4}),
    ])
    def test_gradient_sweep_covers_both_arities(self, kind, arities):
        report = check_gradients([kind], trials=4, tolerance=1e-4, seed=5)
        assert {len(e.shapes) for e in report.entries} == arities
        assert report.passed

    @pytest.mark.parametrize("kind,shapes", [
        ("matmul", [(2, 3), (3, 4), (3,)]),
        ("layer-normalize", [(2, 3), (3,), (3,), (2, 4)]),
    ])
    def test_fused_input_shape_checked(self, kind, shapes):
        with pytest.raises(ShapeError, match=kind):
            Tape().apply(kind, *[constant(np.ones(s)) for s in shapes])


def reference_attention(qkv, offsets, heads, g):
    """Packed attention's output and qkv gradient by the formulas it used
    before its buffers were written in place."""
    rows, d = qkv.shape[0], qkv.shape[1] // 3
    dk = d // heads
    scale = 1.0 / np.sqrt(dk)
    out = np.empty((rows, d))
    grad = np.empty((rows, 3 * d))
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        length = hi - lo
        q, k, v = qkv[lo:hi].reshape(length, 3, heads, dk).transpose(1, 2, 0, 3)
        z = (q @ k.transpose(0, 2, 1)) * scale
        z -= z.max(axis=-1, keepdims=True)
        probs = np.exp(z, out=z)
        probs /= probs.sum(axis=-1, keepdims=True)
        out[lo:hi] = (probs @ v).transpose(1, 0, 2).reshape(length, d)
        gc = g[lo:hi].reshape(length, heads, dk).transpose(1, 0, 2)
        gv = probs.transpose(0, 2, 1) @ gc
        gp = gc @ v.transpose(0, 2, 1)
        gz = probs * (gp - (gp * probs).sum(axis=-1, keepdims=True))
        gz *= scale
        gq = gz @ k
        gk = gz.transpose(0, 2, 1) @ q
        grad[lo:hi] = np.stack([gq, gk, gv]).transpose(2, 0, 1, 3).reshape(
            length, 3 * d
        )
    return out, grad


def reference_layer_norm(x, gain, bias, g, residual=None, eps=1e-5):
    """Layer norm's output and (x, gain, bias) gradients by the formulas it
    used before its backward reused its buffers."""
    d = x.shape[-1]
    total = x if residual is None else x + residual
    centered = total - total.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    out = centered * inv * gain + bias
    gx_hat = g * gain
    gvar = (gx_hat * centered).sum(axis=-1, keepdims=True) * (-0.5) * inv**3
    gmu = (-gx_hat * inv).sum(axis=-1, keepdims=True) + gvar * (
        -2.0 * centered.mean(axis=-1, keepdims=True)
    )
    gx = gx_hat * inv + gvar * 2.0 * centered / d + gmu / d
    return out, gx, (g * (centered * inv)).sum(axis=0), g.sum(axis=0)


class TestInPlaceGradients:
    """Attention and layer norm write their buffers in place, bitwise equal
    to the reference formulas."""

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_packed_attention_equals_reference(self, heads, rng):
        lengths = rng.permutation(np.arange(1, 91))
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        # head width 6, so the 1 / sqrt(6) scale rounds
        qkv = parameter(rng.normal(size=(int(offsets[-1]), 3 * 6 * heads)))
        out, (grad,) = projected_grads(
            lambda t: t.apply(
                "packed-attention", qkv, offsets=offsets, num_heads=heads
            ),
            [qkv],
        )
        projection = np.random.default_rng(0).normal(size=out.shape)
        ref_out, ref_grad = reference_attention(
            qkv.values, offsets, heads, projection
        )
        assert np.array_equal(out, ref_out)
        assert np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("with_residual", [False, True])
    def test_layer_norm_equals_reference(self, with_residual, rng):
        x = parameter(rng.normal(size=(37, 24)))
        gain = parameter(rng.normal(size=24))
        bias = parameter(rng.normal(size=24))
        leaves = [x, gain, bias]
        if with_residual:
            leaves.append(parameter(rng.normal(size=(37, 24))))
        out, grads = projected_grads(
            lambda t: t.apply("layer-normalize", *leaves), leaves
        )
        projection = np.random.default_rng(0).normal(size=out.shape)
        ref_out, *ref_grads = reference_layer_norm(
            x.values, gain.values, bias.values, projection,
            leaves[3].values if with_residual else None,
        )
        if with_residual:
            ref_grads.append(ref_grads[0])  # the residual's gradient is x's
        assert np.array_equal(out, ref_out)
        for got, want in zip(grads, ref_grads):
            assert np.array_equal(got, want)


class TestGradCheckOracle:
    """Central-difference sweep: h = 1e-5, relative error < 1e-4."""

    @pytest.mark.parametrize("kind", OP_KINDS)
    def test_kind(self, kind):
        report = check_gradients([kind], trials=10, tolerance=1e-4, seed=99)
        assert report.passed, (
            f"{kind}: max rel error {report.max_error(kind):.3e} in "
            f"{[e for e in report.entries if e.max_rel_error >= report.tolerance]}"
        )

    def test_matmul_3x4_4x2(self):
        rng = np.random.default_rng(0)
        a = parameter(rng.normal(size=(3, 4)))
        b = parameter(rng.normal(size=(4, 2)))
        assert check_op_gradient("matmul", [a, b], rng=rng) < 1e-4

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 4))
        x = np.sign(x) * (np.abs(x) + 1e-3)
        assert check_op_gradient("relu", [parameter(x)], rng=rng) < 1e-4

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError, match="tolerance"):
            check_gradients(["add"], tolerance=0.0)

    def test_add_grad_is_ones(self):
        tape = Tape()
        w = parameter(np.zeros((2, 3)))
        loss = scalar(tape, tape.apply("add", w, constant(np.ones((2, 3)))))
        grads = backward(loss, tape)
        np.testing.assert_array_equal(grads[w.node_id], np.ones((2, 3)))

    def test_scatter_is_adjoint_of_gather(self):
        # <scatter(x), y> == <x, gather(y)> for random index vectors
        rng = np.random.default_rng(5)
        for _ in range(10):
            n, d, k = rng.integers(2, 6), rng.integers(1, 5), rng.integers(1, 8)
            idx = rng.integers(0, n, size=k)
            x = rng.normal(size=(k, d))
            y = rng.normal(size=(n, d))
            tape = Tape(grad_enabled=False)
            sc = tape.apply(
                "scatter-add-rows", constant(x), indices=idx, num_rows=int(n)
            ).values
            ga = tape.apply("gather-rows", constant(y), indices=idx).values
            assert (sc * y).sum() == pytest.approx((x * ga).sum(), rel=1e-12)


class TestDeterminism:
    def test_forward_bitwise(self):
        rng = np.random.default_rng(3)
        x = constant(rng.normal(size=(4, 4)))
        w = constant(rng.normal(size=(4, 4)))
        outs = []
        for _ in range(2):
            tape = Tape()
            h = tape.apply("tanh", tape.apply("matmul", x, w))
            outs.append(h.values.copy())
        assert np.array_equal(outs[0], outs[1])

    def test_grad_disabled_tape_records_nothing(self):
        tape = Tape(grad_enabled=False)
        w = parameter([1.0])
        out = tape.apply("relu", w)
        assert not tape.records and not out.requires_grad
