import numpy as np
import pytest

from molfuse import kernels


def bits(a):
    return a.view(np.int64)


def per_row_scatter(out, values, indices):
    """Reference: out[indices[k]] += values[k], one row at a time, k ascending."""
    for k, r in enumerate(indices):
        out[r] += values[k]
    return out


def scatter_cases(rng):
    """(values, indices, num_rows): repeated indices, an empty index list and
    non-contiguous values (a transposed and a strided view)."""
    return [
        (rng.normal(size=(40, 7)), rng.integers(0, 5, size=40), 5),
        (rng.normal(size=(6, 3)), np.array([2, 2, 2, 0, 2, 2]), 4),
        (np.zeros((0, 4)), np.array([], dtype=np.int64), 3),
        (rng.normal(size=(5, 9)).T, rng.integers(0, 4, size=9), 4),
        (rng.normal(size=(11, 12))[:, ::3], rng.integers(0, 6, size=11), 6),
    ]


class TestNumpyScatters:
    """The flat-index numpy scatters add in the per-row loop's order."""

    def test_scatter_add_rows_bitwise_per_row_loop(self, rng):
        for values, idx, n in scatter_cases(rng):
            ref = per_row_scatter(np.zeros((n, values.shape[1])), values, idx)
            np.testing.assert_array_equal(kernels.scatter_add_rows(values, idx, n), ref)

    def test_scatter_add_into_bitwise_per_row_loop(self, rng):
        for values, idx, n in scatter_cases(rng):
            start = rng.normal(size=(n, values.shape[1]))
            out = start.copy()
            assert kernels.scatter_add_into(out, values, idx) is out
            np.testing.assert_array_equal(
                out, per_row_scatter(start.copy(), values, idx)
            )

    @pytest.mark.parametrize("layout", ["column_slice", "strided", "transposed"])
    def test_non_contiguous_out_is_never_left_unchanged(self, layout, rng):
        base = rng.normal(size=(4, 6))
        out = {"column_slice": base[:, :3], "strided": base[:, ::2],
               "transposed": base[:3].T}[layout]
        values = rng.normal(size=(5, 3))
        idx = np.array([0, 3, 3, 1, 0])
        expected = per_row_scatter(out.copy(), values, idx)
        try:
            kernels.scatter_add_into(out, values, idx)
        except ValueError:
            return
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("layout", ["column_slice", "strided", "transposed"])
    def test_non_contiguous_out_raises_before_writing(self, layout, rng):
        base = rng.normal(size=(4, 6))
        before = base.copy()
        out = {"column_slice": base[:, :3], "strided": base[:, ::2],
               "transposed": base[:3].T}[layout]
        with pytest.raises(ValueError, match="C-contiguous"):
            kernels.scatter_add_into(out, rng.normal(size=(5, 3)),
                                     np.array([0, 3, 3, 1, 0]))
        np.testing.assert_array_equal(bits(base), bits(before))

    @pytest.mark.parametrize("as_indices", [
        list, lambda i: np.asarray(i, dtype=np.int32),
        lambda i: np.asarray(i, dtype=np.uint16),
    ], ids=["list", "int32", "uint16"])
    def test_index_types_give_the_int64_sums(self, as_indices, rng):
        values = rng.normal(size=(30, 5))
        idx = rng.integers(0, 7, size=30)
        ref = kernels.scatter_add_rows(values, idx.astype(np.int64), 7)
        np.testing.assert_array_equal(
            bits(kernels.scatter_add_rows(values, as_indices(idx.tolist()), 7)),
            bits(ref))


def per_segment_mean(values, offsets):
    """Reference: each segment's mean, one segment at a time."""
    out = np.empty((len(offsets) - 1, values.shape[1]))
    for g in range(len(offsets) - 1):
        out[g] = values[offsets[g]:offsets[g + 1]].mean(axis=0)
    return out


def per_segment_mean_grad(grad_out, offsets):
    """Reference: each segment's rows get its gradient over its length."""
    gx = np.empty((offsets[-1], grad_out.shape[1]))
    for g in range(len(offsets) - 1):
        lo, hi = offsets[g], offsets[g + 1]
        gx[lo:hi] = grad_out[g] / (hi - lo)
    return gx


def random_offsets(rng):
    """Offsets of 1-12 segments of 1-6 rows each; a third are one row long."""
    lengths = rng.integers(1, 7, size=rng.integers(1, 13))
    lengths[rng.random(lengths.size) < 1 / 3] = 1
    return np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)


class TestSegmentKernels:
    """The segment kernels equal per-segment loops bit for bit."""

    def test_segment_mean_bitwise_per_segment_loop(self, rng):
        for _ in range(100):
            offsets = random_offsets(rng)
            values = rng.normal(size=(offsets[-1], rng.integers(1, 9)))
            np.testing.assert_array_equal(
                bits(kernels.segment_mean(values, offsets)),
                bits(per_segment_mean(values, offsets)))

    def test_segment_mean_grad_bitwise_per_segment_loop(self, rng):
        for _ in range(100):
            offsets = random_offsets(rng)
            grad_out = rng.normal(size=(len(offsets) - 1, rng.integers(1, 9)))
            np.testing.assert_array_equal(
                bits(kernels.segment_mean_grad(grad_out, offsets)),
                bits(per_segment_mean_grad(grad_out, offsets)))

    def test_segment_mean_grad_is_adjoint_of_segment_mean(self, rng):
        # <segment_mean(x), g> == <x, segment_mean_grad(g)>
        for _ in range(50):
            offsets = random_offsets(rng)
            d = rng.integers(1, 9)
            x = rng.normal(size=(offsets[-1], d))
            g = rng.normal(size=(len(offsets) - 1, d))
            np.testing.assert_allclose(
                np.sum(kernels.segment_mean(x, offsets) * g),
                np.sum(x * kernels.segment_mean_grad(g, offsets)),
                rtol=1e-12, atol=1e-12)


def test_traced_kernel_names_stay():
    """The benchmark's environment fingerprint reads ``USE_NUMBA`` and its
    tracer wraps these four names on the module, so they must stay, and
    they are the module's whole public interface."""
    assert kernels.USE_NUMBA is False
    public = {name for name, value in vars(kernels).items()
              if callable(value) and not name.startswith("_")}
    assert public == {"scatter_add_rows", "scatter_add_into", "segment_mean",
                      "segment_mean_grad"}


def test_message_pass_calls_kernels_through_the_module(monkeypatch):
    """Ops look kernels up on the module at call time, so a wrapper installed
    there sees every call: one scatter-add per message step and direction."""
    from molfuse.autodiff import Tape, backward
    from molfuse.gnn import GnnConfig, GraphBatch, Mpnn
    from molfuse.smiles import parse

    calls = []
    original = kernels.scatter_add_into

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(kernels, "scatter_add_into", counted)
    steps = 3
    model = Mpnn(GnnConfig(hidden_dim=6, message_steps=steps, edge_hidden=5),
                 np.random.default_rng(0))
    batch = GraphBatch.from_graphs([parse(s) for s in ("c1ccccc1O", "CC(=O)N")])
    tape = Tape()
    h = model.run(tape, batch)
    assert len(calls) == steps
    out = tape.apply("segment-mean", h, offsets=batch.offsets)
    backward(tape.apply("sum-over-rows", tape.apply("sum-over-rows", out)), tape)
    assert len(calls) == 2 * steps
