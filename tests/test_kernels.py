import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from molfuse import kernels

SRC = Path(__file__).resolve().parent.parent / "src"


def run_numpy_fallback(code, cwd):
    """Run ``code`` in a fresh interpreter with MOLFUSE_NO_NUMBA=1 and
    molfuse importable only through PYTHONPATH; return its stripped stdout.

    ``cwd`` should lie outside the source tree, so that a cwd-relative
    import cannot hide a wrong PYTHONPATH.
    """
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"MOLFUSE_NO_NUMBA": "1", "PATH": "/usr/bin:/bin",
             "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, cwd=cwd,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


class TestNumpyNumbaAgreement:
    def test_scatter_add_rows(self, rng):
        for _ in range(5):
            k, d, n = rng.integers(1, 40), rng.integers(1, 9), rng.integers(2, 10)
            vals = rng.normal(size=(k, d))
            idx = rng.integers(0, n, size=k)
            a = kernels.scatter_add_rows_np(vals, idx, int(n))
            b = kernels.scatter_add_rows(vals, idx, int(n))
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_scatter_add_into(self, rng):
        out_a = rng.normal(size=(5, 3))
        out_b = out_a.copy()
        vals = rng.normal(size=(9, 3))
        idx = rng.integers(0, 5, size=9)
        kernels.scatter_add_into_np(out_a, vals, idx)
        kernels.scatter_add_into(out_b, vals, idx)
        np.testing.assert_allclose(out_a, out_b, atol=1e-12)

    def test_segment_mean_and_grad(self, rng):
        vals = rng.normal(size=(10, 4))
        offsets = np.array([0, 3, 4, 10])
        a = kernels.segment_mean_np(vals, offsets)
        b = kernels.segment_mean(vals, offsets)
        np.testing.assert_allclose(a, b, atol=1e-14)
        g = rng.normal(size=(3, 4))
        ga = kernels.segment_mean_grad_np(g, offsets, 10)
        gb = kernels.segment_mean_grad(g, offsets, 10)
        np.testing.assert_allclose(ga, gb, atol=1e-14)


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

    @pytest.mark.parametrize("fn", [kernels.scatter_add_rows_np,
                                    kernels.scatter_add_rows])
    def test_scatter_add_rows_bitwise_per_row_loop(self, fn, rng):
        for values, idx, n in scatter_cases(rng):
            ref = per_row_scatter(np.zeros((n, values.shape[1])), values, idx)
            np.testing.assert_array_equal(fn(values, idx, n), ref)

    @pytest.mark.parametrize("fn", [kernels.scatter_add_into_np,
                                    kernels.scatter_add_into])
    def test_scatter_add_into_bitwise_per_row_loop(self, fn, rng):
        for values, idx, n in scatter_cases(rng):
            start = rng.normal(size=(n, values.shape[1]))
            out = start.copy()
            assert fn(out, values, idx) is out
            np.testing.assert_array_equal(
                out, per_row_scatter(start.copy(), values, idx)
            )

    @pytest.mark.parametrize("fn", [kernels.scatter_add_into_np,
                                    kernels.scatter_add_into])
    @pytest.mark.parametrize("layout", ["column_slice", "strided", "transposed"])
    def test_non_contiguous_out_is_never_left_unchanged(self, fn, layout, rng):
        base = rng.normal(size=(4, 6))
        out = {"column_slice": base[:, :3], "strided": base[:, ::2],
               "transposed": base[:3].T}[layout]
        values = rng.normal(size=(5, 3))
        idx = np.array([0, 3, 3, 1, 0])
        expected = per_row_scatter(out.copy(), values, idx)
        try:
            fn(out, values, idx)
        except ValueError:
            return
        np.testing.assert_array_equal(out, expected)


def test_traced_kernel_names_stay():
    """The benchmark's environment fingerprint reads ``USE_NUMBA`` and its
    tracer wraps these four names on the module, so they must stay."""
    assert isinstance(kernels.USE_NUMBA, bool)
    for name in ("scatter_add_rows", "scatter_add_into", "segment_mean",
                 "segment_mean_grad"):
        assert callable(vars(kernels)[name]), name


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


def test_env_flag_disables_numba(tmp_path):
    code = (
        "import molfuse.kernels as k; "
        "print(k._DISABLE, k.USE_NUMBA, "
        "k.scatter_add_rows is k.scatter_add_rows_np)"
    )
    assert run_numpy_fallback(code, tmp_path) == "True False True"


def test_warmup_idempotent():
    kernels.warmup()
    kernels.warmup()


def test_full_suite_runs_on_numpy_fallback(tmp_path):
    """The dispatcher import path is env-dependent; spot-check a forward
    pass under the fallback in a subprocess."""
    code = (
        "import molfuse.kernels as k\n"
        "assert not k.USE_NUMBA\n"
        "import numpy as np\n"
        "from molfuse.integration import IntegratedModel, EncodedMolecule\n"
        "from molfuse.lm import EncoderConfig\n"
        "from molfuse.gnn import GnnConfig\n"
        "from molfuse.smiles import Vocabulary, parse, tokenize\n"
        "from molfuse.autodiff import Tape, backward\n"
        "vocab = Vocabulary.build(['CCO', 'C1CC1'])\n"
        "mols = [EncodedMolecule(parse(s), tokenize(s, vocab), 0.5)"
        " for s in ('CCO', 'C1CC1')]\n"
        "m = IntegratedModel('lm2mpnn', vocab_size=len(vocab), seed=0,\n"
        "    encoder_config=EncoderConfig(vocab_size=len(vocab), hidden_dim=8,"
        " num_layers=1, num_heads=2, ffn_dim=12, max_len=32),\n"
        "    gnn_config=GnnConfig(hidden_dim=8, message_steps=2, edge_hidden=6))\n"
        "tape = Tape()\n"
        "loss, _, _ = m.forward_batch(tape, mols, batch_seed=0)\n"
        "grads = backward(loss, tape)\n"
        "assert np.isfinite(loss.values)\n"
        "print('ok')\n"
    )
    assert run_numpy_fallback(code, tmp_path) == "ok"
