"""Numpy scatter and segment kernels for message passing and readout.

Each kernel is bitwise equal to a loop over rows or segments in
ascending order, so runs are bitwise reproducible.
"""

import numpy as np

# Always False. The benchmark's environment fingerprint (perfbench/worker.py)
# reads it, and the benchmark's tracer (perfbench/tracing.py) wraps the four
# kernels below by these names, so both stay in this module.
USE_NUMBA = False


def scatter_add_rows(values, indices, num_rows):
    """out[indices[k]] += values[k] for every k; out has num_rows rows."""
    out = np.zeros((num_rows, values.shape[1]), dtype=np.float64)
    return scatter_add_into(out, values, indices)


def scatter_add_into(out, values, indices):
    """In-place out[indices[k]] += values[k].

    The 1-D ``np.add.at`` gets the flat positions of the target rows'
    elements, row by row: it adds in the same order as the 2-D row path,
    so the sums are bitwise the same, and numpy runs it far faster.
    """
    if not out.flags.c_contiguous:
        # reshape(-1) would copy, and the sums would land in the copy
        raise ValueError("scatter_add_into: out must be C-contiguous")
    w = out.shape[1]
    rows = np.asarray(indices, dtype=np.int64)
    flat_index = (rows[:, None] * w + np.arange(w)).reshape(-1)
    np.add.at(out.reshape(-1), flat_index, np.ravel(values))
    return out


def segment_mean(values, offsets):
    """Mean over each row block [offsets[g], offsets[g+1])."""
    num_seg = len(offsets) - 1
    out = np.empty((num_seg, values.shape[1]), dtype=np.float64)
    for g in range(num_seg):
        out[g] = values[offsets[g]:offsets[g + 1]].mean(axis=0)
    return out


def segment_mean_grad(grad_out, offsets):
    """Gradient of :func:`segment_mean`: each row gets its block's
    output gradient divided by the block length."""
    counts = np.diff(offsets)
    return np.repeat(grad_out / counts[:, None], counts, axis=0)
