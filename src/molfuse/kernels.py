"""Hot numeric kernels: numba-jitted loops with pure-numpy fallbacks.

The jitted path is used when numba imports cleanly and the environment
variable ``MOLFUSE_NO_NUMBA`` is unset/empty. Both paths accumulate in the
same (ascending) order, so they agree to float64 rounding; within one
process the selected path is fixed, which keeps runs bit-reproducible.
"""

import os

import numpy as np

_DISABLE = bool(os.environ.get("MOLFUSE_NO_NUMBA", ""))

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    _HAVE_NUMBA = False

USE_NUMBA = _HAVE_NUMBA and not _DISABLE


# ---------------------------------------------------------------------------
# pure-numpy reference implementations
# ---------------------------------------------------------------------------

def scatter_add_rows_np(values, indices, num_rows):
    """out[indices[k]] += values[k] for every k; out has num_rows rows."""
    out = np.zeros((num_rows, values.shape[1]), dtype=np.float64)
    return scatter_add_into_np(out, values, indices)


def scatter_add_into_np(out, values, indices):
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


def segment_mean_np(values, offsets):
    """Mean over each row block [offsets[g], offsets[g+1])."""
    num_seg = len(offsets) - 1
    out = np.empty((num_seg, values.shape[1]), dtype=np.float64)
    for g in range(num_seg):
        out[g] = values[offsets[g]:offsets[g + 1]].mean(axis=0)
    return out


def segment_mean_grad_np(grad_out, offsets, num_rows):
    gx = np.empty((num_rows, grad_out.shape[1]), dtype=np.float64)
    for g in range(len(offsets) - 1):
        lo, hi = offsets[g], offsets[g + 1]
        gx[lo:hi] = grad_out[g] / (hi - lo)
    return gx


# ---------------------------------------------------------------------------
# numba kernels (same accumulation order as the numpy path)
# ---------------------------------------------------------------------------

if _HAVE_NUMBA:

    @njit(cache=True)
    def _scatter_add_rows_nb(values, indices, num_rows):
        out = np.zeros((num_rows, values.shape[1]))
        for k in range(values.shape[0]):
            r = indices[k]
            for j in range(values.shape[1]):
                out[r, j] += values[k, j]
        return out

    @njit(cache=True)
    def _scatter_add_into_nb(out, values, indices):
        for k in range(values.shape[0]):
            r = indices[k]
            for j in range(values.shape[1]):
                out[r, j] += values[k, j]
        return out

    @njit(cache=True)
    def _segment_mean_nb(values, offsets):
        num_seg = offsets.shape[0] - 1
        d = values.shape[1]
        out = np.zeros((num_seg, d))
        for g in range(num_seg):
            lo, hi = offsets[g], offsets[g + 1]
            for i in range(lo, hi):
                for j in range(d):
                    out[g, j] += values[i, j]
            inv = 1.0 / (hi - lo)
            for j in range(d):
                out[g, j] *= inv
        return out

    @njit(cache=True)
    def _segment_mean_grad_nb(grad_out, offsets, num_rows):
        d = grad_out.shape[1]
        gx = np.empty((num_rows, d))
        for g in range(offsets.shape[0] - 1):
            lo, hi = offsets[g], offsets[g + 1]
            inv = 1.0 / (hi - lo)
            for i in range(lo, hi):
                for j in range(d):
                    gx[i, j] = grad_out[g, j] * inv
        return gx


def _as_i64(x):
    return np.ascontiguousarray(x, dtype=np.int64)


if USE_NUMBA:

    def scatter_add_rows(values, indices, num_rows):
        return _scatter_add_rows_nb(
            np.ascontiguousarray(values), _as_i64(indices), num_rows
        )

    def scatter_add_into(out, values, indices):
        return _scatter_add_into_nb(out, np.ascontiguousarray(values), _as_i64(indices))

    def segment_mean(values, offsets):
        return _segment_mean_nb(np.ascontiguousarray(values), _as_i64(offsets))

    def segment_mean_grad(grad_out, offsets, num_rows):
        return _segment_mean_grad_nb(
            np.ascontiguousarray(grad_out), _as_i64(offsets), num_rows
        )

else:
    scatter_add_rows = scatter_add_rows_np
    scatter_add_into = scatter_add_into_np
    segment_mean = segment_mean_np
    segment_mean_grad = segment_mean_grad_np


def warmup():
    """Trigger jit compilation so timed code never pays the compile cost."""
    if not USE_NUMBA:
        return
    v = np.ones((3, 2))
    idx = np.array([0, 1, 0], dtype=np.int64)
    scatter_add_rows(v, idx, 2)
    scatter_add_into(np.zeros((2, 2)), v, idx)
    off = np.array([0, 2, 3], dtype=np.int64)
    segment_mean(v, off)
    segment_mean_grad(np.ones((2, 2)), off, 3)
