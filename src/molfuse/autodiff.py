"""Reverse-mode automatic differentiation over float64 numpy buffers.

A :class:`Tape` records operations as they execute; :func:`backward` walks
the record list once in reverse, consuming it, and accumulates gradients per
node id.
Tapes are rebuilt for every forward pass, so the seven model wirings in
this package need no graph compiler. Everything is float64 and
deterministic given identical input bits.

Op kinds
--------
add, subtract, multiply, matmul, concat-last-axis, elementwise-max, relu,
sigmoid, tanh, packed-attention, layer-normalize, sum-over-rows,
gather-rows, scatter-add-rows, segment-mean, typed-edge-message,
p-norm-of-difference, squared-error, binary-cross-entropy-with-logit,
cross-entropy-with-logits.

``matmul`` takes an optional third input, a bias row added to every output
row; ``layer-normalize`` takes an optional fourth input, a residual added
to x before normalizing. Both save a tape record and a buffer over the
separate add.

``add``, ``subtract`` and ``multiply`` broadcast a scalar (0-d) operand
that needs no gradient (a constant); all other shape combinations must
match exactly, so each input's gradient has its input's shape.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import kernels

_node_ids = itertools.count()

_NORM_EPS = 1e-12
_LN_EPS = 1e-5


class ShapeError(ValueError):
    """Raised when operand shapes or the input count are invalid for an op
    kind; ``problem`` replaces the default text naming the shapes."""

    def __init__(self, kind, *shapes, problem=None):
        if problem is None:
            problem = f"incompatible shapes {' and '.join(str(s) for s in shapes)}"
        super().__init__(f"op '{kind}': {problem}")


class Tensor:
    """Value node of the computation graph.

    ``values`` is a float64 ndarray (row-major) and ``node_id`` is unique
    per tensor; gradients live only in the dict :func:`backward` returns.
    The ``__dict__`` slot lets a caller set attributes of its own: the
    benchmark's gradient check (``perfbench/checks.py``) still resets a
    per-tensor scan mark that the tape no longer keeps.
    """

    __slots__ = ("values", "node_id", "requires_grad", "name", "__dict__")

    def __init__(self, values, requires_grad=False, name=None):
        self.values = np.asarray(values, dtype=np.float64)
        self.node_id = next(_node_ids)
        self.requires_grad = requires_grad
        self.name = name

    @property
    def shape(self):
        return self.values.shape

    def __repr__(self):
        label = self.name or f"node{self.node_id}"
        return f"Tensor({label}, shape={self.values.shape}, requires_grad={self.requires_grad})"


def parameter(values, name=None):
    return Tensor(values, requires_grad=True, name=name)


def constant(values):
    return Tensor(values, requires_grad=False)


@dataclass
class Tape:
    """Ordered operation record; inputs always precede their consumers.

    ``records`` holds one ``(output node_id, backward closure)`` pair per
    recorded op; ``watched`` holds the tape's leaves: the requires-grad
    inputs that no record produced (parameters, gradient-check inputs).
    With ``grad_enabled=False`` the tape validates and computes but records
    nothing (used for evaluation passes). :func:`backward` consumes the
    tape; it cannot be walked twice.

    By default no op scans its inputs for NaN or inf; :func:`checked`
    tests a computation's one result and replays it on a ``check=True``
    tape when that is not finite.
    """

    grad_enabled: bool = True
    check: bool = False
    records: list = field(default_factory=list)
    watched: dict = field(default_factory=dict)  # node_id -> leaf Tensor
    produced: set = field(default_factory=set, repr=False)  # record output ids
    consumed: bool = False

    def apply(self, kind, *inputs, **kwargs):
        op = _OPS.get(kind)
        if op is None:
            raise KeyError(f"unknown op kind '{kind}'")
        arity = _ARITY[kind]
        if len(inputs) not in arity:
            raise ShapeError(kind, problem=(
                f"takes {' or '.join(map(str, arity))} "
                f"input{'s' if max(arity) > 1 else ''}, got {len(inputs)}"
            ))
        if self.check:
            for t in inputs:
                if np.isnan(t.values).any():
                    raise FloatingPointError(f"op '{kind}': NaN in input values")
                if not np.isfinite(t.values).all():
                    raise FloatingPointError(f"op '{kind}': non-finite input values")
        out_values, backward_fn = op(inputs, kwargs)
        track = self.grad_enabled and any(t.requires_grad for t in inputs)
        out = Tensor(out_values, requires_grad=track)
        if track:
            watched, produced = self.watched, self.produced
            for t in inputs:
                nid = t.node_id
                if t.requires_grad and nid not in produced and nid not in watched:
                    watched[nid] = t
            self.records.append((out.node_id, backward_fn))
            produced.add(out.node_id)
        return out


def checked(run, tape, what):
    """``run(tape)``, a Tensor, after one test that its values are finite.

    When one is NaN or infinite, ``run`` runs again on a checking tape that
    records nothing, whose ``apply`` raises ``FloatingPointError`` naming
    the first op kind that receives a non-finite input; if no op does, this
    raises ``FloatingPointError(f"non-finite {what}")``. ``run`` must
    repeat the same computation (same seeds, weights not yet stepped).
    """
    out = run(tape)
    if not np.isfinite(out.values).all():
        run(Tape(grad_enabled=False, check=True))
        raise FloatingPointError(f"non-finite {what}")
    return out


def backward(loss, tape):
    """Gradient of a scalar loss w.r.t. every leaf of the tape.

    Consumes the tape: records are popped as they run and each
    intermediate gradient is dropped once its record has used it, so the
    buffers the forward saved are freed during the walk. Returns a dict
    keyed by the node_id of each leaf in ``tape.watched``; leaves that do
    not feed the loss get exactly-zero gradients. Intermediate tensors get
    no gradient.
    """
    if loss.values.shape != ():
        raise ValueError(
            f"backward requires a scalar loss, got shape {loss.values.shape}"
        )
    if tape.consumed:
        raise RuntimeError("backward: the tape was consumed by an earlier backward")
    tape.consumed = True
    grads = {loss.node_id: np.ones((), dtype=np.float64)}
    owned = {loss.node_id}

    def accumulate(nid, grad):
        # copy-on-write: single-consumer nodes keep the incoming buffer
        # (possibly a view); a second contribution forces an owned copy
        # before the in-place add so no shared buffer is ever mutated.
        entry = grads.get(nid)
        if entry is None:
            grads[nid] = grad
        else:
            if nid not in owned:
                entry = np.array(entry, dtype=np.float64)
                grads[nid] = entry
                owned.add(nid)
            entry += grad

    records = tape.records
    while records:
        output_id, backward_fn = records.pop()
        grad_out = grads.pop(output_id, None)
        if grad_out is not None:
            owned.discard(output_id)
            backward_fn(grad_out, accumulate)

    result = {}
    for node_id, tensor in tape.watched.items():
        grad = grads.get(node_id)
        result[node_id] = np.zeros_like(tensor.values) if grad is None else grad
    return result


# ---------------------------------------------------------------------------
# op implementations: each returns (output values, backward closure)
#
# A closure calls acc(node_id, gradient) once per input that requires a
# gradient, and computes nothing for the others. It keeps an input Tensor
# only where its backward reads that input's values; otherwise it keeps
# the node id and the shapes it needs, so the forward's other buffers can
# be freed as soon as nothing else holds them.
# ---------------------------------------------------------------------------

_OPS = {}
_ARITY = {}  # kind -> the input counts Tape.apply accepts


def _register(kind, *arity):
    def deco(fn):
        _OPS[kind] = fn
        _ARITY[kind] = arity
        return fn

    return deco


def _segments(kind, offsets, x):
    """``offsets`` as int64, after one check that they cut the rows of the
    2-D input ``x`` into consecutive non-empty segments."""
    offsets = np.asarray(offsets, dtype=np.int64)
    if (x.values.ndim != 2 or offsets.ndim != 1 or len(offsets) < 2
            or offsets[0] != 0 or offsets[-1] != x.shape[0]):
        raise ShapeError(kind, x.shape, offsets.shape)
    if (np.diff(offsets) <= 0).any():
        raise ValueError(f"{kind}: empty or non-increasing segment")
    return offsets


def _rows(kind, indices, num_rows):
    """``indices`` as int64, after one check that each names one of
    ``num_rows`` rows; an empty array is valid."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= num_rows):
        raise IndexError(f"{kind}: index out of range for {num_rows} rows")
    return idx


def _grad_id(t):
    """node_id of an input that needs a gradient, else None."""
    return t.node_id if t is not None and t.requires_grad else None


def _kept(t, reader_id):
    """``t`` when the gradient of node ``reader_id`` reads its values."""
    return t if reader_id is not None else None


def _elementwise_shapes(kind, a, b):
    # a 0-d constant broadcasts; otherwise shapes must match
    if a.shape != b.shape and not any(
            t.shape == () and not t.requires_grad for t in (a, b)):
        raise ShapeError(kind, a.shape, b.shape)


@_register("add", 2)
def _op_add(inputs, kw):
    a, b = inputs
    _elementwise_shapes("add", a, b)
    ia, ib = _grad_id(a), _grad_id(b)

    def bwd(g, acc):
        if ia is not None:
            acc(ia, g)
        if ib is not None:
            acc(ib, g)

    return a.values + b.values, bwd


@_register("subtract", 2)
def _op_subtract(inputs, kw):
    a, b = inputs
    _elementwise_shapes("subtract", a, b)
    ia, ib = _grad_id(a), _grad_id(b)

    def bwd(g, acc):
        if ia is not None:
            acc(ia, g)
        if ib is not None:
            acc(ib, -g)

    return a.values - b.values, bwd


@_register("multiply", 2)
def _op_multiply(inputs, kw):
    a, b = inputs
    _elementwise_shapes("multiply", a, b)
    ia, ib = _grad_id(a), _grad_id(b)
    ka, kb = _kept(a, ib), _kept(b, ia)

    def bwd(g, acc):
        if ia is not None:
            acc(ia, g * kb.values)
        if ib is not None:
            acc(ib, g * ka.values)

    return a.values * b.values, bwd


@_register("matmul", 2, 3)
def _op_matmul(inputs, kw):
    """a @ b, plus ``bias`` broadcast over the rows when a third input is
    given (the bias is added in place to the product)."""
    a, b = inputs[:2]
    bias = inputs[2] if len(inputs) == 3 else None
    if (
        a.values.ndim != 2
        or b.values.ndim != 2
        or a.shape[1] != b.shape[0]
        or (bias is not None and bias.shape != (b.shape[1],))
    ):
        raise ShapeError("matmul", *[t.shape for t in inputs])
    ia, ib, ibias = _grad_id(a), _grad_id(b), _grad_id(bias)
    ka, kb = _kept(a, ib), _kept(b, ia)
    out = a.values @ b.values
    if bias is not None:
        out += bias.values

    def bwd(g, acc):
        if ibias is not None:
            acc(ibias, g.sum(axis=0))
        if ia is not None:
            acc(ia, g @ kb.values.T)
        if ib is not None:
            acc(ib, ka.values.T @ g)

    return out, bwd


@_register("concat-last-axis", 2)
def _op_concat_last(inputs, kw):
    a, b = inputs
    if a.values.ndim != b.values.ndim or a.shape[:-1] != b.shape[:-1]:
        raise ShapeError("concat-last-axis", a.shape, b.shape)
    wa = a.shape[-1]
    ia, ib = _grad_id(a), _grad_id(b)

    def bwd(g, acc):
        if ia is not None:
            acc(ia, g[..., :wa])
        if ib is not None:
            acc(ib, g[..., wa:])

    return np.concatenate([a.values, b.values], axis=-1), bwd


@_register("elementwise-max", 2)
def _op_max(inputs, kw):
    a, b = inputs
    if a.shape != b.shape:
        raise ShapeError("elementwise-max", a.shape, b.shape)
    take_a = a.values >= b.values  # ties route to the first operand
    ia, ib = _grad_id(a), _grad_id(b)

    def bwd(g, acc):
        if ia is not None:
            acc(ia, g * take_a)
        if ib is not None:
            acc(ib, g * ~take_a)

    return np.maximum(a.values, b.values), bwd


@_register("relu", 1)
def _op_relu(inputs, kw):
    x = inputs[0]
    ix = x.node_id
    out = np.maximum(x.values, 0.0)

    def bwd(g, acc):
        # out > 0 exactly where the input is; the gradient at 0 is 0
        acc(ix, g * (out > 0.0))

    return out, bwd


@_register("sigmoid", 1)
def _op_sigmoid(inputs, kw):
    x = inputs[0]
    ix = x.node_id
    v = x.values
    e = np.exp(-np.abs(v))  # in [0, 1]: never overflows
    denom = 1.0 + e
    # numerator 1 where v >= 0, else e: e <= 1 makes max(e, 1) exactly 1
    # and max(e, 0) exactly e, so no select is needed
    out = np.maximum(e, v >= 0)
    out /= denom

    def bwd(g, acc):
        acc(ix, g * out * (1.0 - out))

    return out, bwd


@_register("tanh", 1)
def _op_tanh(inputs, kw):
    x = inputs[0]
    ix = x.node_id
    out = np.tanh(x.values)

    def bwd(g, acc):
        acc(ix, g * (1.0 - out * out))

    return out, bwd


@_register("packed-attention", 1)
def _op_packed_attention(inputs, kw):
    """Scaled dot-product self-attention over a packed batch, heads fused.

    ``qkv`` is (rows x 3d): the [q | k | v] projections of every packed
    row, each part holding ``num_heads`` column blocks of width d / heads.
    Sequence i owns rows offsets[i]:offsets[i + 1] and attends only to
    those rows, so no padding and no mask is involved; the output is the
    (rows x d) head-concatenated context.
    """
    qkv = inputs[0]
    offsets = _segments("packed-attention", kw["offsets"], qkv)
    heads = int(kw["num_heads"])
    if heads < 1 or qkv.shape[1] % (3 * heads):
        raise ShapeError("packed-attention", qkv.shape, offsets.shape)
    iqkv = qkv.node_id
    rows, d = qkv.shape[0], qkv.shape[1] // 3
    dk = d // heads
    scale = 1.0 / np.sqrt(dk)
    out = np.empty((rows, d), dtype=np.float64)
    saved = []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        # (L, 3d) -> (3, heads, L, dk): q, k and v with the heads batched
        q, k, v = qkv.values[lo:hi].reshape(hi - lo, 3, heads, dk).transpose(1, 2, 0, 3)
        z = q @ k.transpose(0, 2, 1)
        z *= scale
        z -= z.max(axis=-1, keepdims=True)
        probs = np.exp(z, out=z)
        probs /= probs.sum(axis=-1, keepdims=True)
        # the context goes straight into its (heads, L, dk) view of out
        context = out[lo:hi].reshape(hi - lo, heads, dk).transpose(1, 0, 2)
        np.matmul(probs, v, out=context)
        saved.append((q, k, v, probs))

    def bwd(g, acc):
        grad = np.empty((rows, 3 * d), dtype=np.float64)
        for lo, hi, (q, k, v, probs) in zip(offsets[:-1], offsets[1:], saved):
            length = hi - lo
            gc = g[lo:hi].reshape(length, heads, dk).transpose(1, 0, 2)
            # (heads, L, dk) views of this sequence's [gq | gk | gv] columns
            gq, gk, gv = grad[lo:hi].reshape(length, 3, heads, dk).transpose(
                1, 2, 0, 3
            )
            np.matmul(probs.transpose(0, 2, 1), gc, out=gv)
            # gz = probs * (gp - sum(gp * probs)) * scale with gp = gc @ v^T,
            # built in gp's buffer
            gz = gc @ v.transpose(0, 2, 1)
            gz -= (gz * probs).sum(axis=-1, keepdims=True)
            gz *= probs
            gz *= scale
            np.matmul(gz, k, out=gq)
            np.matmul(gz.transpose(0, 2, 1), q, out=gk)
        acc(iqkv, grad)

    return out, bwd


@_register("layer-normalize", 3, 4)
def _op_layer_norm(inputs, kw):
    """Layer norm over the last axis of x, or of x + residual when a
    fourth input is given (a post-LN block's skip connection)."""
    x, gain, bias = inputs[:3]
    residual = inputs[3] if len(inputs) == 4 else None
    d = x.shape[-1]
    if (
        gain.shape != (d,)
        or bias.shape != (d,)
        or (residual is not None and residual.shape != x.shape)
    ):
        raise ShapeError("layer-normalize", *[t.shape for t in inputs])
    ix, igain, ibias, ires = (_grad_id(t) for t in (x, gain, bias, residual))
    need_gx = ix is not None or ires is not None
    kgain = gain if need_gx else None
    if residual is None:
        centered = x.values - x.values.mean(axis=-1, keepdims=True)
    else:
        centered = x.values + residual.values
        centered -= centered.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    out = centered * inv
    out *= gain.values
    out += bias.values
    axes = tuple(range(x.values.ndim - 1))

    def bwd(g, acc):
        if need_gx:
            # gx = gx_hat * inv + gvar * 2 centered / d + gmu / d, with
            # gmu = sum(-gx_hat * inv) + gvar * (-2 mean(centered)); negating
            # after the product and the sum rounds the same
            gx = g * kgain.values
            term = gx * centered
            gvar = term.sum(axis=-1, keepdims=True) * (-0.5) * inv**3
            gx *= inv
            gmu = -gx.sum(axis=-1, keepdims=True) + gvar * (
                -2.0 * centered.mean(axis=-1, keepdims=True)
            )
            np.multiply(gvar * 2.0, centered, out=term)
            term /= d
            gx += term
            gx += gmu / d
            if ix is not None:
                acc(ix, gx)
            if ires is not None:
                acc(ires, gx)
        if igain is not None:
            g_xhat = g * (centered * inv)
            acc(igain, g_xhat.sum(axis=axes) if axes else g_xhat)
        if ibias is not None:
            acc(ibias, g.sum(axis=axes) if axes else g)

    return out, bwd


@_register("sum-over-rows", 1)
def _op_sum_rows(inputs, kw):
    x = inputs[0]
    if x.values.ndim not in (1, 2):
        raise ShapeError("sum-over-rows", x.shape)
    ix, shape = x.node_id, x.shape

    def bwd(g, acc):
        acc(ix, np.broadcast_to(np.asarray(g), shape).copy())

    return x.values.sum(axis=0), bwd


@_register("gather-rows", 1)
def _op_gather_rows(inputs, kw):
    x = inputs[0]
    if x.values.ndim != 2:
        raise ShapeError("gather-rows", x.shape)
    ix, num_rows = x.node_id, x.shape[0]
    idx = _rows("gather-rows", kw["indices"], num_rows)

    def bwd(g, acc):
        acc(ix, kernels.scatter_add_rows(np.ascontiguousarray(g), idx, num_rows))

    return x.values[idx], bwd


@_register("scatter-add-rows", 1)
def _op_scatter_rows(inputs, kw):
    x = inputs[0]
    num_rows = int(kw["num_rows"])
    idx = _rows("scatter-add-rows", kw["indices"], num_rows)
    if x.values.ndim != 2 or idx.shape != (x.shape[0],):
        raise ShapeError("scatter-add-rows", x.shape, idx.shape)
    ix = x.node_id

    def bwd(g, acc):
        acc(ix, np.ascontiguousarray(g)[idx])

    return kernels.scatter_add_rows(np.ascontiguousarray(x.values), idx, num_rows), bwd


@_register("segment-mean", 1)
def _op_segment_mean(inputs, kw):
    x = inputs[0]
    offsets = _segments("segment-mean", kw["offsets"], x)
    ix = x.node_id

    def bwd(g, acc):
        acc(ix, kernels.segment_mean_grad(np.ascontiguousarray(g), offsets))

    return kernels.segment_mean(np.ascontiguousarray(x.values), offsets), bwd


@_register("typed-edge-message", 2)
def _op_typed_edge_message(inputs, kw):
    """Edge-conditioned messages m[dst[e]] += A_type(e) @ h[src[e]].

    a_types holds one flattened (w x w) matrix per edge type; ``src`` and
    ``dst`` list the edges grouped by type, with ``bounds`` delimiting the
    groups. The source rows are gathered once, each type's messages are
    one BLAS matmul into a shared (E x w) buffer, and one scatter-add sums
    the buffer into the destinations, in edge order. The backward pass
    mirrors it with one scatter-add into the sources.
    """
    a_types, h = inputs
    bounds = np.asarray(kw["bounds"], dtype=np.int64)
    num_types = len(bounds) - 1
    if (
        h.values.ndim != 2
        or a_types.shape != (num_types, h.shape[1] ** 2)
        or len(kw["src"]) != len(kw["dst"])
        or bounds[-1] != len(kw["src"])
    ):
        raise ShapeError("typed-edge-message", a_types.shape, h.shape)
    n, w = h.shape
    src = _rows("typed-edge-message", kw["src"], n)
    dst = _rows("typed-edge-message", kw["dst"], n)
    ia, ih = _grad_id(a_types), _grad_id(h)
    # the type matrices' gradient reads h, the states' gradient reads them
    ka, kh = _kept(a_types, ih), _kept(h, ia)
    mats = a_types.values.reshape(num_types, w, w)
    h_src = h.values[src]
    msgs = np.empty_like(h_src)
    for k in range(num_types):
        lo, hi = bounds[k], bounds[k + 1]
        np.matmul(h_src[lo:hi], mats[k].T, out=msgs[lo:hi])
    out = kernels.scatter_add_rows(msgs, dst, n)

    def bwd(g, acc):
        # gathered again rather than kept, so the tape holds no (E x w) rows
        g_dst = np.ascontiguousarray(g)[dst]
        if ia is not None:
            h_src = kh.values[src]
            grad_a = np.zeros((num_types, w * w), dtype=np.float64)
            for k in range(num_types):
                lo, hi = bounds[k], bounds[k + 1]
                grad_a[k] = (g_dst[lo:hi].T @ h_src[lo:hi]).reshape(-1)
            del h_src  # so ``back`` below can take its place in the heap
            acc(ia, grad_a)
        if ih is not None:
            mats = ka.values.reshape(num_types, w, w)
            back = np.empty_like(g_dst)
            for k in range(num_types):
                lo, hi = bounds[k], bounds[k + 1]
                np.matmul(g_dst[lo:hi], mats[k], out=back[lo:hi])
            acc(ih, kernels.scatter_add_rows(back, src, n))

    return out, bwd


@_register("p-norm-of-difference", 2)
def _op_pnorm_diff(inputs, kw):
    a, b = inputs
    if a.shape != b.shape or a.values.ndim not in (1, 2):
        raise ShapeError("p-norm-of-difference", a.shape, b.shape)
    ia, ib = _grad_id(a), _grad_id(b)
    diff = a.values - b.values
    norm = np.sqrt((diff * diff).sum(axis=-1))

    def bwd(g, acc):
        safe = np.maximum(norm, _NORM_EPS)
        scale = np.asarray(g) / safe
        if diff.ndim == 2:
            scale = scale[:, None]
        if ia is not None:
            acc(ia, scale * diff)
        if ib is not None:
            acc(ib, -scale * diff)

    return norm, bwd


@_register("squared-error", 2)
def _op_squared_error(inputs, kw):
    pred, target = inputs
    if pred.shape != target.shape:
        raise ShapeError("squared-error", pred.shape, target.shape)
    ip, it = _grad_id(pred), _grad_id(target)
    diff = pred.values - target.values

    def bwd(g, acc):
        if ip is not None:
            acc(ip, 2.0 * g * diff)
        if it is not None:
            acc(it, -2.0 * g * diff)

    return np.asarray((diff * diff).sum()), bwd


@_register("binary-cross-entropy-with-logit", 2)
def _op_bce_logit(inputs, kw):
    logit, target = inputs
    if logit.shape != target.shape:
        raise ShapeError("binary-cross-entropy-with-logit", logit.shape, target.shape)
    il, it = _grad_id(logit), _grad_id(target)
    z, y = logit.values, target.values
    loss = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    # the logit's gradient reads sigmoid(z) - y, the target's reads z
    err = 1.0 / (1.0 + np.exp(-z)) - y if il is not None else None
    kz = z if it is not None else None

    def bwd(g, acc):
        if il is not None:
            acc(il, g * err)
        if it is not None:
            acc(it, g * (-kz))

    return np.asarray(loss.sum()), bwd


@_register("cross-entropy-with-logits", 1)
def _op_ce_logits(inputs, kw):
    logits = inputs[0]
    ids = np.asarray(kw["target_ids"], dtype=np.int64)
    if logits.values.ndim != 2 or ids.shape != (logits.shape[0],):
        raise ShapeError("cross-entropy-with-logits", logits.shape, ids.shape)
    il = logits.node_id
    z = logits.values
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    denom = ez.sum(axis=1, keepdims=True)
    log_probs = (z - zmax) - np.log(denom)
    picked = log_probs[np.arange(len(ids)), ids]
    probs = ez / denom

    def bwd(g, acc):
        gz = probs.copy()
        gz[np.arange(len(ids)), ids] -= 1.0
        acc(il, np.asarray(g) * gz)

    return np.asarray(-picked.sum()), bwd


OP_KINDS = tuple(sorted(_OPS))


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

@dataclass
class GradCheckEntry:
    kind: str
    shapes: tuple
    max_rel_error: float


@dataclass
class GradCheckReport:
    tolerance: float
    entries: list = field(default_factory=list)

    def max_error(self, kind=None):
        errs = [e.max_rel_error for e in self.entries if kind is None or e.kind == kind]
        return max(errs) if errs else 0.0

    @property
    def passed(self):
        return all(e.max_rel_error < self.tolerance for e in self.entries)


def max_relative_error(analytic, numeric, floor=1e-3):
    """Largest |a - n| / max(|a|, |n|, floor) over two same-shape arrays
    (0 for empty ones); the floor keeps near-zero grads sane."""
    denom = np.maximum(np.abs(analytic), np.maximum(np.abs(numeric), floor))
    return float((np.abs(analytic - numeric) / denom).max(initial=0.0))


def fd_gradients(fn, tensors, h=1e-5):
    """Central finite differences of scalar fn() w.r.t. each tensor's values."""
    grads = []
    for t in tensors:
        flat = t.values.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = float(fn())
            flat[i] = keep - h
            down = float(fn())
            flat[i] = keep
            g[i] = (up - down) / (2.0 * h)
        grads.append(g.reshape(t.values.shape))
    return grads


def _scalarize(tape, out, projection):
    proj = constant(projection)
    prod = tape.apply("multiply", out, proj)
    flat = prod
    while flat.values.ndim > 0:
        flat = tape.apply("sum-over-rows", flat)
    return flat


def gradient_error(run, leaves, h=1e-5):
    """Max relative error of the taped gradients of ``leaves`` vs central
    finite differences; ``run()`` records a fresh forward and returns
    ``(scalar loss, tape)``."""
    loss, tape = run()
    grads = backward(loss, tape)
    numeric = fd_gradients(lambda: run()[0].values, leaves, h=h)
    return max(
        max_relative_error(grads[t.node_id], num)
        for t, num in zip(leaves, numeric)
    )


def check_op_gradient(kind, tensors, kwargs=None, h=1e-5, rng=None):
    """Max relative error of one op's analytic gradient vs central FD."""
    kwargs = kwargs or {}
    rng = rng or np.random.default_rng(0)

    sample = Tape(grad_enabled=False).apply(
        kind, *[constant(t.values) for t in tensors], **kwargs
    )
    projection = rng.normal(size=sample.values.shape)

    def run():
        tape = Tape()
        out = tape.apply(kind, *tensors, **kwargs)
        return _scalarize(tape, out, projection), tape

    return gradient_error(run, tensors, h=h)


def _trial_inputs(kind, shape, rng, trial=0):
    """Random inputs/kwargs for one gradient-check trial of ``kind``.

    Kinked ops are sampled away from their kinks so central differences
    are valid: relu/max-type inputs keep |margin| >= 1e-3 and norm inputs
    stay well separated. Odd trials give ``matmul`` its bias and
    ``layer-normalize`` its residual, so a sweep covers both arities.
    """
    def rand(s):
        return parameter(rng.normal(size=s))

    n = shape[0] if shape else 2
    d = shape[1] if len(shape) > 1 else 3
    if kind in ("add", "subtract", "multiply", "elementwise-max"):
        a, b = rand(shape), rand(shape)
        if kind == "elementwise-max":
            gap = np.sign(a.values - b.values)
            gap[gap == 0] = 1.0
            a.values += 2e-3 * gap
        return [a, b], {}
    if kind == "matmul":
        k = d + 1
        bias = [rand((d,))] if trial % 2 else []
        return [rand((n, k)), rand((k, d))] + bias, {}
    if kind in ("concat-last-axis",):
        return [rand((n, d)), rand((n, d + 1))], {}
    if kind == "relu":
        x = rand(shape)
        x.values = np.sign(x.values) * (np.abs(x.values) + 1e-3)
        return [x], {}
    if kind in ("sigmoid", "tanh"):
        return [rand(shape)], {}
    if kind == "packed-attention":
        # three sequences, one of a single row; two heads of width d
        lengths = [1, n, 2]
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        return [rand((int(offsets[-1]), 3 * 2 * d))], {
            "offsets": offsets, "num_heads": 2,
        }
    if kind == "layer-normalize":
        residual = [rand((n, d))] if trial % 2 else []
        return [rand((n, d)), rand((d,)), rand((d,))] + residual, {}
    if kind == "sum-over-rows":
        return [rand((n, d))], {}
    if kind == "gather-rows":
        idx = rng.integers(0, n, size=n + 2)
        return [rand((n, d))], {"indices": idx}
    if kind == "scatter-add-rows":
        rows = n + 1
        idx = rng.integers(0, rows, size=n)
        return [rand((n, d))], {"indices": idx, "num_rows": rows}
    if kind == "segment-mean":
        cut = rng.integers(1, n) if n > 1 else 1
        offsets = [0, int(cut), n] if n > 1 else [0, 1]
        return [rand((n, d))], {"offsets": np.array(offsets)}
    if kind == "typed-edge-message":
        num_edges = n + 2
        num_types = 2
        src = rng.integers(0, n, size=num_edges)
        dst = rng.integers(0, n, size=num_edges)
        type_idx = rng.integers(0, num_types, size=num_edges)
        counts = np.bincount(type_idx, minlength=num_types)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        return (
            [rand((num_types, d * d)), rand((n, d))],
            {"src": src, "dst": dst, "bounds": bounds},
        )
    if kind == "p-norm-of-difference":
        a, b = rand((n, d)), rand((n, d))
        b.values = a.values + np.sign(b.values - a.values + 0.5) * (
            np.abs(b.values - a.values) + 0.2
        )
        return [a, b], {}
    if kind == "squared-error":
        return [rand((n, d)), rand((n, d))], {}
    if kind == "binary-cross-entropy-with-logit":
        y = parameter((rng.random((n, 1)) > 0.5).astype(np.float64))
        return [rand((n, 1)), y], {}
    if kind == "cross-entropy-with-logits":
        ids = rng.integers(0, d, size=n)
        return [rand((n, d))], {"target_ids": ids}
    raise KeyError(f"no trial recipe for op kind '{kind}'")


def check_gradients(kinds=OP_KINDS, trials=10, tolerance=1e-4, seed=1234):
    """Finite-difference sweep over op kinds, ``trials`` random base
    (rows, cols) shapes per kind; failures land in the report."""
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    report = GradCheckReport(tolerance=tolerance)
    for kind in kinds:
        shapes = [
            (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            for _ in range(trials)
        ]
        for trial, shape in enumerate(shapes):
            tensors, kwargs = _trial_inputs(kind, shape, rng, trial)
            err = check_op_gradient(kind, tensors, kwargs, rng=rng)
            report.entries.append(
                GradCheckEntry(kind, tuple(t.shape for t in tensors), err)
            )
    return report
