"""Adam optimizer with bias correction, keyed by parameter node ids."""

import numpy as np


class AdamState:
    """The parameters it steps (those of ``params`` that require a
    gradient), their first/second moment buffers and the shared step
    counter t."""

    def __init__(self, params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = [p for p in params if p.requires_grad]
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {p.node_id: np.zeros_like(p.values) for p in self.params}
        self.v = {p.node_id: np.zeros_like(p.values) for p in self.params}


def adam_step(state, grads):
    """One in-place Adam update of ``state.params``; t increments exactly
    once per call.

    ``grads`` maps node_id -> gradient array (the output of backward()). A
    parameter with no entry, one that fed no recorded op, steps with an
    exactly-zero gradient; a present entry must match its parameter's shape.
    """
    params = state.params
    for p in params:
        g = grads.get(p.node_id)
        if g is not None and g.shape != p.values.shape:
            label = p.name or f"node{p.node_id}"
            raise ValueError(
                f"gradient shape {g.shape} does not match "
                f"parameter '{label}' shape {p.values.shape}"
            )
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1**state.t
    bias2 = 1.0 - b2**state.t
    for p in params:
        g = grads.get(p.node_id)
        if g is None:
            g = np.zeros_like(p.values)
        m = state.m[p.node_id]
        v = state.v[p.node_id]
        # two temporaries per parameter, in the operation order of
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2;
        # p -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
        step = np.multiply(1.0 - b1, g, out=np.empty_like(m))
        m *= b1
        m += step
        np.multiply(g, g, out=step)
        step *= 1.0 - b2
        v *= b2
        v += step
        denom = np.divide(v, bias2, out=np.empty_like(v))
        np.sqrt(denom, out=denom)
        denom += state.eps
        np.divide(m, bias1, out=step)
        np.multiply(state.lr, step, out=step)
        step /= denom
        p.values -= step
