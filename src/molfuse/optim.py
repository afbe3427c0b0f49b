"""Adam optimizer with bias correction, keyed by parameter node ids."""

import numpy as np


class GradientMissing(KeyError):
    pass


class AdamState:
    """First/second moment buffers plus the shared step counter t."""

    def __init__(self, params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {p.node_id: np.zeros_like(p.values) for p in params}
        self.v = {p.node_id: np.zeros_like(p.values) for p in params}


def complete_gradients(params, grads):
    """``grads`` with an exactly-zero array for each parameter it lacks (one
    that fed no recorded op); every present gradient is passed through."""
    full = {}
    for p in params:
        g = grads.get(p.node_id)
        full[p.node_id] = np.zeros_like(p.values) if g is None else g
    return full


def adam_step(params, grads, state):
    """One in-place Adam update; t increments exactly once per call.

    ``grads`` maps node_id -> gradient array (the output of backward()).
    Every parameter must have an entry of matching shape. Each parameter's
    ``grad`` slot is cleared once applied, so a step's gradients are freed
    with the step instead of living through the next step's forward.
    """
    for p in params:
        if p.node_id not in grads:
            label = p.name or f"node{p.node_id}"
            raise GradientMissing(f"no gradient entry for parameter '{label}'")
        if grads[p.node_id].shape != p.values.shape:
            label = p.name or f"node{p.node_id}"
            raise ValueError(
                f"gradient shape {grads[p.node_id].shape} does not match "
                f"parameter '{label}' shape {p.values.shape}"
            )
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1**state.t
    bias2 = 1.0 - b2**state.t
    for p in params:
        g = grads[p.node_id]
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
        p.grad = None
        p.checked = False  # values changed; revalidate on next use
    return params, state
