import numpy as np
import pytest

from molfuse.autodiff import parameter
from molfuse.optim import AdamState, GradientMissing, adam_step, complete_gradients


def test_first_step_closed_form():
    # fresh state, g=1: m_hat = v_hat = 1, so the step is lr / (1 + eps)
    w = parameter(np.array(1.0), name="w")
    state = AdamState([w], lr=0.001)
    adam_step([w], {w.node_id: np.array(1.0)}, state)
    assert w.values == pytest.approx(1.0 - 0.001 / (1.0 + 1e-8), abs=1e-12)
    assert w.values == pytest.approx(0.9990, abs=1e-9)
    assert state.t == 1


def test_zero_gradient_leaves_params_unchanged():
    w = parameter(np.array([1.5, -2.0]))
    state = AdamState([w])
    adam_step([w], {w.node_id: np.zeros(2)}, state)
    np.testing.assert_array_equal(w.values, [1.5, -2.0])


def test_constant_gradient_monotone_decrease():
    w = parameter(np.array(1.0))
    state = AdamState([w])
    seen = [w.values.copy()]
    for _ in range(2):
        adam_step([w], {w.node_id: np.array(1.0)}, state)
        seen.append(w.values.copy())
    assert seen[0] > seen[1] > seen[2]
    assert state.t == 2


def test_step_clears_grad_slots():
    # the applied gradients must not outlive the step through p.grad
    ps = [parameter(np.ones(2)) for _ in range(2)]
    for p in ps:
        p.grad = np.ones(2)
    adam_step(ps, {p.node_id: p.grad for p in ps}, AdamState(ps))
    assert all(p.grad is None for p in ps)


def test_complete_gradients_allocates_only_missing_entries(monkeypatch):
    used, unused = parameter(np.ones((2, 3))), parameter(np.ones(4))
    present = np.full((2, 3), 0.5)
    allocated = []
    zeros_like = np.zeros_like

    def counted(values):
        allocated.append(values.shape)
        return zeros_like(values)

    monkeypatch.setattr(np, "zeros_like", counted)
    full = complete_gradients([used, unused], {used.node_id: present})
    assert full[used.node_id] is present
    np.testing.assert_array_equal(full[unused.node_id], np.zeros(4))
    assert allocated == [(4,)]


def test_missing_gradient_names_parameter():
    w = parameter(np.array(1.0), name="embed.weight")
    state = AdamState([w])
    with pytest.raises(GradientMissing, match="embed.weight"):
        adam_step([w], {}, state)


def test_shape_mismatch_rejected():
    w = parameter(np.ones(3), name="w")
    state = AdamState([w])
    with pytest.raises(ValueError, match="w"):
        adam_step([w], {w.node_id: np.ones(2)}, state)


def test_t_increments_once_per_call_with_many_params():
    ps = [parameter(np.ones(2)) for _ in range(4)]
    state = AdamState(ps)
    adam_step(ps, {p.node_id: np.ones(2) for p in ps}, state)
    assert state.t == 1


def test_bitwise_equal_to_textbook_update(rng):
    """The in-place update gives the bits of the textbook expressions."""
    shapes = [(3, 4), (5,), ()]
    # small values, so that a step's last bits survive the subtraction
    params = [parameter(1e-3 * rng.normal(size=s)) for s in shapes]
    ref_values = [p.values.copy() for p in params]
    ref_m = [np.zeros(s) for s in shapes]
    ref_v = [np.zeros(s) for s in shapes]
    state = AdamState(params, lr=0.003)
    b1, b2, eps = state.beta1, state.beta2, state.eps
    for t in range(1, 6):
        grads = [rng.normal(size=s) for s in shapes]
        adam_step(params, {p.node_id: g for p, g in zip(params, grads)}, state)
        for i, g in enumerate(grads):
            ref_m[i] = b1 * ref_m[i] + (1.0 - b1) * g
            ref_v[i] = b2 * ref_v[i] + (1.0 - b2) * (g * g)
            m_hat = ref_m[i] / (1.0 - b1**t)
            v_hat = ref_v[i] / (1.0 - b2**t)
            ref_values[i] = ref_values[i] - 0.003 * m_hat / (np.sqrt(v_hat) + eps)
        for p, ref in zip(params, ref_values):
            np.testing.assert_array_equal(p.values, ref)
