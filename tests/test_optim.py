import numpy as np
import pytest

from molfuse.autodiff import parameter
from molfuse.optim import BETA1, BETA2, EPS, AdamState, adam_step


def test_first_step_closed_form():
    # fresh state, g=1: m_hat = v_hat = 1, so the step is lr / (1 + eps)
    w = parameter(np.array(1.0), name="w")
    state = AdamState([w], lr=0.001)
    adam_step(state, {w.node_id: np.array(1.0)})
    assert w.values == pytest.approx(1.0 - 0.001 / (1.0 + 1e-8), abs=1e-12)
    assert w.values == pytest.approx(0.9990, abs=1e-9)
    assert state.t == 1


def test_zero_gradient_leaves_params_unchanged():
    w = parameter(np.array([1.5, -2.0]))
    state = AdamState([w])
    adam_step(state, {w.node_id: np.zeros(2)})
    np.testing.assert_array_equal(w.values, [1.5, -2.0])


def test_constant_gradient_monotone_decrease():
    w = parameter(np.array(1.0))
    state = AdamState([w])
    seen = [w.values.copy()]
    for _ in range(2):
        adam_step(state, {w.node_id: np.array(1.0)})
        seen.append(w.values.copy())
    assert seen[0] > seen[1] > seen[2]
    assert state.t == 2


def test_absent_entry_steps_like_an_explicit_zero():
    # a parameter that fed no recorded op has no entry in backward's dict
    def train(explicit_zero):
        used = parameter(np.full((2, 3), 0.25))
        unused = parameter(np.array([1.5, -2.0, 1e-3, -0.0]))
        state = AdamState([used, unused], lr=0.01)
        grads = np.random.default_rng(7).normal(size=(3, 2, 3))
        for g in grads:
            entries = {used.node_id: g}
            if explicit_zero:
                entries[unused.node_id] = np.zeros(4)
            adam_step(state, entries)
        return [used.values, unused.values, state.m[unused.node_id],
                state.v[unused.node_id]]

    for absent, zero in zip(train(False), train(True)):
        assert absent.tobytes() == zero.tobytes()


def test_zeros_allocated_only_for_absent_entries(monkeypatch):
    used, unused = parameter(np.ones((2, 3))), parameter(np.ones(4))
    state = AdamState([used, unused])
    allocated = []
    zeros_like = np.zeros_like

    def counted(values):
        allocated.append(values.shape)
        return zeros_like(values)

    monkeypatch.setattr(np, "zeros_like", counted)
    adam_step(state, {used.node_id: np.full((2, 3), 0.5)})
    assert allocated == [(4,)]


def test_parameter_needing_no_gradient_is_not_stepped():
    trained = parameter(np.ones(2))
    frozen = parameter(np.array([1.5, -2.0]))
    frozen.requires_grad = False
    state = AdamState([trained, frozen])
    assert state.params == [trained]
    assert set(state.m) == set(state.v) == {trained.node_id}
    adam_step(state, {trained.node_id: np.ones(2), frozen.node_id: np.ones(2)})
    np.testing.assert_array_equal(frozen.values, [1.5, -2.0])
    assert (trained.values < 1.0).all()


def test_shape_mismatch_rejected():
    w = parameter(np.ones(3), name="w")
    state = AdamState([w])
    with pytest.raises(ValueError, match="w"):
        adam_step(state, {w.node_id: np.ones(2)})


def test_t_increments_once_per_call_with_many_params():
    ps = [parameter(np.ones(2)) for _ in range(4)]
    state = AdamState(ps)
    adam_step(state, {p.node_id: np.ones(2) for p in ps})
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
    b1, b2, eps = BETA1, BETA2, EPS
    for t in range(1, 6):
        grads = [rng.normal(size=s) for s in shapes]
        adam_step(state, {p.node_id: g for p, g in zip(params, grads)})
        for i, g in enumerate(grads):
            ref_m[i] = b1 * ref_m[i] + (1.0 - b1) * g
            ref_v[i] = b2 * ref_v[i] + (1.0 - b2) * (g * g)
            m_hat = ref_m[i] / (1.0 - b1**t)
            v_hat = ref_v[i] / (1.0 - b2**t)
            ref_values[i] = ref_values[i] - 0.003 * m_hat / (np.sqrt(v_hat) + eps)
        for p, ref in zip(params, ref_values):
            np.testing.assert_array_equal(p.values, ref)
