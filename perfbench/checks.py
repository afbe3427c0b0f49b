"""Correctness checks on the program's outputs.

Each check compares against a computation made here, apart from the
program, or against a property the method must have; none compares
against a stored copy of earlier output. Every check returns
``(passed, detail)`` so a test can feed it a deliberate fault.
"""

import math

import numpy as np

# Finite-difference steps along the direction, and the relative error
# allowed between the closest of those differences and the taped
# directional derivative. Along the direction a relu input moves 15-75
# times its own scale per unit step, so with ~700k relu inputs in a batch
# one lands inside a 1e-8 step about a third of the time, and a kink
# inside the step costs about 1e-3 whatever the step. A kink can also sit
# closer to the point than every step (seen once in several hundred checks: a kink
# within 1e-10, with every central difference off by 1.7e-3). So each step
# gives its forward, backward and central difference: a kink on one side
# leaves the other side's difference clean. Rounding stays below 3e-5 down
# to 1e-10 (one-sided differences round twice as much). A gradient off by
# 1% is off by 1e-2 in every difference.
FD_STEPS = (1e-8, 1e-9, 1e-10)
FD_TOLERANCE = 1e-4
PREDICT_BATCH = 64  # the batch size training.evaluate predicts with

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


def pinned_split(records, ratios, seed):
    """The documented split rule, written out here independently.

    Fisher-Yates from the last index down, swapping i with
    ((state' >> 33) mod (i + 1)) where state' = (a * state + c) mod 2^64
    starts from the seed; cuts at floor(r_train N) and floor(r_valid N).
    """
    order = list(records)
    state = seed & _MASK64
    for i in range(len(order) - 1, 0, -1):
        state = (_LCG_MULT * state + _LCG_INC) & _MASK64
        j = (state >> 33) % (i + 1)
        order[i], order[j] = order[j], order[i]
    n = len(order)
    n_train = math.floor(ratios[0] * n)
    n_valid = math.floor(ratios[1] * n)
    return (order[:n_train], order[n_train:n_train + n_valid],
            order[n_train + n_valid:])


def naive_metric(task, train_labels, test_labels):
    """Mean-predictor MAE (regression) or majority-class accuracy."""
    train_labels = np.asarray(train_labels, dtype=np.float64)
    test_labels = np.asarray(test_labels, dtype=np.float64)
    if task == "regression":
        return float(np.abs(test_labels - train_labels.mean()).mean())
    majority = 1.0 if 2 * (train_labels == 1.0).sum() >= len(train_labels) else 0.0
    return float((test_labels == majority).mean())


def metric_from_predictions(task, preds, labels):
    """MAE of raw outputs, or accuracy of logistic(logit) >= 0.5."""
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if task == "regression":
        return float(np.abs(preds - labels).mean())
    decisions = (1.0 / (1.0 + np.exp(-preds)) >= 0.5).astype(np.float64)
    return float((decisions == labels).mean())


def predict_all(model, mols):
    return np.concatenate([
        model.predict(mols[lo:lo + PREDICT_BATCH])
        for lo in range(0, len(mols), PREDICT_BATCH)
    ])


def beats_naive(task, metric, naive):
    better = metric < naive if task == "regression" else metric > naive
    return better, f"test {metric:.4f} vs naive {naive:.4f}"


def reported_metric_matches(task, model, mols, reported):
    recomputed = metric_from_predictions(
        task, predict_all(model, mols), [m.label for m in mols])
    return recomputed == reported, f"recomputed {recomputed!r} vs reported {reported!r}"


def _scale(values):
    """RMS of a parameter tensor, 1 for an all-zero one (a fresh bias).

    Scaling the direction by it moves every tensor in proportion to its
    size; N(0, 1) entries everywhere would move the 0.02-scale embeddings
    fifty times faster than their own size, and every relu input faster.
    """
    rms = float(np.sqrt(np.mean(values * values)))
    return rms if rms > 0.0 else 1.0


def directional_gradient(model, batch, direction_seed, backward_fn=None,
                         batch_seed=0, steps=FD_STEPS, enough=None):
    """Taped derivative of the batch loss along a seeded random direction
    over every parameter, and its central, forward and backward
    differences at each step; the steps stop early once
    ``enough(taped, differences)`` holds."""
    from molfuse.autodiff import Tape, backward

    backward_fn = backward_fn or backward
    params = model.parameters()
    rng = np.random.default_rng(direction_seed)
    direction = [rng.standard_normal(p.values.shape) * _scale(p.values)
                 for p in params]

    tape = Tape()
    loss, _, _ = model.forward_batch(tape, batch, batch_seed=batch_seed)
    grads = backward_fn(loss, tape)
    taped = sum(float((d * grads[p.node_id]).sum())
                for p, d in zip(params, direction) if p.node_id in grads)

    saved = [p.values.copy() for p in params]

    def loss_at(t):
        for p, base, d in zip(params, saved, direction):
            np.copyto(p.values, base + t * d)
            p.checked = False  # values changed in place, as adam_step does
        value, _, _ = model.forward_batch(
            Tape(grad_enabled=False), batch, batch_seed=batch_seed)
        return float(value.values)

    try:
        at_zero = loss_at(0.0)
        numeric = []
        for h in steps:
            ahead, behind = loss_at(h), loss_at(-h)
            numeric += [(ahead - behind) / (2.0 * h), (ahead - at_zero) / h,
                        (at_zero - behind) / h]
            if enough and enough(taped, numeric):
                break
    finally:
        for p, base in zip(params, saved):
            np.copyto(p.values, base)
            p.checked = False
    return taped, numeric


def _closest(taped, numeric):
    return min(abs(taped - n) / max(abs(taped), abs(n), 1e-12)
               for n in numeric)


def gradient_check(model, batch, direction_seed, backward_fn=None):
    taped, numeric = directional_gradient(
        model, batch, direction_seed, backward_fn,
        enough=lambda t, n: _closest(t, n) <= FD_TOLERANCE)
    error = _closest(taped, numeric)
    return error <= FD_TOLERANCE, f"rel err {error:.2e} (taped {taped:.6g})"


def recording_check(model, batch):
    """predict (non-recording tape) equals a recording forward bitwise."""
    from molfuse.autodiff import Tape

    quiet = np.asarray(model.predict(batch))
    _, preds, _ = model.forward_batch(Tape(), batch, batch_seed=0)
    loud = preds.values.reshape(-1)
    same = quiet.shape == loud.shape and quiet.tobytes() == loud.tobytes()
    return same, f"{len(batch)} molecules"


def checkpoint_check(path, model, vocab_size, mols):
    """The checkpoint loads into a fresh model that predicts bitwise the
    same. The fresh model starts from other weights, so a load that
    copied nothing would show."""
    from molfuse.checkpoint import load_checkpoint
    from molfuse.training import RunConfig, build_model

    config, tensors = load_checkpoint(path)
    seed = config.pop("seed")
    fresh = build_model(RunConfig.from_dict(config), vocab_size, seed + 1)
    fresh.load_state_dict(tensors)
    want = predict_all(model, mols)
    got = predict_all(fresh, mols)
    return want.tobytes() == got.tobytes(), f"{len(tensors)} tensors"


def work_count_check(epoch_molecules, epochs, train_size):
    """Every epoch stepped exactly the train split, for every epoch."""
    ok = epoch_molecules == [train_size] * epochs
    return ok, f"stepped {epoch_molecules} vs {epochs} x {train_size}"


def mlm_count_check(losses, skipped, epochs, sequences, batch_size):
    """MLM steps equal the batches per epoch minus the skipped ones."""
    batches = epochs * math.ceil(sequences / batch_size)
    ok = len(losses) == batches - skipped
    return ok, f"{len(losses)} steps, {skipped} skipped, {batches} batches"


def mlm_loss_check(losses):
    """Mean loss over the last quarter of MLM steps is below the first."""
    q = max(len(losses) // 4, 1)
    first = float(np.mean(losses[:q]))
    last = float(np.mean(losses[-q:]))
    return last < first, f"first quarter {first:.3f}, last quarter {last:.3f}"
