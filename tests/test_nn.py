"""Classifier tests.

Oracles: a pure-Python scalar-loop forward pass, central finite
differences for every parameter gradient, and a hand-written Adam
recurrence.  Training behaviour is checked on a linearly separable toy
problem where near-perfect accuracy is guaranteed.
"""

import hashlib
import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mimosense import nn
from mimosense.errors import DataError, NumericError
from mimosense.nn import (
    HIDDEN_DIMS,
    LEARNING_RATE,
    LabeledDataset,
    MlpModel,
    TrainConfig,
    adam_step,
    early_late_control,
    evaluate,
    forward,
    grad,
    init_model,
    init_state,
    load_model,
    loss,
    save_model,
    split,
    train,
)


# --------------------------------------------------------------- helpers


def scalar_forward(model, x):
    """Loop-based reference forward pass (no numpy linear algebra)."""
    h = [float(v) for v in x]
    last = len(model.weights) - 1
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = []
        for j in range(w.shape[1]):
            acc = float(b[j])
            for i in range(w.shape[0]):
                acc += h[i] * float(w[i, j])
            z.append(acc)
        if layer == last:
            mx = max(z)
            e = [math.exp(v - mx) for v in z]
            s = sum(e)
            h = [v / s for v in e]
        else:
            h = [v if v > 0 else math.expm1(v) for v in z]
    return np.array(h)


def zero_model(u, v):
    m = init_model(u, v, seed=0)
    return MlpModel(
        weights=tuple(np.zeros_like(w) for w in m.weights),
        biases=tuple(np.zeros_like(b) for b in m.biases),
    )


def onehot(idx, v):
    out = np.zeros((len(idx), v))
    out[np.arange(len(idx)), idx] = 1.0
    return out


def make_dataset(rng, n, u, v):
    x = rng.normal(size=(n, u))
    c = onehot(rng.integers(0, v, size=n), v)
    return LabeledDataset(inputs=x, labels=c, ids=np.arange(n))


def separable_dataset(seed=0, n=200, margin=1.0):
    """Two-class points split by a hyperplane with a hard margin."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    score = x @ np.array([1.0, -0.5])
    x[:, 0] += np.where(score >= 0, margin, -margin)
    score = x @ np.array([1.0, -0.5])
    labels = onehot((score >= 0).astype(int), 2)
    return LabeledDataset(inputs=x, labels=labels, ids=np.arange(n))


# ------------------------------------------------------------------ init


def test_init_shapes_and_bounds():
    m = init_model(12, 5, seed=3)
    assert m.layer_dims == (12,) + HIDDEN_DIMS + (5,)
    assert m.activations == ("elu", "elu", "elu", "elu", "softmax")
    dims = m.layer_dims
    for i, (w, b) in enumerate(zip(m.weights, m.biases)):
        assert w.shape == (dims[i], dims[i + 1])
        assert np.all(b == 0.0)
        bound = np.sqrt(6.0 / (dims[i] + dims[i + 1]))
        assert np.all(np.abs(w) <= bound)


def test_init_seeded_determinism():
    a = init_model(7, 3, seed=11)
    b = init_model(7, 3, seed=11)
    c = init_model(7, 3, seed=12)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert any(
        not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights)
    )


# --------------------------------------------------------------- forward


def test_forward_matches_scalar_loop_oracle():
    rng = np.random.default_rng(5)
    model = init_model(6, 4, seed=2)
    for _ in range(20):
        x = rng.normal(size=6) * 2.0
        np.testing.assert_allclose(
            forward(model, x), scalar_forward(model, x), atol=1e-10
        )


def test_forward_zero_model_uniform():
    p = forward(zero_model(9, 5), np.ones(9))
    np.testing.assert_allclose(p, np.full(5, 0.2), atol=1e-15)


def test_forward_symmetric_two_class():
    # Identical columns in every layer make both logits equal by
    # construction, so the output must be exactly [0.5, 0.5].
    base = init_model(4, 2, seed=0)
    weights = []
    for w in base.weights:
        col = w[:, :1]
        weights.append(np.repeat(col, w.shape[1], axis=1))
    m = MlpModel(weights=tuple(weights), biases=tuple(base.biases))
    p = forward(m, np.array([0.3, -1.2, 0.7, 0.1]))
    np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-12)


def test_forward_probabilities_sum_to_one():
    rng = np.random.default_rng(0)
    model = init_model(10, 5, seed=1)
    x = rng.normal(size=(50, 10)) * 3.0
    p = forward(model, x)
    assert p.shape == (50, 5)
    assert np.all(p > 0.0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)


def test_forward_rejects_width_mismatch():
    model = init_model(6, 3, seed=0)
    with pytest.raises(ValueError):
        forward(model, np.ones(7))


# ------------------------------------------------------------------ loss


def test_loss_uniform_is_log_n_classes():
    m = zero_model(8, 5)
    c = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    assert abs(loss(m, np.ones(8), c) - math.log(5.0)) < 1e-12


def test_loss_clamps_tiny_probabilities():
    # Force a near-zero probability for the labeled class via a huge
    # logit gap, then check the clamp bounds the loss at -log(1e-12).
    w = np.zeros((1, 2))
    w[0, 0] = 200.0
    m = MlpModel(
        weights=(np.ones((1, 1)), w),
        biases=(np.zeros(1), np.zeros(2)),
    )
    val = loss(m, np.array([1.0]), np.array([0.0, 1.0]))
    assert val == pytest.approx(-math.log(1e-12))


# ------------------------------------------------------------- gradients


def test_grad_matches_finite_differences_everywhere():
    rng = np.random.default_rng(7)
    model = init_model(7, 3, seed=4)
    x = rng.normal(size=(2, 7))
    c = onehot(np.array([0, 2]), 3)

    def mean_loss(m):
        return 0.5 * (loss(m, x[0], c[0]) + loss(m, x[1], c[1]))

    # grad is in params layout: entry k of both is the same parameter.
    flat_g = grad(model, (x, c))
    theta = model.params
    h = 1e-5
    for k in range(theta.size):
        orig = theta[k]
        theta[k] = orig + h
        up = mean_loss(model)
        theta[k] = orig - h
        down = mean_loss(model)
        theta[k] = orig
        numeric = (up - down) / (2 * h)
        tol = max(1e-6, 1e-4 * abs(flat_g[k]))
        assert abs(numeric - flat_g[k]) <= tol, f"parameter {k}"


def test_grad_is_mean_over_batch():
    rng = np.random.default_rng(3)
    model = init_model(5, 3, seed=1)
    x = rng.normal(size=(4, 5))
    c = onehot(np.array([0, 1, 2, 1]), 3)
    full = grad(model, (x, c))
    assert full.shape == model.params.shape
    acc = np.zeros_like(full)
    for i in range(4):
        acc += grad(model, (x[i : i + 1], c[i : i + 1])) / 4.0
    np.testing.assert_allclose(acc, full, atol=1e-14)


def test_grad_rejects_empty_batch():
    model = init_model(5, 3, seed=1)
    with pytest.raises(ValueError):
        grad(model, (np.zeros((0, 5)), np.zeros((0, 3))))


# ------------------------------------------------------------------ adam


def one_param_model(value):
    return MlpModel(
        weights=(np.array([[value]]),), biases=(np.array([0.0]),)
    )


def test_adam_first_step_near_learning_rate():
    model = one_param_model(0.5)
    state = init_state(model)
    adam_step(model, np.array([1.0, 0.0]), state)
    # Bias correction makes the first step lr * g/(|g| + eps).
    assert abs(model.weights[0].item() - (0.5 - LEARNING_RATE)) < 1e-9
    assert state.step == 1


def test_adam_matches_hand_recurrence():
    model = one_param_model(1.0)
    state = init_state(model)
    grads_seq = [0.4, -1.3, 2.2, 0.05, -0.7]
    # Scalar reference recurrence at the Kingma & Ba constants: learning
    # rate 0.001, beta1 0.9, beta2 0.999, eps 1e-8.
    p, m, v = 1.0, 0.0, 0.0
    for t, g in enumerate(grads_seq, start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        p -= 0.001 * (m / (1 - 0.9**t)) / (
            math.sqrt(v / (1 - 0.999**t)) + 1e-8
        )
        adam_step(model, np.array([g, 0.0]), state)
        assert abs(model.weights[0].item() - p) < 1e-12
    assert state.step == len(grads_seq)


def test_adam_matches_textbook_recurrence_over_tiny_and_huge_gradients():
    # The efficient order folds the bias corrections into the step size
    # and eps_hat = eps * sqrt(1 - beta2**t).  Gradients drawn
    # log-uniformly over 1e-12..1e2 take sqrt(v) from below eps (the
    # first step) up to about 1e2, so using eps in place of eps_hat
    # moves the parameters off the recurrence (by 1e-5 relative here).
    rng = np.random.default_rng(17)
    n_steps = 1000
    grads_seq = rng.choice([-1.0, 1.0], size=(n_steps, 3)) * 10.0 ** rng.uniform(
        -12.0, 2.0, size=(n_steps, 3)
    )
    model = MlpModel(
        weights=(np.array([[2.0], [-3.0]]),), biases=(np.array([4.0]),)
    )
    state = init_state(model)
    p = [2.0, -3.0, 4.0]
    m = [0.0, 0.0, 0.0]
    v = [0.0, 0.0, 0.0]
    for t, g_row in enumerate(grads_seq, start=1):
        for k, g in enumerate(g_row.tolist()):
            m[k] = 0.9 * m[k] + 0.1 * g
            v[k] = 0.999 * v[k] + 0.001 * g * g
            p[k] -= 0.001 * (m[k] / (1 - 0.9**t)) / (
                math.sqrt(v[k] / (1 - 0.999**t)) + 1e-8
            )
        adam_step(model, g_row, state)
        np.testing.assert_allclose(model.params, p, rtol=1e-12, atol=0.0)
    assert state.step == n_steps


def test_adam_updates_in_place_and_leaves_grads():
    model = init_model(3, 2, seed=1)
    state = init_state(model)
    weights, params = model.weights, model.params.copy()
    g = grad(model, (np.ones((2, 3)), onehot(np.array([0, 1]), 2)))
    kept = g.copy()
    new_model, new_state = adam_step(model, g, state)
    assert new_model is model and new_state is state
    assert model.weights is weights
    assert not np.array_equal(model.params, params)
    assert state.m.shape == state.v.shape == g.shape == model.params.shape
    np.testing.assert_array_equal(g, kept)


def test_adam_step_allocates_nothing_parameter_sized():
    # Desk width (279 inputs, 5 classes: 22,277 parameters).  A step that
    # allocates a parameter-sized vector page-faults it in every time.
    model = init_model(279, 5, seed=0)
    state = init_state(model)
    rng = np.random.default_rng(2)
    g = grad(model, (rng.normal(size=(4, 279)), onehot(np.arange(4), 5)))
    adam_step(model, g, state)
    tracemalloc.start()
    try:
        for _ in range(5):
            adam_step(model, g, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < model.params.nbytes


# ----------------------------------------------------------------- split


def test_split_counts_1620():
    rng = np.random.default_rng(0)
    ds = make_dataset(rng, 1620, 4, 5)
    tr, te = split(ds, TrainConfig(seed=0))
    assert len(tr) == 1377 and len(te) == 243


def test_split_counts_20():
    rng = np.random.default_rng(1)
    ds = make_dataset(rng, 20, 3, 2)
    tr, te = split(ds, TrainConfig(seed=0))
    assert len(tr) == 17 and len(te) == 3


def test_split_partitions_ids():
    rng = np.random.default_rng(2)
    ds = make_dataset(rng, 97, 3, 4)
    tr, te = split(ds, TrainConfig(seed=5))
    combined = sorted(np.concatenate([tr.ids, te.ids]).tolist())
    assert combined == list(range(97))


def test_split_train_covers_every_class():
    rng = np.random.default_rng(3)
    for seed in range(8):
        ds = make_dataset(rng, 40, 3, 5)
        tr, _ = split(ds, TrainConfig(seed=seed))
        assert set(np.unique(tr.class_indices())) == set(
            np.unique(ds.class_indices())
        )


def test_split_deterministic():
    rng = np.random.default_rng(4)
    ds = make_dataset(rng, 60, 3, 3)
    a = split(ds, TrainConfig(seed=9))
    b = split(ds, TrainConfig(seed=9))
    np.testing.assert_array_equal(a[0].ids, b[0].ids)
    np.testing.assert_array_equal(a[1].ids, b[1].ids)


def test_split_impossible_coverage_raises():
    # Three classes present but only two training rows: no shuffle can
    # cover every class, so the redraw loop must give up.
    x = np.zeros((30, 2))
    c = onehot(np.array([0] * 28 + [1, 2]), 3)
    ds = LabeledDataset(inputs=x, labels=c, ids=np.arange(30))
    with pytest.raises(DataError):
        split(ds, TrainConfig(split_fraction=0.05))


def test_split_needs_rows_for_present_classes_only():
    # Four rows, three of five classes present: the training part must
    # cover the classes present, not every label column.
    ds = LabeledDataset(
        inputs=np.zeros((4, 2)),
        labels=onehot(np.array([0, 1, 2, 2]), 5),
        ids=np.arange(4),
    )
    tr, te = split(ds, TrainConfig(split_fraction=0.75))
    assert len(tr) == 3 and len(te) == 1
    assert set(tr.class_indices().tolist()) == {0, 1, 2}


# ----------------------------------------------------------------- train


def test_train_separable_toy_reaches_high_accuracy():
    ds = separable_dataset(seed=0)
    cfg = TrainConfig(epochs=50, seed=0)
    model, history = train(ds, cfg)
    _, acc = evaluate(model, ds)
    assert acc >= 0.99
    assert len(history) == 50
    # After the burn-in the mean epoch loss should not increase by more
    # than 5% from one epoch to the next.
    for i in range(5, len(history) - 1):
        assert history[i + 1] <= history[i] * 1.05


def test_train_zero_epochs_returns_initial_model():
    ds = separable_dataset(seed=1, n=40)
    cfg = TrainConfig(epochs=0, seed=7)
    model, history = train(ds, cfg)
    assert history == []
    ref = init_model(2, 2, seed=7)
    for w, r in zip(model.weights, ref.weights):
        np.testing.assert_array_equal(w, r)
    for b, r in zip(model.biases, ref.biases):
        np.testing.assert_array_equal(b, r)


def test_train_deterministic():
    ds = separable_dataset(seed=2, n=60)
    cfg = TrainConfig(epochs=8, seed=3)
    m1, h1 = train(ds, cfg)
    m2, h2 = train(ds, cfg)
    assert h1 == h2
    for a, b in zip(m1.weights, m2.weights):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(m1.biases, m2.biases):
        np.testing.assert_array_equal(a, b)


def test_train_steps_equal_grad_then_adam():
    # train() reuses its loss forward pass for the gradient; the result
    # must equal the public grad + adam_step loop bit for bit.
    ds = separable_dataset(seed=4, n=50)
    cfg = TrainConfig(epochs=3, batch_size=16, seed=5)
    model, _ = train(ds, cfg)
    ref = init_model(2, 2, seed=cfg.seed)
    state = init_state(ref)
    rng = np.random.default_rng([cfg.seed, 1])
    for _ in range(cfg.epochs):
        order = rng.permutation(len(ds))
        for start in range(0, len(ds), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            batch = (ds.inputs[idx], ds.labels[idx])
            ref, state = adam_step(ref, grad(ref, batch), state)
    for a, b in zip(model.weights + model.biases, ref.weights + ref.biases):
        np.testing.assert_array_equal(a, b)


def test_train_first_step_gradient_is_grad_of_first_batch(monkeypatch):
    # train's fused forward/backward must hand adam_step exactly what the
    # public grad computes for the first batch: one backprop path.
    rng = np.random.default_rng(6)
    ds = make_dataset(rng, 45, 7, 3)
    cfg = TrainConfig(epochs=2, batch_size=16, seed=4)
    seen = []
    real_step = nn.adam_step

    def capture(model, g, state):
        seen.append(g.copy())
        return real_step(model, g, state)

    monkeypatch.setattr(nn, "adam_step", capture)
    train(ds, cfg)
    assert len(seen) == cfg.epochs * math.ceil(len(ds) / cfg.batch_size)
    first = np.random.default_rng([cfg.seed, 1]).permutation(len(ds))[
        : cfg.batch_size
    ]
    expected = grad(
        init_model(7, 3, seed=cfg.seed), (ds.inputs[first], ds.labels[first])
    )
    np.testing.assert_array_equal(seen[0], expected)


def test_train_aborts_on_non_finite_loss():
    # A non-finite input propagates inf into the logits and NaN out of
    # the softmax; training must stop with a numeric error, not loop on.
    x = np.ones((8, 3))
    x[0, 0] = np.inf
    ds = LabeledDataset(
        inputs=x,
        labels=onehot(np.array([0, 1] * 4), 2),
        ids=np.arange(8),
    )
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        train(ds, TrainConfig(epochs=2, seed=0))


# -------------------------------------------------------------- evaluate


def test_evaluate_confusion_layout():
    # Zero model predicts class 0 for every row (uniform probabilities,
    # argmax tie resolved toward the lowest index).
    m = zero_model(3, 4)
    true = np.array([0, 1, 2, 3, 3, 2])
    ds = LabeledDataset(
        inputs=np.ones((6, 3)), labels=onehot(true, 4), ids=np.arange(6)
    )
    counts, acc = evaluate(m, ds)
    assert counts.shape == (4, 4)
    assert counts[:, 0].sum() == 6  # everything lands in column 0
    np.testing.assert_array_equal(
        counts.sum(axis=1), np.bincount(true, minlength=4)
    )
    assert acc == pytest.approx(1.0 / 6.0)


def test_evaluate_perfect_model():
    ds = separable_dataset(seed=3)
    model, _ = train(ds, TrainConfig(epochs=50, seed=0))
    counts, acc = evaluate(model, ds)
    assert np.trace(counts) == round(acc * len(ds))
    assert counts.sum() == len(ds)


# ---------------------------------------------------- early/late control


def test_early_late_control_needs_four_windows():
    cfg = TrainConfig(epochs=1)
    with pytest.raises(ValueError):
        early_late_control(np.zeros((3, 5)), np.array([0, 1, 2]), 6, cfg)


def test_early_late_control_needs_two_records():
    cfg = TrainConfig(epochs=1)
    with pytest.raises(ValueError):
        early_late_control(np.zeros((6, 5)), np.arange(6), 6, cfg)


def test_early_late_control_iid_features_near_chance():
    rng = np.random.default_rng(0)
    n_records, k = 12, 6
    inputs = rng.normal(size=(n_records * k, 10))
    ids = np.arange(n_records * k)
    accs = [
        early_late_control(inputs, ids, k, TrainConfig(epochs=40, seed=s))
        for s in range(5)
    ]
    assert 0.25 <= float(np.median(accs)) <= 0.75


def test_early_late_control_record_fingerprints_do_not_fool_it():
    # Each record is its own cluster (a strong per-record offset shared
    # by all of its windows) with zero position signal. A window-level
    # split would let the model vote each test window's record majority
    # — which is anti-correlated with the held-out label — and score far
    # below chance; holding out whole records must keep this at chance.
    rng = np.random.default_rng(2)
    n_records, k = 12, 6
    offsets = rng.normal(scale=5.0, size=(n_records, 10))
    inputs = np.repeat(offsets, k, axis=0) + rng.normal(
        scale=0.05, size=(n_records * k, 10)
    )
    ids = np.arange(n_records * k)
    accs = [
        early_late_control(inputs, ids, k, TrainConfig(epochs=200, seed=s))
        for s in range(5)
    ]
    assert 0.35 <= float(np.median(accs)) <= 0.65


def test_early_late_control_detects_injected_drift():
    rng = np.random.default_rng(1)
    n_records, k = 12, 6
    ids = np.arange(n_records * k)
    inputs = rng.normal(size=(n_records * k, 10)) * 0.05
    inputs[:, 0] += ids % k  # strong monotone drift within each record
    acc = early_late_control(inputs, ids, k, TrainConfig(epochs=60, seed=0))
    assert acc > 0.9


# ------------------------------------------------------------ checkpoint


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = init_model(9, 5, seed=6)
    cfg = TrainConfig(epochs=17, seed=6)
    path = tmp_path / "model.ckpt"
    save_model(path, model, cfg)
    loaded, header = load_model(path)
    assert header["layer_dims"] == list(model.layer_dims)
    assert header["activations"] == list(model.activations)
    assert header["train_config"]["epochs"] == 17
    for a, b in zip(model.weights, loaded.weights):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(model.biases, loaded.biases):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(model.params, loaded.params)


# The parameter bytes of a short training run's checkpoint, recorded
# with Adam in Kingma & Ba's efficient order (bias corrections folded
# into the step size and eps).  They pin the parameter layout and every
# rounding of the Adam step: a change that moves this hash changes the
# trained models and must say so, not update the hash.  The header
# records the training config.
def test_train_checkpoint_golden_hash(tmp_path):
    rng = np.random.default_rng(8)
    ds = make_dataset(rng, 60, 6, 3)
    cfg = TrainConfig(epochs=5, batch_size=16, seed=2)
    model, _ = train(ds, cfg)
    path = tmp_path / "model.ckpt"
    save_model(path, model, cfg)
    raw = path.read_bytes()
    blob = raw[-model.params.nbytes :]
    assert (
        hashlib.sha256(blob).hexdigest()
        == "c6299fda8eea81c8f4708bce1ac263030822daab4dfe0c6c8477998b1c955bd4"
    )
    _, header = load_model(path)
    assert header["train_config"] == {
        "epochs": 5, "batch_size": 16, "split_fraction": 0.85, "seed": 2
    }


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(DataError):
        load_model(path)


def test_checkpoint_rejects_truncated_blob(tmp_path):
    model = init_model(4, 2, seed=0)
    path = tmp_path / "model.ckpt"
    save_model(path, model)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(DataError):
        load_model(path)


@pytest.mark.parametrize(
    "head",
    [b"{broken", b"[]", b'{"layer_dims": 3}', b"\xff"],
    ids=["invalid-json", "list", "scalar-dims", "invalid-utf8"],
)
def test_checkpoint_rejects_corrupt_header(tmp_path, head):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"MMNN" + struct.pack("<I", len(head)) + head)
    with pytest.raises(DataError, match="corrupt checkpoint header"):
        load_model(path)


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_model(tmp_path / "absent.ckpt")


# ------------------------------------------------------------ validation


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(split_fraction=1.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
