"""From-scratch feedforward classifier.

Fixed architecture: input → 64 → 32 → 32 → 32 → output, elu hidden
activations (α = 1) and a softmax output, trained with minibatch Adam
on categorical cross-entropy.  Everything (forward, backprop, Adam,
splitting, evaluation) is implemented directly on numpy arrays; no
autograd or ML framework is involved.

:func:`train` and :func:`grad` share one forward and one backward
function, and :func:`adam_step` applies Adam in Kingma & Ba's efficient
order, both bias corrections folded into the step size and ε.  A
training gathers each epoch's shuffled rows once and takes its batches
as slices, and the forward pass keeps each hidden layer's min(z, 0),
from which the backward pass forms the ELU derivative.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .tensor_io import atomic_write, read_bytes

__all__ = [
    "AdamState",
    "BETA1",
    "BETA2",
    "EPS",
    "HIDDEN_DIMS",
    "LEARNING_RATE",
    "LabeledDataset",
    "MlpModel",
    "TrainConfig",
    "adam_step",
    "early_late_control",
    "evaluate",
    "forward",
    "grad",
    "init_model",
    "load_model",
    "loss",
    "save_model",
    "split",
    "train",
]

HIDDEN_DIMS = (64, 32, 32, 32)
# Adam at the constants of Kingma & Ba (2015).
LEARNING_RATE = 0.001
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
_PROB_CLAMP = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    """Training schedule and split; Adam's step size and moment
    constants are the module constants LEARNING_RATE, BETA1, BETA2 and
    EPS."""

    epochs: int = 200
    batch_size: int = 32
    split_fraction: float = 0.85
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError(
                f"split_fraction must be in (0, 1), got {self.split_fraction}"
            )
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


class MlpModel:
    """Per-layer weight matrices (fan_in x fan_out) and bias vectors.

    All of them are views into one float64 vector ``params`` laid out as
    :func:`_layout` says; the constructor copies the given arrays in.
    """

    def __init__(self, weights, biases):
        self.params, self.weights, self.biases = _pack(weights, biases)

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(
            w.shape[1] for w in self.weights
        )

    @property
    def activations(self) -> tuple[str, ...]:
        return ("elu",) * (len(self.weights) - 1) + ("softmax",)


@dataclass(frozen=True)
class LabeledDataset:
    """Input rows with one-hot label rows and provenance ids."""

    inputs: np.ndarray  # (N, u)
    labels: np.ndarray  # (N, v) one-hot
    ids: np.ndarray  # (N,)

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def class_indices(self) -> np.ndarray:
        return np.argmax(self.labels, axis=1)

    def take(self, idx) -> "LabeledDataset":
        return LabeledDataset(
            inputs=self.inputs[idx], labels=self.labels[idx], ids=self.ids[idx]
        )


@dataclass
class AdamState:
    """Step count and the first and second moments, in ``params`` layout,
    with a (2, n_params) work array that :func:`adam_step` computes in."""

    step: int
    m: np.ndarray
    v: np.ndarray
    work: np.ndarray


def _layout(params: np.ndarray, dims) -> tuple[tuple, tuple]:
    """Per-layer (weights, biases) views into the flat ``params`` of a
    model with layer widths ``dims``: for each layer the weight matrix in
    row-major order, then the bias.  Checkpoints store this order."""
    shapes = list(zip(dims[:-1], dims[1:]))
    expected = sum(fan_in * fan_out + fan_out for fan_in, fan_out in shapes)
    if params.shape != (expected,):
        raise ValueError(
            f"parameter vector holds {params.size} values, expected {expected}"
        )
    weights, biases = [], []
    pos = 0
    for fan_in, fan_out in shapes:
        weights.append(params[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out))
        pos += fan_in * fan_out
        biases.append(params[pos : pos + fan_out])
        pos += fan_out
    return tuple(weights), tuple(biases)


def _pack(weights, biases):
    """Copy per-layer arrays into a new flat vector; returns the vector
    and its :func:`_layout` views."""
    dims = (weights[0].shape[0],) + tuple(w.shape[1] for w in weights)
    flat = np.empty(sum(np.size(w) + np.size(b) for w, b in zip(weights, biases)))
    views = _layout(flat, dims)
    for view, value in zip(views[0] + views[1], tuple(weights) + tuple(biases)):
        view[...] = value
    return (flat,) + views


def init_model(n_inputs: int, n_outputs: int, seed: int = 0) -> MlpModel:
    """Seeded uniform init in ±sqrt(6/(fan_in+fan_out)), zero biases."""
    rng = np.random.default_rng(seed)
    dims = (n_inputs,) + HIDDEN_DIMS + (n_outputs,)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights=tuple(weights), biases=tuple(biases))


def init_state(model: MlpModel) -> AdamState:
    n = model.params.size
    return AdamState(step=0, m=np.zeros(n), v=np.zeros(n), work=np.empty((2, n)))


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _forward_pass(model: MlpModel, x: np.ndarray):
    """Returns (``min(z, 0)`` per hidden layer, post-activations per
    layer), z being the layer's pre-activation.

    The ELU is ``where(z > 0, z, expm1(min(z, 0)))``.  Its derivative,
    ``where(z > 0, 1, exp(min(z, 0)))``, is ``exp(min(z, 0))`` exactly,
    since exp(0) is 1; :func:`_backward_pass` forms it from the kept
    ``min(z, 0)``.  The last post-activation holds the class
    probabilities."""
    negs, acts = [], [x]
    h = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w + b
        if i == last:
            h = _softmax(z)
        else:
            neg = np.minimum(z, 0.0)
            negs.append(neg)
            h = np.where(z > 0.0, z, np.expm1(neg))
        acts.append(h)
    return negs, acts


def forward(model: MlpModel, x) -> np.ndarray:
    """Class probabilities for one input vector (or a batch of rows)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    batch = x[None, :] if single else x
    if batch.shape[1] != model.layer_dims[0]:
        raise ValueError(
            f"input width {batch.shape[1]} != model input {model.layer_dims[0]}"
        )
    probs = _forward_pass(model, batch)[1][-1]
    return probs[0] if single else probs


def loss(model: MlpModel, x, c) -> float:
    """Categorical cross-entropy −log p[true class], probability clamped
    at 1e-12."""
    c = np.asarray(c, dtype=float)
    p = forward(model, x)
    true_p = float(p[int(np.argmax(c))])
    return -float(np.log(max(true_p, _PROB_CLAMP)))


def _batch_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    picked = np.clip((probs * labels).sum(axis=1), _PROB_CLAMP, None)
    return float(-np.log(picked).mean())


def grad(model: MlpModel, batch: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Mean gradient over (inputs, one-hot labels) via reverse-mode
    differentiation, as a new vector in ``model.params`` layout (entry k
    is the derivative with respect to ``model.params[k]``); softmax +
    cross-entropy collapse to (p − c) at the output pre-activation."""
    x, c = (np.asarray(a, dtype=float) for a in batch)
    if x.ndim == 1:
        x, c = x[None, :], c[None, :]
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    out = np.empty_like(model.params)
    _backward_pass(
        model, *_forward_pass(model, x), c, _layout(out, model.layer_dims)
    )
    return out


def _backward_pass(model: MlpModel, negs, acts, c: np.ndarray, out) -> None:
    """Writes the mean gradient of a batch into ``out``, the
    (weights, biases) :func:`_layout` views of a vector in ``params``
    layout, from the batch's forward pass (``negs``, ``acts`` as
    :func:`_forward_pass` returns them) and its one-hot labels ``c``."""
    d_ws, d_bs = out
    delta = (acts[-1] - c) / c.shape[0]
    for layer in range(len(model.weights) - 1, -1, -1):
        np.matmul(acts[layer].T, delta, out=d_ws[layer])
        delta.sum(axis=0, out=d_bs[layer])
        if layer > 0:
            delta = (delta @ model.weights[layer].T) * np.exp(negs[layer - 1])


def adam_step(
    model: MlpModel, g: np.ndarray, state: AdamState
) -> tuple[MlpModel, AdamState]:
    """One bias-corrected Adam update of ``model.params`` and the moments
    in ``state``, in place, from the gradient ``g`` in ``params`` layout,
    which is left unchanged; returns ``(model, state)``.

    The moments follow m ← β1·m + (1−β1)·g and v ← β2·v + (1−β2)·g².
    The update takes Kingma & Ba's (2015, §2) efficient order, which
    folds both bias corrections into two scalars: θ ← θ − α_t·m/(√v + ε̂)
    with α_t = lr·√(1−β2ᵗ)/(1−β1ᵗ) and ε̂ = ε·√(1−β2ᵗ).  In exact
    arithmetic this is the textbook lr·m̂/(√v̂ + ε) with m̂ = m/(1−β1ᵗ)
    and v̂ = v/(1−β2ᵗ); it makes 12 passes over the parameters, one of
    them a division and one a square root.
    """
    state.step += 1
    root_corr2 = math.sqrt(1.0 - BETA2**state.step)
    step_size = LEARNING_RATE * root_corr2 / (1.0 - BETA1**state.step)
    eps_hat = EPS * root_corr2
    m, v = state.m, state.v
    a, b = state.work
    # The intermediates go to state.work, since each vector of this size
    # that is allocated afresh costs page faults.
    np.multiply(g, g, out=a)
    a *= 1.0 - BETA2
    v *= BETA2
    v += a
    np.multiply(g, 1.0 - BETA1, out=a)
    m *= BETA1
    m += a
    np.sqrt(v, out=b)
    b += eps_hat
    np.multiply(m, step_size, out=a)
    a /= b
    model.params -= a
    return model, state


def split(
    ds: LabeledDataset, cfg: TrainConfig
) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded shuffle, first ceil(split_fraction·N) rows to train; the
    shuffle is redrawn (≤ 100 times) until every class present in the
    dataset appears in the training part."""
    n = len(ds)
    n_train = int(np.ceil(cfg.split_fraction * n))
    classes = set(np.unique(ds.class_indices()))
    rng = np.random.default_rng(cfg.seed)
    for _ in range(100):
        perm = rng.permutation(n)
        train_idx = perm[:n_train]
        if set(np.unique(ds.class_indices()[train_idx])) == classes:
            return ds.take(train_idx), ds.take(perm[n_train:])
    raise DataError(
        "could not produce a train split covering every class in 100 shuffles"
    )


def train(ds: LabeledDataset, cfg: TrainConfig) -> tuple[MlpModel, list[float]]:
    """Minibatch Adam on cross-entropy; returns the final model and the
    per-epoch mean training loss.

    Each epoch gathers its shuffled rows once, into buffers that the
    whole training reuses; its batches are consecutive slices of them,
    so a step gets the same rows as indexing the dataset with that
    slice of the permutation."""
    model = init_model(ds.inputs.shape[1], ds.labels.shape[1], seed=cfg.seed)
    state = init_state(model)
    g = np.empty_like(model.params)
    g_views = _layout(g, model.layer_dims)
    rng = np.random.default_rng([cfg.seed, 1])
    history: list[float] = []
    n = len(ds)
    inputs = np.empty(ds.inputs.shape, ds.inputs.dtype)
    labels = np.empty(ds.labels.shape, ds.labels.dtype)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        np.take(ds.inputs, order, axis=0, out=inputs)
        np.take(ds.labels, order, axis=0, out=labels)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            x = inputs[start : start + cfg.batch_size]
            c = labels[start : start + cfg.batch_size]
            negs, acts = _forward_pass(model, x)
            batch_loss = _batch_loss(acts[-1], c)
            if not np.isfinite(batch_loss):
                raise NumericError(
                    f"training loss became non-finite at step {state.step}"
                )
            epoch_loss += batch_loss * len(x)
            _backward_pass(model, negs, acts, c, g_views)
            adam_step(model, g, state)
        history.append(float(epoch_loss / n))
    return model, history


def evaluate(model: MlpModel, test: LabeledDataset) -> tuple[np.ndarray, float]:
    """Argmax prediction per row (ties go to the lowest class index).

    Returns ``(counts, accuracy)``: the (v, v) int64 confusion counts,
    rows the true class and columns the predicted one, and the share of
    rows on the diagonal.  ``test`` must hold at least one row."""
    probs = forward(model, test.inputs)
    pred = np.argmax(probs, axis=1)
    true = test.class_indices()
    v = test.labels.shape[1]
    counts = np.zeros((v, v), dtype=np.int64)
    np.add.at(counts, (true, pred), 1)
    return counts, float(np.trace(counts) / counts.sum())


def early_late_control(
    inputs: np.ndarray,
    window_ids: np.ndarray,
    windows_per_record: int,
    cfg: TrainConfig,
) -> float:
    """Leakage check for one activity: label each window early/late by
    its position within its record (id mod windows_per_record), train a
    2-class model on an 80/20 split, and return test accuracy (≈ 0.5
    when features carry no slow drift).

    The split holds out whole records (id div windows_per_record), never
    loose windows. A window-level split lets the model pair each test
    window with its train-set siblings and vote the record's majority
    label — which is anti-correlated with the held-out window's own
    label, driving a leak-free control far below chance. Held-out
    records carry no such fingerprint. Each contributes ceil(k/2) early
    and floor(k/2) late windows (k = windows_per_record), so a model that
    learned nothing and predicts one class scores exactly 0.5 for even k,
    but ceil(k/2)/k or floor(k/2)/k for odd k (8/15 or 7/15 at k = 15); a
    drift that repeats across records still transfers, so the control
    keeps its power.
    """
    inputs = np.asarray(inputs, dtype=float)
    window_ids = np.asarray(window_ids)
    if len(inputs) < 4:
        raise ValueError("early/late control needs at least 4 windows")
    if windows_per_record < 2:
        raise ValueError("early/late control needs >= 2 windows per record")
    records = window_ids // windows_per_record
    unique_records = np.unique(records)
    if len(unique_records) < 2:
        raise ValueError(
            "early/late control needs at least 2 records to hold one out"
        )
    n_train = min(
        len(unique_records) - 1, int(np.ceil(0.8 * len(unique_records)))
    )
    order = np.random.default_rng(cfg.seed).permutation(unique_records)
    train_records = set(order[:n_train].tolist())
    in_train = np.array([r in train_records for r in records])

    late = (window_ids % windows_per_record) >= windows_per_record / 2.0
    labels = np.zeros((len(inputs), 2))
    labels[np.arange(len(inputs)), late.astype(int)] = 1.0
    tr = LabeledDataset(
        inputs=inputs[in_train],
        labels=labels[in_train],
        ids=window_ids[in_train],
    )
    te = LabeledDataset(
        inputs=inputs[~in_train],
        labels=labels[~in_train],
        ids=window_ids[~in_train],
    )
    model, _ = train(tr, cfg)
    return evaluate(model, te)[1]


# ------------------------------------------------------------ checkpoints

_CKPT_MAGIC = b"MMNN"


def save_model(path, model: MlpModel, train_cfg: TrainConfig | None = None) -> None:
    """JSON header (architecture + training config) followed by the raw
    little-endian float64 ``params`` vector."""
    header = {
        "layer_dims": list(model.layer_dims),
        "activations": list(model.activations),
        "train_config": None if train_cfg is None else vars(train_cfg),
    }
    blob = np.ascontiguousarray(model.params, dtype="<f8").tobytes()
    head = json.dumps(header).encode()
    with atomic_write(path) as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        fh.write(blob)


def load_model(path) -> tuple[MlpModel, dict]:
    raw = read_bytes(path)
    if len(raw) < 8 or raw[:4] != _CKPT_MAGIC:
        raise DataError(f"{path}: not a model checkpoint")
    (head_len,) = struct.unpack_from("<I", raw, 4)
    try:
        header = json.loads(raw[8 : 8 + head_len].decode())
        dims = [int(d) for d in header["layer_dims"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: corrupt checkpoint header ({exc})") from exc
    blob = np.frombuffer(raw[8 + head_len :], dtype="<f8")
    try:
        model = MlpModel(*_layout(blob, dims))
    except (ValueError, IndexError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    return model, header
