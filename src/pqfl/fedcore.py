"""Desk-scale federated averaging: data handling, local training, aggregation.

The model family is a softmax classifier with zero or more ReLU hidden
layers (logistic regression when `hidden_dims` is empty), trained with
mini-batch SGD or AdamW on float32 parameters. Everything is deterministic
given the configured seeds: shuffling uses per-(round, client) derived
seeds, and aggregation adds deltas one at a time in ascending client-id
order (`RunningSum`) so repeated runs are bit-identical.

One kernel, `train_stack`, trains a stack of M clients at once: the
parameters, their gradient, AdamW's moments and each mini-batch carry a
leading client axis, and every operation runs on each client's slice as it
would for that client alone, so each client's delta is bit-identical to its
own M = 1 call. `local_train` is that call.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from pqfl.codec import ParameterVector, all_finite
from pqfl.errors import (
    DimensionMismatch,
    EmptyVerifiedSet,
    NonFiniteGradient,
    RoundMismatch,
    TooFewSamples,
)


def derive_seed(master: int, *labels: object) -> int:
    """Stable domain-separated 63-bit seed from a master seed and labels."""
    text = f"pqfl.derive.v1:{master}:" + ":".join(map(str, labels))
    h = hashlib.sha256(text.encode()).digest()
    return struct.unpack("<Q", h[:8])[0] >> 1


def train_seed(master: int, round: int, client_id: int) -> int:
    """Seed for one client's local shuffling in one round. Shared by the
    signed protocol and the plain loop so their training paths coincide."""
    return derive_seed(master, "train", round, client_id)


# --- datasets ---------------------------------------------------------------

class ClientDataset:
    """Feature matrix (num_samples x num_features, float32) with integer
    class labels in [0, num_classes).

    A dataset keeps read-only views of its arrays, so nothing writes to the
    caller's data through it; the caller's own arrays keep their flags. A
    shard made by `split_iid` holds its parent's arrays and the indices of its
    rows instead of a copy of them: its `features` and `labels` gather those
    rows into new read-only arrays on each access, and `train_stack` gathers
    one mini-batch at a time."""

    __slots__ = ("_features", "_labels", "_rows")

    def __init__(self, features: np.ndarray, labels: np.ndarray):
        feats = np.ascontiguousarray(features, dtype=np.float32)
        labels = np.ascontiguousarray(labels, dtype=np.int64)
        if feats.ndim != 2:
            raise DimensionMismatch(f"features must be 2-D, got shape {feats.shape}")
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise DimensionMismatch(
                f"labels shape {labels.shape} does not match {feats.shape[0]} samples"
            )
        if feats.shape[0] == 0:
            raise DimensionMismatch("dataset is empty")
        if labels.min() < 0:
            raise DimensionMismatch("negative label")
        self._features = _read_only(feats.view())
        self._labels = _read_only(labels.view())
        self._rows: np.ndarray | None = None  # None: every row, in order

    @classmethod
    def _shard(cls, parent: ClientDataset, rows: np.ndarray) -> ClientDataset:
        """The rows `rows` of `parent`, sharing its arrays."""
        shard = cls.__new__(cls)
        shard._features, shard._labels = parent._features, parent._labels
        shard._rows = rows if parent._rows is None else parent._rows[rows]
        return shard

    def _gather(self, array: np.ndarray) -> np.ndarray:
        return array if self._rows is None else _read_only(array[self._rows])

    @property
    def features(self) -> np.ndarray:
        return self._gather(self._features)

    @property
    def labels(self) -> np.ndarray:
        return self._gather(self._labels)

    @property
    def num_samples(self) -> int:
        return int((self._features if self._rows is None else self._rows).shape[0])

    @property
    def num_features(self) -> int:
        return int(self._features.shape[1])


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# float64 scratch of one _normal_blocks walk: small enough that a 784-256-5
# model's initialisation (809 KB of float32) peaks below 1.5x its output
_SCRATCH_BYTES = 256 * 1024


def _normal_blocks(
    rng: np.random.Generator, shape: tuple[int, int]
) -> Iterator[tuple[int, np.ndarray]]:
    """Draw `rng.standard_normal(shape)` in blocks of whole rows, in the same
    order as one call would draw them, without the whole float64 matrix.
    Yields (first row, float64 block); every block reuses one scratch buffer
    of at most _SCRATCH_BYTES (or one row), so a caller rounds each block into
    its float32 output before asking for the next."""
    num_rows, width = shape
    rows = max(1, _SCRATCH_BYTES // (8 * max(width, 1)))
    scratch = np.empty((min(rows, num_rows), width))
    for lo in range(0, num_rows, rows):
        block = scratch[: min(rows, num_rows - lo)]
        rng.standard_normal(out=block)
        yield lo, block


def generate_synthetic(
    num_samples: int,
    num_features: int,
    num_classes: int,
    seed: int,
    separation: float = 3.0,
) -> ClientDataset:
    """Seeded Gaussian-mixture classification set: one unit-variance cluster
    per class, cluster centres scaled by `separation`."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_classes, num_features)) * separation
    labels = rng.integers(0, num_classes, size=num_samples)
    feats = np.empty((num_samples, num_features), dtype=np.float32)
    for lo, noise in _normal_blocks(rng, feats.shape):
        hi = lo + noise.shape[0]
        noise += centers[labels[lo:hi]]
        feats[lo:hi] = noise
    return ClientDataset(features=feats, labels=labels)


def split_iid(dataset: ClientDataset, num_clients: int, seed: int) -> list[ClientDataset]:
    """Shuffle with the seeded PRNG, then partition into near-equal shards
    (sizes differ by at most one, larger shards first). Each shard is a row
    view of `dataset`: it shares the dataset's arrays and holds only its row
    indices, so splitting copies no sample."""
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    if dataset.num_samples < num_clients:
        raise TooFewSamples(
            f"{dataset.num_samples} samples cannot cover {num_clients} clients"
        )
    perm = np.random.default_rng(seed).permutation(dataset.num_samples)
    return [ClientDataset._shard(dataset, rows) for rows in np.array_split(perm, num_clients)]


# --- IDX container files (big-endian image/label format) --------------------

_IDX_DTYPES = {
    0x08: np.dtype(np.uint8),
    0x09: np.dtype(np.int8),
    0x0B: np.dtype(">i2"),
    0x0C: np.dtype(">i4"),
    0x0D: np.dtype(">f4"),
    0x0E: np.dtype(">f8"),
}


def read_idx(path: str) -> np.ndarray:
    """Read one IDX file: 2 zero bytes, dtype code, ndim, big-endian u32
    dimensions, then the data in row-major order."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4 or raw[0] != 0 or raw[1] != 0:
        raise ValueError(f"{path}: not an IDX file")
    dtype_code, ndim = raw[2], raw[3]
    if dtype_code not in _IDX_DTYPES:
        raise ValueError(f"{path}: unknown IDX dtype code 0x{dtype_code:02x}")
    if len(raw) < 4 + 4 * ndim:
        raise ValueError(f"{path}: truncated dimension table")
    dims = struct.unpack(f">{ndim}I", raw[4 : 4 + 4 * ndim])
    dtype = _IDX_DTYPES[dtype_code]
    count = int(np.prod(dims)) if ndim else 0
    expected = 4 + 4 * ndim + count * dtype.itemsize
    if len(raw) != expected:
        raise ValueError(f"{path}: size {len(raw)} != expected {expected}")
    data = np.frombuffer(raw, dtype=dtype, offset=4 + 4 * ndim)
    return data.reshape(dims)


def load_idx_dataset(images_path: str, labels_path: str, limit: int | None = None) -> ClientDataset:
    """Pair an IDX image file with an IDX label file; pixels are flattened
    and scaled to [0, 1]; `limit`, if given, keeps the first `limit` samples."""
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    images = read_idx(images_path)
    labels = read_idx(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise DimensionMismatch(
            f"{images.shape[0]} images vs {labels.shape[0]} labels"
        )
    if limit is not None:
        images = images[:limit]
        labels = labels[:limit]
    feats = images.reshape(images.shape[0], -1).astype(np.float32)
    feats /= np.float32(255.0)
    return ClientDataset(features=feats, labels=labels.astype(np.int64))


# --- model ------------------------------------------------------------------

@dataclass(frozen=True)
class ModelArchitecture:
    """Softmax classifier: input -> ReLU hidden layers -> class logits.
    Empty `hidden_dims` gives plain logistic regression."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        if self.input_dim < 1 or self.num_classes < 2 or any(d < 1 for d in self.hidden_dims):
            raise ValueError(f"invalid architecture {self}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden_dims, self.num_classes]
        return [(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]

    @functools.cached_property
    def param_count(self) -> int:
        return sum(d_in * d_out + d_out for d_in, d_out in self.layer_dims)


@dataclass(frozen=True)
class GlobalModel:
    params: ParameterVector
    architecture: ModelArchitecture
    round: int = 0

    def __post_init__(self):
        if self.params.size != self.architecture.param_count:
            raise DimensionMismatch(
                f"{self.params.size} params != architecture count {self.architecture.param_count}"
            )


@dataclass(frozen=True)
class ModelUpdate:
    """One client's parameter delta for one round."""

    delta: ParameterVector
    client_id: int
    round: int


def init_model(arch: ModelArchitecture, seed: int) -> GlobalModel:
    """He-style normal init for weights, zero biases, float32. The weights
    are the float32 rounding of float64 normals × sqrt(2 / fan-in)."""
    rng = np.random.default_rng(seed)
    flat = np.zeros(arch.param_count, dtype=np.float32)
    for (d_in, _), (w, _) in zip(arch.layer_dims, _unpack(arch, flat)):
        for lo, normals in _normal_blocks(rng, w.shape):
            normals *= np.sqrt(2.0 / d_in)
            w[lo : lo + normals.shape[0]] = normals
    return GlobalModel(params=ParameterVector(flat, (flat.size,)), architecture=arch, round=0)


def _unpack(arch: ModelArchitecture, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of each layer's (weights, bias) in `flat`, one C-contiguous
    parameter vector or a stack of them (M, param_count); a stack's views
    keep its client axis first."""
    lead = flat.shape[:-1]
    layers = []
    off = 0
    for d_in, d_out in arch.layer_dims:
        w = flat[..., off : off + d_in * d_out].reshape(*lead, d_in, d_out)
        off += d_in * d_out
        b = flat[..., off : off + d_out]
        off += d_out
        layers.append((w, b))
    return layers


def _forward(layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray) -> Iterator[np.ndarray]:
    """Yield the ReLU activation of each hidden layer in turn, then the logits:
    of rows `x` (n, features), or of a stack's (M, n, features) under its layers."""
    h = x
    for i, (w, b) in enumerate(layers):
        h = h @ w
        h += b[..., None, :]
        if i < len(layers) - 1:
            np.maximum(h, 0, out=h)
        yield h


def forward_logits(arch: ModelArchitecture, flat: np.ndarray, x: np.ndarray) -> np.ndarray:
    for out in _forward(_unpack(arch, flat), x):  # holds one hidden activation at a time
        pass
    return out


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _mean_nll(logp: np.ndarray, y: np.ndarray) -> float:
    return float(-logp[np.arange(y.shape[0]), y].mean())


def loss_value(arch: ModelArchitecture, flat: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    return _mean_nll(_log_softmax(forward_logits(arch, flat, x)), y)


def loss_and_grad(
    arch: ModelArchitecture, flat: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its analytic gradient, flattened in the same
    layout as the parameters. Computation stays in the input dtype."""
    grad = np.empty(flat.size, dtype=np.result_type(flat, x))
    logp = _backprop(_unpack(arch, flat), _unpack(arch, grad), x, y)
    return _mean_nll(logp, y), grad


def _backprop(
    layers: list[tuple[np.ndarray, np.ndarray]],
    grad_layers: list[tuple[np.ndarray, np.ndarray]],
    x: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """Write the gradient of the mean cross-entropy into `grad_layers`, the
    per-layer views of one flat buffer laid out like the parameters that
    `layers` views; return the log-probabilities. A stack's rows `x` (M, n,
    features) and labels `y` (M, n) give each client's gradient under its own
    layers, in the buffer's row for that client."""
    n = x.shape[-2]
    activations = [x, *_forward(layers, x)]
    logp = _log_softmax(activations.pop())

    dlogits = np.exp(logp)
    dlogits.reshape(-1, dlogits.shape[-1])[np.arange(y.size), y.ravel()] -= 1
    dlogits /= n

    delta = dlogits
    for i in reversed(range(len(layers))):
        g_w, g_b = grad_layers[i]
        np.sum(delta, axis=-2, out=g_b)
        np.matmul(activations[i].swapaxes(-1, -2), delta, out=g_w)
        if i > 0:
            delta = delta @ layers[i][0].swapaxes(-1, -2)
            delta *= activations[i] > 0
    return logp


def forward_loss(model: GlobalModel, data: ClientDataset) -> float:
    """Mean cross-entropy of softmax outputs over the whole dataset."""
    _check_dims(model.architecture, data)
    return loss_value(model.architecture, model.params.values, data.features, data.labels)


def _check_dims(arch: ModelArchitecture, data: ClientDataset) -> None:
    if data.num_features != arch.input_dim:
        raise DimensionMismatch(
            f"dataset has {data.num_features} features, model expects {arch.input_dim}"
        )
    top = int(data.labels.max())  # a shard gathers its labels, not its features
    if top >= arch.num_classes:
        raise DimensionMismatch(f"label {top} outside {arch.num_classes} classes")


# --- training ----------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    num_clients: int = 10
    num_rounds: int = 10
    local_epochs: int = 1
    batch_size: int = 32
    learning_rate: float = 1e-2
    optimizer: str = "sgd"  # "sgd" | "adamw"
    adamw_weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.num_clients < 1 or self.num_rounds < 1:
            raise ValueError("num_clients and num_rounds must be >= 1")
        if self.batch_size < 1 or self.local_epochs < 1:
            raise ValueError("batch_size and local_epochs must be >= 1")
        # zero is allowed so "no movement" runs stay expressible
        if not self.learning_rate >= 0:
            raise ValueError("learning_rate must be >= 0")
        if self.optimizer not in ("sgd", "adamw"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


# AdamW's moment decay rates and denominator guard, the usual defaults
ADAMW_BETA1, ADAMW_BETA2, ADAMW_EPS = 0.9, 0.999, 1e-8


class _AdamWState:
    def __init__(self, shape: tuple[int, ...], cfg: TrainConfig):
        self.m = np.zeros(shape, dtype=np.float32)
        self.v = np.zeros(shape, dtype=np.float32)
        self.t = 0
        self.cfg = cfg
        self._scratch = (np.empty(shape, dtype=np.float32), np.empty(shape, dtype=np.float32))

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """m = b1*m + (1-b1)*grad, v = b2*v + (1-b2)*grad*grad, then
        theta -= lr * (m_hat / (sqrt(v_hat) + eps) + wd*theta), all in place,
        each operation in the order and dtype of those expressions."""
        cfg = self.cfg
        a, b = self._scratch
        self.t += 1
        self.m *= ADAMW_BETA1
        self.m += np.multiply(grad, 1.0 - ADAMW_BETA1, out=a)
        self.v *= ADAMW_BETA2
        np.multiply(grad, 1.0 - ADAMW_BETA2, out=a)
        a *= grad
        self.v += a
        np.divide(self.m, 1.0 - ADAMW_BETA1**self.t, out=a)
        np.divide(self.v, 1.0 - ADAMW_BETA2**self.t, out=b)
        np.sqrt(b, out=b)
        b += ADAMW_EPS
        a /= b
        a += np.multiply(theta, cfg.adamw_weight_decay, out=b)
        a *= cfg.learning_rate
        theta -= a


def shard_key(data: ClientDataset) -> tuple[int, int, int]:
    """Clients whose shards have equal keys, and that share an architecture
    and a `TrainConfig`, can train in one `train_stack` call: the shards are
    of one size and drawn from one data set."""
    return data.num_samples, id(data._features), id(data._labels)


def train_stack(
    arch: ModelArchitecture,
    starts: Sequence[np.ndarray],
    shards: Sequence[ClientDataset],
    cfg: TrainConfig,
    seeds: Sequence[int],
    client_ids: Sequence[int],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Run `local_epochs` of seeded mini-batch optimization for M clients at
    once and return their (M, param_count) float32 deltas. Client m starts
    from `starts[m]`, shuffles `shards[m]` with its own generator seeded by
    `seeds[m]` and keeps its own optimizer state, fresh each call; its delta
    is bit-identical to that of a stack of it alone. The shards must have one
    `shard_key`.

    Trains in the C-contiguous float32 array `out` when given, which then
    holds the deltas. A client whose parameters turn non-finite raises
    NonFiniteGradient naming the first such id in `client_ids`.
    """
    if len({shard_key(data) for data in shards}) != 1:
        raise ValueError("a stack's shards must be of one size and from one data set")
    for data in shards:
        _check_dims(arch, data)
    theta = np.empty((len(shards), arch.param_count), np.float32) if out is None else out
    for row, start in zip(theta, starts, strict=True):
        row[:] = start
    rngs = [np.random.default_rng(seed) for seed in seeds]
    adamw = _AdamWState(theta.shape, cfg) if cfg.optimizer == "adamw" else None
    grad = np.empty_like(theta)  # every step overwrites all of it
    # views stay valid: both buffers are only ever updated in place
    layers, grad_layers = _unpack(arch, theta), _unpack(arch, grad)
    # a shard's batches are gathered straight from its parent's rows
    features, labels, n = shards[0]._features, shards[0]._labels, shards[0].num_samples

    # a diverging run overflows here; the finite check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.local_epochs):
            order = np.stack([
                rng.permutation(n) if data._rows is None else data._rows[rng.permutation(n)]
                for rng, data in zip(rngs, shards, strict=True)
            ])
            for lo in range(0, n, cfg.batch_size):
                idx = order[:, lo : lo + cfg.batch_size]
                _backprop(layers, grad_layers, features[idx], labels[idx])
                if adamw is not None:
                    adamw.step(theta, grad)
                else:
                    grad *= cfg.learning_rate
                    theta -= grad

    for row, client_id in zip(theta, client_ids, strict=True):
        if not all_finite(row):
            raise NonFiniteGradient(f"client {client_id} diverged (non-finite parameters)")
    for row, start in zip(theta, starts):
        row -= start  # the delta, computed in place
    return theta


def local_train(
    global_model: GlobalModel,
    data: ClientDataset,
    cfg: TrainConfig,
    client_rng_seed: int,
    client_id: int = 0,
    out: np.ndarray | None = None,
) -> ModelUpdate:
    """Run `local_epochs` of seeded mini-batch optimization from the global
    parameters and return the parameter delta: `train_stack` for one client.
    The input model is not mutated; identical seeds give bit-identical deltas.

    Trains in the float32 vector `out` when given, which then holds the delta.
    Optimizer state (AdamW moments) starts fresh each call, i.e. per round.
    """
    start = global_model.params.values
    theta = np.empty_like(start) if out is None else out
    train_stack(global_model.architecture, [start], [data], cfg, [client_rng_seed], [client_id],
                theta[None])
    return ModelUpdate(
        delta=ParameterVector(theta, (theta.size,)),
        client_id=client_id,
        round=global_model.round,
    )


class RunningSum:
    """The float32 sum of one round's deltas, to which `add` adds each update
    in ascending client id, one at a time, so that a caller can let each
    update go once it is added; `mean_step` then gives the next global model.
    Every aggregation adds its deltas here, and so in one order."""

    __slots__ = ("model", "count", "_acc", "_last_id")

    def __init__(self, global_model: GlobalModel):
        self.model = global_model
        self.count = 0
        self._acc: np.ndarray | None = None  # taken by the first add, not before it is needed
        self._last_id = -1

    def add(self, update: ModelUpdate) -> None:
        """acc += update's delta, or raise if it is for another round or shape,
        or its client id is not above every id added so far."""
        if update.client_id <= self._last_id:
            raise ValueError(
                f"update from client {update.client_id} added after client {self._last_id}: "
                "duplicate or out of ascending id order"
            )
        if update.round != self.model.round:
            raise RoundMismatch(
                f"update from client {update.client_id} is for round {update.round}, "
                f"aggregating round {self.model.round}"
            )
        if update.delta.shape != self.model.params.shape:
            raise DimensionMismatch(
                f"update shape {update.delta.shape} != model shape {self.model.params.shape}"
            )
        if self._acc is None:
            self._acc = np.zeros(self.model.params.size, dtype=np.float32)
        self._acc += update.delta.values
        self.count += 1
        self._last_id = update.client_id

    def mean_step(self) -> GlobalModel:
        """The next global model: old + sum / count, computed in the sum's own
        buffer, which the model then owns; call it once."""
        if not self.count:
            raise EmptyVerifiedSet("no verified updates to aggregate")
        acc = self._acc
        acc /= self.count
        acc += self.model.params.values  # old + mean: the new parameters, in place
        return replace(
            self.model,
            params=ParameterVector(acc, self.model.params.shape),
            round=self.model.round + 1,
        )


def aggregate(
    global_model: GlobalModel, updates: list[ModelUpdate], total: RunningSum | None = None
) -> GlobalModel:
    """New global parameters = old + elementwise mean of the deltas.

    `updates` are added in ascending client-id order (float32) to `total`,
    a `RunningSum` of `global_model` that may hold lower ids' deltas already
    (by default an empty one), making the result independent of input
    listing order and reproducible bit-for-bit.
    """
    total = RunningSum(global_model) if total is None else total
    for u in sorted(updates, key=lambda u: u.client_id):
        total.add(u)
    return total.mean_step()


@dataclass
class PlainRunResult:
    model: GlobalModel
    losses: list[float] = field(default_factory=list)


def run_plain_fedavg(
    model: GlobalModel,
    participants: list[tuple[int, ClientDataset]],
    cfg: TrainConfig,
    eval_data: ClientDataset | None = None,
) -> PlainRunResult:
    """Federated averaging with no signatures and no transport: the
    reference training path that the signed protocol must match bit-for-bit
    when no attacks occur. `participants` maps client ids to their shards
    so per-(round, client) seeds line up with the protocol's."""
    losses: list[float] = []
    for _ in range(cfg.num_rounds):
        updates = [
            local_train(model, shard, cfg, train_seed(cfg.seed, model.round, cid), cid)
            for cid, shard in participants
        ]
        model = aggregate(model, updates)
        if eval_data is not None:
            losses.append(forward_loss(model, eval_data))
    return PlainRunResult(model=model, losses=losses)
