"""Federated core: splitting, training math, aggregation, oracles."""

import math
import struct

import numpy as np
import pytest

from pqfl import fedcore
from pqfl.codec import ParameterVector
from pqfl.errors import (
    DimensionMismatch,
    EmptyVerifiedSet,
    NonFiniteGradient,
    RoundMismatch,
    TooFewSamples,
)
from pqfl.fedcore import (
    ClientDataset,
    GlobalModel,
    ModelArchitecture,
    ModelUpdate,
    TrainConfig,
    aggregate,
    derive_seed,
    forward_loss,
    generate_synthetic,
    init_model,
    load_idx_dataset,
    local_train,
    loss_and_grad,
    loss_value,
    read_idx,
    run_plain_fedavg,
    split_iid,
    train_seed,
)


def small_data(n=120, d=8, c=3, seed=0) -> ClientDataset:
    return generate_synthetic(n, d, c, seed)


def make_update(delta: np.ndarray, client_id: int, round: int = 0) -> ModelUpdate:
    flat = np.asarray(delta, dtype=np.float32).reshape(-1)
    return ModelUpdate(delta=ParameterVector(flat, (flat.size,)), client_id=client_id, round=round)


# --- seed derivation ---------------------------------------------------------

def test_derive_seed_is_stable_and_separated():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert derive_seed(1, "a") != derive_seed(2, "a")
    assert derive_seed(1, "train") != derive_seed(1, "key")


# --- splitting ----------------------------------------------------------------

def test_split_even():
    shards = split_iid(small_data(100), 10, seed=1)
    assert [s.num_samples for s in shards] == [10] * 10


def test_split_remainder_rule():
    shards = split_iid(small_data(101), 10, seed=1)
    assert sorted(s.num_samples for s in shards) == [10] * 9 + [11]
    assert shards[0].num_samples == 11  # larger shards come first


def test_split_deterministic():
    a = split_iid(small_data(), 4, seed=7)
    b = split_iid(small_data(), 4, seed=7)
    for x, y in zip(a, b):
        assert x.features.tobytes() == y.features.tobytes()
        assert x.labels.tobytes() == y.labels.tobytes()
    c = split_iid(small_data(), 4, seed=8)
    assert any(x.features.tobytes() != y.features.tobytes() for x, y in zip(a, c))


def test_split_preserves_union():
    data = small_data(57)
    shards = split_iid(data, 5, seed=3)
    rows = sorted(
        row.tobytes() + int(lab).to_bytes(2, "little")
        for s in shards
        for row, lab in zip(s.features, s.labels)
    )
    original = sorted(
        row.tobytes() + int(lab).to_bytes(2, "little")
        for row, lab in zip(data.features, data.labels)
    )
    assert rows == original


def test_split_too_few_samples():
    with pytest.raises(TooFewSamples):
        split_iid(small_data(3), 4, seed=0)


# The split as it was before shards became row views: a fancy-index copy of
# each shard's rows. The views must hold the same rows in the same order.
def _reference_split(data, num_clients, seed):
    perm = np.random.default_rng(seed).permutation(data.num_samples)
    return [(data.features[idx], data.labels[idx]) for idx in np.array_split(perm, num_clients)]


@pytest.mark.parametrize("num_samples, num_clients", [(100, 10), (101, 10), (57, 5)])
def test_shards_match_fancy_index_split_bitwise(num_samples, num_clients):
    data = small_data(num_samples)
    shards = split_iid(data, num_clients, seed=3)
    expected = _reference_split(data, num_clients, 3)
    assert len(shards) == len(expected)
    for shard, (feats, labels) in zip(shards, expected):
        assert shard.num_samples == feats.shape[0] and shard.num_features == feats.shape[1]
        assert shard.features.dtype == np.float32 and shard.labels.dtype == np.int64
        assert shard.features.tobytes() == feats.tobytes()
        assert shard.labels.tobytes() == labels.tobytes()


def test_splitting_a_shard_splits_its_rows():
    shard = split_iid(small_data(57), 3, seed=3)[1]
    copied = ClientDataset(shard.features.copy(), shard.labels.copy())
    for a, b in zip(split_iid(shard, 4, seed=5), split_iid(copied, 4, seed=5)):
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()


@pytest.mark.parametrize(
    "optimizer, batch_size", [("sgd", 8), ("adamw", 8), ("sgd", 16)],
    ids=["sgd", "adamw", "ragged-last-batch"],
)
def test_local_train_on_shard_matches_copied_shard(optimizer, batch_size):
    # and training in a given vector, as a client trains in its upload, matches too
    shard = split_iid(small_data(120, d=12, c=4), 3, seed=2)[0]
    copied = ClientDataset(shard.features.copy(), shard.labels.copy())
    # 40 samples: whole batches of 8, and batches of 16 with a short last one
    assert shard.num_samples == 40
    model = init_model(ModelArchitecture(12, (16,), 4), seed=3)
    cfg = TrainConfig(
        num_clients=3, num_rounds=1, local_epochs=2, batch_size=batch_size,
        learning_rate=5e-2, optimizer=optimizer, seed=0,
    )
    delta = local_train(model, shard, cfg, client_rng_seed=11, client_id=1).delta.values
    expected = local_train(model, copied, cfg, client_rng_seed=11, client_id=1).delta.values
    assert delta.tobytes() == expected.tobytes()
    out = np.full(model.params.size, np.nan, dtype=np.float32)  # overwritten, never read
    in_place = local_train(model, shard, cfg, 11, 1, out).delta.values
    assert in_place.tobytes() == expected.tobytes()
    assert in_place.ctypes.data == out.ctypes.data and in_place.base is out


def test_dataset_arrays_are_read_only():
    feats = np.zeros((6, 2), dtype=np.float32)
    labels = np.zeros(6, dtype=np.int64)
    data = ClientDataset(feats, labels)
    shard = split_iid(data, 2, seed=0)[0]
    for array in (data.features, data.labels, shard.features, shard.labels):
        with pytest.raises(ValueError):
            array[0] = 1
    # the caller's own arrays keep their flags, and the dataset sees their values
    feats[0, 0] = 5.0
    labels[0] = 1
    assert data.features[0, 0] == 5.0 and data.labels[0] == 1


# --- datasets -----------------------------------------------------------------

def test_synthetic_deterministic_and_valid():
    a = generate_synthetic(50, 6, 4, seed=5)
    b = generate_synthetic(50, 6, 4, seed=5)
    assert a.features.tobytes() == b.features.tobytes()
    assert a.features.dtype == np.float32 and a.features.shape == (50, 6)
    assert a.labels.min() >= 0 and a.labels.max() < 4


def test_dataset_validation():
    with pytest.raises(DimensionMismatch):
        ClientDataset(features=np.zeros((3, 2), dtype=np.float32), labels=np.zeros(4, dtype=np.int64))
    with pytest.raises(DimensionMismatch):
        ClientDataset(features=np.zeros((0, 2), dtype=np.float32), labels=np.zeros(0, dtype=np.int64))


def test_idx_round_trip(tmp_path):
    images = (np.arange(4 * 3 * 3) % 251).astype(np.uint8).reshape(4, 3, 3)
    labels = np.array([0, 1, 2, 1], dtype=np.uint8)
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    img_path.write_bytes(struct.pack(">BBBB", 0, 0, 0x08, 3) + struct.pack(">III", 4, 3, 3) + images.tobytes())
    lab_path.write_bytes(struct.pack(">BBBB", 0, 0, 0x08, 1) + struct.pack(">I", 4) + labels.tobytes())

    back = read_idx(str(img_path))
    assert back.shape == (4, 3, 3) and np.array_equal(back, images)

    ds = load_idx_dataset(str(img_path), str(lab_path))
    assert ds.num_samples == 4 and ds.num_features == 9
    assert ds.features.max() <= 1.0 and ds.features.min() >= 0.0
    np.testing.assert_allclose(ds.features[1, 0], images[1, 0, 0] / 255.0, rtol=1e-6)

    limited = load_idx_dataset(str(img_path), str(lab_path), limit=2)
    assert limited.num_samples == 2
    for limit in (0, -1):  # -1 would slice off the last sample, 0 every one
        with pytest.raises(ValueError, match="limit"):
            load_idx_dataset(str(img_path), str(lab_path), limit=limit)


def test_idx_malformed(tmp_path):
    bad = tmp_path / "bad.idx"
    bad.write_bytes(b"\x01\x00\x08\x01")
    with pytest.raises(ValueError):
        read_idx(str(bad))
    truncated = tmp_path / "trunc.idx"
    truncated.write_bytes(struct.pack(">BBBB", 0, 0, 0x08, 1) + struct.pack(">I", 10) + b"\x00" * 3)
    with pytest.raises(ValueError):
        read_idx(str(truncated))


def test_idx_count_mismatch(tmp_path):
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    img_path.write_bytes(struct.pack(">BBBB", 0, 0, 0x08, 2) + struct.pack(">II", 2, 4) + bytes(8))
    lab_path.write_bytes(struct.pack(">BBBB", 0, 0, 0x08, 1) + struct.pack(">I", 3) + bytes(3))
    with pytest.raises(DimensionMismatch):
        load_idx_dataset(str(img_path), str(lab_path))


# --- model / loss ---------------------------------------------------------------

def test_param_count():
    arch = ModelArchitecture(20, (32,), 5)
    assert arch.param_count == 20 * 32 + 32 + 32 * 5 + 5 == 837
    assert ModelArchitecture(10, (), 4).param_count == 44


def test_uniform_model_loss_is_log_num_classes():
    arch = ModelArchitecture(6, (), 10)
    flat = np.zeros(arch.param_count, dtype=np.float32)
    model = GlobalModel(params=ParameterVector(flat, (flat.size,)), architecture=arch, round=0)
    data = generate_synthetic(64, 6, 10, seed=2)
    assert forward_loss(model, data) == pytest.approx(math.log(10), rel=1e-6)


def test_global_loss_is_mean_of_equal_shard_losses():
    arch = ModelArchitecture(8, (16,), 3)
    model = init_model(arch, seed=3)
    data = small_data(120)
    shards = split_iid(data, 4, seed=1)  # 120 / 4: equal shards
    per_client = [forward_loss(model, s) for s in shards]
    assert forward_loss(model, data) == pytest.approx(float(np.mean(per_client)), rel=1e-6)


def test_forward_loss_dimension_mismatch():
    model = init_model(ModelArchitecture(9, (), 3), seed=0)
    with pytest.raises(DimensionMismatch):
        forward_loss(model, small_data(d=8))


def test_init_model_deterministic():
    arch = ModelArchitecture(8, (16,), 3)
    assert init_model(arch, seed=1).params == init_model(arch, seed=1).params
    assert init_model(arch, seed=1).params != init_model(arch, seed=2).params


# --- gradients -------------------------------------------------------------------

def central_fd_gradient(arch, theta64, x64, y, h=1e-6):
    grad = np.zeros_like(theta64)
    for i in range(theta64.size):
        up = theta64.copy()
        up[i] += h
        down = theta64.copy()
        down[i] -= h
        grad[i] = (loss_value(arch, up, x64, y) - loss_value(arch, down, x64, y)) / (2 * h)
    return grad


@pytest.mark.parametrize("hidden", [(), (5,), (4, 3)])
def test_gradcheck_against_finite_differences(hidden):
    rng = np.random.default_rng(17)
    for _ in range(7):  # 7 instances x 3 architectures = 21 checks
        arch = ModelArchitecture(4, hidden, 3)
        theta = rng.standard_normal(arch.param_count)
        x = rng.standard_normal((6, 4))
        y = rng.integers(0, 3, size=6)
        _, analytic = loss_and_grad(arch, theta, x, y)
        numeric = central_fd_gradient(arch, theta, x, y)
        assert np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric) < 1e-4
        # componentwise, with absolute slack for near-zero entries where
        # central differences bottom out in truncation noise
        scale = np.max(np.abs(numeric))
        assert np.all(
            np.abs(analytic - numeric) < 1e-4 * (np.abs(analytic) + np.abs(numeric)) + 1e-7 * scale
        )


def test_single_sgd_step_matches_fd_gradient():
    # one full-batch step of logistic regression: delta = -lr * gradient
    arch = ModelArchitecture(5, (), 3)
    model = init_model(arch, seed=11)
    data = generate_synthetic(32, 5, 3, seed=4)
    cfg = TrainConfig(num_clients=1, num_rounds=1, batch_size=32, learning_rate=0.1, seed=0)
    update = local_train(model, data, cfg, client_rng_seed=5, client_id=1)

    theta64 = model.params.values.astype(np.float64)
    fd = central_fd_gradient(arch, theta64, data.features.astype(np.float64), data.labels)
    expected = -cfg.learning_rate * fd
    got = update.delta.values.astype(np.float64)
    assert np.linalg.norm(got - expected) / np.linalg.norm(expected) < 1e-4


# --- local training ----------------------------------------------------------------

def test_zero_learning_rate_gives_zero_delta():
    model = init_model(ModelArchitecture(8, (16,), 3), seed=0)
    cfg = TrainConfig(num_clients=1, num_rounds=1, learning_rate=0.0, seed=0)
    update = local_train(model, small_data(), cfg, client_rng_seed=1, client_id=1)
    assert not update.delta.values.any()


def test_local_train_deterministic_and_pure():
    model = init_model(ModelArchitecture(8, (16,), 3), seed=0)
    before = model.params.values.tobytes()
    cfg = TrainConfig(num_clients=1, num_rounds=1, seed=0)
    a = local_train(model, small_data(), cfg, client_rng_seed=9, client_id=1)
    b = local_train(model, small_data(), cfg, client_rng_seed=9, client_id=1)
    assert a.delta == b.delta
    assert model.params.values.tobytes() == before  # input model untouched
    c = local_train(model, small_data(), cfg, client_rng_seed=10, client_id=1)
    assert a.delta != c.delta


def test_local_train_respects_epochs_and_metadata():
    model = init_model(ModelArchitecture(8, (16,), 3), seed=0)
    cfg1 = TrainConfig(num_clients=1, num_rounds=1, local_epochs=1, seed=0)
    cfg2 = TrainConfig(num_clients=1, num_rounds=1, local_epochs=3, seed=0)
    u1 = local_train(model, small_data(), cfg1, client_rng_seed=1, client_id=4)
    u2 = local_train(model, small_data(), cfg2, client_rng_seed=1, client_id=4)
    assert u1.delta != u2.delta
    assert u1.client_id == 4 and u1.round == model.round


def test_adamw_runs_and_differs_from_sgd():
    model = init_model(ModelArchitecture(8, (16,), 3), seed=0)
    sgd_cfg = TrainConfig(num_clients=1, num_rounds=1, optimizer="sgd", learning_rate=1e-3, seed=0)
    adamw_cfg = TrainConfig(num_clients=1, num_rounds=1, optimizer="adamw", learning_rate=1e-3, seed=0)
    u_sgd = local_train(model, small_data(), sgd_cfg, client_rng_seed=1, client_id=1)
    u_adamw = local_train(model, small_data(), adamw_cfg, client_rng_seed=1, client_id=1)
    u_adamw2 = local_train(model, small_data(), adamw_cfg, client_rng_seed=1, client_id=1)
    assert u_adamw.delta == u_adamw2.delta
    assert u_adamw.delta != u_sgd.delta


def test_divergence_raises_non_finite():
    model = init_model(ModelArchitecture(8, (16,), 3), seed=0)
    cfg = TrainConfig(num_clients=1, num_rounds=1, local_epochs=3, learning_rate=1e38, seed=0)
    with pytest.raises(NonFiniteGradient):
        local_train(model, small_data(), cfg, client_rng_seed=1, client_id=1)


# --- stacked training -------------------------------------------------------------

@pytest.mark.parametrize("epochs", [1, 2])
@pytest.mark.parametrize("optimizer", ["sgd", "adamw"])
@pytest.mark.parametrize("batch_size", [1, 7, 32])
@pytest.mark.parametrize("hidden", [(), (16,), (16, 8)], ids=["logreg", "16", "16-8"])
def test_a_stack_trains_each_client_as_it_trains_alone(hidden, batch_size, optimizer, epochs):
    # 45 samples a shard: batches of 7 and of 32 end with a short one
    shards = split_iid(small_data(135, d=12, c=4), 3, seed=2)
    arch = ModelArchitecture(12, hidden, 4)
    models = [init_model(arch, seed=s) for s in (3, 4, 5)]  # each client starts elsewhere
    cfg = TrainConfig(
        num_clients=3, num_rounds=1, local_epochs=epochs, batch_size=batch_size,
        learning_rate=5e-2, optimizer=optimizer, adamw_weight_decay=0.01, seed=0,
    )
    seeds, ids = [11, 12, 13], [4, 5, 6]
    stacked = fedcore.train_stack(arch, [m.params.values for m in models], shards, cfg, seeds, ids)
    assert stacked.shape == (3, arch.param_count) and stacked.dtype == np.float32
    for row, model, shard, seed, cid in zip(stacked, models, shards, seeds, ids):
        alone = local_train(model, shard, cfg, seed, cid).delta.values
        assert row.tobytes() == alone.tobytes()


def test_a_diverging_stack_names_its_first_diverging_client():
    shards = split_iid(small_data(90), 3, seed=0)
    arch = ModelArchitecture(8, (16,), 3)
    start = init_model(arch, seed=0).params.values
    blown = np.full_like(start, 1e30)  # its logits overflow
    cfg = TrainConfig(num_clients=3, num_rounds=1, seed=0)
    with pytest.raises(NonFiniteGradient, match="client 8 diverged"):
        fedcore.train_stack(arch, [start, blown, blown], shards, cfg, [1, 2, 3], [7, 8, 9])


def test_a_stack_takes_shards_of_one_size_from_one_data_set():
    arch = ModelArchitecture(8, (16,), 3)
    start = init_model(arch, seed=0).params.values
    cfg = TrainConfig(num_clients=2, num_rounds=1, seed=0)
    uneven = split_iid(small_data(61), 2, seed=0)  # 31 and 30 samples
    apart = [split_iid(small_data(seed=s), 2, seed=0)[0] for s in (0, 1)]
    for shards in uneven, apart:
        with pytest.raises(ValueError, match="one size and from one data set"):
            fedcore.train_stack(arch, [start, start], shards, cfg, [1, 2], [1, 2])


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(num_clients=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(optimizer="adagrad")


# --- aggregation --------------------------------------------------------------------

def test_aggregate_identical_updates():
    model = init_model(ModelArchitecture(4, (), 3), seed=0)
    delta = np.full(model.params.size, 0.25, dtype=np.float32)
    updates = [make_update(delta, cid) for cid in (1, 2, 3)]
    merged = aggregate(model, updates)
    np.testing.assert_array_equal(merged.params.values, model.params.values + delta)
    assert merged.round == 1


def test_aggregate_opposite_updates_cancel():
    model = init_model(ModelArchitecture(4, (), 3), seed=0)
    v = np.linspace(-1, 1, model.params.size, dtype=np.float32)
    merged = aggregate(model, [make_update(v, 1), make_update(-v, 2)])
    np.testing.assert_array_equal(merged.params.values, model.params.values)


def test_aggregate_matches_scalar_loop_oracle():
    # 7 survivors of 10: mean computed by an elementwise float32 scalar loop
    rng = np.random.default_rng(0)
    model = init_model(ModelArchitecture(3, (), 2), seed=1)
    n = model.params.size
    updates = [make_update(rng.standard_normal(n).astype(np.float32), cid) for cid in (1, 2, 4, 5, 7, 9, 10)]
    merged = aggregate(model, updates)

    count = np.float32(len(updates))
    for j in range(n):
        acc = np.float32(0.0)
        for u in sorted(updates, key=lambda u: u.client_id):
            acc = np.float32(acc + u.delta.values[j])
        expected = np.float32(model.params.values[j] + np.float32(acc / count))
        assert merged.params.values[j] == expected


def test_aggregate_permutation_invariant():
    rng = np.random.default_rng(3)
    model = init_model(ModelArchitecture(6, (4,), 3), seed=2)
    updates = [make_update(rng.standard_normal(model.params.size).astype(np.float32), cid) for cid in range(1, 8)]
    a = aggregate(model, updates)
    b = aggregate(model, list(reversed(updates)))
    c = aggregate(model, sorted(updates, key=lambda u: -u.client_id % 3))
    assert a.params == b.params == c.params


def test_aggregate_errors():
    model = init_model(ModelArchitecture(4, (), 3), seed=0)
    n = model.params.size
    with pytest.raises(EmptyVerifiedSet):
        aggregate(model, [])
    with pytest.raises(RoundMismatch):
        aggregate(model, [make_update(np.zeros(n), 1, round=2)])
    with pytest.raises(DimensionMismatch):
        aggregate(model, [make_update(np.zeros(n + 1), 1)])
    with pytest.raises(ValueError):
        aggregate(model, [make_update(np.zeros(n), 1), make_update(np.zeros(n), 1)])


# --- plain federated loop --------------------------------------------------------------

def test_loss_decreases_on_separable_data():
    data = generate_synthetic(400, 10, 4, seed=6, separation=4.0)
    shards = split_iid(data, 4, seed=1)
    model = init_model(ModelArchitecture(10, (16,), 4), seed=0)
    cfg = TrainConfig(num_clients=4, num_rounds=8, seed=0)
    result = run_plain_fedavg(model, list(enumerate(shards, start=1)), cfg, eval_data=data)
    assert result.losses[-1] < result.losses[0]


def test_single_client_equals_centralized_training():
    """With one client, T rounds must reproduce T epochs of centralized
    training. The protocol necessarily applies theta + (theta' - theta),
    which IEEE-754 rounds 1 ulp away from theta' on some coordinates each
    round, and the divergence compounds through later rounds, so the
    in-place oracle comparison carries a float32-noise tolerance; the
    round-delta formulation itself is asserted bit-exactly via a rerun.
    """
    master = 42
    cfg = TrainConfig(num_clients=1, num_rounds=10, seed=master)
    data = generate_synthetic(200, 12, 4, seed=derive_seed(master, "data"))
    arch = ModelArchitecture(12, (16,), 4)
    model0 = init_model(arch, derive_seed(master, "init"))

    fed = run_plain_fedavg(model0, [(1, data)], cfg).model.params.values

    # independent in-place oracle, same per-round seeds
    theta = model0.params.values.copy()
    for t in range(cfg.num_rounds):
        rng = np.random.default_rng(train_seed(master, t, 1))
        for _ in range(cfg.local_epochs):
            perm = rng.permutation(data.num_samples)
            for lo in range(0, data.num_samples, cfg.batch_size):
                idx = perm[lo : lo + cfg.batch_size]
                _, g = loss_and_grad(arch, theta, data.features[idx], data.labels[idx])
                theta -= cfg.learning_rate * g

    np.testing.assert_allclose(fed, theta, rtol=1e-5, atol=1e-7)

    again = run_plain_fedavg(model0, [(1, data)], cfg).model.params.values
    assert fed.tobytes() == again.tobytes()


# --- in-place training step against a frozen reference ------------------------------
# The loop below is the training step as it was before gradients were written
# into a preallocated buffer and the update applied in place: a fresh
# concatenated gradient each step, `theta -= lr * grad`, and AdamW by whole-array
# expressions. The in-place step must reproduce it bit for bit.

def _reference_unpack(arch, flat):
    layers, off = [], 0
    for d_in, d_out in arch.layer_dims:
        w = flat[off : off + d_in * d_out].reshape(d_in, d_out)
        off += d_in * d_out
        layers.append((w, flat[off : off + d_out]))
        off += d_out
    return layers


def _reference_loss_and_grad(arch, flat, x, y):
    layers = _reference_unpack(arch, flat)
    n = x.shape[0]
    activations = [x]
    h = x
    for w, b in layers[:-1]:
        h = np.maximum(h @ w + b, 0)
        activations.append(h)
    w_out, b_out = layers[-1]
    logits = h @ w_out + b_out
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-logp[np.arange(n), y].mean())
    dlogits = np.exp(logp)
    dlogits[np.arange(n), y] -= 1
    dlogits /= n
    grads = []
    delta = dlogits
    for i in reversed(range(len(layers))):
        w, _ = layers[i]
        grads.append(np.sum(delta, axis=0))
        grads.append((activations[i].T @ delta).reshape(-1))
        if i > 0:
            delta = (delta @ w.T) * (activations[i] > 0)
    grads.reverse()
    return loss, np.concatenate(grads)


def _reference_delta(model, data, cfg, seed):
    start = model.params.values
    theta = start.copy()
    rng = np.random.default_rng(seed)
    m = np.zeros(theta.size, dtype=np.float32)
    v = np.zeros(theta.size, dtype=np.float32)
    t = 0
    for _ in range(cfg.local_epochs):
        perm = rng.permutation(data.num_samples)
        for lo in range(0, data.num_samples, cfg.batch_size):
            idx = perm[lo : lo + cfg.batch_size]
            _, grad = _reference_loss_and_grad(
                model.architecture, theta, data.features[idx], data.labels[idx]
            )
            if cfg.optimizer == "adamw":
                beta1, beta2, eps = 0.9, 0.999, 1e-8
                t += 1
                m = beta1 * m + (1.0 - beta1) * grad
                v = beta2 * v + (1.0 - beta2) * grad * grad
                m_hat = m / (1.0 - beta1**t)
                v_hat = v / (1.0 - beta2**t)
                theta -= cfg.learning_rate * (
                    m_hat / (np.sqrt(v_hat) + eps) + cfg.adamw_weight_decay * theta
                )
            else:
                theta -= cfg.learning_rate * grad
    return theta - start


@pytest.mark.parametrize("hidden", [(), (24,), (20, 12)], ids=["0-hidden", "1-hidden", "2-hidden"])
@pytest.mark.parametrize(
    "optimizer, weight_decay", [("sgd", 0.0), ("adamw", 0.0), ("adamw", 0.01)],
    ids=["sgd", "adamw", "adamw-wd"],
)
def test_in_place_step_matches_reference_bitwise(hidden, optimizer, weight_decay):
    data = generate_synthetic(103, 40, 4, seed=5)  # 103 = 6 batches of 16 + a ragged 7
    model = init_model(ModelArchitecture(40, hidden, 4), seed=3)
    cfg = TrainConfig(
        num_clients=1, num_rounds=1, local_epochs=2, batch_size=16, learning_rate=5e-2,
        optimizer=optimizer, adamw_weight_decay=weight_decay, seed=0,
    )
    update = local_train(model, data, cfg, client_rng_seed=11, client_id=1)
    expected = _reference_delta(model, data, cfg, 11)
    assert expected.dtype == np.float32
    assert update.delta.values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("hidden", [(), (24,), (20, 12)], ids=["0-hidden", "1-hidden", "2-hidden"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_loss_and_grad_matches_reference_bitwise(hidden, dtype):
    rng = np.random.default_rng(23)
    arch = ModelArchitecture(40, hidden, 4)
    theta = rng.standard_normal(arch.param_count).astype(dtype)
    x = rng.standard_normal((7, 40)).astype(dtype)
    y = rng.integers(0, 4, size=7)
    loss, grad = loss_and_grad(arch, theta, x, y)
    ref_loss, ref_grad = _reference_loss_and_grad(arch, theta, x, y)
    assert loss == ref_loss
    assert grad.dtype == ref_grad.dtype
    assert grad.tobytes() == ref_grad.tobytes()


# --- float32 set-up against frozen references ----------------------------------------
# The expressions below are data generation, initialisation and IDX scaling as
# they were before the float32 outputs were filled block by block from a small
# float64 scratch: whole float64 matrices, rounded to float32 at the end. The
# block-wise fill must reproduce them bit for bit.

def _reference_synthetic(num_samples, num_features, num_classes, seed, separation=3.0):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_classes, num_features)) * separation
    labels = rng.integers(0, num_classes, size=num_samples)
    feats = centers[labels] + rng.standard_normal((num_samples, num_features))
    return feats.astype(np.float32), labels


def _reference_init(arch, seed):
    rng = np.random.default_rng(seed)
    chunks = []
    for d_in, d_out in arch.layer_dims:
        w = rng.standard_normal((d_in, d_out)) * np.sqrt(2.0 / d_in)
        chunks.append(w.reshape(-1))
        chunks.append(np.zeros(d_out))
    return np.concatenate(chunks).astype(np.float32)


def _block_rows(width):
    return max(1, fedcore._SCRATCH_BYTES // (8 * width))


@pytest.mark.parametrize(
    "num_samples, num_features, scratch_bytes",
    [(1000, 784, None), (1, 784, None), (9, 30, 16)],
    ids=["ragged-last-block", "one-sample", "one-row-blocks"],
)
def test_synthetic_matches_reference_bitwise(monkeypatch, num_samples, num_features, scratch_bytes):
    if scratch_bytes is not None:
        monkeypatch.setattr(fedcore, "_SCRATCH_BYTES", scratch_bytes)
        assert _block_rows(num_features) == 1  # a row is wider than the scratch
    elif num_samples > 1:
        assert num_samples % _block_rows(num_features) != 0  # a short last block
    data = generate_synthetic(num_samples, num_features, 5, seed=17)
    feats, labels = _reference_synthetic(num_samples, num_features, 5, 17)
    assert data.features.dtype == np.float32
    assert data.features.tobytes() == feats.tobytes()
    assert data.labels.tobytes() == labels.tobytes()


@pytest.mark.parametrize(
    "arch, scratch_bytes",
    [
        (ModelArchitecture(784, (256,), 5), None),
        (ModelArchitecture(10, (), 4), None),
        (ModelArchitecture(40, (20, 12), 4), None),
        (ModelArchitecture(40, (20, 12), 4), 16),
    ],
    ids=["784-256-5", "no-hidden", "two-hidden", "two-hidden-one-row-blocks"],
)
def test_init_model_matches_reference_bitwise(monkeypatch, arch, scratch_bytes):
    if scratch_bytes is not None:
        monkeypatch.setattr(fedcore, "_SCRATCH_BYTES", scratch_bytes)
        assert all(_block_rows(d_out) == 1 for _, d_out in arch.layer_dims)
    values = init_model(arch, seed=29).params.values
    assert values.tobytes() == _reference_init(arch, 29).tobytes()


@pytest.mark.parametrize("code, dtype", [(0x08, np.uint8), (0x0B, ">i2"), (0x0D, ">f4"), (0x0E, ">f8")])
def test_idx_scaling_matches_reference_bitwise(tmp_path, code, dtype):
    images = (np.random.default_rng(3).random((6, 5, 4)) * 255).astype(dtype)
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    img_path.write_bytes(struct.pack(">BBBB", 0, 0, code, 3) + struct.pack(">III", 6, 5, 4) + images.tobytes())
    lab_path.write_bytes(struct.pack(">BBBB", 0, 0, 0x08, 1) + struct.pack(">I", 6) + bytes(range(6)))
    expected = images.reshape(6, -1).astype(np.float32) / np.float32(255.0)
    features = load_idx_dataset(str(img_path), str(lab_path)).features
    assert features.tobytes() == expected.tobytes()
