import numpy as np
import pytest

from virso_kit.errors import InvalidParameterError, UndefinedMetricError
from virso_kit.graphs import (
    anchor_embeddings,
    build_knn,
    compute_edge_weights,
)
from virso_kit.model import GraphArtifacts, VirsoConfig, VirsoModel, forward
from virso_kit.spectral import dense_eigen_reference, normalized_laplacian
from virso_kit.synthetic import SynthSpec, generate_dataset
from virso_kit.training import (
    Dataset,
    Normalizer,
    TrainSchedule,
    _physical_pred,
    batch_loss,
    evaluate,
    load_dataset,
    nearest_rank_percentiles,
    relative_l2,
    save_dataset,
    split_dataset,
    train,
)


def tiny_setup(n_target=120, samples=40, seed=0, **cfg_over):
    spec = SynthSpec(n_target=n_target, sample_count=samples, seed=seed)
    ds, pts = generate_dataset(spec)
    g = compute_edge_weights(build_knn(pts, 5), pts)
    basis = dense_eigen_reference(normalized_laplacian(g), 6)
    anchors = anchor_embeddings(g, 4, seed=0)
    arts = GraphArtifacts.prepare(g, pts.coords, basis=basis, anchors=anchors)
    cfg = dict(
        T=1, d_v=6, m=6, d_latent=6, output_channels=3, input_width=ds.q,
        alpha_anchors=4, gate_hidden=4, gate_weight_width=2,
        embed_hidden=8, down_hidden=8,
    )
    cfg.update(cfg_over)
    model = VirsoModel(VirsoConfig(**cfg), seed=1)
    return ds, arts, model


# ---------------------------------------------------------------------------
# split_dataset


def test_split_fractions_basic():
    ds = Dataset(np.zeros((100, 3)), np.zeros((100, 5, 2)), [str(i) for i in range(100)])
    out = split_dataset(ds, (0.8, 0.1, 0.1), seed=0)
    sizes = {s: int((out.splits == s).sum()) for s in ("train", "val", "test")}
    assert sizes == {"train": 80, "val": 10, "test": 10}


def test_split_published_counts():
    ds = Dataset(np.zeros((1546, 3)), np.zeros((1546, 4, 2)), [str(i) for i in range(1546)])
    out = split_dataset(ds, (988, 248, 310), seed=1)
    sizes = [int((out.splits == s).sum()) for s in ("train", "val", "test")]
    assert sizes == [988, 248, 310]


def test_split_disjoint_exhaustive_deterministic():
    ds = Dataset(np.random.default_rng(0).normal(size=(57, 2)),
                 np.zeros((57, 3, 1)), [str(i) for i in range(57)])
    a = split_dataset(ds, (0.6, 0.2, 0.2), seed=7)
    b = split_dataset(ds, (0.6, 0.2, 0.2), seed=7)
    assert np.array_equal(a.splits, b.splits)
    assert set(np.unique(a.splits)) == {"train", "val", "test"}
    assert a.splits.size == 57


def test_split_errors():
    ds = Dataset(np.zeros((10, 2)), np.zeros((10, 3, 1)), [str(i) for i in range(10)])
    with pytest.raises(InvalidParameterError):
        split_dataset(ds, (0.9, 0.2, 0.1), seed=0)  # does not sum to 1
    with pytest.raises(InvalidParameterError):
        split_dataset(ds, (9, 1, 1), seed=0)  # counts exceed N
    with pytest.raises(InvalidParameterError):
        split_dataset(ds, (0.98, 0.01, 0.01), seed=0)  # empty split


# ---------------------------------------------------------------------------
# relative_l2 / the training loss


def test_relative_l2_exact_and_scaled():
    rng = np.random.default_rng(0)
    truth = rng.standard_normal((6, 2))
    per, mean = relative_l2(truth, truth)
    assert np.all(per == 0.0) and mean == 0.0
    per2, mean2 = relative_l2(2 * truth, truth)
    assert np.allclose(per2, 1.0)
    assert np.isclose(mean2, 1.0)


def test_relative_l2_matches_hand_formula():
    rng = np.random.default_rng(1)
    pred, truth = rng.standard_normal((5, 2)), rng.standard_normal((5, 2))
    per, mean = relative_l2(pred, truth)
    for o in range(2):
        num = np.sqrt(np.sum((pred[:, o] - truth[:, o]) ** 2))
        den = np.sqrt(np.sum(truth[:, o] ** 2))
        assert np.isclose(per[o], num / den, atol=1e-14)
    assert np.isclose(mean, per.mean())


def test_relative_l2_zero_norm_channel():
    with pytest.raises(UndefinedMetricError, match="channel 1"):
        relative_l2(np.ones((4, 2)), np.stack([np.ones(4), np.zeros(4)], axis=1))


def test_relative_l2_batch_matches_per_sample():
    rng = np.random.default_rng(3)
    pred, truth = rng.standard_normal((32, 400, 3)), rng.standard_normal((32, 400, 3))
    per, mean = relative_l2(pred, truth)
    assert per.shape == (32, 3) and mean.shape == (32,)
    for b in range(32):
        per_b, mean_b = relative_l2(pred[b], truth[b])
        assert np.array_equal(per[b], per_b) and mean[b] == mean_b
    truth[5, :, 1] = 0.0
    with pytest.raises(UndefinedMetricError, match="channel 1 in sample 5"):
        relative_l2(pred, truth)


def test_batch_loss_is_the_reported_metric():
    # with divisor 1 the training loss is exactly the summed per-channel
    # errors `relative_l2` reports: one op computes both
    ds, arts, model = tiny_setup()
    target_norm = Normalizer().fit(ds.targets)
    u, truth = ds.inputs[:10], ds.targets[:10]
    loss = batch_loss(model, arts, u, truth, target_norm, divisor=1)
    pred = _physical_pred(forward(model, arts, u), target_norm).data
    assert float(loss.data) == relative_l2(pred, truth)[0].sum()


# ---------------------------------------------------------------------------
# Normalizer


@pytest.mark.parametrize("mode", ["minmax", "gaussian"])
def test_normalizer_round_trip(mode):
    rng = np.random.default_rng(4)
    data = rng.standard_normal((30, 8, 3)) * [1.0, 100.0, 1e-4] + [0, 500, 0]
    norm = Normalizer(mode=mode).fit(data)
    back = norm.invert(norm.apply(data))
    assert np.max(np.abs(back - data)) < 1e-12


def test_normalizer_minmax_range():
    rng = np.random.default_rng(5)
    data = rng.uniform(-3, 7, size=(50, 4, 2))
    norm = Normalizer(mode="minmax").fit(data)
    scaled = norm.apply(data)
    assert np.isclose(scaled.max(), 1.0) and np.isclose(scaled.min(), -1.0)


def test_normalizer_leakage_guard_bit_identical():
    rng = np.random.default_rng(6)
    big = rng.standard_normal((100, 6, 2))
    train = big[:60]
    n1 = Normalizer(mode="gaussian").fit(train)
    # refit with val/test tensors alive in memory and a copy of the train slice
    other = big[60:]
    n2 = Normalizer(mode="gaussian").fit(train.copy())
    assert np.array_equal(n1.mu, n2.mu) and np.array_equal(n1.sigma, n2.sigma)
    del other


def test_normalizer_unfitted_raises_and_affine_consistent():
    norm = Normalizer(mode="minmax")
    with pytest.raises(InvalidParameterError):
        norm.apply(np.zeros((2, 2)))
    rng = np.random.default_rng(7)
    data = rng.standard_normal((20, 3))
    norm.fit(data)
    scale, offset = norm.to_physical_affine()
    x = rng.standard_normal((5, 3))
    assert np.max(np.abs((norm.apply(x) * scale + offset) - x)) < 1e-12


def test_normalizer_state_round_trip():
    rng = np.random.default_rng(8)
    norm = Normalizer(mode="minmax").fit(rng.standard_normal((10, 2)))
    back = Normalizer.from_state(norm.state())
    x = rng.standard_normal((4, 2))
    assert np.array_equal(back.apply(x), norm.apply(x))


# ---------------------------------------------------------------------------
# percentiles / evaluate


def test_percentiles_sort_oracle():
    rng = np.random.default_rng(9)
    errs = rng.uniform(0, 1, 20)
    got = nearest_rank_percentiles(errs)
    v = np.sort(errs)
    assert got["best"] == v[0] and got["worst"] == v[-1]
    assert got["p25"] == v[int(np.ceil(0.25 * 20)) - 1]
    assert got["p50"] == v[int(np.ceil(0.50 * 20)) - 1]
    assert got["p75"] == v[int(np.ceil(0.75 * 20)) - 1]
    assert got["p95"] == v[int(np.ceil(0.95 * 20)) - 1]


def test_percentiles_single_sample_all_equal():
    got = nearest_rank_percentiles(np.array([0.37]))
    assert len(set(got.values())) == 1


def test_percentiles_constant_errors_flat_row():
    got = nearest_rank_percentiles(np.full(9, 0.2))
    assert all(v == pytest.approx(0.2) for v in got.values())


# ---------------------------------------------------------------------------
# training loop


def test_patience_one_stops_after_two_epochs():
    ds, arts, model = tiny_setup()
    ds = split_dataset(ds, (0.6, 0.2, 0.2), seed=0)
    # lr = 0 freezes the model, so the val metric never strictly improves
    sched = TrainSchedule(lr=0.0, batch_size=8, max_epochs=50, patience=1,
                          weight_decay=0.0, seed=0)
    report, _, _ = train(model, ds, arts, sched)
    assert report.epochs_run == 2
    assert report.stopping_reason == "early_stopping"
    assert report.best_epoch == 1


def test_training_improves_and_retains_best(tmp_path):
    ds, arts, model = tiny_setup(n_target=100, samples=40)
    ds = split_dataset(ds, (0.6, 0.2, 0.2), seed=1)
    sched = TrainSchedule(lr=3e-3, batch_size=8, max_epochs=12, patience=12,
                          decay_step=8, weight_decay=1e-3, seed=0)
    report, input_norm, target_norm = train(model, ds, arts, sched, out_dir=tmp_path)
    assert report.val_curve[-1] <= report.val_curve[0] * 1.05
    assert report.best_val == min(report.val_curve)
    assert report.best_epoch == int(np.argmin(report.val_curve)) + 1
    assert (tmp_path / "train_report.json").is_file()
    assert (tmp_path / "loss_curve.csv").is_file()
    ev = evaluate(model, ds, arts, input_norm, target_norm, split="val")
    assert np.isclose(ev.mean, report.best_val, rtol=1e-9)
    assert report.final_test is not None


def test_training_deterministic_bit_identical():
    curves = []
    for _ in range(2):
        ds, arts, model = tiny_setup(n_target=80, samples=24, seed=2)
        ds = split_dataset(ds, (0.5, 0.25, 0.25), seed=3)
        sched = TrainSchedule(lr=1e-3, batch_size=6, max_epochs=4, patience=10, seed=5)
        report, _, _ = train(model, ds, arts, sched)
        curves.append((tuple(report.train_curve), tuple(report.val_curve)))
    assert curves[0] == curves[1]


def test_gradient_accumulation_matches_full_batch():
    ds, arts, model_a = tiny_setup(n_target=80, samples=24, seed=4)
    ds = split_dataset(ds, (0.5, 0.25, 0.25), seed=3)
    sched_a = TrainSchedule(lr=1e-3, batch_size=6, max_epochs=2, patience=10,
                            accum_steps=1, seed=5)
    report_a, _, _ = train(model_a, ds, arts, sched_a)
    _, _, model_b = tiny_setup(n_target=80, samples=24, seed=4)
    sched_b = TrainSchedule(lr=1e-3, batch_size=6, max_epochs=2, patience=10,
                            accum_steps=3, seed=5)
    report_b, _, _ = train(model_b, ds, arts, sched_b)
    assert np.allclose(report_a.train_curve, report_b.train_curve, rtol=1e-12)
    for name in model_a.params:
        assert np.allclose(model_a.params[name].data, model_b.params[name].data,
                           rtol=1e-9, atol=1e-12)


def test_train_frees_each_step_tape(monkeypatch):
    import weakref

    import virso_kit.training as training

    ds, arts, model = tiny_setup(n_target=80, samples=24, seed=4)
    ds = split_dataset(ds, (0.5, 0.25, 0.25), seed=3)
    roots, alive_at_next = [], []

    def recording_batch_loss(*args, **kwargs):
        loss = batch_loss(*args, **kwargs)
        if roots:
            alive_at_next.append(roots[-1]() is not None)
        roots.append(weakref.ref(loss))
        return loss

    monkeypatch.setattr(training, "batch_loss", recording_batch_loss)
    train(model, ds, arts, TrainSchedule(lr=1e-3, batch_size=4, max_epochs=1, seed=5))
    assert len(roots) >= 3
    assert not any(alive_at_next), "a step's tape outlived the next step's batch_loss"


def test_train_requires_splits():
    ds, arts, model = tiny_setup(n_target=80, samples=10)
    with pytest.raises(InvalidParameterError):
        train(model, ds, arts, TrainSchedule(max_epochs=1))


# ---------------------------------------------------------------------------
# dataset persistence


def test_dataset_round_trip(tmp_path):
    spec = SynthSpec(n_target=80, sample_count=10, seed=6)
    ds, pts = generate_dataset(spec)
    ds = split_dataset(ds, (0.6, 0.2, 0.2), seed=0)
    save_dataset(ds, tmp_path, pts)
    back, back_pts = load_dataset(tmp_path)
    assert back.count == 10 and back.q == ds.q and back.channels == 3
    assert np.array_equal(back.splits, ds.splits)
    assert np.allclose(back.inputs, ds.inputs, rtol=1e-6, atol=1e-4)
    assert np.allclose(back_pts.coords, pts.coords, atol=1e-6)
    assert back.meta["reconstruction_ratio"] == ds.meta["reconstruction_ratio"]
