"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. The toy-training
criteria share a session dataset; total runtime is several minutes on one
core, dominated by the training runs.
"""

import json
import time

import numpy as np
import pytest

from virso_kit.autodiff import grad_check
from virso_kit.graphs import (
    PointCloud,
    VknnConfig,
    anchor_embeddings,
    build_knn,
    build_vknn,
    compute_edge_weights,
    degree_stats,
    estimate_density,
    vknn_k_of,
)
from virso_kit.benchmarks import (
    edp,
    power_normalized_accuracy,
    reconstruction_ratio,
)
from virso_kit.model import (
    GraphArtifacts,
    VirsoConfig,
    VirsoModel,
    param_count,
)
from virso_kit.spectral import (
    dense_eigen_reference,
    lobpcg_smallest,
    normalized_laplacian,
)
from virso_kit.synthetic import SynthSpec, generate_dataset, generate_points
from virso_kit.training import (
    Normalizer,
    TrainSchedule,
    batch_loss,
    evaluate,
    split_dataset,
    train,
)

from test_graphs import knn_edges_bruteforce


def ok(criterion: int, message: str):
    print(f"\n[criterion {criterion:2d}] PASS: {message}")


# ---------------------------------------------------------------------------
# shared toy pipeline (criteria 6, 7)


TOY_MODEL_KW = dict(
    d_v=10, m=12, d_latent=12, output_channels=3, input_width=22,
    alpha_anchors=8, gate_hidden=8, gate_weight_width=4,
    embed_hidden=32, down_hidden=32,
)
TOY_SCHED_KW = dict(lr=3e-3, decay_step=40, decay=0.5, batch_size=32,
                    weight_decay=1e-3, seed=0)


@pytest.fixture(scope="module")
def toy_data():
    spec = SynthSpec(n_target=400, sample_count=950, seed=0)
    ds, pts = generate_dataset(spec)
    ds = split_dataset(ds, (600, 150, 200), seed=0)
    graph = compute_edge_weights(build_knn(pts, 4), pts)
    basis = lobpcg_smallest(normalized_laplacian(graph), 12, seed=0)
    anchors = anchor_embeddings(graph, 8, seed=0)
    arts = GraphArtifacts.prepare(graph, pts.coords, basis=basis, anchors=anchors)
    return ds, pts, arts


def train_toy(ds, arts, variant="full", skips=True, max_epochs=30, seed=0):
    cfg = VirsoConfig(T=4, variant=variant, use_identity_skip=skips,
                      use_spectral_weighted_skip=skips, **TOY_MODEL_KW)
    model = VirsoModel(cfg, seed=seed)
    sched = TrainSchedule(max_epochs=max_epochs, patience=max_epochs, **TOY_SCHED_KW)
    report, input_norm, target_norm = train(model, ds, arts, sched)
    ev = evaluate(model, ds, arts, input_norm, target_norm, split="test")
    return model, report, ev


# ---------------------------------------------------------------------------
# 1. eigensolver oracle


def test_criterion_1_eigensolver_oracle():
    t0 = time.perf_counter()
    worst_ev = worst_angle = 0.0
    size_rng = np.random.default_rng(0)
    for i in range(25):
        k = (5, 10, 30)[i % 3]
        n = int(size_rng.integers(80, 301))
        pts = PointCloud(np.random.default_rng(100 + i).uniform(0, 1, (n, 2)))
        lap = normalized_laplacian(build_knn(pts, k))
        ref = dense_eigen_reference(lap, 16)
        got = lobpcg_smallest(lap, 16, tol=1e-10, seed=i)
        worst_ev = max(worst_ev, float(np.max(np.abs(got.sigma - ref.sigma))))
        qa, _ = np.linalg.qr(got.q)
        qb, _ = np.linalg.qr(ref.q)
        cos = np.linalg.svd(qa.T @ qb, compute_uv=False).min()
        worst_angle = max(worst_angle, float(np.arccos(np.clip(cos, -1, 1))))
    elapsed = time.perf_counter() - t0
    assert worst_ev < 1e-8
    assert worst_angle < 1e-6
    assert elapsed < 30.0
    ok(1, f"25 graphs: |eig dev| {worst_ev:.1e}, angle {worst_angle:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Laplacian spectrum bounds


def test_criterion_2_spectrum_bounds_and_null_space():
    worst_lo, worst_hi, worst_cos = 0.0, 2.0, 1.0
    for seed, k in ((0, 4), (1, 7), (2, 12), (3, 30)):
        pts = PointCloud(np.random.default_rng(seed).uniform(0, 1, (180, 2)))
        graph = build_knn(pts, k)
        lap = normalized_laplacian(graph)
        basis = dense_eigen_reference(lap, 180)
        worst_lo = min(worst_lo, float(basis.sigma.min()))
        worst_hi = max(worst_hi, float(basis.sigma.max()))
        assert basis.sigma.min() >= -1e-10
        assert basis.sigma.max() <= 2 + 1e-10
        assert basis.sigma[0] <= 1e-8
        null = np.sqrt(graph.degrees().astype(float))
        null /= np.linalg.norm(null)
        worst_cos = min(worst_cos, abs(float(null @ basis.q[:, 0])))
        assert worst_cos >= 1 - 1e-8
    ok(2, f"spectra in [{worst_lo:.1e}, {worst_hi:.6f}], null cosine {worst_cos:.10f}")


# ---------------------------------------------------------------------------
# 3. gradient check


def test_criterion_3_full_model_gradient_check():
    t0 = time.perf_counter()
    pts = PointCloud(np.random.default_rng(7).uniform(0, 1, (50, 2)))
    graph = compute_edge_weights(build_knn(pts, 4), pts)
    basis = dense_eigen_reference(normalized_laplacian(graph), 8)
    anchors = anchor_embeddings(graph, 4, seed=0)
    arts = GraphArtifacts.prepare(graph, pts.coords, basis=basis, anchors=anchors)
    cfg = VirsoConfig(T=2, d_v=8, m=8, d_latent=8, output_channels=3, input_width=10,
                      alpha_anchors=4, gate_hidden=8, gate_weight_width=4,
                      embed_hidden=16, down_hidden=16)
    model = VirsoModel(cfg, seed=1)
    rng = np.random.default_rng(2)
    u = rng.standard_normal((2, 10))
    truth = rng.standard_normal((2, 50, 3)) + 3.0
    target_norm = Normalizer(mode="minmax").fit(truth)

    def loss_fn():
        return batch_loss(model, arts, u, truth, target_norm, divisor=2)

    err = grad_check(loss_fn, model.param_list(), probe_count=30, step=1e-5, seed=3)
    elapsed = time.perf_counter() - t0
    assert err < 1e-4
    assert elapsed < 60.0
    ok(3, f"30 probes, max rel err {err:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. graph oracles


def test_criterion_4_graph_oracles():
    # KNN vs brute force on clouds up to n = 500, plus a tie-heavy grid
    cases = [(120, 5, 2, 0), (300, 10, 2, 1), (500, 7, 2, 2), (200, 6, 3, 3)]
    for n, k, d, seed in cases:
        pts = PointCloud(np.random.default_rng(seed).uniform(0, 1, (n, d)))
        got = {tuple(e) for e in build_knn(pts, k).edges}
        assert got == knn_edges_bruteforce(pts.coords, k)
    xs, ys = np.meshgrid(np.arange(14), np.arange(14))
    grid = PointCloud(np.stack([xs.ravel(), ys.ravel()], 1).astype(float))
    assert {tuple(e) for e in build_knn(grid, 6).edges} == knn_edges_bruteforce(grid.coords, 6)

    # V-KNN neighbor counts match the floor/proportional rule exactly
    spec = SynthSpec(n_target=400, seed=0)
    pts = generate_points(spec)
    cfg = VknnConfig(k_min=10, k_max=40, density_radius=0.06)
    dens = estimate_density(pts, cfg.density_radius)
    gv = build_vknn(pts, cfg)
    expected = np.maximum(cfg.alpha_floor * cfg.k_min, (cfg.k_max * dens) // dens.max())
    assert np.array_equal(gv.presym_out_degree, expected)
    assert np.array_equal(vknn_k_of(cfg, dens), expected)

    # uniform density degenerates to plain KNN at k_max
    theta = np.sort(np.random.default_rng(5).uniform(0, 2 * np.pi, 64))
    ring = PointCloud(np.stack([np.cos(theta), np.sin(theta)], axis=1))
    ring_cfg = VknnConfig(k_min=3, k_max=9, density_radius=10.0)
    assert {tuple(e) for e in build_vknn(ring, ring_cfg).edges} == \
        {tuple(e) for e in build_knn(ring, 9).edges}
    ok(4, f"KNN oracle x{len(cases) + 1}, V-KNN rule exact, uniform degeneracy")


# ---------------------------------------------------------------------------
# 5. V-KNN efficiency


def test_criterion_5_vknn_edge_efficiency():
    spec = SynthSpec(n_target=400, densify_factor=4.0, seed=0)
    pts = generate_points(spec)
    cfg = VknnConfig(k_min=10, k_max=40, density_radius=0.06)
    gv = build_vknn(pts, cfg)
    gk = build_knn(pts, 40)
    reduction = 1.0 - gv.edge_count / gk.edge_count
    assert reduction >= 0.20
    assert gv.presym_out_degree.max() == gk.presym_out_degree.max() == 40
    assert degree_stats(gv)["min_degree"] >= 10
    ok(5, f"edge count {gv.edge_count} vs {gk.edge_count} "
          f"({100 * reduction:.0f}% below), presym max degree 40 matched")


# ---------------------------------------------------------------------------
# 6. toy training


@pytest.fixture(scope="module")
def trained_full(toy_data):
    ds, _, arts = toy_data
    t0 = time.perf_counter()
    model, report, ev = train_toy(ds, arts, max_epochs=60)
    return model, report, ev, time.perf_counter() - t0


def test_criterion_6_toy_training(trained_full, toy_data):
    _, report, ev, elapsed = trained_full
    assert report.epochs_run <= 300
    assert elapsed < 600.0
    assert ev.mean < 0.05
    running_best = np.minimum.accumulate(report.val_curve)
    assert np.all(np.diff(running_best) <= 0)

    # val metric drops by >= 10x from the untrained state
    ds, _, arts = toy_data
    cfg = VirsoConfig(T=4, **TOY_MODEL_KW)
    untrained = VirsoModel(cfg, seed=0)
    tn = Normalizer(mode="minmax").fit(ds.targets[ds.indices_of("train")])
    inn = Normalizer(mode="gaussian").fit(ds.inputs[ds.indices_of("train")])
    ev0 = evaluate(untrained, ds, arts, inn, tn, split="val")
    assert ev0.mean / report.best_val >= 10.0
    ok(6, f"test mean {ev.mean:.2%} after {report.epochs_run} epochs "
          f"in {elapsed:.0f}s; best-val monotone; "
          f"val improved {ev0.mean / report.best_val:.0f}x from epoch 0")


# ---------------------------------------------------------------------------
# 7. directional ablations


def test_criterion_7_directional_ablations(toy_data):
    ds, _, arts = toy_data
    _, _, ev_spec = train_toy(ds, arts, variant="spectral_only", skips=True)
    _, _, ev_noskip = train_toy(ds, arts, variant="spectral_only", skips=False)
    _, _, ev_spat = train_toy(ds, arts, variant="spatial_only", skips=True)
    assert ev_spec.mean < ev_spat.mean
    assert ev_spec.mean < ev_noskip.mean
    ok(7, f"spectral {ev_spec.mean:.2%} < spatial {ev_spat.mean:.2%}; "
          f"with-skip {ev_spec.mean:.2%} < no-skip {ev_noskip.mean:.2%}")


# ---------------------------------------------------------------------------
# 8. metric reproduction


def test_criterion_8_metric_reproduction():
    checks = [
        ("EDP", edp(10.07, 20.48), 206.2),
        ("eta", power_normalized_accuracy(0.90, 124.41), 0.893),
        ("ratio47", reconstruction_ratio(4225, 3, 270), 47.0),
        ("ratio51", reconstruction_ratio(1733, 3, 102), 51.0),
        ("ratio156", reconstruction_ratio(3977, 4, 102), 156.0),
    ]
    for name, got, want in checks:
        assert abs(got - want) / want < 0.005, f"{name}: {got} vs {want}"
    ok(8, "; ".join(f"{n}={g:.4g}" for n, g, _ in checks))


# ---------------------------------------------------------------------------
# 9. normalizer round trip


def test_criterion_9_normalizer_round_trip_and_leakage():
    rng = np.random.default_rng(11)
    scales = 10.0 ** rng.uniform(-6, 6, size=1000)
    data = rng.standard_normal((40, 1000)) * scales + rng.uniform(-5, 5, 1000)
    worst = 0.0
    for mode in ("minmax", "gaussian"):
        norm = Normalizer(mode=mode).fit(data)
        worst = max(worst, float(np.max(np.abs(norm.invert(norm.apply(data)) - data)
                                        / np.maximum(1.0, np.abs(data)))))
        assert worst < 1e-12
        # leakage guard: statistics identical with held-out data absent
        train_part = data[:25]
        withheld = data[25:]
        n1 = Normalizer(mode=mode).fit(train_part)
        del withheld
        n2 = Normalizer(mode=mode).fit(train_part.copy())
        for attr in ("a", "b", "mu", "sigma"):
            x1, x2 = getattr(n1, attr), getattr(n2, attr)
            assert (x1 is None and x2 is None) or np.array_equal(x1, x2)
    ok(9, f"1000 channels, both modes, worst rel round-trip error {worst:.1e}")


# ---------------------------------------------------------------------------
# 10. determinism


def test_criterion_10_training_determinism(tmp_path):
    from virso_kit.cli import main

    cfg = {
        "schema_version": 1,
        "seed": 0,
        "synth": {"n_target": 90, "sample_count": 30, "profile_len": 10},
        "split": [0.6, 0.2, 0.2],
        "graph": {"method": "knn", "k": 5},
        "model": {"T": 2, "d_v": 6, "m": 6, "d_latent": 6, "alpha_anchors": 4,
                  "gate_hidden": 4, "gate_weight_width": 2,
                  "embed_hidden": 8, "down_hidden": 8},
        "training": {"lr": 2e-3, "batch_size": 9, "max_epochs": 4, "patience": 6},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        for cmd in ("gen-data", "prep-graph", "train"):
            code = main([cmd, "--config", str(cfg_path), "--out", str(out),
                         "--threads", "1"])
            assert code == 0
        outs.append(out)
    curve_a = (outs[0] / "loss_curve.csv").read_bytes()
    curve_b = (outs[1] / "loss_curve.csv").read_bytes()
    ckpt_a = (outs[0] / "checkpoint.f64").read_bytes()
    ckpt_b = (outs[1] / "checkpoint.f64").read_bytes()
    assert curve_a == curve_b
    assert ckpt_a == ckpt_b
    ok(10, f"two train runs: loss curves and checkpoints bit-identical "
           f"({len(ckpt_a)} checkpoint bytes)")


# ---------------------------------------------------------------------------
# 11. parameter count


def test_criterion_11_parameter_count_published_configs():
    def reference_config(layers):
        return VirsoConfig(
            T=layers, d_v=48, m=64, d_latent=64, output_channels=4,
            input_width=102, spatial_dim=2, alpha_anchors=16,
            gate_hidden=16, gate_weight_width=8, embed_hidden=64, down_hidden=128,
        )

    ten = param_count(reference_config(10))
    fourteen = param_count(reference_config(14))
    assert abs(ten - 1.66e6) / 1.66e6 < 0.05
    assert abs(fourteen - 2.31e6) / 2.31e6 < 0.05
    # closed form agrees with actual allocation
    assert ten == VirsoModel(reference_config(10), seed=0).num_params()
    ok(11, f"10-layer {ten / 1e6:.3f}M vs 1.66M "
           f"({100 * (ten / 1.66e6 - 1):+.1f}%), "
           f"14-layer {fourteen / 1e6:.3f}M vs 2.31M "
           f"({100 * (fourteen / 2.31e6 - 1):+.1f}%)")
