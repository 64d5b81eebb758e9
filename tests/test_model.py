import sys
import threading

import numpy as np
import pytest

from virso_kit import autodiff as ad
from virso_kit import model as model_mod
from virso_kit.autodiff import constant, grad_check, no_grad
from virso_kit.errors import ArtifactError, ConfigError, ShapeError
from virso_kit.graphs import (
    PointCloud,
    anchor_embeddings,
    build_knn,
    compute_edge_weights,
)
from virso_kit.model import (
    GraphArtifacts,
    VirsoConfig,
    VirsoModel,
    _embed,
    edge_gates,
    flop_count,
    forward,
    load_checkpoint,
    param_count,
    predict,
    save_checkpoint,
    spatial_block,
    spectral_block,
)
from virso_kit.spectral import dense_eigen_reference, normalized_laplacian


def toy_config(**over):
    base = dict(
        T=2, d_v=6, m=4, d_latent=5, output_channels=3, input_width=7,
        spatial_dim=2, alpha_anchors=3, gate_hidden=4, gate_weight_width=2,
        embed_hidden=8, down_hidden=10,
    )
    base.update(over)
    return VirsoConfig(**base)


def toy_artifacts(n=30, k=4, m=4, alpha=3, seed=0):
    rng = np.random.default_rng(seed)
    pts = PointCloud(rng.uniform(0, 1, size=(n, 2)))
    g = compute_edge_weights(build_knn(pts, k), pts)
    basis = dense_eigen_reference(normalized_laplacian(g), m)
    anchors = anchor_embeddings(g, alpha, seed=seed)
    return GraphArtifacts.prepare(g, pts.coords, basis=basis, anchors=anchors), pts


# ---------------------------------------------------------------------------
# parameter counting


@pytest.mark.parametrize(
    "over",
    [
        {},
        {"variant": "spectral_only"},
        {"variant": "spatial_only"},
        {"collaboration": "nonlinear"},
        {"use_spectral_weighted_skip": False},
        {"embed_hidden": 0},
        {"T": 5, "d_v": 12, "m": 9},
    ],
)
def test_param_count_matches_enumeration(over):
    cfg = toy_config(**over)
    model = VirsoModel(cfg, seed=1)
    assert param_count(cfg) == model.num_params()


def reference_config(layers):
    # published reference setup: 64 modes, function dimension 48, 102 inputs,
    # 4 output channels on a 2-d cross-section
    return VirsoConfig(
        T=layers, d_v=48, m=64, d_latent=64, output_channels=4,
        input_width=102, spatial_dim=2, alpha_anchors=16,
        gate_hidden=16, gate_weight_width=8, embed_hidden=64, down_hidden=128,
    )


def test_param_count_reproduces_published_sizes():
    ten = param_count(reference_config(10))
    fourteen = param_count(reference_config(14))
    assert abs(ten - 1.66e6) / 1.66e6 < 0.05
    assert abs(fourteen - 2.31e6) / 2.31e6 < 0.05


def test_input_width_covers_profile_plus_scalars():
    cfg = reference_config(10)
    assert cfg.input_width == 100 + 2


# ---------------------------------------------------------------------------
# embed / assemble


def test_embed_zero_weights_gives_zero():
    model = VirsoModel(toy_config(), seed=0)
    for name in ("embed.w1", "embed.b1", "embed.w2", "embed.b2"):
        model.params[name].data[:] = 0.0
    with no_grad():
        a = _embed(model, constant(np.ones((1, 7)))).data[0]
    assert np.array_equal(a, np.zeros(5))


def test_embed_identity_single_layer_passthrough():
    cfg = toy_config(embed_hidden=0, d_latent=7)  # q == d_latent
    model = VirsoModel(cfg, seed=0)
    model.params["embed.w"].data = np.eye(7)
    model.params["embed.b"].data[:] = 0.0
    u = np.arange(7.0)
    with no_grad():
        assert np.array_equal(_embed(model, constant(u[None, :])).data[0], u)


def test_embed_length_mismatch():
    arts, _ = toy_artifacts()
    model = VirsoModel(toy_config(), seed=0)
    with pytest.raises(ShapeError, match="inputs must be"):
        forward(model, arts, np.ones((1, 6)))


# ---------------------------------------------------------------------------
# spectral block


def test_spectral_block_kernel_off_path():
    arts, _ = toy_artifacts()
    model = VirsoModel(toy_config(), seed=3)
    rng = np.random.default_rng(1)
    v = constant(rng.standard_normal((30, 6)))
    model.params["block0.kernel"].data[:] = 0.0
    model.params["block0.spec_skip"].data = np.eye(6)
    out = spectral_block(
        v, constant(arts.basis.q), constant(arts.basis.q.T),
        model.params["block0.kernel"], model.params["block0.spec_skip"],
        model.params["block0.ln_gain"], model.params["block0.ln_bias"],
    )
    expected = ad.layer_norm_rows(
        ad.gelu(v), model.params["block0.ln_gain"], model.params["block0.ln_bias"]
    )
    assert np.allclose(out.data, expected.data, atol=1e-12)


def test_spectral_block_annihilates_orthogonal_complement():
    arts, _ = toy_artifacts(n=30, m=4)
    full = dense_eigen_reference(normalized_laplacian(arts.graph), 30)
    v_data = full.q[:, 10:16]  # orthogonal to the retained 4 modes
    model = VirsoModel(toy_config(), seed=4)
    kernel = model.params["block0.kernel"]
    coeff = ad.matmul(constant(arts.basis.q.T), constant(v_data))
    pre = ad.matmul(constant(arts.basis.q), ad.mode1_product(kernel, coeff))
    assert np.max(np.abs(pre.data)) < 1e-12


def test_spectral_block_matches_dense_reimplementation():
    arts, _ = toy_artifacts(n=25, m=5)
    cfg = toy_config(m=5)
    model = VirsoModel(cfg, seed=5)
    rng = np.random.default_rng(2)
    v_data = rng.standard_normal((25, 6))
    out = spectral_block(
        constant(v_data), constant(arts.basis.q), constant(arts.basis.q.T),
        model.params["block0.kernel"], model.params["block0.spec_skip"],
        model.params["block0.ln_gain"], model.params["block0.ln_bias"],
    )
    # straight-line dense-path oracle
    q = arts.basis.q
    k = model.params["block0.kernel"].data
    coeff = q.T @ v_data
    mixed = np.stack([coeff[j] @ k[j] for j in range(5)])
    pre = q @ mixed + v_data @ model.params["block0.spec_skip"].data
    gelu = 0.5 * pre * (1 + np.tanh(np.sqrt(2 / np.pi) * (pre + 0.044715 * pre**3)))
    mu = gelu.mean(-1, keepdims=True)
    var = ((gelu - mu) ** 2).mean(-1, keepdims=True)
    ref = (gelu - mu) / np.sqrt(var + 1e-12)
    ref = ref * model.params["block0.ln_gain"].data + model.params["block0.ln_bias"].data
    assert np.allclose(out.data, ref, atol=1e-10)


# ---------------------------------------------------------------------------
# spatial block


def test_spatial_block_zero_gates_zero_output():
    arts, _ = toy_artifacts()
    model = VirsoModel(toy_config(), seed=6)
    rng = np.random.default_rng(3)
    v = rng.standard_normal((1, 30, 6))
    out = forward(model, arts, rng.standard_normal((1, 7)))
    # with zero gates the spatial branch is zero; check the branch directly
    gates = constant(np.zeros((arts.src.size, 1)))
    spat = spatial_block(constant(v), arts, model.params["block0.spat_w"], gates)
    assert np.all(spat.data == 0.0)
    assert out.data.shape == (1, 30, 3)


def test_spatial_block_single_neighbor_unit_gate():
    pts = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]))
    g = compute_edge_weights(build_knn(pts, 1), pts)
    anchors = anchor_embeddings(g, 1, seed=0)
    arts = GraphArtifacts.prepare(g, pts.coords, anchors=anchors)
    cfg = toy_config(T=1, variant="spatial_only", alpha_anchors=1)
    model = VirsoModel(cfg, seed=7)
    model.params["block0.spat_w"].data = np.eye(6)
    rng = np.random.default_rng(4)
    v = rng.standard_normal((1, 2, 6))
    out = spatial_block(constant(v), arts, model.params["block0.spat_w"],
                        constant(np.ones((2, 1))))
    for node, nbr in ((0, 1), (1, 0)):
        expected = v[0, nbr] / np.linalg.norm(v[0, nbr])
        assert np.allclose(out.data[0, node], expected, atol=1e-10)


def test_spatial_block_matches_edge_loop_oracle():
    arts, _ = toy_artifacts(n=6, k=2, m=1, alpha=2, seed=9)
    cfg = toy_config(m=1, alpha_anchors=2)
    model = VirsoModel(cfg, seed=8)
    rng = np.random.default_rng(5)
    v = rng.standard_normal((6, 6))
    gates = edge_gates(arts, model.params["block0.gate_w1"],
                       model.params["block0.gate_w2"], model.params["block0.gate_w3"])
    out = spatial_block(constant(v), arts, model.params["block0.spat_w"], gates)

    # naive per-edge oracle
    w1 = model.params["block0.gate_w1"].data
    w2 = model.params["block0.gate_w2"].data
    w3 = model.params["block0.gate_w3"].data
    wt = model.params["block0.spat_w"].data
    h = arts.anchors.h
    agg = np.zeros((6, 6))
    for s, d, wuv in zip(arts.src, arts.dst, arts.w_dir[:, 0]):
        feat = np.concatenate([h[s], h[d], (w2[0] * wuv)])
        hidden = np.maximum(feat @ w1, 0.0)
        gamma = 1.0 / (1.0 + np.exp(-(hidden @ w3)[0]))
        agg[d] += gamma * (v[s] @ wt)
    ref = agg / (np.linalg.norm(agg, axis=1, keepdims=True) + 1e-12)
    assert np.allclose(out.data, ref, atol=1e-12)


def test_spatial_branch_keeps_nothing_edge_sized_on_the_tape():
    from virso_kit.training import Normalizer, batch_loss

    arts, _ = toy_artifacts()
    model = VirsoModel(toy_config(), seed=8)
    rng = np.random.default_rng(6)
    truth = rng.standard_normal((4, 30, 3))
    root = batch_loss(model, arts, rng.standard_normal((4, 7)), truth,
                      Normalizer().fit(truth), divisor=4)
    e = arts.src.size
    stack, seen, held, gates = [root], set(), [], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        held.append(node.data)
        if node.data.shape == (e, 1):
            gates.append(node.data)
        if node._backward is not None:
            held += [c.cell_contents for c in node._backward.__closure__ or ()
                     if isinstance(c.cell_contents, np.ndarray)]
    assert len(seen) > 50
    assert not [a.shape for a in held if a.ndim == 3 and a.shape[-2] == e]
    # besides one (E, 1) gate output per block, only the graph's own
    # read-only gate inputs have E rows
    assert len(gates) == 2
    allowed = {id(a) for a in gates + [arts.gate_base, arts.w_dir]}
    assert not [a.shape for a in held if a.shape[:1] == (e,) and id(a) not in allowed]


def test_downlift_hidden_layer_stays_off_the_tape():
    from virso_kit.training import Normalizer, batch_loss

    arts, _ = toy_artifacts()
    model = VirsoModel(toy_config(down_hidden=37), seed=8)
    rng = np.random.default_rng(7)
    truth = rng.standard_normal((4, 30, 3))
    root = batch_loss(model, arts, rng.standard_normal((4, 7)), truth,
                      Normalizer().fit(truth), divisor=4)
    stack, seen, held = [root], set(), []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        held.append(node.data)
    assert len(seen) > 50
    # down.w1 (6, 37) and down.b1 (1, 37) are the only 37-wide arrays
    assert sorted(a.shape for a in held if a.shape[-1:] == (37,)) == [(1, 37), (6, 37)]


def test_spatial_requires_weights():
    rng = np.random.default_rng(10)
    pts = PointCloud(rng.uniform(0, 1, size=(10, 2)))
    g = build_knn(pts, 2)  # no weights assigned
    anchors = anchor_embeddings(g, 2, seed=0)
    with pytest.raises(ConfigError):
        GraphArtifacts.prepare(g, pts.coords, anchors=anchors)


# ---------------------------------------------------------------------------
# collaboration and whole-model paths


def test_collaboration_pure_skip():
    arts, _ = toy_artifacts()
    model = VirsoModel(toy_config(T=1), seed=11)
    model.params["block0.collab_w1"].data[:] = 0.0
    model.params["block0.collab_b1"].data[:] = 0.0
    rng = np.random.default_rng(6)
    v = constant(rng.standard_normal((30, 6)))
    from virso_kit.model import collaboration

    out = collaboration(constant(rng.standard_normal((30, 6))),
                        constant(rng.standard_normal((30, 6))), model, 0, v)
    assert np.array_equal(out.data, v.data)


def test_collaboration_projection_selection():
    cfg = toy_config(T=1, use_identity_skip=False)
    model = VirsoModel(cfg, seed=12)
    model.params["block0.collab_w1"].data = np.vstack([np.eye(6), np.zeros((6, 6))])
    model.params["block0.collab_b1"].data[:] = 0.0
    rng = np.random.default_rng(7)
    v_spat = constant(rng.standard_normal((30, 6)))
    v_spec = constant(rng.standard_normal((30, 6)))
    from virso_kit.model import collaboration

    out = collaboration(v_spat, v_spec, model, 0, constant(np.zeros((30, 6))))
    assert np.allclose(out.data, v_spat.data, atol=1e-14)


def test_skip_identity_zeroed_blocks():
    arts, _ = toy_artifacts()
    cfg = toy_config()
    model = VirsoModel(cfg, seed=13)
    for t in range(cfg.T):
        for suffix in ("kernel", "spec_skip", "ln_bias", "spat_w",
                       "collab_w1", "collab_b1"):
            model.params[f"block{t}.{suffix}"].data[:] = 0.0
    rng = np.random.default_rng(8)
    u = rng.standard_normal((2, 7))
    out = forward(model, arts, u)

    mlp = VirsoModel(cfg, seed=13, allow_degenerate_t=True)
    for name in ("embed.w1", "embed.b1", "embed.w2", "embed.b2",
                 "lift.w", "lift.b", "down.w1", "down.b1", "down.w2", "down.b2"):
        mlp.params[name].data = model.params[name].data.copy()
    mlp.config.T = 0
    ref = forward(mlp, arts, u)
    assert np.array_equal(out.data, ref.data)


def test_t0_is_pure_mlp_path():
    arts, _ = toy_artifacts()
    cfg = toy_config(T=0)
    model = VirsoModel(cfg, seed=14, allow_degenerate_t=True)
    rng = np.random.default_rng(9)
    u = rng.standard_normal((3, 7))
    out = forward(model, arts, u)
    with no_grad():
        a = ad.gelu(ad.add_rowvec(ad.matmul(constant(u), model.params["embed.w1"]),
                                  model.params["embed.b1"]))
        a = ad.add_rowvec(ad.matmul(a, model.params["embed.w2"]), model.params["embed.b2"])
    for b in range(3):
        x = np.concatenate([arts.coords, np.repeat(a.data[b:b + 1], len(arts.coords), axis=0)],
                           axis=1)
        v = x @ model.params["lift.w"].data + model.params["lift.b"].data
        pre = v @ model.params["down.w1"].data + model.params["down.b1"].data
        act = 0.5 * pre * (1 + np.tanh(np.sqrt(2 / np.pi) * (pre + 0.044715 * pre**3)))
        y = act @ model.params["down.w2"].data + model.params["down.b2"].data
        assert np.allclose(out.data[b], y, atol=1e-12)


def test_variant_containment_spectral_ignores_weights():
    arts, pts = toy_artifacts()
    cfg = toy_config(variant="spectral_only")
    model = VirsoModel(cfg, seed=15)
    u = np.random.default_rng(10).standard_normal((2, 7))
    out1 = forward(model, arts, u)
    # perturb the edge weights; the spectral path must not see them
    perturbed = arts.graph.weights.copy()
    perturbed[::2] *= 0.5
    perturbed /= perturbed.max()
    from virso_kit.graphs import Graph

    g2 = Graph(arts.graph.n, arts.graph.edges, weights=perturbed)
    arts2 = GraphArtifacts.prepare(g2, arts.coords, basis=arts.basis,
                                   anchors=arts.anchors)
    out2 = forward(model, arts2, u)
    assert np.array_equal(out1.data, out2.data)


def test_variant_containment_spatial_never_reads_basis():
    arts, _ = toy_artifacts()
    cfg = toy_config(variant="spatial_only")
    model = VirsoModel(cfg, seed=16)
    u = np.random.default_rng(11).standard_normal((2, 7))
    out1 = forward(model, arts, u)
    arts_nobasis = GraphArtifacts.prepare(arts.graph, arts.coords, basis=None,
                                          anchors=arts.anchors)
    out2 = forward(model, arts_nobasis, u)
    assert np.array_equal(out1.data, out2.data)


def test_permutation_equivariance():
    n = 24
    arts, pts = toy_artifacts(n=n, k=3, m=4, alpha=3, seed=20)
    cfg = toy_config()
    model = VirsoModel(cfg, seed=17)
    rng = np.random.default_rng(12)
    u = rng.standard_normal((1, 7))
    out = forward(model, arts, u).data[0]

    perm = rng.permutation(n)
    inv = np.argsort(perm)
    coords_p = arts.coords[perm]
    from virso_kit.graphs import AnchorEmbedding, Graph

    e = inv[arts.graph.edges]
    e.sort(axis=1)
    order = np.lexsort((e[:, 1], e[:, 0]))
    g_p = Graph(n, e[order], weights=arts.graph.weights[order])
    lap_p = normalized_laplacian(g_p)
    basis_p = dense_eigen_reference(lap_p, 4)
    anchors_p = AnchorEmbedding(h=arts.anchors.h[perm],
                                anchor_ids=inv[arts.anchors.anchor_ids],
                                seed=arts.anchors.seed)
    arts_p = GraphArtifacts.prepare(g_p, coords_p, basis=basis_p, anchors=anchors_p)
    out_p = forward(model, arts_p, u).data[0]
    assert np.max(np.abs(out_p - out[perm])) < 1e-8


def test_forward_mode_mismatch_names_block():
    arts, _ = toy_artifacts(m=4)
    model = VirsoModel(toy_config(m=5), seed=18)
    with pytest.raises(ConfigError, match="modes"):
        forward(model, arts, np.zeros((1, 7)))


def test_gradient_integrity_small_full_model():
    arts, _ = toy_artifacts(n=20, k=3, m=4, alpha=3, seed=21)
    model = VirsoModel(toy_config(), seed=19)
    rng = np.random.default_rng(13)
    u = rng.standard_normal((2, 7))
    target = rng.standard_normal((2, 20, 3))

    def loss_fn():
        diff = ad.add(forward(model, arts, u), ad.scalar_mul(constant(target), -1.0))
        return ad.sum_all(ad.elementwise_mul(diff, diff))

    # FD roundoff on the composed model dominates below ~1e-5 rel
    err = grad_check(loss_fn, model.param_list(), probe_count=25, seed=3)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# the gate memo of untaped forwards


def _count_edge_gates(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return edge_gates(*args)

    monkeypatch.setattr(model_mod, "edge_gates", counted)
    return calls


def test_untaped_forwards_compute_each_block_gates_once(monkeypatch):
    arts, _ = toy_artifacts()
    model = VirsoModel(toy_config(T=3), seed=30)
    calls = _count_edge_gates(monkeypatch)
    rng = np.random.default_rng(30)
    predict(model, arts, rng.standard_normal(7))
    assert len(calls) == 3
    for _ in range(9):
        predict(model, arts, rng.standard_normal(7))
    assert len(calls) == 3
    model.params["block2.gate_w3"].data[0, 0] = np.nan  # NaN never equals its copy
    predict(model, arts, rng.standard_normal(7))
    predict(model, arts, rng.standard_normal(7))
    assert len(calls) == 5


def test_gate_memo_follows_in_place_parameter_updates():
    arts, _ = toy_artifacts()
    model = VirsoModel(toy_config(), seed=31)
    u = np.random.default_rng(31).standard_normal(7)
    before = predict(model, arts, u)
    model.params["block1.gate_w1"].data -= 1e-3  # the way Adam updates
    after = predict(model, arts, u)
    fresh, _ = toy_artifacts()
    assert np.array_equal(after, predict(model, fresh, u))
    assert not np.array_equal(after, before)


def test_taped_forward_bypasses_the_gate_memo():
    rng = np.random.default_rng(32)
    u, target = rng.standard_normal((3, 7)), rng.standard_normal((3, 30, 3))

    def gate_grads(arts, fill_memo):
        model = VirsoModel(toy_config(), seed=32)
        if fill_memo:
            predict(model, arts, u[0])
        diff = ad.add(forward(model, arts, u), ad.scalar_mul(constant(target), -1.0))
        ad.backward(ad.sum_all(ad.elementwise_mul(diff, diff)))
        return {k: p.grad for k, p in model.params.items() if ".gate_w" in k}

    filled_arts, _ = toy_artifacts()
    filled = gate_grads(filled_arts, fill_memo=True)
    plain_arts, _ = toy_artifacts()
    plain = gate_grads(plain_arts, fill_memo=False)
    assert len(filled_arts.gate_memo) == 2 and not plain_arts.gate_memo
    assert len(filled) == 6 and filled.keys() == plain.keys()
    for k, g in filled.items():
        assert g is not None and np.array_equal(g, plain[k]), k


def test_predict_with_memo_is_byte_identical_to_the_taped_forward():
    arts, _ = toy_artifacts()
    model = VirsoModel(toy_config(), seed=33)
    inputs = np.random.default_rng(33).standard_normal((5, 7))
    for u in inputs:
        got = predict(model, arts, u)
        ref = forward(model, arts, u[None, :]).data[0]  # taped: gates from edge_gates
        assert got.tobytes() == ref.tobytes()
    assert len(arts.gate_memo) == 2


def test_batch1_predictions_equal_rows_of_one_batched_forward():
    # 5 x 200 node rows span several of gelu_mlp's row blocks, whose
    # boundaries fall elsewhere when a sample runs alone
    arts, _ = toy_artifacts(n=200)
    model = VirsoModel(toy_config(collaboration="nonlinear"), seed=36)
    inputs = np.random.default_rng(36).standard_normal((5, 7))
    assert inputs.shape[0] * arts.graph.n > 3 * ad._MLP_ROWS
    with no_grad():
        batched = forward(model, arts, inputs).data
    for u, row in zip(inputs, batched):
        got = predict(model, arts, u)
        assert np.max(np.abs(got - row)) <= 1e-12 * np.max(np.abs(row))


def test_threads_sharing_artifacts_get_their_own_models_gates():
    arts, _ = toy_artifacts()
    models = [VirsoModel(toy_config(), seed=s) for s in (34, 35)]
    inputs = np.random.default_rng(34).standard_normal((4, 7))
    refs = [[predict(m, toy_artifacts()[0], u) for u in inputs] for m in models]
    wrong = []

    def serve(k):
        for r in range(30):
            i = (k + r) % 2
            got = predict(models[i], arts, inputs[r % 4])
            if not np.array_equal(got, refs[i][r % 4]):
                wrong.append((k, r))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=serve, args=(k,)) for k in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert not wrong


def test_prepared_gate_inputs_are_read_only():
    arts, _ = toy_artifacts()
    with pytest.raises(ValueError):
        arts.gate_base[0, 0] = 1.0
    with pytest.raises(ValueError):
        arts.w_dir[0, 0] = 1.0


# ---------------------------------------------------------------------------
# FLOPs


def test_flop_count_t0_only_dense_terms():
    cfg = toy_config(T=0)
    fl = flop_count(cfg, n=100, e=500)
    assert fl["terms"]["spectral"] == 0
    assert fl["terms"]["spatial"] == 0
    assert fl["terms"]["collaboration"] == 0
    assert fl["total"] == fl["terms"]["embed"] + fl["terms"]["lift"] + fl["terms"]["downlift"]


def test_flop_count_linear_in_edges():
    cfg = toy_config()
    f1 = flop_count(cfg, n=100, e=500)
    f2 = flop_count(cfg, n=100, e=1000)
    assert f2["terms"]["spatial"] == 2 * f1["terms"]["spatial"]
    assert f2["terms"]["spectral"] == f1["terms"]["spectral"]
    assert f2["total"] - f1["total"] == f1["terms"]["spatial"]


def test_flop_count_splits_gates_per_graph_from_per_sample_work():
    cfg = toy_config()
    f1 = flop_count(cfg, n=100, e=500)
    f2 = flop_count(cfg, n=100, e=1000)
    for fl in (f1, f2):
        assert fl["per_graph"] + fl["per_sample"] == fl["total"]
    assert f2["per_graph"] == 2 * f1["per_graph"] > 0
    gate = 2 * (2 * cfg.alpha_anchors + cfg.gate_weight_width) * cfg.gate_hidden \
        + 2 * cfg.gate_hidden
    assert f1["per_graph"] == cfg.T * 2 * 500 * gate
    assert flop_count(toy_config(variant="spectral_only"), n=100, e=500)["per_graph"] == 0


def test_flop_count_published_order_of_magnitude():
    # 10-layer reference config at n=3977 with a k=30 KNN edge budget
    cfg = reference_config(10)
    e = 3977 * 30  # directed neighbor-list size as the edge budget
    total = flop_count(cfg, n=3977, e=e)["total"]
    published = 2.04e9
    assert total / published < 3.0
    assert published / total < 3.0


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    arts, _ = toy_artifacts()
    cfg = toy_config()
    model = VirsoModel(cfg, seed=23)
    man = save_checkpoint(model, tmp_path, graph_hash=arts.graph.content_hash())
    loaded, gh = load_checkpoint(man)
    assert gh == arts.graph.content_hash()
    assert loaded.config == cfg
    for name, p in model.params.items():
        assert np.array_equal(loaded.params[name].data, p.data)
    u = np.random.default_rng(14).standard_normal(7)
    a = predict(model, arts, u)
    b = predict(loaded, arts, u)
    assert np.array_equal(a, b)  # float64 storage: the reloaded model is the saved one


def test_checkpoint_refuses_other_expected_anchors(tmp_path):
    model = VirsoModel(toy_config(), seed=24)
    man = save_checkpoint(model, tmp_path, anchor_ids=np.array([2, 5, 9]))
    asked = []

    def rebuilt(config):
        asked.append(config.alpha_anchors)
        return np.array([2, 5, 9])

    loaded, _ = load_checkpoint(man, expected_anchor_ids=rebuilt)
    assert asked == [3] and loaded.config == model.config
    with pytest.raises(ArtifactError, match=r"anchors \[2, 5, 9\].*\[2, 5, 8\]"):
        load_checkpoint(man, expected_anchor_ids=lambda config: [2, 5, 8])
    unrecorded = save_checkpoint(model, tmp_path / "plain")
    load_checkpoint(unrecorded, expected_anchor_ids=lambda config: [2, 5, 8])


def _corrupt_manifest(man, fault):
    import json

    doc = json.loads(man.read_text())
    if fault == "missing":
        doc["params"] = [e for e in doc["params"] if e["name"] != "lift.b"]
    elif fault == "extra":
        doc["params"].append({"name": "lift.extra", "shape": [1], "offset": 0})
    else:
        entry = next(e for e in doc["params"] if e["name"] == "lift.w")
        entry["shape"] = entry["shape"][::-1]
    man.write_text(json.dumps(doc))


@pytest.mark.parametrize("fault", ["missing", "extra", "shape"])
def test_checkpoint_manifest_must_match_architecture(tmp_path, fault):
    man = save_checkpoint(VirsoModel(toy_config(), seed=23), tmp_path)
    _corrupt_manifest(man, fault)
    with pytest.raises(ArtifactError, match="lift"):
        load_checkpoint(man)


def test_checkpoint_swapped_parameters_refused(tmp_path):
    import json

    model = VirsoModel(toy_config(), seed=23)
    rng = np.random.default_rng(24)
    for name in ("block0.collab_b1", "block0.ln_bias"):  # both start at zero
        model.params[name].data = rng.standard_normal(model.params[name].data.shape)
    man = save_checkpoint(model, tmp_path)
    doc = json.loads(man.read_text())
    spans, offset = {}, 0
    for entry in doc["params"]:  # save_checkpoint packs them in sorted-name order
        size = 8 * int(np.prod(entry["shape"]))
        spans[entry["name"]] = slice(offset, offset + size)
        offset += size
    a, b = spans["block0.collab_b1"], spans["block0.ln_bias"]
    assert a.stop - a.start == b.stop - b.start
    blob = tmp_path / "checkpoint.f64"
    raw = bytearray(blob.read_bytes())
    raw[a], raw[b] = raw[b], raw[a]
    blob.write_bytes(bytes(raw))
    with pytest.raises(ArtifactError, match="checkpoint.f64"):
        load_checkpoint(man)


def test_checkpoint_truncated_blob_refused(tmp_path):
    man = save_checkpoint(VirsoModel(toy_config(), seed=23), tmp_path)
    blob = tmp_path / "checkpoint.f64"
    blob.write_bytes(blob.read_bytes()[:-4])
    with pytest.raises(ArtifactError, match="bytes"):
        load_checkpoint(man)
