import numpy as np
import pytest

from virso_kit.errors import (
    ArtifactError,
    ConvergenceError,
    DegenerateGraphError,
    InvalidParameterError,
    ShapeError,
)
from virso_kit.graphs import (
    Graph,
    PointCloud,
    VknnConfig,
    build_knn,
    build_vknn,
    compute_edge_weights,
)
from virso_kit.spectral import (
    EigenBasis,
    dense_eigen_reference,
    gft,
    igft,
    load_eigen_basis,
    lobpcg_smallest,
    normalized_laplacian,
    save_eigen_basis,
)
from virso_kit.synthetic import SynthSpec, generate_points


def random_knn_graph(n, k, seed):
    rng = np.random.default_rng(seed)
    pts = PointCloud(rng.uniform(0, 1, size=(n, 2)))
    return build_knn(pts, k), pts


def principal_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Largest principal angle between the column spans (radians)."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    sv = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return float(np.arccos(np.clip(sv.min(), -1.0, 1.0)))


# ---------------------------------------------------------------------------
# Laplacian assembly


def test_k2_laplacian_exact():
    g = Graph(2, np.array([[0, 1]]))
    lap = normalized_laplacian(g)
    assert np.array_equal(lap.to_dense(), np.array([[1.0, -1.0], [-1.0, 1.0]]))
    basis = dense_eigen_reference(lap, 2)
    assert np.allclose(basis.sigma, [0.0, 2.0], atol=1e-14)


def test_triangle_spectrum():
    g = Graph(3, np.array([[0, 1], [0, 2], [1, 2]]))
    basis = dense_eigen_reference(normalized_laplacian(g), 3)
    assert np.allclose(basis.sigma, [0.0, 1.5, 1.5], atol=1e-12)


@pytest.mark.parametrize("n", [4, 5, 9])
def test_path_closed_form_spectrum(n):
    # closed form for the path graph: 1 - cos(pi k / (n - 1)), k = 0..n-1
    # (for n = 5 this includes {0, 1 - 1/sqrt(2), 1, 1 + 1/sqrt(2)})
    edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    basis = dense_eigen_reference(normalized_laplacian(Graph(n, edges)), n)
    expected = 1 - np.cos(np.pi * np.arange(n) / (n - 1))
    assert np.allclose(basis.sigma, np.sort(expected), atol=1e-12)


def test_laplacian_rejects_isolated_node():
    g = Graph(3, np.array([[0, 1]]))
    with pytest.raises(DegenerateGraphError, match="2"):
        normalized_laplacian(g)


def test_laplacian_exactly_symmetric_and_unit_diagonal():
    g, pts = random_knn_graph(80, 4, seed=0)
    gw = compute_edge_weights(g, pts)
    for lap in (normalized_laplacian(g), normalized_laplacian(gw, weighted=True)):
        dense = lap.to_dense()
        assert np.array_equal(dense, dense.T)
        assert np.all(np.diag(dense) == 1.0)


def test_weighted_equals_unweighted_for_unit_weights():
    g, _ = random_knn_graph(50, 3, seed=4)
    unit = Graph(g.n, g.edges, weights=np.ones(g.edge_count))
    lw = normalized_laplacian(unit, weighted=True)
    lu = normalized_laplacian(g, weighted=False)
    assert np.array_equal(lw.to_dense(), lu.to_dense())


def test_laplacian_apply_matches_dense_across_degree_buckets():
    pts = generate_points(SynthSpec(n_target=400, seed=0))
    g = build_vknn(pts, VknnConfig(k_min=4, k_max=16, density_radius=0.1))
    rng = np.random.default_rng(9)
    for lap in (normalized_laplacian(g),
                normalized_laplacian(compute_edge_weights(g, pts), weighted=True)):
        assert len(lap.edges.by_dst) >= 3
        dense = lap.to_dense()
        for x in (rng.standard_normal(g.n), rng.standard_normal((g.n, 5))):
            want = dense @ x
            got = lap @ x
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        with pytest.raises(ShapeError):
            lap @ np.ones((g.n + 1, 2))


def test_null_space_aligned_with_sqrt_degree():
    g, _ = random_knn_graph(120, 5, seed=1)
    lap = normalized_laplacian(g)
    basis = dense_eigen_reference(lap, 4)
    assert basis.sigma[0] <= 1e-8
    null = np.sqrt(g.degrees().astype(float))
    null /= np.linalg.norm(null)
    cos = abs(float(null @ basis.q[:, 0]))
    assert cos >= 1 - 1e-8


# ---------------------------------------------------------------------------
# LOBPCG vs dense reference


def test_lobpcg_k2():
    lap = normalized_laplacian(Graph(2, np.array([[0, 1]])))
    basis = lobpcg_smallest(lap, 1, seed=3)
    assert abs(basis.sigma[0]) < 1e-10
    assert np.allclose(np.abs(basis.q[:, 0]), 1 / np.sqrt(2), atol=1e-10)


def test_lobpcg_matches_dense_200_nodes():
    g, _ = random_knn_graph(200, 8, seed=7)
    lap = normalized_laplacian(g)
    ref = dense_eigen_reference(lap, 16)
    got = lobpcg_smallest(lap, 16, tol=1e-10, seed=11)
    assert np.max(np.abs(got.sigma - ref.sigma)) < 1e-8
    assert principal_angle(got.q, ref.q) < 1e-6


def test_lobpcg_weighted_laplacian_matches_dense():
    g, pts = random_knn_graph(150, 6, seed=8)
    lap = normalized_laplacian(compute_edge_weights(g, pts), weighted=True)
    ref = dense_eigen_reference(lap, 10)
    got = lobpcg_smallest(lap, 10, tol=1e-10, seed=2)
    assert np.max(np.abs(got.sigma - ref.sigma)) < 1e-8


class CountingOperator:
    """A Laplacian seen only through `.n` and `@`, recording each operand's width."""

    def __init__(self, lap):
        self.lap, self.n, self.widths = lap, lap.n, []

    def __matmul__(self, x):
        self.widths.append(x.shape[1])
        return self.lap @ x


def test_lobpcg_applies_laplacian_to_at_most_m_columns():
    g, _ = random_knn_graph(200, 8, seed=7)
    lap = normalized_laplacian(g)
    op = CountingOperator(lap)
    got = lobpcg_smallest(op, 12, tol=1e-10, seed=11)
    assert max(op.widths) <= 12
    ref = dense_eigen_reference(lap, 12)
    assert np.max(np.abs(got.sigma - ref.sigma)) < 1e-8


def test_lobpcg_deterministic_for_fixed_seed():
    g, _ = random_knn_graph(100, 5, seed=12)
    lap = normalized_laplacian(g)
    b1 = lobpcg_smallest(lap, 6, seed=42)
    b2 = lobpcg_smallest(lap, 6, seed=42)
    assert np.array_equal(b1.q, b2.q)
    assert np.array_equal(b1.sigma, b2.sigma)


def test_lobpcg_m_range_guard():
    g, _ = random_knn_graph(40, 4, seed=13)
    lap = normalized_laplacian(g)
    with pytest.raises(InvalidParameterError):
        lobpcg_smallest(lap, 11)  # > n // 4
    with pytest.raises(InvalidParameterError):
        lobpcg_smallest(lap, 0)


def test_lobpcg_nonconvergence_reports_residual():
    g, _ = random_knn_graph(300, 5, seed=14)
    lap = normalized_laplacian(g)
    with pytest.raises(ConvergenceError) as err:
        lobpcg_smallest(lap, 16, tol=1e-14, max_iter=2, seed=0)
    assert err.value.worst_residual is not None
    assert err.value.worst_residual > 0


def test_spectral_range_bounds():
    for seed, k in [(0, 4), (1, 8), (2, 12)]:
        g, _ = random_knn_graph(150, k, seed=seed)
        lap = normalized_laplacian(g)
        basis = dense_eigen_reference(lap, 150)
        assert basis.sigma.min() >= -1e-10
        assert basis.sigma.max() <= 2 + 1e-10


def test_dense_reference_size_guard():
    g, _ = random_knn_graph(50, 4, seed=15)
    lap = normalized_laplacian(g)
    object.__setattr__(lap, "n", 4000)  # simulate an oversized problem
    with pytest.raises(InvalidParameterError, match="lobpcg"):
        dense_eigen_reference(lap, 4)


def test_basis_invariants_random_graph():
    g, _ = random_knn_graph(100, 6, seed=16)
    lap = normalized_laplacian(g)
    basis = dense_eigen_reference(lap, 10)
    basis.validate(lap, tol=1e-12)


@pytest.mark.slow
def test_lobpcg_reference_scale_converges():
    # 64 modes on a ~4K-node k=30 graph: the largest routine configuration
    rng = np.random.default_rng(0)
    pts = PointCloud(rng.uniform(0, 1, size=(3977, 2)))
    lap = normalized_laplacian(build_knn(pts, 30))
    basis = lobpcg_smallest(lap, 64, tol=1e-8, max_iter=2000, seed=0)
    basis.validate(lap, tol=1e-8)
    assert basis.sigma[0] <= 1e-8
    assert np.all(np.diff(basis.sigma) >= -1e-12)


# ---------------------------------------------------------------------------
# GFT / IGFT


def test_gft_of_first_eigenvector_is_unit_vector():
    g, _ = random_knn_graph(60, 4, seed=17)
    basis = dense_eigen_reference(normalized_laplacian(g), 5)
    c = gft(basis, basis.q[:, [0]])
    e1 = np.zeros((5, 1))
    e1[0] = 1.0
    assert np.allclose(c, e1, atol=1e-12)


def test_gft_annihilates_orthogonal_complement():
    g, _ = random_knn_graph(60, 4, seed=18)
    lap = normalized_laplacian(g)
    full = dense_eigen_reference(lap, 60)
    basis = EigenBasis(q=full.q[:, :5], sigma=full.sigma[:5])
    v = full.q[:, 10:12] @ np.array([[1.0], [2.0]])
    assert np.max(np.abs(gft(basis, v))) < 1e-12
    assert np.max(np.abs(igft(basis, gft(basis, v)))) < 1e-12


def test_full_basis_round_trip_and_contraction():
    g, _ = random_knn_graph(40, 4, seed=19)
    lap = normalized_laplacian(g)
    full = dense_eigen_reference(lap, 40)
    rng = np.random.default_rng(3)
    v = rng.standard_normal((40, 3))
    assert np.max(np.abs(igft(full, gft(full, v)) - v)) < 1e-10
    part = EigenBasis(q=full.q[:, :7], sigma=full.sigma[:7])
    proj = igft(part, gft(part, v))
    assert np.linalg.norm(proj) <= np.linalg.norm(v) + 1e-12


def test_gft_shape_mismatch():
    g, _ = random_knn_graph(30, 3, seed=20)
    basis = dense_eigen_reference(normalized_laplacian(g), 4)
    with pytest.raises(ShapeError):
        gft(basis, np.zeros((29, 2)))
    with pytest.raises(ShapeError):
        igft(basis, np.zeros((5, 2)))


# ---------------------------------------------------------------------------
# persistence


def test_basis_save_load_and_hash_guard(tmp_path):
    g, _ = random_knn_graph(50, 4, seed=21)
    lap = normalized_laplacian(g)
    basis = dense_eigen_reference(lap, 6)
    man = save_eigen_basis(basis, tmp_path, g.content_hash())
    back = load_eigen_basis(man, expected_graph_hash=g.content_hash())
    assert back.m == 6 and back.n == 50
    assert np.array_equal(back.q, basis.q)
    assert np.array_equal(back.sigma, basis.sigma)
    back.validate(lap)
    with pytest.raises(ArtifactError):
        load_eigen_basis(man, expected_graph_hash="0" * 64)
