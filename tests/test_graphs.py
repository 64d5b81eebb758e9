import heapq
import warnings

import numpy as np
import pytest

from virso_kit.errors import (
    ArtifactError,
    DegenerateGraphError,
    InvalidInputError,
    InvalidParameterError,
)
from virso_kit.graphs import (
    AnchorEmbedding,
    Graph,
    PointCloud,
    VknnConfig,
    anchor_embeddings,
    build_knn,
    build_radius,
    build_vknn,
    compute_edge_weights,
    degree_stats,
    estimate_density,
    load_graph,
    load_point_cloud,
    save_graph,
    save_point_cloud,
    vknn_k_of,
)
from virso_kit.graphs import _CellGrid


# ---------------------------------------------------------------------------
# independent oracles


def knn_edges_bruteforce(coords: np.ndarray, k: int) -> set:
    """O(n^2) distance-sort nearest neighbors, ties by lower index."""
    n = coords.shape[0]
    directed = set()
    for i in range(n):
        cand = np.array([j for j in range(n) if j != i])
        d2 = np.einsum("ij,ij->i", coords[cand] - coords[i], coords[cand] - coords[i])
        order = np.lexsort((cand, d2))
        for j in cand[order[:k]]:
            directed.add((i, int(j)))
    return {(min(u, v), max(u, v)) for u, v in directed}


def radius_edges_bruteforce(coords: np.ndarray, r: float) -> set:
    n = coords.shape[0]
    out = set()
    for i in range(n):
        for j in range(i + 1, n):
            d = np.sqrt(np.sum((coords[i] - coords[j]) ** 2))
            if 0 < d <= r:
                out.add((i, j))
    return out


def dijkstra_unit_hops(graph: Graph, source: int) -> np.ndarray:
    """Reference shortest paths with unit edge lengths (binary heap)."""
    neighbors = [[] for _ in range(graph.n)]
    for u, v in graph.edges.tolist():
        neighbors[u].append(v)
        neighbors[v].append(u)
    dist = np.full(graph.n, np.inf)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v in neighbors[u]:
            nd = d + 1.0
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def assert_valid_graph(g: Graph):
    # canonical pairs, no self loops, no duplicates
    assert np.all(g.edges[:, 0] < g.edges[:, 1])
    pairs = {tuple(e) for e in g.edges}
    assert len(pairs) == g.edge_count
    src, dst, _ = g.directed()
    directed = {(int(a), int(b)) for a, b in zip(src, dst)}
    assert all((b, a) in directed for a, b in directed)


def edge_set(g: Graph) -> set:
    return {tuple(e) for e in g.edges}


def random_cloud(n, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.uniform(0, 1, size=(n, d)))


# ---------------------------------------------------------------------------
# PointCloud / Graph validation


def test_point_cloud_rejects_duplicates():
    with pytest.raises(InvalidInputError):
        PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]))


def test_point_cloud_rejects_nonfinite_and_tiny():
    with pytest.raises(InvalidInputError):
        PointCloud(np.array([[0.0, 0.0], [np.nan, 1.0]]))
    with pytest.raises(InvalidInputError):
        PointCloud(np.array([[0.0, 0.0]]))


def test_point_cloud_rejects_a_span_whose_squared_distances_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any overflow warning
        with pytest.raises(InvalidInputError, match="overflow"):
            PointCloud(np.array([[-1e308, 0.0], [1e308, 0.0], [0.0, 1.0]]))
    # each coordinate difference is finite, but their squared sum is not
    with pytest.raises(InvalidInputError, match="overflow"):
        PointCloud(np.array([[0.0, 0.0], [1.5e154, 1.5e154], [0.0, 1.0]]))
    PointCloud(np.array([[0.0, 0.0], [1e153, 1e153], [0.0, 1.0]]))  # still finite


def test_graph_rejects_self_loops_and_duplicates():
    with pytest.raises(InvalidInputError):
        Graph(3, np.array([[1, 1]]))
    with pytest.raises(InvalidInputError):
        Graph(3, np.array([[0, 1], [0, 1]]))


# ---------------------------------------------------------------------------
# build_knn


def test_knn_unit_square_corners_k1():
    pts = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    g = build_knn(pts, 1)
    assert_valid_graph(g)
    # ties at distance 1 break toward the lower index
    assert edge_set(g) == {(0, 1), (0, 2), (1, 3)}
    assert 4 <= 2 * g.edge_count <= 8


def test_knn_k_out_of_range():
    pts = random_cloud(10)
    with pytest.raises(InvalidParameterError):
        build_knn(pts, 10)
    with pytest.raises(InvalidParameterError):
        build_knn(pts, 0)


def test_knn_matches_bruteforce_random_cloud():
    pts = random_cloud(100, seed=3)
    g = build_knn(pts, 5)
    assert_valid_graph(g)
    assert edge_set(g) == knn_edges_bruteforce(pts.coords, 5)


@pytest.mark.parametrize("n,k,d,seed", [
    (2, 1, 2, 30), (5, 4, 3, 31), (12, 3, 2, 32), (33, 6, 3, 33), (64, 8, 2, 34), (64, 5, 3, 35),
    (80, 3, 2, 1), (200, 7, 2, 2), (150, 5, 3, 4), (500, 10, 2, 5),
])
def test_knn_oracle_equivalence_sweep(n, k, d, seed):
    pts = random_cloud(n, d=d, seed=seed)
    g = build_knn(pts, k)
    assert edge_set(g) == knn_edges_bruteforce(pts.coords, k)


def test_knn_grid_cloud_with_ties_matches_bruteforce():
    # regular grid has large equidistant shells: stress tie handling
    xs, ys = np.meshgrid(np.arange(12), np.arange(12))
    pts = PointCloud(np.stack([xs.ravel(), ys.ravel()], axis=1).astype(float))
    for k in (1, 4, 8):
        g = build_knn(pts, k)
        assert edge_set(g) == knn_edges_bruteforce(pts.coords, k)


def test_knn_collinear_cloud_falls_back_exactly():
    # a near-zero vertical span would need ~1e5 rings of cells, so the grid
    # holds the cloud in one cell and its ring 0 is the brute-force scan
    rng = np.random.default_rng(6)
    coords = np.stack([np.linspace(0, 1, 90), np.zeros(90)], axis=1)
    coords += rng.normal(0, 1e-9, coords.shape)
    pts = PointCloud(coords)
    assert _CellGrid(coords).max_ring == 0
    g = build_knn(pts, 3)
    assert edge_set(g) == knn_edges_bruteforce(coords, 3)
    gr = build_radius(pts, 0.05)
    assert edge_set(gr) == radius_edges_bruteforce(coords, 0.05)


def test_thin_slab_matches_bruteforce_oracles():
    # a 3-d slab 1e-9 thick is held in one cell, like the collinear cloud
    rng = np.random.default_rng(12)
    coords = np.concatenate([rng.uniform(0, 1, (200, 2)), rng.uniform(0, 1e-9, (200, 1))], axis=1)
    pts = PointCloud(coords)
    assert _CellGrid(coords).max_ring == 0
    for k in (1, 6):
        assert edge_set(build_knn(pts, k)) == knn_edges_bruteforce(coords, k)
    r = 0.1
    assert edge_set(build_radius(pts, r)) == radius_edges_bruteforce(coords, r)
    d2 = np.sum((coords[:, None, :] - coords[None, :, :]) ** 2, axis=-1)
    oracle = ((d2 <= r * r).sum(axis=1) - 1).astype(np.int64)
    assert np.array_equal(estimate_density(pts, r), oracle)


def test_knn_min_degree_equals_k_on_synthetic_clouds():
    for seed, k in [(0, 5), (1, 30)]:
        pts = random_cloud(300, seed=seed)
        g = build_knn(pts, k)
        assert int(g.degrees().min()) == k


def test_knn_edge_count_monotone_in_k():
    pts = random_cloud(120, seed=9)
    counts = [build_knn(pts, k).edge_count for k in (2, 4, 8, 16)]
    assert counts == sorted(counts)


def test_knn_deterministic():
    pts = random_cloud(90, seed=11)
    g1, g2 = build_knn(pts, 6), build_knn(pts, 6)
    assert np.array_equal(g1.edges, g2.edges)


# ---------------------------------------------------------------------------
# build_radius


def test_radius_two_points():
    pts = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert build_radius(pts, 0.5).edge_count == 0
    g = build_radius(pts, 1.0)  # boundary inclusive
    assert edge_set(g) == {(0, 1)}


def test_radius_rejects_nonpositive():
    pts = random_cloud(5)
    with pytest.raises(InvalidParameterError):
        build_radius(pts, 0.0)


def test_radius_grid_moore_neighborhood():
    s = 0.05
    xs, ys = np.meshgrid(np.arange(20) * s, np.arange(20) * s)
    coords = np.stack([xs.ravel(), ys.ravel()], axis=1)
    pts = PointCloud(coords)
    g = build_radius(pts, 1.5 * s)
    assert_valid_graph(g)
    assert edge_set(g) == radius_edges_bruteforce(coords, 1.5 * s)
    deg = g.degrees()
    interior = [
        i
        for i in range(400)
        if 0 < i % 20 < 19 and 0 < i // 20 < 19
    ]
    assert np.all(deg[interior] == 8)


def test_radius_edge_count_monotone_in_r():
    pts = random_cloud(100, seed=21)
    counts = [build_radius(pts, r).edge_count for r in (0.05, 0.1, 0.2, 0.4)]
    assert counts == sorted(counts)


# ---------------------------------------------------------------------------
# estimate_density


def test_density_tight_cluster():
    rng = np.random.default_rng(0)
    coords = rng.uniform(0, 1e-9, size=(10, 2))
    pts = PointCloud(coords)
    dens = estimate_density(pts, 1.0)
    assert np.all(dens == 9)


def test_density_matches_bruteforce_mixed_cloud():
    rng = np.random.default_rng(7)
    theta = rng.uniform(0, 2 * np.pi, 150)
    annulus = 0.5 + np.stack([0.4 * np.cos(theta), 0.4 * np.sin(theta)], axis=1)
    annulus += rng.normal(0, 0.01, annulus.shape)
    sparse = rng.uniform(0.3, 0.7, size=(40, 2))
    coords = np.concatenate([annulus, sparse])
    pts = PointCloud(coords)
    r = 0.08
    dens = estimate_density(pts, r)
    d2 = np.sum((coords[:, None, :] - coords[None, :, :]) ** 2, axis=-1)
    oracle = ((d2 <= r * r).sum(axis=1) - 1).astype(np.int64)
    assert np.array_equal(dens, oracle)


# ---------------------------------------------------------------------------
# build_vknn


def two_density_cloud(seed=13):
    """Dense horizontal band plus sparse remainder of the unit square."""
    rng = np.random.default_rng(seed)
    band = np.stack(
        [rng.uniform(0, 1, 260), rng.uniform(0.45, 0.55, 260)], axis=1
    )
    rest = np.stack([rng.uniform(0, 1, 140), rng.uniform(0, 1, 140)], axis=1)
    rest = rest[(rest[:, 1] < 0.42) | (rest[:, 1] > 0.58)]
    return PointCloud(np.concatenate([band, rest]))


def test_vknn_uniform_density_degenerates_to_knn():
    xs, ys = np.meshgrid(np.arange(15) * 0.1, np.arange(15) * 0.1)
    pts = PointCloud(np.stack([xs.ravel(), ys.ravel()], axis=1))
    cfg = VknnConfig(k_min=2, k_max=6, density_radius=0.15)
    dens = estimate_density(pts, 0.15)
    interior = dens == dens.max()
    assert interior.sum() > 100  # grid interior shares one density value
    # restrict to a torus-like cloud where every node has equal density
    rng = np.random.default_rng(5)
    theta = np.sort(rng.uniform(0, 2 * np.pi, 64))
    ring = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    ring_pts = PointCloud(ring)
    r_d = 10.0  # every node sees all others
    cfg = VknnConfig(k_min=3, k_max=9, density_radius=r_d)
    g_v = build_vknn(ring_pts, cfg)
    g_k = build_knn(ring_pts, 9)
    assert edge_set(g_v) == edge_set(g_k)


def test_vknn_per_node_k_matches_formula():
    pts = two_density_cloud()
    cfg = VknnConfig(k_min=10, k_max=40, density_radius=0.08)
    dens = estimate_density(pts, cfg.density_radius)
    g = build_vknn(pts, cfg)
    expected = np.maximum(
        cfg.alpha_floor * cfg.k_min, (cfg.k_max * dens) // dens.max()
    )
    assert np.array_equal(g.presym_out_degree, expected)
    assert np.array_equal(vknn_k_of(cfg, dens), expected)
    # dense band saturates at k_max, sparse region rides the floor
    assert g.presym_out_degree.max() == cfg.k_max
    assert g.presym_out_degree.min() == cfg.alpha_floor * cfg.k_min


def test_vknn_floor_and_edge_savings():
    pts = two_density_cloud(seed=29)
    cfg = VknnConfig(k_min=10, k_max=40, density_radius=0.08)
    g_v = build_vknn(pts, cfg)
    g_k = build_knn(pts, cfg.k_max)
    assert g_v.presym_out_degree.max() == g_k.presym_out_degree.max() == 40
    assert g_v.edge_count < g_k.edge_count
    assert int(g_v.degrees().min()) >= cfg.alpha_floor * cfg.k_min


def test_vknn_degenerate_density_error():
    pts = random_cloud(50, seed=2)
    cfg = VknnConfig(k_min=2, k_max=5, density_radius=1e-9)
    with pytest.raises(DegenerateGraphError):
        build_vknn(pts, cfg)


def test_vknn_floor_checked_before_the_density_pass():
    # every node is isolated at this radius, but the floor alpha_floor*k_min
    # = 10 is already out of range for 10 points
    pts = random_cloud(10, seed=3)
    cfg = VknnConfig(k_min=5, k_max=9, density_radius=1e-6, alpha_floor=2)
    with pytest.raises(InvalidParameterError, match="alpha_floor"):
        build_vknn(pts, cfg)


def test_vknn_config_validation():
    with pytest.raises(InvalidParameterError):
        VknnConfig(k_min=5, k_max=3, density_radius=0.1)
    with pytest.raises(InvalidParameterError):
        VknnConfig(k_min=1, k_max=3, density_radius=-0.1)
    with pytest.raises(InvalidParameterError):
        VknnConfig(k_min=1, k_max=3, density_radius=0.1, alpha_floor=0)


# ---------------------------------------------------------------------------
# compute_edge_weights


def test_edge_weights_simple_distances():
    pts = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [7.0, 0.0]]))
    g = Graph(4, np.array([[0, 1], [1, 2], [2, 3]]))  # distances 1, 2, 4
    gw = compute_edge_weights(g, pts)
    assert np.allclose(sorted(gw.weights), [0.25, 0.5, 1.0], atol=0)
    assert gw.weights.max() == 1.0


def test_edge_weights_all_equal_lengths():
    pts = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    g = Graph(4, np.array([[0, 1], [1, 2], [2, 3], [0, 3]]))
    gw = compute_edge_weights(g, pts)
    assert np.all(gw.weights == 1.0)


def test_edge_weights_match_recomputation():
    pts = random_cloud(150, seed=33)
    g = build_knn(pts, 6)
    gw = compute_edge_weights(g, pts)
    dist = np.linalg.norm(pts.coords[gw.edges[:, 0]] - pts.coords[gw.edges[:, 1]], axis=1)
    raw = 1.0 / dist
    assert np.max(np.abs(gw.weights - raw / raw.max())) < 1e-14
    assert gw.weights.min() > 0 and gw.weights.max() == 1.0


# ---------------------------------------------------------------------------
# degree_stats


def test_degree_stats_triangle():
    g = Graph(3, np.array([[0, 1], [0, 2], [1, 2]]))
    st = degree_stats(g)
    assert st["edge_count"] == 3
    assert st["min_degree"] == st["max_degree"] == 2
    assert st["histogram"] == [0, 0, 3]


def test_vknn_fewer_edges_than_uniform_knn_stats():
    pts = two_density_cloud(seed=41)
    cfg = VknnConfig(k_min=8, k_max=30, density_radius=0.08)
    sv = degree_stats(build_vknn(pts, cfg))
    sk = degree_stats(build_knn(pts, 30))
    assert sv["edge_count"] < sk["edge_count"]


# ---------------------------------------------------------------------------
# anchor_embeddings


def test_anchor_path_graph():
    g = Graph(3, np.array([[0, 1], [1, 2]]))
    emb = anchor_embeddings(g, 1, seed=5)
    # force anchor 0 by searching seeds? instead assert against whichever anchor
    a = int(emb.anchor_ids[0])
    expected = {0: [0.0, 0.5, 1.0], 1: [0.5, 0.0, 0.5], 2: [1.0, 0.5, 0.0]}[a]
    if a == 1:
        # max finite hop is 1 in this case
        expected = [1.0, 0.0, 1.0]
    assert np.allclose(emb.h[:, 0], expected)
    assert emb.h[a, 0] == 0.0


def test_anchor_path_graph_anchor_zero():
    g = Graph(3, np.array([[0, 1], [1, 2]]))
    for seed in range(30):
        emb = anchor_embeddings(g, 1, seed=seed)
        if int(emb.anchor_ids[0]) == 0:
            assert np.allclose(emb.h[:, 0], [0.0, 0.5, 1.0])
            return
    pytest.fail("no seed selected anchor 0")


def test_anchor_complete_graph():
    edges = np.array([(i, j) for i in range(5) for j in range(i + 1, 5)])
    g = Graph(5, edges)
    emb = anchor_embeddings(g, 1, seed=0)
    a = int(emb.anchor_ids[0])
    expected = np.ones(5)
    expected[a] = 0.0
    assert np.allclose(emb.h[:, 0], expected)


def test_anchor_matches_dijkstra_oracle():
    pts = random_cloud(120, seed=17)
    g = build_knn(pts, 5)
    emb = anchor_embeddings(g, 4, seed=23)
    hops = np.stack([dijkstra_unit_hops(g, int(a)) for a in emb.anchor_ids], axis=1)
    finite = hops[np.isfinite(hops)]
    ref = hops / finite.max()
    ref[~np.isfinite(ref)] = 1.0
    assert np.allclose(emb.h, ref)


def test_anchor_unreachable_maps_to_one():
    g = Graph(4, np.array([[0, 1], [2, 3]]))  # two components
    for seed in range(20):
        emb = anchor_embeddings(g, 1, seed=seed)
        a = int(emb.anchor_ids[0])
        other = {0: [2, 3], 1: [2, 3], 2: [0, 1], 3: [0, 1]}[a]
        assert np.all(emb.h[other, 0] == 1.0)
        break


def test_anchor_param_validation_and_determinism():
    g = Graph(3, np.array([[0, 1], [1, 2]]))
    with pytest.raises(InvalidParameterError):
        anchor_embeddings(g, 4, seed=0)
    with pytest.raises(InvalidParameterError):
        anchor_embeddings(g, 0, seed=0)
    pts = random_cloud(60, seed=8)
    gg = build_knn(pts, 4)
    e1 = anchor_embeddings(gg, 3, seed=9)
    e2 = anchor_embeddings(gg, 3, seed=9)
    assert np.array_equal(e1.h, e2.h)
    assert np.array_equal(e1.anchor_ids, e2.anchor_ids)


# ---------------------------------------------------------------------------
# persistence


def test_point_cloud_round_trip(tmp_path):
    pts = random_cloud(40, seed=50)
    man = save_point_cloud(pts, tmp_path)
    back = load_point_cloud(man)
    assert back.n == pts.n and back.d == pts.d
    assert np.allclose(back.coords, pts.coords, atol=1e-6)


def test_graph_round_trip(tmp_path):
    pts = random_cloud(60, seed=51)
    g = compute_edge_weights(build_knn(pts, 4), pts)
    man = save_graph(g, tmp_path)
    back = load_graph(man)
    assert back.n == g.n
    assert np.array_equal(back.edges, g.edges)
    assert back.weights.max() == 1.0
    assert np.allclose(back.weights, g.weights, atol=1e-6)


def test_graph_manifest_fields_checked_against_content_hash(tmp_path):
    import json

    pts = random_cloud(60, seed=51)
    g = compute_edge_weights(build_knn(pts, 4), pts)
    man = save_graph(g, tmp_path)
    doc = json.loads(man.read_text())
    doc["n"] += 1
    man.write_text(json.dumps(doc))
    with pytest.raises(ArtifactError) as err:
        load_graph(man)
    edited = Graph(g.n + 1, g.edges, weights=g.weights)
    assert g.content_hash() in str(err.value) and edited.content_hash() in str(err.value)
