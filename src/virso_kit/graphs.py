"""Graph construction over irregular point clouds.

Builds KNN, radius, and density-adaptive variable-KNN graphs, assigns
max-normalized inverse-distance edge weights, and computes hop-distance
anchor embeddings. All graphs are undirected (stored as canonical u < v
pairs), self-loop free, and deterministic for fixed inputs and seeds.

Neighbor queries run on a uniform cell grid. Candidate distances are
scored with the same squared-distance arithmetic a brute-force scan would
use, and ties are broken by ascending node index, so accelerated and
brute-force construction agree bit-exactly.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import logging
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .blobio import F32, U32, load_artifact, save_artifact
from .errors import (
    ArtifactError,
    DegenerateGraphError,
    InvalidInputError,
    InvalidParameterError,
)

log = logging.getLogger("virso_kit.graphs")


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class PointCloud:
    """Irregular set of n distinct points in 2 or 3 dimensions."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.ascontiguousarray(np.asarray(self.coords, dtype=np.float64))
        if coords.ndim != 2:
            raise InvalidInputError(f"coords must be 2-d (n, d), got shape {coords.shape}")
        n, d = coords.shape
        if n < 2:
            raise InvalidInputError(f"need at least 2 points, got {n}")
        if d not in (2, 3):
            raise InvalidInputError(f"spatial dimension must be 2 or 3, got {d}")
        if not np.all(np.isfinite(coords)):
            raise InvalidInputError("coordinates must be finite")
        with np.errstate(over="ignore"):
            span = coords.max(axis=0) - coords.min(axis=0)
            span_sq = float(np.sum(span * span))
        if not np.isfinite(span_sq):  # it bounds every squared distance
            raise InvalidInputError("coordinates span too wide: squared distances overflow")
        order = np.lexsort(coords.T)
        dup = np.all(coords[order[1:]] == coords[order[:-1]], axis=1)
        if dup.any():
            i = int(order[1:][dup][0])
            raise InvalidInputError(f"duplicate point at index {i}")
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def d(self) -> int:
        return self.coords.shape[1]


@dataclass(frozen=True)
class Graph:
    """Undirected graph on n nodes; edges canonical (u < v), lexsorted.

    `weights`, when present, are per-edge scalars in (0, 1] with max
    exactly 1. `presym_out_degree` records per-node neighbor counts
    before symmetrization for degree-adaptive constructions.
    """

    n: int
    edges: np.ndarray
    weights: np.ndarray | None = None
    presym_out_degree: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise InvalidInputError(f"edges must be (E, 2), got {edges.shape}")
        if edges.size and (edges.min() < 0 or edges.max() >= self.n):
            raise InvalidInputError("edge endpoint out of range")
        if np.any(edges[:, 0] == edges[:, 1]):
            raise InvalidInputError("self-loops are not allowed")
        if np.any(edges[:, 0] > edges[:, 1]):
            raise InvalidInputError("edges must be canonical (u < v)")
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        edges = edges[order]
        if edges.shape[0] > 1 and np.any(np.all(edges[1:] == edges[:-1], axis=1)):
            raise InvalidInputError("duplicate edges are not allowed")
        object.__setattr__(self, "edges", edges)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64)
            if w.shape != (edges.shape[0],):
                raise InvalidInputError("weights must be one scalar per edge")
            w = w[order]
            if w.size and (w.min() <= 0.0 or w.max() != 1.0):
                raise InvalidInputError("weights must lie in (0, 1] with max exactly 1")
            object.__setattr__(self, "weights", w)

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def directed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Both orientations: (src, dst, weight-per-directed-edge)."""
        src = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        dst = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
        w = None if self.weights is None else np.concatenate([self.weights, self.weights])
        return src, dst, w

    def adjacency_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) over both edge orientations, neighbors sorted."""
        src, dst, _ = self.directed()
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return indptr, dst

    def content_hash(self) -> str:
        # weights hashed at storage precision so the key survives save/load
        h = hashlib.sha256()
        h.update(str(self.n).encode())
        h.update(np.ascontiguousarray(self.edges, dtype=np.int64).tobytes())
        if self.weights is not None:
            h.update(np.ascontiguousarray(self.weights).astype("<f4").tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class VknnConfig:
    """Parameters of the density-adaptive variable-KNN construction."""

    k_min: int
    k_max: int
    density_radius: float
    alpha_floor: int = 1

    def __post_init__(self):
        if not (1 <= self.k_min <= self.k_max):
            raise InvalidParameterError(f"need 1 <= k_min <= k_max, got {self.k_min}, {self.k_max}")
        if self.alpha_floor < 1:
            raise InvalidParameterError("alpha_floor must be >= 1")
        if self.density_radius <= 0:
            raise InvalidParameterError("density_radius must be positive")


@dataclass(frozen=True)
class AnchorEmbedding:
    """Per-node hop distances to randomly chosen anchor nodes.

    Hops are normalized by the maximum finite hop distance; unreachable
    pairs map to 1.0. h[anchor_ids[j], j] == 0.
    """

    h: np.ndarray
    anchor_ids: np.ndarray
    seed: int


# ---------------------------------------------------------------------------
# spatial index


def _sq_dists(coords: np.ndarray, i: int, cand: np.ndarray) -> np.ndarray:
    diff = coords[cand] - coords[i]
    return np.einsum("ij,ij->i", diff, diff)


@functools.cache
def _ring_offsets(r: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Cell offsets at Chebyshev radius r in d dimensions, first axis slowest."""
    return tuple(o for o in itertools.product(range(-r, r + 1), repeat=d)
                 if max(map(abs, o)) == r)


class _CellGrid:
    """Uniform cell list for exact k-NN and radius queries.

    Queries expand Chebyshev rings of cells; any unscanned point beyond
    ring r is at Euclidean distance >= r * cell, which bounds the search.
    Distances are computed with `_sq_dists` so results match brute force.

    A cloud whose grid would need more than 1024 rings (a thin slab or a
    near-collinear cloud) gets one cell twice its span wide instead. Ring 0
    then holds every point in index order, which is exactly the brute-force
    scan, and no point lies beyond it.
    """

    def __init__(self, coords: np.ndarray):
        self.coords = coords
        n = coords.shape[0]
        lo = coords.min(axis=0)
        span = coords.max(axis=0) - lo
        live = span[span > 0]
        cell = (float(np.prod(live)) * 2.0 / n) ** (1.0 / live.size) if live.size else 1.0
        if not np.isfinite(cell) or cell <= 0:
            cell = 1.0
        if np.ceil(span.max() / cell) + 1 > 1024:
            cell = 2.0 * float(span.max())
        self.cell = cell
        idx = np.floor((coords - lo) / cell).astype(np.int64)
        self.max_ring = int(idx.max())  # no two points' cells are more rings apart
        self.point_cell = list(map(tuple, idx.tolist()))
        buckets: dict[tuple, list[int]] = defaultdict(list)
        for i, key in enumerate(self.point_cell):
            buckets[key].append(i)
        self.buckets = {k: np.array(v, dtype=np.int64) for k, v in buckets.items()}

    def _ring_members(self, center: tuple[int, ...], r: int) -> list[np.ndarray]:
        keys = (tuple(map(operator.add, center, o)) for o in _ring_offsets(r, len(center)))
        return [got for got in map(self.buckets.get, keys) if got is not None]

    def knn(self, i: int, k: int) -> np.ndarray:
        """Indices of the k nearest neighbors of node i, ties by lower index."""
        center = self.point_cell[i]
        cand_parts: list[np.ndarray] = []
        count = 0
        trimmed = False  # once trimmed, parts exclude i and hold the best k
        best = None
        for r in range(self.max_ring + 1):
            for part in self._ring_members(center, r):
                cand_parts.append(part)
                count += part.size
            if count < (k if trimmed else k + 1):  # ring 0 includes i itself
                continue
            cand = np.concatenate(cand_parts)
            cand = cand[cand != i]
            d2 = _sq_dists(self.coords, i, cand)
            order = np.lexsort((cand, d2))
            cand, d2 = cand[order[:k]], d2[order[:k]]
            # any unscanned point is at distance >= r * cell; strict < keeps
            # searching while an unscanned tie could win on index order
            if cand.size == k and d2[-1] < (r * self.cell) ** 2:
                return cand
            best = cand
            cand_parts = [cand]
            count = cand.size
            trimmed = True
        if best is None or best.size < k:
            raise InvalidParameterError(
                f"cannot find {k} neighbors among {self.coords.shape[0]} points"
            )
        return best

    def within(self, i: int, radius: float) -> np.ndarray:
        """Indices j != i with ||x_j - x_i|| <= radius (boundary inclusive)."""
        center = self.point_cell[i]
        r_cells = int(np.ceil(radius / self.cell)) + 1
        parts = []  # ring 0 holds i itself, so it is never empty
        for r in range(min(r_cells, self.max_ring) + 1):
            parts.extend(self._ring_members(center, r))
        cand = np.concatenate(parts)
        cand = cand[cand != i]
        d2 = _sq_dists(self.coords, i, cand)
        return np.sort(cand[d2 <= radius * radius])


def _knn_graph(points: PointCloud, ks: np.ndarray) -> Graph:
    """Union of node i's ks[i] nearest neighbors, as canonical undirected pairs."""
    grid = _CellGrid(points.coords)
    neigh = [grid.knn(i, k) for i, k in enumerate(ks.tolist())]
    src = np.repeat(np.arange(points.n), [a.size for a in neigh])
    dst = np.concatenate(neigh)
    pairs = np.unique(np.stack([np.minimum(src, dst), np.maximum(src, dst)], axis=1), axis=0)
    return Graph(points.n, pairs, presym_out_degree=ks)


# ---------------------------------------------------------------------------
# operations


def build_knn(points: PointCloud, k: int) -> Graph:
    """Symmetrized k-nearest-neighbor graph; ties broken by lower index."""
    if not (1 <= k < points.n):
        raise InvalidParameterError(f"k must satisfy 1 <= k < n, got k={k}, n={points.n}")
    return _knn_graph(points, np.full(points.n, k, dtype=np.int64))


def build_radius(points: PointCloud, r: float) -> Graph:
    """Edge (u, v) iff 0 < ||x_u - x_v|| <= r. Isolated nodes are reported."""
    if r <= 0:
        raise InvalidParameterError(f"radius must be positive, got {r}")
    grid = _CellGrid(points.coords)
    rows = []
    for i in range(points.n):
        js = grid.within(i, r)
        js = js[js > i]
        if js.size:
            rows.append(np.stack([np.full(js.size, i, dtype=np.int64), js], axis=1))
    edges = np.concatenate(rows, axis=0) if rows else np.empty((0, 2), dtype=np.int64)
    g = Graph(points.n, edges)
    isolated = int(np.count_nonzero(g.degrees() == 0))
    if isolated:
        log.warning("radius graph (r=%g) leaves %d isolated node(s)", r, isolated)
    return g


def estimate_density(points: PointCloud, r: float) -> np.ndarray:
    """Per-node count of other points within radius r (boundary inclusive)."""
    if r <= 0:
        raise InvalidParameterError(f"radius must be positive, got {r}")
    grid = _CellGrid(points.coords)
    return np.array([grid.within(i, r).size for i in range(points.n)], dtype=np.int64)


def build_vknn(points: PointCloud, cfg: VknnConfig) -> Graph:
    """Density-adaptive KNN: node i gets k_i = max(alpha_floor*k_min, floor(k_max*d_i/d_max))."""
    if cfg.k_max >= points.n:
        raise InvalidParameterError(f"k_max must be < n, got k_max={cfg.k_max}, n={points.n}")
    floor_k = cfg.alpha_floor * cfg.k_min
    if floor_k >= points.n:
        raise InvalidParameterError(
            f"alpha_floor*k_min = {floor_k} must be < n = {points.n}"
        )
    return _knn_graph(points, vknn_k_of(cfg, estimate_density(points, cfg.density_radius)))


def vknn_k_of(cfg: VknnConfig, densities: np.ndarray) -> np.ndarray:
    """The per-node neighbor-count rule k_i of `build_vknn`."""
    d_max = int(np.max(densities))
    if d_max == 0:
        raise DegenerateGraphError(
            f"all nodes isolated at density_radius={cfg.density_radius}: d_max = 0"
        )
    return np.maximum(cfg.alpha_floor * cfg.k_min,
                      (cfg.k_max * np.asarray(densities)) // d_max).astype(np.int64)


def compute_edge_weights(graph: Graph, points: PointCloud) -> Graph:
    """Inverse-distance weights, divided by the global maximum raw weight."""
    if graph.edge_count < 1:
        raise InvalidParameterError("graph has no edges to weight")
    if graph.n != points.n:
        raise InvalidInputError("graph and point cloud disagree on n")
    diff = points.coords[graph.edges[:, 0]] - points.coords[graph.edges[:, 1]]
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    if np.any(dist == 0.0):
        raise InvalidInputError("coincident edge endpoints: inverse distance undefined")
    raw = 1.0 / dist
    w = raw / raw.max()
    return Graph(graph.n, graph.edges, weights=w, presym_out_degree=graph.presym_out_degree)


def degree_stats(graph: Graph) -> dict:
    """Undirected edge count, degree extremes, and degree histogram."""
    deg = graph.degrees()
    hist = np.bincount(deg)
    stats = {
        "edge_count": int(graph.edge_count),
        "min_degree": int(deg.min()),
        "max_degree": int(deg.max()),
        "histogram": hist.tolist(),
    }
    if graph.presym_out_degree is not None:
        pre = graph.presym_out_degree
        stats["presym_min_out_degree"] = int(pre.min())
        stats["presym_max_out_degree"] = int(pre.max())
    return stats


def _bfs_hops(indptr: np.ndarray, indices: np.ndarray, source: int, n: int) -> np.ndarray:
    hops = np.full(n, np.inf)
    hops[source] = 0.0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        parts = [indices[indptr[u]:indptr[u + 1]] for u in frontier]
        nxt = np.unique(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
        nxt = nxt[np.isinf(hops[nxt])]
        hops[nxt] = level
        frontier = nxt
    return hops


def anchor_embeddings(graph: Graph, alpha_anchors: int, seed: int) -> AnchorEmbedding:
    """BFS hop distances to `alpha_anchors` seeded-random anchor nodes.

    Normalized by the maximum finite hop distance over the whole table;
    unreachable pairs become 1.0. A useful default anchor count is
    ceil(log2(n))**2.
    """
    if alpha_anchors < 1:
        raise InvalidParameterError("alpha_anchors must be >= 1")
    if alpha_anchors > graph.n:
        raise InvalidParameterError(
            f"alpha_anchors = {alpha_anchors} exceeds node count {graph.n}"
        )
    rng = np.random.default_rng(seed)
    anchor_ids = np.sort(rng.choice(graph.n, size=alpha_anchors, replace=False))
    indptr, indices = graph.adjacency_csr()
    cols = [_bfs_hops(indptr, indices, int(a), graph.n) for a in anchor_ids]
    h = np.stack(cols, axis=1)
    finite = h[np.isfinite(h)]
    max_hop = finite.max() if finite.size else 0.0
    if max_hop > 0:
        h = h / max_hop
    h[~np.isfinite(h)] = 1.0
    return AnchorEmbedding(h=h, anchor_ids=anchor_ids.astype(np.int64), seed=seed)


# ---------------------------------------------------------------------------
# persistence


def save_point_cloud(points: PointCloud, out_dir: Path, name: str = "points") -> Path:
    return save_artifact(Path(out_dir) / f"{name}.json", "point_cloud",
                         {"coords": (f"{name}.f32", points.coords.astype(F32))})


def load_point_cloud(manifest_path: Path) -> PointCloud:
    _, arrays = load_artifact(manifest_path, "point_cloud")
    return PointCloud(arrays["coords"].astype(np.float64))


def save_graph(graph: Graph, out_dir: Path, name: str = "graph") -> Path:
    blobs = {"edges": (f"{name}_edges.u32", graph.edges.T.astype(U32))}  # 2 x E row-major
    if graph.weights is not None:
        blobs["weights"] = (f"{name}_weights.f32", graph.weights.astype(F32))
    return save_artifact(Path(out_dir) / f"{name}.json", "graph", blobs,
                         n=graph.n, content_hash=graph.content_hash())


def load_graph(manifest_path: Path) -> Graph:
    man, arrays = load_artifact(manifest_path, "graph")
    weights = None
    if "weights" in arrays:
        # stored weights keep max == 1.0 exactly (1.0 is f32-representable)
        weights = arrays["weights"].astype(np.float64)
        if weights.size and weights.min() <= 0.0:
            raise ArtifactError(f"{manifest_path}: stored weight underflowed to 0")
    graph = Graph(man["n"], arrays["edges"].T.astype(np.int64), weights=weights)
    if graph.content_hash() != man["content_hash"]:
        raise ArtifactError(f"{manifest_path} records content hash {man['content_hash']}, "
                            f"but its fields and blobs give {graph.content_hash()}")
    return graph
