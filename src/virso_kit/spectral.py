"""Normalized graph Laplacian assembly and low-mode eigensolvers.

The symmetric degree-normalized Laplacian L = I - D^{-1/2} A D^{-1/2}
(binary or weighted adjacency) has a real spectrum in [0, 2] and, on a
connected graph, a null space spanned by D^{1/2} 1. It is held as an
`autodiff.EdgeList` with one value per directed edge and per self-loop, and
applied through that list's padded plan, not as CSR. The m lowest
eigenpairs are computed by a block LOBPCG iteration; a dense symmetric
eigendecomposition serves as the reference for small problems.

Eigenvector signs are fixed by forcing the largest-magnitude component
of each column positive, so bases are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import EdgeList
from .blobio import F64, load_artifact, save_artifact
from .errors import (
    ArtifactError,
    ConvergenceError,
    DegenerateGraphError,
    InvalidParameterError,
    ShapeError,
)
from .graphs import Graph


@dataclass(frozen=True)
class SparseLaplacian:
    """Symmetric sparse matrix: L[dst[e], src[e]] = data[e] over `edges`.

    The unit diagonal of a non-isolated node is held as its self-loop, so
    `L @ x` is one `EdgeList.sum_in`, the sum that serves the spatial branch.
    """

    n: int
    edges: EdgeList
    data: np.ndarray
    weighted: bool

    def matmat(self, x: np.ndarray) -> np.ndarray:
        """L @ x for x of shape (n,) or (n, k)."""
        if x.shape[0] != self.n:
            raise ShapeError(f"operand has {x.shape[0]} rows, Laplacian is {self.n}")
        out = self.edges.sum_in(self.data, x)
        return out[:, 0] if x.ndim == 1 else out

    def __matmul__(self, x):
        return self.matmat(x)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n, self.n))
        dense[self.edges.dst, self.edges.src] = self.data
        return dense


@dataclass(frozen=True)
class EigenBasis:
    """The m lowest eigenpairs: column-orthonormal q (n x m), ascending sigma.

    An iterative solver also records its iteration count and the worst
    residual seen before each iteration and at the end; a direct solve
    leaves both unset.
    """

    q: np.ndarray
    sigma: np.ndarray
    iterations: int | None = None
    residual_history: tuple[float, ...] | None = None

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def m(self) -> int:
        return self.q.shape[1]

    def validate(self, laplacian: SparseLaplacian, tol: float = 1e-8) -> None:
        gram = self.q.T @ self.q
        if np.max(np.abs(gram - np.eye(self.m))) > 1e-8:
            raise ConvergenceError("basis is not orthonormal to 1e-8")
        if np.any(np.diff(self.sigma) < -1e-12):
            raise ConvergenceError("eigenvalues are not ascending")
        res = laplacian @ self.q - self.q * self.sigma
        norms = np.linalg.norm(res, axis=0)
        bound = tol * np.maximum(1.0, np.abs(self.sigma))
        if np.any(norms > bound):
            raise ConvergenceError(
                "residual bound violated", worst_residual=float(norms.max())
            )


def normalized_laplacian(graph: Graph, weighted: bool = False) -> SparseLaplacian:
    """L = I - D^{-1/2} A D^{-1/2}; A binary or inverse-distance weighted."""
    if weighted and graph.weights is None:
        raise InvalidParameterError("weighted Laplacian requires edge weights on the graph")
    src, dst, w = graph.directed()
    avals = w if weighted else np.ones(src.shape[0])
    deg = np.zeros(graph.n)
    np.add.at(deg, src, avals)
    dead = np.flatnonzero(deg == 0.0)
    if dead.size:
        raise DegenerateGraphError(f"isolated node {int(dead[0])} has degree 0")
    inv_sqrt = 1.0 / np.sqrt(deg)
    # one value per canonical edge, reused for both orientations: exact symmetry
    e = graph.edges
    ew = graph.weights if weighted else np.ones(e.shape[0])
    off = -ew * inv_sqrt[e[:, 0]] * inv_sqrt[e[:, 1]]
    loops = np.arange(graph.n)
    edges = EdgeList(np.concatenate([e[:, 1], e[:, 0], loops]),
                     np.concatenate([e[:, 0], e[:, 1], loops]), graph.n)
    return SparseLaplacian(graph.n, edges, np.concatenate([off, off, np.ones(graph.n)]),
                           weighted)


def _fix_signs(q: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(q), axis=0)
    signs = np.where(q[idx, np.arange(q.shape[1])] < 0, -1.0, 1.0)
    return q * signs


def _orthonormal_columns(s: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span, dropping rank-deficient directions."""
    u, sv, _ = np.linalg.svd(s, full_matrices=False)
    if sv.size == 0:
        return u
    keep = sv > sv[0] * max(s.shape) * np.finfo(float).eps * 10
    return u[:, keep]


def _ortho_against(base: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Orthonormalize `block` against an orthonormal `base` (twice, for stability)."""
    y = block - base @ (base.T @ block)
    y = y - base @ (base.T @ y)
    scale = np.linalg.norm(block)
    if scale == 0.0:
        return np.zeros((block.shape[0], 0))
    u, sv, _ = np.linalg.svd(y, full_matrices=False)
    keep = sv > scale * max(block.shape) * np.finfo(float).eps * 100
    return u[:, keep]


def lobpcg_smallest(
    laplacian: SparseLaplacian,
    m: int,
    tol: float = 1e-10,
    max_iter: int = 500,
    seed: int = 0,
) -> EigenBasis:
    """m smallest eigenpairs via LOBPCG with a seeded random initial block.

    Each iteration applies the operand once, to the new residual block W
    only. The search block S = [X, P, W] is kept orthonormal (W against
    [X, P], and P against X in the small coefficient space of the
    Rayleigh-Ritz step, after Hetmaniuk & Lehoucq 2006), so L X and L P
    are carried through the same orthonormal updates as X and P and drift
    by round-off only. When the carried residuals meet the tolerance, L X
    is recomputed explicitly and the test repeated; only that explicit
    check ends the iteration.

    Convergence requires per-pair residuals ||L q - sigma q|| <= tol * max(1, sigma).
    The operand needs only `.n` and `@`.
    """
    n = laplacian.n
    if not (1 <= m <= max(1, n // 4)):
        raise InvalidParameterError(
            f"mode count m={m} outside stable range 1..max(1, n//4) for n={n}"
        )
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")

    rng = np.random.default_rng(seed)
    x = _orthonormal_columns(rng.standard_normal((n, m)))
    if x.shape[1] < m:
        raise ConvergenceError("initial block is rank deficient")
    # Rayleigh-Ritz on the initial block
    ax = laplacian @ x
    t = x.T @ ax
    theta, z = np.linalg.eigh((t + t.T) / 2)
    theta, z = theta[:m], z[:, :m]
    x, ax = x @ z, ax @ z
    p = ap = np.zeros((n, 0))
    history: list[float] = []
    for it in range(max_iter):
        bound = tol * np.maximum(1.0, np.abs(theta))
        r = ax - x * theta
        norms = np.linalg.norm(r, axis=0)
        if np.all(norms <= bound):
            # certify against an explicit product, not the carried one
            ax = laplacian @ x
            r = ax - x * theta
            norms = np.linalg.norm(r, axis=0)
        history.append(float(norms.max()))
        if np.all(norms <= bound):
            order = np.argsort(theta)
            return EigenBasis(q=_fix_signs(x[:, order]), sigma=theta[order],
                              iterations=it, residual_history=tuple(history))
        w = _ortho_against(np.concatenate([x, p], axis=1), r)
        if w.shape[1] == 0:
            raise ConvergenceError(
                f"LOBPCG stagnated above tolerance (worst residual {history[-1]:.3e})",
                worst_residual=history[-1],
            )
        s = np.concatenate([x, p, w], axis=1)
        as_ = np.concatenate([ax, ap, laplacian @ w], axis=1)
        g = s.T @ as_
        evals, z = np.linalg.eigh((g + g.T) / 2)
        evals, z = evals[:m], z[:, :m]
        if evals.size < m:
            raise ConvergenceError("search subspace collapsed below m directions")
        # x occupies the first m columns of s, so rows m: of z give the
        # contribution from [p, w]: the conjugate direction for the next
        # step, made orthonormal to z so that [x, p] stays orthonormal
        y = z.copy()
        y[:m] = 0.0
        y = _ortho_against(z, y)
        x, ax = s @ z, as_ @ z
        p, ap = s @ y, as_ @ y
        theta = evals
    worst = history[-1] if history else np.inf
    raise ConvergenceError(
        f"LOBPCG did not converge in {max_iter} iterations (worst residual {worst:.3e})",
        worst_residual=worst,
    )


def dense_eigen_reference(laplacian: SparseLaplacian, m: int) -> EigenBasis:
    """Exact m smallest eigenpairs from a full symmetric eigendecomposition."""
    if laplacian.n > 2000:
        raise InvalidParameterError(
            f"n = {laplacian.n} too large for the dense reference (limit 2000); "
            "use lobpcg_smallest"
        )
    if not (1 <= m <= laplacian.n):
        raise InvalidParameterError(f"need 1 <= m <= n, got m={m}")
    evals, evecs = np.linalg.eigh(laplacian.to_dense())
    return EigenBasis(q=_fix_signs(evecs[:, :m]), sigma=evals[:m])


def gft(basis: EigenBasis, v: np.ndarray) -> np.ndarray:
    """Project node signals onto the retained eigenmodes: q^T v."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[0] != basis.n:
        raise ShapeError(f"signal has {v.shape[0]} rows, basis has {basis.n}")
    return basis.q.T @ v


def igft(basis: EigenBasis, c: np.ndarray) -> np.ndarray:
    """Lift mode coefficients back to node space: q c."""
    c = np.asarray(c, dtype=np.float64)
    if c.shape[0] != basis.m:
        raise ShapeError(f"coefficients have {c.shape[0]} rows, basis has {basis.m} modes")
    return basis.q @ c


def save_eigen_basis(
    basis: EigenBasis, out_dir: Path, graph_hash: str, name: str = "basis"
) -> Path:
    return save_artifact(
        Path(out_dir) / f"{name}.json", "eigen_basis",
        {"q": (f"{name}_q.f64", basis.q.astype(F64)),
         "sigma": (f"{name}_sigma.f64", basis.sigma.astype(F64))},
        graph_hash=graph_hash, iterations=basis.iterations,
        residual_history=basis.residual_history,
    )


def load_eigen_basis(manifest_path: Path, expected_graph_hash: str | None = None) -> EigenBasis:
    man, arrays = load_artifact(manifest_path, "eigen_basis")
    if expected_graph_hash is not None and man["graph_hash"] != expected_graph_hash:
        raise ArtifactError(
            "eigen basis was computed for a different graph "
            f"(cache key {man['graph_hash'][:12]}..., expected {expected_graph_hash[:12]}...)"
        )
    history = man["residual_history"]
    return EigenBasis(q=arrays["q"].astype(np.float64), sigma=arrays["sigma"].astype(np.float64),
                      iterations=man["iterations"],
                      residual_history=None if history is None else tuple(history))
