"""Reference computations written apart from virso_kit, and the checks that use them.

Nothing here calls the program: each function rebuilds a result from its
definition (brute-force neighbour scans, a Laplacian assembled from the edge
list, a plain numpy forward pass with per-edge `np.add.at`, central
differences, the closed-form fields). Every `check_*` returns a list of
failure messages, empty when the program's output agrees, so the same call
serves the check and its self-test on perturbed input.
"""

from __future__ import annotations

import importlib.util

import numpy as np

GELU_C = np.sqrt(2.0 / np.pi)


def _mismatch(label: str, got, want, rtol: float, atol: float = 0.0) -> list[str]:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    err = np.abs(got - want)
    lim = atol + rtol * np.abs(want)
    if np.all(err <= lim):
        return []
    i = int(np.argmax(err - lim))
    return [f"{label}: worst |diff| {err.flat[i]:.3e} exceeds {lim.flat[i]:.3e}"]


# ---------------------------------------------------------------------------
# graph


def _sq_dist_rows(coords: np.ndarray, rows: slice) -> np.ndarray:
    diff = coords[rows, None, :] - coords[None, :, :]
    return (diff * diff).sum(axis=-1)


def vknn_edges(coords: np.ndarray, k_min: int, k_max: int, radius: float,
               alpha_floor: int = 1, chunk: int = 256) -> np.ndarray:
    """Density-adaptive KNN edges, canonical (u < v) and lexsorted.

    Density d_i counts other points within `radius` (inclusive);
    k_i = max(alpha_floor * k_min, k_max * d_i // d_max); neighbours are the
    k_i nearest by squared distance, ties to the lower index; the directed
    lists are then symmetrized. Distances are formed one block of rows at a
    time so n of several thousand fits in memory.
    """
    n = coords.shape[0]
    density = np.empty(n, dtype=np.int64)
    for s in range(0, n, chunk):
        d2 = _sq_dist_rows(coords, slice(s, s + chunk))
        density[s:s + chunk] = (d2 <= radius * radius).sum(axis=1) - 1  # minus self
    k = np.maximum(alpha_floor * k_min, (k_max * density) // density.max())
    pairs = []
    for s in range(0, n, chunk):
        d2 = _sq_dist_rows(coords, slice(s, s + chunk))
        rows = np.arange(s, min(s + chunk, n))
        d2[rows - s, rows] = np.inf
        kmax = int(k[rows].max())
        # every point at or inside the kmax-th smallest distance, ties included
        near = d2 <= np.partition(d2, kmax - 1, axis=1)[:, kmax - 1:kmax]
        for r, i in enumerate(rows):
            cand = np.flatnonzero(near[r])
            nbr = cand[np.lexsort((cand, d2[r, cand]))[:k[i]]]
            pairs.append(np.stack([np.minimum(i, nbr), np.maximum(i, nbr)], axis=1))
    return np.unique(np.concatenate(pairs), axis=0)


def check_edges(edges: np.ndarray, want: np.ndarray) -> list[str]:
    if edges.shape != want.shape:
        return [f"edge count {edges.shape[0]} != reference {want.shape[0]}"]
    bad = np.flatnonzero(np.any(edges != want, axis=1))
    return [f"{bad.size} edges differ from the reference, first at row {bad[0]}"] if bad.size else []


def check_weights(weights: np.ndarray, coords: np.ndarray, edges: np.ndarray) -> list[str]:
    dist = np.linalg.norm(coords[edges[:, 0]] - coords[edges[:, 1]], axis=1)
    raw = 1.0 / dist
    return _mismatch("inverse-distance weights", weights, raw / raw.max(), rtol=1e-12)


# ---------------------------------------------------------------------------
# eigenbasis


def _inv_sqrt_degree(n: int, edges: np.ndarray) -> np.ndarray:
    deg = np.bincount(edges.ravel(), minlength=n).astype(np.float64)
    return 1.0 / np.sqrt(deg)


def laplacian_apply(n: int, edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(I - D^-1/2 A D^-1/2) x for the binary adjacency of `edges`, per edge."""
    s = _inv_sqrt_degree(n, edges)[:, None]
    y = s * x
    ay = np.zeros_like(x)
    np.add.at(ay, edges[:, 0], y[edges[:, 1]])
    np.add.at(ay, edges[:, 1], y[edges[:, 0]])
    return x - s * ay


def dense_low_modes(n: int, edges: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest m eigenpairs of the dense normalized Laplacian."""
    a = np.zeros((n, n))
    a[edges[:, 0], edges[:, 1]] = 1.0
    a[edges[:, 1], edges[:, 0]] = 1.0
    s = _inv_sqrt_degree(n, edges)
    evals, evecs = np.linalg.eigh(np.eye(n) - s[:, None] * a * s[None, :])
    return evals[:m], evecs[:, :m]


def check_basis_dense(q: np.ndarray, sigma: np.ndarray, ref_evals: np.ndarray,
                      ref_vecs: np.ndarray) -> list[str]:
    """Eigenvalues equal the dense ones and the basis spans the same subspace."""
    out = _mismatch("eigenvalues vs dense eigh", sigma, ref_evals, rtol=0.0, atol=1e-9)
    overlap = np.linalg.svd(ref_vecs.T @ q, compute_uv=False)
    if overlap.min() < 1.0 - 1e-8:
        out.append(f"subspace differs from dense eigh: smallest cosine {overlap.min():.12f}")
    return out


def check_basis_residual(q: np.ndarray, sigma: np.ndarray, edges: np.ndarray,
                         tol: float) -> list[str]:
    """Residual, orthonormality and the null vector D^1/2 1, without a dense solve."""
    n, m = q.shape
    out = []
    res = np.linalg.norm(laplacian_apply(n, edges, q) - q * sigma, axis=0)
    bound = 10 * tol * np.maximum(1.0, np.abs(sigma))
    if np.any(res > bound):
        out.append(f"residual {res.max():.3e} above {bound[np.argmax(res - bound)]:.1e}")
    orth = np.abs(q.T @ q - np.eye(m)).max()
    if orth > 1e-10:
        out.append(f"orthonormality error {orth:.3e} above 1e-10")
    null = 1.0 / _inv_sqrt_degree(n, edges)
    cos = abs(null @ q[:, 0]) / np.linalg.norm(null)
    if abs(sigma[0]) > 1e-9 or 1.0 - cos > 1e-9:
        out.append(f"first mode is not D^1/2 1: sigma0 {sigma[0]:.3e}, 1 - cos {1 - cos:.3e}")
    if np.any(np.diff(sigma) < 0):
        out.append("eigenvalues are not ascending")
    return out


def have_scipy() -> bool:
    return importlib.util.find_spec("scipy") is not None


def scipy_low_eigenvalues(n: int, edges: np.ndarray, m: int) -> np.ndarray:
    """m smallest eigenvalues by shift-invert ARPACK (scipy is not a declared dependency)."""
    from scipy.sparse import coo_matrix, identity
    from scipy.sparse.linalg import eigsh

    s = _inv_sqrt_degree(n, edges)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    a = coo_matrix((s[rows] * s[cols], (rows, cols)), shape=(n, n)).tocsc()
    lap = identity(n, format="csc") - a
    evals = eigsh(lap, k=m, sigma=-1e-2, which="LM", tol=1e-13,
                  v0=np.ones(n), return_eigenvectors=False)
    return np.sort(evals)


# ---------------------------------------------------------------------------
# data


def closed_form_targets(coords: np.ndarray, inputs: np.ndarray, hole_center,
                        hole_radius: float) -> np.ndarray:
    """(N, n, 3) fields T, v, k from the generator's documented closed form.

    The input vector is [T_in, v_in, A sin(pi j / (P + 1)) for j = 1..P], so
    A is recovered from the first profile entry.
    """
    p = inputs.shape[1] - 2
    t_in, v_in = inputs[:, :1], inputs[:, 1:2]
    amp = inputs[:, 2:3] / np.sin(np.pi / (p + 1))
    dist = np.linalg.norm(coords - np.asarray(hole_center), axis=1) - hole_radius
    g = (1.0 - np.exp(-dist / 0.1))[None, :]
    bump = (np.sin(np.pi * coords[:, 0]) * np.sin(np.pi * coords[:, 1]))[None, :]
    t = t_in + amp * g * bump * 1e-3
    v = v_in * g
    k = 0.01 * v_in**2 * g * (1.0 - g)
    return np.stack([t, v, k], axis=2)


def mean_rel_l2_pct(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean over samples of the channel-mean relative L2 error, in percent."""
    per_channel = np.linalg.norm(pred - truth, axis=1) / np.linalg.norm(truth, axis=1)
    return float(100.0 * per_channel.mean(axis=1).mean())


# ---------------------------------------------------------------------------
# model


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(GELU_C * (x + 0.044715 * x**3)))


def _layer_norm(x, gain, bias, eps=1e-12):
    xc = x - x.mean(axis=-1, keepdims=True)
    return xc / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps) * gain + bias


def numpy_forward(p: dict, blocks: int, u: np.ndarray, coords: np.ndarray,
                  q: np.ndarray, edges: np.ndarray, weights: np.ndarray,
                  anchor_h: np.ndarray) -> np.ndarray:
    """One sample through the full operator (linear collaboration, both skips).

    `p` maps parameter names to arrays. The spectral branch uses the dense
    basis q; the spatial branch sums gated messages edge by edge with
    np.add.at over both orientations of every undirected edge.
    """
    n = coords.shape[0]
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    w_dir = np.concatenate([weights, weights])[:, None]
    a = _gelu(u @ p["embed.w1"] + p["embed.b1"][0]) @ p["embed.w2"] + p["embed.b2"][0]
    v = np.concatenate([coords, np.tile(a, (n, 1))], axis=1) @ p["lift.w"] + p["lift.b"]
    for t in range(blocks):
        coeff = q.T @ v
        mixed = np.stack([coeff[j] @ p[f"block{t}.kernel"][j] for j in range(q.shape[1])])
        spec = q @ mixed + v @ p[f"block{t}.spec_skip"]
        spec = _layer_norm(_gelu(spec), p[f"block{t}.ln_gain"], p[f"block{t}.ln_bias"])
        feat = np.concatenate([anchor_h[src], anchor_h[dst], w_dir @ p[f"block{t}.gate_w2"]],
                              axis=1)
        hidden = np.maximum(feat @ p[f"block{t}.gate_w1"], 0.0)
        gate = 1.0 / (1.0 + np.exp(-(hidden @ p[f"block{t}.gate_w3"])))
        msg = (v @ p[f"block{t}.spat_w"])[src] * gate
        agg = np.zeros((n, v.shape[1]))
        np.add.at(agg, dst, msg)
        spat = agg / (np.linalg.norm(agg, axis=1, keepdims=True) + 1e-12)
        y = np.concatenate([spat, spec], axis=1) @ p[f"block{t}.collab_w1"] \
            + p[f"block{t}.collab_b1"]
        v = y + v
    return _gelu(v @ p["down.w1"] + p["down.b1"]) @ p["down.w2"] + p["down.b2"]


def central_differences(loss, arrays: list[np.ndarray], picks, step: float = 1e-5):
    """d loss / d arrays[i].flat[j] for each (i, j) in picks, by central differences."""
    out = []
    for i, j in picks:
        orig = arrays[i].flat[j]
        arrays[i].flat[j] = orig + step
        plus = loss()
        arrays[i].flat[j] = orig - step
        minus = loss()
        arrays[i].flat[j] = orig
        out.append((plus - minus) / (2 * step))
    return np.array(out)


def gradient_off(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    """Entries further apart than 1e-5 relative plus 1e-6 of the largest probed gradient."""
    return np.abs(analytic - numeric) > 1e-5 * np.abs(numeric) + 1e-6 * np.abs(numeric).max()


def check_gradients(analytic: np.ndarray, numeric: np.ndarray) -> list[str]:
    off = gradient_off(analytic, numeric)
    if not off.any():
        return []
    k = int(np.argmax(np.abs(analytic - numeric) * off))
    return [f"analytic gradient vs central differences: {int(off.sum())} of {off.size} "
            f"entries off, worst {analytic[k]:.6e} vs {numeric[k]:.6e}"]


def check_close(label: str, got, want, rtol: float, atol: float = 0.0) -> list[str]:
    return _mismatch(label, got, want, rtol=rtol, atol=atol)
