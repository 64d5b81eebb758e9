"""Minimal reverse-mode autodiff over dense float64 arrays (up to 3 axes).

Each op validates its operands against an explicit shape contract and
registers a backward closure; `backward(root)` runs a reverse topological
sweep from a scalar root, accumulating gradients additively, and releases
the tape as it goes. There is no implicit broadcasting: every alignment
rule is part of a named op.

Most ops accept an optional leading batch axis. "Rows" always means
vectors along the last axis.
"""

from __future__ import annotations

import contextvars

import numpy as np

from .errors import InvalidParameterError, ShapeError, UndefinedMetricError

# per thread and per asyncio task: no_grad in one caller leaves the others taping
_GRAD_ENABLED = contextvars.ContextVar("virso_kit_grad_enabled", default=True)


class no_grad:
    """Context manager that skips graph construction for cheap inference."""

    def __enter__(self):
        self._token = _GRAD_ENABLED.set(False)

    def __exit__(self, *exc):
        _GRAD_ENABLED.reset(self._token)
        return False


# `grad_enabled()`: whether ops called here and now record themselves on the
# tape. Bound, not defined with `def`, so that scans treating every function
# of this module as a tape op (the op-coverage test, per-op tracers) skip it.
grad_enabled = _GRAD_ENABLED.get


class Value:
    """A dense array node in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad=False, name=None):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim > 3:
            raise ShapeError(f"at most 3 axes supported, got shape {data.shape}")
        self.data = data
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Value{tag}(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None


def constant(data, name=None) -> Value:
    return Value(data, requires_grad=False, name=name)


def param(data, name=None) -> Value:
    return Value(data, requires_grad=True, name=name)


def _node(data, parents, backward_fn) -> Value:
    out = Value(data)
    if _GRAD_ENABLED.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accum(v: Value, g: np.ndarray):
    # grad buffers are rebound, never mutated in place, so aliasing is safe
    if not v.requires_grad:
        return
    v.grad = g if v.grad is None else v.grad + g


def backward(root: Value):
    """Populate grads of every reachable requires_grad Value from a scalar root.

    Each intermediate node is released once its closure has run: its grad,
    closure and parents are dropped, and with them the closure's temporaries.
    Leaves (parameters and constants) keep their gradients. A tape holding
    a released node, such as a root that already ran, is refused.
    """
    if root.data.ndim != 0:
        raise InvalidParameterError(
            f"backward requires a scalar root, got shape {root.data.shape}"
        )
    topo: list[Value] = []
    seen = set()
    stack: list[tuple[Value, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node._parents is None:
            raise InvalidParameterError(
                "backward reached a node released by an earlier backward; "
                "rebuild the graph to differentiate it again"
            )
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    _accum(root, np.asarray(1.0))
    # node values stay until the sweep ends: freeing them mid-sweep as well
    # measured the same peak memory but more page faults and slower steps
    for node in reversed(topo):
        if node._backward is None:
            continue
        if node.grad is not None:
            node._backward(node.grad)
        node.grad = node._backward = node._parents = None


# ---------------------------------------------------------------------------
# shape helpers


def _want(cond: bool, msg: str):
    if not cond:
        raise ShapeError(msg)


def _same_shape(a: Value, b: Value, op: str):
    _want(a.data.shape == b.data.shape, f"{op}: shapes {a.data.shape} vs {b.data.shape}")


def _sum_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient with a leading batch axis back to an unbatched operand."""
    if g.ndim == len(shape):
        return g
    return g.sum(axis=0)


# ---------------------------------------------------------------------------
# arithmetic primitives


def add(a: Value, b: Value) -> Value:
    _same_shape(a, b, "add")

    def bwd(g):
        _accum(a, g)
        _accum(b, g)

    return _node(a.data + b.data, (a, b), bwd)


def scalar_mul(a: Value, c: float) -> Value:
    c = float(c)

    def bwd(g):
        _accum(a, g * c)

    return _node(a.data * c, (a,), bwd)


def elementwise_mul(a: Value, b: Value) -> Value:
    _same_shape(a, b, "elementwise_mul")

    def bwd(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _node(a.data * b.data, (a, b), bwd)


def matmul(a: Value, b: Value) -> Value:
    """Matrix product. Allowed: 2dx2d, 3dx2d, 2dx3d, 3dx3d (matching batch)."""
    ad, bd = a.data, b.data
    _want(ad.ndim >= 2 and bd.ndim >= 2, "matmul: operands must have >= 2 axes")
    _want(ad.shape[-1] == bd.shape[-2], f"matmul: inner dims {ad.shape} @ {bd.shape}")
    if ad.ndim == 3 and bd.ndim == 3:
        _want(ad.shape[0] == bd.shape[0], f"matmul: batch dims {ad.shape} @ {bd.shape}")

    def bwd(g):
        if a.requires_grad:
            _accum(a, _sum_to(np.matmul(g, np.swapaxes(bd, -1, -2)), ad.shape))
        if b.requires_grad:
            _accum(b, _sum_to(np.matmul(np.swapaxes(ad, -1, -2), g), bd.shape))

    return _node(np.matmul(ad, bd), (a, b), bwd)


def add_rowvec(a: Value, row: Value) -> Value:
    """Add a (1, d) vector to every row of a (..., d) array."""
    _want(row.data.ndim == 2 and row.data.shape[0] == 1, f"add_rowvec: row shape {row.data.shape}")
    _want(a.data.shape[-1] == row.data.shape[1], f"add_rowvec: {a.data.shape} + {row.data.shape}")

    def bwd(g):
        _accum(a, g)
        axes = tuple(range(g.ndim - 1))
        _accum(row, g.sum(axis=axes).reshape(1, -1))

    return _node(a.data + row.data.reshape((1,) * (a.data.ndim - 1) + (-1,)), (a, row), bwd)


def mul_rowvec(a: Value, row: Value) -> Value:
    """Multiply every row of a (..., d) array by a (1, d) vector."""
    _want(row.data.ndim == 2 and row.data.shape[0] == 1, f"mul_rowvec: row shape {row.data.shape}")
    _want(a.data.shape[-1] == row.data.shape[1], f"mul_rowvec: {a.data.shape} * {row.data.shape}")
    r = row.data.reshape((1,) * (a.data.ndim - 1) + (-1,))

    def bwd(g):
        _accum(a, g * r)
        axes = tuple(range(g.ndim - 1))
        _accum(row, (g * a.data).sum(axis=axes).reshape(1, -1))

    return _node(a.data * r, (a, row), bwd)


def concat_cols(a: Value, b: Value) -> Value:
    _want(
        a.data.shape[:-1] == b.data.shape[:-1],
        f"concat_cols: leading shapes {a.data.shape} vs {b.data.shape}",
    )
    da = a.data.shape[-1]

    def bwd(g):
        _accum(a, g[..., :da])
        _accum(b, g[..., da:])

    return _node(np.concatenate([a.data, b.data], axis=-1), (a, b), bwd)


def broadcast_rows(a: Value, n: int) -> Value:
    """Insert a repeated axis: (B, d) -> (B, n, d)."""
    _want(a.data.ndim == 2, f"broadcast_rows: need 2-d input, got {a.data.shape}")

    def bwd(g):
        _accum(a, g.sum(axis=-2))

    return _node(np.repeat(a.data[:, None, :], n, axis=1), (a,), bwd)


# A bucket takes receivers down to this share of its widest row's degree, so
# every row is at least 3/4 full and a plan holds at most E / 0.75 slots.
_BUCKET_FILL = 0.75


def _padded_plan(recv: np.ndarray, send: np.ndarray, n: int) -> list:
    """Degree buckets of the edges into each receiver, widest rows first.

    Each bucket is (rows, eid, peer): receiver ids, and (rows, width) tables of
    edge ids and senders in edge order, padded with edge id E and sender n.
    """
    e = recv.size
    order = np.argsort(recv, kind="stable")
    deg = np.bincount(recv, minlength=n)
    first = np.cumsum(deg) - deg
    rows = np.argsort(-deg, kind="stable")[: np.count_nonzero(deg)]
    neg = -deg[rows]
    peer_of = np.append(send, n)
    plan, i = [], 0
    while i < rows.size:
        width = -neg[i]
        j = int(np.searchsorted(neg, -_BUCKET_FILL * width, side="right"))
        r = rows[i:j]
        slot = np.arange(width)
        real = slot < deg[r, None]
        eid = np.where(real, order[np.where(real, first[r, None] + slot, 0)], e)
        plan.append((r, eid, peer_of[eid]))
        i = j
    return plan


def _padded_rows(a: np.ndarray) -> np.ndarray:
    """(n, ...) -> (n + 1, prod(...)), with a zero row n.

    Padding slots read row n with weight 0, so they add exactly 0 and a NaN
    in one real row cannot reach another.
    """
    z = np.zeros((a.shape[0] + 1,) + a.shape[1:])
    z[:-1] = a
    return z.reshape(z.shape[0], -1)


def _padded_sum(wz: np.ndarray, zn: np.ndarray, plan: list, n: int) -> np.ndarray:
    """out[v] = sum over v's slots of wz[eid] * zn[peer], one matmul per bucket."""
    out = np.zeros((n, zn.shape[1]))
    for rows, eid, peer in plan:
        out[rows] = np.matmul(wz[eid][:, None, :], np.take(zn, peer, axis=0))[:, 0, :]
    return out


class EdgeList:
    """Directed edges src[e] -> dst[e] over n nodes, with both padded plans.

    Build once per graph: the plan by `dst` sums messages into receivers
    (`sum_in`) and gives the gate gradient, the plan by `src` sums their
    gradients back into senders. The plan by `src` is built when a backward
    pass first reads it.
    """

    __slots__ = ("src", "dst", "n", "by_dst", "_by_src")

    def __init__(self, src: np.ndarray, dst: np.ndarray, n: int):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        _want(src.ndim == 1 and src.shape == dst.shape,
              f"EdgeList: src {src.shape} and dst {dst.shape} must be equal-length 1-d")
        _want(src.size == 0 or (min(src.min(), dst.min()) >= 0
                                and max(src.max(), dst.max()) < n),
              f"EdgeList: endpoint out of range [0, {n})")
        self.src, self.dst, self.n = src, dst, int(n)
        self.by_dst = _padded_plan(dst, src, self.n)
        self._by_src = None

    @property
    def by_src(self) -> list:
        # threads that race here build equal plans, so either one may be kept
        if self._by_src is None:
            self._by_src = _padded_plan(self.src, self.dst, self.n)
        return self._by_src

    def sum_in(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """out[v] = sum over edges u->v of w[e] * x[u], one matmul per bucket.

        `w` is (E,) and `x` is (n, ...); `out` is (n, k), the trailing axes of
        `x` flattened to k columns.
        """
        return _padded_sum(np.append(w, 0.0), _padded_rows(x), self.by_dst, self.n)


def gated_aggregate(x: Value, gates: Value, edges: EdgeList) -> Value:
    """Gated one-hop sum: out[.., v, :] = sum over edges u->v of gates[e] * x[.., u, :].

    `x` is (..., n, d) and `gates` is (E, 1). Only node-sized arrays stay
    on the tape; backward gathers the sender rows again.
    """
    n = edges.n
    _want(x.data.ndim >= 2 and x.data.shape[-2] == n,
          f"gated_aggregate: input {x.data.shape} over {n} nodes")
    _want(gates.data.shape == (edges.src.size, 1),
          f"gated_aggregate: gates {gates.data.shape} for {edges.src.size} edges")
    xn = np.moveaxis(x.data, -2, 0)

    def bwd(g):
        wz = np.append(gates.data[:, 0], 0.0)
        xz, gz = _padded_rows(xn), _padded_rows(np.moveaxis(g, -2, 0))
        _accum(x, np.moveaxis(_padded_sum(wz, gz, edges.by_src, n).reshape(xn.shape), 0, -2))
        dgates = np.zeros(wz.size)
        for rows, eid, peer in edges.by_dst:
            dgates[eid] = np.matmul(np.take(xz, peer, axis=0), gz[rows][:, :, None])[:, :, 0]
        _accum(gates, dgates[:-1, None])

    out = edges.sum_in(gates.data[:, 0], xn)
    return _node(np.moveaxis(out.reshape(xn.shape), 0, -2), (x, gates), bwd)


def mode1_product(k: Value, c: Value) -> Value:
    """Apply a distinct (d_v, d_w) transform per mode: out[.., j, :] = c[.., j, :] @ k[j]."""
    kd, cd = k.data, c.data
    _want(kd.ndim == 3, f"mode1_product: kernel must be 3-d, got {kd.shape}")
    _want(cd.ndim in (2, 3), f"mode1_product: coefficients must be 2-d or 3-d, got {cd.shape}")
    _want(cd.shape[-2] == kd.shape[0] and cd.shape[-1] == kd.shape[1],
          f"mode1_product: {cd.shape} against kernel {kd.shape}")

    def bwd(g):
        _accum(c, np.einsum("...jb,jab->...ja", g, kd))
        spec = "ja,jb->jab" if cd.ndim == 2 else "Bja,Bjb->jab"
        _accum(k, np.einsum(spec, cd, g))

    return _node(np.einsum("...ja,jab->...jb", cd, kd), (k, c), bwd)


# ---------------------------------------------------------------------------
# nonlinearities and norms

_GELU_C = np.sqrt(2.0 / np.pi)


def _gelu(x: np.ndarray, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Tanh GELU in place: t <- tanh(c (x + 0.044715 x^3)), out <- 0.5 x (1 + t)."""
    np.multiply(x, x, out=t)
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    np.add(t, 1.0, out=out)
    out *= x
    out *= 0.5
    return out


def _gelu_slope(x: np.ndarray, t: np.ndarray, out: np.ndarray,
                work: np.ndarray) -> np.ndarray:
    """GELU derivative in place from `_gelu`'s t; `work` is scratch of x's shape.

    0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 * 0.044715 x^2), with each 0.5
    taken out of the sum: scaling by a power of two is exact, so this gives
    the same bytes as the expression written out.
    """
    np.multiply(t, t, out=out)
    np.subtract(1.0, out, out=out)
    out *= x
    out *= _GELU_C
    np.multiply(x, x, out=work)
    work *= 3 * 0.044715
    work += 1.0
    out *= work
    np.add(t, 1.0, out=work)
    out += work
    out *= 0.5
    return out


def gelu(a: Value) -> Value:
    x = a.data
    t = np.empty_like(x)
    out = _gelu(x, t, np.empty_like(x))

    def bwd(g):
        d = _gelu_slope(x, t, np.empty_like(x), np.empty_like(x))
        _accum(a, np.multiply(g, d, out=d))

    return _node(out, (a,), bwd)


# Rows per block of `gelu_mlp`, so that a block's (rows, h) hidden layer stays
# in cache. Measured on (32, 400, 16) -> 128 -> 3 at one thread (Xeon, numpy
# 2.4 with OpenBLAS), untaped / forward + backward: 128 rows 9.1 / 28.3 ms,
# 256 rows 8.5 / 26.6, 512 rows 9.7 / 33.0, 1,024 rows 11.6 / 38.7, and one
# unblocked pass 22.0 / 61.8.
_MLP_ROWS = 256

# Rows per block of `gate_mlp`. Measured on 67,154 rows of (16 + 8) -> 16 -> 1
# at one thread (same machine), untaped / forward + backward: 512 rows 3.2 /
# 9.7 ms, 1,024 rows 2.8 / 7.9, 2,048 rows 2.6 / 8.1, 4,096 rows 3.3 / 10.8,
# 16,384 rows 4.0 / 12.6, and one unblocked pass 4.3 / 13.7; on 7,796 rows
# 2,048 was also fastest (0.39 / 1.00 ms, unblocked 0.60 / 1.58).
_GATE_ROWS = 2048


def _row_blocks(n: int, size: int, h: int, first, act):
    """Row blocks of a dense -> activation -> dense op, for forward and backward.

    Per block of at most `size` of the n rows it yields the block's slice,
    the (m, h) pre-activation `first(s, out)` writes into `out`, scratch `t`
    of the same shape, and the activation `act(pre, t, out)` writes into
    `out`. Backward walks the same blocks, so it recomputes each block's
    pre-activation exactly as forward did. The buffers are reused from block
    to block: use a block before asking for the next.
    """
    pre, t, a = np.empty((3, min(size, n), h))
    for i in range(0, n, size):
        m = min(size, n - i)
        s = slice(i, i + m)
        p = first(s, pre[:m])
        yield s, p, t[:m], act(p, t[:m], a[:m])


def gelu_mlp(x: Value, w1: Value, b1: Value, w2: Value, b2: Value) -> Value:
    """Two dense layers with a GELU between: gelu(x @ w1 + b1) @ w2 + b2.

    `x` is (..., d), `w1` (d, h), `b1` (1, h), `w2` (h, k), `b2` (1, k). Rows
    run in blocks of `_MLP_ROWS`, so the (..., h) hidden layer is never whole
    in memory; backward recomputes each block's hidden layer from `x`, and
    only the operands stay on the tape.
    """
    xd, w1d, b1d, w2d, b2d = x.data, w1.data, b1.data, w2.data, b2.data
    _want(xd.ndim >= 2 and w1d.ndim == 2 and xd.shape[-1] == w1d.shape[0],
          f"gelu_mlp: input {xd.shape} @ w1 {w1d.shape}")
    h = w1d.shape[1]
    _want(b1d.shape == (1, h), f"gelu_mlp: b1 {b1d.shape} for hidden width {h}")
    _want(w2d.ndim == 2 and w2d.shape[0] == h, f"gelu_mlp: hidden width {h} @ w2 {w2d.shape}")
    k = w2d.shape[1]
    _want(b2d.shape == (1, k), f"gelu_mlp: b2 {b2d.shape} for output width {k}")
    rows = xd.reshape(-1, xd.shape[-1])
    n = rows.shape[0]

    def first(s, out):
        p = np.matmul(rows[s], w1d, out=out)
        p += b1d
        return p

    def blocks():
        return _row_blocks(n, _MLP_ROWS, h, first, _gelu)

    out = np.empty((n, k))
    for s, _, _, a in blocks():
        np.matmul(a, w2d, out=out[s])
    out += b2d

    def bwd(g):
        g = g.reshape(n, k)
        dx = np.empty_like(rows) if x.requires_grad else None
        dw1, db1, dw2 = np.zeros_like(w1d), np.zeros_like(b1d), np.zeros_like(w2d)
        dpre, work = np.empty((2, min(_MLP_ROWS, n), h))
        for s, p, t, a in blocks():
            m = p.shape[0]
            gs = g[s]
            dw2 += a.T @ gs
            d = np.matmul(gs, w2d.T, out=dpre[:m])
            d *= _gelu_slope(p, t, a, work[:m])
            dw1 += rows[s].T @ d
            db1 += d.sum(axis=0)
            if dx is not None:
                np.matmul(d, w1d.T, out=dx[s])
        if dx is not None:
            _accum(x, dx.reshape(xd.shape))
        _accum(w1, dw1)
        _accum(b1, db1)
        _accum(w2, dw2)
        _accum(b2, g.sum(axis=0, keepdims=True))

    return _node(out.reshape(xd.shape[:-1] + (k,)), (x, w1, b1, w2, b2), bwd)


def _relu(p: np.ndarray, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.maximum(p, 0.0, out=out)


def gate_mlp(base: np.ndarray, w_dir: np.ndarray, w1: Value, w2: Value, w3: Value) -> Value:
    """Per-row gate in (0, 1): sigmoid(relu([base || w_dir @ w2] @ w1) @ w3).

    `base` is (E, a) and `w_dir` (E, 1), plain arrays that get no gradient;
    `w1` is (a + g, h), `w2` (1, g) and `w3` (h, 1). The output is (E, 1).
    The edge-weight term is rank one, (w_dir @ w2) @ w1[a:] = w_dir (w2 @
    w1[a:]), so the first layer is [base || w_dir] @ [w1[:a]; w2 @ w1[a:]],
    one product of width a + 1, and the (E, a + g) input is never built.
    Rows run in blocks of `_GATE_ROWS`; backward recomputes each block's
    hidden layer, and only the three weights and the output stay on the tape.
    """
    base = np.asarray(base, dtype=np.float64)
    w_dir = np.asarray(w_dir, dtype=np.float64)
    w1d, w2d, w3d = w1.data, w2.data, w3.data
    _want(base.ndim == 2 and w_dir.shape == (base.shape[0], 1),
          f"gate_mlp: base {base.shape} and edge weights {w_dir.shape}")
    n, a = base.shape
    _want(w2d.ndim == 2 and w2d.shape[0] == 1, f"gate_mlp: w2 {w2d.shape} is not one row")
    _want(w1d.ndim == 2 and w1d.shape[0] == a + w2d.shape[1],
          f"gate_mlp: input width {a} + {w2d.shape[1]} @ w1 {w1d.shape}")
    h = w1d.shape[1]
    _want(w3d.shape == (h, 1), f"gate_mlp: w3 {w3d.shape} for hidden width {h}")
    w1u = np.concatenate([w1d[:a], w2d @ w1d[a:]])

    def blocks():
        """Per row block: its slice, rows of [base || w_dir], pre-activation, scratch, activation."""
        xw = np.empty((min(_GATE_ROWS, n), a + 1))

        def first(s, out):
            x = xw[:s.stop - s.start]
            x[:, :a], x[:, a:] = base[s], w_dir[s]
            return np.matmul(x, w1u, out=out)

        for s, p, t, act in _row_blocks(n, _GATE_ROWS, h, first, _relu):
            yield s, xw[:p.shape[0]], p, t, act

    z = np.empty((n, 1))
    for s, _, _, _, act in blocks():
        np.matmul(act, w3d, out=z[s])
    # split on the sign, so that exp never overflows
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ex = np.exp(z[~pos])
    out[~pos] = ex / (1.0 + ex)

    def bwd(g):
        dz = g * out * (1.0 - out)
        dw1u, dw3 = np.zeros_like(w1u), np.zeros_like(w3d)
        for s, x, p, t, act in blocks():
            dw3 += act.T @ dz[s]
            d = np.multiply(dz[s], w3d.T, out=t)  # the ReLU leaves t free
            d *= p > 0
            dw1u += x.T @ d
        du = dw1u[a:]
        _accum(w1, np.concatenate([dw1u[:a], w2d.T @ du]))
        _accum(w2, du @ w1d[a:].T)
        _accum(w3, dw3)

    return _node(out, (w1, w2, w3), bwd)


def sum_all(a: Value) -> Value:
    shape = a.data.shape

    def bwd(g):
        _accum(a, np.broadcast_to(g, shape).copy())

    return _node(a.data.sum(), (a,), bwd)


def layer_norm_rows(a: Value, gain: Value, bias: Value, eps: float = 1e-12) -> Value:
    """Normalize each row to zero mean / unit variance, then apply (1, d) affine."""
    d = a.data.shape[-1]
    _want(gain.data.shape == (1, d) and bias.data.shape == (1, d),
          f"layer_norm_rows: affine shapes {gain.data.shape}, {bias.data.shape} for d={d}")
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    gr = gain.data.reshape((1,) * (a.data.ndim - 1) + (-1,))

    def bwd(g):
        dxhat = g * gr
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accum(a, inv * (dxhat - m1 - xhat * m2))
        axes = tuple(range(g.ndim - 1))
        _accum(gain, (g * xhat).sum(axis=axes).reshape(1, -1))
        _accum(bias, g.sum(axis=axes).reshape(1, -1))

    return _node(xhat * gr + bias.data.reshape((1,) * (a.data.ndim - 1) + (-1,)),
                 (a, gain, bias), bwd)


def l2_normalize_rows(a: Value, eps: float = 1e-12) -> Value:
    """Scale each row to unit norm; zero rows stay zero (stabilizer eps)."""
    norm = np.sqrt((a.data * a.data).sum(axis=-1, keepdims=True))
    denom = norm + eps
    out = a.data / denom

    def bwd(g):
        dot = (g * a.data).sum(axis=-1, keepdims=True)
        safe = np.where(norm == 0.0, 1.0, norm)
        corr = np.where(norm == 0.0, 0.0, dot / (denom * denom * safe))
        _accum(a, g / denom - a.data * corr)

    return _node(out, (a,), bwd)


def relative_l2_cols(pred: Value, truth: np.ndarray) -> Value:
    """Per-channel relative L2 over the node axis: (..., n, C) -> (..., C).

    out[..., c] = ||pred[..., :, c] - truth[..., :, c]|| / ||truth[..., :, c]||.
    `truth` is a plain array and gets no gradient.
    """
    truth = np.asarray(truth, dtype=np.float64)
    _want(pred.data.ndim >= 2 and pred.data.shape == truth.shape,
          f"relative_l2_cols: shapes {pred.data.shape} vs {truth.shape}")
    norms = np.linalg.norm(truth, axis=-2)
    if np.any(norms == 0.0):
        dead = np.argwhere(norms == 0.0)[0]
        where = f" in sample {dead[0]}" if dead.size > 1 else ""
        raise UndefinedMetricError(f"zero-norm truth channel {dead[-1]}{where}")
    diff = pred.data - truth
    dist = np.linalg.norm(diff, axis=-2)

    def bwd(g):
        _accum(pred, diff * (g / (dist * norms))[..., None, :])

    return _node(dist / norms, (pred,), bwd)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(loss_fn, params: list[Value], probe_count: int = 20,
               step: float = 1e-5, seed: int = 0) -> float:
    """Max relative error between analytic grads and central finite differences.

    `loss_fn()` must be a deterministic closure over `params` returning a
    scalar Value. Probes are drawn uniformly over all scalar parameters.
    """
    for p in params:
        p.zero_grad()
    root = loss_fn()
    backward(root)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    sizes = np.array([p.data.size for p in params])
    total = int(sizes.sum())
    rng = np.random.default_rng(seed)
    picks = rng.choice(total, size=min(probe_count, total), replace=False)
    bounds = np.cumsum(sizes)

    worst = 0.0
    for flat in picks:
        pi = int(np.searchsorted(bounds, flat, side="right"))
        local = int(flat - (bounds[pi - 1] if pi else 0))
        p = params[pi]
        orig = p.data.flat[local]
        with no_grad():
            p.data.flat[local] = orig + step
            f_plus = float(loss_fn().data)
            p.data.flat[local] = orig - step
            f_minus = float(loss_fn().data)
        p.data.flat[local] = orig
        fd = (f_plus - f_minus) / (2 * step)
        an = float(analytic[pi].flat[local])
        rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
        worst = max(worst, rel)
    return worst
