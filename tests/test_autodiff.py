import ast
import inspect
import sys
import threading

import numpy as np
import pytest

from virso_kit import autodiff as ad
from virso_kit.autodiff import Value, backward, constant, grad_check, no_grad, param
from virso_kit.errors import InvalidParameterError, ShapeError, UndefinedMetricError
from virso_kit.optim import AdamState, adam_step


def fd_grad(fn, x: np.ndarray, step=1e-5):
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x)
    flat = x.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = fn()
        flat[i] = orig - step
        fm = fn()
        flat[i] = orig
        g.ravel()[i] = (fp - fm) / (2 * step)
    return g


def check_op(build, arrays, seed=0, tol=1e-6):
    """Compare analytic grads of scalar(build(params)) against finite differences."""
    rng = np.random.default_rng(seed)
    params = [param(a.copy(), name=f"p{i}") for i, a in enumerate(arrays)]
    out = build(*params)
    weight = constant(rng.standard_normal(out.data.shape))
    loss = ad.sum_all(ad.elementwise_mul(out, weight))
    backward(loss)

    for p in params:
        def scalar():
            with no_grad():
                return float(
                    ad.sum_all(ad.elementwise_mul(build(*params), weight)).data
                )
        fd = fd_grad(scalar, p.data)
        an = p.grad if p.grad is not None else np.zeros_like(p.data)
        denom = np.maximum(np.maximum(np.abs(an), np.abs(fd)), 1e-6)
        rel = np.max(np.abs(an - fd) / denom)
        assert rel < tol, f"{p.name}: max rel err {rel}"


# ---------------------------------------------------------------------------
# fixed points and exact identities


def test_activation_fixed_points():
    assert float(ad.gelu(constant(0.0)).data) == 0.0
    rng = np.random.default_rng(0)
    base, w_dir, w1, w2, _ = _gate_operands(rng, 7)
    gates = ad.gate_mlp(base, w_dir, constant(w1), constant(w2), constant(np.zeros((5, 1))))
    assert gates.data.shape == (7, 1) and np.all(gates.data == 0.5)


def test_mode1_identity_kernel():
    rng = np.random.default_rng(0)
    c = rng.standard_normal((6, 4))
    k = np.repeat(np.eye(4)[None], 6, axis=0)
    out = ad.mode1_product(constant(k), constant(c))
    assert np.array_equal(out.data, c)


def test_gated_aggregate_adjointness_exact():
    # integer-valued data and gates keep every product and sum exact in
    # float64, so <A x, y> == <x, A^T y> must hold bit-for-bit
    rng = np.random.default_rng(1)
    n, e, d = 9, 14, 5
    edges = ad.EdgeList(rng.integers(0, n, size=e), rng.integers(0, n, size=e), n)
    gates = param(rng.integers(-3, 4, size=(e, 1)).astype(float))
    x = param(rng.integers(-8, 9, size=(n, d)).astype(float))
    y = rng.integers(-8, 9, size=(n, d)).astype(float)
    out = ad.gated_aggregate(x, gates, edges)
    backward(ad.sum_all(ad.elementwise_mul(out, constant(y))))
    assert float((out.data * y).sum()) == float((x.data * x.grad).sum())


def test_layer_norm_row_moments():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((7, 16)) * 3 + 1
    out = ad.layer_norm_rows(
        param(x), param(np.ones((1, 16))), param(np.zeros((1, 16)))
    )
    mu = out.data.mean(axis=-1)
    var = out.data.var(axis=-1)
    assert np.max(np.abs(mu)) < 1e-10
    assert np.max(np.abs(var - 1)) < 1e-10


def test_l2_normalize_row_norms_one_or_zero():
    x = np.array([[3.0, 4.0], [0.0, 0.0], [1e-3, 0.0]])
    out = ad.l2_normalize_rows(constant(x))
    norms = np.linalg.norm(out.data, axis=-1)
    assert abs(norms[0] - 1) < 1e-10
    assert norms[1] == 0.0
    assert abs(norms[2] - 1) < 1e-8


# ---------------------------------------------------------------------------
# finite-difference checks, one per primitive (batched and unbatched)


def test_fd_add_sub_mul_scalar():
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
    check_op(lambda x, y: ad.add(x, y), [a, b])
    check_op(lambda x, y: ad.elementwise_mul(x, y), [a, b])
    check_op(lambda x: ad.scalar_mul(x, -1.7), [a])


def test_fd_matmul_all_signatures():
    rng = np.random.default_rng(4)
    a2, b2 = rng.standard_normal((5, 4)), rng.standard_normal((4, 3))
    a3 = rng.standard_normal((2, 5, 4))
    b3 = rng.standard_normal((2, 4, 3))
    check_op(lambda x, y: ad.matmul(x, y), [a2, b2])
    check_op(lambda x, y: ad.matmul(x, y), [a3, b2])
    check_op(lambda x, y: ad.matmul(x, y), [a2, b3])
    check_op(lambda x, y: ad.matmul(x, y), [a3, b3])


def test_fd_row_ops():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 5, 4))
    row = rng.standard_normal((1, 4))
    check_op(lambda x, r: ad.add_rowvec(x, r), [a, row])
    check_op(lambda x, r: ad.mul_rowvec(x, r), [a, row])
    check_op(lambda x: ad.broadcast_rows(x, 6), [rng.standard_normal((3, 4))])


def test_fd_concat_slice():
    rng = np.random.default_rng(6)
    a, b = rng.standard_normal((2, 4, 3)), rng.standard_normal((2, 4, 2))
    check_op(lambda x, y: ad.concat_cols(x, y), [a, b])


def test_fd_gated_aggregate():
    rng = np.random.default_rng(7)
    n, e = 6, 9
    dst = rng.integers(0, n - 1, size=e)  # node n - 1 has no in-edges
    edges = ad.EdgeList(rng.integers(0, n, size=e), dst, n)
    gates = rng.standard_normal((e, 1))
    for x in (rng.standard_normal((n, 3)), rng.standard_normal((2, n, 3))):
        check_op(lambda xx, gg: ad.gated_aggregate(xx, gg, edges), [x, gates])
        assert not ad.gated_aggregate(constant(x), constant(gates), edges).data[..., n - 1, :].any()


def test_gated_aggregate_rejects_bad_shapes():
    edges = ad.EdgeList(np.array([0, 1, 2]), np.array([1, 2, 0]), 3)
    x = constant(np.ones((2, 3, 4)))
    with pytest.raises(ShapeError, match="gates"):
        ad.gated_aggregate(x, constant(np.ones((2, 1))), edges)
    with pytest.raises(ShapeError, match="nodes"):
        ad.gated_aggregate(constant(np.ones((2, 4, 4))), constant(np.ones((3, 1))), edges)
    for src, dst in (([0, 3], [1, 2]), ([0, 1], [-1, 2])):
        with pytest.raises(ShapeError, match="out of range"):
            ad.EdgeList(np.array(src), np.array(dst), 3)


def _bucketed_graph(rng, n=60):
    """In-degrees from 0 to 40, a duplicate (u, v) pair and a self-loop."""
    deg = rng.integers(1, 41, size=n)
    deg[0], deg[1] = 0, 40
    dst = np.repeat(np.arange(n), deg)
    src = rng.integers(0, n, size=dst.size)
    src = np.concatenate([src, src[:1], [5]])
    dst = np.concatenate([dst, dst[:1], [5]])
    perm = rng.permutation(src.size)
    return src[perm], dst[perm]


def test_gated_aggregate_matches_per_edge_loops_across_buckets():
    rng = np.random.default_rng(16)
    n, d = 60, 4
    src, dst = _bucketed_graph(rng, n)
    edges = ad.EdgeList(src, dst, n)
    e = src.size
    padded = [eid for _, eid, _ in edges.by_dst if (eid == e).any()]
    assert len(padded) >= 3
    gates = rng.random((e, 1))
    for shape in ((n, d), (1, n, d), (3, n, d)):
        x, g = rng.standard_normal(shape), rng.standard_normal(shape)
        out_ref, dx_ref, dg_ref = np.zeros(shape), np.zeros(shape), np.zeros((e, 1))
        for k in range(e):
            u, v = src[k], dst[k]
            np.add.at(out_ref, (..., v, slice(None)), gates[k, 0] * x[..., u, :])
            np.add.at(dx_ref, (..., u, slice(None)), gates[k, 0] * g[..., v, :])
            dg_ref[k, 0] = np.sum(g[..., v, :] * x[..., u, :])
        xp, gp = param(x), param(gates)
        out = ad.gated_aggregate(xp, gp, edges)
        backward(ad.sum_all(ad.elementwise_mul(out, constant(g))))
        assert np.allclose(out.data, out_ref, rtol=0, atol=1e-12)
        assert np.allclose(xp.grad, dx_ref, rtol=0, atol=1e-12)
        assert np.allclose(gp.grad, dg_ref, rtol=0, atol=1e-12)
        assert gp.grad.shape == (e, 1) and not out.data[..., 0, :].any()
        if len(shape) == 3:
            for b in range(shape[0]):
                xb = param(x[b])
                row = ad.gated_aggregate(xb, constant(gates), edges)
                backward(ad.sum_all(ad.elementwise_mul(row, constant(g[b]))))
                assert np.allclose(row.data, out.data[b], rtol=0, atol=1e-13)
                assert np.allclose(xb.grad, xp.grad[b], rtol=0, atol=1e-13)


def test_gated_aggregate_plans_stay_within_padding_bound():
    src, dst = _bucketed_graph(np.random.default_rng(17))
    edges = ad.EdgeList(src, dst, 60)
    for plan in (edges.by_dst, edges.by_src):
        slots = sum(eid.size for _, eid, _ in plan)
        assert src.size <= slots <= src.size / 0.75
        assert sorted(np.concatenate([eid[eid < src.size] for _, eid, _ in plan])) \
            == list(range(src.size))


def test_sender_plan_is_built_by_the_first_backward():
    src, dst = _bucketed_graph(np.random.default_rng(18))
    edges = ad.EdgeList(src, dst, 60)
    x, gates = param(np.ones((60, 2))), param(np.ones((src.size, 1)))
    out = ad.gated_aggregate(x, gates, edges)
    assert edges._by_src is None  # a forward reads only the plan by dst
    backward(ad.sum_all(out))
    assert edges._by_src is not None
    for (r, e, p), (r2, e2, p2) in zip(edges.by_src, ad._padded_plan(src, dst, 60), strict=True):
        assert np.array_equal(r, r2) and np.array_equal(e, e2) and np.array_equal(p, p2)


def test_gated_aggregate_without_edges():
    empty = np.zeros(0, dtype=np.int64)
    edges = ad.EdgeList(empty, empty, 5)
    x, gates = param(np.ones((2, 5, 3))), param(np.zeros((0, 1)))
    out = ad.gated_aggregate(x, gates, edges)
    backward(ad.sum_all(ad.elementwise_mul(out, constant(np.ones((2, 5, 3))))))
    assert out.data.shape == (2, 5, 3) and not out.data.any()
    assert not x.grad.any()
    assert gates.grad.shape == (0, 1)


def test_fd_mode1_product():
    rng = np.random.default_rng(8)
    k = rng.standard_normal((5, 4, 4))
    c2 = rng.standard_normal((5, 4))
    c3 = rng.standard_normal((3, 5, 4))
    check_op(lambda kk, cc: ad.mode1_product(kk, cc), [k, c2])
    check_op(lambda kk, cc: ad.mode1_product(kk, cc), [k, c3])


def test_fd_activations_and_sqrt():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((5, 4))
    check_op(lambda x: ad.gelu(x), [a])


def test_gelu_is_byte_identical_to_the_written_out_expressions():
    rng = np.random.default_rng(40)
    x = rng.uniform(-20.0, 20.0, size=(6, 50, 7))
    g = rng.standard_normal(x.shape)
    c = np.sqrt(2.0 / np.pi)
    x2 = x * x
    t = np.tanh(c * (x + 0.044715 * (x2 * x)))
    value = 0.5 * x * (1 + t)
    grad = g * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * c * (1 + 3 * 0.044715 * x2))
    a = param(x.copy())
    out = ad.gelu(a)
    backward(ad.sum_all(ad.elementwise_mul(out, constant(g))))
    assert np.array_equal(out.data, value)
    assert np.array_equal(a.grad, grad)


def _mlp_operands(rng, shape, hidden, k):
    d = shape[-1]
    return [rng.standard_normal(shape), rng.standard_normal((d, hidden)) / np.sqrt(d),
            rng.standard_normal((1, hidden)), rng.standard_normal((hidden, k)) / np.sqrt(hidden),
            rng.standard_normal((1, k))]


def test_fd_gelu_mlp():
    rng = np.random.default_rng(41)
    for shape in ((4, 3), (2, 5, 3)):
        check_op(lambda x, w1, b1, w2, b2: ad.gelu_mlp(x, w1, b1, w2, b2),
                 _mlp_operands(rng, shape, 6, 2))


def _composed_mlp(x, w1, b1, w2, b2):
    hidden = ad.gelu(ad.add_rowvec(ad.matmul(x, w1), b1))
    return ad.add_rowvec(ad.matmul(hidden, w2), b2)


@pytest.mark.parametrize("shape", [(7, 5), (3, 301, 4)])
def test_gelu_mlp_matches_the_composed_chain(shape):
    rng = np.random.default_rng(42)
    arrays = _mlp_operands(rng, shape, 9, 3)
    if len(shape) == 3:  # several row blocks, the last one partial
        rows = shape[0] * shape[1]
        assert rows > 2 * ad._MLP_ROWS and rows % ad._MLP_ROWS
    weight = rng.standard_normal(shape[:-1] + (3,))
    results = []
    for op in (ad.gelu_mlp, _composed_mlp):
        params = [param(a.copy()) for a in arrays]
        out = op(*params)
        backward(ad.sum_all(ad.elementwise_mul(out, constant(weight))))
        results.append([out.data] + [p.grad for p in params])
    (out, *grads), (ref, *ref_grads) = results
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
    for g, r in zip(grads, ref_grads):
        assert g.shape == r.shape
        assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r))


def test_gelu_mlp_rejects_bad_shapes():
    rng = np.random.default_rng(43)
    x, w1, b1, w2, b2 = map(constant, _mlp_operands(rng, (4, 3), 6, 2))
    bad = [
        (constant(np.ones(3)), w1, b1, w2, b2),          # input without a row axis
        (x, constant(np.ones((4, 6))), b1, w2, b2),      # w1 rows != input width
        (x, w1, constant(np.ones((6,))), w2, b2),        # b1 not (1, h)
        (x, w1, b1, constant(np.ones((5, 2))), b2),      # w2 rows != hidden width
        (x, w1, b1, w2, constant(np.ones((2, 2)))),      # b2 not (1, k)
    ]
    for operands in bad:
        with pytest.raises(ShapeError, match="gelu_mlp"):
            ad.gelu_mlp(*operands)


def _gate_operands(rng, e, a=4, g=3, h=5):
    return [rng.standard_normal((e, a)), rng.random((e, 1)),
            rng.standard_normal((a + g, h)) / np.sqrt(a + g), rng.standard_normal((1, g)),
            rng.standard_normal((h, 1)) / np.sqrt(h)]


def test_fd_gate_mlp():
    base, w_dir, *weights = _gate_operands(np.random.default_rng(44), 9)
    check_op(lambda w1, w2, w3: ad.gate_mlp(base, w_dir, w1, w2, w3), weights)


def _composed_gates(base, w_dir, w1, w2, w3, g):
    """The gate chain written out in numpy: output and (dw1, dw2, dw3) for weight g."""
    feat = np.concatenate([base, w_dir @ w2], axis=1)
    pre = feat @ w1
    hidden = np.maximum(pre, 0.0)
    gates = 1.0 / (1.0 + np.exp(-(hidden @ w3)))
    dz = g * gates * (1.0 - gates)
    dpre = (dz @ w3.T) * (pre > 0)
    dfeat = dpre @ w1.T
    return gates, (feat.T @ dpre, w_dir.T @ dfeat[:, base.shape[1]:], hidden.T @ dz)


def test_gate_mlp_matches_the_composed_chain():
    rng = np.random.default_rng(45)
    e = 2 * ad._GATE_ROWS + 123  # several row blocks, the last one partial
    base, w_dir, *weights = _gate_operands(rng, e, a=16, g=8, h=16)
    g = rng.standard_normal((e, 1))
    ref, ref_grads = _composed_gates(base, w_dir, *weights, g)
    params = [param(w.copy()) for w in weights]
    out = ad.gate_mlp(base, w_dir, *params)
    backward(ad.sum_all(ad.elementwise_mul(out, constant(g))))
    assert out.data.shape == (e, 1)
    assert np.max(np.abs(out.data - ref)) <= 1e-13
    for p, r in zip(params, ref_grads, strict=True):
        assert p.grad.shape == r.shape
        assert np.max(np.abs(p.grad - r)) <= 1e-12 * np.max(np.abs(r))


def test_gate_mlp_saturates_without_overflow():
    base, w_dir, w1, w2, _ = _gate_operands(np.random.default_rng(46), 6)
    with np.errstate(over="raise"):
        for sign in (1.0, -1.0):
            out = ad.gate_mlp(base, w_dir, constant(w1), constant(w2),
                              constant(np.full((5, 1), sign * 1e6)))
            assert np.all((out.data >= 0.0) & (out.data <= 1.0))


def test_gate_mlp_rejects_bad_shapes():
    base, w_dir, w1, w2, w3 = _gate_operands(np.random.default_rng(47), 6)
    w1, w2, w3 = map(constant, (w1, w2, w3))
    bad = [
        (base[0], w_dir, w1, w2, w3),                        # base without a row axis
        (base, w_dir[:5], w1, w2, w3),                       # one edge weight short
        (base, w_dir[:, 0], w1, w2, w3),                     # edge weights not (E, 1)
        (base, w_dir, constant(np.ones((6, 5))), w2, w3),    # w1 rows != a + g
        (base, w_dir, w1, constant(np.ones((2, 3))), w3),    # w2 not one row
        (base, w_dir, w1, w2, constant(np.ones((4, 1)))),    # w3 rows != hidden width
        (base, w_dir, w1, w2, constant(np.ones((5, 2)))),    # more than one gate per row
    ]
    for operands in bad:
        with pytest.raises(ShapeError, match="gate_mlp"):
            ad.gate_mlp(*operands)


def test_gate_mlp_without_rows():
    base, w_dir, *weights = _gate_operands(np.random.default_rng(48), 0)
    params = [param(w) for w in weights]
    out = ad.gate_mlp(base, w_dir, *params)
    backward(ad.sum_all(out))
    assert out.data.shape == (0, 1)
    assert all(p.grad.shape == p.data.shape and not p.grad.any() for p in params)


def test_constant_operands_get_no_gradient_and_the_rest_is_unchanged():
    rng = np.random.default_rng(49)
    a, b = rng.standard_normal((2, 5, 4)), rng.standard_normal((4, 3))
    g = rng.standard_normal((2, 5, 3))
    for const in (0, 1):
        both = [param(a), param(b)]
        backward(ad.sum_all(ad.elementwise_mul(ad.matmul(*both), constant(g))))
        one = [param(a), param(b)]
        one[const] = constant(one[const].data)
        backward(ad.sum_all(ad.elementwise_mul(ad.matmul(*one), constant(g))))
        assert one[const].grad is None
        assert one[1 - const].grad.tobytes() == both[1 - const].grad.tobytes()
    operands = _mlp_operands(rng, (3, 301, 4), 9, 3)  # several row blocks
    weight = constant(rng.standard_normal((3, 301, 3)))
    runs = []
    for taped_x in (True, False):
        params = [param(o) for o in operands]
        if not taped_x:
            params[0] = constant(operands[0])
        backward(ad.sum_all(ad.elementwise_mul(ad.gelu_mlp(*params), weight)))
        runs.append(params)
    assert runs[1][0].grad is None
    for p, q in zip(runs[0][1:], runs[1][1:], strict=True):
        assert p.grad.tobytes() == q.grad.tobytes()


def test_fd_norm_ops():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((2, 5, 6))
    gain = rng.standard_normal((1, 6)) + 1.0
    bias = rng.standard_normal((1, 6))
    check_op(lambda x, g, b: ad.layer_norm_rows(x, g, b), [a, gain, bias])
    check_op(lambda x: ad.l2_normalize_rows(x), [a])


def test_fd_reductions():
    rng = np.random.default_rng(11)
    for shape in ((3, 4, 2), (4, 2)):
        truth = rng.standard_normal(shape)
        check_op(lambda x: ad.relative_l2_cols(x, truth), [rng.standard_normal(shape)])


def test_relative_l2_cols_rejects_mismatch_and_zero_norm():
    truth = np.ones((2, 4, 3))
    with pytest.raises(ShapeError, match="relative_l2_cols"):
        ad.relative_l2_cols(constant(np.ones((2, 4, 2))), truth)
    truth[1, :, 2] = 0.0
    with pytest.raises(UndefinedMetricError, match="channel 2 in sample 1"):
        ad.relative_l2_cols(constant(np.ones((2, 4, 3))), truth)


def test_every_public_op_is_finite_difference_checked():
    # the op set is derived the way the benchmark's tracer derives it: every
    # public function defined in autodiff, minus the tape plumbing
    not_ops = {"backward", "constant", "param", "grad_check"}
    ops = {name for name, fn in vars(ad).items()
           if inspect.isfunction(fn) and fn.__module__ == ad.__name__
           and not name.startswith("_") and name not in not_ops}
    # check_op's own scalarization is differentiated in every call, so the
    # ops in its body count as checked alongside those in each call
    checked = set()
    for node in ast.walk(ast.parse(inspect.getsource(sys.modules[__name__]))):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_op") \
                or (isinstance(node, ast.FunctionDef) and node.name == "check_op"):
            checked |= {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
                        and getattr(sub.value, "id", None) == "ad"}
    assert ops and not ops - checked, f"ops without a check_op call: {sorted(ops - checked)}"


# ---------------------------------------------------------------------------
# backward semantics


def test_linear_case_grad_structure():
    rng = np.random.default_rng(12)
    w = param(rng.standard_normal((3, 4)), name="w")
    x = constant(rng.standard_normal((4, 2)))
    loss = ad.sum_all(ad.matmul(w, x))
    backward(loss)
    expected = np.ones((3, 2)) @ x.data.T
    assert np.allclose(w.grad, expected, atol=1e-12)


def test_parameter_used_twice_accumulates_both_paths():
    rng = np.random.default_rng(13)
    w = param(rng.standard_normal((4, 4)))
    x = constant(rng.standard_normal((4, 4)))
    # g(w) = sum(w x) + sum(w w): w appears on two paths
    loss = ad.add(ad.sum_all(ad.matmul(w, x)), ad.sum_all(ad.elementwise_mul(w, w)))
    backward(loss)
    path1 = np.ones((4, 4)) @ x.data.T
    path2 = 2 * w.data
    assert np.allclose(w.grad, path1 + path2, atol=1e-12)


def test_repeated_backward_accumulates():
    w = param(np.array([[2.0]]))
    loss1 = ad.sum_all(ad.elementwise_mul(w, w))
    backward(loss1)
    g1 = w.grad.copy()
    loss2 = ad.sum_all(ad.elementwise_mul(w, w))
    backward(loss2)
    assert np.allclose(w.grad, 2 * g1)


def _tape(root):
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def test_backward_releases_every_intermediate_node():
    rng = np.random.default_rng(16)
    n, e = 6, 12
    edges = ad.EdgeList(rng.integers(0, n, size=e), rng.integers(0, n, size=e), n)
    w = param(rng.standard_normal((3, 3)))
    gain, bias = param(np.ones((1, 3))), param(np.zeros((1, 3)))
    gates = ad.gate_mlp(rng.standard_normal((e, 2)), rng.random((e, 1)),
                        param(np.ones((3, 2))), param(np.ones((1, 1))), param(np.ones((2, 1))))
    h = ad.gelu(ad.matmul(constant(rng.standard_normal((2, n, 3))), w))
    out = ad.layer_norm_rows(ad.gated_aggregate(h, gates, edges), gain, bias)
    root = ad.sum_all(ad.elementwise_mul(out, out))
    nodes = _tape(root)
    inner = [v for v in nodes if v._backward is not None]
    leaves = [v for v in nodes if v._backward is None and v.requires_grad]
    assert len(inner) >= 7 and len(leaves) == 6
    backward(root)
    assert all(v._backward is None and v._parents is None and v.grad is None for v in inner)
    assert all(v.grad is not None for v in leaves)
    assert root.data.shape == () and out.data.shape == (2, n, 3)  # values stay readable


def test_second_backward_on_a_released_tape_raises():
    w = param(np.array([[2.0]]))
    shared = ad.elementwise_mul(w, w)
    loss = ad.sum_all(shared)
    backward(loss)
    g = w.grad.copy()
    with pytest.raises(InvalidParameterError, match="released"):
        backward(loss)
    with pytest.raises(InvalidParameterError, match="released"):
        backward(ad.sum_all(ad.scalar_mul(shared, 3.0)))
    assert np.array_equal(w.grad, g)  # a refused backward adds nothing


def test_backward_rejects_nonscalar_root():
    w = param(np.zeros((2, 2)))
    with pytest.raises(InvalidParameterError):
        backward(ad.scalar_mul(w, 2.0))


def test_no_silent_broadcasting():
    with pytest.raises(ShapeError):
        ad.add(constant(np.zeros((3, 2))), constant(np.zeros((1, 2))))
    with pytest.raises(ShapeError):
        ad.elementwise_mul(constant(np.zeros((3, 2))), constant(np.zeros((3, 1))))
    with pytest.raises(ShapeError):
        ad.matmul(constant(np.zeros((3, 2))), constant(np.zeros((3, 2))))
    with pytest.raises(ShapeError):
        Value(np.zeros((2, 2, 2, 2)))


def test_no_grad_skips_graph():
    w = param(np.ones((2, 2)))
    with no_grad():
        out = ad.matmul(w, w)
    assert not out.requires_grad
    assert out._backward is None


def test_no_grad_in_one_thread_leaves_another_taping():
    w = param(np.ones((2, 2)))
    entered, release = threading.Event(), threading.Event()
    seen = []

    def inference():
        with no_grad():
            entered.set()
            release.wait(timeout=10)
            seen.append(ad.matmul(w, w).requires_grad)

    worker = threading.Thread(target=inference)
    worker.start()
    try:
        assert entered.wait(timeout=10)
        taped = ad.matmul(w, w)
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert taped.requires_grad and taped._backward is not None
    assert seen == [False]


def test_two_layer_composition_fd():
    rng = np.random.default_rng(14)
    w1 = rng.standard_normal((4, 8)) * 0.5
    w2 = rng.standard_normal((8, 3)) * 0.5
    x = rng.standard_normal((6, 4))

    def build(a, b):
        return ad.matmul(ad.gelu(ad.matmul(constant(x), a)), b)

    check_op(build, [w1, w2])


def test_determinism_bit_identical():
    rng = np.random.default_rng(15)
    w_data = rng.standard_normal((6, 6))
    x = constant(rng.standard_normal((6, 6)))

    def run():
        w = param(w_data.copy())
        loss = ad.sum_all(ad.gelu(ad.matmul(w, x)))
        backward(loss)
        return loss.data.copy(), w.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_no_motion():
    p = param(np.array([[1.0, -2.0]]))
    p.grad = np.zeros_like(p.data)
    st = AdamState(lr=0.1, weight_decay=0.0)
    adam_step([p], st)
    assert np.array_equal(p.data, np.array([[1.0, -2.0]]))


def test_adam_first_step_is_signed_lr():
    p = param(np.array([[0.0, 0.0]]))
    p.grad = np.array([[0.5, -3.0]])
    st = AdamState(lr=1e-2, weight_decay=0.0)
    adam_step([p], st)
    # first step: delta = -lr * g / (|g| + eps * sqrt(1 - b2)) ~= -lr * sign(g)
    assert np.allclose(p.data, [[-1e-2, 1e-2]], rtol=1e-6)


def test_adam_constant_gradient_limit():
    p = param(np.array([[0.0]]))
    st = AdamState(lr=1e-3, weight_decay=0.0)
    deltas = []
    for _ in range(400):
        before = p.data.copy()
        p.grad = np.array([[0.25]])
        adam_step([p], st)
        deltas.append(float((before - p.data)[0, 0]))
    assert abs(deltas[-1] - 1e-3) < 1e-5  # approaches lr * sign(g)


def test_adam_decoupled_weight_decay_only():
    p = param(np.array([[2.0]]))
    p.grad = np.array([[0.0]])
    st = AdamState(lr=0.1, weight_decay=0.5)
    adam_step([p], st)
    assert np.allclose(p.data, [[2.0 * (1 - 0.1 * 0.5)]])


def test_adam_nan_gradient_aborts_with_name():
    p = param(np.array([[1.0]]), name="block0.kernel")
    p.grad = np.array([[np.nan]])
    with pytest.raises(InvalidParameterError, match="block0.kernel"):
        adam_step([p], AdamState())


# ---------------------------------------------------------------------------
# grad_check harness


def test_grad_check_linear_least_squares():
    rng = np.random.default_rng(16)
    w = param(rng.standard_normal((4, 3)), name="w")
    x = constant(rng.standard_normal((10, 4)))
    y = constant(rng.standard_normal((10, 3)))

    def loss_fn():
        r = ad.add(ad.matmul(x, w), ad.scalar_mul(y, -1.0))
        return ad.sum_all(ad.elementwise_mul(r, r))

    assert grad_check(loss_fn, [w], probe_count=12, seed=1) < 1e-9
