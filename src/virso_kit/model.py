"""The spectral-spatial graph operator.

A sparse boundary observation vector is embedded by a shallow FCN,
broadcast to every node, concatenated with node coordinates, lifted to a
hidden function dimension, refined by T spectral-spatial collaboration
blocks, and downlifted to the multi-channel output field. The embedding
FCN, the nonlinear collaboration and the downlift are each one
`ad.gelu_mlp` op (dense -> GELU -> dense), so their hidden layers never
stay on the tape; each block's edge gates are one `ad.gate_mlp` op, which
folds the rank-one edge-weight term (see `edge_gates`).

Per block:
  spectral   v_spec = layer_norm(gelu(Q (K x1 Q^T v) + v W_skip))
  spatial    v_spat = l2norm(sum over in-edges of gate(u->v) * (v_u W))
  combine    v <- f([v_spat || v_spec]) + v        (identity skip)

Variants drop one branch (the survivor feeds the skip directly), the
weighted spectral skip, or the identity skip, matching the ablation
grid. The gate for a directed edge u->v reads [h_u || h_v || W2 w_uv]
(sender embedding first); since w_uv is a scalar, its part of the first
gate layer, (w_uv W2) W1[2 alpha:], is w_uv (W2 W1[2 alpha:]), one (1, g_h)
row per block scaled per edge. Gates depend only on the graph and the gate
parameters, so untaped forwards reuse each block's gates from a memo on
the graph artifacts, keyed by the exact gate parameter values.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Value, constant, no_grad, param
from .blobio import F64, load_artifact, save_artifact
from .errors import ArtifactError, ConfigError, ShapeError
from .graphs import AnchorEmbedding, Graph
from .spectral import EigenBasis

VARIANTS = ("full", "spectral_only", "spatial_only")
COLLABORATIONS = ("linear", "nonlinear")


@dataclass(kw_only=True)
class VirsoConfig:
    """Architecture configuration; all widths explicit.

    The defaults are the command-line defaults; the two data-dependent
    widths have none.
    """

    T: int = 4
    d_v: int = 16
    m: int = 16
    d_latent: int = 16
    output_channels: int
    input_width: int
    spatial_dim: int = 2
    alpha_anchors: int = 16
    gate_hidden: int = 16
    gate_weight_width: int = 8
    variant: str = "full"
    use_identity_skip: bool = True
    use_spectral_weighted_skip: bool = True
    collaboration: str = "linear"
    weighted_laplacian: bool = False
    embed_hidden: int = 64
    down_hidden: int = 128

    def validate(self, allow_degenerate_t: bool = False) -> None:
        if self.T < (0 if allow_degenerate_t else 1):
            raise ConfigError(f"T must be >= 1, got {self.T}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.collaboration not in COLLABORATIONS:
            raise ConfigError(f"collaboration must be one of {COLLABORATIONS}")
        for name in ("d_v", "d_latent", "output_channels", "input_width",
                     "gate_hidden", "gate_weight_width", "alpha_anchors",
                     "down_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.embed_hidden < 0:  # 0 selects a single linear embedding layer
            raise ConfigError("embed_hidden must be >= 0")
        if self.spatial_dim not in (2, 3):
            raise ConfigError("spatial_dim must be 2 or 3")
        if self.variant != "spatial_only" and self.m < 1:
            raise ConfigError("m must be >= 1 for spectral variants")

    @property
    def has_spectral(self) -> bool:
        return self.variant in ("full", "spectral_only")

    @property
    def has_spatial(self) -> bool:
        return self.variant in ("full", "spatial_only")


@dataclass
class GraphArtifacts:
    """Per-graph constants shared by every forward pass.

    `gate_memo` maps a block index to copies of that block's gate parameters
    and the read-only (2E, 1) gates they give on this graph; `gate_base` and
    `w_dir` are read-only, so an entry is a pure function of its key.
    """

    graph: Graph
    coords: np.ndarray
    basis: EigenBasis | None = None
    anchors: AnchorEmbedding | None = None
    src: np.ndarray | None = None
    dst: np.ndarray | None = None
    gate_base: np.ndarray | None = None  # [h_src || h_dst] per directed edge
    w_dir: np.ndarray | None = None      # (2E, 1) directed edge weights
    edges: ad.EdgeList | None = None     # the same directed edges, planned
    gate_memo: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def prepare(cls, graph: Graph, coords: np.ndarray,
                basis: EigenBasis | None = None,
                anchors: AnchorEmbedding | None = None) -> "GraphArtifacts":
        if coords.shape[0] != graph.n:
            raise ShapeError("coords and graph disagree on n")
        arts = cls(graph=graph, coords=np.asarray(coords, dtype=np.float64),
                   basis=basis, anchors=anchors)
        if basis is not None and basis.n != graph.n:
            raise ShapeError("basis and graph disagree on n")
        if anchors is not None:
            src, dst, w = graph.directed()
            if w is None:
                raise ConfigError("spatial branch requires edge weights on the graph")
            arts.src, arts.dst = src, dst
            arts.edges = ad.EdgeList(src, dst, graph.n)
            h = anchors.h
            arts.gate_base = np.concatenate([h[src], h[dst]], axis=1)
            arts.w_dir = w[:, None]
            arts.gate_base.flags.writeable = False
            arts.w_dir.flags.writeable = False
        return arts


class VirsoModel:
    """Learnable parameters plus the architecture configuration."""

    def __init__(self, config: VirsoConfig, seed: int = 0, allow_degenerate_t: bool = False):
        config.validate(allow_degenerate_t=allow_degenerate_t)
        self.config = config
        self.params: dict[str, Value] = {}
        rng = np.random.default_rng(seed)
        c = config

        def dense(name, fan_in, *shape):
            bound = 1.0 / np.sqrt(fan_in)
            self.params[name] = param(rng.uniform(-bound, bound, size=shape), name=name)

        def zeros(name, *shape):
            self.params[name] = param(np.zeros(shape), name=name)

        def ones(name, *shape):
            self.params[name] = param(np.ones(shape), name=name)

        if c.embed_hidden == 0:
            dense("embed.w", c.input_width, c.input_width, c.d_latent)
            zeros("embed.b", 1, c.d_latent)
        else:
            dense("embed.w1", c.input_width, c.input_width, c.embed_hidden)
            zeros("embed.b1", 1, c.embed_hidden)
            dense("embed.w2", c.embed_hidden, c.embed_hidden, c.d_latent)
            zeros("embed.b2", 1, c.d_latent)
        dense("lift.w", c.spatial_dim + c.d_latent, c.spatial_dim + c.d_latent, c.d_v)
        zeros("lift.b", 1, c.d_v)
        for t in range(c.T):
            if c.has_spectral:
                bound = 1.0 / (c.d_v * np.sqrt(c.m))
                self.params[f"block{t}.kernel"] = param(
                    rng.uniform(-bound, bound, size=(c.m, c.d_v, c.d_v)),
                    name=f"block{t}.kernel",
                )
                if c.use_spectral_weighted_skip:
                    dense(f"block{t}.spec_skip", c.d_v, c.d_v, c.d_v)
                ones(f"block{t}.ln_gain", 1, c.d_v)
                zeros(f"block{t}.ln_bias", 1, c.d_v)
            if c.has_spatial:
                dense(f"block{t}.spat_w", c.d_v, c.d_v, c.d_v)
                gate_in = 2 * c.alpha_anchors + c.gate_weight_width
                dense(f"block{t}.gate_w1", gate_in, gate_in, c.gate_hidden)
                dense(f"block{t}.gate_w2", 1, 1, c.gate_weight_width)
                dense(f"block{t}.gate_w3", c.gate_hidden, c.gate_hidden, 1)
            if c.variant == "full":
                dense(f"block{t}.collab_w1", 2 * c.d_v, 2 * c.d_v, c.d_v)
                zeros(f"block{t}.collab_b1", 1, c.d_v)
                if c.collaboration == "nonlinear":
                    dense(f"block{t}.collab_w2", c.d_v, c.d_v, c.d_v)
                    zeros(f"block{t}.collab_b2", 1, c.d_v)
        dense("down.w1", c.d_v, c.d_v, c.down_hidden)
        zeros("down.b1", 1, c.down_hidden)
        dense("down.w2", c.down_hidden, c.down_hidden, c.output_channels)
        zeros("down.b2", 1, c.output_channels)
        assert self.num_params() == param_count(c), "allocation drifted from closed form"

    def param_list(self) -> list[Value]:
        return list(self.params.values())

    def num_params(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(p.data)) for p in self.params.values())


def param_count(config: VirsoConfig) -> int:
    """Closed-form parameter count; must equal VirsoModel.num_params()."""
    c = config
    if c.embed_hidden == 0:
        total = c.input_width * c.d_latent + c.d_latent
    else:
        total = c.input_width * c.embed_hidden + c.embed_hidden \
            + c.embed_hidden * c.d_latent + c.d_latent
    total += (c.spatial_dim + c.d_latent) * c.d_v + c.d_v
    per_block = 0
    if c.has_spectral:
        per_block += c.m * c.d_v * c.d_v
        if c.use_spectral_weighted_skip:
            per_block += c.d_v * c.d_v
        per_block += 2 * c.d_v
    if c.has_spatial:
        gate_in = 2 * c.alpha_anchors + c.gate_weight_width
        per_block += c.d_v * c.d_v + gate_in * c.gate_hidden \
            + c.gate_weight_width + c.gate_hidden
    if c.variant == "full":
        per_block += 2 * c.d_v * c.d_v + c.d_v
        if c.collaboration == "nonlinear":
            per_block += c.d_v * c.d_v + c.d_v
    total += c.T * per_block
    total += c.d_v * c.down_hidden + c.down_hidden \
        + c.down_hidden * c.output_channels + c.output_channels
    return total


# ---------------------------------------------------------------------------
# forward pieces


def _embed(model: VirsoModel, u: Value) -> Value:
    p = model.params
    if model.config.embed_hidden == 0:
        return ad.add_rowvec(ad.matmul(u, p["embed.w"]), p["embed.b"])
    return ad.gelu_mlp(u, p["embed.w1"], p["embed.b1"], p["embed.w2"], p["embed.b2"])


def spectral_block(v: Value, qm: Value, qm_t: Value, kernel: Value,
                   spec_skip: Value | None, ln_gain: Value, ln_bias: Value) -> Value:
    coeff = ad.matmul(qm_t, v)
    mixed = ad.matmul(qm, ad.mode1_product(kernel, coeff))
    if spec_skip is not None:
        mixed = ad.add(mixed, ad.matmul(v, spec_skip))
    return ad.layer_norm_rows(ad.gelu(mixed), ln_gain, ln_bias)


def edge_gates(arts: GraphArtifacts, gate_w1: Value, gate_w2: Value,
               gate_w3: Value) -> Value:
    """Per-directed-edge gate in (0, 1) from anchor embeddings and edge weight."""
    return ad.gate_mlp(arts.gate_base, arts.w_dir, gate_w1, gate_w2, gate_w3)


def _block_gates(arts: GraphArtifacts, t: int, gate_w1: Value, gate_w2: Value,
                 gate_w3: Value) -> Value:
    """Block t's gates: on the tape when taping, else from `arts.gate_memo`.

    A memo entry serves only while every stored parameter copy equals the
    live values (`np.array_equal`, so a NaN never matches); in-place updates
    such as Adam's therefore recompute the gates. The gates are computed
    from the copies, and an entry is replaced as one tuple, so a concurrent
    caller never pairs gates with other parameter values.
    """
    if ad.grad_enabled():
        return edge_gates(arts, gate_w1, gate_w2, gate_w3)
    live = (gate_w1.data, gate_w2.data, gate_w3.data)
    hit = arts.gate_memo.get(t)
    if hit is None or not all(np.array_equal(a, b) for a, b in zip(hit[0], live)):
        key = tuple(w.copy() for w in live)
        gates = edge_gates(arts, *map(constant, key)).data
        gates.flags.writeable = False
        hit = arts.gate_memo[t] = (key, gates)
    return constant(hit[1])


def spatial_block(v: Value, arts: GraphArtifacts, spat_w: Value,
                  gates: Value) -> Value:
    return ad.l2_normalize_rows(ad.gated_aggregate(ad.matmul(v, spat_w), gates, arts.edges))


def collaboration(v_spat: Value | None, v_spec: Value | None, model: VirsoModel,
                  t: int, v_prev: Value) -> Value:
    """Merge branch outputs; absent branches feed the skip directly."""
    c, p = model.config, model.params
    if v_spat is not None and v_spec is not None:
        z = ad.concat_cols(v_spat, v_spec)
        if c.collaboration == "nonlinear":
            y = ad.gelu_mlp(z, p[f"block{t}.collab_w1"], p[f"block{t}.collab_b1"],
                            p[f"block{t}.collab_w2"], p[f"block{t}.collab_b2"])
        else:
            y = ad.add_rowvec(ad.matmul(z, p[f"block{t}.collab_w1"]), p[f"block{t}.collab_b1"])
    else:
        y = v_spec if v_spec is not None else v_spat
    return ad.add(y, v_prev) if c.use_identity_skip else y


def forward(model: VirsoModel, arts: GraphArtifacts, u_batch: np.ndarray) -> Value:
    """Batched forward pass: (B, q) inputs -> (B, n, C) field, normalized space."""
    c = model.config
    u_batch = np.asarray(u_batch, dtype=np.float64)
    if u_batch.ndim != 2 or u_batch.shape[1] != c.input_width:
        raise ShapeError(f"inputs must be (B, {c.input_width}), got {u_batch.shape}")
    if c.has_spectral:
        if arts.basis is None:
            raise ConfigError("spectral variants require an eigen basis")
        if arts.basis.m != c.m:
            raise ConfigError(
                f"basis holds {arts.basis.m} modes, model expects {c.m}"
            )
    if c.has_spatial and arts.gate_base is None:
        raise ConfigError("spatial variants require anchors and edge weights")
    if c.has_spatial and arts.gate_base.shape[1] != 2 * c.alpha_anchors:
        raise ConfigError(
            f"anchor embedding width {arts.gate_base.shape[1] // 2} does not "
            f"match alpha_anchors={c.alpha_anchors}"
        )
    b = u_batch.shape[0]
    n = arts.graph.n
    p = model.params

    a = _embed(model, constant(u_batch))
    coords_b = constant(np.repeat(arts.coords[None], b, axis=0))
    x = ad.concat_cols(coords_b, ad.broadcast_rows(a, n))
    v = ad.add_rowvec(ad.matmul(x, p["lift.w"]), p["lift.b"])

    if c.has_spectral:
        qm = constant(arts.basis.q)
        qm_t = constant(arts.basis.q.T)

    for t in range(c.T):
        try:
            v_spec = v_spat = None
            if c.has_spectral:
                v_spec = spectral_block(
                    v, qm, qm_t, p[f"block{t}.kernel"],
                    p.get(f"block{t}.spec_skip"),
                    p[f"block{t}.ln_gain"], p[f"block{t}.ln_bias"],
                )
            if c.has_spatial:
                gates = _block_gates(arts, t, p[f"block{t}.gate_w1"],
                                     p[f"block{t}.gate_w2"], p[f"block{t}.gate_w3"])
                v_spat = spatial_block(v, arts, p[f"block{t}.spat_w"], gates)
            v = collaboration(v_spat, v_spec, model, t, v)
        except (ShapeError, ConfigError) as err:
            raise type(err)(f"block {t}: {err}") from err

    return ad.gelu_mlp(v, p["down.w1"], p["down.b1"], p["down.w2"], p["down.b2"])


def predict(model: VirsoModel, arts: GraphArtifacts, u_q: np.ndarray) -> np.ndarray:
    """Single-sample inference, (q,) -> (n, C), without graph construction."""
    with no_grad():
        return forward(model, arts, np.asarray(u_q)[None, :]).data[0]


# ---------------------------------------------------------------------------
# analytic FLOP counting


def flop_count(config: VirsoConfig, n: int, e: int) -> dict:
    """Closed-form per-sample FLOPs (multiply + add counted separately).

    spectral/block: 4 n m d_v + 2 m d_v^2          (GFT, IGFT, mode mixing)
    spatial/block:  2 E (d_v + gate), gate = 2 (2 alpha + g_w) g_h + 2 g_h
    plus the embed / lift / collaboration / downlift dense maps.

    `e` is the number of directed edges the spatial branch runs over,
    `GraphArtifacts.src.size`: twice the undirected `Graph.edge_count`.

    `per_graph` is the gate MLPs, T*2*E*gate, which an untaped forward
    computes once per graph and parameter values; `per_sample` is the rest,
    the work of one served request. The two sum to `total`.

    The gate is counted as the operator is written. `ad.gate_mlp` folds the
    rank-one edge-weight term into one scaled (1, g_h) row, so its first
    layer does 2 (2 alpha + 1) g_h per directed edge and block, not the
    2 (2 alpha + g_w) g_h counted here.
    """
    c = config
    embed_flops = (2 * c.input_width * c.d_latent if c.embed_hidden == 0
                   else 2 * (c.input_width * c.embed_hidden + c.embed_hidden * c.d_latent))
    terms = {
        "embed": embed_flops,
        "lift": 2 * n * (c.spatial_dim + c.d_latent) * c.d_v,
        "downlift": 2 * n * (c.d_v * c.down_hidden + c.down_hidden * c.output_channels),
        "spectral": 0,
        "spatial": 0,
        "collaboration": 0,
    }
    if c.has_spectral:
        terms["spectral"] = c.T * (4 * n * c.m * c.d_v + 2 * c.m * c.d_v**2)
    per_graph = 0
    if c.has_spatial:
        gate = 2 * (2 * c.alpha_anchors + c.gate_weight_width) * c.gate_hidden \
            + 2 * c.gate_hidden
        terms["spatial"] = c.T * 2 * e * (c.d_v + gate)
        per_graph = c.T * 2 * e * gate
    if c.variant == "full":
        collab = 2 * n * 2 * c.d_v * c.d_v
        if c.collaboration == "nonlinear":
            collab += 2 * n * c.d_v * c.d_v
        terms["collaboration"] = c.T * collab
    formula = (
        "total = embed + lift + downlift + T*(4*n*m*d_v + 2*m*d_v^2) "
        "+ T*2*E*(d_v + 2*(2*alpha+g_w)*g_h + 2*g_h) + T*collab"
    )
    total = int(sum(terms.values()))
    return {"total": total, "per_graph": per_graph, "per_sample": total - per_graph,
            "terms": terms, "formula": formula}


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: VirsoModel, out_dir: Path, graph_hash: str | None = None,
                    name: str = "checkpoint", anchor_ids: np.ndarray | None = None) -> Path:
    names = sorted(model.params)
    flat = np.concatenate([model.params[p].data.astype(F64).ravel() for p in names])
    return save_artifact(
        Path(out_dir) / f"{name}.json", "checkpoint", {"params": (f"{name}.f64", flat)},
        config=asdict(model.config), graph_hash=graph_hash,
        anchor_ids=None if anchor_ids is None else [int(a) for a in anchor_ids],
        params=[{"name": p, "shape": list(model.params[p].data.shape)} for p in names],
    )


def load_checkpoint(manifest_path: Path,
                    expected_anchor_ids: Callable[[VirsoConfig], Sequence[int]] | None = None,
                    ) -> tuple[VirsoModel, str | None]:
    """Model and graph hash from `save_checkpoint` output.

    The manifest must list exactly the architecture's parameters with their
    shapes; their values are the checked blob, in sorted-name order.

    `expected_anchor_ids`, when given, maps the checkpoint's `VirsoConfig`
    to the anchor ids the caller rebuilt for it (a function, because the
    anchor count is the checkpoint's own). It is called once, and a
    checkpoint that recorded other anchors is refused.
    """
    man, arrays = load_artifact(manifest_path, "checkpoint")
    model = VirsoModel(VirsoConfig(**man["config"]), seed=0, allow_degenerate_t=True)
    if expected_anchor_ids is not None:
        trained = man["anchor_ids"]
        expected = [int(a) for a in expected_anchor_ids(model.config)]
        if trained is not None and trained != expected:
            raise ArtifactError(f"checkpoint {manifest_path} was trained with anchors "
                                f"{trained}, but the anchors rebuilt for it are {expected}")
    shapes = {entry["name"]: tuple(entry["shape"]) for entry in man["params"]}
    missing = sorted(set(model.params) - set(shapes))
    extra = sorted(set(shapes) - set(model.params))
    if missing or extra:
        raise ArtifactError(f"{manifest_path}: parameters missing {missing}, "
                            f"not in architecture {extra}")
    flat, offset = arrays["params"], 0
    for name in sorted(shapes):
        shape = model.params[name].data.shape
        if shapes[name] != shape:
            raise ArtifactError(f"checkpoint parameter {name!r} has shape {shapes[name]}, "
                                f"architecture expects {shape}")
        size = int(np.prod(shape))
        model.params[name].data = flat[offset:offset + size].reshape(shape).copy()
        offset += size
    return model, man["graph_hash"]
