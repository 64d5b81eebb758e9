"""Spans recorded from outside the program, and the per-layer figures built from them.

`Installed(tracer)` replaces virso_kit's public functions with timing wrappers
under every name a caller looks them up by: `model` calls `ad.matmul`, so
`virso_kit.autodiff.matmul` is wrapped; `training` imports `adam_step` and
`forward` by name, so the wrapper is also bound into `virso_kit.training`.
Each call records a span (name, start, end, parent). Spans stay in memory
until the run ends; `per_layer` folds them into per-run totals and counts.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from pathlib import Path

from virso_kit import autodiff, graphs, model, optim, spectral, synthetic, training

# autodiff ops that get a time and a call count of their own; every other op
# is summed into autodiff.other_ops_s
NAMED_OPS = (
    "matmul", "gather_rows", "scale_rows", "scatter_add_rows", "gelu",
    "layer_norm_rows", "l2_normalize_rows", "mode1_product", "sigmoid", "relu",
    "concat_cols", "broadcast_rows", "add_rowvec",
)
_NOT_OPS = {"backward", "constant", "param", "grad_check"}
_MODULES = (autodiff, graphs, model, optim, spectral, synthetic, training)
MODEL_BLOCKS = ("model.spectral_block", "model.edge_gates", "model.spatial_block",
                "model.collaboration")


def autodiff_ops() -> list[str]:
    """Public functions of `autodiff` that build a node: the tape's op set."""
    return sorted(
        name for name, fn in vars(autodiff).items()
        if inspect.isfunction(fn) and fn.__module__ == autodiff.__name__
        and not name.startswith("_") and name not in _NOT_OPS
    )


class Tracer:
    """In-memory span list: [name, start, end, parent index, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, 0])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        rows = [[code[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]
        path.write_text(json.dumps({"names": names,
                                    "columns": ["name", "start", "end", "parent", "extra"],
                                    "spans": rows}))


def _dir_bytes(path) -> int:
    path = Path(path)
    if not path.is_dir():
        return 0
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def _wrapper(tracer: Tracer, span: str, fn, extra=None, after=None):
    """Time `fn` as `span`; `extra(args)` and `after(args)` fill the span's extra field."""

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        idx = tracer.begin(span)
        if extra is not None:
            tracer.spans[idx][4] = extra(args)
        before = after(args) if after is not None else 0
        try:
            return fn(*args, **kwargs)
        finally:
            if after is not None:
                tracer.spans[idx][4] = after(args) - before
            tracer.end(idx)

    return timed


def _save_bytes(args):
    return _dir_bytes(args[1])  # every artifact save takes (object, out_dir, ...)


def _apply_cols(args):
    x = args[1]
    return 1 if x.ndim == 1 else int(x.shape[1])


class Installed:
    """Wrappers bound into virso_kit's namespaces; `remove()` restores the originals."""

    def __init__(self, tracer: Tracer):
        self._undo: list[tuple[object, str, object]] = []
        plan: list[tuple[object, str, dict]] = [
            (synthetic.generate_dataset, "synthetic.generate_dataset", {}),
            (graphs.estimate_density, "graphs.estimate_density", {}),
            (graphs.build_vknn, "graphs.build_vknn", {}),
            (graphs.compute_edge_weights, "graphs.compute_edge_weights", {}),
            (graphs.anchor_embeddings, "graphs.anchor_embeddings", {}),
            (spectral.normalized_laplacian, "spectral.normalized_laplacian", {}),
            (spectral.lobpcg_smallest, "spectral.lobpcg", {}),
            (model.spectral_block, "model.spectral_block", {}),
            (model.edge_gates, "model.edge_gates", {}),
            (model.spatial_block, "model.spatial_block", {}),
            (model.collaboration, "model.collaboration", {}),
            (model.forward, "model.forward", {}),
            (autodiff.backward, "autodiff.backward", {}),
            (optim.adam_step, "optim.adam_step", {}),
            (training.train, "training.train", {}),
            (training.batch_loss, "training.batch_loss",
             {"extra": lambda args: int(args[2].shape[0])}),
            (training.evaluate, "training.evaluate", {}),
        ]
        plan += [(getattr(autodiff, op), f"autodiff.{op}", {}) for op in autodiff_ops()]
        for fn in (graphs.save_point_cloud, graphs.save_graph,
                   spectral.save_eigen_basis, model.save_checkpoint):
            plan.append((fn, "blobio.save", {"after": _save_bytes}))
        for fn in (graphs.load_point_cloud, graphs.load_graph,
                   spectral.load_eigen_basis, model.load_checkpoint):
            plan.append((fn, "blobio.load", {}))
        for fn, span, hooks in plan:
            self._rebind(fn, _wrapper(tracer, span, fn, **hooks))

        prepare = model.GraphArtifacts.__dict__["prepare"].__func__
        self._set(model.GraphArtifacts, "prepare",
                  classmethod(_wrapper(tracer, "model.prepare", prepare)))
        self._set(spectral.SparseLaplacian, "matmat",
                  _wrapper(tracer, "spectral.laplacian_apply",
                           spectral.SparseLaplacian.matmat, extra=_apply_cols))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, fn, wrapped):
        for mod in _MODULES:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def per_layer(tracer: Tracer, ops: list[str]) -> dict[str, float]:
    """Per-run totals (s) and counts from the recorded spans.

    A span nested in a span of the same name is not counted again.
    """
    spans = tracer.spans
    names = [s[0] for s in spans]

    def has_ancestor(i, name):
        p = spans[i][3]
        while p >= 0:
            if names[p] == name:
                return True
            p = spans[p][3]
        return False

    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    extra: dict[str, int] = {}
    for i, (name, start, end, parent, ext) in enumerate(spans):
        if has_ancestor(i, name):
            continue
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        extra[name] = extra.get(name, 0) + ext

    def child_time(parent_name, child_names):
        return sum(s[2] - s[1] for s in spans
                   if s[0] in child_names and s[3] >= 0 and names[s[3]] == parent_name)

    lobpcg_applies = [s for s in spans if s[0] == "spectral.laplacian_apply"
                      and s[3] >= 0 and names[s[3]] == "spectral.lobpcg"]
    loss_calls = [i for i, s in enumerate(spans)
                  if s[0] == "training.batch_loss" and has_ancestor(i, "training.train")]
    op_names = {f"autodiff.{op}" for op in ops}
    nodes = sum(1 for i, s in enumerate(spans)
                if s[0] in op_names and has_ancestor(i, "training.batch_loss")
                and has_ancestor(i, "training.train"))

    t = lambda name: total.get(name, 0.0)  # noqa: E731
    out = {
        "synthetic.generate_dataset_s": t("synthetic.generate_dataset"),
        "graphs.estimate_density_s": t("graphs.estimate_density"),
        "graphs.build_vknn_s": t("graphs.build_vknn"),
        "graphs.compute_edge_weights_s": t("graphs.compute_edge_weights"),
        "graphs.anchor_embeddings_s": t("graphs.anchor_embeddings"),
        "model.prepare_s": t("model.prepare"),
        "spectral.normalized_laplacian_s": t("spectral.normalized_laplacian"),
        "spectral.lobpcg_s": t("spectral.lobpcg"),
        "spectral.laplacian_apply_s": sum(s[2] - s[1] for s in lobpcg_applies),
        "spectral.laplacian_apply_calls": len(lobpcg_applies),
        "spectral.laplacian_apply_cols": sum(s[4] for s in lobpcg_applies),
        "model.forward_s": t("model.forward"),
        "model.forward_rest_s": t("model.forward") - child_time("model.forward", MODEL_BLOCKS),
        "model.forward_calls": calls.get("model.forward", 0),
        "autodiff.backward_s": t("autodiff.backward"),
        "autodiff.other_ops_s": sum(t(f"autodiff.{op}") for op in ops if op not in NAMED_OPS),
        "autodiff.nodes_per_step": nodes // len(loss_calls) if loss_calls else 0,
        "optim.adam_step_s": t("optim.adam_step"),
        "training.train_s": t("training.train"),
        "training.batch_loss_s": t("training.batch_loss"),
        "training.evaluate_s": t("training.evaluate"),
        "training.train_rest_s": t("training.train") - child_time(
            "training.train", ("training.batch_loss", "autodiff.backward",
                               "optim.adam_step", "training.evaluate")),
        "training.steps": calls.get("optim.adam_step", 0),
        "training.samples": sum(spans[i][4] for i in loss_calls),
        "blobio.save_s": t("blobio.save"),
        "blobio.load_s": t("blobio.load"),
        "blobio.bytes_written": extra.get("blobio.save", 0),
        "trace.spans": len(spans),
    }
    for block in MODEL_BLOCKS:
        out[f"{block}_s"] = t(block)
    for op in NAMED_OPS:
        out[f"autodiff.{op}_s"] = t(f"autodiff.{op}")
        out[f"autodiff.{op}_calls"] = calls.get(f"autodiff.{op}", 0)
    return out


def environment() -> dict:
    """numpy/BLAS build, thread pinning, processor count and CPU model."""
    import numpy as np

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    threads = {v: os.environ.get(v) for v in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }
