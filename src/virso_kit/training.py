"""Dataset handling, normalization, losses, and the training loop.

Channel normalizers are fitted on the training split only; the model
predicts in normalized space, and every loss or reported metric is
computed in physical units after applying the inverse transform. Early
stopping tracks the mean relative L2 on the validation split, and the
best-validation parameter snapshot is what training returns.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Value, constant, no_grad
from .blobio import F32, F64, load_artifact, save_artifact
from .errors import InvalidParameterError
from .graphs import PointCloud, load_point_cloud, save_point_cloud
from .model import GraphArtifacts, VirsoModel, forward
from .optim import AdamState, adam_step, restore, snapshot, zero_grads

SPLIT_NAMES = ("train", "val", "test")


# ---------------------------------------------------------------------------
# dataset


@dataclass
class Dataset:
    """Paired sparse inputs (N, q) and dense targets (N, n, C)."""

    inputs: np.ndarray
    targets: np.ndarray
    ids: list[str]
    splits: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.inputs.ndim != 2 or self.targets.ndim != 3:
            raise InvalidParameterError("inputs must be (N, q), targets (N, n, C)")
        if not (self.inputs.shape[0] == self.targets.shape[0] == len(self.ids)):
            raise InvalidParameterError("sample counts disagree")
        if not (np.all(np.isfinite(self.inputs)) and np.all(np.isfinite(self.targets))):
            raise InvalidParameterError("dataset contains non-finite values")

    @property
    def count(self) -> int:
        return self.inputs.shape[0]

    @property
    def q(self) -> int:
        return self.inputs.shape[1]

    @property
    def n(self) -> int:
        return self.targets.shape[1]

    @property
    def channels(self) -> int:
        return self.targets.shape[2]

    def indices_of(self, split: str) -> np.ndarray:
        if self.splits is None:
            raise InvalidParameterError("dataset has no split labels")
        return np.flatnonzero(self.splits == split)


def split_dataset(dataset: Dataset, fractions, seed: int) -> Dataset:
    """Deterministic disjoint exhaustive train/val/test partition.

    `fractions` is three floats summing to 1 (largest-remainder rounding)
    or three integer counts summing to the sample count.
    """
    if len(fractions) != 3:
        raise InvalidParameterError("need exactly three split fractions")
    n = dataset.count
    if all(float(f).is_integer() and f >= 1 for f in fractions):
        sizes = [int(f) for f in fractions]
        if sum(sizes) != n:
            raise InvalidParameterError(
                f"split counts {sizes} do not sum to {n}"
            )
    else:
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise InvalidParameterError(f"fractions {fractions} do not sum to 1")
        raw = [f * n for f in fractions]
        sizes = [int(np.floor(r)) for r in raw]
        rema = [r - s for r, s in zip(raw, sizes)]
        for _ in range(n - sum(sizes)):
            i = int(np.argmax(rema))
            sizes[i] += 1
            rema[i] = -1.0
    if any(s == 0 for s in sizes):
        raise InvalidParameterError(f"empty split in {sizes}")
    perm = np.random.default_rng(seed).permutation(n)
    labels = np.empty(n, dtype="U5")
    start = 0
    for name, size in zip(SPLIT_NAMES, sizes):
        labels[perm[start:start + size]] = name
        start += size
    return Dataset(dataset.inputs, dataset.targets, dataset.ids,
                   splits=labels, meta=dict(dataset.meta))


def save_dataset(dataset: Dataset, out_dir: Path, points: PointCloud) -> Path:
    save_point_cloud(points, out_dir)
    return save_artifact(
        Path(out_dir) / "dataset.json", "dataset",
        {"inputs": ("inputs.f32", dataset.inputs.astype(F32)),
         "targets": ("targets.f32", dataset.targets.astype(F32))},
        ids=dataset.ids,
        split_labels=None if dataset.splits is None else dataset.splits.tolist(),
        meta=dataset.meta,
    )


def load_dataset(out_dir: Path) -> tuple[Dataset, PointCloud]:
    man, arrays = load_artifact(Path(out_dir) / "dataset.json", "dataset")
    splits = None if man["split_labels"] is None else np.asarray(man["split_labels"], dtype="U5")
    points = load_point_cloud(Path(out_dir) / "points.json")
    ds = Dataset(arrays["inputs"].astype(np.float64), arrays["targets"].astype(np.float64),
                 list(man["ids"]), splits=splits, meta=man["meta"])
    return ds, points


# ---------------------------------------------------------------------------
# normalization


@dataclass
class Normalizer:
    """Per-channel affine scaling, minmax to [low, high] or gaussian.

    Statistics run over every axis except the last; fit only on training
    data. invert(apply(x)) == x to 1e-12.
    """

    mode: str = "minmax"
    low: float = -1.0
    high: float = 1.0
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    mu: np.ndarray | None = None
    sigma: np.ndarray | None = None
    fitted_on_train: bool = False

    def fit(self, train_data: np.ndarray) -> "Normalizer":
        x = np.asarray(train_data, dtype=np.float64)
        flat = x.reshape(-1, x.shape[-1])
        if self.mode == "minmax":
            mx, mn = flat.max(axis=0), flat.min(axis=0)
            spread = np.maximum(mx - mn, 1e-12)
            self.a = (self.high - self.low) / spread
            self.b = -self.a * mx + self.high
        elif self.mode == "gaussian":
            self.mu = flat.mean(axis=0)
            self.sigma = np.maximum(flat.std(axis=0), 1e-12)
        else:
            raise InvalidParameterError(f"unknown normalizer mode {self.mode!r}")
        self.fitted_on_train = True
        return self

    def _check(self):
        if not self.fitted_on_train:
            raise InvalidParameterError("normalizer used before fitting on the train split")

    def apply(self, x: np.ndarray) -> np.ndarray:
        self._check()
        if self.mode == "minmax":
            return self.a * x + self.b
        return (x - self.mu) / self.sigma

    def invert(self, x: np.ndarray) -> np.ndarray:
        self._check()
        if self.mode == "minmax":
            return (x - self.b) / self.a
        return x * self.sigma + self.mu

    def to_physical_affine(self) -> tuple[np.ndarray, np.ndarray]:
        """(scale, offset) rows with physical = normalized * scale + offset."""
        self._check()
        if self.mode == "minmax":
            return (1.0 / self.a)[None, :], (-self.b / self.a)[None, :]
        return self.sigma[None, :], self.mu[None, :]

    def state(self) -> dict:
        return {
            "mode": self.mode, "low": self.low, "high": self.high,
            "a": None if self.a is None else self.a.tolist(),
            "b": None if self.b is None else self.b.tolist(),
            "mu": None if self.mu is None else self.mu.tolist(),
            "sigma": None if self.sigma is None else self.sigma.tolist(),
            "fitted_on_train": self.fitted_on_train,
        }

    @classmethod
    def from_state(cls, state: dict) -> "Normalizer":
        norm = cls(mode=state["mode"], low=state["low"], high=state["high"])
        for key in ("a", "b", "mu", "sigma"):
            if state[key] is not None:
                setattr(norm, key, np.asarray(state[key], dtype=np.float64))
        norm.fitted_on_train = state["fitted_on_train"]
        return norm


_NORM_ARRAYS = ("a", "b", "mu", "sigma")


def save_normalizers(input_norm: Normalizer, target_norm: Normalizer, out_dir: Path) -> Path:
    """`normalizers.json`: each fitted array a float64 blob, the rest manifest fields."""
    blobs, fields = {}, {}
    for which, norm in (("input", input_norm), ("target", target_norm)):
        fields[which] = {k: v for k, v in norm.state().items() if k not in _NORM_ARRAYS}
        for key in _NORM_ARRAYS:
            if getattr(norm, key) is not None:
                blobs[f"{which}.{key}"] = (f"normalizers.{which}_{key}.f64",
                                           getattr(norm, key).astype(F64))
    return save_artifact(Path(out_dir) / "normalizers.json", "normalizers", blobs, **fields)


def load_normalizers(manifest_path: Path) -> tuple[Normalizer, Normalizer]:
    """The input and target normalizers from `save_normalizers` output, exactly."""
    man, arrays = load_artifact(manifest_path, "normalizers")
    return tuple(Normalizer.from_state({**man[which], **{
        key: arrays.get(f"{which}.{key}") for key in _NORM_ARRAYS}})
        for which in ("input", "target"))


# ---------------------------------------------------------------------------
# metrics


def relative_l2(pred: np.ndarray, truth: np.ndarray
                ) -> tuple[np.ndarray, float | np.ndarray]:
    """Per-channel ||pred_o - truth_o|| / ||truth_o|| and their mean.

    Fields are (n, C), or (B, n, C) for a batch; a batch gives (B, C)
    per-channel errors and (B,) means. The errors come from
    `ad.relative_l2_cols`, the op `batch_loss` trains on.
    """
    pred, truth = np.asarray(pred), np.asarray(truth)
    if pred.shape != truth.shape:
        raise InvalidParameterError(f"shape mismatch {pred.shape} vs {truth.shape}")
    per_channel = ad.relative_l2_cols(constant(pred), truth).data
    mean = per_channel.mean(axis=-1)
    return per_channel, float(mean) if mean.ndim == 0 else mean


# ---------------------------------------------------------------------------
# differentiable loss


def _physical_pred(pred_norm: Value, target_norm: Normalizer) -> Value:
    scale, offset = target_norm.to_physical_affine()
    return ad.add_rowvec(ad.mul_rowvec(pred_norm, constant(scale)), constant(offset))


def batch_loss(model: VirsoModel, arts: GraphArtifacts, u_norm: np.ndarray,
               truth_phys: np.ndarray, target_norm: Normalizer, divisor: int) -> Value:
    """Channel-summed relative L2 in physical units over the batch, / `divisor`.

    `divisor` is the effective batch size (supports gradient accumulation
    across micro-batches).
    """
    pred = _physical_pred(forward(model, arts, u_norm), target_norm)
    return ad.scalar_mul(ad.sum_all(ad.relative_l2_cols(pred, truth_phys)), 1.0 / divisor)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainSchedule:
    lr: float = 1e-3
    decay_step: int = 40
    decay: float = 0.5
    batch_size: int = 16
    max_epochs: int = 500
    weight_decay: float = 1e-3
    patience: int = 40
    accum_steps: int = 1
    seed: int = 0
    target_norm_mode: str = "minmax"


@dataclass
class TrainReport:
    train_curve: list
    val_curve: list
    best_epoch: int
    best_val: float
    stopping_reason: str
    wall_time_s: float
    epochs_run: int
    final_test: dict | None = None


def train(model: VirsoModel, dataset: Dataset, arts: GraphArtifacts,
          schedule: TrainSchedule, out_dir: Path | None = None
          ) -> tuple[TrainReport, Normalizer, Normalizer]:
    """Mini-batch Adam with step decay, early stopping, best-val retention.

    Returns the report plus the fitted input and target normalizers; the
    model is left holding the best-validation parameters.
    """
    if dataset.splits is None:
        raise InvalidParameterError("dataset must carry split labels; run split_dataset")
    t_start = time.perf_counter()
    train_idx = dataset.indices_of("train")
    val_idx = dataset.indices_of("val")
    if train_idx.size == 0 or val_idx.size == 0:
        raise InvalidParameterError("train and val splits must be non-empty")

    target_norm = Normalizer(mode=schedule.target_norm_mode).fit(dataset.targets[train_idx])
    input_norm = Normalizer(mode="gaussian").fit(dataset.inputs[train_idx])

    params = model.param_list()
    state = AdamState(lr=schedule.lr, weight_decay=schedule.weight_decay)
    rng = np.random.default_rng(schedule.seed)

    best_val = np.inf
    best_epoch = 0
    best_params = snapshot(params)
    since_best = 0
    stopping = "max_epochs"
    train_curve: list[float] = []
    val_curve: list[float] = []
    epoch = 0

    micro = max(1, schedule.batch_size // schedule.accum_steps)
    for epoch in range(1, schedule.max_epochs + 1):
        state.lr = schedule.lr * schedule.decay ** ((epoch - 1) // schedule.decay_step)
        order = rng.permutation(train_idx)
        epoch_loss = 0.0
        batches = 0
        diverged = False
        for start in range(0, order.size, schedule.batch_size):
            sel = order[start:start + schedule.batch_size]
            zero_grads(params)
            batch_total = 0.0
            for ms in range(0, sel.size, micro):
                msel = sel[ms:ms + micro]
                loss = batch_loss(
                    model, arts, input_norm.apply(dataset.inputs[msel]),
                    dataset.targets[msel], target_norm, divisor=sel.size,
                )
                ad.backward(loss)
                batch_total += float(loss.data)
                del loss  # frees this step's tape before the next one is built
            if not np.isfinite(batch_total):
                diverged = True
                break
            adam_step(params, state)
            epoch_loss += batch_total
            batches += 1
        if diverged:
            stopping = "diverged"
            restore(params, best_params)
            break
        train_curve.append(epoch_loss / max(batches, 1))
        val_metric = evaluate(model, dataset, arts, input_norm, target_norm,
                              split="val").mean
        val_curve.append(val_metric)
        if val_metric < best_val:
            best_val = val_metric
            best_epoch = epoch
            best_params = snapshot(params)
            since_best = 0
        else:
            since_best += 1
            if since_best >= schedule.patience:
                stopping = "early_stopping"
                break

    restore(params, best_params)
    if not model.all_finite():
        stopping = "diverged"

    report = TrainReport(
        train_curve=train_curve,
        val_curve=val_curve,
        best_epoch=best_epoch,
        best_val=float(best_val),
        stopping_reason=stopping,
        wall_time_s=time.perf_counter() - t_start,
        epochs_run=epoch,
    )
    test_idx = dataset.indices_of("test")
    if test_idx.size:
        ev = evaluate(model, dataset, arts, input_norm, target_norm, split="test")
        report.final_test = ev.as_dict()
    if out_dir is not None:
        save_train_report(report, out_dir)
    return report, input_norm, target_norm


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EvalReport:
    split: str
    per_channel_mean: np.ndarray
    mean: float
    percentiles: dict
    per_sample: np.ndarray

    def as_dict(self) -> dict:
        return {
            "split": self.split,
            "per_channel_mean": self.per_channel_mean.tolist(),
            "per_channel_mean_percent": (100 * self.per_channel_mean).tolist(),
            "mean": self.mean,
            "mean_percent": 100 * self.mean,
            "percentiles": self.percentiles,
            "per_sample": self.per_sample.tolist(),
        }


def nearest_rank_percentiles(values: np.ndarray) -> dict:
    """{best, p25, p50, p75, p95, worst} by the nearest-rank convention."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.size == 0:
        raise InvalidParameterError("empty split")

    def at(p):
        rank = max(1, int(np.ceil(p / 100.0 * v.size)))
        return float(v[rank - 1])

    return {
        "best": float(v[0]),
        "p25": at(25),
        "p50": at(50),
        "p75": at(75),
        "p95": at(95),
        "worst": float(v[-1]),
    }


def evaluate(model: VirsoModel, dataset: Dataset, arts: GraphArtifacts,
             input_norm: Normalizer, target_norm: Normalizer,
             split: str = "test") -> EvalReport:
    """Physical-unit relative L2 of every sample in `split`, forward in chunks of 32."""
    idx = dataset.indices_of(split)
    if idx.size == 0:
        raise InvalidParameterError(f"split {split!r} is empty")
    per_channel = np.empty((idx.size, dataset.channels))
    per_sample = np.empty(idx.size)
    with no_grad():
        for s in range(0, idx.size, 32):
            sel = idx[s:s + 32]
            u = input_norm.apply(dataset.inputs[sel])
            pred = _physical_pred(forward(model, arts, u), target_norm).data
            per_channel[s:s + sel.size], per_sample[s:s + sel.size] = relative_l2(
                pred, dataset.targets[sel])
    return EvalReport(
        split=split,
        per_channel_mean=per_channel.sum(axis=0) / idx.size,
        mean=float(per_sample.mean()),
        percentiles=nearest_rank_percentiles(per_sample),
        per_sample=per_sample,
    )


# ---------------------------------------------------------------------------
# report persistence


def save_train_report(report: TrainReport, out_dir: Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "train_report.json").write_text(
        json.dumps(asdict(report), indent=2) + "\n"
    )
    with open(out_dir / "loss_curve.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_metric"])
        for i, (tr, va) in enumerate(zip(report.train_curve, report.val_curve), start=1):
            writer.writerow([i, repr(tr), repr(va)])
