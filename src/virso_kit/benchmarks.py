"""Hardware-efficiency metrics from telemetry traces and timed inference.

Energy integrates rectangle-rule power samples (sum of P(t_i) * dt_i);
traces are ingested from CSV rather than sampled live, with the scope
(device vs board) carried through every derived report so values from
different telemetry domains are never silently mixed.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidParameterError
from .model import GraphArtifacts, VirsoModel, predict

SCOPES = ("device", "board")
REPORT_COLUMNS = (
    "model", "mean_err_percent", "flops", "energy_j_per_it",
    "latency_ms_per_it", "edp_j_ms", "scope",
)


@dataclass(frozen=True)
class TelemetryTrace:
    """(timestamp seconds, power watts) samples plus the nominal period."""

    times: np.ndarray
    power: np.ndarray
    interval: float
    scope: str

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        p = np.asarray(self.power, dtype=np.float64)
        if t.ndim != 1 or t.shape != p.shape:
            raise InvalidParameterError("times and power must be matching 1-d arrays")
        if t.size < 2:
            raise InvalidParameterError("telemetry trace needs at least 2 samples")
        if np.any(np.diff(t) <= 0):
            raise InvalidParameterError("timestamps must be strictly increasing")
        if np.any(p < 0):
            raise InvalidParameterError("power must be non-negative")
        if self.interval <= 0:
            raise InvalidParameterError("nominal interval must be positive")
        if self.scope not in SCOPES:
            raise InvalidParameterError(f"scope must be one of {SCOPES}")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "power", p)


def read_telemetry_csv(path: Path, interval: float, scope: str) -> TelemetryTrace:
    """Parse the `t_s,power_w` CSV contract (UTF-8, one sample per line)."""
    path = Path(path)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["t_s", "power_w"]:
            raise InvalidParameterError(
                f"{path}: telemetry CSV must start with header 't_s,power_w'"
            )
        rows = [(float(r[0]), float(r[1])) for r in reader if r]
    if not rows:
        raise InvalidParameterError(f"{path}: empty telemetry trace")
    t, p = np.array(rows).T
    return TelemetryTrace(times=t, power=p, interval=interval, scope=scope)


def energy_per_iteration(trace: TelemetryTrace, iterations: int) -> float:
    """Sum of P(t_i) * dt_i over the trace, divided by the iteration count.

    dt_i uses the actual gap to the next sample; the final sample (no gap
    available) falls back to the nominal interval.
    """
    if iterations < 1:
        raise InvalidParameterError("iterations must be >= 1")
    gaps = np.empty_like(trace.times)
    gaps[:-1] = np.diff(trace.times)
    gaps[-1] = trace.interval
    return float(np.sum(trace.power * gaps) / iterations)


def measure_latency(model: VirsoModel, arts: GraphArtifacts, inputs: np.ndarray,
                    warmup: int = 2, repeats: int = 3) -> float:
    """Streaming (batch-1) wall-clock ms per sample, averaged over repeats.

    The garbage collector is paused during timed spans so collection
    pauses landing inside a window do not skew the per-sample figure.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] < 1:
        raise InvalidParameterError("need a non-empty (N, q) input array")
    for i in range(min(warmup, inputs.shape[0])):
        predict(model, arts, inputs[i % inputs.shape[0]])
    spans = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            for i in range(inputs.shape[0]):
                predict(model, arts, inputs[i])
            spans.append((time.perf_counter() - t0) / inputs.shape[0])
    finally:
        if gc_was_enabled:
            gc.enable()
    return float(np.mean(spans) * 1e3)


def edp(energy_j_per_it: float, latency_ms: float) -> float:
    """Energy-delay product in joule-milliseconds."""
    if energy_j_per_it <= 0 or latency_ms <= 0:
        raise InvalidParameterError("energy and latency must be positive")
    return energy_j_per_it * latency_ms


def power_normalized_accuracy(mean_err_percent: float, power_w: float) -> float:
    """Accuracy delivered per watt: (100 / err%) / P."""
    if mean_err_percent <= 0:
        raise InvalidParameterError("error percent must be positive")
    if power_w <= 0:
        raise InvalidParameterError("power must be positive")
    return (100.0 / mean_err_percent) / power_w


def reconstruction_ratio(n: int, c: int, m: int) -> float:
    """Output degrees of freedom per input observation: N*C/M."""
    if n < 1 or c < 1 or m < 1:
        raise InvalidParameterError("n, c, m must be positive")
    return n * c / m


@dataclass(frozen=True)
class BenchReport:
    model: str
    scope: str
    latency_ms_per_it: float
    energy_j_per_it: float
    edp_j_ms: float
    mean_err_percent: float | None = None
    eta_per_watt: float | None = None
    flops: int | None = None
    dataset_size: int | None = None

    def __post_init__(self):
        if self.scope not in SCOPES:
            raise InvalidParameterError(f"scope must be one of {SCOPES}")
        expected = self.energy_j_per_it * self.latency_ms_per_it
        if abs(self.edp_j_ms - expected) > 1e-9 * max(1.0, abs(expected)):
            raise InvalidParameterError("edp field disagrees with energy * latency")
        for name in ("latency_ms_per_it", "energy_j_per_it", "edp_j_ms"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be finite")


def make_report(model: str, scope: str, energy_j_per_it: float, latency_ms: float,
                mean_err_percent: float | None = None, power_w: float | None = None,
                flops: int | None = None, dataset_size: int | None = None) -> BenchReport:
    eta = None
    if mean_err_percent is not None and power_w is not None:
        eta = power_normalized_accuracy(mean_err_percent, power_w)
    return BenchReport(
        model=model, scope=scope,
        latency_ms_per_it=latency_ms, energy_j_per_it=energy_j_per_it,
        edp_j_ms=edp(energy_j_per_it, latency_ms),
        mean_err_percent=mean_err_percent, eta_per_watt=eta,
        flops=flops, dataset_size=dataset_size,
    )


def emit_report(reports: list[BenchReport], out_dir: Path | None = None,
                name: str = "bench") -> tuple[str, str]:
    """Comparison table as (json_text, csv_text); optionally written to disk.

    Refuses to aggregate device- and board-scope rows: the telemetry
    domains are not directly comparable.
    """
    if not reports:
        raise InvalidParameterError("need at least one report")
    scopes = {r.scope for r in reports}
    if len(scopes) > 1:
        raise InvalidParameterError(
            f"reports mix telemetry scopes {sorted(scopes)}: not directly comparable"
        )
    rows = [asdict(r) for r in reports]
    json_text = json.dumps({"kind": "bench_report", "rows": rows}, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for r in reports:
        writer.writerow([
            r.model,
            "" if r.mean_err_percent is None else repr(r.mean_err_percent),
            "" if r.flops is None else r.flops,
            repr(r.energy_j_per_it),
            repr(r.latency_ms_per_it),
            repr(r.edp_j_ms),
            r.scope,
        ])
    csv_text = buf.getvalue()
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}.json").write_text(json_text)
        (out_dir / f"{name}.csv").write_text(csv_text)
    return json_text, csv_text


def parse_report_csv(text: str) -> list[BenchReport]:
    """Reports from CSV text with columns `model`, `scope`, `energy_j_per_it`
    and `latency_ms_per_it`, plus optional `mean_err_percent`, `flops` and
    `power_w`.

    A missing `scope` column is refused rather than assumed, so rows from
    different telemetry domains are never silently mixed.
    """
    reader = csv.DictReader(io.StringIO(text))
    required = ("model", "scope", "energy_j_per_it", "latency_ms_per_it")
    missing = [c for c in required if c not in (reader.fieldnames or ())]
    if missing:
        raise InvalidParameterError(f"report CSV lacks column(s) {missing}")
    out = []
    for row in reader:
        err, flops, power = (row.get(c) for c in ("mean_err_percent", "flops", "power_w"))
        out.append(make_report(
            model=row["model"],
            scope=row["scope"],
            energy_j_per_it=float(row["energy_j_per_it"]),
            latency_ms=float(row["latency_ms_per_it"]),
            mean_err_percent=float(err) if err else None,
            power_w=float(power) if power else None,
            flops=int(float(flops)) if flops else None,
        ))
    return out
