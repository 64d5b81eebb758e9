"""Batch command-line entry point.

Subcommands: gen-data, prep-graph, train, eval, ablate, gradcheck, bench,
report. Every command reads one JSON config (schema_version 1, unknown
keys rejected), writes its artifacts plus a JSON run summary under --out,
and exits 0 on success, 1 on validation errors, 2 on runtime failures.

Heavy imports happen inside commands so --threads can pin BLAS thread
counts before numpy loads.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import typing
from pathlib import Path

SCHEMA_VERSION = 1

# Keys with no library dataclass behind them: key -> (type, default).
_ROOT_KEYS = {"schema_version": (int, SCHEMA_VERSION), "seed": (int, 0),
              "split": (tuple, (0.6, 0.2, 0.2)), "split_seed": (int, 0)}
_PLAIN_SECTIONS = {
    "graph": {"method": (str, "knn"), "k": (int, 8), "r": (float, None),
              "anchor_seed": (int, 0)},
    "gradcheck": {"probe_count": (int, 30), "step": (float, 1e-5), "samples": (int, 4)},
    "bench": {"warmup": (int, 2), "repeats": (int, 3), "telemetry_interval_s": (float, 0.01),
              "telemetry_scope": (str, "device")},
}


class _CliConfigError(ValueError):
    pass


def _dataclass_keys(cls, exclude: tuple[str, ...]) -> dict:
    """key -> (type, default) for the fields of `cls`; None stands for no default."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], None if f.default is dataclasses.MISSING else f.default)
            for f in dataclasses.fields(cls) if f.name not in exclude}


def config_sections() -> dict:
    """Allowed keys, types and defaults of each config section.

    `synth`, `model`, `training` and part of `graph` are the fields of the
    library dataclasses, so the CLI and the library share one set of defaults.
    """
    from .graphs import VknnConfig
    from .model import VirsoConfig
    from .synthetic import SynthSpec
    from .training import TrainSchedule

    sections = {key: dict(val) for key, val in _PLAIN_SECTIONS.items()}
    sections["synth"] = _dataclass_keys(SynthSpec, ("seed",))
    sections["model"] = _dataclass_keys(
        VirsoConfig, ("output_channels", "input_width", "spatial_dim"))
    sections["training"] = _dataclass_keys(TrainSchedule, ("seed",))
    sections["graph"].update(_dataclass_keys(VknnConfig, ()))
    return sections


def _check_value(val, want, where: str):
    """`val` checked against type `want`: null passes, an int is taken for a
    float and a JSON list for a tuple, and a bool is never a number."""
    if val is None:
        return None
    if want is tuple or typing.get_origin(want) is tuple:
        if not isinstance(val, list):
            raise _CliConfigError(f"config key {where!r} must be list")
        return tuple(val)
    if want is float and isinstance(val, int) and not isinstance(val, bool):
        return float(val)
    if (want in (int, float) and isinstance(val, bool)) or not isinstance(val, want):
        raise _CliConfigError(f"config key {where!r} must be {want.__name__}")
    return val


def _check_section(raw: dict, keys: dict, path: str) -> dict:
    """`raw` checked against `keys`, with the defaults of absent keys filled in."""
    out = {key: default for key, (_, default) in keys.items()}
    for key, val in raw.items():
        if key not in keys:
            raise _CliConfigError(f"unknown config key {path}{key!r}")
        out[key] = _check_value(val, keys[key][0], f"{path}{key}")
    return out


def load_config(path: Path, seed_override: int | None = None) -> dict:
    path = Path(path)
    if not path.is_file():
        raise _CliConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise _CliConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise _CliConfigError("config root must be a JSON object")
    sections = config_sections()
    cfg = _check_section({k: v for k, v in raw.items() if k not in sections}, _ROOT_KEYS, "")
    if cfg["schema_version"] != SCHEMA_VERSION:
        raise _CliConfigError(f"unsupported schema_version {cfg['schema_version']}")
    for name, keys in sections.items():
        section = raw.get(name, {})
        if not isinstance(section, dict):
            raise _CliConfigError(f"config key {name!r} must be an object")
        cfg[name] = _check_section(section, keys, f"{name}.")
    if seed_override is not None:
        cfg["seed"] = seed_override
    return cfg


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _summary(out: Path, command: str, cfg: dict, artifacts: list[str]):
    _write_json(Path(out) / f"summary_{command.replace('-', '_')}.json",
                {"command": command, "seed": cfg["seed"], "artifacts": artifacts})
    _write_json(Path(out) / "config.resolved.json", cfg)


# ---------------------------------------------------------------------------
# shared artifact plumbing


def _dataset_dir(out: Path) -> Path:
    return Path(out) / "dataset"


def _graph_dir(out: Path) -> Path:
    return Path(out) / "graph"


def _load_dataset(out):
    from .training import load_dataset

    return load_dataset(_dataset_dir(out))


def _build_graph(cfg, points):
    from .errors import ConfigError
    from .graphs import VknnConfig, build_knn, build_radius, build_vknn, compute_edge_weights

    g = cfg["graph"]
    method = g["method"]
    if method == "knn":
        if g["k"] is None:
            raise ConfigError("graph.k required for method 'knn'")
        graph = build_knn(points, g["k"])
    elif method == "radius":
        if g["r"] is None:
            raise ConfigError("graph.r required for method 'radius'")
        graph = build_radius(points, g["r"])
    elif method == "vknn":
        for key in ("k_min", "k_max", "density_radius"):
            if g[key] is None:
                raise ConfigError(f"graph.{key} required for method 'vknn'")
        graph = build_vknn(points, VknnConfig(
            k_min=g["k_min"], k_max=g["k_max"],
            density_radius=g["density_radius"],
            alpha_floor=g["alpha_floor"],
        ))
    else:
        raise ConfigError(f"unknown graph.method {method!r}")
    return compute_edge_weights(graph, points)


def _solve_basis(cfg, graph):
    from .spectral import lobpcg_smallest, normalized_laplacian

    lap = normalized_laplacian(graph, weighted=cfg["model"]["weighted_laplacian"])
    return lobpcg_smallest(lap, cfg["model"]["m"], seed=cfg["seed"])


def _prepare(cfg, graph, points, basis):
    from .graphs import anchor_embeddings
    from .model import GraphArtifacts

    anchors = anchor_embeddings(graph, cfg["model"]["alpha_anchors"],
                                seed=cfg["graph"]["anchor_seed"])
    return GraphArtifacts.prepare(graph, points.coords, basis=basis, anchors=anchors)


def _load_artifacts(cfg, out):
    """Graph + basis + anchors, rebuilt as GraphArtifacts for the model."""
    from .graphs import load_graph
    from .spectral import load_eigen_basis

    ds, points = _load_dataset(out)
    gdir = _graph_dir(out)
    graph = load_graph(gdir / "graph.json")
    basis = None
    if cfg["model"]["variant"] != "spatial_only":
        basis = load_eigen_basis(gdir / "basis.json", expected_graph_hash=graph.content_hash())
    return ds, points, _prepare(cfg, graph, points, basis)


def _load_trained(cfg, args):
    """Checkpoint, graph artifacts and normalizers for `eval` and `bench`.

    The model section of `cfg` takes the checkpoint's architecture, and
    the checkpoint must name the graph on disk and the anchors rebuilt
    from `cfg` (when it records them).
    """
    from .errors import ArtifactError
    from .model import load_checkpoint
    from .training import load_normalizers

    out = Path(args.out)
    ckpt = Path(args.checkpoint) if args.checkpoint else out / "checkpoint.json"
    loaded = []

    def rebuilt_anchors(config):
        """Artifacts for the checkpoint's architecture; returns their anchor ids."""
        for key in ("variant", "alpha_anchors", "m"):
            cfg["model"][key] = getattr(config, key)
        loaded.append(_load_artifacts(cfg, out))
        return loaded[0][2].anchors.anchor_ids

    model, graph_hash = load_checkpoint(ckpt, expected_anchor_ids=rebuilt_anchors)
    (ds, _, arts), = loaded
    if graph_hash != arts.graph.content_hash():
        raise ArtifactError(
            f"checkpoint {ckpt} was trained on graph {graph_hash}, but "
            f"{_graph_dir(out) / 'graph.json'} is graph {arts.graph.content_hash()}"
        )
    return (model, ds, arts, *load_normalizers(ckpt.parent / "normalizers.json"))


def _model_config(cfg, ds, points, variant=None):
    from .model import VirsoConfig

    m = dict(cfg["model"])
    if variant is not None:
        m["variant"] = variant
    return VirsoConfig(
        output_channels=ds.channels, input_width=ds.q, spatial_dim=points.d, **m
    )


def _schedule(cfg):
    from .training import TrainSchedule

    return TrainSchedule(seed=cfg["seed"], **cfg["training"])


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    from .training import save_dataset, split_dataset

    from .synthetic import SynthSpec, generate_dataset

    cfg = load_config(args.config, args.seed)
    ds, points = generate_dataset(SynthSpec(seed=cfg["seed"], **cfg["synth"]))
    ds = split_dataset(ds, cfg["split"], seed=cfg["split_seed"])
    out = Path(args.out)
    save_dataset(ds, _dataset_dir(out), points)
    _summary(out, "gen-data", cfg, ["dataset/dataset.json"])
    print(f"gen-data: {ds.count} samples on {ds.n} nodes -> {out / 'dataset'}")
    return 0


def cmd_prep_graph(args) -> int:
    from .graphs import degree_stats, save_graph
    from .spectral import save_eigen_basis

    cfg = load_config(args.config, args.seed)
    if args.graph:
        cfg["graph"]["method"] = args.graph
    out = Path(args.out)
    ds, points = _load_dataset(out)
    graph = _build_graph(cfg, points)
    gdir = _graph_dir(out)
    save_graph(graph, gdir)
    artifacts = ["graph/graph.json"]
    stats = degree_stats(graph)
    solved = ""
    if cfg["model"]["variant"] != "spatial_only":
        basis = _solve_basis(cfg, graph)
        save_eigen_basis(basis, gdir, graph.content_hash())
        artifacts.append("graph/basis.json")
        solved = f", {basis.m} modes in {basis.iterations} LOBPCG iterations"
    _write_json(gdir / "degree_stats.json", stats)
    _summary(out, "prep-graph", cfg, artifacts)
    print(f"prep-graph: {cfg['graph']['method']} graph, "
          f"{stats['edge_count']} edges, degrees "
          f"[{stats['min_degree']}, {stats['max_degree']}]{solved} -> {gdir}")
    return 0


def _train_once(cfg, out, variant=None, report_dir=None):
    from .model import VirsoModel
    from .training import train

    ds, points, arts = _load_artifacts(cfg, out)
    model_cfg = _model_config(cfg, ds, points, variant=variant)
    model = VirsoModel(model_cfg, seed=cfg["seed"])
    report, input_norm, target_norm = train(
        model, ds, arts, _schedule(cfg), out_dir=report_dir
    )
    return model, report, input_norm, target_norm, ds, arts


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.seed)
    variant = _variant_from_flag(args.variant)
    out = Path(args.out)
    model, report, input_norm, target_norm, ds, arts = _train_once(
        cfg, out, variant=variant, report_dir=out
    )
    from .model import save_checkpoint
    from .training import save_normalizers

    save_checkpoint(model, out, graph_hash=arts.graph.content_hash(),
                    anchor_ids=arts.anchors.anchor_ids)
    save_normalizers(input_norm, target_norm, out)
    _summary(out, "train", cfg, ["checkpoint.json", "train_report.json",
                                 "loss_curve.csv", "normalizers.json"])
    print(f"train: best val {report.best_val:.4%} at epoch {report.best_epoch} "
          f"({report.stopping_reason}, {report.epochs_run} epochs, "
          f"{report.wall_time_s:.1f}s)")
    return 0


def cmd_eval(args) -> int:
    from .training import evaluate

    cfg = load_config(args.config, args.seed)
    out = Path(args.out)
    model, ds, arts, input_norm, target_norm = _load_trained(cfg, args)
    ev = evaluate(model, ds, arts, input_norm, target_norm, split="test")
    _write_json(out / "eval_report.json", ev.as_dict())
    _summary(out, "eval", cfg, ["eval_report.json"])
    pct = ev.percentiles
    print(f"eval: mean {ev.mean:.4%} | best {pct['best']:.4%} "
          f"p50 {pct['p50']:.4%} worst {pct['worst']:.4%}")
    return 0


_ABLATION_ORDER = ("spatial_only", "spectral_only", "no_skip", "full")


def _ablation_model_cfg(cfg, ds, points, variant_key):
    if variant_key == "no_skip":
        mc = _model_config(cfg, ds, points, variant="spectral_only")
        mc.use_identity_skip = False
        mc.use_spectral_weighted_skip = False
        return mc
    return _model_config(cfg, ds, points, variant=variant_key)


def cmd_ablate(args) -> int:
    import csv as _csv

    from .errors import InvalidParameterError
    from .model import VirsoModel, param_count
    from .training import train

    cfg = load_config(args.config, args.seed)
    out = Path(args.out)
    ds, points = _load_dataset(out)
    rows = []
    for method in ("knn", "vknn"):
        gcfg = dict(cfg)
        gcfg["graph"] = dict(cfg["graph"])
        gcfg["graph"]["method"] = method
        graph = _build_graph(gcfg, points)
        arts = _prepare(cfg, graph, points, _solve_basis(cfg, graph))
        for variant_key in _ABLATION_ORDER:
            mc = _ablation_model_cfg(cfg, ds, points, variant_key)
            model = VirsoModel(mc, seed=cfg["seed"])
            test = train(model, ds, arts, _schedule(cfg))[0].final_test
            if test is None:
                raise InvalidParameterError("ablation needs a non-empty test split")
            rows.append({
                "graph": method,
                "variant": variant_key,
                "params": param_count(mc),
                "edges": graph.edge_count,
                "test_mean_err_percent": test["mean_percent"],
                "per_channel_percent": test["per_channel_mean_percent"],
            })
            print(f"ablate: {method}/{variant_key}: "
                  f"{rows[-1]['test_mean_err_percent']:.3f}%")
    _write_json(out / "ablation.json", {"rows": rows})
    with open(out / "ablation.csv", "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["graph", "variant", "params", "edges", "test_mean_err_percent"])
        for r in rows:
            writer.writerow([r["graph"], r["variant"], r["params"], r["edges"],
                             repr(r["test_mean_err_percent"])])
    _summary(out, "ablate", cfg, ["ablation.json", "ablation.csv"])
    return 0


def cmd_gradcheck(args) -> int:
    from .autodiff import grad_check
    from .model import VirsoModel
    from .training import Normalizer, batch_loss

    cfg = load_config(args.config, args.seed)
    out = Path(args.out)
    ds, points, arts = _load_artifacts(cfg, out)
    model_cfg = _model_config(cfg, ds, points, variant=_variant_from_flag(args.variant))
    model = VirsoModel(model_cfg, seed=cfg["seed"])
    gc = cfg["gradcheck"]
    idx = ds.indices_of("train")[: gc["samples"]]
    target_norm = Normalizer(mode=cfg["training"]["target_norm_mode"]).fit(ds.targets[idx])
    input_norm = Normalizer(mode="gaussian").fit(ds.inputs[idx])
    u = input_norm.apply(ds.inputs[idx])
    truth = ds.targets[idx]

    def loss_fn():
        return batch_loss(model, arts, u, truth, target_norm, divisor=idx.size)

    err = grad_check(loss_fn, model.param_list(),
                     probe_count=gc["probe_count"], step=gc["step"], seed=cfg["seed"])
    payload = {"max_rel_err": err, "probe_count": gc["probe_count"], "step": gc["step"]}
    _write_json(out / "gradcheck.json", payload)
    _summary(out, "gradcheck", cfg, ["gradcheck.json"])
    print(f"gradcheck: max relative error {err:.3e} over {gc['probe_count']} probes")
    return 0


def cmd_bench(args) -> int:
    from .benchmarks import (
        emit_report,
        energy_per_iteration,
        make_report,
        measure_latency,
        read_telemetry_csv,
    )
    from .model import flop_count

    cfg = load_config(args.config, args.seed)
    out = Path(args.out)
    model, ds, arts, input_norm, _ = _load_trained(cfg, args)
    idx = ds.indices_of("test")
    bench = cfg["bench"]
    latency = measure_latency(model, arts, input_norm.apply(ds.inputs[idx]),
                              warmup=bench["warmup"], repeats=bench["repeats"])
    flops = flop_count(model.config, n=ds.n, e=arts.src.size)
    payload = {
        "latency_ms_per_it": latency,
        "flops": flops,
        "dataset_size": int(idx.size),
        "scope": bench["telemetry_scope"],
    }
    artifacts = ["bench_summary.json"]
    if args.telemetry:
        trace = read_telemetry_csv(Path(args.telemetry),
                                   interval=bench["telemetry_interval_s"],
                                   scope=bench["telemetry_scope"])
        energy = energy_per_iteration(trace, iterations=int(idx.size))
        payload["energy_j_per_it"] = energy
        report = make_report(
            model=f"virso-{model.config.variant}", scope=trace.scope,
            energy_j_per_it=energy, latency_ms=latency,
            flops=flops["total"], dataset_size=int(idx.size),
        )
        emit_report([report], out_dir=out, name="bench")
        artifacts += ["bench.json", "bench.csv"]
    _write_json(out / "bench_summary.json", payload)
    _summary(out, "bench", cfg, artifacts)
    print(f"bench: {latency:.2f} ms/it over {idx.size} samples, "
          f"{flops['per_sample'] / 1e6:.1f} MFLOPs/sample served + "
          f"{flops['per_graph'] / 1e6:.1f} MFLOPs of gates per graph")
    return 0


def cmd_report(args) -> int:
    from .benchmarks import emit_report, parse_report_csv

    out = Path(args.out)
    inputs = Path(args.inputs)
    if not inputs.is_file():
        raise _CliConfigError(f"inputs CSV not found: {inputs}")
    reports = parse_report_csv(inputs.read_text())
    if not reports:
        raise _CliConfigError(f"no rows in {inputs}")
    emit_report(reports, out_dir=out, name="report")
    print(f"report: {len(reports)} rows -> {out / 'report.csv'}")
    return 0


# ---------------------------------------------------------------------------
# wiring


def _variant_from_flag(flag: str | None) -> str | None:
    return {None: None, "full": "full", "spectral": "spectral_only",
            "spatial": "spatial_only"}[flag]


def _add_common(sub, config_required=True):
    if config_required:
        sub.add_argument("--config", required=True, help="JSON config path")
    sub.add_argument("--out", required=True, help="artifact directory")
    sub.add_argument("--seed", type=int, default=None, help="override config seed")
    sub.add_argument("--threads", type=int, default=None,
                     help="BLAS thread count (1 forces full determinism)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="virso-kit",
        description="sparse-boundary-to-dense-field reconstruction pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (("gen-data", cmd_gen_data), ("prep-graph", cmd_prep_graph),
                     ("train", cmd_train), ("eval", cmd_eval),
                     ("ablate", cmd_ablate), ("gradcheck", cmd_gradcheck),
                     ("bench", cmd_bench)):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(fn=fn)
        if name == "prep-graph":
            p.add_argument("--graph", choices=("knn", "radius", "vknn"), default=None)
        if name in ("train", "gradcheck"):
            p.add_argument("--variant", choices=("full", "spectral", "spatial"),
                           default=None)
        if name in ("eval", "bench"):
            p.add_argument("--checkpoint", default=None)
        if name == "bench":
            p.add_argument("--telemetry", default=None, help="telemetry CSV path")

    p = sub.add_parser("report")
    p.add_argument("--inputs", required=True, help="published-inputs CSV")
    _add_common(p, config_required=False)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("VIRSO_KIT_LOG", "error").lower(), logging.ERROR)
    logging.basicConfig(level=level, format="%(name)s: %(message)s")

    from .errors import ConfigError, InvalidInputError, InvalidParameterError

    try:
        return args.fn(args)
    except (_CliConfigError, ConfigError, InvalidParameterError, InvalidInputError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # runtime failures: missing artifacts, solver errors
        print(f"runtime failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
