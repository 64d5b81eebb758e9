import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from virso_kit.cli import config_sections, load_config, main
from virso_kit.graphs import anchor_embeddings, load_graph
from virso_kit.model import VirsoConfig, flop_count, load_checkpoint
from virso_kit.synthetic import SynthSpec
from virso_kit.training import TrainSchedule


def micro_config(tmp_path: Path, **over) -> Path:
    cfg = {
        "schema_version": 1,
        "seed": 0,
        "synth": {"n_target": 90, "sample_count": 30, "profile_len": 10},
        "split": [0.6, 0.2, 0.2],
        "graph": {"method": "knn", "k": 5},
        "model": {
            "T": 1, "d_v": 6, "m": 6, "d_latent": 6, "alpha_anchors": 4,
            "gate_hidden": 4, "gate_weight_width": 2,
            "embed_hidden": 8, "down_hidden": 8,
        },
        "training": {"lr": 2e-3, "batch_size": 9, "max_epochs": 3, "patience": 5},
        "gradcheck": {"probe_count": 6, "samples": 3},
        "bench": {"warmup": 1, "repeats": 1},
    }
    for key, val in over.items():
        if isinstance(val, dict):
            cfg.setdefault(key, {}).update(val)
        else:
            cfg[key] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_gen_data_deterministic_hashes(tmp_path):
    cfg = micro_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["gen-data", "--config", str(cfg), "--out", str(out2)]) == 0
    for manifest in ("dataset.json", "points.json"):
        t1 = json.loads((out1 / "dataset" / manifest).read_text())["blobs"]
        t2 = json.loads((out2 / "dataset" / manifest).read_text())["blobs"]
        assert t1 == t2
    raw1 = (out1 / "dataset" / "targets.f32").read_bytes()
    raw2 = (out2 / "dataset" / "targets.f32").read_bytes()
    assert raw1 == raw2


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 1, "optimizer": "sgd"}))
    assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "o")]) == 1


def test_bad_schema_version_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 2}))
    assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "o")]) == 1


def test_train_before_prep_graph_names_missing_artifact(tmp_path, capsys):
    cfg = micro_config(tmp_path)
    out = tmp_path / "run"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    code = main(["train", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "prep-graph" in captured.err


def test_full_micro_pipeline(tmp_path, capsys):
    cfg = micro_config(tmp_path)
    out = tmp_path / "run"
    for cmd in (["gen-data"], ["prep-graph"], ["train"], ["eval"], ["gradcheck"],
                ["bench"]):
        code = main(cmd + ["--config", str(cfg), "--out", str(out)])
        assert code == 0, f"{cmd} failed: {capsys.readouterr()}"
    assert (out / "checkpoint.json").is_file()
    assert (out / "loss_curve.csv").is_file()
    assert (out / "config.resolved.json").is_file()
    ev = json.loads((out / "eval_report.json").read_text())
    assert set(ev["percentiles"]) == {"best", "p25", "p50", "p75", "p95", "worst"}
    gc = json.loads((out / "gradcheck.json").read_text())
    assert gc["max_rel_err"] < 1e-4
    bench = json.loads((out / "bench_summary.json").read_text())
    assert bench["latency_ms_per_it"] > 0
    # the spatial branch runs over the directed edges, GraphArtifacts.src
    model, _ = load_checkpoint(out / "checkpoint.json")
    src, _, _ = load_graph(out / "graph" / "graph.json").directed()
    assert bench["flops"]["total"] == flop_count(model.config, n=90, e=src.size)["total"]
    resolved = json.loads((out / "config.resolved.json").read_text())
    assert resolved["seed"] == 0 and resolved["training"]["lr"] == 2e-3


def test_prep_graph_records_solver_history(tmp_path, capsys):
    from virso_kit.spectral import load_eigen_basis, normalized_laplacian

    cfg = micro_config(tmp_path)
    out = tmp_path / "run"
    for cmd in ("gen-data", "prep-graph"):
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
    man = json.loads((out / "graph" / "basis.json").read_text())
    assert man["iterations"] >= 1
    assert f"in {man['iterations']} LOBPCG iterations" in capsys.readouterr().out
    basis = load_eigen_basis(out / "graph" / "basis.json")
    assert basis.iterations == man["iterations"]
    assert basis.residual_history == tuple(man["residual_history"])
    lap = normalized_laplacian(load_graph(out / "graph" / "graph.json"))
    certified = np.linalg.norm(lap @ basis.q - basis.q * basis.sigma, axis=0).max()
    assert man["residual_history"][-1] == pytest.approx(certified, rel=1e-6)
    assert man["residual_history"][-1] <= 1e-10 * max(1.0, basis.sigma.max())


def test_bench_with_telemetry_emits_report(tmp_path):
    cfg = micro_config(tmp_path)
    out = tmp_path / "run"
    for cmd in ("gen-data", "prep-graph", "train"):
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
    trace = tmp_path / "trace.csv"
    rows = "\n".join(f"{0.01 * i},{50.0}" for i in range(200))
    trace.write_text("t_s,power_w\n" + rows + "\n")
    assert main(["bench", "--config", str(cfg), "--out", str(out),
                 "--telemetry", str(trace)]) == 0
    report = json.loads((out / "bench.json").read_text())
    row = report["rows"][0]
    assert row["scope"] == "device"
    assert np.isclose(row["edp_j_ms"],
                      row["energy_j_per_it"] * row["latency_ms_per_it"])


def test_variant_flag_spectral(tmp_path):
    cfg = micro_config(tmp_path)
    out = tmp_path / "run"
    for cmd in ("gen-data", "prep-graph"):
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out),
                 "--variant", "spectral"]) == 0
    man = json.loads((out / "checkpoint.json").read_text())
    assert man["config"]["variant"] == "spectral_only"
    assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 0


def test_train_determinism_bit_identical_artifacts(tmp_path):
    cfg = micro_config(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        for cmd in ("gen-data", "prep-graph", "train"):
            assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    csv_a = (outs[0] / "loss_curve.csv").read_bytes()
    csv_b = (outs[1] / "loss_curve.csv").read_bytes()
    assert csv_a == csv_b
    ck_a = (outs[0] / "checkpoint.f64").read_bytes()
    ck_b = (outs[1] / "checkpoint.f64").read_bytes()
    assert ck_a == ck_b


def test_eval_reproduces_final_test_exactly(tmp_path):
    # parameters are stored as float64, so the reloaded model is the trained one
    cfg = micro_config(tmp_path)
    out = tmp_path / "run"
    for cmd in ("gen-data", "prep-graph", "train", "eval"):
        assert main([cmd, "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 0
    final = json.loads((out / "train_report.json").read_text())["final_test"]
    ev = json.loads((out / "eval_report.json").read_text())
    assert ev["mean"] == final["mean"]
    assert ev["per_sample"] == final["per_sample"]


def test_eval_refuses_a_tampered_normalizer_blob(tmp_path):
    from virso_kit.cli import build_parser
    from virso_kit.errors import ArtifactError

    cfg = micro_config(tmp_path)
    out = tmp_path / "run"
    for cmd in ("gen-data", "prep-graph", "train"):
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
    blob = out / "normalizers.input_mu.f64"
    mu = np.frombuffer(blob.read_bytes(), dtype="<f8").copy()
    mu[0] += 1.0
    blob.write_bytes(mu.tobytes())
    args = build_parser().parse_args(["eval", "--config", str(cfg), "--out", str(out)])
    with pytest.raises(ArtifactError, match=r"normalizers\.input_mu\.f64"):
        args.fn(args)
    assert not (out / "eval_report.json").exists()


def test_bench_reports_gate_flops_per_graph_and_per_sample(tmp_path, capsys):
    cfg = micro_config(tmp_path)
    out = tmp_path / "run"
    for cmd in ("gen-data", "prep-graph", "train", "bench"):
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
    flops = json.loads((out / "bench_summary.json").read_text())["flops"]
    assert flops["per_graph"] > 0 and flops["per_sample"] > 0
    assert flops["per_graph"] + flops["per_sample"] == flops["total"]
    printed = capsys.readouterr().out
    assert f"{flops['per_sample'] / 1e6:.1f} MFLOPs/sample served" in printed
    assert f"{flops['per_graph'] / 1e6:.1f} MFLOPs of gates per graph" in printed


def test_eval_refuses_checkpoint_of_another_graph(tmp_path, capsys):
    cfg = micro_config(tmp_path)
    out = tmp_path / "run"
    for cmd in ("gen-data", "prep-graph", "train"):
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
    trained_on = json.loads((out / "checkpoint.json").read_text())["graph_hash"]
    assert main(["prep-graph", "--config", str(micro_config(tmp_path, graph={"k": 6})),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    on_disk = load_graph(out / "graph" / "graph.json").content_hash()
    assert trained_on in err and on_disk in err and trained_on != on_disk


def test_eval_refuses_checkpoint_of_other_anchors(tmp_path, capsys):
    cfg = micro_config(tmp_path)
    out = tmp_path / "run"
    for cmd in ("gen-data", "prep-graph", "train"):
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
    trained_with = json.loads((out / "checkpoint.json").read_text())["anchor_ids"]
    capsys.readouterr()
    (tmp_path / "other").mkdir()
    other = micro_config(tmp_path / "other", graph={"anchor_seed": 5})
    assert main(["eval", "--config", str(other), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    graph = load_graph(out / "graph" / "graph.json")
    rebuilt = anchor_embeddings(graph, len(trained_with), seed=5).anchor_ids.tolist()
    assert str(trained_with) in err and str(rebuilt) in err and trained_with != rebuilt
    assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 0


def test_report_refuses_csv_without_scope(tmp_path, capsys):
    inputs = tmp_path / "noscope.csv"
    inputs.write_text("model,energy_j_per_it,latency_ms_per_it\nm1,1.0,2.0\n")
    assert main(["report", "--inputs", str(inputs), "--out", str(tmp_path / "rep")]) == 1
    assert "scope" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_report_command_reproduces_edp_column(tmp_path):
    inputs = tmp_path / "table5.csv"
    with open(inputs, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "mean_err_percent", "flops",
                         "energy_j_per_it", "latency_ms_per_it", "power_w", "scope"])
        writer.writerow(["graph-baseline", 9.40, 429490000000, 10.07, 20.48, 572.00, "device"])
        writer.writerow(["fourier-geo", 1.09, 1580000000, 0.59, 4.94, 139.39, "device"])
        writer.writerow(["ours-2-layer", 1.95, 610000000, 0.54, 4.29, 146.35, "device"])
        writer.writerow(["ours-spectral-only", 0.90, 980000000, 0.86, 8.18, 124.41, "device"])
        writer.writerow(["ours-full-10-layer", 0.83, 2030000000, 1.30, 7.77, 193.35, "device"])
    out = tmp_path / "rep"
    assert main(["report", "--inputs", str(inputs), "--out", str(out)]) == 0
    got = json.loads((out / "report.json").read_text())
    edps = [r["edp_j_ms"] for r in got["rows"]]
    for val, want in zip(edps, [206.2, 2.91, 2.32, 7.03, 10.1]):
        assert abs(val - want) / want < 0.005
    etas = [r["eta_per_watt"] for r in got["rows"]]
    assert abs(etas[3] - 0.893) / 0.893 < 0.005


def test_ablate_micro_emits_ordered_table(tmp_path):
    cfg = micro_config(
        tmp_path,
        training={"lr": 2e-3, "batch_size": 9, "max_epochs": 2, "patience": 3},
        graph={"method": "knn", "k": 5, "k_min": 3, "k_max": 8,
               "density_radius": 0.12},
    )
    out = tmp_path / "run"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
    table = json.loads((out / "ablation.json").read_text())["rows"]
    assert [r["variant"] for r in table] == [
        "spatial_only", "spectral_only", "no_skip", "full",
        "spatial_only", "spectral_only", "no_skip", "full",
    ]
    assert [r["graph"] for r in table[:4]] == ["knn"] * 4
    assert [r["graph"] for r in table[4:]] == ["vknn"] * 4
    assert (out / "ablation.csv").is_file()


def test_missing_config_file(tmp_path):
    assert main(["train", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 1


def test_defaults_follow_reference_schedule(tmp_path):
    from virso_kit.cli import load_config

    path = tmp_path / "min.json"
    path.write_text(json.dumps({"schema_version": 1}))
    cfg = load_config(path)
    tr = cfg["training"]
    assert tr["lr"] == 1e-3
    assert tr["decay_step"] == 40 and tr["decay"] == 0.5
    assert tr["batch_size"] == 16
    assert tr["weight_decay"] == 1e-3
    assert tr["patience"] == 40
    assert tr["max_epochs"] == 500


def test_config_sections_are_the_library_dataclass_fields(tmp_path):
    library = {
        "synth": (SynthSpec, {"seed"}),
        "model": (VirsoConfig, {"output_channels", "input_width", "spatial_dim"}),
        "training": (TrainSchedule, {"seed"}),
    }
    path = tmp_path / "min.json"
    path.write_text(json.dumps({"schema_version": 1}))
    cfg = load_config(path)
    sections = config_sections()
    for name, (cls, excluded) in library.items():
        fields = {f.name: f.default for f in dataclasses.fields(cls)
                  if f.name not in excluded}
        assert set(sections[name]) == set(fields)
        assert cfg[name] == fields
        for key in excluded:
            path.write_text(json.dumps({name: {key: 1}}))
            with pytest.raises(ValueError, match="unknown config key"):
                load_config(path)
    path.write_text(json.dumps({"synth": {"a_range": [500, 600]},
                                "training": {"lr": 1}}))
    cfg = load_config(path)
    assert cfg["synth"]["a_range"] == (500, 600) and cfg["training"]["lr"] == 1.0
    assert isinstance(cfg["training"]["lr"], float)
    path.write_text(json.dumps({"training": {"lr": True}}))
    with pytest.raises(ValueError, match="must be float"):
        load_config(path)
