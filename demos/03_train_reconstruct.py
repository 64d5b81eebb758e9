"""End-to-end sparse-to-dense reconstruction on a manufactured dataset.

Generates paired (boundary vector, interior field) samples, prepares the
graph artifacts, trains a small spectral-spatial operator, and reports
physical-unit errors with percentile statistics. Takes a minute or two on
one core.
"""

import time

import numpy as np

from virso_kit.graphs import anchor_embeddings, build_knn, compute_edge_weights
from virso_kit.model import GraphArtifacts, VirsoConfig, VirsoModel, flop_count, predict
from virso_kit.spectral import lobpcg_smallest, normalized_laplacian
from virso_kit.synthetic import SynthSpec, generate_dataset
from virso_kit.training import TrainSchedule, evaluate, split_dataset, train

spec = SynthSpec(n_target=300, sample_count=400, seed=0)
dataset, points = generate_dataset(spec)
dataset = split_dataset(dataset, (0.7, 0.15, 0.15), seed=0)
print(f"dataset: {dataset.count} samples, {dataset.q} inputs -> "
      f"{dataset.n} nodes x {dataset.channels} channels "
      f"(reconstruction ratio {dataset.meta['reconstruction_ratio']:.0f}:1)")

graph = compute_edge_weights(build_knn(points, 4), points)
basis = lobpcg_smallest(normalized_laplacian(graph), 12, seed=0)
anchors = anchor_embeddings(graph, 8, seed=0)
arts = GraphArtifacts.prepare(graph, points.coords, basis=basis, anchors=anchors)

config = VirsoConfig(
    T=3, d_v=10, m=12, d_latent=12, output_channels=3, input_width=dataset.q,
    alpha_anchors=8, gate_hidden=8, gate_weight_width=4,
    embed_hidden=32, down_hidden=32,
)
model = VirsoModel(config, seed=0)
fl = flop_count(config, n=dataset.n, e=arts.src.size)
print(f"model: {model.num_params()} parameters, "
      f"{fl['per_sample'] / 1e6:.1f} MFLOPs per served sample + "
      f"{fl['per_graph'] / 1e6:.1f} MFLOPs of gates per graph")

schedule = TrainSchedule(lr=3e-3, decay_step=30, batch_size=32, max_epochs=40,
                         patience=40, weight_decay=1e-3, seed=0)
t0 = time.perf_counter()
report, input_norm, target_norm = train(model, dataset, arts, schedule)
print(f"\ntrained {report.epochs_run} epochs in {time.perf_counter() - t0:.0f}s "
      f"({report.stopping_reason}); best val {report.best_val:.2%} "
      f"at epoch {report.best_epoch}")

ev = evaluate(model, dataset, arts, input_norm, target_norm, split="test")
print(f"test mean relative L2: {ev.mean:.2%}")
print("per channel (T, v, k):",
      " ".join(f"{e:.2%}" for e in ev.per_channel_mean))
print("percentiles:", {k: f"{v:.2%}" for k, v in ev.percentiles.items()})

# streaming single-sample inference in physical units
i = int(dataset.indices_of("test")[0])
pred = target_norm.invert(predict(model, arts, input_norm.apply(dataset.inputs[i])))
truth = dataset.targets[i]
err = np.linalg.norm(pred - truth, axis=0) / np.linalg.norm(truth, axis=0)
print(f"\nsingle-sample check ({dataset.ids[i]}): per-channel errors "
      + " ".join(f"{e:.2%}" for e in err))
