"""Every artifact save/load pair goes through the one checked format."""

import importlib
import inspect
import json
import pkgutil
import shutil

import numpy as np
import pytest

import virso_kit
from virso_kit.errors import ArtifactError
from virso_kit.graphs import (
    PointCloud,
    build_knn,
    compute_edge_weights,
    load_graph,
    load_point_cloud,
    save_graph,
    save_point_cloud,
)
from virso_kit.model import VirsoConfig, VirsoModel, load_checkpoint, save_checkpoint
from virso_kit.spectral import (
    dense_eigen_reference,
    load_eigen_basis,
    normalized_laplacian,
    save_eigen_basis,
)
from virso_kit.synthetic import SynthSpec, generate_dataset
from virso_kit.training import (
    Normalizer,
    load_dataset,
    load_normalizers,
    save_dataset,
    save_normalizers,
    split_dataset,
)


def _f32(a):
    return np.asarray(a, dtype="<f4").astype(np.float64)


def _graph(seed):
    pts = PointCloud(np.random.default_rng(seed).uniform(0, 1, size=(40, 2)))
    return compute_edge_weights(build_knn(pts, 4), pts)


def _point_cloud(seed, out):
    pts = PointCloud(np.random.default_rng(seed).uniform(0, 1, size=(30, 2)))
    return pts, save_point_cloud(pts, out)


def _graph_artifact(seed, out):
    g = _graph(seed)
    return g, save_graph(g, out)


def _eigen_basis(seed, out):
    g = _graph(seed)
    basis = dense_eigen_reference(normalized_laplacian(g), 5)
    return basis, save_eigen_basis(basis, out, g.content_hash())


def _dataset(seed, out):
    ds, pts = generate_dataset(SynthSpec(n_target=60, sample_count=8, seed=seed))
    ds = split_dataset(ds, (0.5, 0.25, 0.25), seed=seed)
    return (ds, pts), save_dataset(ds, out, pts)


def _checkpoint(seed, out):
    model = VirsoModel(VirsoConfig(
        T=1, d_v=4, m=4, d_latent=4, output_channels=2, input_width=5, spatial_dim=2,
        alpha_anchors=3, gate_hidden=3, gate_weight_width=2, embed_hidden=6, down_hidden=6,
    ), seed=seed)
    return model, save_checkpoint(model, out, graph_hash="f" * 64, anchor_ids=np.arange(3))


def _normalizers(seed, out):
    rng = np.random.default_rng(seed)
    norms = (Normalizer(mode="gaussian").fit(rng.standard_normal((9, 5))),
             Normalizer(mode="minmax").fit(rng.standard_normal((9, 4, 3))))
    return norms, save_normalizers(*norms, out)


def _same_point_cloud(saved, loaded):
    assert np.array_equal(loaded.coords, _f32(saved.coords))


def _same_graph(saved, loaded):
    assert loaded.n == saved.n and np.array_equal(loaded.edges, saved.edges)
    assert np.array_equal(loaded.weights, _f32(saved.weights))


def _same_eigen_basis(saved, loaded):
    assert np.array_equal(loaded.q, saved.q) and np.array_equal(loaded.sigma, saved.sigma)
    assert (loaded.iterations, loaded.residual_history) == (None, None)


def _same_dataset(saved, loaded):
    (ds, pts), (back, back_pts) = saved, loaded
    assert np.array_equal(back.inputs, _f32(ds.inputs))
    assert np.array_equal(back.targets, _f32(ds.targets))
    assert back.ids == ds.ids and np.array_equal(back.splits, ds.splits)
    assert back.meta == json.loads(json.dumps(ds.meta))  # JSON keeps tuples as lists
    assert np.array_equal(back_pts.coords, _f32(pts.coords))


def _same_checkpoint(saved, loaded):
    model, graph_hash = loaded
    assert graph_hash == "f" * 64 and model.config == saved.config
    for name, p in saved.params.items():
        assert np.array_equal(model.params[name].data, p.data)


def _same_normalizers(saved, loaded):
    for norm, back in zip(saved, loaded):
        assert back.state() == norm.state()


# kind -> (save a seeded artifact into a directory, load it, compare at storage precision)
KINDS = {
    "point_cloud": (_point_cloud, load_point_cloud, _same_point_cloud),
    "graph": (_graph_artifact, load_graph, _same_graph),
    "eigen_basis": (_eigen_basis, load_eigen_basis, _same_eigen_basis),
    "dataset": (_dataset, lambda man: load_dataset(man.parent), _same_dataset),
    "checkpoint": (_checkpoint, load_checkpoint, _same_checkpoint),
    "normalizers": (_normalizers, load_normalizers, _same_normalizers),
}
PRODUCERS = {"point_cloud": "gen-data", "graph": "prep-graph", "eigen_basis": "prep-graph",
             "dataset": "gen-data", "checkpoint": "train", "normalizers": "train"}


def _blob_files(man):
    return [entry["file"] for entry in json.loads(man.read_text())["blobs"].values()]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_round_trip_is_exact_at_storage_precision(tmp_path, kind):
    save, load, same = KINDS[kind]
    saved, man = save(7, tmp_path)
    same(saved, load(man))


def _truncate(path, other):
    path.write_bytes(path.read_bytes()[:-1])


def _flip_byte(path, other):
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))


def _copy_from_other_save(path, other):
    shutil.copyfile(other / path.name, path)


def _delete(path, other):
    path.unlink()


FAULTS = {"truncated": _truncate, "flipped_byte": _flip_byte,
          "other_save": _copy_from_other_save, "missing": _delete}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_faulty_blob_refused_naming_the_file(tmp_path, kind, fault):
    save, load, _ = KINDS[kind]
    _, other = save(8, tmp_path / "other")
    for blob in _blob_files(other):
        work = tmp_path / blob.replace(".", "_")
        _, man = save(7, work)
        FAULTS[fault](work / blob, other.parent)
        with pytest.raises(ArtifactError, match=blob.replace(".", r"\.")):
            load(man)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_manifest_without_blob_table_names_the_rebuilding_command(tmp_path, kind):
    save, load, _ = KINDS[kind]
    _, man = save(7, tmp_path)
    doc = json.loads(man.read_text())
    del doc["blobs"]  # the layout every manifest had before the table
    man.write_text(json.dumps(doc))
    with pytest.raises(ArtifactError, match=f"`virso-kit {PRODUCERS[kind]}`"):
        load(man)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_truncated_manifest_refused_naming_the_file(tmp_path, kind):
    save, load, _ = KINDS[kind]
    _, man = save(7, tmp_path)
    text = man.read_text()
    man.write_text(text[: len(text) // 2])
    with pytest.raises(ArtifactError, match=man.name.replace(".", r"\.")):
        load(man)
    man.write_text("[]\n")  # parses, but is no manifest
    with pytest.raises(ArtifactError, match=man.name.replace(".", r"\.")):
        load(man)


def _set(field, value):
    def edit(entry):
        entry[field] = value
        return entry
    return edit


def _drop(field):
    def edit(entry):
        del entry[field]
        return entry
    return edit


# ways to break one entry of a blob table, each refused before a blob is read
ENTRY_EDITS = {
    "dtype_garbage": _set("dtype", "garbage"),
    "dtype_not_stored": _set("dtype", "<i8"),  # a numpy dtype, but no storage dtype
    "dtype_not_string": _set("dtype", 4),
    "shape_string": _set("shape", "x"),
    "shape_negative": _set("shape", [-1]),
    "shape_float": _set("shape", [2.0]),
    "shape_bool": _set("shape", [True]),
    "bytes_string": _set("bytes", "12"),
    "file_not_string": _set("file", 3),
    "sha256_missing": _drop("sha256"),
    "not_an_object": lambda entry: entry["file"],
}


@pytest.mark.parametrize("edit", sorted(ENTRY_EDITS))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_malformed_blob_table_entry_refused_naming_the_manifest(tmp_path, kind, edit):
    save, load, _ = KINDS[kind]
    _, man = save(7, tmp_path)
    doc = json.loads(man.read_text())
    role = sorted(doc["blobs"])[0]
    doc["blobs"][role] = ENTRY_EDITS[edit](doc["blobs"][role])
    man.write_text(json.dumps(doc))
    with pytest.raises(ArtifactError, match=f"{man.name}: blob '{role}'"):
        load(man)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_blob_table_that_is_not_an_object_refused(tmp_path, kind):
    save, load, _ = KINDS[kind]
    _, man = save(7, tmp_path)
    doc = json.loads(man.read_text())
    doc["blobs"] = list(doc["blobs"].values())
    man.write_text(json.dumps(doc))
    with pytest.raises(ArtifactError, match=f"{man.name}: the blob table"):
        load(man)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_wrong_kind_refused(tmp_path, kind):
    save, load, _ = KINDS[kind]
    _, man = save(7, tmp_path)
    doc = json.loads(man.read_text())
    doc["kind"] = "something_else"
    man.write_text(json.dumps(doc))
    with pytest.raises(ArtifactError, match=man.name):
        load(man)


def test_every_save_load_pair_is_fault_checked():
    # the generic writer and reader themselves are not an artifact kind
    not_kinds = {"artifact"}
    pairs = set()
    for info in pkgutil.iter_modules(virso_kit.__path__):
        module = importlib.import_module(f"virso_kit.{info.name}")
        names = {name for name, fn in vars(module).items()
                 if inspect.isfunction(fn) and fn.__module__ == module.__name__}
        pairs |= {name[len("save_"):] for name in names
                  if name.startswith("save_") and "load_" + name[len("save_"):] in names}
    pairs -= not_kinds
    assert pairs and pairs == set(KINDS), f"pairs without fault tests: {sorted(pairs - set(KINDS))}"
