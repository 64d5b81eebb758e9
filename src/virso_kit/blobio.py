"""One checked on-disk format for every artifact.

An artifact is a JSON manifest plus little-endian binary blobs in the same
directory. `save_artifact` writes them; the manifest's `kind` names what it
holds and its `blobs` table records, for each blob, the file name, dtype,
shape, byte size and sha256 of its bytes. `load_artifact` reads them back
and refuses, with an `ArtifactError` naming the file, a wrong kind, a
table entry with a field missing or of the wrong type (a dtype other than
the storage dtypes below, a shape other than a list of non-negative ints),
a missing blob, a byte size that disagrees with the table or with dtype x
shape, a hash mismatch, a manifest that does not parse as a JSON object,
and a missing manifest or one from before the table existed (naming the
command that rebuilds it).
Floats are 64-bit in memory and 32-bit on disk, except the eigenbasis, the
model parameters and the normalizers, which are stored as 64-bit so that
they reload exactly.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import ArtifactError

F32 = "<f4"
F64 = "<f8"
U32 = "<u4"

# the CLI command that writes each kind, named when its manifest is missing or old
_PRODUCERS = {"point_cloud": "gen-data", "dataset": "gen-data", "graph": "prep-graph",
              "eigen_basis": "prep-graph", "checkpoint": "train", "normalizers": "train"}


def save_artifact(manifest_path: Path, kind: str,
                  blobs: dict[str, tuple[str, np.ndarray]], **fields) -> Path:
    """Write each `role: (file name, array)` blob as stored, then the manifest.

    Arrays are written row-major in their own dtype, so callers convert to
    the storage dtype first; `fields` go into the manifest as they are.
    """
    manifest_path = Path(manifest_path)
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    table = {}
    for role, (name, array) in blobs.items():
        raw = np.ascontiguousarray(array).tobytes()
        (manifest_path.parent / name).write_bytes(raw)
        table[role] = {"file": name, "dtype": array.dtype.str, "shape": list(array.shape),
                       "bytes": len(raw), "sha256": hashlib.sha256(raw).hexdigest()}
    manifest = {"kind": kind, "blobs": table, **fields}
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


# the fields of a blob table entry, with the JSON type each must hold
_ENTRY_FIELDS = {"file": (str, "string"), "dtype": (str, "string"), "shape": (list, "list"),
                 "bytes": (int, "integer"), "sha256": (str, "string")}


def _check_entry(manifest_path: Path, role: str, entry) -> None:
    """Refuse a blob table entry with a field missing or of the wrong type."""
    where = f"{manifest_path}: blob {role!r}"
    if not isinstance(entry, dict) or not set(_ENTRY_FIELDS) <= set(entry):
        raise ArtifactError(f"{where} is not an object holding {', '.join(_ENTRY_FIELDS)}")
    for name, (kind, label) in _ENTRY_FIELDS.items():
        if not isinstance(entry[name], kind) or isinstance(entry[name], bool):
            raise ArtifactError(f"{where} has {name} {entry[name]!r}, not a JSON {label}")
    if entry["dtype"] not in (F32, F64, U32):
        raise ArtifactError(f"{where} has dtype {entry['dtype']!r}, not one of "
                            f"{F32}, {F64}, {U32}")
    if not all(isinstance(d, int) and not isinstance(d, bool) and d >= 0
               for d in entry["shape"]):
        raise ArtifactError(f"{where} has shape {entry['shape']!r}, not a list of "
                            f"non-negative integers")


def load_artifact(manifest_path: Path, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The manifest and its blobs by role (read-only arrays), each checked against the table."""
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise ArtifactError(f"missing artifact {manifest_path}: run `virso-kit "
                            f"{_PRODUCERS[kind]}` first")
    try:
        man = json.loads(manifest_path.read_text())
    except ValueError as err:
        raise ArtifactError(f"{manifest_path} is not a readable JSON manifest: {err}") from None
    if not isinstance(man, dict):
        raise ArtifactError(f"{manifest_path} holds a JSON {type(man).__name__}, not a manifest")
    if "blobs" not in man:
        raise ArtifactError(f"{manifest_path} was written by an earlier virso-kit without a "
                            f"blob table; rebuild it with `virso-kit {_PRODUCERS[kind]}`")
    if man.get("kind") != kind:
        raise ArtifactError(f"{manifest_path} holds {man.get('kind')!r}, not {kind!r}")
    if not isinstance(man["blobs"], dict):
        raise ArtifactError(f"{manifest_path}: the blob table is not a JSON object")
    arrays = {}
    for role, entry in man["blobs"].items():
        _check_entry(manifest_path, role, entry)
        path = manifest_path.parent / entry["file"]
        if not path.is_file():
            raise ArtifactError(f"missing blob {path} of {manifest_path}")
        raw = path.read_bytes()
        dtype, shape = np.dtype(entry["dtype"]), tuple(entry["shape"])
        expected = dtype.itemsize * int(np.prod(shape))
        if len(raw) != entry["bytes"] or len(raw) != expected:
            raise ArtifactError(f"blob {path} holds {len(raw)} bytes; the table of "
                                f"{manifest_path} records {entry['bytes']} and "
                                f"{dtype.str} x {list(shape)} needs {expected}")
        if hashlib.sha256(raw).hexdigest() != entry["sha256"]:
            raise ArtifactError(f"blob {path} does not match the sha256 recorded in "
                                f"{manifest_path}")
        arrays[role] = np.frombuffer(raw, dtype=dtype).reshape(shape)
    return man, arrays

