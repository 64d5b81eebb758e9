"""Binary blob + JSON manifest helpers.

All numeric artifacts are stored as little-endian blobs next to a JSON
manifest that names them. Floats are 64-bit in memory and 32-bit on disk,
except the eigenbasis and the model parameters, which are stored as 64-bit
so that they reload exactly.
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


def write_blob(path: Path, array: np.ndarray, dtype: str) -> str:
    """Write `array` row-major as `dtype`; returns the sha256 of the bytes."""
    raw = np.ascontiguousarray(array).astype(dtype).tobytes()
    path = Path(path)
    path.write_bytes(raw)
    return hashlib.sha256(raw).hexdigest()


def read_blob(path: Path, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
    path = Path(path)
    if not path.is_file():
        raise ArtifactError(f"missing blob: {path}")
    raw = np.frombuffer(path.read_bytes(), dtype=dtype)
    expected = int(np.prod(shape)) if shape else raw.size
    if raw.size != expected:
        raise ArtifactError(
            f"blob {path} holds {raw.size} values, manifest expects {expected}"
        )
    return raw.reshape(shape)


def write_manifest(path: Path, manifest: dict) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_manifest(path: Path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ArtifactError(f"missing manifest: {path}")
    return json.loads(path.read_text())


def sha256_of(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()
