"""Binary persistence for Params and CSV export of training history.

File layout (format version 2, little-endian): b"AMNN", uint32 version,
32-byte spec hash, uint32 layer count; per layer a uint32 array count; per
array, in key order, uint32 name length, UTF-8 name, uint32 ndim, ndim
uint64 dims and the float64 data. Files hold trained weights only (training
always starts from init_params) and another version is refused. Loading
into the same spec round-trips bit-exactly.
"""

from __future__ import annotations

import csv
import struct

import numpy as np

from amisim.errors import DataFormatError
from amisim.nn.model import ModelSpec, Params, weight_shapes

MAGIC = b"AMNN"
FORMAT_VERSION = 2


def save_params(path, params: Params):
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(bytes.fromhex(params.spec_hash))
        fh.write(struct.pack("<I", len(params.weights)))
        for layer in params.weights:
            fh.write(struct.pack("<I", len(layer)))
            for key in sorted(layer):
                arr = np.ascontiguousarray(layer[key], dtype="<f8")
                name = key.encode()
                fh.write(struct.pack("<I", len(name)))
                fh.write(name)
                fh.write(struct.pack("<I", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
                fh.write(arr.tobytes())


def _read(fh, size: int, path) -> bytes:
    """Exactly size bytes from fh; a short read means a truncated file."""
    data = fh.read(size)
    if len(data) != size:
        raise DataFormatError(f"{path}: truncated params file")
    return data


def _unpack(fh, fmt: str, path):
    return struct.unpack(fmt, _read(fh, struct.calcsize(fmt), path))


def load_params(path, spec: ModelSpec) -> Params:
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise DataFormatError(f"{path}: not a params file")
        (version,) = _unpack(fh, "<I", path)
        if version != FORMAT_VERSION:
            raise DataFormatError(f"{path}: params format version {version} is not "
                                  f"{FORMAT_VERSION}; retrain to write a new file")
        spec_hash = _read(fh, 32, path).hex()
        if spec_hash != spec.hash():
            raise DataFormatError(
                f"{path}: params were trained for a different architecture"
            )
        (n_layers,) = _unpack(fh, "<I", path)
        weights = []
        for _ in range(n_layers):
            (n_arrays,) = _unpack(fh, "<I", path)
            layer = {}
            for _ in range(n_arrays):
                (name_len,) = _unpack(fh, "<I", path)
                key = _read(fh, name_len, path).decode(errors="replace")  # then no key matches
                (ndim,) = _unpack(fh, "<I", path)
                shape = _unpack(fh, f"<{ndim}Q", path)
                count = int(np.prod(shape)) if ndim else 1
                data = np.frombuffer(_read(fh, 8 * count, path), dtype="<f8")
                layer[key] = data.reshape(shape).copy()
            weights.append(layer)

    expected = weight_shapes(spec)
    if len(weights) != len(expected):
        raise DataFormatError(f"{path}: layer count mismatch")
    for layer_got, layer_want in zip(weights, expected):
        if set(layer_got) != set(layer_want):
            raise DataFormatError(f"{path}: parameter names mismatch")
        for key, shape in layer_want.items():
            if layer_got[key].shape != shape:
                raise DataFormatError(f"{path}: shape mismatch for {key}")
    return Params(spec_hash=spec_hash, weights=weights)


def save_history_csv(path, history):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "accuracy"])
        for row in history:
            writer.writerow([row["epoch"], repr(row["loss"]), repr(row["accuracy"])])
