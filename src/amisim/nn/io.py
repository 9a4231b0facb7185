"""Binary persistence for Params and CSV export of training history.

File layout: magic, format version, spec hash, Adam step, then each array
as (name, shape, little-endian float64 data) in layer order. Loading into
the same spec round-trips bit-exactly.
"""

from __future__ import annotations

import csv
import struct

import numpy as np

from amisim.errors import DataFormatError
from amisim.nn.model import ModelSpec, Params, init_params

MAGIC = b"AMNN"
FORMAT_VERSION = 1


def save_params(path, params: Params):
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(bytes.fromhex(params.spec_hash))
        fh.write(struct.pack("<Q", params.step))
        for group_name, group in (
            ("w", params.weights),
            ("m", params.adam_m),
            ("v", params.adam_v),
        ):
            fh.write(struct.pack("<I", len(group)))
            for layer in group:
                fh.write(struct.pack("<I", len(layer)))
                for key in sorted(layer):
                    arr = np.ascontiguousarray(layer[key], dtype="<f8")
                    name = f"{group_name}:{key}".encode()
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
            raise DataFormatError(f"{path}: unsupported format version {version}")
        spec_hash = _read(fh, 32, path).hex()
        if spec_hash != spec.hash():
            raise DataFormatError(
                f"{path}: params were trained for a different architecture"
            )
        (step,) = _unpack(fh, "<Q", path)
        groups = {}
        for group_name in ("w", "m", "v"):
            (n_layers,) = _unpack(fh, "<I", path)
            layers = []
            for _ in range(n_layers):
                (n_arrays,) = _unpack(fh, "<I", path)
                layer = {}
                for _ in range(n_arrays):
                    (name_len,) = _unpack(fh, "<I", path)
                    name = _read(fh, name_len, path).decode()
                    prefix, key = name.split(":", 1)
                    if prefix != group_name:
                        raise DataFormatError(f"{path}: array {name} out of order")
                    (ndim,) = _unpack(fh, "<I", path)
                    shape = _unpack(fh, f"<{ndim}Q", path)
                    count = int(np.prod(shape)) if ndim else 1
                    data = np.frombuffer(_read(fh, 8 * count, path), dtype="<f8")
                    layer[key] = data.reshape(shape).copy()
                layers.append(layer)
            groups[group_name] = layers

    template = init_params(spec, seed=0)
    for group_name, got in groups.items():  # Adam moments are shaped like the weights
        if len(got) != len(template.weights):
            raise DataFormatError(f"{path}: layer count mismatch")
        for layer_got, layer_want in zip(got, template.weights):
            if set(layer_got) != set(layer_want):
                raise DataFormatError(f"{path}: parameter names mismatch")
            for key in layer_want:
                if layer_got[key].shape != layer_want[key].shape:
                    raise DataFormatError(f"{path}: shape mismatch for {group_name}:{key}")
    return Params(
        spec_hash=spec_hash,
        weights=groups["w"],
        adam_m=groups["m"],
        adam_v=groups["v"],
        step=step,
    )


def save_history_csv(path, history):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "accuracy"])
        for row in history:
            writer.writerow([row["epoch"], repr(row["loss"]), repr(row["accuracy"])])
