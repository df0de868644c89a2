"""Binary and text formats used by the CLI.

Grid tensors travel as "RMGRID1" files: a 7-byte ASCII magic, a little-endian
u32 rank, ``rank`` little-endian u32 dims, then the float32 payload in
row-major order. Descriptor sets use "RMDESC1" (magic, u32 N, u32 D, then N
rows of 2 + D float32: coordinates first, then the descriptor). Steering
matrices use "RMSTEER1" (magic, u32 D, D*D float32). Tables of numbers are
plain CSV with a fixed header line; correspondences use ``xa,ya,xb,yb,weight``.

Images are emitted as binary PGM (P5) / PPM (P6) with maxval 255, which keeps
visualization dependency-free.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .grids import CorrespondenceSet

GRID_MAGIC = b"RMGRID1"
DESC_MAGIC = b"RMDESC1"
STEER_MAGIC = b"RMSTEER1"

# Highest RMGRID1 rank a reader accepts, far above the rank-3 tensors written
# here; it bounds the dims a header can make a reader parse.
MAX_GRID_RANK = 8


def _write_record(path, magic: bytes, fields, payload: np.ndarray) -> None:
    """Magic, then each header field as a u32 LE, then the float32 LE payload.

    A value that is not finite as a float32 (NaN, infinite or out of range)
    is refused, naming the file, before the file is opened.
    """
    with np.errstate(over="ignore"):
        payload = np.asarray(payload, dtype="<f4")
    if not np.all(np.isfinite(payload)):
        raise ValueError(f"{Path(path).name}: values must be finite and fit in float32")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack(f"<{len(fields)}I", *fields))
        fh.write(payload.tobytes(order="C"))


def _read_fields(fh, path, count: int) -> tuple[int, ...]:
    raw = fh.read(4 * count)
    if len(raw) != 4 * count:
        raise ValueError(f"{path}: truncated header")
    return struct.unpack(f"<{count}I", raw)


def _read_record(path, magic: bytes, n_fields: int | None, shape_of) -> np.ndarray:
    """Read a :func:`_write_record` file into a float64 array.

    ``n_fields`` is the number of u32 header fields, or None when a leading
    u32 rank gives it (capped at ``MAX_GRID_RANK``); ``shape_of`` maps the
    fields to the payload shape. The payload size is checked against the file
    length, in Python ints, before any of it is read, so a header claiming a
    huge payload never sizes a buffer, and bytes after the payload are refused.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        found = fh.read(len(magic))
        if found != magic:
            raise ValueError(f"{path}: bad magic {found!r}, expected {magic!r}")
        if n_fields is None:
            (n_fields,) = _read_fields(fh, path, 1)
            if n_fields > MAX_GRID_RANK:
                raise ValueError(f"{path}: rank {n_fields} exceeds the limit of {MAX_GRID_RANK}")
        shape = shape_of(_read_fields(fh, path, n_fields))
        nbytes = 4 * math.prod(shape)
        left = size - fh.tell()
        if left < nbytes:
            raise ValueError(f"{path}: truncated payload ({left} of {nbytes} bytes)")
        if left > nbytes:
            raise ValueError(f"{path}: {left - nbytes} trailing bytes after the payload")
        payload = fh.read(nbytes)
    return np.frombuffer(payload, dtype="<f4").reshape(shape).astype(float)


def write_grid(path, array: np.ndarray) -> None:
    array = np.asarray(array, dtype=float)
    if array.ndim > MAX_GRID_RANK:
        raise ValueError(f"grid rank {array.ndim} exceeds the limit of {MAX_GRID_RANK}")
    _write_record(path, GRID_MAGIC, (array.ndim, *array.shape), array)


def read_grid(path) -> np.ndarray:
    return _read_record(path, GRID_MAGIC, None, lambda dims: dims)


def write_descriptors(path, coords: np.ndarray, descs: np.ndarray) -> None:
    coords = np.asarray(coords, dtype=float)
    descs = np.asarray(descs, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ValueError("coords must have shape (N, 2)")
    if descs.ndim != 2 or descs.shape[0] != coords.shape[0]:
        raise ValueError("descs must have shape (N, D) matching coords")
    _write_record(path, DESC_MAGIC, descs.shape, np.concatenate([coords, descs], axis=1))


def read_descriptors(path) -> tuple[np.ndarray, np.ndarray]:
    rows = _read_record(path, DESC_MAGIC, 2, lambda nd: (nd[0], 2 + nd[1]))
    return rows[:, :2], rows[:, 2:]


def write_support_set(prefix, features: np.ndarray, embeddings: np.ndarray) -> None:
    """Serialize a GP support set as a pair of RMGRID1 tensors."""
    write_grid(str(prefix) + ".features.rmgrid", features)
    write_grid(str(prefix) + ".embeddings.rmgrid", embeddings)


def write_steering(path, w: np.ndarray) -> None:
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("steering matrix must be square")
    _write_record(path, STEER_MAGIC, w.shape[:1], w)


def read_steering(path) -> np.ndarray:
    return _read_record(path, STEER_MAGIC, 1, lambda d: (d[0], d[0]))


def write_csv(path, header: str, rows) -> None:
    """``header``, then one line per row; floats by ``repr``, so they read back exactly."""
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path, header: str) -> np.ndarray:
    """Read a :func:`write_csv` table: the line ``header``, then one or more
    non-blank lines of one finite number per header column."""
    lines = [line for line in Path(path).read_text().splitlines() if line.strip()]
    if not lines or lines[0].strip() != header:
        raise ValueError(f"{path}: expected header {header!r}")
    if len(lines) == 1:
        raise ValueError(f"{path}: no rows after the header")
    width = header.count(",") + 1
    bad = ValueError(f"{path}: every row must hold {width} finite numbers")
    try:
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError:  # a value that is not a number, or rows of different lengths
        raise bad from None
    if table.shape[1:] != (width,) or not np.all(np.isfinite(table)):
        raise bad
    return table


def write_correspondences_csv(path, cs: CorrespondenceSet) -> None:
    rows = np.column_stack([cs.xa, cs.xb, cs.weights]).tolist()
    write_csv(path, "xa,ya,xb,yb,weight", rows)


def read_correspondences_csv(path) -> CorrespondenceSet:
    arr = read_csv(path, "xa,ya,xb,yb,weight")
    return CorrespondenceSet(arr[:, 0:2], arr[:, 2:4], arr[:, 4])


def _quantize(channel: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(np.clip(channel, 0.0, 1.0) * 255.0), 0, 255).astype(np.uint8)


def _write_pnm(path, values: np.ndarray, magic: str, channels: tuple, shape_error: str) -> None:
    """Write ``(H, W, *channels)`` [0, 1] values as a binary PNM image with header ``magic``."""
    values = np.asarray(values, dtype=float)
    if values.ndim < 2 or values.shape[2:] != channels:
        raise ValueError(shape_error)
    h, w = values.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n255\n".encode("ascii"))
        fh.write(_quantize(values).tobytes())


def write_pgm(path, values: np.ndarray) -> None:
    """Write a 2D array of [0, 1] values as a binary PGM image."""
    _write_pnm(path, values, "P5", (), "PGM payload must be 2D")


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an (H, W, 3) array of [0, 1] values as a binary PPM image."""
    _write_pnm(path, rgb, "P6", (3,), "PPM payload must have shape (H, W, 3)")


def warp_to_rgb(target_coords: np.ndarray, certainty: np.ndarray) -> np.ndarray:
    """Color-code a warp: target x -> red, target y -> green, certainty -> blue."""
    r = (np.asarray(target_coords)[..., 0] + 1.0) / 2.0
    g = (np.asarray(target_coords)[..., 1] + 1.0) / 2.0
    b = np.asarray(certainty, dtype=float)
    return np.stack([r, g, b], axis=-1)
