"""Binary PGM (P5) images and raw little-endian float64 vector fields.

PGM stores values mapped linearly onto [0, 1] with maxval 255 or 65535
(16-bit samples are big-endian per the format).  Vector fields are raw
row-major float64 with a JSON sidecar holding the grid metadata.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .grid import DualField, GridImage

__all__ = ["write_pgm", "read_pgm", "write_field", "read_field"]


def write_pgm(path, image: GridImage, maxval: int = 65535) -> None:
    if maxval not in (255, 65535):
        raise ValueError("maxval must be 255 or 65535")
    v = np.clip(image.values, 0.0, 1.0)
    q = np.rint(v * maxval)
    if maxval == 255:
        data = q.astype(np.uint8).tobytes()
    else:
        data = q.astype(">u2").tobytes()
    header = f"P5\n{image.width} {image.height}\n{maxval}\n".encode("ascii")
    Path(path).write_bytes(header + data)


def _read_pgm_tokens(raw: bytes, count: int) -> tuple[list[bytes], int]:
    """First `count` whitespace-delimited header tokens, skipping #-comments;
    returns the tokens and the offset of the binary payload."""
    tokens = []
    i = 0
    while len(tokens) < count:
        while i < len(raw) and raw[i : i + 1].isspace():
            i += 1
        if raw[i : i + 1] == b"#":
            while i < len(raw) and raw[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(raw) and not raw[i : i + 1].isspace():
            i += 1
        tokens.append(raw[start:i])
    return tokens, i + 1


def read_pgm(path, spacing: float = 1.0) -> GridImage:
    raw = Path(path).read_bytes()
    tokens, offset = _read_pgm_tokens(raw, 4)
    if tokens[0] != b"P5":
        raise ValueError("only binary (P5) PGM is supported")
    width, height, maxval = (int(t) for t in tokens[1:])
    if width < 1 or height < 1 or not 1 <= maxval <= 65535:
        raise ValueError(f"PGM header {width}x{height}, maxval {maxval} "
                         "is outside the format")
    n = width * height
    if maxval <= 255:
        data = np.frombuffer(raw, dtype=np.uint8, count=n, offset=offset)
    else:
        data = np.frombuffer(raw, dtype=">u2", count=n, offset=offset)
    top = int(data.max())
    if top > maxval:
        raise ValueError(f"PGM sample {top} exceeds maxval {maxval}")
    # one float array: the bytes of astype(float) / maxval
    values = np.divide(data.reshape(height, width), maxval, dtype=float)
    return GridImage(values, spacing)


def write_field(path, field: DualField) -> None:
    """Writes <path> (raw little-endian float64) and <path>.json sidecar."""
    path = Path(path)
    path.write_bytes(field.values.astype("<f8").tobytes())
    sidecar = {
        "width": field.width,
        "height": field.height,
        "spacing": field.spacing,
        "components": 2,
    }
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(sidecar, sort_keys=True) + "\n")


def read_field(path) -> DualField:
    path = Path(path)
    meta = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    w, h, comps = meta["width"], meta["height"], meta["components"]
    if path.stat().st_size != 8 * h * w * comps:
        raise ValueError(f"{path} does not hold {h}x{w}x{comps} float64 values")
    data = np.fromfile(path, dtype="<f8")
    return DualField(data.reshape(h, w, comps), float(meta["spacing"]))
