"""Binary PGM (P5) images and raw little-endian float64 vector fields.

PGM stores values mapped linearly onto [0, 1] with maxval 255 or 65535
(16-bit samples are big-endian per the format).  Vector fields are raw
row-major float64.  Each writer also writes the sidecar <path>.json, a
JSON object of the width, height and spacing (and a field's components).

Each format has one reader, PgmReader and FieldReader.  Opening one reads
and checks everything but the samples: the header or the sidecar, the
grid and spacing rules of GridImage and DualField, and the file size.
rows(lo, hi) then reads rows [lo, hi) alone, as float64 with the bits of a
whole-file read, and a PGM's samples are checked against maxval as their
rows are read; every error names the file.  read_pgm and read_field are
rows(0, height) of a reader.  A PGM file may hold bytes past its payload
(Netpbm allows several images per file); a field file holds exactly its
height x width x 2 values.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .grid import DualField, GridImage, _check_grid

__all__ = ["write_pgm", "read_pgm", "write_field", "read_field",
           "PgmReader", "FieldReader"]

_TOKEN_BYTES = 20  # longer than any PGM header token


def write_pgm(path, image: GridImage, maxval: int = 65535) -> None:
    """Writes <path> (binary PGM) and its <path>.json sidecar."""
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
    Path(f"{path}.json").write_text(json.dumps(
        {"width": image.width, "height": image.height, "spacing": image.spacing},
        sort_keys=True, indent=2) + "\n")


def _sidecar(path: Path):
    """The sidecar <path>.json and the JSON value it holds."""
    sidecar = Path(f"{path}.json")
    try:
        return sidecar, json.loads(sidecar.read_text())
    except ValueError as exc:  # JSONDecodeError, or an integer too long to read
        raise ValueError(f"{sidecar} is not valid JSON: {exc}") from None


def _sidecar_spacing(sidecar: Path, value) -> float:
    """The spacing a sidecar gives: a JSON number, not a bool, that is
    positive and finite as a float."""
    if type(value) not in (int, float):
        raise ValueError(f"{sidecar} must hold a JSON object whose spacing is a number")
    if not 0 < value <= sys.float_info.max:  # exact for an int of any length
        raise ValueError(f"{sidecar}: spacing must be positive and finite")
    return float(value)


def _pgm_header(fh, path: Path) -> list:
    """The magic, width, height and maxval tokens, skipping #-comments
    between tokens; leaves fh past the one whitespace byte after maxval."""
    tokens, token = [], b""
    while len(tokens) < 4:
        c = fh.read(1)
        if c == b"#" and not token:
            fh.readline()
        elif c and not c.isspace():
            token += c
            if len(token) > _TOKEN_BYTES:
                raise ValueError(f"{path}: no PGM header")
        elif token:
            if not tokens and token != b"P5":
                raise ValueError(f"{path}: only binary (P5) PGM is supported")
            tokens.append(token)
            token = b""
        elif not c:
            raise ValueError(f"{path}: the PGM header ends early")
    return tokens


class PgmReader:
    """Rows of a binary PGM as float64 values in [0, 1].  spacing None
    takes the spacing of the sidecar <path>.json when that file exists: a
    JSON object whose spacing, if given, is a positive finite number
    (absent, 1.0)."""

    def __init__(self, path, spacing: float | None = 1.0):
        self.path = path = Path(path)
        with open(path, "rb") as fh:
            tokens = _pgm_header(fh, path)
            self._offset = fh.tell()
        try:
            width, height, maxval = (int(t) for t in tokens[1:])
        except ValueError:
            raise ValueError(f"{path}: PGM header {tokens} is not numeric") from None
        if width < 1 or height < 1 or not 1 <= maxval <= 65535:
            raise ValueError(f"{path}: PGM header {width}x{height}, maxval "
                             f"{maxval} is outside the format")
        self.width, self.height, self.maxval = width, height, maxval
        self._dtype = np.dtype(np.uint8 if maxval <= 255 else ">u2")
        have = max(path.stat().st_size - self._offset, 0) // self._dtype.itemsize
        if have < width * height:
            raise ValueError(f"{path}: PGM payload holds {have} of the "
                             f"{width * height} samples of a {width}x{height} image")
        if spacing is None:
            spacing = 1.0
            if Path(f"{path}.json").exists():
                sidecar, meta = _sidecar(path)
                spacing = _sidecar_spacing(sidecar, meta.get("spacing", 1.0)
                                           if isinstance(meta, dict) else None)
        self.spacing = spacing
        _check_grid(self)

    def rows(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """Rows [lo, hi), 0 <= lo < hi <= height, as a (hi - lo, width)
        float64 array, `out` when given: the bytes of astype(float) / maxval."""
        data = np.fromfile(self.path, dtype=self._dtype,
                           count=(hi - lo) * self.width,
                           offset=self._offset + lo * self.width * self._dtype.itemsize)
        top = int(data.max())
        if top > self.maxval:
            raise ValueError(f"{self.path}: PGM sample {top} exceeds maxval "
                             f"{self.maxval}")
        return np.divide(data.reshape(hi - lo, self.width), self.maxval,
                         out=out, dtype=float)


def read_pgm(path, spacing: float | None = 1.0) -> GridImage:
    """PgmReader(path, spacing).rows(0, height) as a GridImage."""
    reader = PgmReader(path, spacing)
    return GridImage(reader.rows(0, reader.height), reader.spacing)


def write_field(path, field: DualField) -> None:
    """Writes <path> (raw little-endian float64) and <path>.json sidecar."""
    Path(path).write_bytes(field.values.astype("<f8").tobytes())
    sidecar = {
        "width": field.width,
        "height": field.height,
        "spacing": field.spacing,
        "components": 2,
    }
    Path(f"{path}.json").write_text(json.dumps(sidecar, sort_keys=True) + "\n")


class FieldReader:
    """Rows of a raw float64 field whose sidecar <path>.json is a JSON
    object with integer width and height, components 2 and a positive
    finite number spacing."""

    def __init__(self, path):
        self.path = path = Path(path)
        sidecar, meta = _sidecar(path)
        if not (isinstance(meta, dict)
                and all(type(meta.get(k)) is int
                        for k in ("width", "height", "components"))
                and meta["components"] == 2):
            raise ValueError(f"{sidecar} must hold a JSON object with integer "
                             "width and height and components 2")
        self.width, self.height = meta["width"], meta["height"]
        self.spacing = _sidecar_spacing(sidecar, meta.get("spacing"))
        _check_grid(self)
        if path.stat().st_size != 16 * self.height * self.width:
            raise ValueError(f"{path} does not hold {self.height}x{self.width}x2 "
                             "float64 values")

    def rows(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """Rows [lo, hi), 0 <= lo < hi <= height, as a (hi - lo, width, 2)
        float64 array, read into `out` (C-contiguous) when given."""
        if out is None:
            out = np.empty((hi - lo, self.width, 2))
        with open(self.path, "rb") as fh:
            fh.seek(16 * self.width * lo)
            if fh.readinto(out.data.cast("B")) != out.nbytes:
                raise ValueError(f"{self.path} ended before row {hi}")
        if sys.byteorder != "little":  # the file holds little-endian values
            out.byteswap(inplace=True)
        return out


def read_field(path) -> DualField:
    """FieldReader(path).rows(0, height) as a DualField."""
    reader = FieldReader(path)
    return DualField(reader.rows(0, reader.height), reader.spacing)
