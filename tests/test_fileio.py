from pathlib import Path

import numpy as np
import pytest

from wulff_tvl1.fileio import (FieldReader, PgmReader, read_field, read_pgm,
                               write_field, write_pgm)
from wulff_tvl1.grid import DualField, GridImage


def test_pgm_round_trip_16bit(tmp_path, rng):
    u = GridImage(rng.random((13, 9)), spacing=0.25)
    path = tmp_path / "u.pgm"
    write_pgm(path, u)
    back = read_pgm(path, spacing=0.25)
    assert back.values.shape == (13, 9)
    assert back.spacing == 0.25
    assert np.max(np.abs(back.values - u.values)) <= 0.5 / 65535 + 1e-12


def test_pgm_binary_is_exact_8bit(tmp_path, rng):
    u = GridImage(rng.integers(0, 2, size=(6, 8)).astype(float), 1.0)
    path = tmp_path / "b.pgm"
    write_pgm(path, u, maxval=255)
    assert np.array_equal(read_pgm(path).values, u.values)


def test_pgm_deterministic_bytes(tmp_path, rng):
    u = GridImage(rng.random((16, 16)), 1.0)
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(p1, u)
    write_pgm(p2, u)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("maxval, dtype", [(255, np.uint8), (200, np.uint8),
                                           (65535, ">u2"), (1000, ">u2")])
def test_pgm_samples_convert_as_float_over_maxval(tmp_path, rng, maxval, dtype):
    # the values are the bytes of astype(float) / maxval
    samples = rng.integers(0, maxval + 1, size=(7, 5)).astype(dtype)
    path = tmp_path / "s.pgm"
    path.write_bytes(f"P5\n5 7\n{maxval}\n".encode() + samples.tobytes())
    ref = samples.astype(float) / maxval
    assert read_pgm(path).values.tobytes() == ref.tobytes()


def test_pgm_rejects_bad_maxval(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", GridImage(np.zeros((2, 2)), 1.0), maxval=1000)


def test_pgm_reads_comments(tmp_path):
    raw = b"P5\n# a comment\n2 2\n255\n" + bytes([0, 255, 128, 64])
    path = tmp_path / "c.pgm"
    path.write_bytes(raw)
    img = read_pgm(path)
    assert img.values[0, 1] == 1.0 and img.values[0, 0] == 0.0


@pytest.mark.parametrize("header", [b"P5 -1 1 255\n", b"P5 2 3 0\n",
                                    b"P5 2 3 70000\n"])
def test_pgm_rejects_headers_outside_the_format(tmp_path, header):
    # a negative width, maxval 0 and maxval above 16 bits, each with a
    # payload large enough for any reading of the header
    path = tmp_path / "h.pgm"
    path.write_bytes(header + bytes(12))
    with pytest.raises(ValueError, match="outside the format"):
        read_pgm(path)


@pytest.mark.parametrize("raw", [
    b"P5 2 2 1\n" + bytes([0, 1, 255, 0]),
    b"P5 2 2 1000\n" + bytes([0xff, 0xff]) + bytes(6),
], ids=["8-bit", "16-bit"])
def test_pgm_rejects_samples_above_maxval(tmp_path, raw):
    # the format bounds every sample by maxval; these read as 255.0 and
    # 65.535 before the check
    path = tmp_path / "s.pgm"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="exceeds maxval"):
        read_pgm(path)


def test_field_round_trip(tmp_path, rng):
    p = DualField(rng.normal(size=(7, 5, 2)), spacing=0.125)
    path = tmp_path / "v.raw"
    write_field(path, p)
    back = read_field(path)
    assert back.spacing == 0.125
    assert back.values.tobytes() == p.values.tobytes()
    assert back.values.flags.c_contiguous and back.values.flags.writeable
    assert (tmp_path / "v.raw.json").exists()


def test_field_rejects_short_and_long_files(tmp_path, rng):
    path = tmp_path / "v.raw"
    write_field(path, DualField(rng.normal(size=(4, 3, 2)), spacing=0.5))
    raw = path.read_bytes()
    for bad in (raw[:-8], raw[:-3], raw + bytes(8), raw + bytes(3), b""):
        path.write_bytes(bad)
        with pytest.raises(ValueError):
            read_field(path)


@pytest.mark.parametrize("raw, message", [
    (b"P5\n4 4", "the PGM header ends early"),
    (b"P5\n4 x 255\n" + bytes(16), "is not numeric"),
    (b"P5\n" + b"7" * 64, "no PGM header"),
    (b"\x00\x01" * 64, "no PGM header"),
    (b"P2\n2 2\n255\n0 1 2 3\n", r"only binary \(P5\) PGM"),
], ids=["ends-early", "not-numeric", "token-too-long", "raw-bytes", "plain"])
def test_pgm_header_errors_name_the_file(tmp_path, raw, message):
    path = tmp_path / "h.pgm"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=message) as err:
        PgmReader(path)
    assert str(path) in str(err.value)


def test_readers_check_the_grid_on_opening(tmp_path, rng):
    # the rules of GridImage and DualField hold before any row is read
    path = tmp_path / "v.raw"
    write_field(path, DualField(rng.normal(size=(4, 3, 2)), spacing=0.5))
    (tmp_path / "v.raw.json").write_text(
        '{"width": 3, "height": 4, "spacing": 0.0, "components": 2}')
    with pytest.raises(ValueError, match="spacing must be positive"):
        FieldReader(path)
    image = tmp_path / "u.pgm"
    image.write_bytes(b"P5 8 1 255\n" + bytes(8))
    with pytest.raises(ValueError, match="at least 2x2"):
        PgmReader(image)


HUGE = "1" + "0" * 400  # a JSON integer beyond the float range


@pytest.mark.parametrize("spacing", [HUGE, "-" + HUGE, "1" * 5000, "NaN", "Infinity",
                                     "0", "-0.5"],
                         ids=["huge", "minus-huge", "too-long-to-read", "nan", "inf",
                              "zero", "negative"])
def test_both_sidecars_hold_a_positive_finite_spacing(tmp_path, spacing):
    # one rule for both readers: a 400-digit spacing raised OverflowError
    # from the field reader, and the image reader took it as an int; past
    # 4300 digits json.loads raised a ValueError that named no file
    image = tmp_path / "u.pgm"
    write_pgm(image, GridImage(np.zeros((4, 3)), 1.0))
    field = tmp_path / "v.raw"
    write_field(field, DualField(np.zeros((4, 3, 2)), 1.0))
    Path(f"{image}.json").write_text(f'{{"spacing": {spacing}}}')
    Path(f"{field}.json").write_text(
        f'{{"width": 3, "height": 4, "components": 2, "spacing": {spacing}}}')
    for open_reader, path in ((lambda: PgmReader(image, None), image),
                              (lambda: FieldReader(field), field)):
        with pytest.raises(ValueError) as err:
            open_reader()
        assert f"{path}.json" in str(err.value)


def test_an_integer_sidecar_spacing_reads_as_a_float(tmp_path):
    image = tmp_path / "u.pgm"
    write_pgm(image, GridImage(np.zeros((4, 3)), 1.0))
    Path(f"{image}.json").write_text('{"spacing": 2}')
    field = tmp_path / "v.raw"
    write_field(field, DualField(np.zeros((4, 3, 2)), 1.0))
    Path(f"{field}.json").write_text(
        '{"width": 3, "height": 4, "components": 2, "spacing": 2}')
    for reader in (PgmReader(image, None), FieldReader(field)):
        assert type(reader.spacing) is float and reader.spacing == 2.0


def test_write_pgm_writes_the_image_sidecar(tmp_path):
    # the bytes that synth and denoise wrote beside their images when the
    # CLI, not write_pgm, wrote the sidecar
    path = tmp_path / "u.pgm"
    write_pgm(path, GridImage(np.zeros((4, 3)), 3.0 / 256), maxval=255)
    assert Path(f"{path}.json").read_text() == (
        '{\n  "height": 4,\n  "spacing": 0.01171875,\n  "width": 3\n}\n')
    assert read_pgm(path, None).spacing == 3.0 / 256
