"""certify from files streams its inputs by row blocks: the report equals
the in-memory check's bit for bit, a reader's rows(lo, hi) equal the slice
of the whole-file read, and the memory a check holds does not grow with
the grid."""

import math
import tracemalloc

import numpy as np
import pytest

from wulff_tvl1 import grid
from wulff_tvl1.certificate import (TIE_BAND, build_circle_certificate,
                                    check_certificate)
from wulff_tvl1.cli import main
from wulff_tvl1.fileio import (FieldReader, PgmReader, read_field, read_pgm,
                               write_field, write_pgm)
from wulff_tvl1.grid import (GridImage, cell_centers, raster_convex_polygon,
                             raster_disk)

from conftest import GAUGE_ZOO

HEIGHT, WIDTH = 45, 37  # odd sizes
ROWS = 8                # rows per block once BLOCK_CELLS is patched: 6 blocks
SPACING = 3.0 / WIDTH


@pytest.fixture
def blocks(monkeypatch):
    monkeypatch.setattr(grid, "BLOCK_CELLS", ROWS * WIDTH)
    assert len(list(grid._row_blocks(HEIGHT, WIDTH, 0))) >= 3


def _write_case(tmp_path, g, u_maxval=65535, f_maxval=255, edit=None):
    """f, the disk, and u0, below f on the disk and above it from row
    2 ROWS on, as PGMs at the given maxvals, and a smooth field inside g's
    -W (changed by `edit`) as a raw file."""
    f = raster_disk(WIDTH, HEIGHT, SPACING, binary=True)
    lower = np.arange(HEIGHT)[:, None] >= 2 * ROWS
    u0 = GridImage(0.6 * f.values + 0.2 * (1.0 - f.values) * lower, SPACING)
    X, Y = cell_centers(WIDTH, HEIGHT, SPACING)
    v = g.project_minus_wulff(np.stack([np.sin(2 * X + Y), np.cos(X - 2 * Y)],
                                       axis=-1))
    if edit:
        edit(v)
    paths = tmp_path / "u0.pgm", tmp_path / "f.pgm", tmp_path / "v.raw"
    write_pgm(paths[0], u0, maxval=u_maxval)
    write_pgm(paths[1], f, maxval=f_maxval)
    write_field(paths[2], grid.DualField(v, SPACING))
    return paths


def _streamed_and_whole(paths, lam, g):
    u0, f, v = paths
    streamed = check_certificate(PgmReader(u0, SPACING), PgmReader(f, SPACING),
                                 FieldReader(v), lam, g)
    whole = check_certificate(read_pgm(u0, SPACING), read_pgm(f, SPACING),
                              read_field(v), lam, g)
    return streamed, whole


@pytest.mark.parametrize("name", sorted(GAUGE_ZOO))
def test_streamed_check_equals_the_in_memory_check(tmp_path, blocks, name):
    g = GAUGE_ZOO[name]
    paths = _write_case(tmp_path, g)
    streamed, whole = _streamed_and_whole(paths, 2.0, g)
    assert streamed.to_json_str() == whole.to_json_str()
    # the first block holds no (b)/(c) cell, a later one does
    d = np.abs(read_pgm(paths[0]).values - read_pgm(paths[1]).values)
    assert d[:ROWS].max() <= TIE_BAND < d.max()
    assert whole.div_residual_above > 0.0 and whole.div_residual_below > 0.0
    assert 0.0 < whole.excluded_fraction < 1.0


@pytest.mark.parametrize("u_maxval, f_maxval", [(255, 255), (65535, 65535),
                                                (255, 65535)])
def test_streamed_check_reads_8_and_16_bit_pgms(tmp_path, blocks, u_maxval,
                                                f_maxval):
    g = GAUGE_ZOO["l1"]
    streamed, whole = _streamed_and_whole(
        _write_case(tmp_path, g, u_maxval, f_maxval), 2.0, g)
    assert streamed.to_json_str() == whole.to_json_str()


def test_streamed_check_fails_ii_in_the_last_block(tmp_path, blocks):
    # an inf in the last block fails (ii); TV and the pairing are still
    # summed over every block
    g = GAUGE_ZOO["hexagon"]

    def edit(v):
        v[HEIGHT - 2, WIDTH // 2, 0] = math.inf

    u0, f, v = paths = _write_case(tmp_path, g, edit=edit)
    streamed, whole = _streamed_and_whole(paths, 2.0, g)
    assert streamed.to_json_str() == whole.to_json_str()
    assert not streamed.conditions["ii_bounded_divergence"]
    assert streamed.div_inf_norm == math.inf
    assert streamed.tv_value == grid.tv_phi(read_pgm(u0, SPACING), g)


@pytest.mark.parametrize("maxval", [255, 65535])
def test_rows_equal_the_whole_file_slice(tmp_path, rng, maxval):
    height, width = 7, 5
    image = tmp_path / "u.pgm"
    write_pgm(image, GridImage(rng.random((height, width)), 1.0), maxval=maxval)
    field = tmp_path / "v.raw"
    write_field(field, grid.DualField(rng.normal(size=(height, width, 2)), 1.0))
    for reader, whole in ((PgmReader(image), read_pgm(image).values),
                          (FieldReader(field), read_field(field).values)):
        for lo in range(height):
            for hi in range(lo + 1, height + 1):
                rows = reader.rows(lo, hi)
                assert rows.dtype == np.float64
                assert rows.tobytes() == whole[lo:hi].tobytes(), (lo, hi)


@pytest.mark.parametrize("target", ["u0", "f"])
def test_a_sample_above_maxval_in_the_last_block_names_the_file(
        tmp_path, blocks, capsys, target):
    # f's too, when an inf in v's first block fails (ii) before it

    def edit(v):
        v[1, WIDTH // 2, 0] = math.inf

    paths = dict(zip(("u0", "f", "v"), _write_case(
        tmp_path, GAUGE_ZOO["l1"], u_maxval=255, edit=edit)))
    bad = paths[target]
    raw = bytearray(bad.read_bytes())
    header = raw[:-HEIGHT * WIDTH]
    header[-4:] = b"200\n"  # maxval 255 -> 200, one sample 255 at the end
    samples = np.minimum(np.frombuffer(raw[-HEIGHT * WIDTH:], np.uint8), 200)
    bad.write_bytes(bytes(header) + samples[:-1].tobytes() + b"\xff")
    assert main(["certify", "--u0", str(paths["u0"]), "--f", str(paths["f"]),
                 "--v", str(paths["v"]), "--lambda", "2",
                 "--spacing", str(SPACING)]) == 1
    err = capsys.readouterr().err
    assert f"{bad}: PGM sample 255 exceeds maxval 200" in err


MEMORY_WIDTH, MEMORY_ROWS = 64, 8


def _certify_peak(directory, height):
    """tracemalloc peak of `wulff-tvl1 certify` on the unit-disk field, f
    the disk and u0 its left part, on a grid of MEMORY_WIDTH columns."""
    h = 3.0 / MEMORY_WIDTH
    f = raster_disk(MEMORY_WIDTH, height, h, binary=True)
    left = raster_convex_polygon([[-2, -9], [0.5, -9], [0.5, 9], [-2, 9]],
                                 MEMORY_WIDTH, height, h, binary=True)
    directory.mkdir()
    u0, fp, v = directory / "u0.pgm", directory / "f.pgm", directory / "v.raw"
    write_pgm(u0, GridImage(f.values * left.values, h), maxval=255)
    write_pgm(fp, f, maxval=255)
    write_field(v, build_circle_certificate(3.0, MEMORY_WIDTH, height, h))
    argv = ["certify", "--u0", str(u0), "--f", str(fp), "--v", str(v),
            "--lambda", "3", "--spacing", str(h)]
    code = main(argv)  # once first, for one-time allocations
    tracemalloc.start()
    try:
        assert main(argv) == code != 1
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_certify_memory_does_not_grow_with_the_grid(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.setattr(grid, "BLOCK_CELLS", MEMORY_ROWS * MEMORY_WIDTH)
    small = _certify_peak(tmp_path / "small", 64)
    large = _certify_peak(tmp_path / "large", 4 * 64)
    # a block's slabs: v with one halo row each side, u0 and f with three
    slabs = 8 * MEMORY_WIDTH * (2 * (MEMORY_ROWS + 2) + 2 * (MEMORY_ROWS + 6))
    assert abs(large - small) < slabs, (small, large, slabs)
