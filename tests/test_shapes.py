import math

import numpy as np
import pytest

from wulff_tvl1.gauge import Gauge
from wulff_tvl1.shapes import (ConvexPolygon, circle_example,
                               circle_optimality_threshold,
                               hausdorff_distance, isoperimetric_constant,
                               minkowski_sum, opening_by_wulff, polygon_tv_phi,
                               shape_energy_ratio, trivial_threshold,
                               wulff_tv_and_area)

from conftest import boundary_integral_oracle, random_convex_polygon

L1 = Gauge.p_norm(1)
L2 = Gauge.p_norm(2)
LINF = Gauge.p_norm(math.inf)

# frozen closed forms for lambda = 4, evaluated to double precision:
#   s = 1/4, h = sqrt(15)/4, tv = 8h, area = pi - 4(asin(s) - s h),
#   energy = tv + 16 (asin(s) - s h); cross-checked by Monte Carlo
#   rasterisation of B cap [-h,h]^2 (20M samples, 3.0988 +- 0.0004)
CIRCLE4 = dict(s=0.25, h=0.9682458365518543, tv=7.745966692414834,
               area=3.099117469573333, energy=7.915867428480675)


def test_trivial_threshold_values():
    assert trivial_threshold(1, 2) == 2.0
    assert trivial_threshold(2, 2) == 1.0
    assert trivial_threshold(1, 3) == 3.0
    with pytest.raises(ValueError):
        trivial_threshold(0.0, 2)


def test_polygon_tv_unit_square():
    sq = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    assert polygon_tv_phi(sq, L1) == pytest.approx(4.0)
    assert polygon_tv_phi(sq, L2) == pytest.approx(4.0)


def test_polygon_tv_disk_l1():
    theta = np.linspace(0, 2 * math.pi, 720, endpoint=False)
    disk = ConvexPolygon(np.stack([np.cos(theta), np.sin(theta)], -1))
    assert polygon_tv_phi(disk, L1) == pytest.approx(
        boundary_integral_oracle(L1), abs=1e-3)


def test_polygon_rejects_clockwise():
    with pytest.raises(ValueError):
        ConvexPolygon([[0, 0], [0, 1], [1, 1], [1, 0]])


def test_wulff_identity_crystalline():
    assert wulff_tv_and_area(L1) == pytest.approx((8.0, 4.0), abs=1e-9)
    assert wulff_tv_and_area(LINF) == pytest.approx((4.0, 2.0), abs=1e-9)


def test_wulff_identity_random_polyhedral(rng):
    for _ in range(5):
        hull = random_convex_polygon(rng)
        hull = hull - hull.mean(axis=0)
        g = Gauge.polyhedral(hull)
        tv, area = wulff_tv_and_area(g)
        assert tv == pytest.approx(2.0 * area, abs=1e-9 * max(1.0, tv))


def test_wulff_identity_sampled_disk():
    tv, area = wulff_tv_and_area(L2)
    assert abs(tv - 2.0 * area) <= 1e-4
    assert tv == pytest.approx(2 * math.pi, abs=1e-4)
    assert area == pytest.approx(math.pi, abs=1e-4)


def test_isoperimetric_constant_values():
    assert isoperimetric_constant(L1) == pytest.approx(0.25)
    assert isoperimetric_constant(L2) == pytest.approx(
        1.0 / (2.0 * math.sqrt(math.pi)), abs=1e-5)
    with pytest.raises(ValueError):
        isoperimetric_constant(L1, n=3)


def test_isoperimetric_inequality_random_polygons(rng):
    c = isoperimetric_constant(L1)
    for _ in range(30):
        poly = ConvexPolygon(random_convex_polygon(rng, scale=2.0))
        assert poly.area() ** 0.5 <= c * polygon_tv_phi(poly, L1) + 1e-12
    # equality is attained by the Wulff shape itself
    wulff = ConvexPolygon(L1.wulff().vertices)
    assert wulff.area() ** 0.5 == pytest.approx(
        c * polygon_tv_phi(wulff, L1), rel=1e-12)


def test_circle_example_frozen_values():
    r = circle_example(4.0)
    assert r.valid
    assert r.s == pytest.approx(CIRCLE4["s"], abs=1e-15)
    assert r.h == pytest.approx(CIRCLE4["h"], abs=1e-12)
    assert r.tv == pytest.approx(CIRCLE4["tv"], abs=1e-12)
    assert r.area == pytest.approx(CIRCLE4["area"], abs=1e-12)
    assert r.energy == pytest.approx(CIRCLE4["energy"], abs=1e-12)


def test_circle_example_limits():
    r = circle_example(1e9)
    assert r.tv == pytest.approx(8.0, abs=1e-8)
    assert r.area == pytest.approx(math.pi, abs=1e-8)
    assert r.energy == pytest.approx(8.0, abs=1e-6)


def test_circle_example_validity_boundary():
    r = circle_example(math.sqrt(2.0))
    assert r.h == pytest.approx(1.0 / math.sqrt(2.0))
    assert r.valid
    assert not circle_example(1.2).valid
    for lam in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            circle_example(lam)


def test_circle_example_energy_identity():
    # the fidelity of chi_U against chi_B is exactly the area deficit
    for lam in np.linspace(1.5, 25.0, 40):
        r = circle_example(float(lam))
        assert r.energy == pytest.approx(r.tv + lam * (math.pi - r.area),
                                         abs=1e-12)
        assert r.s**2 + r.h**2 == pytest.approx(1.0, abs=1e-12)


def test_circle_optimality_threshold():
    root = circle_optimality_threshold()
    assert root == pytest.approx(2.4754, abs=1e-3)

    def gfun(lam):
        s = 1.0 / lam
        return 4 * lam * math.asin(s) + 4 * math.sqrt(1 - s * s) - lam * math.pi

    # sign layout verified against the energy comparison E(chi_U) vs E(0):
    # the displayed quantity is positive below the root and negative above,
    # and the clipped disk beats the zero minimiser exactly above the root
    assert gfun(2.0) > 0 > gfun(3.0)
    assert abs(gfun(root)) < 1e-6
    for lam, wins in ((2.0, False), (2.6, True), (4.0, True)):
        r = circle_example(lam)
        assert (r.energy <= lam * math.pi) == wins


def test_opening_identity_cases():
    C = ConvexPolygon([[2, -2], [2, 2], [-2, 2], [-2, -2]])
    assert hausdorff_distance(opening_by_wulff(C, 0.0, L1), C) == 0.0
    # the large square is open with respect to the smaller square
    assert hausdorff_distance(opening_by_wulff(C, 1.0, L1), C) <= 1e-12


def test_opening_disk_matches_clipped_disk():
    theta = np.linspace(0, 2 * math.pi, 720, endpoint=False)
    disk = ConvexPolygon(np.stack([np.cos(theta), np.sin(theta)], -1))
    opened = opening_by_wulff(disk, 0.25, L1)
    h = math.sqrt(1 - 0.25**2)
    clipped = disk.vertices.copy()
    from wulff_tvl1.shapes import _clip_halfplane
    for nvec, b in (((1, 0), h), ((-1, 0), h), ((0, 1), h), ((0, -1), h)):
        clipped = _clip_halfplane(clipped, np.asarray(nvec, float), b)
    assert hausdorff_distance(opened, ConvexPolygon(clipped)) <= 2e-3


def test_opening_idempotent(rng):
    for _ in range(5):
        C = ConvexPolygon(random_convex_polygon(rng, scale=2.0))
        once = opening_by_wulff(C, 0.3, L1)
        if once.is_empty:
            continue
        twice = opening_by_wulff(once, 0.3, L1)
        assert hausdorff_distance(once, twice) <= 1e-9


def test_opening_may_be_empty():
    tiny = ConvexPolygon([[0.1, 0], [0, 0.1], [-0.1, 0], [0, -0.1]])
    assert opening_by_wulff(tiny, 1.0, L1).is_empty


def test_minkowski_sum_of_squares():
    sq = ConvexPolygon([[1, -1], [1, 1], [-1, 1], [-1, -1]])
    s2 = minkowski_sum(sq, sq)
    big = ConvexPolygon([[2, -2], [2, 2], [-2, 2], [-2, -2]])
    assert hausdorff_distance(s2, big) <= 1e-12


def test_shape_energy_ratio_values():
    assert shape_energy_ratio(ConvexPolygon(L1.wulff().vertices), L1) == 2.0
    half = ConvexPolygon([[-1, -1], [1, -1], [1, 0], [-1, 0]])
    assert shape_energy_ratio(half, L1) == pytest.approx(3.0)
    r = circle_example(4.0)
    # the raw ratio of the closed forms; reported as-is
    assert r.tv / r.area == pytest.approx(2.4994, abs=1e-3)
    with pytest.raises(ValueError):
        shape_energy_ratio(ConvexPolygon(np.zeros((0, 2))), L1)


def test_wulff_extremality(rng):
    # among convex shapes of equal area the Wulff shape minimises TV_phi
    for name, g in (("l1", L1), ("hexagon", Gauge.polyhedral(
            [[2, 0], [1, 2], [-1, 1], [-2, -1], [0, -2], [1.5, -1]]))):
        wulff = ConvexPolygon(g.wulff().vertices)
        tv_w = polygon_tv_phi(wulff, g)
        area_w = wulff.area()
        for _ in range(50):
            poly = ConvexPolygon(random_convex_polygon(rng, scale=2.0))
            scale = math.sqrt(area_w / poly.area())
            scaled = poly.scaled(scale)
            assert polygon_tv_phi(scaled, g) >= tv_w - 1e-9
