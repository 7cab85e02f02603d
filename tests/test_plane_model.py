"""Tests for the hyperboloid-model oracle."""

import decimal
import math
import random

import pytest

from trisub import hyptrig, plane_model
from trisub.plane_model import (HPoint, InvalidPointError, angle_at, dist,
                                geodesic_point, midpoint, minkowski, place,
                                to_disk)
from trisub.shape import EdgeLengths
from trisub.subdivision import apply_oracle, child_edges


def random_point(rng, spread=2.0):
    x1 = rng.uniform(-spread, spread)
    x2 = rng.uniform(-spread, spread)
    return HPoint(math.sqrt(1 + x1 * x1 + x2 * x2), x1, x2)


def foot_of_perpendicular(w, u, v):
    """Minkowski-orthogonal projection of w onto the geodesic through u, v."""
    g = minkowski(u, v)
    wu, wv = minkowski(w, u), minkowski(w, v)
    det = 1 - g * g
    alpha = (wu - g * wv) / det
    beta = (wv - g * wu) / det
    raw = tuple(alpha * a + beta * b for a, b in zip(u, v))
    norm = math.sqrt(raw[0] ** 2 - raw[1] ** 2 - raw[2] ** 2)
    return HPoint(*(x / norm for x in raw))


class TestDist:
    def test_zero_on_same_point(self):
        u = HPoint(math.cosh(1.3), math.sinh(1.3), 0.0)
        assert dist(u, u) == 0.0

    def test_axis_distance(self):
        for t in (0.1, 1.0, 3.7):
            u = HPoint(1, 0, 0)
            v = HPoint(math.cosh(t), math.sinh(t), 0.0)
            assert abs(dist(u, v) - t) < 1e-12

    def test_symmetry_and_triangle_inequality(self):
        rng = random.Random(17)
        for _ in range(300):
            u, v, w = (random_point(rng) for _ in range(3))
            assert dist(u, v) == dist(v, u)
            assert dist(u, w) <= dist(u, v) + dist(v, w) + 1e-12

    def test_invalid_pair_rejected(self):
        u = HPoint(1, 0, 0)
        bad = HPoint(0.5, 0.0, 0.0)  # not on the sheet
        with pytest.raises(InvalidPointError):
            dist(u, bad)


class TestMidpoint:
    def test_fixed_point(self):
        u = HPoint(math.cosh(0.9), 0.0, math.sinh(0.9))
        m = midpoint(u, u)
        assert max(abs(a - b) for a, b in zip(m, u)) < 1e-15

    def test_equidistance_sampled(self):
        rng = random.Random(19)
        for _ in range(300):
            u, v = random_point(rng), random_point(rng)
            m = midpoint(u, v)
            d1, d2 = dist(u, m), dist(m, v)
            assert abs(d1 - d2) < 1e-12
            assert abs(d1 - dist(u, v) / 2) < 1e-12

    def test_midpoint_on_geodesic(self):
        # collinearity through additivity of distances
        rng = random.Random(21)
        for _ in range(200):
            u, v = random_point(rng), random_point(rng)
            m = midpoint(u, v)
            assert abs(dist(u, m) + dist(m, v) - dist(u, v)) < 1e-12

    def test_stays_on_sheet(self):
        rng = random.Random(23)
        for _ in range(200):
            m = midpoint(random_point(rng), random_point(rng))
            assert abs(minkowski(m, m) - 1) < 1e-12
            assert m.x0 >= 1


class TestPlace:
    def test_equilateral_all_edges(self):
        tri = place(EdgeLengths(1, 1, 1))
        assert abs(dist(tri.p_b, tri.p_c) - 1) < 1e-12
        assert abs(dist(tri.p_c, tri.p_a) - 1) < 1e-12
        assert abs(dist(tri.p_a, tri.p_b) - 1) < 1e-12

    def test_opposite_edge_447(self):
        tri = place(EdgeLengths(4, 4, 7))
        assert abs(dist(tri.p_b, tri.p_c) - 4) < 1e-9
        assert abs(dist(tri.p_c, tri.p_a) - 4) < 1e-9
        assert abs(dist(tri.p_a, tri.p_b) - 7) < 1e-9

    def test_degenerate_rejected(self):
        with pytest.raises(hyptrig.DomainError):
            place(EdgeLengths(1, 1, 3))

    def test_sampled_consistency(self):
        rng = random.Random(27)
        for _ in range(200):
            while True:
                a, b, c = (rng.uniform(0.01, 5) for _ in range(3))
                if a < b + c and b < c + a and c < a + b:
                    break
            tri = place(EdgeLengths(a, b, c))
            assert abs(dist(tri.p_b, tri.p_c) - a) < 1e-10

    def test_longest_placeable_edge(self):
        # at the limit, children measured on the hyperboloid still match the
        # closed form (~1e-7 relative); beyond it place refuses
        longest = plane_model.MAX_PLACED_EDGE
        rng = random.Random(2)
        worst = 0.0
        for _ in range(50):
            while True:
                b, c = (rng.uniform(0.05, 1.0) * longest for _ in range(2))
                if longest < b + c:
                    break
            e = EdgeLengths(longest, b, c)
            for letter in "ABCM":
                for x, y in zip(apply_oracle(letter, e).as_tuple(),
                                child_edges(letter, e).as_tuple()):
                    worst = max(worst, abs(x - y) / y)
        assert worst < 1e-6
        with pytest.raises(ValueError, match="exceeds"):
            place(EdgeLengths(longest * 1.01, longest, longest))


class TestAngleAt:
    def test_equilateral_angle(self):
        tri = place(EdgeLengths(1, 1, 1))
        expect = math.acos(math.cosh(1) / (math.cosh(1) + 1))
        assert abs(angle_at(tri.p_a, tri.p_b, tri.p_c) - expect) < 1e-12

    def test_coincident_rejected(self):
        u = HPoint(1, 0, 0)
        v = HPoint(math.cosh(1), math.sinh(1), 0)
        with pytest.raises(InvalidPointError):
            angle_at(u, v, u)  # q coincides with the vertex

    def test_matches_closed_form_sampled(self):
        rng = random.Random(29)
        for _ in range(300):
            while True:
                a, b, c = (rng.uniform(0.05, 4) for _ in range(3))
                if a < b + c and b < c + a and c < a + b:
                    break
            tri = place(EdgeLengths(a, b, c))
            A, B, C = hyptrig.angles_from_edges(a, b, c)
            assert abs(angle_at(tri.p_a, tri.p_b, tri.p_c) - A) < 1e-10
            assert abs(angle_at(tri.p_b, tri.p_c, tri.p_a) - B) < 1e-10
            assert abs(angle_at(tri.p_c, tri.p_a, tri.p_b) - C) < 1e-10

    def test_lambert_right_angle_and_feet(self):
        # every vertex sits at distance l_a from the line through the two
        # midpoints flanking it (the midline opposite A); the foot of the
        # perpendicular makes a right angle there
        for edges in [(1, 1, 1), (4, 4, 7), (0.7, 1.1, 1.5)]:
            tri = place(EdgeLengths(*edges))
            mids = (midpoint(tri.p_b, tri.p_c), midpoint(tri.p_c, tri.p_a),
                    midpoint(tri.p_a, tri.p_b))
            md = hyptrig.medial_data(*edges)
            for vertex, (u, v), l in (
                (tri.p_b, (mids[1], mids[2]), md.l_a),
                (tri.p_c, (mids[1], mids[2]), md.l_a),
                (tri.p_c, (mids[2], mids[0]), md.l_b),
                (tri.p_a, (mids[0], mids[1]), md.l_c),
            ):
                foot = foot_of_perpendicular(vertex, u, v)
                assert abs(dist(vertex, foot) - l) < 1e-9
                assert abs(angle_at(foot, vertex, u) - math.pi / 2) < 1e-9 or \
                    abs(angle_at(foot, vertex, v) - math.pi / 2) < 1e-9


class TestDisk:
    def test_origin_maps_to_center(self):
        assert to_disk(HPoint(1, 0, 0), "klein") == (0.0, 0.0)
        assert to_disk(HPoint(1, 0, 0), "poincare") == (0.0, 0.0)

    def test_images_inside_unit_disk(self):
        rng = random.Random(31)
        for _ in range(200):
            u = random_point(rng, spread=5)
            for model in ("klein", "poincare"):
                x, y = to_disk(u, model)
                assert math.hypot(x, y) < 1

    def test_poincare_smaller_than_klein(self):
        rng = random.Random(33)
        for _ in range(200):
            u = random_point(rng)
            if u.x0 <= 1 + 1e-12:
                continue
            k = math.hypot(*to_disk(u, "klein"))
            p = math.hypot(*to_disk(u, "poincare"))
            assert p < k

    def test_klein_geodesics_are_straight(self):
        rng = random.Random(35)
        for _ in range(50):
            u, v = random_point(rng), random_point(rng)
            x0, y0 = to_disk(u, "klein")
            x1, y1 = to_disk(v, "klein")
            for t in (0.25, 0.5, 0.75):
                g = geodesic_point(u, v, t)
                x, y = to_disk(g, "klein")
                # cross product with the chord must vanish
                cross = (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)
                assert abs(cross) < 1e-12

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            to_disk(HPoint(1, 0, 0), "gans")


def reference_geodesic_samples(u, v, ts):
    # the one loop from one distance that samples a Poincare edge in render:
    # each point is the weighted sum of the ends, not renormalized
    d = dist(u, v)
    sinh_d = math.sinh(d)
    u0, u1, u2 = u
    v0, v1, v2 = v
    for t in ts:
        if d < 1e-15:
            wu, wv = 1 - t, t
        else:
            wu = math.sinh((1 - t) * d) / sinh_d
            wv = math.sinh(t * d) / sinh_d
        yield wu * u0 + wv * v0, wu * u1 + wv * v1, wu * u2 + wv * v2


def bits(point):
    return [float(x).hex() for x in point]


class TestGeodesicPoint:
    TS = [i / 32 for i in range(33)] + [0.1, 1 / 3, 0.7]

    @staticmethod
    def pairs():
        # seeded pairs at every scale: far apart, within 1e-15 and equal
        rng = random.Random(41)
        out = [(HPoint(1.0, 0.0, 0.0), HPoint(1.0, 0.0, 0.0))]
        for _ in range(60):
            u = random_point(rng, spread=rng.choice((0.5, 3.0, 50.0)))
            x1, x2 = u.x1 + rng.uniform(-4e-16, 4e-16), u.x2
            near = HPoint(math.sqrt(1 + x1 * x1 + x2 * x2), x1, x2)
            out += [(u, random_point(rng, spread=3.0)), (u, near), (u, u)]
        return out

    def test_pairs_cover_both_branches(self):
        ds = [dist(u, v) for u, v in self.pairs()]
        assert any(d == 0 for d in ds)
        assert any(0 < d < 1e-15 for d in ds)
        assert any(d >= 1e-15 for d in ds)

    def test_matches_the_one_loop_sampler_bit_for_bit(self):
        for u, v in self.pairs():
            ref = reference_geodesic_samples(u, v, self.TS)
            assert [bits(geodesic_point(u, v, t)) for t in self.TS] == list(map(bits, ref))

    def test_points_read_backwards_run_from_v_to_u(self):
        ts = [i / 32 for i in range(33)]
        for u, v in self.pairs():
            if dist(u, v) >= 1e-15:
                forward = [bits(geodesic_point(u, v, t)) for t in ts]
                assert forward[::-1] == [bits(geodesic_point(v, u, t)) for t in ts]


def polar_point(rng, r):
    # (cosh r, sinh r cos theta, sinh r sin theta), x0 recomputed from x1 and x2
    theta = rng.uniform(0, 2 * math.pi)
    x1, x2 = math.sinh(r) * math.cos(theta), math.sinh(r) * math.sin(theta)
    return HPoint(math.sqrt(1 + x1 * x1 + x2 * x2), x1, x2)


def far_pairs(seed, radius, n):
    # u at the given radius, v at a uniform radius below it
    rng = random.Random(seed)
    return [(polar_point(rng, radius), polar_point(rng, rng.uniform(0, radius)))
            for _ in range(n)]


def decimal_poincare_samples(u, v, d, ts):
    # the weights of distance d at 40 digits, on the points of the sheet with
    # the float x1 and x2 of u and v, projected onto the Poincare disk
    with decimal.localcontext() as ctx:
        ctx.prec = 40

        def sheet(p):
            x1, x2 = decimal.Decimal(p.x1), decimal.Decimal(p.x2)
            return (1 + x1 * x1 + x2 * x2).sqrt(), x1, x2

        def sinh(x):
            return (x.exp() - (-x).exp()) / 2

        u, v, d = sheet(u), sheet(v), decimal.Decimal(d)
        out = []
        for t in map(decimal.Decimal, ts):
            wu, wv = sinh((1 - t) * d), sinh(t * d)  # over sinh(d), which cancels
            x0, x1, x2 = (wu * p + wv * q for p, q in zip(u, v))
            y = sinh(d) + x0
            out.append((float(x1 / y), float(x2 / y)))
        return out


class TestFarFromOrigin:
    # Renormalizing a point through sqrt(x0^2 - x1^2 - x2^2) cancels like
    # cosh^2 of its radius: at radius 20 and 22 the root is of 0 or of a
    # negative number for many samples, and at 15 it moves the Poincare
    # projection by up to ~3e-10
    TS = [i / 32 for i in range(33)]

    @pytest.mark.parametrize("radius", [20, 22])
    def test_samples_raise_nothing_and_stay_in_the_disk(self, radius):
        for u, v in far_pairs(43, radius, 1000):
            for t in self.TS:
                assert math.hypot(*to_disk(geodesic_point(u, v, t), "poincare")) < 1

    def test_poincare_samples_match_40_digits(self):
        # against the same weights at 40 digits, so that the error of dist
        # itself is left out: 5.6e-16 on these pairs, where renormalizing
        # each sample read 2.2e-10
        worst = 0.0
        for u, v in far_pairs(47, 15, 200):
            want = decimal_poincare_samples(u, v, dist(u, v), self.TS)
            for t, (x, y) in zip(self.TS, want):
                px, py = to_disk(geodesic_point(u, v, t), "poincare")
                worst = max(worst, abs(px - x), abs(py - y))
        assert worst < 1e-13


def test_oracle_midline_agreement_sampled():
    rng = random.Random(37)
    for _ in range(1000):
        while True:
            a, b, c = (rng.uniform(0.01, 5) for _ in range(3))
            if a < b + c and b < c + a and c < a + b:
                break
        tri = place(EdgeLengths(a, b, c))
        md = hyptrig.medial_data(a, b, c)
        m_a = midpoint(tri.p_b, tri.p_c)
        m_b = midpoint(tri.p_c, tri.p_a)
        m_c = midpoint(tri.p_a, tri.p_b)
        assert abs(dist(m_b, m_c) - md.m_a) < 1e-9
        assert abs(dist(m_c, m_a) - md.m_b) < 1e-9
        assert abs(dist(m_a, m_b) - md.m_c) < 1e-9
