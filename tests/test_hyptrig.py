"""Tests for the scalar trigonometry formulas."""

import math
import random
from decimal import Decimal, getcontext, localcontext

import pytest
from hypothesis import assume, given, settings, strategies as st

from trisub import hyptrig
from trisub.hyptrig import (DomainError, InconsistentInputError, angles_from_edges,
                            area_from_edges, cagnoli_area, defect_area, edges_from_angles,
                            keogh_area, law_of_sines_ratio, medial_data, trace_parent_area)
from trisub import plane_model
from trisub.shape import AngleShape, EdgeLengths, shape_from_angles, shape_from_edges


def sample_edges(rng, lo=0.01, hi=5.0):
    while True:
        a, b, c = (rng.uniform(lo, hi) for _ in range(3))
        if a < b + c and b < c + a and c < a + b:
            return a, b, c


@st.composite
def hyperbolic_angles(draw):
    """Angle triples with positive defect, bounded away from collapse."""
    A = draw(st.floats(0.05, 2.8))
    B = draw(st.floats(0.05, max(0.051, min(2.8, math.pi - A - 0.1))))
    C = draw(st.floats(0.05, max(0.051, min(2.8, math.pi - A - B - 0.05))))
    if A + B + C >= math.pi - 1e-6:
        return None
    return A, B, C


class TestAnglesFromEdges:
    def test_equilateral_closed_form(self):
        A, B, C = angles_from_edges(1, 1, 1)
        expect = math.acos(math.cosh(1) / (math.cosh(1) + 1))
        assert A == B == C
        assert abs(A - expect) < 1e-14

    def test_overflowing_edges_raise_domain_error(self):
        # sinh^2(edge/2) leaves binary64 above edge ~710
        for edges in ((800.0, 800.0, 800.0), (1e308, 1e308, 1e308)):
            with pytest.raises(DomainError, match="too long"):
                angles_from_edges(*edges)

    def test_equilateral_matches_placed_angle(self):
        # independent geometric oracle on the same triangle
        tri = plane_model.place(EdgeLengths(1, 1, 1))
        measured = plane_model.angle_at(tri.p_a, tri.p_b, tri.p_c)
        assert abs(angles_from_edges(1, 1, 1)[0] - measured) < 1e-12

    def test_euclidean_limit(self):
        for t in (1e-4, 1e-6):
            for ang in angles_from_edges(t, t, t):
                assert abs(ang - math.pi / 3) < 1e-7

    def test_triangle_inequality_violation_names_edge(self):
        with pytest.raises(DomainError, match="edge c"):
            angles_from_edges(1, 1, 3)
        with pytest.raises(DomainError, match="edge a"):
            angles_from_edges(9, 2, 3)
        with pytest.raises(DomainError, match="positive"):
            angles_from_edges(-1, 1, 1)

    def test_angle_sum_below_pi(self):
        rng = random.Random(3)
        for _ in range(200):
            a, b, c = sample_edges(rng)
            A, B, C = angles_from_edges(a, b, c)
            assert 0 < A < math.pi and 0 < B < math.pi and 0 < C < math.pi
            assert A + B + C < math.pi

    def test_tiny_edges_match_euclidean_law_of_cosines(self):
        a, b, c = 1.0e-6, 1.3e-6, 0.8e-6
        A, _, _ = angles_from_edges(a, b, c)
        euclid = math.acos((b * b + c * c - a * a) / (2 * b * c))
        assert abs(A - euclid) / euclid < 1e-6


class TestEdgesFromAngles:
    def test_round_trip_equilateral(self):
        A, B, C = angles_from_edges(1, 1, 1)
        a, b, c = edges_from_angles(A, B, C)
        assert max(abs(a - 1), abs(b - 1), abs(c - 1)) < 1e-12

    def test_half_radian_closed_form(self):
        a, b, c = edges_from_angles(0.5, 0.5, 0.5)
        expect = math.acosh((math.cos(0.5) + math.cos(0.5) ** 2) / math.sin(0.5) ** 2)
        assert abs(a - expect) < 1e-12 and a == b == c
        back = angles_from_edges(a, b, c)
        assert max(abs(x - 0.5) for x in back) < 1e-12

    def test_euclidean_boundary_rejected(self):
        with pytest.raises(DomainError, match="not hyperbolic"):
            edges_from_angles(math.pi / 3, math.pi / 3, math.pi / 3)
        with pytest.raises(DomainError):
            edges_from_angles(1.5, 1.5, 1.5)

    def test_round_trip_sampled(self):
        rng = random.Random(11)
        for _ in range(1000):
            a, b, c = sample_edges(rng)
            back = edges_from_angles(*angles_from_edges(a, b, c))
            for x, y in zip((a, b, c), back):
                assert abs(x - y) / x < 1e-10

    @settings(max_examples=150, deadline=None)
    @given(hyperbolic_angles())
    def test_round_trip_from_angles(self, angles):
        if angles is None:
            return
        edges = edges_from_angles(*angles)
        back = angles_from_edges(*edges)
        for x, y in zip(angles, back):
            assert abs(x - y) <= 1e-10 * max(1.0, abs(x))


def per_denominator_from_angles(A, B, C, S):
    # _from_angles as it was when each denominator took its own two sines,
    # verbatim: taking each sine once must keep every bit
    half = math.sin(S / 2)

    def one(A, B, C):
        den = math.sin(B) * math.sin(C)  # 0 once the product underflows
        return half * math.sin(A + S / 2) / den if den else math.inf

    p, q, r = one(A, B, C), one(B, C, A), one(C, A, B)
    cp, cq, cr = math.sqrt(1 + p), math.sqrt(1 + q), math.sqrt(1 + r)
    if math.inf in (4 * cq * cr, 4 * cr * cp, 4 * cp * cq):  # or in p, q, r
        raise DomainError(f"angles ({A!r}, {B!r}, {C!r}) are too small: a state with "
                          f"cosh(edge/2) = ({cp!r}, {cq!r}, {cr!r}) is too long to step")
    (m1, e1), (m2, e2) = hyptrig._sqrt_product(q, r), hyptrig._sqrt_product(1 + q, 1 + r)
    m, e = math.frexp(2 * math.sin(A) * m1 * m2)
    return p, q, r, math.ldexp(m, 1000), 1000 - e - e1 - e2


def test_from_angles_matches_per_denominator_sines():
    # seeded triples, each angle uniform in (0, 1.5) or log-uniform down to
    # 1e-320: some give states, some are refused as too small, and some of
    # those because a product of two sines underflows to 0
    rng = random.Random(53)
    outcomes = {"state": 0, "too small": 0, "zero product": 0}
    while sum(outcomes.values()) < 4000:
        A, B, C = (rng.uniform(0, 1.5) if rng.random() < 0.5 else 10 ** rng.uniform(-320, -1)
                   for _ in range(3))
        S = math.pi - A - B - C
        if not (min(A, B, C) > 0 and S > hyptrig.EUCLIDEAN_SUM_ATOL):
            continue
        try:
            want = per_denominator_from_angles(A, B, C, S)
        except DomainError as exc:
            with pytest.raises(DomainError) as got:
                hyptrig._from_angles(A, B, C, S)
            assert str(got.value) == str(exc) and "too small" in str(exc)
            sines = [math.sin(x) for x in (A, B, C)]
            zero = 0 in (sines[1] * sines[2], sines[2] * sines[0], sines[0] * sines[1])
            outcomes["zero product" if zero else "too small"] += 1
            continue
        got = hyptrig._from_angles(A, B, C, S)
        assert bits(got[:4]) == bits(want[:4]) and got[4] == want[4]
        outcomes["state"] += 1
    assert min(outcomes.values()) > 100, outcomes  # 2750, 166 and 1084


class TestAreas:
    def test_defect_direct(self):
        assert abs(defect_area(math.pi / 6, math.pi / 6, math.pi / 6) - math.pi / 2) < 1e-15
        assert defect_area(1.2, 1.2, math.pi - 2.4) == 0.0
        with pytest.raises(DomainError):
            defect_area(2.0, 2.0, 2.0)

    # sums up to pi + CLAMP_TOL (1e-9) gave 0.0, also where AngleShape and
    # edges_from_angles refuse them; EUCLIDEAN_SUM_ATOL (1e-12) is the one rule
    @pytest.mark.parametrize("excess", [1e-13, 9e-13])
    def test_defect_is_zero_within_the_euclidean_band(self, excess):
        angles = (1.2, 1.2, math.pi - 2.4 + excess)
        assert defect_area(*angles) == 0.0
        assert AngleShape(*angles).is_euclidean

    @pytest.mark.parametrize("excess", [2e-12, 1e-10, 1e-9])
    def test_defect_refuses_sums_beyond_the_euclidean_band(self, excess):
        angles = (1.2, 1.2, math.pi - 2.4 + excess)
        for build in (defect_area, AngleShape):
            with pytest.raises(DomainError, match="exceeds pi"):
                build(*angles)

    def test_trace_identity_refuses_a_right_side_above_4(self):
        # x = 6 with y = z = 2 is no triangle: its Heron form is -1
        with pytest.raises(InconsistentInputError, match="trace identity right side exceeds 4"):
            trace_parent_area(6.0, 2.0, 2.0)

    def test_cagnoli_equals_defect(self):
        A, B, C = angles_from_edges(1, 1, 1)
        assert abs(cagnoli_area(1, 1, 1, A) - defect_area(A, B, C)) < 1e-10

    def test_cagnoli_apex_447(self):
        A, B, C = angles_from_edges(4, 4, 7)
        # apex angle C sits opposite the edge of length 7
        assert abs(cagnoli_area(7, 4, 4, C) - defect_area(A, B, C)) < 1e-10

    def test_cagnoli_vanishes_with_scale(self):
        A = angles_from_edges(1, 1, 1)[0]
        prev = math.inf
        for t in (1e-1, 1e-2, 1e-3):
            S = cagnoli_area(t, t, t, angles_from_edges(t, t, t)[0])
            assert S < prev
            prev = S
        assert prev < 1e-6

    def test_cagnoli_inconsistent_input(self):
        with pytest.raises(InconsistentInputError):
            cagnoli_area(0.1, 4.9, 4.9, 1.5)

    def test_keogh_euclidean_limit(self):
        # for a near-Euclidean triangle the parent area is ~ b c sin A / 2
        t = 1e-3
        a, b, c = 1.0 * t, 1.1 * t, 0.9 * t
        A = angles_from_edges(a, b, c)[0]
        md = medial_data(a, b, c)
        alpha = angles_from_edges(*md.midlines)[0]
        S = keogh_area(md.m_b, md.m_c, alpha)
        assert abs(S - b * c * math.sin(A) / 2) / S < 1e-5

    @pytest.mark.parametrize("edges,tol", [((1, 1, 1), 1e-10), ((4, 4, 7), 1e-9)])
    def test_keogh_equals_defect(self, edges, tol):
        md = medial_data(*edges)
        alpha = angles_from_edges(*md.midlines)[0]
        S = keogh_area(md.m_b, md.m_c, alpha)
        assert abs(S - defect_area(*angles_from_edges(*edges))) < tol

    def test_trace_parent_degenerate(self):
        assert trace_parent_area(2.0, 2.0, 2.0) == 0.0

    @pytest.mark.parametrize("edges", [(1, 1, 1), (2, 2, 3)])
    def test_trace_parent_equals_defect(self, edges):
        md = medial_data(*edges)
        xyz = (2 * math.cosh(m) for m in md.midlines)
        assert abs(trace_parent_area(*xyz) - defect_area(*angles_from_edges(*edges))) < 1e-9

    def test_trace_parent_rejects_bad_coords(self):
        with pytest.raises(InconsistentInputError):
            trace_parent_area(1.5, 2.0, 2.0)
        with pytest.raises(InconsistentInputError):
            trace_parent_area(40.0, 40.0, 40.0)

    def test_area_from_edges_examples(self):
        assert area_from_edges(1e-8, 1e-8, 1e-8) < 1e-15
        A, B, C = angles_from_edges(1, 1, 1)
        assert abs(area_from_edges(1, 1, 1) - defect_area(A, B, C)) < 1e-10
        A, B, C = angles_from_edges(4, 4, 7)
        assert abs(area_from_edges(4, 4, 7) - defect_area(A, B, C)) < 1e-9

    def test_four_way_agreement_sampled(self):
        rng = random.Random(77)
        for _ in range(1000):
            a, b, c = sample_edges(rng)
            A, B, C = angles_from_edges(a, b, c)
            md = medial_data(a, b, c)
            alpha = angles_from_edges(*md.midlines)[0]
            routes = (
                defect_area(A, B, C),
                cagnoli_area(a, b, c, A),
                keogh_area(md.m_b, md.m_c, alpha),
                trace_parent_area(*(2 * math.cosh(m) for m in md.midlines)),
                area_from_edges(a, b, c),
            )
            for i in range(len(routes)):
                for j in range(i + 1, len(routes)):
                    assert abs(routes[i] - routes[j]) < 1e-9


@pytest.mark.parametrize("bad", [-0.5, 0.0, math.pi, 4.0, math.inf, math.nan])
@pytest.mark.parametrize("identity", [
    lambda A: cagnoli_area(1, 1, 1, A),
    lambda A: keogh_area(0.5, 0.5, A),
    lambda A: law_of_sines_ratio(1.0, A),
    lambda A: defect_area(A, 0.5, 0.5),
], ids=["cagnoli_area", "keogh_area", "law_of_sines_ratio", "defect_area"])
def test_identities_refuse_impossible_angles(identity, bad):
    # a negative angle gave a negative area or ratio, and nan gave nan
    with pytest.raises(DomainError, match=r"must be in \(0, pi\)"):
        identity(bad)


@pytest.mark.parametrize("identity", [
    lambda: keogh_area(0.0, 1.0, 1.0),
    lambda: law_of_sines_ratio(0.0, 1.0),
], ids=["keogh_area", "law_of_sines_ratio"])
def test_identities_refuse_a_zero_length(identity):
    with pytest.raises(DomainError, match="must be positive"):
        identity()


# a valid sliver (a + b - c is one ulp of c) whose Heron form rounds to 0 in
# floats: its state (p, q, r) has lost the digits the form would cancel
FLAT_SLIVER = (0.7878068188688756, 1.7710252354914908, 2.558832054360366)


def decimal_sinh(t):
    # sinh of a Decimal at the context's precision, by its series below 1 so
    # that tiny arguments do not cancel
    if abs(t) >= 1:
        return (t.exp() - (-t).exp()) / 2
    term = total = t
    k, small = 1, Decimal(10) ** -(getcontext().prec + 2)
    while abs(term) > abs(total) * small:
        term *= t * t / ((2 * k) * (2 * k + 1))
        total += term
        k += 1
    return total


def decimal_heron_root(p, q, r):
    # the square root of the Heron form of a Decimal state, at 80 digits
    with localcontext() as ctx:
        ctx.prec = 80
        return (2 * (p * q + q * r + r * p) - p * p - q * q - r * r + 4 * p * q * r).sqrt()


def decimal_state(a, b, c):
    """The state (p, q, r, root) of float edges at 80 digits, root from the
    Heron form: a route apart from _start's product of sinh values."""
    with localcontext() as ctx:
        ctx.prec = 80
        p, q, r = (decimal_sinh(Decimal(x) / 2) ** 2 for x in (a, b, c))
    return p, q, r, decimal_heron_root(p, q, r)


def decimal_angles(a, b, c):
    # each angle from its root and cosine term taken at 80 digits and rounded
    # once, then math.atan2: right to about an ulp
    p, q, r, root = decimal_state(a, b, c)
    with localcontext() as ctx:
        ctx.prec = 80
        terms = q + r - p + 2 * q * r, r + p - q + 2 * r * p, p + q - r + 2 * p * q
    return tuple(math.atan2(float(root), float(t)) for t in terms)


def rel(x, ref):
    return abs(x - float(ref)) / float(ref)


def plain_root(state):
    # the root of a state (p, q, r, root, k): its scaled root times 2^-k
    return math.ldexp(state[3], -state[4])


def decimal_steps(state, letters):
    """Each Decimal state (p, q, r, root) along letters from state, each step
    the kernels' formulas at 80 digits: no entry under- or overflows."""
    p, q, r, root = state
    for letter in letters:
        with localcontext() as ctx:  # not held across the yield
            ctx.prec = 80
            cp, cq, cr = (1 + p).sqrt(), (1 + q).sqrt(), (1 + r).sqrt()
            kept = "ABC".find(letter)  # the corner a cell keeps, -1 for M
            mids = [(x + ((y - z) / (cy + cz)) ** 2) / (4 * cy * cz)
                    for x, y, z, cy, cz in ((p, q, r, cq, cr), (q, r, p, cr, cp),
                                            (r, p, q, cp, cq))]
            halves = [x / (2 + 2 * cx) for x, cx in ((p, cp), (q, cq), (r, cr))]
            root /= 4 * cp * cq * cr / ((cp, cq, cr)[kept] if kept >= 0 else 1)
            p, q, r = mids if kept < 0 else [mids[i] if i == kept else halves[i]
                                             for i in range(3)]
        yield p, q, r, root


def decimal_walk(edges, word):
    """The state (p, q, r, root) after word from float edges, by decimal_steps."""
    state = decimal_state(*edges)
    for state in decimal_steps(state, word):
        pass
    return state


def decimal_state_angles(p, q, r, root):
    # the angles of a Decimal state, each atan2 of its root and cosine term
    # over the larger of the two, so neither underflows in the float
    with localcontext() as ctx:
        ctx.prec = 80
        terms = q + r - p + 2 * q * r, r + p - q + 2 * r * p, p + q - r + 2 * p * q
        return tuple(math.atan2(float(root / m), float(t / m))
                     for t in terms for m in [max(root, abs(t))])


class TestDerive:
    """_start derives a state (p, q, r, root, k) from edges, the one place a
    state comes from edges, and decides the domain."""

    def test_zero_state_is_too_short(self):
        # the floor _check_edges also holds; no caller places a point there
        with pytest.raises(DomainError, match="too short"):
            hyptrig._start(0.0, 0.0, 0.0)

    def test_underflowing_root_is_scaled(self):
        # a tiny sliver's p, q and r are normal but its root is not: it was
        # refused as too short.  Scaled by 2^k, its angles and area keep their bits
        edges = (3e-154, 3e-154, 5.99999e-154)
        state = hyptrig._start(*edges)
        assert plain_root(state) < 2.0 ** -1022 < state[3]
        want = decimal_state_angles(*decimal_state(*edges))
        assert max(map(rel, angles_from_edges(*edges), want)) < 1e-15
        assert shape_from_edges(*edges).angles == angles_from_edges(*edges)
        # the area, 2 atan(root / (2 + p + q + r)), is the root to within its
        # subnormal spacing
        assert abs(area_from_edges(*edges) - float(decimal_state(*edges)[3])) <= 5e-324
        # from angles 1e-150 the root (~1e449) passes binary64; the one form holds it
        p, q, r, root, k = shape_from_angles(1e-150, 1e-150, 1e-150)._state
        with localcontext() as ctx:
            ctx.prec = 60
            want = decimal_heron_root(Decimal(p), Decimal(q), Decimal(r))
            assert abs(Decimal(root) * Decimal(2) ** -k / want - 1) < Decimal("1e-14")

    @pytest.mark.parametrize("edges", [(1e-150, 1e-150, 1e-150), (1e-130, 2e-130, 1.5e-130),
                                       (3e-154, 4e-154, 5e-154), (1e-100, 1.5e-100, 2e-100)])
    def test_tiny_state_is_scaled_exactly(self, edges):
        # below ~1e-8 sinh(x) rounds to x, so the root of edges scaled by 2^100
        # is the root scaled by 2^200, bit for bit: its four square roots keep
        # it normal down to the floor (~3e-154), and it is right there too
        root = plain_root(hyptrig._start(*edges))
        assert 2.0 ** -1022 < root < math.inf
        assert root == plain_root(hyptrig._start(*(x * 2.0 ** 100 for x in edges))) * 2.0 ** -200
        assert rel(root, decimal_state(*edges)[3]) < 1e-15

    @pytest.mark.parametrize("t", [238.0, 500.0, 709.0])
    def test_overflowing_form_is_too_long(self, t):
        with pytest.raises(DomainError, match="too long: their Heron form overflows"):
            hyptrig._start(t, t, t)

    def test_root_is_the_plain_root(self):
        # the state is sinh^2(edge/2) bit for bit, and the root the square root
        # of its Heron form to a few ulps; long edges amplify the rounding of
        # the half-sums by up to the half-perimeter
        rng = random.Random(41)
        for (lo, hi), tol in (((1e-6, 1e-3), 1e-15), ((0.01, 5.0), 1e-15), ((0.01, 40.0), 1e-14)):
            for _ in range(300):
                edges = sample_edges(rng, lo, hi)
                state = hyptrig._start(*edges)
                assert state[:3] == tuple(math.sinh(x / 2) ** 2 for x in edges)
                assert rel(plain_root(state), decimal_state(*edges)[3]) < tol

    @pytest.mark.parametrize("public", [angles_from_edges, area_from_edges, medial_data,
                                        shape_from_edges])
    def test_public_functions_take_a_flat_sliver(self, public):
        # they refused it as flat, and before that returned zero angles, a
        # zero area or zero feet
        out = public(*FLAT_SLIVER)
        if public is shape_from_edges:
            out = [*out.angles, *out.edges, out.area]
        assert all(0 < x < math.inf for x in ([out] if isinstance(out, float) else out))

    def test_sliver_angles_match_the_reference(self):
        # angles of slivers down to one ulp of slack, within a few ulps of the
        # 80-digit Heron form: the half-sums keep what the state loses
        rng = random.Random(43)
        slivers = [FLAT_SLIVER, (5, 5, 9.99), (20, 20, 39), (14.2, 13.82, 0.43)]
        while len(slivers) < 200:
            b, c = rng.uniform(0.01, 30), rng.uniform(0.01, 30)
            a = (b + c) * (1 - 10 ** rng.uniform(-15, -1))
            if abs(b - c) < a < b + c:
                slivers.append((a, b, c))
        for edges in slivers:
            got, want = angles_from_edges(*edges), decimal_angles(*edges)
            assert max(abs(x - y) / y for x, y in zip(got, want)) < 1e-13, edges


@pytest.mark.parametrize("edges", [(1e-65, 1e-65, 1e-65), (1e-70, 1.5e-70, 2e-70),
                                   (1e-100, 1.5e-100, 2e-100)])
def test_sin_angles_of_tiny_states(edges):
    # below 2^-400 the state is scaled by a power of two, which is exact:
    # where the plain products stay normal (edges above ~2.4e-77) the sines
    # keep their bits, and below it they stay finite and match the angles
    h = hyptrig._start(*edges)
    p, q, r, root = *h[:3], plain_root(h)
    assert max(p, q, r) < 2.0 ** -400
    sines = hyptrig._sin_angles(*h)
    if q * r > 2.0 ** -1022:
        assert sines == (root / (2 * math.sqrt(q * r * (1 + q) * (1 + r))),
                         root / (2 * math.sqrt(r * p * (1 + r) * (1 + p))),
                         root / (2 * math.sqrt(p * q * (1 + p) * (1 + q))))
    assert sines == pytest.approx([math.sin(x) for x in hyptrig._angles(*h)], rel=1e-15)


class TestLawOfSines:
    def test_equilateral_symmetry(self):
        A = angles_from_edges(1, 1, 1)[0]
        assert law_of_sines_ratio(1, A) == law_of_sines_ratio(1, A)

    def test_internal_consistency_447(self):
        A, B, C = angles_from_edges(4, 4, 7)
        r1 = law_of_sines_ratio(4, A)
        r3 = law_of_sines_ratio(7, C)
        assert abs(r1 - r3) / r1 < 1e-12

    def test_sampled_consistency(self):
        # slivers would add acos noise ~eps/sin^2; keep angles moderate so
        # the 1e-12 contract on the formula itself is what gets tested
        rng = random.Random(5)
        count = 0
        while count < 300:
            a, b, c = sample_edges(rng)
            A, B, C = angles_from_edges(a, b, c)
            if min(A, B, C) < 0.05:
                continue
            count += 1
            rs = (law_of_sines_ratio(a, A), law_of_sines_ratio(b, B),
                  law_of_sines_ratio(c, C))
            assert max(rs) - min(rs) < 1e-12 * max(rs)

    def test_euclidean_limit(self):
        t = 1e-7
        A = angles_from_edges(t, t, t)[0]
        euclid = math.sin(A) / t
        assert abs(law_of_sines_ratio(t, A) - euclid) / euclid < 1e-6


class TestMedialData:
    def test_equilateral_mu_substitution(self):
        a = 1.3
        T = math.tanh(3 * a / 4) * math.tanh(a / 4) ** 3
        md = medial_data(a, a, a)
        assert abs(md.mu - (1 - T) / (1 + T)) < 1e-15

    def test_euclidean_limit(self):
        t = 1e-6
        md = medial_data(t, t, t)
        assert abs(md.mu - 1) < 1e-10
        assert abs(md.m_a - t / 2) / (t / 2) < 1e-6
        assert md.l_a < 1e-6

    def test_midlines_match_placed_midpoints_447(self):
        md = medial_data(4, 4, 7)
        tri = plane_model.place(EdgeLengths(4, 4, 7))
        m_a = plane_model.midpoint(tri.p_b, tri.p_c)
        m_b = plane_model.midpoint(tri.p_c, tri.p_a)
        m_c = plane_model.midpoint(tri.p_a, tri.p_b)
        assert abs(plane_model.dist(m_b, m_c) - md.m_a) < 1e-9
        assert abs(plane_model.dist(m_c, m_a) - md.m_b) < 1e-9
        assert abs(plane_model.dist(m_a, m_b) - md.m_c) < 1e-9

    def test_lambert_identity_sampled(self):
        rng = random.Random(23)
        for _ in range(500):
            a, b, c = sample_edges(rng)
            md = medial_data(a, b, c)
            for x, m, l in zip((a, b, c), md.midlines, md.feet):
                lhs = math.sinh(x / 2)
                rhs = math.sinh(m) * math.cosh(l)
                assert abs(lhs - rhs) / lhs < 1e-12

    def test_midline_shorter_than_half_edge(self):
        # hyperbolic midlines are strictly shorter than half the parallel
        # edge; the Lambert identity forces this (cosh l > 1)
        rng = random.Random(29)
        for _ in range(300):
            a, b, c = sample_edges(rng)
            md = medial_data(a, b, c)
            for x, m in zip((a, b, c), md.midlines):
                assert 0 < m < x / 2 < x

    def test_mu_strictly_decreases_under_scaling(self):
        base = (0.7, 1.1, 1.5)
        prev = medial_data(*base).mu
        for lam in (1.2, 1.5, 2.0, 3.0, 5.0):
            cur = medial_data(*(lam * x for x in base)).mu
            assert cur < prev
            prev = cur

    def test_mu_range(self):
        rng = random.Random(31)
        for _ in range(300):
            a, b, c = sample_edges(rng)
            assert 0 < medial_data(a, b, c).mu < 1

    def test_mu_is_cos_half_area(self):
        # cross-formula identity linking the midline factor to the area
        rng = random.Random(37)
        for _ in range(200):
            a, b, c = sample_edges(rng)
            md = medial_data(a, b, c)
            assert abs(md.mu - math.cos(area_from_edges(a, b, c) / 2)) < 1e-12

    def test_underflowing_state_is_too_short(self):
        # sinh^2(edge/2) underflows to 0 below ~4.4e-162, where every midline
        # is 0; medial_data refuses it with the check shape_from_edges makes
        for t in (1e-170, 1e-300):
            for build in (medial_data, shape_from_edges):
                with pytest.raises(DomainError, match="too short: the largest is subnormal"):
                    build(t, t, t)

    def test_mu_is_cos_half_area_to_rounding(self):
        # mu and the area share the state (p, q, r); for long edges S/2
        # nears pi/2, where cos itself loses the relative accuracy
        rng = random.Random(38)
        for _ in range(300):
            a, b, c = sample_edges(rng)
            cos_half = math.cos(area_from_edges(a, b, c) / 2)
            assert medial_data(a, b, c).mu == pytest.approx(cos_half, rel=1e-15, abs=0)


def reference_midline_sinh_sq(p, q, r, cq, cr):
    # sinh^2(m_a/2) as one function of the state and two half-edge cosh values
    d = (q - r) / (cq + cr)
    return (p + d * d) / (4 * cq * cr)


def reference_child(letter, p, q, r, root):
    # one step as a dispatch on the letter over reference_midline_sinh_sq; a
    # cell divides the root by 4 times the cosh values of its halved edges
    cp, cq, cr = math.sqrt(1 + p), math.sqrt(1 + q), math.sqrt(1 + r)
    mid = reference_midline_sinh_sq
    if letter == "M":
        return (mid(p, q, r, cq, cr), mid(q, r, p, cr, cp), mid(r, p, q, cp, cq),
                root / (4 * cq * cr) / cp)
    if letter == "A":
        return mid(p, q, r, cq, cr), q / (2 + 2 * cq), r / (2 + 2 * cr), root / (4 * cq * cr)
    if letter == "B":
        return p / (2 + 2 * cp), mid(q, r, p, cr, cp), r / (2 + 2 * cr), root / (4 * cr * cp)
    return p / (2 + 2 * cp), q / (2 + 2 * cq), mid(r, p, q, cp, cq), root / (4 * cp * cq)


@st.composite
def sliver_edges(draw):
    """Edges (a, b, c) with a short of b + c by a relative slack down to 1e-15."""
    b, c = draw(st.floats(1e-6, 30.0)), draw(st.floats(1e-6, 30.0))
    slack = draw(st.floats(1e-15, 0.5))
    return draw(st.permutations([(b + c) * (1 - slack), b, c]))


# states (p, q, r, root, k), k over about the range _start and _from_angles make
states = st.builds(lambda h, k: (*h, k), st.one_of(
    st.tuples(*[st.floats(1e-300, 1e200)] * 4),  # any positive state and root
    st.tuples(*[st.floats(1e-300, 1e-12)] * 4),  # tiny states
    sliver_edges().filter(lambda e: e[0] < e[1] + e[2] and e[1] < e[2] + e[0]
                          and e[2] < e[0] + e[1]).map(lambda e: hyptrig._start(*e)[:4]),
), st.integers(-1100, 2100))


def bits(xs):
    return [x.hex() for x in xs]


class TestStepKernels:
    """The straight-line kernels of STEPS against a letter dispatch over one
    midline function, bit for bit, k returned as it came."""

    def test_one_kernel_per_letter(self):
        assert tuple(hyptrig.STEPS) == ("A", "B", "C", "M")

    @settings(max_examples=500, deadline=None)
    @given(states)
    def test_kernels_match_reference(self, state):
        *h, k = state
        for letter in "ABCM":
            *child, child_k = hyptrig.STEPS[letter](*state)
            assert child_k == k
            assert bits(child) == bits(reference_child(letter, *h))

    def test_carried_root_is_the_heron_root(self):
        # each cell's root is its parent's over a factor its kernel builds; from
        # triangles with no angle below 0.1 it is the root of the cell's own
        # Heron form, taken at 80 digits, to within a few ulps
        rng = random.Random(47)
        for _ in range(300):
            edges = sample_edges(rng, 0.05, 5.0)
            if min(angles_from_edges(*edges)) < 0.1:
                continue
            for letter in "ABCM":
                p, q, r, root, k = hyptrig.STEPS[letter](*hyptrig._start(*edges))
                root = math.ldexp(root, -k)
                assert rel(root, decimal_heron_root(Decimal(p), Decimal(q), Decimal(r))) < 1e-14

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(sliver_edges(), st.tuples(*[st.floats(1e-8, 200.0)] * 3)))
    def test_medial_data_midlines(self, edges):
        a, b, c = edges
        assume(a < b + c and b < c + a and c < a + b)
        try:
            md = medial_data(a, b, c)
        except DomainError:  # the Heron form overflows
            assume(False)
        p, q, r, *_ = hyptrig._start(a, b, c)
        cp, cq, cr = math.sqrt(1 + p), math.sqrt(1 + q), math.sqrt(1 + r)
        args = (p, q, r, cq, cr), (q, r, p, cr, cp), (r, p, q, cp, cq)
        assert md.midlines == tuple(2 * math.asinh(math.sqrt(reference_midline_sinh_sq(*x)))
                                    for x in args)
