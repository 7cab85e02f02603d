"""Scalar hyperbolic trigonometry for triangles.

A triangle's state is (p, q, r, root, k): p = sinh^2(a/2) etc., and root
times 2^-k the square root of their Heron form H = 2(pq+qr+rp) - p^2 - q^2
- r^2 + 4pqr, k fixed where the state is made so that root starts below
2^1000.  _start takes a state from edges: H = sinh s sinh x sinh y sinh z
on the half-sums x = (b + c - a)/2 etc. and s = x + y + z, each rounded
once by math.fsum, so the root does not cancel on slivers (W. Kahan's
remedy for needle-like triangles), though an angle's cosine term such as
q + r - p can (angles_from_edges).  STEPS holds one step kernel per map,
a straight-line function from a state to its child's, k as it came: every
cell divides the root by a factor its kernel builds, exact in any power of
two.  Only this module reads k: the angles, their sines and the area are
formulas in a state, each a quotient taken before one power of two.
_half_sinh_sq and _from_angles make every too-long refusal.  Derived values
are unchecked: _normal makes every too-short refusal, of a state given or
walked to, once its largest entry or scaled root is subnormal.
"""

import math
from collections import namedtuple

# Values may overshoot a domain bound by at most this much (relative) and
# get clamped; anything worse is treated as a caller bug.
CLAMP_TOL = 1e-9

# Angle sums this close to pi count as Euclidean (shape classification
# uses the same threshold); no finite edge lengths exist there.
EUCLIDEAN_SUM_ATOL = 1e-12

State = tuple[float, float, float, float, int]  # (p, q, r, root, k)


class DomainError(ValueError):
    """Input is outside the geometric domain (bad edges or angles)."""


class InconsistentInputError(ValueError):
    """Inputs are individually valid but jointly impossible."""


def _check_edges(a: float, b: float, c: float) -> None:
    for name, x in (("a", a), ("b", b), ("c", c)):
        if not x > 0:
            raise DomainError(f"edge {name}={x!r} must be positive")
    for x, y, z, names in ((a, b, c, "abc"), (b, c, a, "bca"), (c, a, b, "cab")):
        if x >= y + z:
            raise DomainError(f"edge {names[0]}={x!r} violates the triangle inequality "
                              f"({names[0]} >= {names[1]} + {names[2]})")


def _check_angles(**angles: float) -> None:
    for name, x in angles.items():
        if not 0 < x < math.pi:
            raise DomainError(f"angle {name}={x!r} must be in (0, pi)")


def _clamp_unit(x: float, what: str) -> float:
    if x > 1.0 + CLAMP_TOL:
        raise InconsistentInputError(f"{what} = {x!r} exceeds 1")
    return min(x, 1.0)


def _normal(state):
    # the one rule on a state (p, q, r, root, k), or on the (p, q, r) of edges: too
    # short, with too few bits to read, once its largest entry or scaled root is subnormal
    if max(state[:3]) < 2.0 ** -1022:
        raise DomainError(f"edges with sinh^2(edge/2) = {state[:3]!r} are "
                          f"too short: the largest is subnormal")
    if state[3:] and state[3] < 2.0 ** -1022:
        raise DomainError(f"edges with sinh^2(edge/2) = {state[:3]!r} are too short: the "
                          f"root of their Heron form underflows ({state[3]!r} * 2^{-state[4]})")
    return state


def _half_sinh_sq(a: float, b: float, c: float) -> tuple[float, float, float]:
    # the state (p, q, r) of an edge triple, p = sinh^2(a/2) etc., refused
    # where it is too long for the step kernels; _normal refuses it too short
    try:
        p, q, r = math.sinh(a / 2) ** 2, math.sinh(b / 2) ** 2, math.sinh(c / 2) ** 2
    except OverflowError:  # sinh^2(x/2) passes the largest binary64 above x ~ 710
        raise DomainError(f"edges ({a!r}, {b!r}, {c!r}) are too long: "
                          f"sinh^2(edge/2) overflows") from None
    # the positive products of the Heron form: 4pqr overflows from three equal
    # edges of ~238; the angles need 2qr etc., and with these finite sinh of
    # the half-perimeter cannot overflow either
    if not 4 * p * q * r + 2 * (p * q + q * r + r * p) < math.inf:
        raise DomainError(f"edges with sinh^2(edge/2) = ({p!r}, {q!r}, {r!r}) are "
                          f"too long: their Heron form overflows")
    return p, q, r


def _sqrt_product(x: float, y: float) -> tuple[float, int]:
    # sqrt(x y) as a pair (m, e), its exponent made even before the square root
    (mx, ex), (my, ey) = math.frexp(x), math.frexp(y)
    return math.sqrt(math.ldexp(mx * my, (ex + ey) & 1)), (ex + ey) >> 1


def _start(a: float, b: float, c: float) -> State:
    # the normal state (p, q, r, root, k) of edges that passed _check_edges; the
    # root is a product of four square roots, each from ~2^-283 (a half-sum is at
    # least ~2^-55 of the largest edge) to ~2^257, taken in order with the first
    # two's power of two held apart: it rounds as the plain product does
    p, q, r = _half_sinh_sq(a, b, c)
    x, y, z = math.fsum((b, c, -a)) / 2, math.fsum((c, a, -b)) / 2, math.fsum((a, b, -c)) / 2
    m, e = math.frexp(math.sqrt(math.sinh(x + y + z)) * math.sqrt(math.sinh(x)))
    m, j = math.frexp(m * math.sqrt(math.sinh(y)) * math.sqrt(math.sinh(z)))
    return _normal((p, q, r, math.ldexp(m, 1000), 1000 - e - j))


# Step kernels: a child's state, k kept, from its parent's, with cp = cosh(a/2)
# etc.  A halved edge has sinh^2(b/4) = q / (2 + 2 cq); midlines as in medial_data.
# A corner cell keeps its parent's angle at the kept vertex, and
# sin A = root / (2 sqrt(q r (1+q)(1+r))) with q = 4q'(1+q'), so its root is
# root / (4 cq cr); the medial cell's is root / (4 cp cq cr), since
# sin(S/2) = root / (2 cp cq cr) and Keogh's sin(S/2) = sinh m_b sinh m_c
# sin alpha (keogh_area): the paper's area decay, at least fourfold per step.
def _step_a(p: float, q: float, r: float, root: float, k: int) -> State:
    cq, cr = math.sqrt(1 + q), math.sqrt(1 + r)
    d, t = (q - r) / (cq + cr), 4 * cq * cr
    return (p + d * d) / t, q / (2 + 2 * cq), r / (2 + 2 * cr), root / t, k


def _step_b(p: float, q: float, r: float, root: float, k: int) -> State:
    cp, cr = math.sqrt(1 + p), math.sqrt(1 + r)
    d, t = (r - p) / (cr + cp), 4 * cr * cp
    return p / (2 + 2 * cp), (q + d * d) / t, r / (2 + 2 * cr), root / t, k


def _step_c(p: float, q: float, r: float, root: float, k: int) -> State:
    cp, cq = math.sqrt(1 + p), math.sqrt(1 + q)
    d, t = (p - q) / (cp + cq), 4 * cp * cq
    return p / (2 + 2 * cp), q / (2 + 2 * cq), (r + d * d) / t, root / t, k


def _step_m(p: float, q: float, r: float, root: float, k: int) -> State:
    cp, cq, cr = math.sqrt(1 + p), math.sqrt(1 + q), math.sqrt(1 + r)
    d, e, f = (q - r) / (cq + cr), (r - p) / (cr + cp), (p - q) / (cp + cq)
    t = 4 * cq * cr  # then cp: 4 cp cq cr overflows from edges of ~474
    return ((p + d * d) / t, (q + e * e) / (4 * cr * cp), (r + f * f) / (4 * cp * cq),
            root / t / cp, k)


STEPS = {"A": _step_a, "B": _step_b, "C": _step_c, "M": _step_m}


def _angles(p: float, q: float, r: float, root: float, k: int) -> tuple[float, float, float]:
    # atan2 of the root and each cosine term, both times the one power of two
    # that makes the root its mantissa m
    m, j = math.frexp(root)
    return (math.atan2(m, math.ldexp(q + r - p + 2 * q * r, k - j)),
            math.atan2(m, math.ldexp(r + p - q + 2 * r * p, k - j)),
            math.atan2(m, math.ldexp(p + q - r + 2 * p * q, k - j)))


def angles_from_edges(a: float, b: float, c: float) -> tuple[float, float, float]:
    """Angles of the hyperbolic triangle with edges (a, b, c), a opposite A.

    A = atan2(sqrt(H), q + r - p + 2qr) with p = sinh^2(a/2) etc. and H
    their Heron form: the laws of sines and cosines in half-edge variables
    share the denominator 2 sqrt(q r (1+q)(1+r)).  sqrt(H) does not cancel,
    so A is accurate to the last bits wherever q + r - p does not cancel:
    tiny, near pi/2 or near pi.  On needles whose long edges differ by less
    than the short one it cancels in the rounded p, q, r: edges
    (0.5, 0.5000000000003, 1e-12) give A 4.0e-5 and B 2.7e-5 off, relative.
    """
    _check_edges(a, b, c)
    return _angles(*_start(a, b, c))


def edges_from_angles(A: float, B: float, C: float) -> tuple[float, float, float]:
    """Edges of the hyperbolic triangle with angles (A, B, C).

    Inverse of angles_from_edges: cosh a = (cos A + cos B cos C)/(sin B sin C),
    evaluated as sinh^2(a/2) = sin(S/2) sin(A + S/2) / (sin B sin C) with
    S = pi - A - B - C, so tiny defects do not cancel.
    """
    _check_angles(A=A, B=B, C=C)
    S = math.pi - A - B - C
    if S <= EUCLIDEAN_SUM_ATOL:
        raise DomainError(f"angle sum {A + B + C!r} is not hyperbolic")
    return tuple(2 * math.asinh(math.sqrt(x)) for x in _from_angles(A, B, C, S)[:3])


def _from_angles(A: float, B: float, C: float, S: float) -> State:
    # the state (p, q, r, root, k) of valid angles with defect S > 0, unchecked;
    # a walk steps it as it is, and edges are taken from it only where asked.
    # The root is 2 sin A sqrt(q r (1+q)(1+r)), which has no cancellation.
    # Refused where a kernel's factor 4 cq cr etc. overflows (edges from
    # ~709.8), as the walk could not step it
    half, sa, sb, sc = math.sin(S / 2), math.sin(A), math.sin(B), math.sin(C)
    dp, dq, dr = sb * sc, sc * sa, sa * sb  # 0 once a product underflows
    p = half * math.sin(A + S / 2) / dp if dp else math.inf
    q = half * math.sin(B + S / 2) / dq if dq else math.inf
    r = half * math.sin(C + S / 2) / dr if dr else math.inf
    cp, cq, cr = math.sqrt(1 + p), math.sqrt(1 + q), math.sqrt(1 + r)
    if math.inf in (4 * cq * cr, 4 * cr * cp, 4 * cp * cq):  # or in p, q, r
        raise DomainError(f"angles ({A!r}, {B!r}, {C!r}) are too small: a state with "
                          f"cosh(edge/2) = ({cp!r}, {cq!r}, {cr!r}) is too long to step")
    (m1, e1), (m2, e2) = _sqrt_product(q, r), _sqrt_product(1 + q, 1 + r)
    m, e = math.frexp(2 * sa * m1 * m2)
    return p, q, r, math.ldexp(m, 1000), 1000 - e - e1 - e2


def defect_area(A: float, B: float, C: float) -> float:
    """Area as the angle defect pi - A - B - C."""
    _check_angles(A=A, B=B, C=C)
    if A + B + C > math.pi + EUCLIDEAN_SUM_ATOL:  # shape.AngleShape's rule too
        raise DomainError(f"angle sum {A + B + C!r} exceeds pi")
    return max(math.pi - A - B - C, 0.0)


def cagnoli_area(a: float, b: float, c: float, A: float) -> float:
    """Area from two edges and the included-opposite angle.

    sin(S/2) = sinh(b/2) sinh(c/2) sin A / cosh(a/2).
    """
    _check_edges(a, b, c)
    _check_angles(A=A)
    rhs = math.sinh(b / 2) * math.sinh(c / 2) * math.sin(A) / math.cosh(a / 2)
    return 2 * math.asin(_clamp_unit(rhs, "sin(S/2)"))


def keogh_area(m_b: float, m_c: float, alpha: float) -> float:
    """Parent-triangle area from two midlines and the medial angle between them.

    sin(S/2) = sinh(m_b) sinh(m_c) sin(alpha), where m_b and m_c meet at the
    midpoint of edge a and alpha is the medial triangle's angle there.
    """
    if not (m_b > 0 and m_c > 0):
        raise DomainError("midlines must be positive")
    _check_angles(alpha=alpha)
    rhs = math.sinh(m_b) * math.sinh(m_c) * math.sin(alpha)
    return 2 * math.asin(_clamp_unit(rhs, "sin(S/2)"))


def law_of_sines_ratio(a: float, A: float) -> float:
    """sin A / sinh a; the same for all three edge/opposite-angle pairs."""
    if not a > 0:
        raise DomainError(f"edge {a!r} must be positive")
    _check_angles(A=A)
    return math.sin(A) / math.sinh(a)


class MedialData(namedtuple("MedialData", "mu m_a m_b m_c l_a l_b l_c")):
    """Midline data of a hyperbolic triangle.

    mu scales cosh of the half-edges down to cosh of the midlines
    (cosh m_x = cosh(x/2) * mu); l_x is the perpendicular distance from
    the triangle's vertices to the line through midline m_x (all three
    vertices are equidistant from it), tied to the edge by the Lambert
    quadrilateral relation sinh(x/2) = sinh(m_x) cosh(l_x).
    """

    __slots__ = ()

    @property
    def midlines(self) -> tuple[float, float, float]:
        return self.m_a, self.m_b, self.m_c

    @property
    def feet(self) -> tuple[float, float, float]:
        return self.l_a, self.l_b, self.l_c


def medial_data(a: float, b: float, c: float) -> MedialData:
    """Midlines and Lambert foot distances of the triangle (a, b, c).

    With p = sinh^2(a/2) etc. and K = 2 sqrt((1+p)(1+q)(1+r)):
    mu = cos(S/2) = (2 + p + q + r)/K and cosh m_x = cosh(x/2) mu,
    computed as sinh^2(m_a/2) = (p + d^2)/(4 cosh(b/2) cosh(c/2)) with
    d = cosh(b/2) - cosh(c/2) = (q - r)/(cosh(b/2) + cosh(c/2)); and
    sinh l_x = cosh(x/2) sin(S/2) / sinh m_x with sin(S/2) = sqrt(H)/K.
    """
    _check_edges(a, b, c)
    p, q, r, root, k = _start(a, b, c)
    ch = cp, cq, cr = math.sqrt(1 + p), math.sqrt(1 + q), math.sqrt(1 + r)
    ms = [2 * math.asinh(math.sqrt(x)) for x in _step_m(p, q, r, root, k)[:3]]
    K = 2 * cp * cq * cr
    m, j = math.frexp(root)
    ls = [math.asinh(math.ldexp(x * m / (K * math.sinh(y)), j - k)) for x, y in zip(ch, ms)]
    return MedialData((2 + p + q + r) / K, *ms, *ls)


def trace_parent_area(x: float, y: float, z: float) -> float:
    """Parent area from trace coordinates of its medial triangle's edges.

    4 cos^2(S/2) = x^2 + y^2 + z^2 - xyz for (x, y, z) = (2cosh a,
    2cosh b, 2cosh c) of the medial edges; evaluated through sinh^2
    half-edges so values near the degenerate x = y = z = 2 corner stay
    accurate.
    """
    p, q, r = (x - 2) / 4, (y - 2) / 4, (z - 2) / 4
    if min(p, q, r) < -CLAMP_TOL:
        raise InconsistentInputError("trace coordinates below 2 are not hyperbolic")
    p, q, r = max(p, 0.0), max(q, 0.0), max(r, 0.0)
    # Heron-like symmetric form in p = sinh^2(a/2) etc.; it cancels near
    # flat triangles, which trace coordinates cannot avoid
    H = 2 * (p * q + q * r + r * p) - p * p - q * q - r * r + 4 * p * q * r
    # rhs of the trace identity is 4 - 16H; it must land in (0, 4]
    if H < -CLAMP_TOL:
        raise InconsistentInputError("trace identity right side exceeds 4")
    s = 2 * math.sqrt(max(H, 0.0))  # sin(S/2)
    return 2 * math.asin(_clamp_unit(s, "sin(S/2)"))


def _sin_angles(p: float, q: float, r: float, root: float, k: int) -> tuple[float, float, float]:
    # sin A = sqrt(H) / (2 sqrt(q r (1+q)(1+r))) in the variables of
    # angles_from_edges, with full relative accuracy for sliver angles, from the
    # root's mantissa m; a state below 2^-400 is scaled by a power of two, which
    # is exact, so that q r does not underflow (its 1 + q etc. are exactly 1)
    cp, cq, cr = 1 + p, 1 + q, 1 + r
    m, j = math.frexp(root)
    if p < 2.0 ** -400 and q < 2.0 ** -400 and r < 2.0 ** -400:
        e = math.frexp(max(p, q, r))[1]
        p, q, r, j = math.ldexp(p, -e), math.ldexp(q, -e), math.ldexp(r, -e), j - e
    m, j = m / 2, j - k
    return (math.ldexp(m / math.sqrt(q * r * cq * cr), j),
            math.ldexp(m / math.sqrt(r * p * cr * cp), j),
            math.ldexp(m / math.sqrt(p * q * cp * cq), j))


def _area(p: float, q: float, r: float, root: float, k: int) -> float:
    return 2 * math.atan(math.ldexp(root / (2 + p + q + r), -k))


def area_from_edges(a: float, b: float, c: float) -> float:
    """Area of the triangle (a, b, c) from its own edges.

    cos^2(S/2) = (x+y+z+2)^2 / ((x+2)(y+2)(z+2)) with x = 2cosh a etc.;
    evaluated as S = 2 atan(sqrt(H) / (2 + p + q + r)) in sinh^2 half-edge
    variables, which is the same identity with the cancellation removed.
    """
    _check_edges(a, b, c)
    return _area(*_start(a, b, c))
