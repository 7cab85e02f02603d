"""Geometric oracle in the hyperboloid model.

Points live on the sheet x0^2 - x1^2 - x2^2 = 1, x0 >= 1, with the
Minkowski pairing <u, v> = u0 v0 - u1 v1 - u2 v2.  Distance, midpoint and
angle are closed-form here, which is what makes this an independent check
of the trigonometric formulas.  Only midpoint renormalizes, since
normalization is its formula; geodesic samples are never chained, so
they cannot drift, and are left as weighted sums.
"""

import math
from collections import namedtuple

from .shape import EdgeLengths
from . import hyptrig


class InvalidPointError(ValueError):
    """Point pair is not on the hyperboloid (Minkowski product below 1)."""


HPoint = namedtuple("HPoint", "x0 x1 x2")

PlacedTriangle = namedtuple("PlacedTriangle", "p_a p_b p_c")  # vertices, in slot order


def minkowski(u: HPoint, v: HPoint) -> float:
    return u.x0 * v.x0 - u.x1 * v.x1 - u.x2 * v.x2


def _pair_gap(u: HPoint, v: HPoint) -> float:
    # <u, v> - 1 computed difference-first; exact cancellation of the large
    # coordinate products would otherwise cost half the digits for nearby points
    (u0, u1, u2), (v0, v1, v2) = u, v  # HPoints or plain triples
    d0, d1, d2 = u0 - v0, u1 - v1, u2 - v2
    return (d1 * d1 + d2 * d2 - d0 * d0) / 2


def dist(u: HPoint, v: HPoint) -> float:
    """Geodesic distance arccosh(<u, v>)."""
    q = _pair_gap(u, v)
    if q < 0:
        if q < -1e-12:
            raise InvalidPointError(f"Minkowski product {1 + q!r} is below 1")
        q = 0.0
    return math.asinh(math.sqrt(q * (q + 2)))


def midpoint(u: HPoint, v: HPoint) -> HPoint:
    """Geodesic midpoint (u + v) / sqrt(2 + 2<u, v>)."""
    x0, x1, x2 = u.x0 + v.x0, u.x1 + v.x1, u.x2 + v.x2
    s = math.sqrt(x0 * x0 - x1 * x1 - x2 * x2)
    return HPoint(x0 / s, x1 / s, x2 / s)


def cell_children(cell: tuple, midpoint=midpoint) -> dict[str, tuple]:
    """The four subdivision cells of a vertex triple, in slot order.

    midpoint(u, v) is the vertex halfway between u and v; the default works
    on hyperboloid points.
    """
    v_a, v_b, v_c = cell
    m_a = midpoint(v_b, v_c)
    m_b = midpoint(v_c, v_a)
    m_c = midpoint(v_a, v_b)
    return {
        "A": (v_a, m_c, m_b),
        "B": (m_c, v_b, m_a),
        "C": (m_b, m_a, v_c),
        "M": (m_a, m_b, m_c),
    }


def angle_at(v: HPoint, p: HPoint, q: HPoint) -> float:
    """Angle at v between the geodesics toward p and toward q.

    atan2(|det(v, t_p, t_q)|, <t_p, t_q>) of the tangent vectors
    t_p = p - <v,p> v and t_q = q - <v,q> v at v: their induced inner
    product is <v,p><v,q> - <p,q>, and the determinant, which equals
    det(v, p, q), is |t_p| |t_q| sin(angle).  Unlike acos of the cosine,
    this keeps small and near-straight angles accurate.
    """
    gp = minkowski(v, p)
    gq = minkowski(v, q)
    if gp * gp - 1.0 <= 0 or gq * gq - 1.0 <= 0:
        raise InvalidPointError("angle_at needs points distinct from the vertex")
    det = (v.x0 * (p.x1 * q.x2 - p.x2 * q.x1) - v.x1 * (p.x0 * q.x2 - p.x2 * q.x0)
           + v.x2 * (p.x0 * q.x1 - p.x1 * q.x0))
    return math.atan2(abs(det), gp * gq - minkowski(p, q))


# Hyperboloid coordinates grow like cosh(edge), and Minkowski products of
# points that far apart cancel, losing precision exponentially in the edge.
# Child edges measured on placed triangles with a longest edge of 15 stay
# within ~1e-7 relative of the closed form; at 17 they are 2e-6 off and
# some measured children fail the triangle inequality.
MAX_PLACED_EDGE = 15.0


def place(e: EdgeLengths) -> PlacedTriangle:
    """Realize edge lengths as hyperboloid points.

    Slot A sits at the origin (1,0,0), slot B at distance c along the
    first axis, slot C at distance b in the direction making angle A.
    Edges above MAX_PLACED_EDGE are refused.
    """
    longest = max(e)
    if longest > MAX_PLACED_EDGE:
        raise ValueError(f"edge {longest!r} exceeds {MAX_PLACED_EDGE}, beyond which "
                         f"hyperboloid coordinates lose their precision")
    A = hyptrig._angles(*hyptrig._start(*e))[0]  # e was checked when built
    p_a = HPoint(1.0, 0.0, 0.0)
    p_b = HPoint(math.cosh(e.c), math.sinh(e.c), 0.0)
    p_c = HPoint(math.cosh(e.b), math.sinh(e.b) * math.cos(A), math.sinh(e.b) * math.sin(A))
    return PlacedTriangle(p_a, p_b, p_c)


def to_disk(u: HPoint, model: str = "klein") -> tuple[float, float]:
    """Project onto the Klein disk (x1/x0, x2/x0) or Poincare disk (x1/(1+x0), x2/(1+x0))."""
    if model == "klein":
        return u.x1 / u.x0, u.x2 / u.x0
    if model == "poincare":
        return u.x1 / (1 + u.x0), u.x2 / (1 + u.x0)
    raise ValueError(f"unknown disk model {model!r}")


def geodesic_point(u: HPoint, v: HPoint, t: float) -> HPoint:
    """Point at parameter t in [0, 1] along the geodesic from u to v.

    The point is the weighted sum wu u + wv v, with the weights
    sinh((1 - t) d)/sinh(d) and sinh(t d)/sinh(d) of the distance d (1 - t
    and t below d = 1e-15).  It is on the sheet up to rounding, and is not
    renormalized: x0^2 - x1^2 - x2^2 would cancel like cosh^2 of its radius.
    When t is i / n with n a power of two, 1 - t is exact, so the points
    read backwards are bit for bit those from v to u.
    """
    d = dist(u, v)
    if d < 1e-15:
        wu, wv = 1 - t, t
    else:
        sinh_d = math.sinh(d)
        wu = math.sinh((1 - t) * d) / sinh_d
        wv = math.sinh(t * d) / sinh_d
    return HPoint(wu * u.x0 + wv * v.x0, wu * u.x1 + wv * v.x1, wu * u.x2 + wv * v.x2)
