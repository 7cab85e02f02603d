"""Correctness references for the benchmark, written apart from trisub.

Nothing here imports trisub.  Every reference follows the definitions
(hyperboloid geometry, barycentric cell maps, SVG geometry) by its own
route, so a fault in the program cannot also hide in its check.  All of
it runs after the timed region.
"""

import math
import re
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

DPS = 60
# Limit angles: |program - reference| <= LIMIT_RTOL * reference, per angle.
LIMIT_RTOL = 1e-9
# Reference iteration stops once every edge is below 1e-15, tested on
# the gap <u, v> - 1 = cosh(edge) - 1, about edge^2 / 2.
LIMIT_GAP_STOP = mpf("5e-31")
# Rendered coordinates carry 12 decimals; every geometric check allows this.
SVG_ATOL = 1e-9


# --- hyperboloid geometry at DPS digits -------------------------------------

def _gap(u, v):
    # <u, v> - 1, difference first so nearby points keep their digits
    d0, d1, d2 = u[0] - v[0], u[1] - v[1], u[2] - v[2]
    return (d1 * d1 + d2 * d2 - d0 * d0) / 2


def _dist(u, v):
    q = _gap(u, v)
    return mpmath.asinh(mpmath.sqrt(q * (q + 2)))


def _mid(u, v):
    s = (u[0] + v[0], u[1] + v[1], u[2] + v[2])
    n = mpmath.sqrt(s[0] * s[0] - s[1] * s[1] - s[2] * s[2])
    return (s[0] / n, s[1] / n, s[2] / n)


def _angles_of_edges(a, b, c):
    # cos A = (cosh b cosh c - cosh a) / (sinh b sinh c), at the working precision
    def one(a, b, c):
        return mpmath.acos((mpmath.cosh(b) * mpmath.cosh(c) - mpmath.cosh(a))
                           / (mpmath.sinh(b) * mpmath.sinh(c)))
    return one(a, b, c), one(b, c, a), one(c, a, b)


def _place(a, b, c):
    """Vertices (p_a, p_b, p_c) of the triangle with edges (a, b, c)."""
    A = _angles_of_edges(a, b, c)[0]
    return ((mpf(1), mpf(0), mpf(0)),
            (mpmath.cosh(c), mpmath.sinh(c), mpf(0)),
            (mpmath.cosh(b), mpmath.sinh(b) * mpmath.cos(A), mpmath.sinh(b) * mpmath.sin(A)))


def _child(letter, cell):
    """Subdivision cell in slot order: A -> (v_a, M_c, M_b),
    B -> (M_c, v_b, M_a), C -> (M_b, M_a, v_c), M -> (M_a, M_b, M_c)."""
    v_a, v_b, v_c = cell
    if letter == "A":
        return v_a, _mid(v_a, v_b), _mid(v_c, v_a)
    if letter == "B":
        return _mid(v_a, v_b), v_b, _mid(v_b, v_c)
    if letter == "C":
        return _mid(v_c, v_a), _mid(v_b, v_c), v_c
    return _mid(v_b, v_c), _mid(v_c, v_a), _mid(v_a, v_b)


def _edges_of_angles(A, B, C):
    # cosh a = (cos A + cos B cos C) / (sin B sin C), at the working precision
    def one(A, B, C):
        return mpmath.acosh((mpmath.cos(A) + mpmath.cos(B) * mpmath.cos(C))
                            / (mpmath.sin(B) * mpmath.sin(C)))
    return one(A, B, C), one(B, C, A), one(C, A, B)


def edges_from_angles(A, B, C):
    """Edges (floats) of the hyperbolic triangle with angles (A, B, C)."""
    with mp.workdps(DPS):
        return tuple(float(x) for x in _edges_of_angles(mpf(A), mpf(B), mpf(C)))


def limit_angles(start, prefix, cycle):
    """Euclidean limit angles of a start shape along prefix + cycle^inf.

    start is ("edges", (a, b, c)) or ("angles", (A, B, C)).  The triangle
    is placed on the hyperboloid, cells are taken by genuine geodesic
    midpoints until every edge is below 1e-15, and the angles of
    that (by then Euclidean to ~1e-30) cell are returned.
    """
    kind, vals = start
    with mp.workdps(DPS):
        if kind == "edges":
            a, b, c = (mpf(x) for x in vals)
        else:
            a, b, c = _edges_of_angles(*(mpf(x) for x in vals))
        cell = _place(a, b, c)
        n = 0
        while max(_gap(cell[1], cell[2]), _gap(cell[2], cell[0]),
                  _gap(cell[0], cell[1])) >= LIMIT_GAP_STOP:
            letter = prefix[n] if n < len(prefix) else cycle[(n - len(prefix)) % len(cycle)]
            cell = _child(letter, cell)
            n += 1
            if n > 400:
                raise RuntimeError("reference limit did not converge")
        a, b, c = _dist(cell[1], cell[2]), _dist(cell[2], cell[0]), _dist(cell[0], cell[1])

        def euclid(a, b, c):
            return mpmath.acos((b * b + c * c - a * a) / (2 * b * c))
        return float(euclid(a, b, c)), float(euclid(b, c, a)), float(euclid(c, a, b))


def limit_mismatch(got, ref):
    """Largest per-angle relative error of got against ref."""
    return max(abs(g - r) / r for g, r in zip(got, ref))


def noncontraction_distances():
    """(distance_before, distance_after) of the (4, 4, 7) witness and its
    medial child from the equilateral angle triple, at DPS digits."""
    with mp.workdps(DPS):
        a, b, c = mpf(4), mpf(4), mpf(7)
        cell = _place(a, b, c)
        child = _child("M", cell)
        kid = (_dist(child[1], child[2]), _dist(child[2], child[0]), _dist(child[0], child[1]))
        third = mpmath.pi / 3

        def d(angs):
            return mpmath.sqrt(sum((x - third) ** 2 for x in angs))
        return float(d(_angles_of_edges(a, b, c))), float(d(_angles_of_edges(*kid)))


# --- exact barycentric addresses --------------------------------------------

def _letter_matrix(letter):
    """3x3 Fraction matrix of a cell map on barycentric columns.

    Corner L: x -> (x + e_L)/2, which is (I + e_L 1^T)/2 on the plane
    sum(x) = 1.  Medial: x -> (1 - x)/2, which is (J - I)/2.
    """
    half = Fraction(1, 2)
    if letter == "M":
        return [[(0 if i == j else half) for j in range(3)] for i in range(3)]
    k = "ABC".index(letter)
    return [[(half if i == j else 0) + (half if i == k else 0) for j in range(3)]
            for i in range(3)]


def _matmul(p, q):
    return [[sum(p[i][k] * q[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def _matvec(p, x):
    return [sum(p[i][k] * x[k] for k in range(3)) for i in range(3)]


def address(prefix, cycle):
    """Exact barycentric address (Fractions) of prefix + cycle^inf.

    The cycle's matrix P has a unique fixed point on sum(x) = 1; it is
    found by Gaussian elimination on the rows of (P - I) x = 0 together
    with sum(x) = 1.  The prefix matrices then carry it to the address.
    """
    p = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    for letter in cycle:
        p = _matmul(p, _letter_matrix(letter))
    rows = [[p[i][j] - (1 if i == j else 0) for j in range(3)] + [Fraction(0)]
            for i in range(3)]
    rows.append([Fraction(1)] * 4)
    for col in range(3):
        piv = next(r for r in range(col, 4) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        for r in range(4):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    x = [rows[i][3] / rows[i][i] for i in range(3)]
    for letter in reversed(prefix):
        x = _matvec(_letter_matrix(letter), x)
    return tuple(x)


# --- SVG renders --------------------------------------------------------------

_PATH_RE = re.compile(r'<path d="([^"]*)"')
_NUM_RE = re.compile(r"-?\d+\.\d+")


def svg_paths(svg_text):
    """Each <path> as a list of (x, y) points, y mirrored back upward."""
    out = []
    for d in _PATH_RE.findall(svg_text):
        nums = [float(x) for x in _NUM_RE.findall(d)]
        out.append([(nums[i], -nums[i + 1]) for i in range(0, len(nums), 2)])
    return out


def off_geodesic(p, q, x):
    """Distance of x from the Poincare geodesic through p and q.

    A geodesic is a generalized circle orthogonal to the unit circle:
    alpha (|z|^2 + 1) + beta x + gamma y = 0.  (alpha, beta, gamma) is the
    cross product of the rows for p and q; the distance is |F| / |grad F|.
    """
    rp = (p[0] * p[0] + p[1] * p[1] + 1, p[0], p[1])
    rq = (q[0] * q[0] + q[1] * q[1] + 1, q[0], q[1])
    al = rp[1] * rq[2] - rp[2] * rq[1]
    be = rp[2] * rq[0] - rp[0] * rq[2]
    ga = rp[0] * rq[1] - rp[1] * rq[0]
    f = al * (x[0] * x[0] + x[1] * x[1] + 1) + be * x[0] + ga * x[1]
    gx, gy = 2 * al * x[0] + be, 2 * al * x[1] + ga
    return abs(f) / math.hypot(gx, gy)


def disk_cell(edges, letters, model):
    """Disk-model vertices (floats) of the cell named by letters: Klein
    (x1/x0, x2/x0) or Poincare (x1/(1+x0), x2/(1+x0))."""
    with mp.workdps(30):
        cell = _place(*(mpf(x) for x in edges))
        for letter in letters:
            cell = _child(letter, cell)
        lift = 0 if model == "klein" else 1
        return [(float(v[1] / (lift + v[0])), float(v[2] / (lift + v[0]))) for v in cell]
