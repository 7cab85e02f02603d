"""The four subdivision maps on shapes, orbit traces, and the limit map.

Joining the three edge midpoints cuts a triangle into four cells; each
map sends the shape to one cell, with vertex slots ordered so that all
four maps are the identity on Euclidean shapes:

    map A -> corner at A: slots (A, M_c, M_b)
    map B -> corner at B: slots (M_c, B, M_a)
    map C -> corner at C: slots (M_b, M_a, C)
    map M -> medial cell: slots (M_a, M_b, M_c)

where M_x is the midpoint of edge x.  Child edges follow from the slot
order: the corner cell at A has edges (m_a, b/2, c/2), and the medial
cell has the three midlines (m_a, m_b, m_c).  Every step, in orbit,
limit_shape_info, apply and the verify suites, is the kernel of its letter
in hyptrig.STEPS on a bare state (p, q, r, root, k), p = sinh^2(a/2) etc.
and root 2^k times the square root of their Heron form; a kernel validates
nothing and returns k as it came.  A walk takes its start's state once, from
the record that keeps it or from its edges; edges appear only in records.
"""

import math
import sys
from collections import namedtuple

from . import hyptrig
from .shape import AngleShape, EdgeLengths, ShapeRecord, _edges, _record, _state_of
from .symbolic import LETTERS, _check_letter  # LETTERS stays public here
from ._fmt import csv_line

ORBIT_CSV_COLUMNS = ("n", "letter", "A", "B", "C", "a", "b", "c", "S",
                     "ln_sin_A", "sinh_a2", "sinh_b2", "sinh_c2")
_NONE3 = (None, None, None)  # the empty columns of a Euclidean entry
# A step shrinks p + q + r at most about fourfold, so from this tol up the largest
# of the three at the stop is normal, unless the start's sum was below tol already
MIN_TOL = 16 * sys.float_info.min


class ConvergenceError(RuntimeError):
    """The iteration cap was hit; for valid inputs this signals a bug."""


def child_edges(letter: str, e: EdgeLengths) -> EdgeLengths:
    """Edge lengths of the chosen subdivision cell, in slot order.  e was checked
    when built; derived edges are not checked again (a + b - c can round to 0).
    The cell's edges need no root: a chain of derived edges, whose half-sums
    may have rounded to 0, passes through."""
    _check_letter(letter)
    return _edges(hyptrig.STEPS[letter](*hyptrig._normal(hyptrig._half_sinh_sq(*e)), 0.0, 0))


def apply(letter: str, s: ShapeRecord) -> ShapeRecord:
    """Apply one subdivision map to a shape.

    Euclidean shapes are fixed by all four maps.  Hyperbolic child angles
    and area are derived from the child's state, one step from s's.
    """
    _check_letter(letter)
    if s.is_euclidean:
        return s
    return _record(hyptrig._normal(hyptrig.STEPS[letter](*_state_of(s))))


def apply_oracle(letter: str, e: EdgeLengths) -> EdgeLengths:
    """Subdivide by actually placing the triangle and measuring the child.

    The triangle is realized in the hyperboloid model, genuine geodesic
    midpoints are taken, and child edges measured with the model metric;
    an independent route that must agree with child_edges.
    """
    from . import plane_model  # the hyperboloid model loads only where it runs
    _check_letter(letter)
    v_a, v_b, v_c = plane_model.cell_children(plane_model.place(e))[letter]
    return EdgeLengths(plane_model.dist(v_b, v_c),
                       plane_model.dist(v_c, v_a),
                       plane_model.dist(v_a, v_b))


# letter is None on the starting entry, edges and sinh_half_edges on Euclidean shapes
OrbitStep = namedtuple("OrbitStep", "n letter angles edges area ln_sin_a sinh_half_edges")


class OrbitTrace(namedtuple("OrbitTrace", "steps")):
    __slots__ = ()

    def csv_lines(self):
        yield csv_line(ORBIT_CSV_COLUMNS)
        for st in self.steps:
            yield csv_line((st.n, st.letter or "-", *st.angles, *(st.edges or _NONE3),
                            st.area, st.ln_sin_a, *(st.sinh_half_edges or _NONE3)))

    def to_csv(self) -> str:
        return "\n".join(self.csv_lines()) + "\n"


def orbit(word, s0: ShapeRecord) -> OrbitTrace:
    """Trace the orbit of s0 under a finite word of letters."""
    word = list(word)
    records, states = [s0] * (len(word) + 1), [None] * (len(word) + 1)
    if s0.is_euclidean:  # fixed by all four maps
        for letter in word:
            _check_letter(letter)
    else:
        states = [_state_of(s0)]
        for letter in word:
            states.append((hyptrig.STEPS.get(letter) or _check_letter(letter))(*states[-1]))
        try:  # a step shrinks every entry, root too, at least fourfold: the last is least
            hyptrig._normal(states[-1])
        except hyptrig.DomainError as exc:
            raise type(exc)(f"step {len(word)} ({word[-1]}): {exc}") from exc
        records[1:] = map(_record, states[1:])
    return OrbitTrace(tuple(
        OrbitStep(n, letter, s.angles, s.edges, s.area, _ln_sin_a(s.angles.A, st),
                  st and tuple(map(math.sqrt, st[:3])))
        for n, (letter, s, st) in enumerate(zip([None, *word], records, states))))


def _ln_sin_a(A: float, state) -> float:
    # sin of the rounded angle is accurate up to pi/2; above it, near pi,
    # the sine comes from the state
    return math.log(hyptrig._sin_angles(*state)[0] if state and A > math.pi / 2 else math.sin(A))


LimitResult = namedtuple("LimitResult", "angles iterations residual")  # Euclidean angles


def limit_shape_info(seq, s0: ShapeRecord, tol: float = 1e-13,
                     max_iter: int = 10_000) -> LimitResult:
    """Follow an infinite letter sequence until the shape is Euclidean to tol.

    Iterates the maps on bare states and stops after the first step whose
    residual, p + q + r = the sum of sinh^2(edge/2) over the three edges,
    is below tol; then scales its angles by pi/(A+B+C).  tol must be at
    least MIN_TOL, below which the stopping state can be subnormal.  By the
    paper's Cauchy lemma the residual bounds how far ln sin of any angle can
    still drift along the exact orbit before scaling, rounding aside.  seq
    is any iterable of letters, such as a sequence object.
    """
    if not MIN_TOL <= tol < math.inf:  # an infinite tol would stop at any residual
        raise ValueError(f"tol must be positive and finite, and at least {MIN_TOL!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if s0.is_euclidean:
        return LimitResult(s0.angles, 0, 0.0)
    return _limit(seq, *_state_of(s0), tol, max_iter)


def _limit(letters, p: float, q: float, r: float, root: float, k: int, tol: float,
           max_iter: int = 10_000) -> LimitResult:
    # step the state (p, q, r, root, k) along the letters; stop at the first
    # state, counted from 1, whose residual is below tol
    steps = hyptrig.STEPS
    try:  # around the loop, not in it: a step pays nothing for the error's context
        for n, letter in enumerate(letters, start=1):
            p, q, r, root, k = (steps.get(letter) or _check_letter(letter))(p, q, r, root, k)
            if n > max_iter:
                raise ConvergenceError(f"no convergence within {max_iter} steps")
            residual = p + q + r
            if residual < tol:
                # the normal state's angles, scaled by pi/(A+B+C): project_euclidean
                # leaves a sum within EUCLIDEAN_ATOL of pi as it is, and with it
                # the state's defect
                A, B, C = hyptrig._angles(*hyptrig._normal((p, q, r, root, k)))
                t = math.pi / (A + B + C)
                return LimitResult(AngleShape._unchecked((A * t, B * t, C * t)), n, residual)
    except hyptrig.DomainError as exc:
        raise type(exc)(f"step {n} ({letter}): {exc}") from exc
    raise ValueError("letter sequence ended before convergence")


def limit_shape(seq, s0: ShapeRecord, tol: float = 1e-13) -> AngleShape:
    """Euclidean limit shape of s0 along an infinite letter sequence."""
    return limit_shape_info(seq, s0, tol).angles
