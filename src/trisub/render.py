"""SVG rendering of nested subdivision cells in a disk model.

Cells are triples of hyperboloid vertices, named by integer lattice
keys: geodesics are straight chords in the Klein disk and sampled
polylines in the Poincare disk.  A vertex shared by several cells is
computed, projected and formatted once, and an edge shared by two cells
is sampled once.  Both disks take midpoints from one inline copy of
plane_model.midpoint.  One loop per Poincare edge does the arithmetic of
plane_model.geodesic_point in the same order (linear weights 1 - t and t
below d = 1e-15) and projects each sample: the weights sinh(t d)/sinh(d)
of one end, read backwards, are those of the other when every 1 - t is
again a parameter (a power-of-two sample count), so each sample takes
one sinh; the end samples are the vertices' cached texts; the inner
samples are formatted by one %-template per edge, split and reversed for
the cell that runs the edge the other way.  One depth-first walk serves
both models.  It stops one level above the leaves; each cell there
yields the paths of its four children as one piece, and the document is
never held whole.  In the Klein disk one helper, last, formats the
leaf-parents' edge midpoints, the last-level vertices, and keeps them
only as text until the second cell on their edge takes them (those on
the outline until the end).  Output is deterministic (fixed element
order and number formatting), so renders compare byte for byte.
"""

import math
from collections import namedtuple
from collections.abc import Iterator

from . import plane_model
from .plane_model import cell_children
from .shape import EdgeLengths, _Checked
from .symbolic import LETTERS, _check_letter

MAX_DEPTH = 8

DEFAULT_PALETTE = {
    "A": "#d62728",
    "B": "#2ca02c",
    "C": "#1f77b4",
    "M": "#9467bd",
}


class RenderSpec(_Checked, namedtuple("RenderSpec", "model depth word size samples_per_edge",
                                      defaults=("klein", None, None, 800, 32))):
    """What to draw: disk model, subdivision depth or a single orbit word."""

    __slots__ = ()

    def __post_init__(self):
        if self.model not in ("klein", "poincare"):
            raise ValueError(f"unknown disk model {self.model!r}")
        if (self.depth is None) == (self.word is None):
            raise ValueError("specify exactly one of depth or word")
        if self.depth is not None:
            if self.depth < 0:
                raise ValueError("depth must be nonnegative")
            if self.depth > MAX_DEPTH:
                raise ValueError(f"depth {self.depth} exceeds the cell guard "
                                 f"({MAX_DEPTH}; 4^d cells)")
        if self.word is not None:
            for ch in self.word:
                _check_letter(ch)
        if self.size <= 0:
            raise ValueError("size must be positive")
        if self.samples_per_edge < 2:
            raise ValueError("need at least 2 samples per edge")


_POINT = "%.12f %.12f"  # a point in the disk
# a path is _HEAD, its three edge texts joined by _SEP, and a tail
_HEAD = '  <path d="M '
_SEP = " L "
_TAIL = ' Z" fill="%s" stroke="%s" stroke-width="0.004"%s />\n'
_LEAF_TAILS = {ch: _TAIL % ("none", colour, "") for ch, colour in DEFAULT_PALETTE.items()}


def svg_lines(spec: RenderSpec, edges: EdgeLengths) -> Iterator[str]:
    """The SVG document as pieces, each ending in a newline.

    The triangle is placed before this returns, so edges that cannot be
    placed raise here rather than partway through the output.
    """
    return _svg_lines(spec, plane_model.place(edges))


def _svg_lines(spec: RenderSpec, tri: plane_model.PlacedTriangle) -> Iterator[str]:
    klein = spec.model == "klein"
    n = spec.samples_per_edge
    inner = [i / n for i in range(1, n)]
    # With n a power of two, 1 - i/n is exactly (n - i)/n, so the weights of
    # u along an edge are those of v read backwards
    mirrored = all(1 - t == s for t, s in zip(inner, reversed(inner)))
    template = _SEP.join([_POINT] * (n - 1))  # the n - 1 inner samples
    # Vertices are lattice points (i, j, k), i + j + k = side, keyed by
    # i * (side + 1) + j, so the key of a midpoint is the mean of the keys
    # of its ends and each vertex is computed once.
    side = 2 ** (spec.depth if spec.word is None else len(spec.word))
    root = (side * (side + 1), side, 0)
    sqrt = math.sqrt
    points = {}
    texts = {}    # vertex key -> its formatted point
    # Poincare: (u, v) -> the samples from u to v, not yet used;
    # Klein: last-level vertex key -> its text, not yet used
    pending = {}
    pop = pending.pop

    def add(k, p):
        points[k] = p
        x0, x1, x2 = p
        if klein:
            # SVG y grows downward, so y is mirrored; -0.0 + 0.0 and 0.0 - 0.0
            # are +0.0, so that no zero is written as "-0.000000000000"
            texts[k] = _POINT % (x1 / x0 + 0.0, 0.0 - x2 / x0)
        else:
            # the sample at either end of an edge: weights 1.0 and 0.0 give
            # the vertex itself, put back on the sheet and projected
            s = math.sqrt(x0 * x0 - x1 * x1 - x2 * x2)
            y = 1 + x0 / s
            texts[k] = _POINT % (x1 / s / y + 0.0, 0.0 - x2 / s / y)

    def mid(ku, kv):
        k = (ku + kv) >> 1
        if k in points:
            return k
        # the operations of plane_model.midpoint, in its order, on plain tuples
        u0, u1, u2 = points[ku]
        v0, v1, v2 = points[kv]
        x0, x1, x2 = u0 + v0, u1 + v1, u2 + v2
        s = sqrt(x0 * x0 - x1 * x1 - x2 * x2)
        add(k, (x0 / s, x1 / s, x2 / s))
        return k

    def last(k, x0, x1, x2):
        # the operations of mid and add on a last-level vertex, kept as text only
        s = sqrt(x0 * x0 - x1 * x1 - x2 * x2)
        x0 = x0 / s
        text = pending[k] = _POINT % (x1 / s / x0 + 0.0, 0.0 - x2 / s / x0)
        return text

    def poincare_edge(ku, kv):
        # the samples from u towards v, without the one at v.  All cells have
        # the orientation of the root, so the two cells on an edge run it in
        # opposite directions: the second takes the samples of the first
        # backwards.  An edge of a single cell (on the outline, or any edge
        # in word mode) stays until the render ends.
        text = pending.pop((ku, kv), None)
        if text is not None:
            return text
        u, v = points[ku], points[kv]
        d = plane_model.dist(u, v)
        # the weights of plane_model.geodesic_point (linear below d = 1e-15);
        # each sample is put back on the sheet and projected as in add
        if d < 1e-15:
            wu, wv = [1 - t for t in inner], inner
        else:
            sinh, sinh_d = math.sinh, math.sinh(d)
            wv = [sinh(t * d) / sinh_d for t in inner]
            wu = wv[::-1] if mirrored else [sinh((1 - t) * d) / sinh_d for t in inner]
        (u0, u1, u2), (v0, v1, v2) = u, v
        xy = []
        push = xy.append
        for a, b in zip(wu, wv):
            x0, x1, x2 = a * u0 + b * v0, a * u1 + b * v1, a * u2 + b * v2
            s = sqrt(x0 * x0 - x1 * x1 - x2 * x2)
            y = 1 + x0 / s
            push(x1 / s / y + 0.0)
            push(0.0 - x2 / s / y)
        text = template % tuple(xy)
        pending[kv, ku] = _SEP.join([texts[kv], *reversed(text.split(_SEP))])
        return _SEP.join((texts[ku], text))

    # Klein edges are chords, each drawn from its first vertex
    edge = (lambda ku, kv: texts[ku]) if klein else poincare_edge

    def path(cell, tail):
        a, b, c = cell
        return "".join((_HEAD, edge(a, b), _SEP, edge(b, c), _SEP, edge(c, a), tail))

    for k, p in zip(root, tri):
        add(k, p)
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.size}" '
           f'height="{spec.size}" viewBox="-1.05 -1.05 2.1 2.1">\n')
    yield ('  <circle cx="0" cy="0" r="1" fill="none" stroke="#cccccc" '
           'stroke-width="0.004" />\n')
    yield path(root, _TAIL % ("none", "#000000", ""))
    join, head, sep = "".join, _HEAD, _SEP
    tail_a, tail_b, tail_c, tail_m = (_LEAF_TAILS[ch] for ch in LETTERS)
    stack = [(*root, spec.depth)] if spec.depth else []  # empty in word mode
    push = stack.append
    while stack:
        a, b, c, depth = stack.pop()
        if depth > 1:  # children pushed so that they pop in A, B, C, M order
            m_a, m_b, m_c = mid(b, c), mid(c, a), mid(a, b)
            depth -= 1
            push((m_a, m_b, m_c, depth))
            push((m_b, m_a, c, depth))
            push((m_c, b, m_a, depth))
            push((a, m_c, m_b, depth))
            continue
        # a leaf-parent yields the paths of its children A (a, m_c, m_b),
        # B (m_c, b, m_a), C (m_b, m_a, c) and M (m_a, m_b, m_c) as one piece
        if not klein:
            m_a, m_b, m_c = mid(b, c), mid(c, a), mid(a, b)
            yield join((path((a, m_c, m_b), tail_a), path((m_c, b, m_a), tail_b),
                        path((m_b, m_a, c), tail_c), path((m_a, m_b, m_c), tail_m)))
            continue
        # Klein: a last-level vertex is the end of no other midpoint, so it
        # is kept only as text, in pending, until the second cell on its edge
        # pops it (those on the outline until the render ends)
        u0, u1, u2 = points[a]
        v0, v1, v2 = points[b]
        w0, w1, w2 = points[c]
        m_a, m_b, m_c = (b + c) >> 1, (c + a) >> 1, (a + b) >> 1
        t_a = pop(m_a, None) or last(m_a, v0 + w0, v1 + w1, v2 + w2)
        t_b = pop(m_b, None) or last(m_b, w0 + u0, w1 + u1, w2 + u2)
        t_c = pop(m_c, None) or last(m_c, u0 + v0, u1 + v1, u2 + v2)
        a, b, c = texts[a], texts[b], texts[c]
        yield join((head, a, sep, t_c, sep, t_b, tail_a, head, t_c, sep, b, sep, t_a, tail_b,
                    head, t_b, sep, t_a, sep, c, tail_c, head, t_a, sep, t_b, sep, t_c, tail_m))
    cell = root
    for i, letter in enumerate(spec.word or ()):  # no letters in depth mode
        cell = cell_children(cell, mid)[letter]
        colour = DEFAULT_PALETTE[letter]  # only the last cell is filled
        yield path(cell, _LEAF_TAILS[letter] if i < len(spec.word) - 1
                   else _TAIL % (colour, colour, ' fill-opacity="0.25"'))
    yield "</svg>\n"


def render_svg(spec: RenderSpec, edges: EdgeLengths) -> str:
    """Render the placed triangle with its subdivision cells (or orbit path)."""
    return "".join(svg_lines(spec, edges))
