"""SVG rendering of nested subdivision cells in a disk model.

Cells are triples of hyperboloid vertices, named by integer lattice
keys: geodesics are straight chords in the Klein disk and sampled
polylines in the Poincare disk.  Both disks take midpoints from one
inline copy of plane_model.midpoint.  One loop per Poincare edge does
the arithmetic of plane_model.geodesic_point in the same order (linear
weights 1 - t and t below d = 1e-15) and projects each weighted sum as
it stands, with no square root: the weights sinh(t d)/sinh(d) of one
end, read backwards, are those of the other when every 1 - t is again a
parameter (a power-of-two sample count), so each sample takes one sinh;
the end samples are the vertices' cached texts; the inner samples are
formatted by one %-template per edge, split and reversed for the cell
that runs the edge the other way.  One depth-first walk serves both
models, and a vertex it makes is computed once; a Poincare vertex is
projected and formatted once, and a Klein vertex only where a path reads
it (the outline, and the cells of word mode).
In the Poincare disk it stops one level above the leaves, and each cell
there yields the paths of its four children as one piece.  In the Klein
disk it stops TEMPLATE_LEVELS above the leaves (or at the root), and
each cell there makes the vertices of one cached template in a flat loop
and yields all its leaf paths as one piece; a vertex on its outline is
made again, from the same two points, by the cell next door.  The
document is never held whole.  Output is deterministic (fixed element
order and number formatting), so renders compare byte for byte.
"""

import functools
import math
import operator
from collections import namedtuple
from collections.abc import Iterator

from . import plane_model
from .plane_model import cell_children
from .shape import EdgeLengths, _Checked
from .symbolic import LETTERS, _check_letter

MAX_DEPTH = 8
TEMPLATE_LEVELS = 4  # Klein depth mode draws each cell this far above the leaves at once

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


@functools.cache
def _template(levels: int) -> tuple:
    """One lattice cell subdivided levels times: its new vertices, in the
    order made, as the indices of the two vertices each bisects (the
    corners are 0, 1 and 2), and a getter that picks the 7 pieces of each
    leaf path, in letter order, from (head, separator, the tails of A, B,
    C and M, vertex texts...)."""
    side = 2 ** levels
    index = {side * (side + 1): 0, side: 1, 0: 2}  # keyed as the walk keys its root
    new = []

    def mid(ku, kv):
        k = (ku + kv) >> 1
        if k not in index:
            index[k] = len(index)
            new.append((index[ku], index[kv]))
        return k

    cells = [(tuple(index), None)]  # level by level, each in letter order
    for _ in range(levels):
        cells = [(child, tail) for cell, _ in cells
                 for tail, child in enumerate(cell_children(cell, mid).values(), 2)]
    picks = [i for (a, b, c), tail in cells
             for i in (0, index[a] + 6, 1, index[b] + 6, 1, index[c] + 6, tail)]
    return tuple(new), operator.itemgetter(*picks)


def svg_lines(spec: RenderSpec, edges: EdgeLengths) -> Iterator[str]:
    """The SVG document as pieces, each ending in a newline.

    The triangle is placed before this returns, so edges that cannot be
    placed raise here rather than partway through the output.
    """
    return _svg_lines(spec, plane_model.place(edges))


def _svg_lines(spec: RenderSpec, tri: plane_model.PlacedTriangle) -> Iterator[str]:
    klein = spec.model == "klein"
    if not klein:  # the sampling tables of the Poincare disk
        n = spec.samples_per_edge
        inner = [i / n for i in range(1, n)]
        # With n a power of two, 1 - i/n is exactly (n - i)/n, so the weights
        # of u along an edge are those of v read backwards
        mirrored = all(1 - t == s for t, s in zip(inner, reversed(inner)))
        template = _SEP.join([_POINT] * (n - 1))  # the n - 1 inner samples
    # Vertices are lattice points (i, j, k), i + j + k = side, keyed by
    # i * (side + 1) + j, so the key of a midpoint is the mean of the keys
    # of its ends and each vertex is computed once.
    side = 2 ** (spec.depth if spec.word is None else len(spec.word))
    root = (side * (side + 1), side, 0)
    sqrt = math.sqrt
    points = {}
    texts = {}    # Poincare vertex key -> its formatted point
    pending = {}  # Poincare edge (u, v) -> the samples from u to v, not yet used

    def add(k, p):
        points[k] = p
        if not klein:
            # the sample at either end of an edge: weights 1.0 and 0.0 give
            # the vertex itself, projected (y mirrored as in klein_edge)
            x0, x1, x2 = p
            y = 1 + x0
            texts[k] = _POINT % (x1 / y + 0.0, 0.0 - x2 / y)

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
        # each sample is its weighted sum, projected as in add
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
            y = 1 + (a * u0 + b * v0)
            push((a * u1 + b * v1) / y + 0.0)
            push(0.0 - (a * u2 + b * v2) / y)
        text = template % tuple(xy)
        pending[kv, ku] = _SEP.join([texts[kv], *reversed(text.split(_SEP))])
        return _SEP.join((texts[ku], text))

    def klein_edge(ku, kv):
        # a chord, drawn from its first vertex, which is formatted here: only
        # the outline and word mode's cells read a vertex of the walk.  SVG y
        # grows downward, so y is mirrored; -0.0 + 0.0 and 0.0 - 0.0 are
        # +0.0, so that no zero is written as "-0.000000000000"
        x0, x1, x2 = points[ku]
        return _POINT % (x1 / x0 + 0.0, 0.0 - x2 / x0)

    edge = klein_edge if klein else poincare_edge

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
    join, point = "".join, _POINT
    tail_a, tail_b, tail_c, tail_m = (_LEAF_TAILS[ch] for ch in LETTERS)
    stop = TEMPLATE_LEVELS if klein else 1  # the depth of the cells that yield pieces
    stack = [(*root, spec.depth)] if spec.depth else []  # empty in word mode
    push = stack.append
    while stack:
        a, b, c, depth = stack.pop()
        if depth > stop:  # children pushed so that they pop in A, B, C, M order
            m_a, m_b, m_c = mid(b, c), mid(c, a), mid(a, b)
            depth -= 1
            push((m_a, m_b, m_c, depth))
            push((m_b, m_a, c, depth))
            push((m_c, b, m_a, depth))
            push((a, m_c, m_b, depth))
            continue
        if not klein:
            # a leaf-parent yields the paths of its children A (a, m_c, m_b),
            # B (m_c, b, m_a), C (m_b, m_a, c) and M (m_a, m_b, m_c) as one piece
            m_a, m_b, m_c = mid(b, c), mid(c, a), mid(a, b)
            yield join((path((a, m_c, m_b), tail_a), path((m_c, b, m_a), tail_b),
                        path((m_b, m_a, c), tail_c), path((m_a, m_b, m_c), tail_m)))
            continue
        # Klein: the cell makes the vertices of its template with mid's
        # operations, in mid's order, formats them as klein_edge does, and
        # yields its 4^depth leaf paths as one piece.  A vertex on its outline
        # is made again by the cell next door, from the same two points
        new, pick = _template(depth)
        ps = [points[a], points[b], points[c]]
        made = ps.append
        for i, j in new:
            u0, u1, u2 = ps[i]
            v0, v1, v2 = ps[j]
            x0, x1, x2 = u0 + v0, u1 + v1, u2 + v2
            s = sqrt(x0 * x0 - x1 * x1 - x2 * x2)
            made((x0 / s, x1 / s, x2 / s))
        yield join(pick((_HEAD, _SEP, *_LEAF_TAILS.values(),
                         *[point % (x1 / x0 + 0.0, 0.0 - x2 / x0) for x0, x1, x2 in ps])))
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
