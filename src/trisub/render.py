"""SVG rendering of nested subdivision cells in a disk model.

Cells are triples of hyperboloid vertices, named by integer lattice
keys: geodesics are straight chords in the Klein disk and sampled
polylines in the Poincare disk.  A vertex shared by several cells is
computed, projected and formatted once, and an edge shared by two cells
is sampled once.  Output is fully deterministic (fixed element order and
number formatting) so renders can be compared byte for byte.
"""

from collections.abc import Iterator
from dataclasses import dataclass

from . import plane_model
from .plane_model import HPoint, cell_children
from .shape import EdgeLengths
from .symbolic import LETTERS, _check_letter

MAX_DEPTH = 8

DEFAULT_PALETTE = {
    "A": "#d62728",
    "B": "#2ca02c",
    "C": "#1f77b4",
    "M": "#9467bd",
}


@dataclass(frozen=True)
class RenderSpec:
    """What to draw: disk model, subdivision depth or a single orbit word."""

    model: str = "klein"
    depth: int | None = None
    word: str | None = None
    size: int = 800
    samples_per_edge: int = 32

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


def _point_text(p: HPoint, model: str) -> str:
    x, y = plane_model.to_disk(p, model)
    # SVG y grows downward, so y is mirrored; -0.0 + 0.0 and 0.0 - 0.0 are
    # +0.0, so that no zero is written as "-0.000000000000"
    return "%.12f %.12f" % (x + 0.0, 0.0 - y)


_PATH = ('  <path d="M %s L %s L %s Z" fill="%s" stroke="%s" '
         'stroke-width="0.004"%s />\n')


def svg_lines(spec: RenderSpec, edges: EdgeLengths) -> Iterator[str]:
    """The SVG document as lines, each ending in a newline.

    The triangle is placed before this returns, so edges that cannot be
    placed raise here rather than partway through the output.
    """
    return _svg_lines(spec, plane_model.place(edges))


def _svg_lines(spec: RenderSpec, tri: plane_model.PlacedTriangle) -> Iterator[str]:
    n = spec.samples_per_edge
    # Vertices are lattice points (i, j, k), i + j + k = side, keyed by
    # i * (side + 1) + j, so the key of a midpoint is the mean of the keys
    # of its ends and each vertex is computed once.
    side = 2 ** (spec.depth if spec.word is None else len(spec.word))
    root = (side * (side + 1), side, 0)
    points = dict(zip(root, tri))
    texts = {}    # Klein: vertex key -> its formatted point
    pending = {}  # Poincare: (u, v) -> the samples from u to v, not yet used

    def mid(ku, kv):
        k = (ku + kv) >> 1
        if k not in points:
            points[k] = plane_model.midpoint(points[ku], points[kv])
        return k

    # an edge's text is its polyline from u towards v without its end point
    def klein_edge(ku, kv):
        text = texts.get(ku)
        if text is None:
            text = texts[ku] = _point_text(points[ku], "klein")
        return text

    def poincare_edge(ku, kv):
        # All cells have the orientation of the root, so the two cells on an
        # edge run it in opposite directions: the second takes the samples
        # of the first backwards.  An edge of a single cell (on the outline,
        # or any edge in word mode) stays until the render ends.
        text = pending.pop((ku, kv), None)
        if text is None:
            pts = [_point_text(p, "poincare")
                   for p in plane_model.geodesic_samples(points[ku], points[kv], n)]
            text = " L ".join(pts[:n])
            pending[kv, ku] = " L ".join(pts[n:0:-1])
        return text

    edge = klein_edge if spec.model == "klein" else poincare_edge

    def path(cell, stroke, fill="none", extra=""):
        a, b, c = cell
        return _PATH % (edge(a, b), edge(b, c), edge(c, a), fill, stroke, extra)

    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.size}" '
           f'height="{spec.size}" viewBox="-1.05 -1.05 2.1 2.1">\n')
    yield ('  <circle cx="0" cy="0" r="1" fill="none" stroke="#cccccc" '
           'stroke-width="0.004" />\n')
    yield path(root, "#000000")
    if spec.word is None:
        # depth-first, cells in A, B, C, M order
        stack = [(root, spec.depth, None)]
        while stack:
            cell, depth, letter = stack.pop()
            if depth:
                kids = cell_children(cell, mid)
                stack.extend((kids[ch], depth - 1, ch) for ch in reversed(LETTERS))
            elif letter is not None:
                yield path(cell, DEFAULT_PALETTE[letter])
    else:
        cell = root
        for i, letter in enumerate(spec.word):
            cell = cell_children(cell, mid)[letter]
            last = i == len(spec.word) - 1
            fill = DEFAULT_PALETTE[letter] if last else "none"
            extra = ' fill-opacity="0.25"' if last else ""
            yield path(cell, DEFAULT_PALETTE[letter], fill, extra)
    yield "</svg>\n"


def render_svg(spec: RenderSpec, edges: EdgeLengths) -> str:
    """Render the placed triangle with its subdivision cells (or orbit path)."""
    return "".join(svg_lines(spec, edges))
