"""SVG rendering of nested subdivision cells in a disk model.

Cells are tracked as hyperboloid vertex triples and projected per point:
geodesics are straight chords in the Klein disk and sampled polylines in
the Poincare disk.  Output is fully deterministic (fixed element order
and number formatting) so renders can be compared byte for byte.
"""

from dataclasses import dataclass, field

from . import plane_model
from .plane_model import HPoint
from .shape import EdgeLengths

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
    palette: dict = field(default_factory=lambda: dict(DEFAULT_PALETTE))
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
                if ch not in "ABCM":
                    raise ValueError(f"bad letter {ch!r} in word")
        if self.samples_per_edge < 2:
            raise ValueError("need at least 2 samples per edge")


Cell = tuple[HPoint, HPoint, HPoint]


def cell_children(cell: Cell) -> dict[str, Cell]:
    """The four subdivision cells of a vertex triple, in slot order."""
    v_a, v_b, v_c = cell
    m_a = plane_model.midpoint(v_b, v_c)
    m_b = plane_model.midpoint(v_c, v_a)
    m_c = plane_model.midpoint(v_a, v_b)
    return {
        "A": (v_a, m_c, m_b),
        "B": (m_c, v_b, m_a),
        "C": (m_b, m_a, v_c),
        "M": (m_a, m_b, m_c),
    }


def _fmt(x: float) -> str:
    return "%.12f" % (0.0 if x == 0.0 else x)


def _edge_points(u: HPoint, v: HPoint, spec: RenderSpec):
    if spec.model == "klein":
        yield plane_model.to_disk(u, "klein")
        return
    n = spec.samples_per_edge
    for i in range(n):
        t = i / n
        yield plane_model.to_disk(plane_model.geodesic_point(u, v, t), "poincare")


def _cell_path(cell: Cell, spec: RenderSpec) -> str:
    pts = []
    for u, v in ((cell[0], cell[1]), (cell[1], cell[2]), (cell[2], cell[0])):
        pts.extend(_edge_points(u, v, spec))
    # SVG y grows downward; mirror to keep the usual orientation
    cmds = [f"{'M' if i == 0 else 'L'} {_fmt(x)} {_fmt(-y)}"
            for i, (x, y) in enumerate(pts)]
    return " ".join(cmds) + " Z"


def _poly(cell: Cell, spec: RenderSpec, stroke: str, fill: str = "none",
          extra: str = "") -> str:
    return (f'  <path d="{_cell_path(cell, spec)}" fill="{fill}" '
            f'stroke="{stroke}" stroke-width="0.004"{extra} />')


def render_svg(spec: RenderSpec, edges: EdgeLengths) -> str:
    """Render the placed triangle with its subdivision cells (or orbit path)."""
    tri = plane_model.place(edges)
    root: Cell = (tri.p_a, tri.p_b, tri.p_c)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.size}" '
        f'height="{spec.size}" viewBox="-1.05 -1.05 2.1 2.1">',
        '  <circle cx="0" cy="0" r="1" fill="none" stroke="#cccccc" '
        'stroke-width="0.004" />',
        _poly(root, spec, "#000000"),
    ]
    if spec.depth is not None:
        # depth-first, cells in A, B, C, M order; an explicit stack rather
        # than a recursive closure, which would hold lines in a reference cycle
        stack = [(root, spec.depth, None)]
        while stack:
            cell, depth, letter = stack.pop()
            if depth == 0:
                if letter is not None:
                    lines.append(_poly(cell, spec, spec.palette[letter]))
                continue
            kids = cell_children(cell)
            stack.extend((kids[ch], depth - 1, ch) for ch in "MCBA")
    else:
        cell = root
        for i, letter in enumerate(spec.word):
            cell = cell_children(cell)[letter]
            last = i == len(spec.word) - 1
            fill = spec.palette[letter] if last else "none"
            extra = ' fill-opacity="0.25"' if last else ""
            lines.append(_poly(cell, spec, spec.palette[letter], fill, extra))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
