"""Triangle shape values: ordered angle triples, edge triples, records.

The shape space is the set of ordered similarity classes: hyperbolic
shapes have angle sum below pi, Euclidean shapes have angle sum exactly
pi (within EUCLIDEAN_ATOL) and carry no edge lengths.
"""

import math
from collections import namedtuple
from operator import attrgetter

from . import hyptrig

# Angle sums within this of pi classify as Euclidean (binary64 round-off
# scale; same band edges_from_angles refuses to invert).
EUCLIDEAN_ATOL = hyptrig.EUCLIDEAN_SUM_ATOL


class _Checked:
    """Base of a named tuple whose __post_init__ checks its fields; _make and
    _replace call it too, and _unchecked(values) builds without the check."""

    __slots__ = ()
    _unchecked = classmethod(tuple.__new__)  # for values derived from checked ones

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):  # a copy of a checked value needs no new check
        return tuple.__new__, (type(self), tuple(self))

    def as_tuple(self) -> tuple:
        return tuple(self)


class _Frozen:
    """Base of a frozen slotted value class: its fields are its public
    __slots__ (two or more), which __init__ sets once through
    object.__setattr__ in slot order.  A private slot, such as a cached
    derivation, is passed on by copies but not compared or shown."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        cls._values = property(attrgetter(*cls._fields))  # the field tuple, at C level
        cls._args = property(attrgetter(*cls.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):  # copy and pickle through __init__
        return type(self), self._args

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class AngleShape(_Checked, namedtuple("AngleShape", "A B C")):
    """Ordered angle triple (A, B, C) in radians; derived ones are unchecked (pi + ulp occurs)."""

    __slots__ = ()

    def __post_init__(self):
        hyptrig.defect_area(*self)  # each angle in (0, pi), the sum to pi + EUCLIDEAN_ATOL

    def angle_sum(self) -> float:
        return self.A + self.B + self.C

    @property
    def is_euclidean(self) -> bool:
        return abs(self.angle_sum() - math.pi) <= EUCLIDEAN_ATOL


class EdgeLengths(_Checked, namedtuple("EdgeLengths", "a b c")):
    """Ordered hyperbolic edge triple (a, b, c), a opposite A."""

    __slots__ = ()

    def __post_init__(self):
        hyptrig._check_edges(*self)


class ShapeRecord(_Frozen):
    """A shape with consistent angles, edges (hyperbolic only) and area.

    A record the library builds also keeps the state (p, q, r, root, k) of
    hyptrig it came from, so that the maps step that state; one built
    without it takes its state from its edges.
    """

    __slots__ = ("angles", "edges", "area", "_state")

    def __init__(self, angles: AngleShape, edges: EdgeLengths | None, area: float,
                 _state=None):
        object.__setattr__(self, "angles", angles)  # frozen: __setattr__ refuses
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "area", area)
        object.__setattr__(self, "_state", _state)

    @property
    def is_euclidean(self) -> bool:
        return self.edges is None

    def to_json_dict(self) -> dict:
        edges = list(self.edges) if self.edges else None
        return {"angles": list(self.angles), "edges": edges, "area": self.area}


def shape_from_edges(a: float, b: float, c: float) -> ShapeRecord:
    """Build the hyperbolic shape realized by edge lengths (a, b, c)."""
    edges = EdgeLengths(a, b, c)
    return _record(hyptrig._start(a, b, c), edges)


def _edges(state) -> EdgeLengths:
    # the edges 2 asinh(sqrt(p)) etc. of a state, not checked again: on a
    # valid sliver a + b - c can round to 0
    return EdgeLengths._unchecked([2 * math.asinh(math.sqrt(x)) for x in state[:3]])


def _record(state, edges: EdgeLengths | None = None) -> ShapeRecord:
    # the record of a state (p, q, r, root, k), with its edges unless given; its
    # angles are not checked again: on a sliver the largest can round to pi
    return ShapeRecord(AngleShape._unchecked(hyptrig._angles(*state)),
                       edges or _edges(state), hyptrig._area(*state), state)


def _state_of(s: ShapeRecord):
    # the state of a hyperbolic record: its own, or one taken from its edges
    return s._state or hyptrig._start(*s.edges)


def shape_from_angles(A: float, B: float, C: float) -> ShapeRecord:
    """Build the shape with angles (A, B, C); Euclidean ones carry no edges.
    Derived edges are not checked again: on a sliver a + b - c can round to 0."""
    angles = AngleShape(A, B, C)
    if angles.is_euclidean:
        return ShapeRecord(angles, None, 0.0)
    S = math.pi - A - B - C  # positive: the angles are not Euclidean
    state = hyptrig._from_angles(A, B, C, S)
    return ShapeRecord(angles, _edges(state), S, state)


def metric_distance(s1: AngleShape, s2: AngleShape) -> float:
    """Euclidean distance between angle triples."""
    return math.sqrt((s1.A - s2.A) ** 2 + (s1.B - s2.B) ** 2 + (s1.C - s2.C) ** 2)


def project_euclidean(s: AngleShape) -> AngleShape:
    """Projectively rescale an angle triple onto angle sum pi.

    Euclidean inputs return unchanged (making the map exactly
    idempotent); otherwise each angle is scaled by pi/(A+B+C), which
    keeps the relative accuracy of even the smallest one.
    """
    if s.is_euclidean:
        return s
    t = s.angle_sum()  # s was checked when built, so its scaled angles need no check
    return AngleShape._unchecked((s.A * math.pi / t, s.B * math.pi / t, s.C * math.pi / t))
