"""Symbolic addresses: eventually periodic letter sequences and where they land.

A sequence "PREFIX|CYCLE" over {A, B, C, M} names a nested chain of
subdivision cells inside a reference Euclidean triangle; the chain
shrinks to a single point whose barycentric coordinates are exact
rationals.  Exact rational equality of those points is the ground truth
for two sequences being addresses of the same point; the six-tail-form
pattern matcher is validated against it, never the other way around.
Every SymbolSequence is canonical from construction, so nothing here
normalises it again.  The matcher reads each tail form directly: a form
ends in a switch letter and a different constant tail, so the switch is
the last prefix letter, with at most one reading per start and letter
permutation, and the (switch, tail) pair admits at most two permutations.

The cycle's maps compose to x -> (S*x + T)/2^|cycle| with S = +-1 and T
an integer vector, so addresses are computed as integer numerators over
the dyadic denominator 2^|prefix| * (2^|cycle| - S), with no gcd per step,
and an exact address is reduced once, when it is built.
"""

import math
from collections import namedtuple
from fractions import Fraction
from itertools import chain, cycle, permutations

from .shape import _Frozen

LETTERS = ("A", "B", "C", "M")
_LETTER_SET = frozenset(LETTERS)

# Barycentric affine maps of the four cells.
# Corner cells: x -> (x + e_L)/2; medial cell: x -> (1 - x)/2.
_VERTEX = {"A": (1, 0, 0), "B": (0, 1, 0), "C": (0, 0, 1)}

# Diameter of the reference 2-simplex in the ambient Euclidean metric.
REFERENCE_DIAMETER = math.sqrt(2.0)


def _check_letter(letter: str) -> None:
    if letter not in LETTERS:
        raise ValueError(f"unknown letter {letter!r}; expected one of {LETTERS}")


class Bary(tuple):
    """Exact barycentric coordinates (u, v, w), u + v + w = 1."""

    def __new__(cls, u, v, w):
        u, v, w = Fraction(u), Fraction(v), Fraction(w)
        if u + v + w != 1:
            raise ValueError("barycentric coordinates must sum to 1")
        return super().__new__(cls, (u, v, w))

    def as_floats(self) -> tuple[float, float, float]:
        return float(self[0]), float(self[1]), float(self[2])

    def fraction_strings(self) -> tuple[str, str, str]:
        return tuple(f"{x.numerator}/{x.denominator}" for x in self)


def letter_map(letter: str):
    """The exact affine self-map of the reference triangle for one letter."""
    _check_letter(letter)
    if letter == "M":
        def f(p: Bary) -> Bary:
            return Bary((1 - p[0]) / 2, (1 - p[1]) / 2, (1 - p[2]) / 2)
        return f
    e = _VERTEX[letter]

    def f(p: Bary) -> Bary:
        return Bary((p[0] + e[0]) / 2, (p[1] + e[1]) / 2, (p[2] + e[2]) / 2)
    return f


def _primitive_cycle(c: str) -> str:
    # c's shortest period is where c first recurs inside c + c; it divides len(c)
    return c[:(c + c).find(c, 1)]


class SymbolSequence(_Frozen):
    """Eventually periodic infinite word: finite prefix, repeating cycle.

    Every sequence is stored in canonical form, whatever its spelling: the
    cycle is primitive, and prefix letters equal to the cycle's last letter
    rotate into the cycle, so two spellings of one word compare equal.
    Not a tuple: iterating or indexing it gives the infinite word.
    """

    __slots__ = ("prefix", "cycle")

    def __init__(self, prefix: str, cycle: str):
        if not cycle:
            raise ValueError("cycle must be nonempty")
        if not _LETTER_SET.issuperset(prefix + cycle):
            for ch in prefix + cycle:
                _check_letter(ch)  # names the first bad letter
        cycle = _primitive_cycle(cycle)
        while prefix and prefix[-1] == cycle[-1]:
            prefix, cycle = prefix[:-1], cycle[-1] + cycle[:-1]
        object.__setattr__(self, "prefix", prefix)  # frozen: __setattr__ refuses
        object.__setattr__(self, "cycle", cycle)

    @classmethod
    def parse(cls, text: str) -> "SymbolSequence":
        """Parse "PREFIX|CYCLE"."""
        if text.count("|") != 1:
            raise ValueError(f"sequence text {text!r} must contain exactly one '|'")
        return cls(*text.split("|"))

    def __getitem__(self, n: int) -> str:
        if n < 0:
            raise IndexError(f"index {n}: an infinite word has no last letter")
        if n < len(self.prefix):
            return self.prefix[n]
        return self.cycle[(n - len(self.prefix)) % len(self.cycle)]

    def __iter__(self):
        return chain(self.prefix, cycle(self.cycle))


def _as_seq(s) -> SymbolSequence:
    return s if isinstance(s, SymbolSequence) else SymbolSequence.parse(s)


def classify(s) -> str:
    """"rational" if exactly one of A, B, C occurs in the cycle, else "irrational".

    Occurrences of M never count, so an all-M cycle is irrational.
    """
    s = _as_seq(s)
    distinct = set(s.cycle) & set("ABC")
    return "rational" if len(distinct) == 1 else "irrational"


def _push(letters, n, den):
    """Carry the point n/den through the maps of `letters`, the last one first.

    Returns integer numerators over den * 2^len(letters): a corner letter L
    adds den to n_L, M replaces n by den - n, and every letter doubles den.
    """
    a, b, c = n
    for letter in reversed(letters):
        if letter == "M":
            a, b, c = den - a, den - b, den - c
        elif letter == "A":
            a += den
        elif letter == "B":
            b += den
        else:
            c += den
        den *= 2
    return (a, b, c), den


def _numerators(s: SymbolSequence):
    """Numerators and denominator of the address: pushing 0 through the
    cycle gives T/2^|cycle|, S = (-1)^(M count), and the prefix carries
    the fixed point T/(2^|cycle| - S)."""
    t, scale = _push(s.cycle, (0, 0, 0), 1)
    return _push(s.prefix, t, scale - (-1) ** s.cycle.count("M"))


def address_approx(s, depth: int) -> tuple[tuple[float, float, float], float]:
    """Centroid pushed through the first `depth` maps, with an error bound.

    The point is n/(3 * 2^depth) in integers, rounded once per coordinate.
    The maps halve distances, so that exact point is within 2^-depth times
    the reference diameter of the true address; rounding adds at most half
    an ulp per coordinate, in the same Euclidean metric.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    s = _as_seq(s)
    n, den = _push([s[i] for i in range(depth)], (1, 1, 1), 3)
    point = tuple(x / den for x in n)
    rounding = math.hypot(*(math.ulp(x) / 2 for x in point))
    return point, REFERENCE_DIAMETER * 2.0 ** (-depth) + rounding


def address_exact(s) -> Bary:
    """Exact rational address of an eventually periodic sequence.

    The cycle's composed affine map x -> (S*x + T)/2^|cycle| contracts, so
    it has a unique fixed point T/(2^|cycle| - S); the prefix maps then
    carry it to the address, over the denominator
    2^|prefix| * (2^|cycle| - S), where each coordinate is reduced once.
    """
    n, den = _numerators(_as_seq(s))
    if sum(n) != den:  # Bary's check, in integers
        raise ValueError("barycentric coordinates must sum to 1")
    return tuple.__new__(Bary, [Fraction(x, den) for x in n])


def equivalent(s, t) -> bool:
    """True when the two sequences address the same point (exact
    cross-multiplication of numerators, n_s * den_t == n_t * den_s)."""
    ns, ds = _numerators(_as_seq(s))
    nt, dt = _numerators(_as_seq(t))
    return all(x * dt == y * ds for x, y in zip(ns, nt))


class Prop31Match(namedtuple("Prop31Match", "prefix sigma zeta m form_s form_t")):
    """Witness that two sequences fit a pair of the six known tail forms: the
    shared leading block tau (prefix), the images sigma of (A, B, C), a word
    zeta over the indeterminates "x" and "y", and m; form_s and form_t are 1..6."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "prefix": self.prefix,
            "sigma": {"A": self.sigma[0], "B": self.sigma[1], "C": self.sigma[2]},
            "zeta": self.zeta,
            "m": self.m,
            "forms": [self.form_s, self.form_t],
        }


def _tail_form(seq: SymbolSequence, n: int, sigma):
    """The (form, zeta) reading of seq from position n under sigma, or None.

    Forms 1-3 open with sigma(A) and spell zeta with x -> sigma(B),
    y -> sigma(C); forms 4-6 open with M and use the swapped spelling.
    A switch letter then turns into a constant tail: M into sigma(A)
    (forms 1/4), sigma(B) into sigma(C) (2/5), sigma(C) into sigma(B) (3/6).
    Each switch differs from its tail, and a canonical prefix p does not
    end in its cycle letter L, so the switch is p[-1], m = len(p) - 2 - n,
    p[n] picks the group and (p[-1], L) the form: one reading at most.
    """
    p, (sA, sB, sC) = seq.prefix, sigma
    ends = (("M", sA), (sB, sC), (sC, sB))
    spell = {sB: "x", sC: "y"} if p[n] == sA else {sC: "x", sB: "y"}
    block = p[n + 1:-1]
    if p[n] not in (sA, "M") or (p[-1], seq.cycle) not in ends \
            or not set(block) <= spell.keys():
        return None
    form = ends.index((p[-1], seq.cycle)) + (1 if p[n] == sA else 4)
    return form, "".join(spell[ch] for ch in block)


# The sigmas under which a prefix ending in `switch` before the constant
# tail `tail` can read as a form: M -> sigma(A), sigma(B) -> sigma(C) or
# sigma(C) -> sigma(B).  At most two, in permutations("ABC") order.
_SIGMAS = {(switch, tail): tuple(sg for sg in permutations("ABC") if (switch, tail)
                                 in (("M", sg[0]), (sg[1], sg[2]), (sg[2], sg[1])))
           for switch in LETTERS for tail in LETTERS}


def match_prop31(s, t, horizon: int = 64):
    """Search for a six-form witness that s and t address the same point.

    Returns a Prop31Match or None.  Only soundness is promised: a witness
    implies exact address equality, but equal addresses may have no
    witness (edge-midpoint and midline-interior pairs fall outside the
    six forms).  horizon caps both the shared block tau and m.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    s, t = _as_seq(s), _as_seq(t)
    p, q = s.prefix, t.prefix
    # every form ends in a constant tail, and m fixes the prefix length
    if s == t or len(s.cycle) != 1 or len(t.cycle) != 1 or len(p) != len(q) \
            or len(p) < 2:
        return None
    sigmas, last = _SIGMAS[p[-1], s.cycle], len(p) - 2
    for n in range(max(0, last - horizon), min(last, horizon) + 1):
        if p[:n] != q[:n]:
            break
        for sigma in sigmas:
            read_s = _tail_form(s, n, sigma)
            read_t = read_s and _tail_form(t, n, sigma)
            if read_t and read_s[0] != read_t[0] and read_s[1] == read_t[1]:
                return Prop31Match(p[:n], sigma, read_s[1], last - n,
                                   read_s[0], read_t[0])
    return None
