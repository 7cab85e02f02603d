"""Executable checks of every quantitative bound the subdivision maps obey.

Each suite draws seeded samples, runs orbits, and tests the claimed
inequalities step by step, reporting counterexamples instead of raising.
Strict inequalities are certified at binary64 resolution.  Two effects
set the floor: deep orbits drive edges so small that the true margin
(of order edge^2) underflows rounding and the comparison ties at zero
margin, and near-degenerate slivers evaluate their Heron-style products
with relative noise ~eps/margin.  A violation therefore only counts when
it exceeds the bound by RESOLUTION relative; the tightened-constant
self-tests fail by ~9 orders of magnitude more, so the guard cannot
mask a real defect.
"""

import math
import random
from dataclasses import dataclass, field, replace

from . import hyptrig, symbolic
from .shape import AngleShape, EdgeLengths, ShapeRecord, metric_distance, \
    shape_from_angles, shape_from_edges
from .subdivision import apply, child_edges, limit_shape

RESOLUTION = 1e-11
# constant of the post-burn-in lower bound (the paper's sigma = 1 case)
LOWER_CONST = math.exp(-1.5)
MAX_STORED_FAILURES = 25

SINH_HALF_LT_1 = 2 * math.asinh(1.0)  # edge length where sinh(edge/2) = 1


@dataclass(frozen=True)
class SampleSpec:
    """Sampling plan for a suite: seed, sample count, edge range, orbit length."""

    seed: int
    samples: int
    edge_range: tuple[float, float] = (0.01, 5.0)
    max_steps: int = 40

    def __post_init__(self):
        if self.edge_range[0] <= 0:
            raise ValueError("edge range must be positive")
        if self.samples < 1:
            raise ValueError("need at least one sample")


@dataclass
class Report:
    suite: str
    passed: bool
    samples: int
    failures: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def add_failure(self, **payload):
        self.passed = False
        self.stats["violations"] = self.stats.get("violations", 0) + 1
        if len(self.failures) < MAX_STORED_FAILURES:
            self.failures.append(payload)

    def to_json_dict(self) -> dict:
        return {"suite": self.suite, "pass": self.passed, "samples": self.samples,
                "failures": self.failures, "stats": self.stats}


def _sample_edges(rng: random.Random, lo: float, hi: float) -> EdgeLengths:
    while True:
        a, b, c = (rng.uniform(lo, hi) for _ in range(3))
        if a < b + c and b < c + a and c < a + b:
            return EdgeLengths(a, b, c)


def _sinh_halves(e: EdgeLengths) -> tuple[float, float, float]:
    return tuple(math.sinh(x / 2) for x in e.as_tuple())


def _sin_half_area(e: EdgeLengths) -> float:
    return math.sin(hyptrig.area_from_edges(*e.as_tuple()) / 2)


def run_lemma21(spec: SampleSpec, halving_factor: float = 0.5,
                lower_const: float = LOWER_CONST) -> Report:
    """Per-step edge halving, and the geometric lower bound after burn-in.

    Along random orbits every edge satisfies
    sinh(x_{n+1}/2) < halving_factor * sinh(x_n/2); once all three
    sinh(edge/2) drop below 1 (burn-in, rebased to n = 0),
    sinh(x_n/2) > lower_const * 2^-n * sinh(x_0/2) for n up to max_steps.
    """
    report = Report("lemma21", True, spec.samples)
    report.stats["halving_violations"] = 0
    report.stats["lower_violations"] = 0
    rng = random.Random(spec.seed)
    worst_halving = math.inf
    worst_lower = math.inf

    def check_halving(start, step, old, new):
        nonlocal worst_halving
        for slot in range(3):
            worst_halving = min(worst_halving, halving_factor - new[slot] / old[slot])
            if new[slot] >= halving_factor * old[slot] * (1 + RESOLUTION):
                report.stats["halving_violations"] += 1
                report.add_failure(input=list(start.as_tuple()), step=step,
                                   observed=new[slot],
                                   bound=halving_factor * old[slot])

    for idx in range(spec.samples):
        e = _sample_edges(rng, *spec.edge_range)
        start = e
        # burn-in segment: random letters until sinh(edge/2) < 1 on all edges
        burn = 0
        while max(_sinh_halves(e)) >= 1.0:
            e2 = child_edges(rng.choice("ABCM"), e)
            check_halving(start, burn, _sinh_halves(e), _sinh_halves(e2))
            e = e2
            burn += 1
            if burn > 500:
                raise RuntimeError("burn-in did not terminate")
        base = _sinh_halves(e)
        for n in range(1, spec.max_steps + 1):
            e2 = child_edges(rng.choice("ABCM"), e)
            old, new = _sinh_halves(e), _sinh_halves(e2)
            check_halving(start, burn + n, old, new)
            for slot in range(3):
                bound = lower_const * 2.0 ** (-n) * base[slot]
                worst_lower = min(worst_lower, new[slot] / bound)
                if new[slot] <= bound * (1 - RESOLUTION):
                    report.stats["lower_violations"] += 1
                    report.add_failure(input=list(start.as_tuple()), step=n,
                                       observed=new[slot], bound=bound)
            e = e2
    report.stats["worst_halving_margin"] = worst_halving
    report.stats["worst_lower_ratio"] = worst_lower
    report.stats.setdefault("violations", 0)
    return report


def _burn_in_medial(e: EdgeLengths):
    n = 0
    while max(_sinh_halves(e)) >= 1.0:
        e = child_edges("M", e)
        n += 1
        if n > 500:
            raise RuntimeError("burn-in did not terminate")
    return e, n


def run_area_bounds(spec: SampleSpec, upper_scale: float = 1.0,
                    lower_scale: float = 1.0) -> Report:
    """Area decay along medial-cell orbits, squeezed between 4^-n envelopes.

    After burn-in, exp(-1/2) * 4^-n <= sin(S_n/2)/sin(S_0/2) <= 4^-n
    for n up to max_steps.
    """
    report = Report("area", True, spec.samples)
    rng = random.Random(spec.seed)
    worst_hi = math.inf
    worst_lo = math.inf
    for idx in range(spec.samples):
        start = _sample_edges(rng, *spec.edge_range)
        e, _ = _burn_in_medial(start)
        s0 = _sin_half_area(e)
        for n in range(1, spec.max_steps + 1):
            e = child_edges("M", e)
            ratio = _sin_half_area(e) / s0
            hi = upper_scale * 4.0 ** (-n)
            lo = lower_scale * math.exp(-0.5) * 4.0 ** (-n)
            worst_hi = min(worst_hi, (hi - ratio) / hi)
            worst_lo = min(worst_lo, (ratio - lo) / lo)
            if ratio > hi * (1 + RESOLUTION):
                report.add_failure(input=list(start.as_tuple()), step=n,
                                   observed=ratio, bound=hi)
            if ratio < lo * (1 - RESOLUTION):
                report.add_failure(input=list(start.as_tuple()), step=n,
                                   observed=ratio, bound=lo)
    report.stats["worst_upper_margin"] = worst_hi
    report.stats["worst_lower_margin"] = worst_lo
    report.stats.setdefault("violations", 0)
    return report


def run_ratio_limit(spec: SampleSpec, interval: tuple[float, float] | None = None,
                    settle_tol: float = 1e-10) -> Report:
    """Convergence of r_n = 4^n sin(S_n/2)/sin(S_0/2) along medial orbits.

    Checks |r_80 - r_40| < settle_tol and that r_80 lands inside the open
    interval (exp(-1/2), exp(1/2)) after burn-in.
    """
    if interval is None:
        interval = (math.exp(-0.5), math.exp(0.5))
    report = Report("ratiolimit", True, spec.samples)
    rng = random.Random(spec.seed)
    r_lo, r_hi = math.inf, -math.inf
    worst_settle = 0.0
    n_half = 40
    n_full = 80
    for idx in range(spec.samples):
        start = _sample_edges(rng, *spec.edge_range)
        e, _ = _burn_in_medial(start)
        s0 = _sin_half_area(e)
        r40 = r80 = None
        for n in range(1, n_full + 1):
            e = child_edges("M", e)
            if n == n_half:
                r40 = 4.0 ** n * _sin_half_area(e) / s0
            elif n == n_full:
                r80 = 4.0 ** n * _sin_half_area(e) / s0
        settle = abs(r80 - r40)
        worst_settle = max(worst_settle, settle)
        r_lo, r_hi = min(r_lo, r80), max(r_hi, r80)
        if settle >= settle_tol:
            report.add_failure(input=list(start.as_tuple()), step=n_full,
                               observed=settle, bound=settle_tol)
        if not (interval[0] < r80 < interval[1]):
            report.add_failure(input=list(start.as_tuple()), step=n_full,
                               observed=r80, bound=list(interval))
    report.stats["r80_min"] = r_lo
    report.stats["r80_max"] = r_hi
    report.stats["worst_settle"] = worst_settle
    report.stats.setdefault("violations", 0)
    return report


def run_noncontraction() -> Report:
    """The (4, 4, 7) witness: one medial step moves the shape away from
    the equilateral fixed point, so the medial map contracts no metric on
    angle space.

    Asserts (margin > 1e-12): the apex angle grows, both base angles
    shrink, and the distance to (pi/3, pi/3, pi/3) grows.  Also records,
    without asserting, the equilateral case (distance must shrink there)
    and the corner-cell behaviour of the witness triangle.
    """
    report = Report("noncontraction", True, 1)
    margin = 1e-12
    fixed = AngleShape(math.pi / 3, math.pi / 3, math.pi / 3)

    witness = shape_from_edges(4.0, 4.0, 7.0)
    child = apply("M", witness)
    apex0, apex1 = witness.angles.C, child.angles.C
    d0 = metric_distance(witness.angles, fixed)
    d1 = metric_distance(child.angles, fixed)
    checks = [
        ("apex_increases", apex1 - apex0),
        ("base_A_decreases", witness.angles.A - child.angles.A),
        ("base_B_decreases", witness.angles.B - child.angles.B),
        ("distance_increases", d1 - d0),
    ]
    for name, value in checks:
        report.stats[name] = value
        if not value > margin:
            report.add_failure(input=[4.0, 4.0, 7.0], step=1,
                               observed=value, bound=margin)
    report.stats["distance_before"] = d0
    report.stats["distance_after"] = d1

    eq = shape_from_edges(1.0, 1.0, 1.0)
    eq_child = apply("M", eq)
    report.stats["equilateral_distance_before"] = metric_distance(eq.angles, fixed)
    report.stats["equilateral_distance_after"] = metric_distance(eq_child.angles, fixed)

    corner = apply("A", witness)
    report.stats["corner_A_angles"] = list(corner.angles.as_tuple())
    report.stats["corner_A_distance"] = metric_distance(corner.angles, fixed)
    report.stats.setdefault("violations", 0)
    return report


def run_eq1_probe(spec: SampleSpec) -> Report:
    """Diagnostic: how far parent angles drift from the law of cosines
    applied to the medial cell's edges.

    Records the distribution of the worst angle difference delta and the
    slope of log(delta) against log(area); asserts nothing.
    """
    from statistics import linear_regression

    report = Report("eq1probe", True, spec.samples)
    rng = random.Random(spec.seed)
    deltas = []
    points = []
    for idx in range(spec.samples):
        e = _sample_edges(rng, *spec.edge_range)
        parent = hyptrig.angles_from_edges(*e.as_tuple())
        medial = child_edges("M", e)
        probed = hyptrig.angles_from_edges(*medial.as_tuple())
        delta = max(abs(x - y) for x, y in zip(parent, probed))
        area = hyptrig.area_from_edges(*e.as_tuple())
        deltas.append(delta)
        if delta > 0 and area > 0:
            points.append((math.log(area), math.log(delta)))
    deltas.sort()
    n = len(deltas)
    report.stats["delta_min"] = deltas[0]
    report.stats["delta_median"] = deltas[n // 2]
    report.stats["delta_max"] = deltas[-1]
    report.stats["log_slope_vs_area"] = linear_regression(*zip(*points)).slope
    report.stats.setdefault("violations", 0)
    return report


def _small_start(rng: random.Random, spec: SampleSpec) -> EdgeLengths:
    hi = min(spec.edge_range[1], SINH_HALF_LT_1 * 0.999999)
    while True:
        e = _sample_edges(rng, spec.edge_range[0], hi)
        if max(_sinh_halves(e)) < 1.0:
            return e


def run_cauchy_bound(spec: SampleSpec, bound_scale: float = 1.0) -> Report:
    """Log-sine angle drift bound along random orbits from small starts.

    |ln sin X_{n+k} - ln sin X_n| <= 2^-n * sum of sinh^2(edge_0/2) for
    every slot X and all 0 <= n <= n+k <= max_steps; limits along the
    orbit stay nondegenerate.
    """
    report = Report("cauchy", True, spec.samples)
    rng = random.Random(spec.seed)
    worst = 0.0
    min_limit_angle = math.inf
    for idx in range(spec.samples):
        e = _small_start(rng, spec)
        start = e
        budget = sum(s * s for s in _sinh_halves(e)) * bound_scale
        word = [rng.choice("ABCM") for _ in range(spec.max_steps)]
        rho = [[math.log(s) for s in hyptrig._sin_angles(*e.as_tuple())]]
        for letter in word:
            e = child_edges(letter, e)
            rho.append([math.log(s) for s in hyptrig._sin_angles(*e.as_tuple())])
        for n in range(spec.max_steps + 1):
            bound = 2.0 ** (-n) * budget
            for m in range(n, spec.max_steps + 1):
                for slot in range(3):
                    drift = abs(rho[m][slot] - rho[n][slot])
                    worst = max(worst, drift - bound)
                    if drift > bound * (1 + RESOLUTION):
                        report.add_failure(input=list(start.as_tuple()),
                                           step=[n, m - n], observed=drift,
                                           bound=bound)

        def extended():
            yield from word
            while True:
                yield "M"

        lim = limit_shape(extended(), shape_from_edges(*start.as_tuple()))
        min_limit_angle = min(min_limit_angle, min(lim.as_tuple()))
        if not min(lim.as_tuple()) > 0:
            report.add_failure(input=list(start.as_tuple()), step=-1,
                               observed=min(lim.as_tuple()), bound=0.0)
    report.stats["worst_excess"] = worst
    report.stats["min_limit_angle"] = min_limit_angle
    report.stats.setdefault("violations", 0)
    return report


def run_angle_ratio(spec: SampleSpec, lower_scale: float = 1.0,
                    upper_scale: float = 1.0) -> Report:
    """Per-step sine ratio bounds, slot by slot with edge labels cycled.

    1/cosh(x_n/2) < sin X_{n+1}/sin X_n < cosh(y_n/2) cosh(z_n/2) where
    (x, y, z) cycles through the edge labels as X runs over the slots.
    """
    report = Report("angleratio", True, spec.samples)
    rng = random.Random(spec.seed)
    worst_lo = math.inf
    worst_hi = math.inf
    cycled = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    for idx in range(spec.samples):
        e = _small_start(rng, spec)
        start = e
        sines = hyptrig._sin_angles(*e.as_tuple())
        for n in range(1, spec.max_steps + 1):
            letter = rng.choice("ABCM")
            e2 = child_edges(letter, e)
            sines2 = hyptrig._sin_angles(*e2.as_tuple())
            edges = e.as_tuple()
            for (i, j, k) in cycled:
                ratio = sines2[i] / sines[i]
                lo = lower_scale / math.cosh(edges[i] / 2)
                hi = upper_scale * math.cosh(edges[j] / 2) * math.cosh(edges[k] / 2)
                worst_lo = min(worst_lo, ratio - lo)
                worst_hi = min(worst_hi, hi - ratio)
                if ratio <= lo * (1 - RESOLUTION):
                    report.add_failure(input=list(start.as_tuple()), step=n,
                                       observed=ratio, bound=lo)
                if ratio >= hi * (1 + RESOLUTION):
                    report.add_failure(input=list(start.as_tuple()), step=n,
                                       observed=ratio, bound=hi)
            e, sines = e2, sines2
    report.stats["worst_lower_margin"] = worst_lo
    report.stats["worst_upper_margin"] = worst_hi
    report.stats.setdefault("violations", 0)
    return report


def _truncated(seq: symbolic.SymbolSequence, depth: int, tail: str):
    def gen():
        for i in range(depth):
            yield seq[i]
        while True:
            yield tail
    return gen()


def run_continuity(seq, base: ShapeRecord, radii,
                   samples: int = 24, seed: int = 7,
                   depths=(2, 4, 6, 8, 10, 12)) -> Report:
    """Numerical modulus of continuity of the limit map.

    Part 1: sup deviation of the limit over angle perturbations of the
    base must not grow as the radius shrinks, and must be small at the
    smallest radius.  Part 2 (asserted only for irrational sequences):
    agreeing with the sequence on N leading letters pins the limit down
    to an envelope that shrinks with N.
    """
    seq = symbolic._as_seq(seq)
    if base.is_euclidean:
        raise hyptrig.DomainError("continuity probe needs a hyperbolic base")
    radii = list(radii)
    report = Report("continuity", True, samples)
    rng = random.Random(seed)
    base_angles = base.angles.as_tuple()
    ref = limit_shape(iter(seq), base)

    dirs = []
    for _ in range(samples):
        while True:
            d = [rng.gauss(0.0, 1.0) for _ in range(3)]
            norm = math.sqrt(sum(x * x for x in d))
            if norm > 1e-12:
                break
        dirs.append([x / norm for x in d])

    sups = []
    for r in radii:
        sup = 0.0
        for d in dirs:
            ang = [b + r * x for b, x in zip(base_angles, d)]
            if min(ang) <= 0 or sum(ang) >= math.pi - 1e-9:
                continue
            out = limit_shape(iter(seq), shape_from_angles(*ang))
            sup = max(sup, metric_distance(out, ref))
        sups.append(sup)
    report.stats["radii"] = radii
    report.stats["sup_deviation"] = sups
    for i in range(1, len(sups)):
        if sups[i] > sups[i - 1] + 1e-12:
            report.add_failure(input=radii[i], step=i, observed=sups[i],
                               bound=sups[i - 1])
    # decay to zero, operationalized as a bounded modulus at the finest
    # radius: a jump discontinuity would stay O(1) instead
    if sups and sups[-1] >= 1000 * radii[-1]:
        report.add_failure(input=radii[-1], step=len(sups) - 1,
                           observed=sups[-1], bound=1000 * radii[-1])

    envelopes = []
    for depth in depths:
        env = 0.0
        for tail in "ABCM":
            out = limit_shape(_truncated(seq, depth, tail), base)
            env = max(env, metric_distance(out, ref))
        envelopes.append(env)
    report.stats["truncation_depths"] = list(depths)
    report.stats["truncation_envelopes"] = envelopes
    irrational = symbolic.classify(seq) == "irrational"
    report.stats["truncation_asserted"] = irrational
    if irrational:
        for i in range(1, len(envelopes)):
            if envelopes[i] > envelopes[i - 1] + 1e-12:
                report.add_failure(input=depths[i], step=i,
                                   observed=envelopes[i], bound=envelopes[i - 1])
        # sharing N letters pins the areas down like 4^-N; 2^-N is a safe
        # envelope while a divergent tail family would stay O(1)
        if envelopes and envelopes[-1] >= 10 * 2.0 ** (-depths[-1]):
            report.add_failure(input=depths[-1], step=len(envelopes) - 1,
                               observed=envelopes[-1],
                               bound=10 * 2.0 ** (-depths[-1]))
    report.stats.setdefault("violations", 0)
    return report


def run_surjectivity(seq, grid_n: int, residual_tol: float = 1e-6,
                     slice_defect: float = 0.2, maxfev: int = 800) -> Report:
    """Numerical inversion of the limit map over a grid of Euclidean targets.

    Searches a fixed-defect slice of hyperbolic shapes (two angle
    coordinates, third from the defect) with a derivative-free simplex
    method; each interior target must be hit within residual_tol.
    """
    from scipy.optimize import minimize

    seq = symbolic._as_seq(seq)
    if grid_n < 2:
        raise ValueError("grid must be at least 2x2")
    targets = []
    for i in range(1, grid_n + 1):
        for j in range(1, grid_n + 1):
            alpha = math.pi * i / (grid_n + 1)
            beta = (math.pi - alpha) * j / (grid_n + 1)
            targets.append((alpha, beta, math.pi - alpha - beta))

    report = Report("surjectivity", True, len(targets))

    def residual(v, target):
        A, B = v
        C = math.pi - slice_defect - A - B
        if A <= 1e-9 or B <= 1e-9 or C <= 1e-9:
            return 1e6
        out = limit_shape(iter(seq), shape_from_angles(A, B, C))
        return metric_distance(out, AngleShape(*target))

    residuals = []
    for target in targets:
        scale = (math.pi - slice_defect) / math.pi
        x0 = [target[0] * scale, target[1] * scale]
        res = minimize(residual, x0, args=(target,), method="Nelder-Mead",
                       options=dict(xatol=1e-12, fatol=1e-14,
                                    maxiter=maxfev, maxfev=maxfev))
        r = residual(res.x, target)
        residuals.append(r)
        if not r < residual_tol:
            report.add_failure(input=list(target), step=int(res.nfev),
                               observed=r, bound=residual_tol)
    report.stats["max_residual"] = max(residuals)
    report.stats["residuals"] = residuals
    report.stats.setdefault("violations", 0)
    return report


DEFAULT_SPECS = {
    "lemma21": SampleSpec(seed=1, samples=200, max_steps=40),
    "area": SampleSpec(seed=2, samples=200, max_steps=30),
    "ratiolimit": SampleSpec(seed=3, samples=100, max_steps=80),
    "cauchy": SampleSpec(seed=4, samples=200, max_steps=40),
    "angleratio": SampleSpec(seed=5, samples=200, max_steps=40),
    "eq1probe": SampleSpec(seed=6, samples=400, max_steps=1),
}

SUITE_NAMES = ("lemma21", "area", "ratiolimit", "cauchy", "angleratio",
               "noncontraction", "eq1probe", "continuity", "surjectivity")


def run_suite(name: str, seed: int | None = None,
              samples: int | None = None) -> Report:
    """Run one named suite with its default plan, optionally reseeded."""
    if name in DEFAULT_SPECS:
        overrides = {k: v for k, v in (("seed", seed), ("samples", samples))
                     if v is not None}
        spec = replace(DEFAULT_SPECS[name], **overrides)
        runner = {
            "lemma21": run_lemma21,
            "area": run_area_bounds,
            "ratiolimit": run_ratio_limit,
            "cauchy": run_cauchy_bound,
            "angleratio": run_angle_ratio,
            "eq1probe": run_eq1_probe,
        }[name]
        return runner(spec)
    if name == "noncontraction":
        return run_noncontraction()
    if name == "continuity":
        return run_continuity("|M", shape_from_edges(1.0, 1.0, 1.0),
                              [10.0 ** (-k) for k in range(1, 7)],
                              samples=samples if samples is not None else 24,
                              seed=seed if seed is not None else 7)
    if name == "surjectivity":
        return run_surjectivity("|M", 5)
    raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")


def run_all(seed: int | None = None, samples: int | None = None) -> list[Report]:
    return [run_suite(name, seed=seed, samples=samples) for name in SUITE_NAMES]
