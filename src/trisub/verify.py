"""Executable checks of every quantitative bound the subdivision maps obey.

Each suite draws seeded samples and runs orbits.  A per-step bound is
tested over a whole orbit at once (Report.flagged), and the steps that
break it are recorded (Report.check) as counterexamples, never raised.
Strict inequalities are certified at binary64 resolution.  Two effects
set the floor: deep orbits drive edges so small that the true margin
(of order edge^2) underflows rounding and the comparison ties at zero
margin, and near-degenerate slivers evaluate their bounds with relative
noise ~eps/margin.  A violation therefore only counts when it exceeds
the bound by RESOLUTION relative; the tightened-constant self-tests fail
by ~9 orders of magnitude more, so the guard cannot mask a real defect.
"""

import math
import random
from collections import namedtuple
from functools import partial
from itertools import chain, compress, count, islice, repeat, starmap
from operator import add, gt, lt, mul, sub, truediv

from . import SUITE_NAMES, hyptrig, symbolic  # SUITE_NAMES stays public here
from .shape import AngleShape, EdgeLengths, ShapeRecord, _Checked, _state_of, \
    metric_distance, shape_from_edges
from .subdivision import _limit, apply
from .symbolic import LETTERS, _check_letter

RESOLUTION = 1e-11
# constant of the post-burn-in lower bound (the paper's sigma = 1 case)
LOWER_CONST = math.exp(-1.5)
MAX_STORED_FAILURES = 25

SINH_HALF_LT_1 = 2 * math.asinh(1.0)  # edge length where sinh(edge/2) = 1


class SampleSpec(_Checked, namedtuple("SampleSpec", "seed samples edge_range max_steps",
                                      defaults=((0.01, 5.0), 40))):
    """Plan of a seeded suite; only lemma21, area, cauchy and angleratio read max_steps."""

    __slots__ = ()

    def __post_init__(self):
        if not all(map(math.isfinite, self.edge_range)):
            raise ValueError("edge range must be finite")
        if self.edge_range[0] <= 0:
            raise ValueError("edge range must be positive")
        if self.samples < 1:
            raise ValueError("need at least one sample")
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")


class Report:
    __slots__ = ("suite", "passed", "samples", "failures", "stats")

    def __init__(self, suite: str, samples: int, stats=None):
        self.suite, self.passed, self.samples, self.failures = suite, True, samples, []
        self.stats = {} if stats is None else stats

    def add_failure(self, **payload):
        self.passed = False
        self.stats["violations"] = self.stats.get("violations", 0) + 1
        if len(self.failures) < MAX_STORED_FAILURES:
            self.failures.append(payload)

    @staticmethod
    def flagged(observed, bounds, upper=True) -> list[int]:
        """Indices where observed is beyond bounds by over RESOLUTION relative."""
        if upper:
            broken = map(gt, observed, map(mul, bounds, repeat(1 + RESOLUTION)))
        else:
            broken = map(lt, observed, map(mul, bounds, repeat(1 - RESOLUTION)))
        return list(compress(count(), broken))

    def check(self, start, step, observed, bound, upper=True) -> bool:
        """Record observed beyond bound as flagged tests it; the one recorder."""
        violated = bool(self.flagged([observed], [bound], upper))
        if violated:
            self.add_failure(input=list(start), step=step,
                             observed=observed, bound=bound)
        return violated

    def finish(self, **stats) -> "Report":
        """Add the closing stats; every report ends with its violation count."""
        self.stats.update(stats)
        self.stats.setdefault("violations", 0)
        return self

    def to_json_dict(self) -> dict:
        return {"suite": self.suite, "pass": self.passed, "samples": self.samples,
                "failures": self.failures, "stats": self.stats}


def _sample_edges(rng: random.Random, spec: SampleSpec, small: bool) -> EdgeLengths:
    # a small start needs no burn-in: sinh(edge/2) < 1 on all edges
    lo, hi = spec.edge_range
    if small:
        cap = SINH_HALF_LT_1 * 0.999999
        if lo >= cap:
            raise ValueError(f"edge range starts at {lo!r}, not below the "
                             f"small-start cap {cap!r}")
        hi = min(hi, cap)
    while True:
        a, b, c = (rng.uniform(lo, hi) for _ in range(3))
        if a < b + c and b < c + a and c < a + b:
            return EdgeLengths._unchecked((a, b, c))  # checked: they imply a, b, c > 0


def _run_seeded(suite: str, spec: SampleSpec, orbit, small=False, stats=()):
    """Run orbit(report, rng, start) from spec.samples seeded (small) starts;
    returns the report and the rows the orbits return, in draw order.  A
    DomainError is raised again naming the suite and the start."""
    report, rows = Report(suite, spec.samples, stats=dict(stats)), []
    rng = random.Random(spec.seed)
    for _ in range(spec.samples):
        start = _sample_edges(rng, spec, small)
        try:
            rows.append(orbit(report, rng, start))
        except hyptrig.DomainError as exc:
            raise type(exc)(f"{suite} orbit from {list(start)}: "
                            f"{exc}") from exc
    return report, rows


def _sin_half_area(h) -> float:
    return math.sin(hyptrig._area(*h) / 2)


def _letters(rng: random.Random):
    """The letters map(rng.choice, repeat(LETTERS)) draws, drawn at C level.

    On Python 3.10-3.13, choice over four items takes getrandbits(3) and
    draws again while the result is 4 or more; this does the same draws in
    the same order, so it yields the same letters and leaves rng in the same
    state.  It is lazy: each letter is drawn when it is taken.
    """
    return map(LETTERS.__getitem__, filter((4).__gt__, map(rng.getrandbits, repeat(3))))


def _burn_in(e: EdgeLengths, letters, steps: int):
    """The orbit of e under the letter iterator, e first: burn-in until
    p, q, r = sinh^2(edge/2) are all below 1, then steps more.  Returns the
    states (p, q, r, root, k) from hyptrig._start and the step kernels, and
    the burn-in length; no letter is taken beyond the last."""
    kernels = hyptrig.STEPS
    h = hyptrig._start(e.a, e.b, e.c)
    path = [h]
    while max(h[0], h[1], h[2]) >= 1.0:
        if len(path) > 500:
            raise RuntimeError("burn-in did not terminate")
        letter = next(letters)
        h = (kernels.get(letter) or _check_letter(letter))(*h)
        path.append(h)
    burn = len(path) - 1
    for letter in islice(letters, steps):
        h = (kernels.get(letter) or _check_letter(letter))(*h)
        path.append(h)
    return tuple(path), burn


def run_lemma21(spec: SampleSpec, halving_factor: float = 0.5,
                lower_const: float = LOWER_CONST) -> Report:
    """Per-step edge halving, and the geometric lower bound after burn-in.

    Along random orbits every edge satisfies
    sinh(x_{n+1}/2) < halving_factor * sinh(x_n/2); once all three
    sinh(edge/2) drop below 1 (burn-in, rebased to n = 0),
    sinh(x_n/2) > lower_const * 2^-n * sinh(x_0/2) for n up to max_steps.
    """
    # lower_const * 2^-n for each slot of steps n = 1..max_steps after burn-in
    scales = [lower_const * 2.0 ** (-n) for n in range(1, spec.max_steps + 1) for _ in range(3)]

    def orbit(report, rng, start):
        # burn-in segment: random letters until sinh(edge/2) < 1 on all edges
        hs, burn = _burn_in(start, _letters(rng), spec.max_steps)
        # series of slots, new[3(i-1) + slot] at step i, after[3(n-1) + slot] at i = burn + n
        halves = list(map(math.sqrt, chain.from_iterable(h[:3] for h in hs)))
        old, new, after = halves[:-3], halves[3:], halves[3 * burn + 3:]
        halving = list(map(mul, repeat(halving_factor), old))
        lower = list(map(mul, scales, halves[3 * burn:3 * burn + 3] * spec.max_steps))
        flagged = {k // 3 + 1 for k in report.flagged(new, halving)}
        flagged.update(k // 3 + 1 + burn for k in report.flagged(after, lower, upper=False))
        for i in sorted(flagged):
            for k in range(3 * i - 3, 3 * i):
                report.stats["halving_violations"] += report.check(start, i, new[k], halving[k])
            n = i - burn
            for k in range(max(0, 3 * n - 3), 3 * n):
                report.stats["lower_violations"] += report.check(start, n, after[k], lower[k],
                                                                 upper=False)
        return (halving_factor - max(map(truediv, new, old), default=-math.inf),
                min(map(truediv, after, lower), default=math.inf))

    report, rows = _run_seeded("lemma21", spec, orbit,
                               stats={"halving_violations": 0, "lower_violations": 0})
    margins, ratios = zip(*rows)
    return report.finish(worst_halving_margin=min(math.inf, *margins),
                         worst_lower_ratio=min(math.inf, *ratios))


def run_area_bounds(spec: SampleSpec, upper_scale: float = 1.0,
                    lower_scale: float = 1.0) -> Report:
    """Area decay along medial-cell orbits, squeezed between 4^-n envelopes.

    After burn-in, exp(-1/2) * 4^-n <= sin(S_n/2)/sin(S_0/2) <= 4^-n
    for n up to max_steps.
    """
    lo_scale = lower_scale * math.exp(-0.5)
    # item n - 1 of each series is step n after burn-in
    quarters = [4.0 ** (-n) for n in range(1, spec.max_steps + 1)]
    his, los = [upper_scale * x for x in quarters], [lo_scale * x for x in quarters]

    def orbit(report, rng, start):
        hs, burn = _burn_in(start, repeat("M"), spec.max_steps)
        s0 = _sin_half_area(hs[burn])
        ratios = [_sin_half_area(h) / s0 for h in hs[burn + 1:]]
        for k in sorted({*report.flagged(ratios, his), *report.flagged(ratios, los, upper=False)}):
            report.check(start, k + 1, ratios[k], his[k])
            report.check(start, k + 1, ratios[k], los[k], upper=False)
        return (min(map(truediv, map(sub, his, ratios), his), default=math.inf),
                min(map(truediv, map(sub, ratios, los), los), default=math.inf))

    report, rows = _run_seeded("area", spec, orbit)
    hi, lo = zip(*rows)
    return report.finish(worst_upper_margin=min(math.inf, *hi),
                         worst_lower_margin=min(math.inf, *lo))


def run_ratio_limit(spec: SampleSpec,
                    interval: tuple[float, float] = (math.exp(-0.5), math.exp(0.5)),
                    settle_tol: float = 1e-10) -> Report:
    """Convergence of r_n = 4^n sin(S_n/2)/sin(S_0/2) along medial orbits.

    Checks |r_80 - r_40| < settle_tol and that r_80 lands inside the open
    interval (exp(-1/2), exp(1/2)) after burn-in.
    """
    n_half, n_full = 40, 80

    def orbit(report, rng, start):
        hs, burn = _burn_in(start, repeat("M"), n_full)
        s0 = _sin_half_area(hs[burn])
        r40, r80 = (4.0 ** n * _sin_half_area(hs[burn + n]) / s0
                    for n in (n_half, n_full))
        settle = abs(r80 - r40)
        fail = partial(report.add_failure, input=list(start), step=n_full)
        if settle >= settle_tol:
            fail(observed=settle, bound=settle_tol)
        if not (interval[0] < r80 < interval[1]):
            fail(observed=r80, bound=list(interval))
        return r80, settle

    report, rows = _run_seeded("ratiolimit", spec, orbit)
    r80s, settles = zip(*rows)
    return report.finish(r80_min=min(math.inf, *r80s), r80_max=max(-math.inf, *r80s),
                         worst_settle=max(0.0, *settles))


def run_noncontraction() -> Report:
    """The (4, 4, 7) witness: one medial step moves the shape away from
    the equilateral fixed point, so the medial map contracts no metric on
    angle space.

    Asserts (margin > 1e-12): the apex angle grows, both base angles
    shrink, and the distance to (pi/3, pi/3, pi/3) grows.  Also records,
    without asserting, the equilateral case (distance must shrink there)
    and the corner-cell behaviour of the witness triangle.
    """
    report = Report("noncontraction", 1)
    margin = 1e-12
    fixed = AngleShape(math.pi / 3, math.pi / 3, math.pi / 3)

    witness = shape_from_edges(4.0, 4.0, 7.0)
    child = apply("M", witness)
    d0 = metric_distance(witness.angles, fixed)
    d1 = metric_distance(child.angles, fixed)
    checks = [
        ("apex_increases", child.angles.C - witness.angles.C),
        ("base_A_decreases", witness.angles.A - child.angles.A),
        ("base_B_decreases", witness.angles.B - child.angles.B),
        ("distance_increases", d1 - d0),
    ]
    for name, value in checks:
        report.stats[name] = value
        if not value > margin:
            report.add_failure(input=[4.0, 4.0, 7.0], step=1,
                               observed=value, bound=margin)

    eq = shape_from_edges(1.0, 1.0, 1.0)
    eq_child = apply("M", eq)
    corner = apply("A", witness)
    return report.finish(
        distance_before=d0, distance_after=d1,
        equilateral_distance_before=metric_distance(eq.angles, fixed),
        equilateral_distance_after=metric_distance(eq_child.angles, fixed),
        corner_A_angles=list(corner.angles),
        corner_A_distance=metric_distance(corner.angles, fixed))


def run_eq1_probe(spec: SampleSpec) -> Report:
    """Diagnostic: how far parent angles drift from the law of cosines
    applied to the medial cell's edges.

    Records the distribution of the worst angle difference delta and the
    slope of log(delta) against log(area), None when fewer than two
    distinct areas give a positive delta; asserts nothing.
    """
    def orbit(report, rng, e):
        h = hyptrig._start(e.a, e.b, e.c)
        probed = hyptrig._angles(*hyptrig.STEPS["M"](*h))
        return max(abs(x - y) for x, y in zip(hyptrig._angles(*h), probed)), hyptrig._area(*h)

    report, rows = _run_seeded("eq1probe", spec, orbit)
    deltas = sorted(delta for delta, _ in rows)
    points = [(math.log(area), math.log(delta)) for delta, area in rows if delta > 0 and area > 0]
    slope = None
    if len({x for x, _ in points}) >= 2:
        # least squares with fsum sums in a fixed order, the same on every Python
        xbar, ybar = (math.fsum(v) / len(points) for v in zip(*points))
        sxy = math.fsum((x - xbar) * (y - ybar) for x, y in points)
        slope = sxy / math.fsum((x - xbar) * (x - xbar) for x, _ in points)
    return report.finish(delta_min=deltas[0], delta_median=deltas[len(deltas) // 2],
                         delta_max=deltas[-1], log_slope_vs_area=slope)


def run_cauchy_bound(spec: SampleSpec, bound_scale: float = 1.0) -> Report:
    """Log-sine angle drift bound along random orbits from small starts.

    |ln sin X_{n+k} - ln sin X_n| <= 2^-n * sum of sinh^2(edge_0/2) for
    every slot X and all 0 <= n <= n+k <= max_steps; limits along the
    orbit stay nondegenerate.  worst_excess is the largest drift minus
    its bound, negative when every pair is within its bound.

    Every pair is covered through the suffix extrema of each slot: the
    largest drift from step n is max(hi - rho_n, rho_n - lo) over the
    steps m >= n, bit for bit, since rounded subtraction is monotone.
    One reverse pass over the orbit keeps each slot's running extrema;
    the 2^-n factors depend on the plan alone and are built once.  Only
    a step whose largest drift exceeds the bound is checked pair by pair
    through Report.check, so failures come in all-pairs order.
    """
    halvings = [2.0 ** (-n) for n in range(spec.max_steps + 1)]

    def orbit(report, rng, start):
        word = list(islice(_letters(rng), spec.max_steps))
        hs, _ = _burn_in(start, iter(word), spec.max_steps)  # no burn-in
        # a fixed-order sum: sum() of floats is compensated from Python 3.12
        budget = (hs[0][0] + hs[0][1] + hs[0][2]) * bound_scale
        # item 3n + slot is ln sin of that slot's angle at step n
        rho = list(map(math.log, chain.from_iterable(starmap(hyptrig._sin_angles, hs))))
        # per step, its slots' largest rise and fall to any later step
        ha, hb, hc = la, lb, lc = rho[-3:]
        reach, back = [], reversed(rho)
        for c, b, a in zip(back, back, back):
            ha, hb, hc = a if a > ha else ha, b if b > hb else hb, c if c > hc else hc
            la, lb, lc = a if a < la else la, b if b < lb else lb, c if c < lc else lc
            reach.append(max(ha - a, hb - b, hc - c, a - la, b - lb, c - lc))
        reach.reverse()
        bounds = list(map(mul, halvings, repeat(budget)))
        for n in report.flagged(reach, bounds):  # some pair breaks the bound
            # slot drifts from step n to each step n + k, k = 0, 1, ...
            for k, i in enumerate(range(3 * n, len(rho), 3)):
                for x, y in zip(rho[i:i + 3], rho[3 * n:3 * n + 3]):
                    report.check(start, [n, k], abs(x - y), bounds[n])
        # from the start along word, then M forever: the walk stops at the
        # first state after the start with p + q + r below 1e-13, so it
        # resumes from the state of hs before that one, or from the last
        k = next((i - 1 for i in range(1, len(hs)) if hs[i][0] + hs[i][1] + hs[i][2] < 1e-13),
                 len(hs) - 1)
        lim = _limit(chain(word[k:], repeat("M")), *hs[k], 1e-13).angles
        if not min(lim) > 0:
            report.add_failure(input=list(start), step=-1,
                               observed=min(lim), bound=0.0)
        return max(map(sub, reach, bounds)), min(lim)

    report, rows = _run_seeded("cauchy", spec, orbit, small=True)
    excess, limit_angles = zip(*rows)
    return report.finish(worst_excess=max(-math.inf, *excess),
                         min_limit_angle=min(math.inf, *limit_angles))


def run_angle_ratio(spec: SampleSpec, lower_scale: float = 1.0,
                    upper_scale: float = 1.0) -> Report:
    """Per-step sine ratio bounds, slot by slot with edge labels cycled.

    1/cosh(x_n/2) < sin X_{n+1}/sin X_n < cosh(y_n/2) cosh(z_n/2) where
    (x, y, z) cycles through the edge labels as X runs over the slots.
    """
    def orbit(report, rng, start):
        # small starts need no burn-in
        hs, _ = _burn_in(start, _letters(rng), spec.max_steps)
        # slot series, three items per step: item 3(n-1)+i is slot i of step n
        sines = list(chain.from_iterable(starmap(hyptrig._sin_angles, hs)))
        ratios = list(map(truediv, sines[3:], sines[:-3]))
        flat = chain.from_iterable(h[:3] for h in hs[:-1])
        cosh_halves = list(map(math.sqrt, map(add, repeat(1), flat)))
        los = list(map(truediv, repeat(lower_scale), cosh_halves))
        # slot i takes the other two, i + 1 and i + 2 (mod 3), of its step
        slots = cosh_halves[0::3], cosh_halves[1::3], cosh_halves[2::3]
        ys, zs = (chain.from_iterable(zip(*slots[k:], *slots[:k])) for k in (1, 2))
        his = list(map(mul, map(mul, repeat(upper_scale), ys), zs))
        flagged = {*report.flagged(ratios, los, upper=False), *report.flagged(ratios, his)}
        for n in sorted({k // 3 + 1 for k in flagged}):
            for k in range(3 * n - 3, 3 * n):
                report.check(start, n, ratios[k], los[k], upper=False)
                report.check(start, n, ratios[k], his[k])
        return (min(map(sub, ratios, los), default=math.inf),
                min(map(sub, his, ratios), default=math.inf))

    report, rows = _run_seeded("angleratio", spec, orbit, small=True)
    lo, hi = zip(*rows)
    return report.finish(worst_lower_margin=min(math.inf, *lo),
                         worst_upper_margin=min(math.inf, *hi))


def _must_shrink(report: Report, inputs, values, final_bound) -> None:
    # values must not grow along inputs and must end below final_bound(inputs[-1])
    for i in range(1, len(values)):
        if values[i] > values[i - 1] + 1e-12:
            report.add_failure(input=inputs[i], step=i, observed=values[i],
                               bound=values[i - 1])
    if values and values[-1] >= final_bound(inputs[-1]):
        report.add_failure(input=inputs[-1], step=len(values) - 1,
                           observed=values[-1], bound=final_bound(inputs[-1]))


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
    if samples < 1:
        raise ValueError("need at least one sample")
    radii = list(radii)
    report = Report("continuity", samples)
    rng = random.Random(seed)
    start = _state_of(base)
    ref = _limit(iter(seq), *start, 1e-13).angles

    dirs = []
    for _ in range(samples):
        while True:
            d = [rng.gauss(0.0, 1.0) for _ in range(3)]
            norm = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
            if norm > 1e-12:
                break
        dirs.append([x / norm for x in d])

    sups = []
    for r in radii:
        sup = 0.0
        for d in dirs:
            A, B, C = (b + r * x for b, x in zip(base.angles, d))
            if min(A, B, C) <= 0 or A + B + C >= math.pi - 1e-9:
                continue
            out = _limit(iter(seq), *hyptrig._from_angles(A, B, C, math.pi - A - B - C), 1e-13)
            sup = max(sup, metric_distance(out.angles, ref))
        sups.append(sup)
    report.stats.update(radii=radii, sup_deviation=sups)
    # decay to zero, operationalized as a bounded modulus at the finest
    # radius: a jump discontinuity would stay O(1) instead
    _must_shrink(report, radii, sups, lambda r: 1000 * r)

    envelopes = []
    for depth in depths:
        truncated = (chain(islice(seq, depth), repeat(tail)) for tail in LETTERS)
        envelopes.append(max(metric_distance(_limit(t, *start, 1e-13).angles, ref)
                             for t in truncated))
    irrational = symbolic.classify(seq) == "irrational"
    report.stats.update(truncation_depths=list(depths), truncation_envelopes=envelopes,
                        truncation_asserted=irrational)
    if irrational:
        # sharing N letters pins the areas down like 4^-N; 2^-N is a safe
        # envelope while a divergent tail family would stay O(1)
        _must_shrink(report, depths, envelopes, lambda d: 10 * 2.0 ** (-d))
    return report.finish()


def _invert_limit(seq, target: AngleShape, slice_defect: float, maxfev: int):
    """Newton search on the fixed-defect slice for a start whose limit is
    target, from its angles scaled onto the slice.  A step that does not
    lower the residual is halved, down to 1/64.  Stops when no step helps,
    the Jacobian is singular, a probe leaves the slice or maxfev limit
    evaluations are requested; returns the residual and that count.  Each
    point is walked once, from its bare state: one requested again, as a
    halved step that rounds to the current point is, counts but is not walked."""
    evals, h, walked = 0, 1e-7, {}

    def limit(A, B):  # None off the slice
        nonlocal evals
        C = math.pi - slice_defect - A - B
        if min(A, B, C) > 1e-9:
            evals += 1
            if (A, B) not in walked:
                state = hyptrig._from_angles(A, B, C, math.pi - A - B - C)
                walked[A, B] = _limit(iter(seq), *state, 1e-13).angles
            return walked[A, B]

    scale = (math.pi - slice_defect) / math.pi
    A, B = target.A * scale, target.B * scale
    out = limit(A, B)
    res = metric_distance(out, target)
    while evals + 3 <= maxfev:
        pa, pb = limit(A + h, B), limit(A, B + h)
        if pa is None or pb is None:
            break
        j11, j12, j21, j22 = ((pa.A - out.A) / h, (pb.A - out.A) / h,
                              (pa.B - out.B) / h, (pb.B - out.B) / h)
        det = j11 * j22 - j12 * j21
        if not det:
            break
        fa, fb = out.A - target.A, out.B - target.B
        da, db = (j22 * fa - j12 * fb) / det, (j11 * fb - j21 * fa) / det
        for k in range(min(7, maxfev - evals)):
            trial = limit(A - da / 2 ** k, B - db / 2 ** k)
            if trial is not None and (r := metric_distance(trial, target)) < res:
                A, B, out, res = A - da / 2 ** k, B - db / 2 ** k, trial, r
                break
        else:
            break
    return res, evals


def run_surjectivity(seq, grid_n: int, residual_tol: float = 1e-6,
                     slice_defect: float = 0.2, maxfev: int = 800) -> Report:
    """Numerical inversion of the limit map over a grid of Euclidean targets.

    Searches a fixed-defect slice of hyperbolic shapes (two angle
    coordinates, third from the defect) by Newton steps with step halving
    and at most maxfev limit evaluations; each interior target must be hit
    within residual_tol.
    """
    seq = symbolic._as_seq(seq)
    if grid_n < 2:
        raise ValueError("grid must be at least 2x2")
    targets = []
    for i in range(1, grid_n + 1):
        for j in range(1, grid_n + 1):
            alpha = math.pi * i / (grid_n + 1)
            beta = (math.pi - alpha) * j / (grid_n + 1)
            targets.append((alpha, beta, math.pi - alpha - beta))

    report = Report("surjectivity", len(targets))
    residuals = []
    for target in targets:
        r, evals = _invert_limit(seq, AngleShape(*target), slice_defect, maxfev)
        residuals.append(r)
        if not r < residual_tol:
            report.add_failure(input=list(target), step=evals,
                               observed=r, bound=residual_tol)
    return report.finish(max_residual=max(residuals), residuals=residuals)


DEFAULT_SPECS = {
    "lemma21": SampleSpec(seed=1, samples=200, max_steps=40),
    "area": SampleSpec(seed=2, samples=200, max_steps=30),
    "ratiolimit": SampleSpec(seed=3, samples=100),
    "cauchy": SampleSpec(seed=4, samples=200, max_steps=40),
    "angleratio": SampleSpec(seed=5, samples=200, max_steps=40),
    "eq1probe": SampleSpec(seed=6, samples=400),
}


def run_suite(name: str, seed: int | None = None,
              samples: int | None = None) -> Report:
    """Run one named suite with its default plan, optionally reseeded."""
    overrides = {k: v for k, v in (("seed", seed), ("samples", samples)) if v is not None}
    if name in DEFAULT_SPECS:
        spec = DEFAULT_SPECS[name]._replace(**overrides)
        return {"lemma21": run_lemma21, "area": run_area_bounds,
                "ratiolimit": run_ratio_limit, "cauchy": run_cauchy_bound,
                "angleratio": run_angle_ratio, "eq1probe": run_eq1_probe}[name](spec)
    if name == "noncontraction":
        return run_noncontraction()
    if name == "continuity":
        return run_continuity("|M", shape_from_edges(1.0, 1.0, 1.0),
                              [10.0 ** (-k) for k in range(1, 7)], **overrides)
    if name == "surjectivity":
        return run_surjectivity("|M", 5)
    raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
