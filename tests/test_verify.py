"""Tests for the verification suites, including their self-test channels."""

import math
import random
from itertools import chain, islice, repeat

import pytest

from trisub import hyptrig, subdivision, verify
from trisub.hyptrig import DomainError, _sin_angles
from trisub.shape import AngleShape, ShapeRecord, shape_from_angles, shape_from_edges
from trisub.subdivision import child_edges
from trisub.symbolic import LETTERS, SymbolSequence
from trisub.verify import Report, SampleSpec


def small(name, samples=40, **kw):
    base = verify.DEFAULT_SPECS[name]
    return SampleSpec(seed=base.seed, samples=samples,
                      edge_range=kw.pop("edge_range", base.edge_range),
                      max_steps=kw.pop("max_steps", base.max_steps), **kw)


class TestSpecValidation:
    def test_rejects_bad_plans(self):
        with pytest.raises(ValueError):
            SampleSpec(seed=1, samples=0)
        with pytest.raises(ValueError):
            SampleSpec(seed=1, samples=10, edge_range=(0.0, 5.0))
        # a non-finite bound would leave _sample_edges drawing forever, and
        # negative max_steps would check nothing and pass
        for edge_range in ((math.nan, 1.0), (1.0, math.inf), (0.1, math.nan),
                           (math.inf, 5.0)):
            with pytest.raises(ValueError, match="finite"):
                SampleSpec(seed=1, samples=2, edge_range=edge_range)
        with pytest.raises(ValueError, match="max_steps"):
            SampleSpec(seed=1, samples=2, max_steps=-3)

    def test_surjectivity_needs_a_grid_of_two(self):
        with pytest.raises(ValueError, match="grid must be at least 2x2"):
            verify.run_surjectivity("|M", 1)

    @pytest.mark.parametrize("run", [verify.run_cauchy_bound, verify.run_angle_ratio])
    def test_small_start_needs_room_below_the_cap(self, run):
        # every draw from (2, 5) has sinh(edge/2) >= 1, so sampling small
        # starts from it could never end
        spec = SampleSpec(seed=1, samples=1, edge_range=(2.0, 5.0))
        with pytest.raises(ValueError, match="small-start cap"):
            run(spec)


class TestSuitesPass:
    def test_lemma21(self):
        r = verify.run_lemma21(small("lemma21"))
        assert r.passed
        assert r.stats["halving_violations"] == 0
        assert r.stats["lower_violations"] == 0
        assert r.stats["worst_halving_margin"] >= 0 or \
            abs(r.stats["worst_halving_margin"]) < 1e-11

    def test_area(self):
        r = verify.run_area_bounds(small("area"))
        assert r.passed and r.stats["violations"] == 0

    def test_ratio_limit(self):
        r = verify.run_ratio_limit(small("ratiolimit", samples=25))
        assert r.passed
        assert math.exp(-0.5) < r.stats["r80_min"] <= r.stats["r80_max"] < math.exp(0.5)
        assert r.stats["worst_settle"] < 1e-10

    def test_cauchy(self):
        r = verify.run_cauchy_bound(small("cauchy"))
        assert r.passed
        assert r.stats["min_limit_angle"] > 0

    def test_angle_ratio(self):
        r = verify.run_angle_ratio(small("angleratio"))
        assert r.passed

    def test_noncontraction(self):
        r = verify.run_noncontraction()
        assert r.passed
        assert r.stats["apex_increases"] > 1e-12
        assert r.stats["base_A_decreases"] > 1e-12
        assert r.stats["distance_increases"] > 1e-12
        # recorded, not asserted by the suite: the symmetric orbit heads
        # toward the fixed point
        assert r.stats["equilateral_distance_after"] < \
            r.stats["equilateral_distance_before"]
        assert len(r.stats["corner_A_angles"]) == 3

    def test_eq1_probe_is_diagnostic(self):
        r = verify.run_eq1_probe(small("eq1probe", samples=200))
        assert r.passed  # asserts nothing by design
        assert r.stats["delta_max"] > r.stats["delta_min"] > 0
        # drift grows with area; the fitted slope over the whole moduli
        # space carries shape scatter, so only its sign is stable
        assert r.stats["log_slope_vs_area"] > 0

    def test_eq1_probe_tiny_triangles(self):
        spec = SampleSpec(seed=6, samples=60, edge_range=(1e-4, 1e-3))
        r = verify.run_eq1_probe(spec)
        assert r.stats["delta_max"] < 1e-6

    def test_eq1_probe_scaling_family(self):
        # along a pure scaling family the drift shrinks with the area
        deltas = []
        for scale in (1.0, 0.1, 0.01):
            spec = SampleSpec(seed=6, samples=30,
                              edge_range=(0.9 * scale, 1.1 * scale))
            deltas.append(verify.run_eq1_probe(spec).stats["delta_median"])
        assert deltas[0] > 50 * deltas[1] > 50 * 50 * deltas[2] > 0

    def test_continuity(self):
        r = verify.run_continuity("|M", shape_from_edges(1, 1, 1),
                                  [1e-1, 1e-2, 1e-3, 1e-4], samples=12)
        assert r.passed
        sups = r.stats["sup_deviation"]
        assert all(b <= a + 1e-12 for a, b in zip(sups, sups[1:]))
        assert r.stats["truncation_asserted"] is True

    def test_continuity_rational_records_only(self):
        r = verify.run_continuity("|A", shape_from_edges(1, 1, 1),
                                  [1e-2, 1e-3], samples=8)
        assert r.stats["truncation_asserted"] is False
        assert len(r.stats["truncation_envelopes"]) > 0

    def test_continuity_rejects_euclidean_base(self):
        eu = shape_from_angles(math.pi / 3, math.pi / 3, math.pi / 3)
        with pytest.raises(ValueError):
            verify.run_continuity("|M", eu, [1e-2])

    def test_surjectivity_small_grid(self):
        r = verify.run_surjectivity("|M", 3)
        assert r.passed
        assert r.stats["max_residual"] < 1e-6

    def test_surjectivity_immediate_hit(self):
        # a target that is itself a limit value gets found
        from trisub.subdivision import limit_shape
        from trisub.symbolic import SymbolSequence
        seq = SymbolSequence.parse("|M")
        target = limit_shape(iter(seq), shape_from_edges(1.0, 1.2, 1.4))
        residual, evals = verify._invert_limit(seq, target, 0.2, 800)
        assert residual < 1e-12
        assert 1 <= evals <= 800


class TestFailureBranches:
    """Each failure branch of the suites, driven by a plan that fails on purpose."""

    def test_burn_in_cap(self, monkeypatch):
        # a stub kernel that never shrinks the state: the burn-in gives up
        for letter in LETTERS:
            monkeypatch.setitem(hyptrig.STEPS, letter, lambda *h: h)
        with pytest.raises(RuntimeError, match="burn-in did not terminate"):
            verify._burn_in(shape_from_edges(3, 3, 3).edges, repeat("M"), 0)

    def test_noncontraction_failure(self, monkeypatch):
        # a medial map that moves nothing: no margin is above 1e-12
        monkeypatch.setattr(verify, "apply", lambda letter, s: s)
        r = verify.run_noncontraction()
        assert not r.passed and r.stats["violations"] == 4
        assert all(f["input"] == [4.0, 4.0, 7.0] and f["observed"] == 0.0
                   and f["bound"] == 1e-12 for f in r.failures)

    def test_cauchy_limit_not_above_zero(self, monkeypatch):
        flat = subdivision.LimitResult(AngleShape._unchecked((0.0, 0.0, math.pi)), 1, 0.0)
        monkeypatch.setattr(verify, "_limit", lambda *args: flat)
        r = verify.run_cauchy_bound(small("cauchy", samples=3))
        assert not r.passed and r.stats["min_limit_angle"] == 0.0
        assert [f["step"] for f in r.failures] == [-1] * 3

    def test_continuity_growth_and_skips(self, monkeypatch):
        # a deviation that grows with every limit taken breaks the shrinking
        # modulus at each radius and depth; at radius 3 every perturbed start
        # leaves the domain, and is skipped
        growing = iter(range(1, 10 ** 6))
        monkeypatch.setattr(verify, "metric_distance", lambda a, b: next(growing) * 1e-3)
        r = verify.run_continuity("|M", shape_from_edges(1, 1, 1), [1e-2, 1e-3, 3.0],
                                  samples=4, depths=(2, 4))
        assert r.stats["sup_deviation"][2] == 0.0
        steps = [(f["step"], f["bound"]) for f in r.failures]
        assert steps[0] == (1, r.stats["sup_deviation"][0])
        assert (1, r.stats["truncation_envelopes"][0]) in steps

    def test_invert_limit_leaves_the_slice(self):
        # the target's third angle sits 5e-8 inside the slice, closer than the
        # Newton probe's 1e-7: the search stops at its first evaluation
        scale = (math.pi - 0.2) / math.pi
        C = 5e-8 / scale
        target = AngleShape((math.pi - C) / 2, (math.pi - C) / 2, C)
        assert verify._invert_limit(SymbolSequence.parse("|M"), target, 0.2, 800)[1] == 1

    def test_invert_limit_singular_jacobian(self, monkeypatch):
        # a limit map that ignores its start has a zero Jacobian
        fixed = AngleShape(1.0, 1.0, math.pi - 2.0)
        limit = subdivision.LimitResult(fixed, 1, 0.0)
        monkeypatch.setattr(verify, "_limit", lambda *args: limit)
        target = AngleShape(1.2, 1.0, math.pi - 2.2)
        residual, evals = verify._invert_limit("|M", target, 0.2, 800)
        assert evals == 3 and residual == verify.metric_distance(fixed, target)


class TestSelfTestChannels:
    """Tightened constants must produce failures: the harness can see."""

    def test_halving_tightened(self):
        r = verify.run_lemma21(small("lemma21"), halving_factor=0.49)
        assert not r.passed
        assert r.failures and "observed" in r.failures[0]

    def test_lower_constant_raised(self):
        r = verify.run_lemma21(small("lemma21"), lower_const=1.0)
        assert not r.passed

    def test_area_upper_tightened(self):
        # ratios approach 4^-n only for tiny near-Euclidean starts
        spec = SampleSpec(seed=2, samples=40, edge_range=(0.01, 0.1), max_steps=5)
        r = verify.run_area_bounds(spec, upper_scale=0.99)
        assert not r.passed

    def test_ratio_interval_shrunk(self):
        r = verify.run_ratio_limit(small("ratiolimit", samples=40),
                                   interval=(0.95, 1.05))
        assert not r.passed

    def test_cauchy_bound_scaled(self):
        # the attainable drift tops out near 0.31 of the budget, so a
        # quarter-scale bound is the inversion that must fail
        r = verify.run_cauchy_bound(small("cauchy"), bound_scale=0.25)
        assert not r.passed

    def test_angle_ratio_inverted(self):
        r = verify.run_angle_ratio(small("angleratio"), upper_scale=0.5)
        assert not r.passed
        r = verify.run_angle_ratio(small("angleratio"), lower_scale=1.5)
        assert not r.passed

    def test_area_lower_raised(self):
        # the worst lower margin on this plan is ~0.30 relative, so raising
        # the envelope by half must fail and by a tenth must not
        spec = SampleSpec(seed=2, samples=40, max_steps=30)
        r = verify.run_area_bounds(spec, lower_scale=1.5)
        assert not r.passed and r.stats["violations"] > 100
        assert verify.run_area_bounds(spec, lower_scale=1.1).passed

    def test_surjectivity_tightened(self):
        # the Newton search stalls at rounding level: 2.2e-16 to 4.5e-16 on
        # three of these targets and 5.6e-17 on the fourth, so only a zero
        # tolerance fails on every target, each after at most maxfev evaluations
        r = verify.run_surjectivity("|M", 2, residual_tol=0.0)
        assert not r.passed and len(r.failures) == 4
        assert all(1 <= f["step"] <= 800 for f in r.failures)
        r = verify.run_surjectivity("|M", 2, maxfev=1)
        assert not r.passed
        assert [f["step"] for f in r.failures] == [1, 1, 1, 1]

    def test_ratio_settle_tightened(self):
        # the settle reads exactly 0 on this plan: by step 40 the states are
        # below p ~ 1e-16, where each M step quarters them to the bit, so
        # r_40 = r_80 and only a zero tolerance is a failing channel
        spec = SampleSpec(seed=3, samples=25, max_steps=80)
        r = verify.run_ratio_limit(spec, settle_tol=0.0)
        assert not r.passed and r.stats["worst_settle"] == 0.0
        assert len(r.failures) == 25
        assert all(f["bound"] == 0.0 for f in r.failures)


class TestBoundCheck:
    """The RESOLUTION guard of Report.check, and continuity's shrink rule."""

    def test_guard_and_payload(self):
        start = shape_from_edges(1, 1, 1).edges
        r = Report("t", 1)
        eps = verify.RESOLUTION
        assert not r.check(start, 1, 1 + eps / 2, 1.0)
        assert not r.check(start, 1, 1 - eps / 2, 1.0, upper=False)
        assert r.passed and r.failures == []
        assert r.check(start, 2, 1 + 2 * eps, 1.0)
        assert r.check(start, [3, 4], 1 - 2 * eps, 1.0, upper=False)
        assert not r.passed and r.stats["violations"] == 2
        assert r.failures == [
            {"input": [1, 1, 1], "step": 2, "observed": 1 + 2 * eps, "bound": 1.0},
            {"input": [1, 1, 1], "step": [3, 4], "observed": 1 - 2 * eps, "bound": 1.0},
        ]

    def test_continuity_catches_a_jump(self, monkeypatch):
        # a limit map that stays 0.5 away from the reference however close
        # the start: neither the radius nor the truncation modulus decays
        monkeypatch.setattr(verify, "metric_distance", lambda a, b: 0.5)
        radii = [1e-1, 1e-2, 1e-3, 1e-4]
        r = verify.run_continuity("|M", shape_from_edges(1, 1, 1), radii,
                                  samples=4, depths=(2, 8))
        assert not r.passed
        assert [f["input"] for f in r.failures] == [1e-4, 8]
        assert r.failures[0]["bound"] == 1000 * 1e-4
        assert r.failures[1]["bound"] == 10 * 2.0 ** -8


def all_pairs_cauchy(spec, bound_scale=1.0):
    """The cauchy drift check as a plain loop over every (n, n + k) pair,
    with the suite's draws; returns its report and the worst excess."""
    worst = -math.inf

    def orbit(report, rng, start):
        nonlocal worst
        halves = [math.sinh(x / 2) for x in start.as_tuple()]
        # the suite's fixed-order sum: sum() of floats is compensated from Python 3.12
        budget = (halves[0] * halves[0] + halves[1] * halves[1] + halves[2] * halves[2]) \
            * bound_scale
        word = [rng.choice(LETTERS) for _ in range(spec.max_steps)]
        hs, _ = verify._burn_in(start, iter(word), spec.max_steps)
        rho = [[math.log(s) for s in _sin_angles(*h)] for h in hs]
        for n, here in enumerate(rho):
            bound = 2.0 ** (-n) * budget
            for k, there in enumerate(rho[n:]):
                for x, y in zip(there, here):
                    worst = max(worst, abs(x - y) - bound)
                    report.check(start, [n, k], abs(x - y), bound)

    report, _ = verify._run_seeded("cauchy", spec, orbit, small=True)
    return report.finish(), worst


class TestCauchyAllPairs:
    """The suite's suffix-extrema check against the all-pairs reference."""

    @pytest.mark.parametrize("spec, bound_scale", [
        (small("cauchy"), 1.0),
        (small("cauchy"), 0.25),
        (verify.DEFAULT_SPECS["cauchy"]._replace(seed=25), 1.0),
    ], ids=["passing", "quarter-bound", "seed-25"])
    def test_same_report(self, spec, bound_scale):
        got = verify.run_cauchy_bound(spec, bound_scale=bound_scale)
        ref, worst = all_pairs_cauchy(spec, bound_scale)
        assert got.stats["min_limit_angle"] > 0  # no limit failure to merge
        assert got.passed == ref.passed
        assert got.failures == ref.failures
        assert got.stats["violations"] == ref.stats["violations"]
        assert got.stats["worst_excess"] == worst
        if got.passed:
            assert worst < 0
        elif bound_scale < 1:
            assert got.stats["violations"] > verify.MAX_STORED_FAILURES


def plain_lemma21(spec, halving_factor=0.5, lower_const=verify.LOWER_CONST):
    """run_lemma21 as a plain loop of Report.check over every step and slot."""
    worst_halving = worst_lower = math.inf

    def orbit(report, rng, start):
        nonlocal worst_halving, worst_lower
        hs, burn = verify._burn_in(start, map(rng.choice, repeat(LETTERS)), spec.max_steps)
        halves = [(math.sqrt(p), math.sqrt(q), math.sqrt(r)) for p, q, r, _, _ in hs]
        for i, (old, new) in enumerate(zip(halves, halves[1:]), start=1):
            for slot in range(3):
                worst_halving = min(worst_halving, halving_factor - new[slot] / old[slot])
                if report.check(start, i, new[slot], halving_factor * old[slot]):
                    report.stats["halving_violations"] += 1
            n = i - burn
            if n > 0:
                for slot in range(3):
                    bound = lower_const * 2.0 ** (-n) * halves[burn][slot]
                    worst_lower = min(worst_lower, new[slot] / bound)
                    if report.check(start, n, new[slot], bound, upper=False):
                        report.stats["lower_violations"] += 1

    report, _ = verify._run_seeded("lemma21", spec, orbit,
                                   stats={"halving_violations": 0, "lower_violations": 0})
    return report.finish(worst_halving_margin=worst_halving, worst_lower_ratio=worst_lower)


def plain_area(spec, upper_scale=1.0, lower_scale=1.0):
    """run_area_bounds as a plain loop of Report.check over every step."""
    worst_hi = worst_lo = math.inf
    lo_scale = lower_scale * math.exp(-0.5)

    def orbit(report, rng, start):
        nonlocal worst_hi, worst_lo
        hs, burn = verify._burn_in(start, repeat("M"), spec.max_steps)
        s0 = verify._sin_half_area(hs[burn])
        for n, h in enumerate(hs[burn + 1:], start=1):
            ratio = verify._sin_half_area(h) / s0
            quarter = 4.0 ** (-n)
            hi, lo = upper_scale * quarter, lo_scale * quarter
            worst_hi = min(worst_hi, (hi - ratio) / hi)
            worst_lo = min(worst_lo, (ratio - lo) / lo)
            report.check(start, n, ratio, hi)
            report.check(start, n, ratio, lo, upper=False)

    report, _ = verify._run_seeded("area", spec, orbit)
    return report.finish(worst_upper_margin=worst_hi, worst_lower_margin=worst_lo)


def plain_angle_ratio(spec, lower_scale=1.0, upper_scale=1.0):
    """run_angle_ratio as a plain loop of Report.check over every step and slot."""
    worst_lo = worst_hi = math.inf

    def orbit(report, rng, start):
        nonlocal worst_lo, worst_hi
        hs, _ = verify._burn_in(start, map(rng.choice, repeat(LETTERS)), spec.max_steps)
        sines = [_sin_angles(*h) for h in hs]
        for n in range(1, spec.max_steps + 1):
            p, q, r, _, _ = hs[n - 1]
            cosh_halves = math.sqrt(1 + p), math.sqrt(1 + q), math.sqrt(1 + r)
            for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                ratio = sines[n][i] / sines[n - 1][i]
                lo = lower_scale / cosh_halves[i]
                hi = upper_scale * cosh_halves[j] * cosh_halves[k]
                worst_lo = min(worst_lo, ratio - lo)
                worst_hi = min(worst_hi, hi - ratio)
                report.check(start, n, ratio, lo, upper=False)
                report.check(start, n, ratio, hi)

    report, _ = verify._run_seeded("angleratio", spec, orbit, small=True)
    return report.finish(worst_lower_margin=worst_lo, worst_upper_margin=worst_hi)


class TestSeriesPass:
    """The whole-series bound checks against plain per-item loops: the same
    failures in the same order, the same counts and the same stats."""

    SUITES = {"lemma21": (verify.run_lemma21, plain_lemma21,
                          {"halving_factor": 0.49, "lower_const": 1.0}),
              "area": (verify.run_area_bounds, plain_area,
                       {"upper_scale": 0.9, "lower_scale": 1.5}),
              "angleratio": (verify.run_angle_ratio, plain_angle_ratio,
                             {"lower_scale": 1.2, "upper_scale": 0.9})}

    @pytest.mark.parametrize("plan", ["passing", "tightened", "seed-24"])
    @pytest.mark.parametrize("name", list(SUITES))
    def test_same_report(self, name, plan):
        run, plain, tightened = self.SUITES[name]
        spec = small(name)
        kwargs = tightened if plan == "tightened" else {}
        if plan == "seed-24":
            spec = verify.DEFAULT_SPECS[name]._replace(seed=24)
        got, ref = run(spec, **kwargs), plain(spec, **kwargs)
        assert got.to_json_dict() == ref.to_json_dict()
        assert list(got.stats) == list(ref.stats)
        if plan == "passing":
            assert ref.passed
        elif plan == "tightened":
            assert ref.stats["violations"] > verify.MAX_STORED_FAILURES
        elif name == "angleratio":
            # its sliver broke the bound at rounding level, through the Heron
            # form of each state; the carried root mended that
            assert ref.passed


class TestShortPlans:
    """Each suite builds its plan's bound factors once, from max_steps; on
    the shortest orbits and on one sample its report is the plain one."""

    SUITES = {**TestSeriesPass.SUITES,
              "cauchy": (verify.run_cauchy_bound, None, {"bound_scale": 0.25})}

    @pytest.mark.parametrize("tightened", [False, True], ids=["plain", "tightened"])
    @pytest.mark.parametrize("samples", [1, 40])
    @pytest.mark.parametrize("max_steps", [0, 1, 2])
    @pytest.mark.parametrize("name", list(SUITES))
    def test_same_report(self, name, max_steps, samples, tightened):
        run, plain, constants = self.SUITES[name]
        spec = small(name, samples=samples, max_steps=max_steps)
        kwargs = constants if tightened else {}
        got = run(spec, **kwargs)
        if plain is None:
            ref, worst = all_pairs_cauchy(spec, **kwargs)
            assert got.stats["min_limit_angle"] > 0  # no limit failure to merge
            assert got.stats["worst_excess"] == worst
            assert got.passed == ref.passed and got.failures == ref.failures
            assert got.stats["violations"] == ref.stats["violations"]
        else:
            ref = plain(spec, **kwargs)
            assert got.to_json_dict() == ref.to_json_dict()
            assert list(got.stats) == list(ref.stats)
        # the tightened constants break every series that has a step; with
        # max_steps 0 only lemma21's burn-in has one, and cauchy's quarter
        # bound first breaks at max_steps 2, by 4 pairs of the 40 orbits
        flagged = tightened and (name == "lemma21" or max_steps > 0) and \
            (name != "cauchy" or (max_steps, samples) == (2, 40))
        assert got.passed != flagged


class TestFold:
    """_run_seeded returns one row per sample, in draw order, and a suite's
    worst stats are a plain running fold over those rows, from the initial
    values its running extrema had, bit for bit."""

    # stat: (column of the row, two-argument fold, initial value)
    SUITES = {
        "lemma21": (verify.run_lemma21, {"halving_factor": 0.49, "lower_const": 1.0},
                    {"worst_halving_margin": (0, min, math.inf),
                     "worst_lower_ratio": (1, min, math.inf)}),
        "area": (verify.run_area_bounds, {"upper_scale": 0.9, "lower_scale": 1.5},
                 {"worst_upper_margin": (0, min, math.inf),
                  "worst_lower_margin": (1, min, math.inf)}),
        "ratiolimit": (verify.run_ratio_limit, {"interval": (1.0, 1.1)},
                       {"r80_min": (0, min, math.inf), "r80_max": (0, max, -math.inf),
                        "worst_settle": (1, max, 0.0)}),
        "cauchy": (verify.run_cauchy_bound, {"bound_scale": 0.1},
                   {"worst_excess": (0, max, -math.inf),
                    "min_limit_angle": (1, min, math.inf)}),
        "angleratio": (verify.run_angle_ratio, {"lower_scale": 1.2, "upper_scale": 0.9},
                       {"worst_lower_margin": (0, min, math.inf),
                        "worst_upper_margin": (1, min, math.inf)}),
    }

    @pytest.mark.parametrize("name", list(SUITES))
    def test_worst_stats_fold_the_rows(self, monkeypatch, name):
        run, constants, folds = self.SUITES[name]
        returned, results = [], []
        run_seeded = verify._run_seeded

        def spy(suite, spec, orbit, **kw):
            def recorded(report, rng, start):
                results.append(orbit(report, rng, start))
                return results[-1]

            returned.append(run_seeded(suite, spec, recorded, **kw))
            return returned[-1]

        monkeypatch.setattr(verify, "_run_seeded", spy)
        spec = small(name, samples=8, max_steps=6)
        report = run(spec, **constants)
        assert not report.passed  # the tightened constants flag some rows
        [(_, rows)] = returned
        assert len(rows) == spec.samples and rows == results
        for stat, (column, fold, worst) in folds.items():
            for row in rows:
                worst = fold(worst, row[column])
            assert report.stats[stat].hex() == worst.hex()


@pytest.mark.parametrize("max_steps", [40, 5])
def test_cauchy_limits_match_fresh_walks(monkeypatch, max_steps):
    # the suite takes each limit along word + M^inf from the last state of its
    # walk before the stop (every sample stops by step 40, so the limit takes
    # one step; with 5 steps the M tail decides and it resumes from step 5);
    # either way it is the limit of a fresh walk along word + M^inf, bit for bit
    limits = []

    def spy(letters, p, q, r, root, k, tol, max_iter=10_000):
        limits.append(subdivision._limit(letters, p, q, r, root, k, tol, max_iter))
        return limits[-1]

    monkeypatch.setattr(verify, "_limit", spy)
    spec = small("cauchy", max_steps=max_steps)
    verify.run_cauchy_bound(spec)
    assert len(limits) == spec.samples
    rng = random.Random(spec.seed)
    for lim in limits:
        start = verify._sample_edges(rng, spec, True)
        word = [rng.choice(LETTERS) for _ in range(max_steps)]
        fresh = subdivision.limit_shape_info(chain(word, repeat("M")),
                                             shape_from_edges(*start.as_tuple()))
        assert lim.angles == fresh.angles
        assert lim.iterations == (1 if max_steps == 40 else fresh.iterations - max_steps)


class TestReseededRobustness:
    """The bounds hold under sampling plans other than the default seeds."""

    @pytest.mark.parametrize("seed", [11, 17])
    def test_orbit_suites_reseeded(self, seed):
        for runner, name in ((verify.run_lemma21, "lemma21"),
                             (verify.run_area_bounds, "area"),
                             (verify.run_cauchy_bound, "cauchy"),
                             (verify.run_angle_ratio, "angleratio")):
            base = verify.DEFAULT_SPECS[name]
            spec = SampleSpec(seed=seed, samples=60,
                              edge_range=base.edge_range,
                              max_steps=base.max_steps)
            assert runner(spec).passed, (name, seed)


class TestReports:
    def test_json_schema(self):
        r = verify.run_noncontraction()
        d = r.to_json_dict()
        assert set(d) == {"suite", "pass", "samples", "failures", "stats"}

    def test_failure_payload_fields(self):
        r = verify.run_lemma21(small("lemma21", samples=10), halving_factor=0.4)
        assert not r.passed
        for f in r.failures:
            assert set(f) == {"input", "step", "observed", "bound"}

    def test_failure_storage_bounded(self):
        r = verify.run_lemma21(small("lemma21"), halving_factor=0.3)
        assert len(r.failures) <= verify.MAX_STORED_FAILURES
        assert r.stats["violations"] >= len(r.failures)

    def test_determinism(self):
        a = verify.run_suite("lemma21", seed=5, samples=20)
        b = verify.run_suite("lemma21", seed=5, samples=20)
        assert a.to_json_dict() == b.to_json_dict()
        c = verify.run_suite("lemma21", seed=6, samples=20)
        assert c.stats != a.stats

    def test_run_suite_unknown(self):
        with pytest.raises(ValueError):
            verify.run_suite("nope")


class TestStatsKeyOrder:
    """The CLI prints stats in insertion order, so the order is output."""

    ORDERS = {
        "lemma21": ["halving_violations", "lower_violations",
                    "worst_halving_margin", "worst_lower_ratio", "violations"],
        "area": ["worst_upper_margin", "worst_lower_margin", "violations"],
        "ratiolimit": ["r80_min", "r80_max", "worst_settle", "violations"],
        "cauchy": ["worst_excess", "min_limit_angle", "violations"],
        "angleratio": ["worst_lower_margin", "worst_upper_margin", "violations"],
        "eq1probe": ["delta_min", "delta_median", "delta_max",
                     "log_slope_vs_area", "violations"],
        "noncontraction": ["apex_increases", "base_A_decreases",
                           "base_B_decreases", "distance_increases",
                           "distance_before", "distance_after",
                           "equilateral_distance_before",
                           "equilateral_distance_after", "corner_A_angles",
                           "corner_A_distance", "violations"],
        "continuity": ["radii", "sup_deviation", "truncation_depths",
                       "truncation_envelopes", "truncation_asserted",
                       "violations"],
        "surjectivity": ["max_residual", "residuals", "violations"],
    }

    @staticmethod
    def run_small(name):
        if name == "noncontraction":
            return verify.run_noncontraction()
        if name == "continuity":
            return verify.run_continuity("|M", shape_from_edges(1, 1, 1),
                                         [1e-1, 1e-2], samples=4, depths=(2, 4))
        if name == "surjectivity":
            return verify.run_surjectivity("|M", 2)
        return verify.run_suite(name, samples=5)

    @pytest.mark.parametrize("name", verify.SUITE_NAMES)
    def test_key_order(self, name):
        r = self.run_small(name)
        assert r.passed
        assert list(r.stats) == self.ORDERS[name]


def fail_third_step(monkeypatch, message):
    """Make the third step through any kernel of hyptrig.STEPS raise a
    DomainError with message; returns the list of stepped states."""
    calls = []

    def failing(real):
        def step(*e):
            calls.append(e)
            if len(calls) == 3:
                raise DomainError(message)
            return real(*e)
        return step

    for letter, real in list(hyptrig.STEPS.items()):
        monkeypatch.setitem(hyptrig.STEPS, letter, failing(real))
    return calls


class TestErrorContext:
    """A DomainError inside an orbit names the suite and the start."""

    @pytest.mark.parametrize("name", ["lemma21", "area", "ratiolimit", "cauchy",
                                      "angleratio", "eq1probe"])
    def test_orbit_error_names_suite_and_start(self, monkeypatch, name):
        fail_third_step(monkeypatch, "angle sum 3.25 exceeds pi")
        with pytest.raises(DomainError) as info:
            verify.run_suite(name, samples=5)
        message = str(info.value)
        assert message.startswith(f"{name} orbit from [")
        assert message.endswith(": angle sum 3.25 exceeds pi")
        assert isinstance(info.value.__cause__, DomainError)

    def test_start_is_the_failing_sample(self, monkeypatch):
        # eq1probe takes one medial step per sample, so the third call is
        # the third sample's
        calls = fail_third_step(monkeypatch, "edge a=0.0 must be positive")
        spec = SampleSpec(seed=6, samples=10)
        with pytest.raises(DomainError, match="edge a=0.0") as info:
            verify.run_eq1_probe(spec)
        rng = random.Random(spec.seed)
        starts = [verify._sample_edges(rng, spec, False) for _ in range(3)]
        # the walk steps states (p, q, r, root, k), not edges
        assert calls == [hyptrig._start(*e.as_tuple()) for e in starts]
        assert str(list(starts[2].as_tuple())) in str(info.value)

    @pytest.mark.parametrize("name, run", [("lemma21", verify.run_lemma21),
                                           ("area", verify.run_area_bounds)])
    def test_overflow_is_too_long_not_flat(self, name, run):
        # the start's Heron form overflows to nan, which is no positive root
        # either: the overflow is named first
        spec = SampleSpec(seed=1, samples=3, edge_range=(300, 400))
        with pytest.raises(DomainError) as info:
            run(spec)
        message = str(info.value)
        assert message.startswith(f"{name} orbit from [")
        assert "too long" in message and "flat" not in message

    @pytest.mark.parametrize("edge_range", [(80, 90), (19, 40)])
    @pytest.mark.parametrize("name, run", [("lemma21", verify.run_lemma21),
                                           ("area", verify.run_area_bounds),
                                           ("ratiolimit", verify.run_ratio_limit)])
    def test_long_edge_plans(self, name, run, edge_range):
        # these orbits reach slivers with relative slack ~1e-16, whose Heron
        # form rounds to 0 or below: the suites raised on them as flat, until
        # the walks carried the root
        assert run(SampleSpec(seed=1, samples=20, edge_range=edge_range)).passed

    @pytest.mark.parametrize("run", [verify.run_area_bounds, verify.run_lemma21,
                                     verify.run_ratio_limit, verify.run_cauchy_bound,
                                     verify.run_angle_ratio])
    def test_tiny_edge_plans(self, run):
        # the states of edges near 1e-100 are below 2^-400, where the Heron
        # form underflowed to "is flat" unless rescaled, and where _sin_angles
        # rescales the products q r, which underflowed to a ZeroDivisionError
        report = run(SampleSpec(seed=1, samples=20, edge_range=(1e-100, 2e-100)))
        assert report.passed


@pytest.mark.parametrize("name", verify.SUITE_NAMES)
def test_one_start_per_walk(monkeypatch, name):
    # each walk takes its state from edges once, at its start, and carries its
    # root from there: a start per sample, one per shape_from_edges in
    # noncontraction (two) and continuity (one), and none from angles; the
    # suites took the Heron form of every state (~40,800 in a benchmark round)
    starts = []

    def start(*edges, real=hyptrig._start):
        starts.append(edges)
        return real(*edges)

    monkeypatch.setattr(hyptrig, "_start", start)
    assert verify.run_suite(name, samples=5).passed
    assert len(starts) == {"noncontraction": 2, "continuity": 1, "surjectivity": 0}.get(name, 5)


@pytest.mark.parametrize("seed", [0, 1, 7, 24, 2 ** 70 + 5])
def test_letters_are_choice_draws(seed):
    # every seeded report rests on these letters: a Python whose choice
    # draws otherwise must fail here rather than shift the reports
    rng, ref = random.Random(seed), random.Random(seed)
    assert list(islice(verify._letters(rng), 20_000)) == \
        [ref.choice(LETTERS) for _ in range(20_000)]
    assert rng.getstate() == ref.getstate()


class TestBurnIn:
    """_burn_in matches a plain step-kernel loop on the state (p, q, r, root, k)
    bit for bit, and a plain child_edges loop to 1e-13."""

    @pytest.mark.parametrize("small", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_draws_burn_plus_steps_letters(self, seed, small):
        # the letters are drawn as the walk takes them, none ahead of it
        rng = random.Random(seed)
        spec = SampleSpec(seed=seed, samples=1, edge_range=(0.5, 8.0))
        start = verify._sample_edges(rng, spec, small)
        ref = random.Random()
        ref.setstate(rng.getstate())
        hs, burn = verify._burn_in(start, verify._letters(rng), 12)
        assert len(hs) == burn + 13 and (burn == 0) == small
        for _ in range(burn + 12):
            ref.choice(LETTERS)
        assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("small", [False, True])
    def test_no_steps_keeps_burn_plus_one_states(self, small):
        # the suites build their bound factors from max_steps alone on this
        rng = random.Random(5)
        spec = SampleSpec(seed=5, samples=1, edge_range=(0.5, 8.0))
        for _ in range(20):
            hs, burn = verify._burn_in(verify._sample_edges(rng, spec, small),
                                       verify._letters(rng), 0)
            assert len(hs) == burn + 1 and (burn == 0) == small

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_plain_loop(self, seed):
        rng = random.Random(seed)
        spec = SampleSpec(seed=seed, samples=1, edge_range=(2.0, 8.0))
        start = verify._sample_edges(rng, spec, False)
        word = "".join(rng.sample(LETTERS * 12, 48))
        letters = iter(word)
        hs, burn = verify._burn_in(start, letters, 12)
        k = hs[-1][4]  # the walk's k, carried to its last state

        h = hyptrig._start(*start.as_tuple())
        plain, plain_letters, plain_k = [h], iter(word), h[4]
        edges = [start]
        while max(plain[-1][:3]) >= 1.0:
            letter = next(plain_letters)
            plain.append(hyptrig.STEPS[letter](*plain[-1]))
            edges.append(child_edges(letter, edges[-1]))
        plain_burn = len(plain) - 1
        for _ in range(12):
            letter = next(plain_letters)
            plain.append(hyptrig.STEPS[letter](*plain[-1]))
            edges.append(child_edges(letter, edges[-1]))

        assert burn == plain_burn > 0
        assert list(hs) == plain and k == plain_k
        for h, e in zip(hs, edges):
            halves = [math.sinh(x / 2) for x in e.as_tuple()]
            assert max(abs(math.sqrt(x) - y) / y for x, y in zip(h[:3], halves)) < 1e-13
        # no letter is drawn beyond the last state
        assert list(letters) == list(plain_letters)


def plain_invert_limit(seq, target, slice_defect, maxfev):
    """verify._invert_limit as it was before its cache: every evaluation builds
    a record through shape_from_angles and walks it by limit_shape."""
    evals, h = 0, 1e-7

    def limit(A, B):  # None off the slice
        nonlocal evals
        C = math.pi - slice_defect - A - B
        if min(A, B, C) > 1e-9:
            evals += 1
            return subdivision.limit_shape(iter(seq), shape_from_angles(A, B, C))

    scale = (math.pi - slice_defect) / math.pi
    A, B = target.A * scale, target.B * scale
    out = limit(A, B)
    res = verify.metric_distance(out, target)
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
            if trial is not None and (r := verify.metric_distance(trial, target)) < res:
                A, B, out, res = A - da / 2 ** k, B - db / 2 ** k, trial, r
                break
        else:
            break
    return res, evals


def surjectivity_targets(grid_n):
    # the Euclidean targets of run_surjectivity, in its order
    return [AngleShape(alpha, beta, math.pi - alpha - beta)
            for alpha in (math.pi * i / (grid_n + 1) for i in range(1, grid_n + 1))
            for beta in ((math.pi - alpha) * j / (grid_n + 1) for j in range(1, grid_n + 1))]


class TestInvertLimit:
    """The Newton search walks each point once, from a bare state, and finds
    what the plain search of records finds."""

    @pytest.mark.parametrize("maxfev", [1, 2, 3, 4, 10, 800])
    def test_matches_plain_search(self, maxfev):
        # the same residual, bit for bit, after the same count of evaluations
        # requested, so the maxfev budget and a failure's step stay as they were
        seq = SymbolSequence.parse("|M")
        for target in surjectivity_targets(5):
            got = verify._invert_limit(seq, target, 0.2, maxfev)
            want = plain_invert_limit(seq, target, 0.2, maxfev)
            assert (got[0].hex(), got[1]) == (want[0].hex(), want[1])

    def test_walks_each_point_once(self, monkeypatch):
        # 601 evaluations are requested over the 25 default targets; 148 of
        # them are points the same search walked before, most the current
        # point once a halved step rounds to it
        walks = []

        def spy(*args, real=subdivision._limit):
            walks.append(args)
            return real(*args)

        monkeypatch.setattr(verify, "_limit", spy)
        report = verify.run_surjectivity("|M", 5)
        assert report.passed and len(walks) == 453
        seq = SymbolSequence.parse("|M")
        assert sum(plain_invert_limit(seq, t, 0.2, 800)[1]
                   for t in surjectivity_targets(5)) == 601

    def test_no_record_built(self, monkeypatch):
        # surjectivity and continuity walk bare states: no ShapeRecord per limit
        base = shape_from_edges(1.0, 1.0, 1.0)
        built = []
        real = ShapeRecord.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            real(self, *args, **kwargs)

        monkeypatch.setattr(ShapeRecord, "__init__", spy)
        assert verify.run_surjectivity("|M", 5).passed
        assert verify.run_continuity("|M", base, [10.0 ** (-k) for k in range(1, 7)]).passed
        assert built == []
