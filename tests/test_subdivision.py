"""Tests for the subdivision maps, orbits and the limit map."""

import itertools
import math
import random
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies

from trisub import hyptrig, plane_model
from trisub.render import cell_children
from trisub.shape import (AngleShape, EdgeLengths, metric_distance,
                          project_euclidean, shape_from_angles, shape_from_edges)
from trisub.subdivision import (ConvergenceError, LETTERS, ORBIT_CSV_COLUMNS,
                                LimitResult, MIN_TOL, apply, apply_oracle, child_edges,
                                limit_shape, limit_shape_info, orbit)
from trisub.symbolic import SymbolSequence, _check_letter

from test_hyptrig import decimal_state, decimal_state_angles, decimal_steps, decimal_walk
from test_symbolic import enumerate_sequences


def sample_edges(rng, lo=0.01, hi=5.0):
    while True:
        a, b, c = (rng.uniform(lo, hi) for _ in range(3))
        if a < b + c and b < c + a and c < a + b:
            return EdgeLengths(a, b, c)


def sin_angles(e):
    return hyptrig._sin_angles(*hyptrig._start(*e.as_tuple()))


def rel_err(x, y):
    return max(abs(u - v) / abs(v) for u, v in zip(x, y))


class TestApply:
    def test_euclidean_fixed_by_all_letters(self):
        eu = shape_from_angles(math.pi / 3, math.pi / 3, math.pi / 3)
        for letter in LETTERS:
            assert apply(letter, eu) is eu

    def test_slot_convention_edges(self):
        e = EdgeLengths(0.8, 1.1, 1.4)
        md = hyptrig.medial_data(*e.as_tuple())
        assert child_edges("M", e).as_tuple() == (md.m_a, md.m_b, md.m_c)
        # a halved edge goes through sinh^2(edge/4) and back, so it may be
        # a few ulp off (0.55 comes back as 0.5500000000000002)
        halves = [x / 2 for x in e.as_tuple()]
        for slot, letter in enumerate("ABC"):
            child = list(child_edges(letter, e).as_tuple())
            assert child.pop(slot) == md.midlines[slot]
            assert child == pytest.approx(halves[:slot] + halves[slot + 1:],
                                          rel=1e-15, abs=0)

    def test_corner_letter_preserves_its_slot_angle(self):
        rec = shape_from_edges(0.9, 1.2, 1.6)
        child = apply("A", rec)
        assert abs(child.angles.A - rec.angles.A) < 1e-12

    def test_447_medial_apex_grows_base_shrinks(self):
        rec = shape_from_edges(4, 4, 7)
        child = apply("M", rec)
        assert child.angles.C > rec.angles.C
        assert child.angles.A < rec.angles.A
        assert child.angles.B < rec.angles.B

    def test_area_shrinks_angle_sum_grows(self):
        rng = random.Random(41)
        for _ in range(200):
            rec = shape_from_edges(*sample_edges(rng).as_tuple())
            for letter in LETTERS:
                child = apply(letter, rec)
                assert child.area < rec.area
                assert child.angles.angle_sum() > rec.angles.angle_sum()

    def test_unknown_letter(self):
        with pytest.raises(ValueError):
            apply("X", shape_from_edges(1, 1, 1))

    def test_subnormal_state_is_too_short(self):
        # the 510th M from 1,1,1 reaches a subnormal state: apply returned
        # records read from such states up to the 518th, which failed with
        # "angle sum 3.1415926535960663 exceeds pi"
        rec = shape_from_edges(1, 1, 1)
        for _ in range(509):
            rec = apply("M", rec)
        with pytest.raises(hyptrig.DomainError, match="too short: the largest is subnormal"):
            apply("M", rec)

    def test_underflowing_root_is_scaled(self):
        # on a long sliver the plain root is subnormal from the 410th M, while
        # p, q and r are ~1e-245: apply refused it as too short.  Scaled by 2^k
        # it keeps its bits, and the angles match a walk at 80 digits
        edges = (31.77404943599029, 164.78423885792785, 143.28611927012923)
        rec = shape_from_edges(*edges)
        for _ in range(436):
            rec = apply("M", rec)
        want = decimal_state_angles(*decimal_walk(edges, "M" * 436))
        assert rel_err(rec.angles.as_tuple(), want) < 1e-13


class TestApplyOracle:
    def test_equilateral_medial_matches_closed_form(self):
        md = hyptrig.medial_data(1, 1, 1)
        child = apply_oracle("M", EdgeLengths(1, 1, 1))
        assert max(abs(x - md.m_a) for x in child.as_tuple()) < 1e-10

    def test_447_all_letters_match_apply(self):
        e = EdgeLengths(4, 4, 7)
        for letter in LETTERS:
            closed = child_edges(letter, e)
            measured = apply_oracle(letter, e)
            for x, y in zip(closed.as_tuple(), measured.as_tuple()):
                assert abs(x - y) < 1e-9

    def test_tiny_corner_cell_is_euclidean_half(self):
        e = EdgeLengths(1e-5, 1.1e-5, 0.9e-5)
        child = apply_oracle("A", e)
        assert abs(child.a - e.a / 2) / e.a < 1e-6

    def test_sliver_corner_angle_matches_high_precision(self):
        # angle at slot A of the C cell of a sliver, from a 50-digit mpmath
        # evaluation of the law of cosines on the cell's float edges
        expect = 0.0051135422244012187
        e = EdgeLengths(0.0656142423003001, 4.326566773899118, 4.375307821632646)
        closed = apply("C", shape_from_edges(*e.as_tuple())).angles.A
        tri = plane_model.place(e)
        v_a, v_b, v_c = cell_children((tri.p_a, tri.p_b, tri.p_c))["C"]
        assert abs(closed - expect) < 1e-15
        assert abs(plane_model.angle_at(v_a, v_b, v_c) - expect) < 1e-14

    def test_sampled_agreement(self):
        rng = random.Random(43)
        for _ in range(250):
            e = sample_edges(rng)
            for letter in LETTERS:
                closed = child_edges(letter, e)
                measured = apply_oracle(letter, e)
                for x, y in zip(closed.as_tuple(), measured.as_tuple()):
                    assert abs(x - y) < 1e-9


class TestOrbit:
    def test_empty_word(self):
        rec = shape_from_edges(1, 1, 1)
        trace = orbit("", rec)
        assert len(trace.steps) == 1
        assert trace.steps[0].letter is None
        assert trace.steps[0].area == rec.area

    def test_medial_power_area_bounds(self):
        # (1, 1, 1) already has sinh(edge/2) < 1, so no burn-in is needed
        rec = shape_from_edges(1, 1, 1)
        trace = orbit("M" * 10, rec)
        s0 = math.sin(trace.steps[0].area / 2)
        for st in trace.steps[1:]:
            ratio = math.sin(st.area / 2) / s0
            assert math.exp(-0.5) * 4.0 ** (-st.n) < ratio < 4.0 ** (-st.n)

    def test_medial_ratio_limit_settles(self):
        # r_n = 4^n sin(S_n/2)/sin(S_0/2) converges along M^inf; reading
        # it needs record areas with full relative accuracy as they shrink
        trace = orbit("M" * 40, shape_from_edges(1, 1, 1))
        s0 = math.sin(trace.steps[0].area / 2)
        r = [4.0 ** st.n * math.sin(st.area / 2) / s0 for st in trace.steps]
        assert abs(r[40] - r[20]) < 1e-10

    def test_record_areas_come_from_edges(self):
        # child records take their area from the walk's state; the defect
        # pi - (A+B+C) would be 3e-4 off by step 20
        for st in orbit("M" * 20, shape_from_edges(2, 2, 3)).steps:
            expect = hyptrig.area_from_edges(*st.edges.as_tuple())
            assert st.area == pytest.approx(expect, rel=1e-14, abs=0)

    def test_word_cycle_halving(self):
        rec = shape_from_edges(2, 2, 3)
        trace = orbit("ABCM" * 5, rec)
        for prev, cur in zip(trace.steps, trace.steps[1:]):
            for s_old, s_new in zip(prev.sinh_half_edges, cur.sinh_half_edges):
                assert s_new < 0.5 * s_old * (1 + 1e-12)

    def test_area_monotone_angle_sum_monotone(self):
        # angle-sum increments shrink like 4^-n and stop being resolvable
        # near machine precision; check strictness while they still are
        rng = random.Random(47)
        rec = shape_from_edges(*sample_edges(rng).as_tuple())
        word = "".join(rng.choice(LETTERS) for _ in range(30))
        trace = orbit(word, rec)
        for prev, cur in zip(trace.steps, trace.steps[1:]):
            assert cur.area <= prev.area
            if prev.area > 1e-13:
                assert cur.area < prev.area
                assert cur.angles.angle_sum() > prev.angles.angle_sum()

    def test_csv_layout(self):
        rec = shape_from_edges(1, 1, 1)
        text = orbit("MA", rec).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(ORBIT_CSV_COLUMNS)
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "-"
        assert lines[2].split(",")[1] == "M"

    def test_euclidean_orbit_has_empty_edge_fields(self):
        eu = shape_from_angles(math.pi / 3, math.pi / 3, math.pi / 3)
        trace = orbit("AB", eu)
        assert all(st.edges is None for st in trace.steps)
        row = trace.to_csv().strip().split("\n")[1].split(",")
        assert row[5] == row[6] == row[7] == ""  # a, b, c columns


class TestPlainLoop:
    """orbit and limit_shape_info match a plain step-kernel loop on the state
    (p, q, r, root, k) bit for bit, and a plain child_edges loop to 1e-13."""

    @pytest.mark.parametrize("seed", range(6))
    def test_orbit(self, seed):
        rng = random.Random(seed)
        e = sample_edges(rng)
        word = "".join(rng.sample(LETTERS * 8, 32))
        trace = orbit(word, shape_from_edges(*e.as_tuple()))
        assert [st.letter for st in trace.steps] == [None, *word]
        state = hyptrig._start(*e.as_tuple())
        for st in trace.steps:
            if st.letter is not None:
                e = child_edges(st.letter, e)
                state = hyptrig.STEPS[st.letter](*state)
                assert st.edges.as_tuple() == tuple(2 * math.asinh(math.sqrt(x))
                                                    for x in state[:3])
                assert st.angles.as_tuple() == hyptrig._angles(*state)
                assert st.area == hyptrig._area(*state)
            assert st.sinh_half_edges == tuple(math.sqrt(x) for x in state[:3])
            assert rel_err(st.edges.as_tuple(), e.as_tuple()) < 1e-13

    @pytest.mark.parametrize("seed", range(6))
    def test_limit(self, seed):
        rng = random.Random(seed)
        e = sample_edges(rng)
        letters = rng.sample(LETTERS * 50, 200)
        res = limit_shape_info(iter(letters), shape_from_edges(*e.as_tuple()))
        state = hyptrig._start(*e.as_tuple())
        for n, letter in enumerate(letters, start=1):
            e = child_edges(letter, e)
            state = hyptrig.STEPS[letter](*state)
            if state[0] + state[1] + state[2] < 1e-13:
                break
        assert (res.iterations, res.residual) == (n, state[0] + state[1] + state[2])
        A, B, C = hyptrig._angles(*state)
        assert res.angles.as_tuple() == tuple(x * (math.pi / (A + B + C)) for x in (A, B, C))
        by_edges = project_euclidean(AngleShape(*hyptrig.angles_from_edges(*e.as_tuple())))
        assert rel_err(res.angles.as_tuple(), by_edges.as_tuple()) < 1e-13


def reference_limit(seq, s0, tol=1e-13, max_iter=10_000):
    """limit_shape_info as a generator walk over the states feeding a
    separate stopping loop: the same steps, in a form easy to check."""
    def walk(letters, state):
        for letter in letters:
            state = (hyptrig.STEPS.get(letter) or _check_letter(letter))(*state)
            yield state

    start = s0._state or hyptrig._start(*s0.edges.as_tuple())
    for n, (p, q, r, root, k) in enumerate(walk(seq, start), start=1):
        if n > max_iter:
            raise ConvergenceError(f"no convergence within {max_iter} steps")
        residual = p + q + r
        if residual < tol:
            A, B, C = hyptrig._angles(p, q, r, root, k)
            k = math.pi / (A + B + C)
            return LimitResult(AngleShape(A * k, B * k, C * k), n, residual)
    raise ValueError("letter sequence ended before convergence")


def outcome(limit, *args, **kwargs):
    """The result of a limit call, or the type and text of what it raised."""
    try:
        return limit(*args, **kwargs)
    except (ValueError, ConvergenceError) as exc:
        return type(exc), str(exc)


class TestStepErrors:
    """A walk names the step it was refused at; its start names none."""

    def test_big_root_too_long_to_step(self):
        # from angles 1e-154 the edges are ~709.98 and every kernel's factor
        # overflows: the first step refused it, and now the start does
        with pytest.raises(hyptrig.DomainError, match=r"^angles \(1e-154, 1e-154, 1e-154\) "
                           r"are too small: a state with cosh\(edge/2\) = .* too long to step$"):
            shape_from_angles(1e-154, 1e-154, 1e-154)

    def test_limit_names_its_step(self):
        # along |A the angle 1e-100 stays, so the root falls ~1e-100 below the
        # residual: at the least tol its scaled root is 0 when the walk stops
        s = shape_from_angles(1e-100, 1e-100, 1e-100)
        with pytest.raises(hyptrig.DomainError, match=r"^step 518 \(A\): edges with .* too "
                           r"short: the root of their Heron form underflows"):
            limit_shape_info(itertools.repeat("A"), s, tol=MIN_TOL)
        A = limit_shape_info(itertools.repeat("A"), s).angles.A
        assert A == pytest.approx(1e-100, rel=1e-15, abs=0)

    def test_bad_letter_is_not_a_step_error(self):
        # _check_letter's ValueError is not a DomainError: it passes unchanged
        with pytest.raises(ValueError, match="^unknown letter"):
            limit_shape_info(iter("MX"), shape_from_edges(1.0, 1.0, 1.0))


class TestLimitLoop:
    """limit_shape_info steps and stops in one loop; it must match the
    reference walk bit for bit, errors included."""

    @pytest.fixture(scope="class")
    def starts(self):
        rng = random.Random(67)
        by_edges = [shape_from_edges(*sample_edges(rng).as_tuple()) for _ in range(3)]
        by_angles = []
        while len(by_angles) < 3:
            w = [rng.random() for _ in range(3)]
            total = math.pi - rng.uniform(0.05, 3.0)
            angles = [total * x / sum(w) for x in w]
            if min(angles) > 0.01:
                by_angles.append(shape_from_angles(*angles))
        return by_edges + by_angles

    def test_sequences_and_iterators(self, starts):
        seqs = enumerate_sequences(max_prefix=2, max_cycle=2)
        for seq, s0 in itertools.product(seqs, starts):
            ref = reference_limit(iter(seq), s0)
            for letters in (seq, iter(seq)):
                res = limit_shape_info(letters, s0)
                assert (res.angles.as_tuple(), res.iterations, res.residual) == \
                    (ref.angles.as_tuple(), ref.iterations, ref.residual), seq

    @pytest.mark.parametrize("letters, kwargs", [
        ("M" * 50, {"max_iter": 3}),
        ("M" * 50, {"max_iter": 1}),
        ("M", {}),
        ("", {}),
        ("AMX", {}),
        ("MMM", {"max_iter": 3}),
        ("MMMX", {"max_iter": 3}),
    ])
    def test_errors(self, starts, letters, kwargs):
        for s0 in starts:
            got = outcome(limit_shape_info, iter(letters), s0, **kwargs)
            assert got == outcome(reference_limit, iter(letters), s0, **kwargs)
            assert not isinstance(got, LimitResult), got  # every case raises

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_bad_iteration_cap(self, max_iter):
        # checked before the Euclidean shortcut, as tol is
        eu = shape_from_angles(math.pi / 3, math.pi / 3, math.pi / 3)
        for s0 in (shape_from_edges(1, 1, 1), eu):
            with pytest.raises(ValueError, match="max_iter"):
                limit_shape_info(iter("M"), s0, max_iter=max_iter)


@settings(max_examples=300, deadline=None)
@given(strategies.tuples(*[strategies.floats(1e-100, 1e100)] * 4),
       strategies.sampled_from(LETTERS))
def test_relabelling_permutes_child_slots(state, letter):
    # relabel (a, b, c) -> (c, a, b) and the letters A -> B -> C -> A: the
    # child's slots permute the same way, bit for bit, and it has the same
    # root, bit for bit from a corner and to the rounding of a product of
    # three cosh values from the medial cell
    p, q, r, root = state
    relabel = {"A": "B", "B": "C", "C": "A", "M": "M"}
    x, y, z, w, _ = hyptrig.STEPS[letter](p, q, r, root, 0)
    *slots, v, _ = hyptrig.STEPS[relabel[letter]](r, p, q, root, 0)
    assert slots == [z, x, y]
    assert v == w if letter != "M" else v == pytest.approx(w, rel=1e-15, abs=0)


class TestLimitShape:
    def test_euclidean_start_is_instant(self):
        eu = shape_from_angles(math.pi / 3, math.pi / 3, math.pi / 3)
        res = limit_shape_info(iter("M" * 5), eu)
        assert res.iterations == 0
        assert res.angles == eu.angles

    def test_equilateral_limit_is_euclidean_equilateral(self):
        for t in (0.3, 1.0, 2.5):
            lim = limit_shape(iter("M" * 200), shape_from_edges(t, t, t))
            assert max(abs(x - math.pi / 3) for x in lim.as_tuple()) < 1e-12

    def test_447_regression_value(self):
        # frozen from a tol=1e-13 run; isosceles start keeps A = B
        lim = limit_shape(iter("M" * 200), shape_from_edges(4, 4, 7))
        assert abs(lim.A - 0.022804857078761738) < 1e-12
        assert abs(lim.B - 0.022804857078761738) < 1e-12
        assert abs(lim.C - 3.0959829394322695) < 1e-12
        assert lim.A == lim.B

    def test_tolerance_independence(self):
        rec = shape_from_edges(0.8, 1.3, 1.7)
        coarse = limit_shape(iter("M" * 300), rec, tol=1e-10)
        fine = limit_shape(iter("M" * 300), rec, tol=1e-13)
        assert metric_distance(coarse, fine) < 10 * 1e-10

    def test_nondegenerate_output(self):
        rng = random.Random(53)
        for _ in range(50):
            rec = shape_from_edges(*sample_edges(rng).as_tuple())
            word = [rng.choice(LETTERS) for _ in range(250)]
            lim = limit_shape(iter(word), rec)
            assert min(lim.as_tuple()) > 0
            assert abs(lim.angle_sum() - math.pi) <= 1e-12

    def test_letter_permutation_equivariance(self):
        # relabel slots by the cycle A->B->C->A on both the start shape
        # and the word: the limit permutes the same way
        rng = random.Random(59)
        relabel = {"A": "B", "B": "C", "C": "A", "M": "M"}
        for _ in range(20):
            e = sample_edges(rng)
            word = [rng.choice(LETTERS) for _ in range(12)]

            def tail(w):
                yield from w
                while True:
                    yield "M"

            out = limit_shape(tail(word), shape_from_edges(*e.as_tuple()))
            e_p = EdgeLengths(e.c, e.a, e.b)
            word_p = [relabel[x] for x in word]
            out_p = limit_shape(tail(word_p), shape_from_edges(*e_p.as_tuple()))
            expect = (out.C, out.A, out.B)
            assert max(abs(x - y) for x, y in zip(expect, out_p.as_tuple())) < 1e-12

    def test_long_edges_and_slivers_do_not_raise(self):
        rng = random.Random(1)
        for _ in range(2000):
            rec = shape_from_edges(*sample_edges(rng, 0.01, 15.0).as_tuple())
            lim = limit_shape(itertools.repeat("M"), rec)
            assert min(lim.as_tuple()) > 0

    def test_angle_built_long_edges(self):
        # tiny angles give edges of ~278 to ~692, past the Heron form's
        # range; the walk needs none of it, and a corner keeps its angle
        for t in (1e-60, 1e-150):
            rec = shape_from_angles(t, t, t)
            lim = limit_shape(itertools.repeat("M"), rec)
            assert max(abs(x - math.pi / 3) for x in lim.as_tuple()) < 1e-14
            assert apply("A", rec).angles.A == pytest.approx(t, rel=1e-13)

    def test_long_sliver_converges_in_few_steps(self):
        rec = shape_from_edges(13.140595535938424, 14.72431452329242,
                               5.922214276086785)
        res = limit_shape_info(itertools.cycle("CB"), rec)
        assert res.iterations <= 40
        assert 0 < res.residual < 1e-13

    def test_iteration_cap_raises(self):
        rec = shape_from_edges(1, 1, 1)
        with pytest.raises(ConvergenceError):
            limit_shape_info(iter("M" * 50), rec, tol=1e-13, max_iter=3)

    def test_finite_sequence_exhaustion_raises(self):
        rec = shape_from_edges(1, 1, 1)
        with pytest.raises(ValueError, match="ended"):
            limit_shape_info(iter("M"), rec, tol=1e-13)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            limit_shape_info(iter("M"), shape_from_edges(1, 1, 1), tol=0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_tolerance_must_be_finite(self, tol):
        # an infinite tol stopped after one step, as if any residual were a limit
        with pytest.raises(ValueError, match="positive and finite"):
            limit_shape_info(iter("M"), shape_from_edges(4, 4, 7), tol=tol)

    def test_tolerance_floor(self):
        # below MIN_TOL the stopping state could be subnormal: 5e-324 raised
        # ZeroDivisionError, and 1e-310 blamed the edges for being too short
        rec = shape_from_edges(2, 2, 3)
        with pytest.raises(ValueError, match="positive and finite"):
            limit_shape_info(itertools.repeat("M"), rec, tol=math.nextafter(MIN_TOL, 0))
        res = limit_shape_info(itertools.repeat("M"), rec, tol=MIN_TOL)
        assert 0 < res.residual < MIN_TOL
        assert sum(res.angles) == pytest.approx(math.pi)


def test_child_edges_chain_takes_its_edges_unchecked():
    # child_edges along seeded 12-letter words from edges in [0.01, 40]:
    # re-checking each child's edges refused 20 of these chains with the
    # triangle inequality, and the Heron form of each child refused 22 more
    # as flat, after orbit had refused 386 of the words.  A cell's edges need
    # no root, and every orbit and chain now passes
    rng = random.Random(5)
    for _ in range(3000):
        e = sample_edges(rng, 0.01, 40.0)
        word = "".join(rng.choice(LETTERS) for _ in range(12))
        orbit(word, shape_from_edges(*e))
        for letter in word:
            e = child_edges(letter, e)


BAND_SEQS = ("|M", "|A", "|AB", "AB|CM", "|MC", "M|ABC")
BAND_WORD = "MABCMMACBMAMBCM"
SLIVER_RHOS = ((-15, -12), (-12, -8), (-8, -4))


def long_edge_starts(n, band=(15.0, 200.0), seed=11):
    """n seeded starts with edges uniform in band: by default [15, 200];
    valid edges reach the Heron form's overflow at ~237.9 (three equal)."""
    rng = random.Random(seed)
    return [sample_edges(rng, *band).as_tuple() for _ in range(n)]


def sliver_starts(n, rho_exponents, seed=3):
    """n seeded slivers: a, b uniform in [0.01, 30] and c = (a + b)(1 - rho U(0.5, 1)),
    with rho = 10^U(*rho_exponents); a c that rounds to a + b is drawn again."""
    rng, starts = random.Random(seed), []
    while len(starts) < n:
        a, b = rng.uniform(0.01, 30.0), rng.uniform(0.01, 30.0)
        c = (a + b) * (1 - 10 ** rng.uniform(*rho_exponents) * rng.uniform(0.5, 1.0))
        if c < a + b:
            starts.append((a, b, c))
    return starts


def tiny_tol_starts():
    """(edges, sequence) of the thin start (27.8, 3.83, 31.6) along |MC and of
    200 slivers c = (a + b)(1 - 1e-8 U(0.5, 1)), a and b uniform in
    [0.01, 30] from random.Random(5), along |M, |MC, |A and AB|CM in turn:
    limit at tol 1e-300 refused 166 of them, their root underflowing."""
    rng, starts = random.Random(5), [((27.80404362594891, 3.8280664983479387,
                                       31.57665512025423), "|MC")]
    while len(starts) < 201:
        a, b = rng.uniform(0.01, 30.0), rng.uniform(0.01, 30.0)
        c = (a + b) * (1 - 1e-8 * rng.uniform(0.5, 1.0))
        if c < a + b:
            starts.append(((a, b, c), ("|M", "|MC", "|A", "AB|CM")[(len(starts) - 1) % 4]))
    return starts


def test_tiny_tol_limits_keep_their_root():
    # each limit at tol 1e-300 lands within 1e-12 of its limit at the default
    for edges, seq in tiny_tol_starts():
        s0, seq = shape_from_edges(*edges), SymbolSequence.parse(seq)
        deep, plain = limit_shape_info(seq, s0, tol=1e-300), limit_shape_info(seq, s0)
        assert deep.residual < 1e-300 and rel_err(deep.angles, plain.angles) < 1e-12


def domain_sweep_starts(n, seed=17):
    """n seeded starts of each kind: edges in [0.01, 40] and in [15, 237],
    slivers with slack 10^U(-15, -1), equal-ish tiny edges from 3e-154, and
    angles log-uniform down to 1e-150; a start refused as too long or too
    small comes as its DomainError."""
    rng = random.Random(seed)

    def build(make, *args):
        try:
            return make(*args)
        except hyptrig.DomainError as exc:
            return exc

    for _ in range(n):
        yield build(shape_from_edges, *sample_edges(rng, 0.01, 40.0).as_tuple())
        yield build(shape_from_edges, *sample_edges(rng, 15.0, 237.0).as_tuple())
        a, b = rng.uniform(0.01, 30.0), rng.uniform(0.01, 30.0)
        c = (a + b) * (1 - 10 ** rng.uniform(-15, -1) * rng.uniform(0.5, 1.0))
        yield build(shape_from_edges, *rng.sample((a, b, c), 3))
        t = 3e-154 * 10 ** rng.uniform(0, 4)
        yield build(shape_from_edges, t, t * rng.uniform(0.6, 1.0), t * rng.uniform(0.6, 1.0))
        A, B = 10 ** rng.uniform(-150, 0), 10 ** rng.uniform(-150, 0)
        yield build(shape_from_angles, A, B, (math.pi - A - B) * rng.uniform(0, 0.99))


def test_domain_sweep_refuses_only_by_domain_error():
    # limit at the default tol and at MIN_TOL, and orbit along words of up to
    # 700 letters, raise nothing but a DomainError on any of these starts
    rng = random.Random(19)
    for i, s0 in enumerate(domain_sweep_starts(60)):
        if isinstance(s0, hyptrig.DomainError):
            continue
        calls = [lambda tol=tol: limit_shape_info(SymbolSequence.parse(BAND_SEQS[i % 6]), s0,
                                                  tol=tol) for tol in (1e-13, MIN_TOL)]
        word = "".join(rng.choices(LETTERS, k=rng.randint(1, 700)))
        for call in (*calls, lambda: orbit(word, s0)):
            try:
                call()
            except hyptrig.DomainError:
                pass


@pytest.mark.parametrize("starts", [
    long_edge_starts(300),
    long_edge_starts(100, (200.0, 237.0)),
    *(sliver_starts(100, rho) for rho in SLIVER_RHOS),
], ids=["long-15-200", "long-200-237", "sliver-1e-15", "sliver-1e-12", "sliver-1e-8"])
def test_long_edges_and_slivers_walk_without_refusal(starts):
    # derived angles were checked again: the largest rounds to the float pi on
    # these valid starts, and limit_shape_info or orbit refused 260 of the 300
    # long-edge starts and 41, 28 and 15 of each 100 slivers with "angle
    # C=3.141592653589793 must be in (0, pi)"
    for i, e in enumerate(starts):
        rec = shape_from_edges(*e)
        trace = orbit(BAND_WORD, rec)
        assert all(math.isfinite(st.ln_sin_a) for st in trace.steps)
        for letter in BAND_WORD:
            rec = apply(letter, rec)
        assert rec.angles == trace.steps[-1].angles
        res = limit_shape_info(SymbolSequence.parse(BAND_SEQS[i % 6]), shape_from_edges(*e))
        assert 0 < res.residual < 1e-13 and min(res.angles) > 0
        assert sum(res.angles) == pytest.approx(math.pi, rel=1e-15)
        cell = EdgeLengths(*e)
        for letter in BAND_WORD:
            cell = child_edges(letter, cell)


# the two starts whose limits are off their reference by ~10x the residual
FOUND_STARTS = (((13.98396012075822, 0.010559507950435731, 13.994519628698262), "|AB"),
                ((94.12527857098607, 87.60124743871104, 26.119667519879954), "AB|CM"))


def decimal_limit(edges, seq):
    """The Euclidean limit angles of float edges along seq at 80 digits:
    decimal_steps until p + q + r < 1e-30, past which by the Cauchy lemma ln
    sin of no angle drifts by more, then decimal_state_angles scaled by
    pi/(A+B+C)."""
    for p, q, r, root in decimal_steps(decimal_state(*edges), iter(seq)):
        if p + q + r < Decimal("1e-30"):
            A, B, C = decimal_state_angles(p, q, r, root)
            t = math.pi / (A + B + C)
            return A * t, B * t, C * t


def accuracy_starts():
    """(edges, sequence) of the accuracy gate by group: 24 starts per band from
    one random.Random(11); 8 slivers c = (a + b)(1 - rho U(0.5, 1)), a and b
    uniform in [0.01, hi], per (hi, rho) cell from random.Random(2); the
    sequences of BAND_SEQS in turn over both; and FOUND_STARTS."""
    rng, bands = random.Random(11), []
    for lo, hi in ((0.01, 5.0), (0.01, 15.0), (0.01, 40.0), (15.0, 200.0)):
        bands += [sample_edges(rng, lo, hi).as_tuple() for _ in range(24)]
    rng, slivers = random.Random(2), []
    for hi, rho in itertools.product((5.0, 15.0), (1e-4, 1e-8, 1e-12)):
        cell = []
        while len(cell) < 8:
            a, b = rng.uniform(0.01, hi), rng.uniform(0.01, hi)
            c = (a + b) * (1 - rho * rng.uniform(0.5, 1.0))
            if c < a + b:
                cell.append((a, b, c))
        slivers += cell
    seqs = itertools.cycle(BAND_SEQS)
    return {"bands": list(zip(bands, seqs)), "slivers": list(zip(slivers, seqs)),
            "found": list(FOUND_STARTS)}


@pytest.mark.parametrize("group, bound", [("bands", 5e-13), ("slivers", 5e-13),
                                          ("found", 2e-12)])
def test_limit_angles_match_the_decimal_reference(group, bound):
    # every limit angle within bound relative of decimal_limit: the worst read
    # 1.1e-13 in the bands (in [15, 200]), 2.7e-14 on the slivers, and 1.07e-12
    # and 1.13e-12 on the FOUND starts, whose float walks are ill-conditioned
    for edges, seq in accuracy_starts()[group]:
        got = limit_shape_info(SymbolSequence.parse(seq), shape_from_edges(*edges)).angles
        assert rel_err(got, decimal_limit(edges, SymbolSequence.parse(seq))) < bound, \
            (edges, seq)


def test_cauchy_drift_bound_sampled():
    rng = random.Random(61)
    for _ in range(50):
        e = sample_edges(rng, 0.01, 1.7)
        if max(math.sinh(x / 2) for x in e.as_tuple()) >= 1:
            continue
        budget = sum(math.sinh(x / 2) ** 2 for x in e.as_tuple())
        rho = [math.log(sin_angles(e)[0])]
        cur = e
        for _ in range(30):
            cur = child_edges(rng.choice(LETTERS), cur)
            rho.append(math.log(sin_angles(cur)[0]))
        for n in range(0, 31, 3):
            for k in range(0, 31 - n, 5):
                assert abs(rho[n + k] - rho[n]) <= 2.0 ** (-n) * budget * (1 + 1e-11)


def test_per_step_angle_ratio_sampled():
    rng = random.Random(67)
    for _ in range(50):
        e = sample_edges(rng, 0.01, 1.7)
        if max(math.sinh(x / 2) for x in e.as_tuple()) >= 1:
            continue
        for _ in range(20):
            letter = rng.choice(LETTERS)
            nxt = child_edges(letter, e)
            s_old, s_new = sin_angles(e), sin_angles(nxt)
            ed = e.as_tuple()
            for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                ratio = s_new[i] / s_old[i]
                assert ratio > (1 - 1e-11) / math.cosh(ed[i] / 2)
                assert ratio < math.cosh(ed[j] / 2) * math.cosh(ed[k] / 2) * (1 + 1e-11)
            e = nxt
