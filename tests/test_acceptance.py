"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run with -s to see them all) and
asserts at the stated tolerance.  Sampling plans are the fixed seeded
defaults, so the whole gate is deterministic.
"""

import itertools
import math
import random
from decimal import Decimal, getcontext, localcontext

from trisub import hyptrig, plane_model, verify
from trisub.cli import main
from trisub.render import cell_children
from trisub.shape import EdgeLengths, shape_from_edges
from trisub.subdivision import LETTERS, apply, apply_oracle
from trisub.symbolic import (SymbolSequence, address_approx, address_exact,
                             match_prop31, REFERENCE_DIAMETER)

from test_hyptrig import decimal_state, decimal_walk


def report(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def sample_edges(rng, lo=0.01, hi=5.0):
    while True:
        a, b, c = (rng.uniform(lo, hi) for _ in range(3))
        if a < b + c and b < c + a and c < a + b:
            return EdgeLengths(a, b, c)


def test_criterion_1_edge_halving():
    r = verify.run_lemma21(verify.DEFAULT_SPECS["lemma21"])
    n = r.stats["halving_violations"]
    report(1, n == 0,
           f"sinh(x/2) halves every step, 200 orbits x 40 letters "
           f"({n} violations)")


def test_criterion_2_edge_lower_bound():
    r = verify.run_lemma21(verify.DEFAULT_SPECS["lemma21"])
    n = r.stats["lower_violations"]
    report(2, n == 0,
           f"post burn-in sinh(x_n/2) > e^-1.5 2^-n sinh(x_0/2) up to n=40 "
           f"({n} violations)")


def test_criterion_3_area_bounds():
    r = verify.run_area_bounds(verify.DEFAULT_SPECS["area"])
    n = r.stats["violations"]
    report(3, r.passed and n == 0,
           f"e^-0.5 4^-n <= sin(S_n/2)/sin(S_0/2) <= 4^-n up to n=30 "
           f"({n} violations)")


def test_criterion_4_ratio_limit():
    r = verify.run_ratio_limit(verify.DEFAULT_SPECS["ratiolimit"])
    report(4, r.passed,
           f"r_n settles (|r80-r40| max {r.stats['worst_settle']:.2e}) inside "
           f"({r.stats['r80_min']:.3f}, {r.stats['r80_max']:.3f}) within "
           f"(e^-1/2, e^1/2)")


def test_criterion_5_noncontraction_witness():
    r = verify.run_noncontraction()
    margins = (r.stats["apex_increases"], r.stats["base_A_decreases"],
               r.stats["base_B_decreases"], r.stats["distance_increases"])
    ok = r.passed and all(m > 1e-12 for m in margins)
    report(5, ok,
           f"(4,4,7) medial step: apex +{margins[0]:.3f}, bases -{margins[1]:.4f}, "
           f"distance to fixed point +{margins[3]:.3f}")


def decimal_atan(x):
    # arctan of a Decimal at the context's precision: the argument is halved by
    # atan x = 2 atan(x / (1 + sqrt(1 + x^2))) until below 0.1, then summed
    halvings = 0
    while abs(x) > Decimal("0.1"):
        x, halvings = x / (1 + (1 + x * x).sqrt()), halvings + 1
    total = power = x
    n, small = 1, Decimal(10) ** -(getcontext().prec + 2)
    while abs(power) > small:
        power *= -x * x
        total += power / (2 * n + 1)
        n += 1
    return total * 2 ** halvings


def angles_at_precision(p, q, r, root):
    # the angles atan2(root, cosine term) of a Decimal state, all in (0, pi)
    pi = 4 * decimal_atan(Decimal(1))
    terms = q + r - p + 2 * q * r, r + p - q + 2 * r * p, p + q - r + 2 * p * q
    return [pi / 2 if not t else decimal_atan(root / t) + (pi if t < 0 else 0)
            for t in terms], pi


def test_criterion_5_certified_in_decimal():
    # the paper's headline claim, certified: the four margins of the (4, 4, 7)
    # witness at 60 digits, from its state and its medial child's
    with localcontext() as ctx:
        ctx.prec = 60
        (A0, B0, C0), pi = angles_at_precision(*decimal_state(4.0, 4.0, 7.0))
        (A1, B1, C1), _ = angles_at_precision(*decimal_walk((4.0, 4.0, 7.0), "M"))
        third = pi / 3
        d0, d1 = (((A - third) ** 2 + (B - third) ** 2 + (C - third) ** 2).sqrt()
                  for A, B, C in ((A0, B0, C0), (A1, B1, C1)))
        margins = C1 - C0, A0 - A1, B0 - B1, d1 - d0
    assert all(m > 0 for m in margins), margins
    # and the float suite's margins are these, to rounding
    stats = verify.run_noncontraction().stats
    floats = (stats["apex_increases"], stats["base_A_decreases"],
              stats["base_B_decreases"], stats["distance_increases"])
    assert all(abs(x - float(m)) < 1e-12 for x, m in zip(floats, margins))


def test_criterion_6_oracle_equivalence():
    rng = random.Random(101)
    worst_edge = 0.0
    worst_angle = 0.0
    for _ in range(1000):
        e = sample_edges(rng)
        rec = shape_from_edges(*e.as_tuple())
        tri = plane_model.place(e)
        kids = cell_children((tri.p_a, tri.p_b, tri.p_c))
        for letter in LETTERS:
            closed = apply(letter, rec)
            measured = apply_oracle(letter, e)
            for x, y in zip(closed.edges.as_tuple(), measured.as_tuple()):
                worst_edge = max(worst_edge, abs(x - y))
            v_a, v_b, v_c = kids[letter]
            got = (plane_model.angle_at(v_a, v_b, v_c),
                   plane_model.angle_at(v_b, v_c, v_a),
                   plane_model.angle_at(v_c, v_a, v_b))
            for x, y in zip(closed.angles.as_tuple(), got):
                worst_angle = max(worst_angle, abs(x - y))
    ok = worst_edge < 1e-9 and worst_angle < 1e-10
    report(6, ok,
           f"closed-form vs hyperboloid oracle, 1000 samples x 4 letters "
           f"(worst edge {worst_edge:.2e}, worst angle {worst_angle:.2e})")


def test_criterion_7_area_cross_agreement():
    rng = random.Random(103)
    worst = 0.0
    for _ in range(1000):
        e = sample_edges(rng)
        a, b, c = e.as_tuple()
        A, B, C = hyptrig.angles_from_edges(a, b, c)
        md = hyptrig.medial_data(a, b, c)
        alpha = hyptrig.angles_from_edges(*md.midlines)[0]
        routes = (
            hyptrig.defect_area(A, B, C),
            hyptrig.cagnoli_area(a, b, c, A),
            hyptrig.keogh_area(md.m_b, md.m_c, alpha),
            hyptrig.trace_parent_area(*(2 * math.cosh(m) for m in md.midlines)),
            hyptrig.area_from_edges(a, b, c),
        )
        for s1, s2 in itertools.combinations(routes, 2):
            worst = max(worst, abs(s1 - s2))
    report(7, worst < 1e-9,
           f"defect/Cagnoli/Keogh/trace/edge areas agree over 1000 samples "
           f"(worst spread {worst:.2e})")


def test_criterion_8_cauchy_bound_and_nondegeneracy():
    r = verify.run_cauchy_bound(verify.DEFAULT_SPECS["cauchy"])
    n = r.stats["violations"]
    ok = r.passed and n == 0 and r.stats["min_limit_angle"] > 0
    report(8, ok,
           f"log-sine drift within 2^-n budget, limits nondegenerate "
           f"(min limit angle {r.stats['min_limit_angle']:.2e})")


def test_criterion_9_symbolic_soundness_and_approx():
    seqs = {}
    alphabet = "ABCM"
    prefixes = [""]
    for n in range(1, 4):
        prefixes += ["".join(w) for w in itertools.product(alphabet, repeat=n)]
    cycles = ["".join(w) for n in (1, 2)
              for w in itertools.product(alphabet, repeat=n)]
    for p in prefixes:
        for c in cycles:
            s = SymbolSequence(p, c)
            seqs[(s.prefix, s.cycle)] = s
    seqs = sorted(seqs.values(), key=lambda s: (s.prefix, s.cycle))
    addresses = {s: address_exact(s) for s in seqs}

    unsound = 0
    witnesses = 0
    for i, s in enumerate(seqs):
        for t in seqs[i + 1:]:
            m = match_prop31(s, t)
            if m is not None:
                witnesses += 1
                if addresses[s] != addresses[t]:
                    unsound += 1

    bound = REFERENCE_DIAMETER * 2.0 ** -40
    approx_bad = 0
    for s in seqs:
        approx, _ = address_approx(s, 40)
        if math.dist(approx, addresses[s].as_floats()) > bound:
            approx_bad += 1

    ok = unsound == 0 and approx_bad == 0 and witnesses > 0
    report(9, ok,
           f"{len(seqs)} sequences: {witnesses} matcher witnesses, "
           f"{unsound} unsound; depth-40 address errors over bound: {approx_bad}")


def test_criterion_10_surjectivity():
    r = verify.run_surjectivity("|M", 5)
    report(10, r.passed,
           f"5x5 Euclidean grid inverted through the limit map "
           f"(max residual {r.stats['max_residual']:.2e})")


def test_criterion_11_cli_determinism(capsys, tmp_path):
    commands = [
        ["shape", "--edges", "1.1,1.2,1.3"],
        ["shape", "--angles", "0.5,0.5,0.5"],
        ["orbit", "--edges", "2,2,3", "--word", "MABCM"],
        ["limit", "--edges", "4,4,7", "--seq", "|M"],
        ["address", "--seq", "AB|CM", "--depth", "40"],
        ["address", "--seq", "AB|CM", "--exact"],
        ["equiv", "--s", "AM|A", "--t", "MM|A"],
        ["verify", "--suite", "noncontraction"],
        ["verify", "--suite", "area", "--samples", "20"],
        ["sweep", "--seq", "|M", "--grid", "2"],
    ]
    mismatches = []
    for argv in commands:
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        if first != second:
            mismatches.append(argv[0])
    f1, f2 = tmp_path / "a.svg", tmp_path / "b.svg"
    main(["render", "--edges", "2,2,3", "--depth", "3", "-o", str(f1)])
    main(["render", "--edges", "2,2,3", "--depth", "3", "-o", str(f2)])
    capsys.readouterr()
    if f1.read_bytes() != f2.read_bytes():
        mismatches.append("render")
    with capsys.disabled():
        report(11, not mismatches,
               f"byte-identical reruns over {len(commands) + 1} invocations"
               + (f" (mismatches: {mismatches})" if mismatches else ""))
