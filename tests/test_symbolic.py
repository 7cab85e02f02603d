"""Tests for sequence parsing, addresses, equivalence, and the form matcher."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from trisub import symbolic
from trisub.render import RenderSpec
from trisub.shape import EdgeLengths, shape_from_edges
from trisub.subdivision import apply, apply_oracle, child_edges, limit_shape_info, orbit
from trisub.symbolic import (Bary, Prop31Match, SymbolSequence,
                             address_approx, address_exact, classify,
                             equivalent, letter_map, match_prop31,
                             REFERENCE_DIAMETER)

CENTROID = Bary(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))


def enumerate_sequences(max_prefix, max_cycle):
    """Canonical forms of every sequence within the given size bounds."""
    seen = {}
    alphabet = "ABCM"
    prefixes = [""]
    for n in range(1, max_prefix + 1):
        prefixes += ["".join(w) for w in itertools.product(alphabet, repeat=n)]
    cycles = []
    for n in range(1, max_cycle + 1):
        cycles += ["".join(w) for w in itertools.product(alphabet, repeat=n)]
    for p in prefixes:
        for c in cycles:
            s = SymbolSequence(p, c)
            seen[(s.prefix, s.cycle)] = s
    return sorted(seen.values(), key=lambda s: (s.prefix, s.cycle))


class TestParsing:
    def test_basic(self):
        s = SymbolSequence.parse("|M")
        assert s.prefix == "" and s.cycle == "M"

    def test_canonical_examples(self):
        assert SymbolSequence.parse("AB|CA") == SymbolSequence("AB", "CA")
        assert SymbolSequence.parse("|ABAB") == SymbolSequence("", "AB")
        assert SymbolSequence.parse("A|A") == SymbolSequence("", "A")
        assert SymbolSequence.parse("AB|B") == SymbolSequence("A", "B")
        # rotation absorbed into the cycle, then minimality
        assert SymbolSequence.parse("AMM|MM") == SymbolSequence("A", "M")

    def test_errors(self):
        with pytest.raises(ValueError):
            SymbolSequence.parse("A|")
        with pytest.raises(ValueError):
            SymbolSequence.parse("AX|B")
        with pytest.raises(ValueError):
            SymbolSequence.parse("AB")
        with pytest.raises(ValueError):
            SymbolSequence.parse("A|B|C")

    def test_indexing_and_iteration(self):
        s = SymbolSequence.parse("AB|CM")
        word = [s[i] for i in range(8)]
        assert "".join(word) == "ABCMCMCM"
        it = iter(s)
        assert "".join(next(it) for _ in range(6)) == "ABCMCM"

    @pytest.mark.parametrize("text", ["AB|M", "|AC"])
    def test_no_index_from_the_end(self, text):
        # an infinite word has no last letter
        s = SymbolSequence.parse(text)
        for n in (-1, -2, -5):
            with pytest.raises(IndexError, match="no last letter"):
                s[n]

    def test_iteration_matches_indexing(self):
        for s in enumerate_sequences(max_prefix=3, max_cycle=3):
            assert list(itertools.islice(s, 40)) == [s[i] for i in range(40)], s

    def test_canonical_same_infinite_word(self):
        for text in ("A|A", "AA|A", "|AA", "AB|ABAB", "M|MM"):
            s = SymbolSequence.parse(text)
            prefix, cycle = text.split("|")
            raw = prefix + cycle * 12  # the text's own word
            assert [s[i] for i in range(12)] == [raw[i] for i in range(12)]


class TestCanonicalConstruction:
    """A SymbolSequence is canonical however it is built, so the address
    functions never normalise it again."""

    def test_constructor_rotates_prefix_into_cycle(self):
        s = SymbolSequence("AB", "B")
        assert (s.prefix, s.cycle) == ("A", "B")

    @pytest.mark.parametrize("a, b", [
        (SymbolSequence("AMM", "MM"), SymbolSequence("A", "M")),
        (SymbolSequence("", "ABAB"), SymbolSequence.parse("|AB")),
        (SymbolSequence("CAB", "AB"), SymbolSequence("C", "AB")),
    ])
    def test_spellings_compare_and_hash_equal(self, a, b):
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_primitive_cycle_matches_divisor_search(self):
        def by_divisors(cycle):
            n = len(cycle)
            return next(cycle[:d] for d in range(1, n + 1)
                        if n % d == 0 and cycle == cycle[:d] * (n // d))
        for n in range(1, 9):
            for word in map("".join, itertools.product("ABCM", repeat=n)):
                assert symbolic._primitive_cycle(word) == by_divisors(word), word

    def test_canonical_from_any_construction(self):
        for s in (SymbolSequence("CB", "BB"), SymbolSequence(prefix="CB", cycle="BB"),
                  SymbolSequence.parse("CB|BB")):
            assert (s.prefix, s.cycle) == ("C", "B")
            with pytest.raises(AttributeError):  # and stays so
                s.cycle = "BB"

    def test_address_functions_do_not_recanonicalise(self, monkeypatch):
        s, t = SymbolSequence.parse("AMB|C"), SymbolSequence.parse("AMC|B")
        calls = []

        def counting(cycle):
            calls.append(cycle)
            return cycle
        monkeypatch.setattr(symbolic, "_primitive_cycle", counting)
        address_exact(s)
        assert equivalent(s, t)
        assert match_prop31(s, t) is not None
        assert calls == []

    def test_exact_address_is_checked_in_integers(self, monkeypatch):
        monkeypatch.setattr(symbolic, "_numerators", lambda s: ([1, 1, 1], 4))
        with pytest.raises(ValueError, match="sum to 1"):
            address_exact("|A")


@pytest.mark.parametrize("call", [
    lambda: SymbolSequence.parse("A|MX"),
    lambda: letter_map("X"),
    lambda: child_edges("X", EdgeLengths(1.0, 1.0, 1.0)),
    lambda: apply_oracle("X", EdgeLengths(1.0, 1.0, 1.0)),
    lambda: RenderSpec(word="MX"),
    # the walk and apply look kernels up by letter
    lambda: orbit("AX", shape_from_edges(2.0, 2.0, 3.0)),
    lambda: limit_shape_info(iter("AMX"), shape_from_edges(2.0, 2.0, 3.0)),
    lambda: apply("X", shape_from_edges(2.0, 2.0, 3.0)),
], ids=["parse", "letter_map", "child_edges", "apply_oracle", "RenderSpec",
        "orbit", "limit_shape_info", "apply"])
def test_one_message_for_an_unknown_letter(call):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == "unknown letter 'X'; expected one of ('A', 'B', 'C', 'M')"


class TestClassify:
    def test_examples(self):
        assert classify("|A") == "rational"
        assert classify("|BC") == "irrational"
        assert classify("|M") == "irrational"
        assert classify("ABC|MA") == "rational"
        assert classify("|MAMB") == "irrational"


class TestLetterMaps:
    def test_fixed_points(self):
        assert letter_map("A")(Bary(1, 0, 0)) == Bary(1, 0, 0)
        assert letter_map("M")(CENTROID) == CENTROID

    def test_halving_distances_exact(self):
        pts = [Bary(1, 0, 0), Bary(0, 1, 0), CENTROID,
               Bary(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))]
        for letter in "ABCM":
            f = letter_map(letter)
            for p in pts:
                for q in pts:
                    img_diff = [a - b for a, b in zip(f(p), f(q))]
                    src_diff = [a - b for a, b in zip(p, q)]
                    assert [2 * d for d in img_diff] == src_diff or \
                        [-2 * d for d in img_diff] == src_diff

    def test_bary_validation(self):
        with pytest.raises(ValueError):
            Bary(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(ValueError, match="sum to 1"):
            Bary(1, 1, 1)


class TestAddressApprox:
    def test_vertex(self):
        pt, bound = address_approx("|A", 40)
        # the cell diameter, plus the rounding of the returned floats
        assert 0 < bound - REFERENCE_DIAMETER * 2.0 ** -40 <= math.ulp(1.0)
        assert abs(pt[0] - 1) <= bound and abs(pt[1]) <= bound

    @pytest.mark.parametrize("seq", ["AB|CM", "|M", "MMB|ACMB", "M|A"])
    def test_bound_covers_rounding(self, seq):
        # at depth 2000 the cell diameter underflows to 0, and the bound is
        # the rounding of the floats alone; compared in exact arithmetic
        pt, bound = address_approx(seq, 2000)
        assert bound > 0
        gap = sum((Fraction(x) - y) ** 2 for x, y in zip(pt, address_exact(seq)))
        assert gap <= Fraction(bound) ** 2

    def test_midpoint_of_bc(self):
        pt, bound = address_approx("M|A", 30)
        expect = (0.0, 0.5, 0.5)
        assert max(abs(x - y) for x, y in zip(pt, expect)) <= bound

    def test_centroid(self):
        pt, _ = address_approx("|M", 25)
        assert max(abs(x - 1 / 3) for x in pt) < 1e-7

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            address_approx("|M", 0)

    def test_nested_containment(self):
        # image simplices nest: successive depths stay within the bound of
        # the previous cell
        seq = SymbolSequence.parse("ABM|CA")
        prev, prev_bound = address_approx(seq, 1)
        for depth in range(2, 20):
            cur, bound = address_approx(seq, depth)
            assert max(abs(x - y) for x, y in zip(cur, prev)) <= prev_bound
            prev, prev_bound = cur, bound


class TestAddressExact:
    def test_vertex(self):
        assert address_exact("|A") == Bary(1, 0, 0)

    def test_cycle_fixed_point_with_shift_relation(self):
        q = address_exact("|BC")
        assert q == Bary(0, Fraction(2, 3), Fraction(1, 3))
        assert letter_map("B")(address_exact("|CB")) == q

    def test_prefix_transport(self):
        assert address_exact("AM|A") == address_exact("AB|C")
        assert address_exact("AM|A") == Bary(Fraction(1, 2), Fraction(1, 4),
                                             Fraction(1, 4))

    def test_matches_approx_rate(self):
        for text in ("|A", "AB|CM", "M|BC", "AMB|CA"):
            exact = address_exact(text).as_floats()
            for depth in (10, 20, 40):
                approx, bound = address_approx(text, depth)
                err = math.dist(approx, exact)
                assert err <= bound

    def test_components_sum_to_one(self):
        for text in ("|A", "AB|CM", "MMM|ABC"):
            assert sum(address_exact(text)) == 1


class TestEquivalent:
    def test_reflexive(self):
        assert equivalent("AB|C", "AB|C")

    def test_distinct_vertices(self):
        assert not equivalent("|A", "|B")

    def test_six_forms_pairwise(self):
        forms = ["AM|A", "AB|C", "AC|B", "MM|A", "MB|C", "MC|B"]
        for s in forms:
            for t in forms:
                assert equivalent(s, t)

    def test_midline_interior_pair(self):
        # two-letter cycles meeting on a midline interior point
        assert equivalent("A|BC", "M|CB")
        assert not equivalent("A|BC", "M|BC")


class TestMatcher:
    def test_spec_pairs(self):
        m = match_prop31("AM|A", "MM|A")
        assert m is not None
        assert {m.form_s, m.form_t} == {1, 4}
        assert m.m == 0 and m.zeta == ""

        m = match_prop31("AB|C", "AC|B")
        assert m is not None
        assert {m.form_s, m.form_t} == {2, 3}

    def test_vertices_do_not_match(self):
        assert match_prop31("|A", "|B") is None

    def test_equal_inputs_give_none(self):
        assert match_prop31("AB|C", "AB|C") is None

    def test_nonconstant_tails_do_not_match(self):
        assert match_prop31("A|BC", "M|CB") is None

    def test_with_shared_prefix_and_alpha_block(self):
        # tau = "CM", sigma = identity, zeta = "xy" (so alpha = BC), m = 2
        s = "CMABC" + "M|A"      # tau A alpha... M A^inf
        t = "CMABC" + "B|C"      # tau A alpha... B C^inf  (forms 1 and 2)
        m = match_prop31(s, t)
        assert m is not None
        assert m.prefix == "CM"
        assert m.m == 2 and m.zeta == "xy"
        assert equivalent(s, t)

    def test_sigma_permutation_pair(self):
        # sigma swapping A and B: forms 2/3 with first letter B
        s = "BA|C"
        t = "BC|A"
        m = match_prop31(s, t)
        assert m is not None
        assert m.sigma[0] == "B"
        assert equivalent(s, t)


def _constant_from(seq, k, letter):
    """True if every position >= k of seq holds `letter` (exact check)."""
    if any(ch != letter for ch in seq.cycle):
        return False
    return all(ch == letter for ch in seq.prefix[k:])


def _reference_tail_forms(seq, n, sigma, m_cap):
    """All (form, m, zeta) readings of seq from position n under sigma,
    found by trying every m up to m_cap."""
    sA, sB, sC = sigma["A"], sigma["B"], sigma["C"]
    first = seq[n]
    groups = []
    if first == sA:
        groups.append(((1, 2, 3), {sB: "x", sC: "y"}))
    if first == "M":
        groups.append(((4, 5, 6), {sC: "x", sB: "y"}))
    out = []
    for forms, spell in groups:
        zeta = ""
        for m in range(0, m_cap + 1):
            switch = seq[n + 1 + m]
            tail_at = n + 2 + m
            if switch == "M" and _constant_from(seq, tail_at, sA):
                out.append((forms[0], m, zeta))
            if switch == sB and _constant_from(seq, tail_at, sC):
                out.append((forms[1], m, zeta))
            if switch == sC and _constant_from(seq, tail_at, sB):
                out.append((forms[2], m, zeta))
            if switch not in spell:
                break
            zeta += spell[switch]
    return out


def reference_match_prop31(s, t, horizon=64):
    """The six-form witness search that scans every n, sigma and m; the
    matcher must return exactly what this returns."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    s, t = (x if isinstance(x, SymbolSequence)
            else SymbolSequence.parse(x) for x in (s, t))
    if s == t:
        return None
    if len(s.cycle) != 1 or len(t.cycle) != 1:
        return None
    max_common = min(horizon, max(len(s.prefix), len(t.prefix)))
    common = 0
    while common <= max_common and s[common] == t[common]:
        common += 1
    m_cap = min(horizon, max(len(s.prefix), len(t.prefix)) + 2)
    for n in range(0, min(common, horizon) + 1):
        for pa, pb, pc in itertools.permutations("ABC"):
            sigma = {"A": pa, "B": pb, "C": pc}
            ps = _reference_tail_forms(s, n, sigma, m_cap)
            if not ps:
                continue
            pt = _reference_tail_forms(t, n, sigma, m_cap)
            for form_s, m_s, zeta_s in ps:
                for form_t, m_t, zeta_t in pt:
                    if form_s != form_t and m_s == m_t and zeta_s == zeta_t:
                        tau = "".join(s[i] for i in range(n))
                        return Prop31Match(tau, (pa, pb, pc),
                                           zeta_s, m_s, form_s, form_t)
    return None


def form_word(form, tau, sigma, zeta):
    """The sequence of tail form 1-6 after tau, spelling zeta under sigma."""
    sA, sB, sC = sigma
    spell = {"x": sB, "y": sC} if form <= 3 else {"x": sC, "y": sB}
    switch, tail = (("M", sA), (sB, sC), (sC, sB))[(form - 1) % 3]
    opening = sA if form <= 3 else "M"
    return SymbolSequence(tau + opening + "".join(spell[c] for c in zeta)
                          + switch, tail)


def test_sigma_table_matches_the_six_forms():
    # every (switch, tail) pair that a form spells under sigma, found by
    # spelling all six forms under all six sigmas, in permutations order
    expected = {}
    for sigma in itertools.permutations("ABC"):
        for form in range(1, 7):
            seq = form_word(form, "", sigma, "")
            found = expected.setdefault((seq.prefix[-1], seq.cycle), [])
            if sigma not in found:
                found.append(sigma)
    pairs = list(itertools.product("ABCM", repeat=2))
    assert sorted(symbolic._SIGMAS) == pairs
    for pair in pairs:
        assert symbolic._SIGMAS[pair] == tuple(expected.get(pair, ())), pair
    assert max(map(len, symbolic._SIGMAS.values())) == 2


def seeded_form_pairs(n, lengths, seed):
    """Pairs with equal prefix lengths drawn from `lengths`: form words that
    share tau, sigma and zeta; the same with an independent sigma or zeta
    for t; and shared-everything pairs with one letter of t changed."""
    rng = random.Random(seed)

    def word(k, alphabet="ABCM"):
        return "".join(rng.choice(alphabet) for _ in range(k))
    pairs = []
    for _ in range(n):
        size = rng.choice(lengths)
        k = rng.randint(0, size - 2)
        tau, zeta = word(k), word(size - 2 - k, "xy")
        sigma = tuple(rng.sample("ABC", 3))
        s = form_word(rng.randint(1, 6), tau, sigma, zeta)
        kind = rng.randrange(4)
        if kind == 1:
            sigma = tuple(rng.sample("ABC", 3))
        elif kind == 2:
            zeta = word(len(zeta), "xy")
        t = form_word(rng.randint(1, 6), tau, sigma, zeta)
        if kind == 3:
            i = rng.randrange(size)
            t = SymbolSequence(t.prefix[:i] + rng.choice("ABCM")
                               + t.prefix[i + 1:], t.cycle)
        pairs.append((s, t))
    return pairs


class TestAgainstReferenceSearch:
    """match_prop31 returns exactly what the full search returns."""

    @pytest.mark.parametrize("horizon", [0, 1, 2, 64])
    def test_all_short_pairs(self, universe, horizon):
        seqs = universe[0]
        found = 0
        for s in seqs:
            for t in seqs:
                got = match_prop31(s, t, horizon)
                assert got == reference_match_prop31(s, t, horizon), (s, t)
                found += got is not None
        assert found > 0

    @pytest.mark.parametrize("count, lengths, horizons", [
        (400, range(5, 13), (0, 1, 2, 3, 5, 8, 64)),
        (150, range(60, 81), (10, 62, 63, 64, 65, 70, 100)),
    ])
    def test_seeded_long_prefixes(self, count, lengths, horizons):
        found = 0
        for s, t in seeded_form_pairs(count, lengths, seed=lengths[0]):
            for horizon in horizons:
                for a, b in ((s, t), (t, s)):
                    got = match_prop31(a, b, horizon)
                    assert got == reference_match_prop31(a, b, horizon), \
                        (a, b, horizon)
                    found += got is not None
        assert found > 0

    @pytest.mark.parametrize("s, t, witnessed", [
        ("AMAA|A", "MM|A", True),
        ("AMA|AA", "MMAAA|A", True),
        ("ABCC|C", "ACB|BB", True),
        ("CMABCMAA|A", "CMABCB|CC", True),
        ("AMAA|A", "AM|A", False),
        ("A|BCBC", "MCB|CB", False),
        (SymbolSequence("BAC", "CC"), SymbolSequence("BCAA", "A"), True),
        (SymbolSequence("AMCBCC", "C"), SymbolSequence("AABB", "CC"), True),
    ])
    def test_noncanonical_spellings(self, s, t, witnessed):
        for horizon in (0, 1, 2, 64):
            assert match_prop31(s, t, horizon) == \
                reference_match_prop31(s, t, horizon)
        assert (match_prop31(s, t) is not None) == witnessed


@pytest.fixture(scope="module")
def universe():
    seqs = enumerate_sequences(max_prefix=2, max_cycle=2)
    addresses = {s: address_exact(s) for s in seqs}
    return seqs, addresses


class TestExhaustiveEnumeration:
    """Soundness and recording over all short sequences."""

    def test_matcher_soundness(self, universe):
        seqs, addresses = universe
        witnesses = 0
        for i, s in enumerate(seqs):
            for t in seqs[i + 1:]:
                m = match_prop31(s, t)
                if m is not None:
                    witnesses += 1
                    assert addresses[s] == addresses[t], (s, t, m)
        assert witnesses > 0

    def test_irrational_collisions_are_midline_pairs(self, universe):
        # record the shape of every equal-address pair involving an
        # irrational sequence: one side enters a corner cell, the other
        # the medial cell, and the tails are letterwise B/C-swaps
        seqs, addresses = universe
        by_address = {}
        for s in seqs:
            by_address.setdefault(addresses[s], []).append(s)
        recorded = 0
        for group in by_address.values():
            for i, s in enumerate(group):
                for t in group[i + 1:]:
                    if "irrational" not in (classify(s), classify(t)):
                        continue
                    recorded += 1
                    n = 0
                    while s[n] == t[n]:
                        n += 1
                    first = sorted((s[n], t[n]))
                    assert first[1] == "M" and first[0] in "ABC"
                    corner = s if s[n] != "M" else t
                    medial = t if corner is s else s
                    sigma_a = corner[n]
                    others = sorted(set("ABC") - {sigma_a})
                    swap = {others[0]: others[1], others[1]: others[0]}
                    for k in range(n + 1, n + 16):
                        assert corner[k] in others
                        assert medial[k] == swap[corner[k]]
        assert recorded > 0

    def test_approx_consistency(self, universe):
        seqs, addresses = universe
        for s in seqs:
            exact = addresses[s].as_floats()
            for depth in (10, 20, 40):
                approx, bound = address_approx(s, depth)
                assert math.dist(approx, exact) <= bound


def _affine(letter):
    """(scale, shift) with letter_map(letter)(x) == scale*x + shift."""
    f = letter_map(letter)
    scale = f(Bary(1, 0, 0))[0] - f(Bary(0, 1, 0))[0]
    return scale, tuple(q - scale * x for q, x in zip(f(CENTROID), CENTROID))


AFFINE = {letter: _affine(letter) for letter in "ABCM"}


def _composed(word):
    """(scale, shift) of f_w1 o ... o f_wk, composed over Fractions."""
    scale, shift = Fraction(1), (Fraction(0),) * 3
    for letter in word:
        # extend on the right: F' = F o f_letter
        s, t = AFFINE[letter]
        shift = tuple(scale * b + a for b, a in zip(t, shift))
        scale *= s
    return scale, shift


def oracle_exact(seq):
    """Reference address: the fixed point of the composed cycle map,
    carried through the composed prefix map."""
    scale, shift = _composed(seq.cycle)
    fixed = [a / (1 - scale) for a in shift]
    scale, shift = _composed(seq.prefix)
    return Bary(*(scale * x + a for x, a in zip(fixed, shift)))


def oracle_approx():
    """Reference approximation: the centroid through the first `depth`
    letter maps, last letter first, over Fractions.  Memoized on
    (prefix, cycle, depth), so words that share a tail share its points."""
    @functools.lru_cache(maxsize=None)
    def point(prefix, cycle, depth):
        if depth == 0:
            return CENTROID
        if prefix:
            return letter_map(prefix[0])(point(prefix[1:], cycle, depth - 1))
        return letter_map(cycle[0])(point("", cycle[1:] + cycle[0], depth - 1))
    return lambda seq, depth: point(seq.prefix, seq.cycle, depth).as_floats()


def seeded_words(n=500, seed=7):
    """Canonical words with a prefix of up to 20 and a cycle of up to 40 letters."""
    rng = random.Random(seed)

    def word(lo, hi):
        return "".join(rng.choice("ABCM") for _ in range(rng.randint(lo, hi)))
    return [SymbolSequence(word(0, 20), word(1, 40)) for _ in range(n)]


class TestAgainstFractionOracle:
    """The integer walk against letter maps composed over Fractions."""

    @pytest.fixture(scope="class")
    def words(self):
        seqs = enumerate_sequences(2, 4) + seeded_words()
        return seqs, [oracle_exact(s) for s in seqs]

    def test_address_exact(self, words):
        for s, expected in zip(*words):
            got = address_exact(s)
            assert got == expected, s
            assert got.fraction_strings() == expected.fraction_strings()

    def test_equivalent_on_equal_groups(self, words):
        groups = {}
        for s, addr in zip(*words):
            groups.setdefault(addr, []).append(s)
        pairs = 0
        for group in groups.values():
            for s, t in itertools.combinations(group, 2):
                assert equivalent(s, t), (s, t)
                pairs += 1
        assert pairs > 0

    def test_equivalent_on_random_pairs(self, words):
        rng = random.Random(11)
        seqs, addrs = words
        for _ in range(3000):
            i, j = rng.randrange(len(seqs)), rng.randrange(len(seqs))
            assert equivalent(seqs[i], seqs[j]) == (addrs[i] == addrs[j])

    def test_equivalent_on_respellings(self, words):
        # w|c and wc0|c1...c0 spell the same infinite word; M|A and B|C
        # name the same edge midpoint, M|B another one
        for s in words[0]:
            c = s.cycle
            assert equivalent(s, SymbolSequence(s.prefix + c[0], c[1:] + c[0]))
            assert equivalent(s.prefix + "M|A", s.prefix + "B|C")
            assert not equivalent(s.prefix + "M|A", s.prefix + "M|B")

    def test_address_approx(self, words):
        # every word at depths 1 and 40; depth 200 on the last 100 seeded
        # words, whose long prefixes and cycles share no tails to memoize
        reference = oracle_approx()
        seqs = words[0]
        for k, s in enumerate(seqs):
            for depth in (1, 40, 200) if k >= len(seqs) - 100 else (1, 40):
                assert address_approx(s, depth)[0] == reference(s, depth), \
                    (s, depth)
