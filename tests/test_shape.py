"""Tests for shape values and the angle-space metric."""

import copy
import math
import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from trisub import hyptrig
from trisub.hyptrig import DomainError
from trisub.render import RenderSpec
from trisub.shape import (AngleShape, EUCLIDEAN_ATOL, EdgeLengths, ShapeRecord,
                          metric_distance, project_euclidean, shape_from_angles,
                          shape_from_edges)
from trisub.subdivision import apply, limit_shape_info, orbit
from trisub.symbolic import SymbolSequence
from trisub.verify import SampleSpec


def test_shape_from_edges_equilateral():
    rec = shape_from_edges(1, 1, 1)
    assert not rec.is_euclidean
    assert rec.angles.A == rec.angles.B == rec.angles.C
    assert rec.area > 0


def test_shape_from_edges_isosceles_447():
    rec = shape_from_edges(4, 4, 7)
    assert rec.angles.A == pytest.approx(rec.angles.B, abs=1e-14)
    assert rec.edges.as_tuple() == (4, 4, 7)


def test_shape_from_edges_invalid():
    with pytest.raises(DomainError):
        shape_from_edges(1, 2, 5)


def test_shape_from_angles_euclidean_has_no_edges():
    rec = shape_from_angles(math.pi / 3, math.pi / 3, math.pi / 3)
    assert rec.is_euclidean
    assert rec.edges is None
    assert rec.area == 0.0


def test_shape_from_angles_hyperbolic_round_trip():
    rec = shape_from_angles(0.5, 0.5, 0.5)
    assert rec.edges is not None
    back = hyptrig.angles_from_edges(*rec.edges.as_tuple())
    assert max(abs(x - 0.5) for x in back) < 1e-12


def test_shape_from_angles_rejects_oversum():
    with pytest.raises(DomainError):
        shape_from_angles(2, 2, 2)
    with pytest.raises(DomainError):
        shape_from_angles(1.0, -0.5, 1.0)


def test_record_invariants_sampled():
    rng = random.Random(9)
    for _ in range(200):
        while True:
            a, b, c = (rng.uniform(0.01, 5) for _ in range(3))
            if a < b + c and b < c + a and c < a + b:
                break
        rec = shape_from_edges(a, b, c)
        back = hyptrig.angles_from_edges(*rec.edges.as_tuple())
        assert max(abs(x - y) for x, y in
                   zip(back, rec.angles.as_tuple())) < 1e-10
        assert rec.area == hyptrig.area_from_edges(a, b, c)


@pytest.mark.parametrize("build, counts", [
    # given edges are checked once, and the angles derived from them not at all
    (lambda: shape_from_edges(2, 2, 3), (1, 0, 1)),
    # the orbit checks the given edges only, and walks from the state its
    # start record keeps: each child comes from a step kernel, and no
    # record's angles are checked
    (lambda: orbit("M" * 20, shape_from_edges(2, 2, 3)), (1, 0, 1)),
    (lambda: apply("M", apply("A", shape_from_edges(2, 2, 3))), (1, 0, 1)),
    (lambda: limit_shape_info(SymbolSequence.parse("|M"), shape_from_edges(2, 2, 3)),
     (1, 0, 1)),
    # given angles are checked once, and the state comes from them, not from
    # edges
    (lambda: shape_from_angles(1.0, 1.0, 0.5), (0, 1, 0)),
    (lambda: orbit("M" * 20, shape_from_angles(1.0, 1.0, 0.5)), (0, 1, 0)),
], ids=["shape", "orbit", "apply", "limit", "angles", "angles-orbit"])
def test_one_check_and_one_derivation_per_record(monkeypatch, build, counts):
    names = ("_check_edges", "_check_angles", "_start")
    seen = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, real=getattr(hyptrig, name), name=name, **kwargs):
            seen[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(hyptrig, name, counting)
    build()
    assert seen == dict(zip(names, counts))


@pytest.mark.parametrize("value, field, bad", [
    (AngleShape(1.0, 1.0, 1.0), "B", -0.5),
    (AngleShape(1.0, 1.0, 1.0), "C", 2.0),
    (EdgeLengths(2.0, 2.0, 3.0), "c", 4.0),
    (RenderSpec(depth=2), "depth", -1),
    (RenderSpec(depth=2), "word", "AB"),
    (SampleSpec(seed=1, samples=4), "samples", 0),
], ids=["angle", "angle-sum", "triangle-inequality", "depth", "depth-and-word", "samples"])
def test_replace_and_make_check_like_the_constructor(value, field, bad):
    fields = {**value._asdict(), field: bad}
    with pytest.raises(ValueError) as built:
        type(value)(**fields)
    for rebuild in (lambda: value._replace(**{field: bad}),
                    lambda: type(value)._make(fields.values())):
        with pytest.raises(type(built.value), match=f"^{re.escape(str(built.value))}$"):
            rebuild()


def test_sliver_angles_build_a_shape():
    # seeded valid slivers: defect 10^U(-11.9, 0.4), weights 10^U(-12, 0).
    # Checking the edges derived from them refused 1,851 of these 20,000
    # with the triangle inequality, since a + b - c can round to 0.  Their
    # limits along |M refused 74 with "angle C=3.141592653589793 must be in
    # (0, pi)", as the largest limit angle rounds to the float pi
    rng, seq = random.Random(2), SymbolSequence.parse("|M")
    for _ in range(20_000):
        defect = 10 ** rng.uniform(-11.9, 0.4)
        w = [10 ** rng.uniform(-12, 0) for _ in range(3)]
        A, B = ((math.pi - defect) * x / sum(w) for x in w[:2])
        rec = shape_from_angles(A, B, math.pi - defect - A - B)
        assert rec.is_euclidean or min(rec.edges) > 0
        assert min(limit_shape_info(seq, rec).angles) > 0


def _sliver():
    # the state after MBC from these edges is valid, but its rebuilt edges
    # round to c >= a + b: the checked constructor would refuse them
    s0 = shape_from_edges(26.77140277034582, 5.91333169169455, 31.640324086913058)
    step = orbit("MBC", s0).steps[-1]
    with pytest.raises(DomainError, match="triangle inequality"):
        EdgeLengths(*step.edges)
    return step


@pytest.mark.parametrize("value", [
    shape_from_edges(2, 2, 3), shape_from_angles(1.0, 1.0, math.pi - 2.0),
    SymbolSequence("AB", "C"), AngleShape(1.0, 1.0, 1.0), _sliver(),
], ids=["hyperbolic", "euclidean", "sequence", "angles", "sliver"])
def test_records_copy_and_pickle_by_value(value):
    # the slotted records refuse assignment, so they copy through __init__;
    # checked tuples copy unchecked, as a copy of a value needs no new check
    for again in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(again) is type(value) and again == value and hash(again) == hash(value)
        assert repr(again) == repr(value)
    with pytest.raises(AttributeError):
        value.area = 0.0


def test_records_keep_their_state_out_of_sight():
    # a library record keeps the state it came from; equality, hash, repr and
    # JSON are on its public fields, and a copy keeps the state too
    rec = shape_from_angles(1.0, 0.5, 0.25)
    p, q, r, root, k = rec._state
    assert rec.edges.as_tuple() == tuple(2 * math.asinh(math.sqrt(x)) for x in (p, q, r))
    assert math.ldexp(root, -k) == pytest.approx(2 * math.sin(1.0) * math.sqrt(q * r * (1 + q) * (1 + r)),
                                 rel=1e-15)
    bare = ShapeRecord(rec.angles, rec.edges, rec.area)
    assert bare._state is None and bare == rec and hash(bare) == hash(rec)
    assert repr(bare) == repr(rec) and bare.to_json_dict() == rec.to_json_dict()
    assert copy.deepcopy(rec)._state == rec._state
    # one built without a state takes it from its edges
    for letter in "ABCM":
        assert apply(letter, bare).angles.as_tuple() == pytest.approx(
            apply(letter, rec).angles.as_tuple(), rel=1e-13)


@pytest.mark.parametrize("value, other", [
    (shape_from_edges(1, 1, 1), (1.0, 1.0, 1.0)),
    (SymbolSequence.parse("|M"), "|M"),
], ids=["record-tuple", "sequence-text"])
def test_records_are_unequal_to_other_types(value, other):
    # a record compares by value with its own type only
    assert value.__eq__(other) is NotImplemented
    assert value != other and other != value


def test_metric_distance_basics():
    s = shape_from_edges(1, 2, 2.5).angles
    t = shape_from_edges(0.5, 0.5, 0.7).angles
    assert metric_distance(s, s) == 0.0
    assert metric_distance(s, t) == metric_distance(t, s)
    assert metric_distance(s, t) > 0


def test_metric_distance_noncontraction_witness():
    fixed = AngleShape(math.pi / 3, math.pi / 3, math.pi / 3)
    rec = shape_from_edges(4, 4, 7)
    child = apply("M", rec)
    assert metric_distance(rec.angles, fixed) < metric_distance(child.angles, fixed)


def test_projection_examples():
    out = project_euclidean(AngleShape(math.pi / 6, math.pi / 6, math.pi / 6))
    assert out.as_tuple() == pytest.approx((math.pi / 3,) * 3, abs=1e-15)
    assert out.angle_sum() == pytest.approx(math.pi, abs=0)

    eu = AngleShape(1.0, 1.0, math.pi - 2.0)
    again = project_euclidean(eu)
    assert max(abs(x - y) for x, y in zip(eu.as_tuple(), again.as_tuple())) < 1e-15

    # a tiny angle is scaled like the others, not rebuilt as pi - A - B
    sliver = AngleShape(1.0, 1.5, 2e-9)
    p = project_euclidean(sliver)
    assert p.C / sliver.C == pytest.approx(p.A / sliver.A, rel=1e-15)


def test_projection_idempotent_and_projective():
    rng = random.Random(4)
    for _ in range(200):
        A = rng.uniform(0.05, 1.2)
        B = rng.uniform(0.05, 1.2)
        C = rng.uniform(0.05, min(1.2, math.pi - A - B - 0.05))
        s = AngleShape(A, B, C)
        p = project_euclidean(s)
        assert p.is_euclidean
        pp = project_euclidean(p)
        assert pp.as_tuple() == p.as_tuple()  # bit-exact fixed point
        # argwise projective scaling
        ratio = p.A / s.A
        assert p.B / s.B == pytest.approx(ratio, rel=1e-12)
        assert p.C / s.C == pytest.approx(ratio, rel=1e-12)


def test_euclidean_classification_threshold():
    s = AngleShape(1.0, 1.0, math.pi - 2.0 + 0.5 * EUCLIDEAN_ATOL)
    assert s.is_euclidean
    h = AngleShape(1.0, 1.0, math.pi - 2.0 - 1e-6)
    assert not h.is_euclidean


def test_json_dict_shape():
    rec = shape_from_edges(1, 1, 1)
    d = rec.to_json_dict()
    assert set(d) == {"angles", "edges", "area"}
    assert len(d["angles"]) == 3 and len(d["edges"]) == 3
    eu = shape_from_angles(math.pi / 3, math.pi / 3, math.pi / 3)
    assert eu.to_json_dict()["edges"] is None


@settings(max_examples=100, deadline=None)
@given(st.floats(0.05, 1.4), st.floats(0.05, 1.4), st.floats(0.05, 1.4))
def test_projection_always_euclidean(A, B, C):
    if A + B + C >= math.pi - 1e-9:
        return
    p = project_euclidean(AngleShape(A, B, C))
    assert p.is_euclidean
    assert min(p.as_tuple()) > 0
