"""Poly, RatFunc and the families built from them survive pickle and copy."""

import copy
import pickle

import pytest

from squaretriads import ecurve, families
from squaretriads.multipoly import Poly, RatFunc, var

ROUND_TRIPS = {
    **{"pickle-%d" % p: (lambda obj, p=p: pickle.loads(pickle.dumps(obj, protocol=p))) for p in range(pickle.HIGHEST_PROTOCOL + 1)},
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def _kept_image_poly() -> Poly:
    m = var("m")
    p = (m**2 + 1) * (3 * m - 2) ** 2
    assert p._image is not None  # a product keeps its one-variable image
    return p


def _ratfunc() -> RatFunc:
    s, t = var("s"), var("t")
    return RatFunc(s**3 - s * t**2, 2 * s**2 * t + 6)


# each object, and a field of it that no assignment may change
OBJECTS = {
    "poly-with-image": (_kept_image_poly(), "terms"),
    "ratfunc": (_ratfunc(), "num"),
    "registry-family": (families.registry()[0], "a"),
    "generate_family(3)": (ecurve.generate_family(3), "a"),
}


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("name", sorted(OBJECTS))
def test_round_trip_is_equal_hashes_the_same_and_stays_immutable(name, how):
    obj, field = OBJECTS[name]
    back = ROUND_TRIPS[how](obj)
    assert type(back) is type(obj)
    assert back == obj
    assert hash(back) == hash(obj)
    with pytest.raises(AttributeError):
        setattr(back, field, getattr(obj, field))


def test_unpickled_poly_is_the_same_canonical_polynomial():
    p = _kept_image_poly()
    back = pickle.loads(pickle.dumps(p))
    assert back.vars == p.vars and back.terms == p.terms
    # the rebuilt polynomial computes like the original, image or not
    assert back * back == p * p
    assert Poly._make(back.vars, back.terms) == back


def test_unpickled_ratfunc_keeps_its_canonical_parts():
    r = _ratfunc()
    back = pickle.loads(pickle.dumps(r))
    assert (back.num, back.den) == (r.num, r.den)
    assert back + 1 == r + 1
