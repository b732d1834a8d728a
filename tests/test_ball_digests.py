"""Pinned raw fields of the ball paths at tau and alpha.

Golden stdout prints three digits of each radius, so a one-ulp drift in a
midpoint or a radius would pass it.  These digests hash the raw
(m, e, r, f, prec) fields of every ball that the constants' enclosures, the
inverse kernel, the ball residual, the ball Horner and limit_entry produce
on a fixed grid; any change in their roundings changes a digest.
"""

import hashlib

import pytest

from vangeo.limits import _closed_form, _pentagonal_series, limit_entry
from vangeo.scalar import BaseSpec, _dy_fraction, evaluate_base, poly_eval_ball
from vangeo.vandinv import GeometricVandermonde, inverse_matrix, residual_norm


def fields(x):
    return x._m, x._e, x._r, x._f, x._prec


def digest(balls):
    return hashlib.sha256(repr([fields(x) for x in balls]).encode()).hexdigest()[:16]


GRID = ((0, 0), (1, 3), (4, 2), (7, 9), (12, 15))


INVERSE_DIGESTS = {
    ("tau", 64): "0ec46fe2261f7e86",
    ("tau", 256): "4b735174ab7535d9",
    ("alpha", 64): "bad43cc76ca3b059",
    ("alpha", 256): "571fb5653d4db11e",
}

HORNER_DIGESTS = {
    ("1.03", 64): "b6ea0a437c3fc591",
    ("1.03", 256): "d5c94f4aae2133cb",
    ("tau", 64): "8f2b9ae49590390f",
    ("tau", 256): "08e33ae7e8a9a82d",
}

# the ball inverse alone: each column divides by grow * decay
DIVISION_DIGESTS = {
    ("tau", 128): "1bb8ed4f212b1a1d",
    ("tau", 1024): "d2be4d489ba8d4d9",
    ("alpha", 128): "13930d0b1d953aea",
    ("alpha", 1024): "58db535dc66d8f8d",
}

# evaluate_base at the constants: the integer bisection's final interval
ENCLOSURE_DIGESTS = {
    ("tau", 16): "dded566dde33fc49",
    ("tau", 17): "d62d0ea09af19377",
    ("tau", 63): "b2687a885feae784",
    ("tau", 64): "af499a390ac24391",
    ("tau", 65): "985aab7b65f03447",
    ("tau", 177): "f4889448bdf9688c",
    ("tau", 256): "6d206a9e58c65458",
    ("tau", 354): "ab3e5407015e3d07",
    ("tau", 1024): "c321d597036a2426",
    ("tau", 4096): "0f5dee054f6a4828",
    ("alpha", 16): "e1af0aa282d07537",
    ("alpha", 17): "5381e9b74ecc71f7",
    ("alpha", 63): "cf23564998fd4221",
    ("alpha", 64): "b8b70bf59b17cac2",
    ("alpha", 65): "1f5bc51a38c94e4d",
    ("alpha", 177): "4f106b7e1f10c909",
    ("alpha", 256): "ee25f5d432bc41a6",
    ("alpha", 354): "1be4a10e5fe72c30",
    ("alpha", 1024): "ecd02e4569beacc2",
    ("alpha", 4096): "16e08987d6859095",
}

# limit_entry: the value's fields, the pentagonal pairs summed and the tail bound
LIMIT_DIGESTS = {
    ("1.03", "1e-10"): "a7ec6fe8568ad52d",
    ("7/3", "1e-40"): "c67134bc9f88470d",
    ("tau", "1e-34"): "14e74e76565e4f88",
    ("alpha", "1e-30"): "1dea0becf803b9cc",
}


@pytest.mark.parametrize("name,bits", sorted(INVERSE_DIGESTS))
def test_inverse_and_residual_fields(name, bits):
    balls = []
    for n in (1, 2, 5, 13, 21):
        gv = GeometricVandermonde(BaseSpec.parse(name), n)
        inv = inverse_matrix(gv, bits)
        balls += [x for row in inv.entries for x in row]
        balls.append(residual_norm(gv, inv))
    assert digest(balls) == INVERSE_DIGESTS[name, bits]


@pytest.mark.parametrize("name,bits", sorted(ENCLOSURE_DIGESTS))
def test_constant_enclosure_fields(name, bits):
    assert digest([evaluate_base(BaseSpec.parse(name), bits)]) == ENCLOSURE_DIGESTS[name, bits]


@pytest.mark.parametrize("name,bits", sorted(HORNER_DIGESTS))
def test_horner_fields(name, bits):
    b = evaluate_base(BaseSpec.parse(name), bits)
    balls = []
    for i, j in GRID:
        num, den = _closed_form(i, j)
        balls += [poly_eval_ball(num, b), poly_eval_ball(den, b)]
    assert digest(balls) == HORNER_DIGESTS[name, bits]


@pytest.mark.parametrize("name,bits", sorted(DIVISION_DIGESTS))
def test_ball_inverse_fields(name, bits):
    inv = inverse_matrix(GeometricVandermonde(BaseSpec.parse(name), 13), bits)
    assert digest([x for row in inv.entries for x in row]) == DIVISION_DIGESTS[name, bits]


@pytest.mark.parametrize("name,tol", sorted(LIMIT_DIGESTS))
def test_limit_entry_fields(name, tol):
    base = BaseSpec.parse(name)
    got = []
    for i, j in GRID:
        v = limit_entry(i, j, base, tol)
        # the remainder bound of the series at v's cutoff, which v.value.radius includes
        b = evaluate_base(base, v.value.precision_bits)
        series = _pentagonal_series(b._m, b._e, b._r, b._f, b.precision_bits)
        tail = _dy_fraction(*series.step(v.product_cutoff + 1)[0])
        got.append((fields(v.value), v.product_cutoff, tail))
    assert hashlib.sha256(repr(got).encode()).hexdigest()[:16] == LIMIT_DIGESTS[name, tol]
