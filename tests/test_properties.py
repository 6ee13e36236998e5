"""Property tests: config validation, the coefficient text format, the
polynomial normal form and the shared square-and-multiply.

Derandomized, so every run draws the same examples.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from charsums import make_ext, make_field
from charsums.cli import parse_config
from charsums.errors import ConfigInvalid
from charsums.ffield import FieldCtx, power
from charsums.invariance import decompose_homothety
from charsums.localdata import from_poly, t_mul, t_pow
from charsums.polyring import (
    Poly,
    _powmod,
    coeffs_from_text,
    compose,
    derivative,
    divrem,
    poly_from_text,
    poly_to_text,
    shift,
)

FUZZ = settings(derandomize=True, database=None, max_examples=200, deadline=None)

F7 = make_field(7, 1)
F9 = make_field(3, 2)
CTXS = (F7, F9, make_ext(F9, 2))

VALID = (
    {
        "version": 1, "kind": "TransAdd", "p": 7, "r": [1, 2], "d": [3],
        "char": {"b": 1}, "seed": 42, "cap": 1 << 22,
        "poly": {"source": "random", "constraints": {"a_dm1_zero": True}},
    },
    {
        "version": 1, "kind": "HomMult", "p": 3, "s": 2, "r": [2], "e": [2, 4],
        "char": {"m": 2}, "poly": {"source": "explicit", "coeffs": "[1 0],[0 1],[1]"},
    },
    {
        "version": 1, "kind": "WeilAdd", "p": 5, "r": 3, "trials": 2, "workers": 2,
        "poly": {"source": "explicit", "coeffs": "1,0,2,1"},
    },
)
KEYS = ("version", "kind", "p", "s", "r", "d", "e", "char", "poly", "trials", "cap",
        "seed", "workers", "bogus")
NESTED = {"char": ("b", "m", "x"), "poly": ("source", "coeffs", "constraints", "x")}

COEFF_TEXT = st.text(alphabet="0123456789-[] ,x", max_size=24)
SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.sampled_from([0, -1, 2, 9, 2**26, 2**63, 10**30]) | COEFF_TEXT
    | st.sampled_from(["TransAdd", "HomAdd", "random", "explicit"])
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)
MUTATION = st.tuples(st.sampled_from(KEYS), st.sampled_from((None,) + tuple(
    k for ks in NESTED.values() for k in ks)), st.booleans(), JSON)


def _mutate(data: dict, mutation) -> None:
    key, sub, delete, value = mutation
    if sub is not None and sub in NESTED.get(key, ()) and isinstance(data.get(key), dict):
        data, key = data[key], sub
    if delete:
        data.pop(key, None)
    else:
        data[key] = value


@FUZZ
@given(st.sampled_from(VALID), st.lists(MUTATION, max_size=4), st.booleans(), JSON)
def test_parse_config_raises_only_config_invalid(valid, mutations, replace_all, other):
    data = copy.deepcopy(valid)
    for mutation in mutations:
        _mutate(data, mutation)
    try:
        parse_config(other if replace_all else data)
    except ConfigInvalid:
        pass


@FUZZ
@given(st.sampled_from(CTXS), st.data())
def test_poly_text_roundtrip(ctx, data):
    coeffs = data.draw(st.lists(st.integers(0, ctx.size - 1), max_size=7))
    g = Poly.make(ctx, coeffs)
    assert poly_from_text(ctx, poly_to_text(g)) == g


@FUZZ
@given(COEFF_TEXT | st.text(max_size=24), st.sampled_from(CTXS))
def test_coefficient_text_raises_only_value_error(text, ctx):
    try:
        parsed = coeffs_from_text(text)
    except ValueError:
        return
    groups = [c for c in parsed if isinstance(c, list)]
    assert not groups or (len(groups) == len(parsed) and all(groups))
    try:
        poly_from_text(ctx, text)
    except ValueError:
        pass


def _coeff_tuples(ctx, max_size=6):
    return st.lists(st.integers(0, ctx.size - 1), max_size=max_size).map(tuple)


@FUZZ
@given(st.sampled_from(CTXS), st.data())
def test_poly_trims_trailing_zeros_on_construction(ctx, data):
    c = data.draw(_coeff_tuples(ctx))
    padded = Poly(ctx, c + (0,) * data.draw(st.integers(0, 4)))
    assert padded == Poly(ctx, c) and hash(padded) == hash(Poly(ctx, c))
    assert padded.degree == max((i for i, v in enumerate(c) if v), default=-1)


@FUZZ
@given(st.sampled_from(CTXS), st.data())
def test_poly_operations_never_end_in_zero(ctx, data):
    f, g = (Poly(ctx, data.draw(_coeff_tuples(ctx))) for _ in range(2))
    c = data.draw(st.integers(0, ctx.size - 1))
    results = [f + g, f - g, f * g, compose(f, g), shift(f, c), derivative(f), f.scale(0)]
    if not g.is_zero:
        results += divrem(f, g)
    # f(x^n) for n = (q - 1)/e has every exponent divisible by n
    q = ctx.size if isinstance(ctx, FieldCtx) else ctx.base.size
    e = data.draw(st.sampled_from([e for e in range(1, q) if (q - 1) % e == 0]))
    n = (q - 1) // e
    spread = [0] * (n * len(f.coeffs))
    spread[::n] = f.coeffs
    results.append(decompose_homothety(Poly(ctx, tuple(spread)), e))
    for h in results:
        assert not h.coeffs or h.coeffs[-1] != 0, h


def _repeated(mul, one, a, e):
    out = one
    for _ in range(e):
        out = mul(out, a)
    return out


F9_CUBE = make_ext(F9, 3)
M_F7 = Poly(F7, (3, 1, 0, 1))
TAIL = from_poly(Poly(F7, (3, 0, 2, 1)), -5)


def _mulmod(u, v):
    return divrem(u * v, M_F7)[1]


@pytest.mark.parametrize(
    "power_of, reference",
    [
        (lambda e: power(lambda x, y: x * y % 97, 1, 5, e), lambda e: pow(5, e, 97)),
        (lambda e: power(lambda x, y: x * y % 2**61, 1, 3**20 + 1, e),
         lambda e: pow(3**20 + 1, e, 2**61)),
        (lambda e: power(F9.mul, 1, 5, e), lambda e: _repeated(F9.mul, 1, 5, e)),
        (lambda e: F9_CUBE.pow_(500, e), lambda e: _repeated(F9_CUBE.mul, 1, 500, e)),
        (lambda e: _powmod(Poly(F7, (2, 5, 1, 4)), e, M_F7),
         lambda e: _repeated(_mulmod, Poly(F7, (1,)), Poly(F7, (2, 5, 1, 4)), e)),
        (lambda e: t_pow(TAIL, e),
         lambda e: _repeated(t_mul, from_poly(Poly(F7, (1,)), TAIL.o_exp - TAIL.top_exp),
                             TAIL, e)),
    ],
    ids=["Z/97", "Z/2^61", "F_9", "k_3 over F_9", "F_7[x] mod m", "LaurentTail"],
)
def test_power_matches_pow_and_repeated_products(power_of, reference):
    for e in range(41):
        assert power_of(e) == reference(e), e
