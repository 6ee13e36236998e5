"""Property tests: config validation and the coefficient text format.

Derandomized, so every run draws the same examples.
"""

import copy

from hypothesis import given, settings, strategies as st

from charsums import make_ext, make_field
from charsums.cli import parse_config
from charsums.errors import ConfigInvalid
from charsums.polyring import Poly, coeffs_from_text, poly_from_text, poly_to_text

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
