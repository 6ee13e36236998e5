"""Polynomial ring: division, resultants, discriminants, shifts, roots."""

import random
from itertools import product

import pytest

from charsums import AdditiveChar, FqElem, make_ext, make_field, sum_additive
from charsums.charsum import weil_descent_check
from charsums.errors import (
    CtxMismatch,
    DegenerateDerivative,
    DivByZeroPoly,
    FieldTooLarge,
    ZeroPoly,
)
from charsums.ffield import factorize
from charsums.polyring import (
    Parity,
    Poly,
    coeffs_from_text,
    compose,
    derivative,
    discriminant,
    divrem,
    evaluate,
    gcd,
    is_irreducible,
    is_squarefree,
    lift,
    parity_check,
    poly_from_text,
    poly_to_text,
    random_poly,
    resultant,
    root_structure,
    shift,
    split_power_of_x,
    squarefree_decomposition,
)

F5 = make_field(5, 1)
F7 = make_field(7, 1)
F13 = make_field(13, 1)
F9 = make_field(3, 2, seed=0)


def sylvester_resultant(f: Poly, g: Poly) -> int:
    """Determinant-of-Sylvester oracle via Gaussian elimination."""
    ctx = f.ctx
    m, n = f.degree, g.degree
    size = m + n
    rows = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(n):
        rows.append([0] * i + fc + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + gc + [0] * (size - n - 1 - i))
    det = 1
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = ctx.neg(det)
        det = ctx.mul(det, rows[col][col])
        inv = ctx.inv(rows[col][col])
        for r in range(col + 1, size):
            if rows[r][col]:
                factor = ctx.mul(rows[r][col], inv)
                rows[r] = [ctx.sub(a, ctx.mul(factor, b)) for a, b in zip(rows[r], rows[col])]
    return det


def test_evaluate_examples():
    f = Poly.make(F7, (1, 0, 1))  # x^2 + 1
    assert evaluate(f, FqElem(F7, 0)).val == 1
    g = Poly.make(F13, (12, 0, 0, 1))  # x^3 - 1
    assert evaluate(g, FqElem(F13, 3)).val == 0
    # evaluation over an extension is a homomorphism
    e2 = make_ext(F7, 2)
    x = FqElem(e2, 23)
    fx = evaluate(f, x, ext=e2)
    assert fx.val == e2.add(e2.mul(x.val, x.val), 1)


def test_divrem_examples():
    x2 = Poly.make(F7, (0, 0, 1))
    x = Poly.make(F7, (0, 1))
    q, r = divrem(x2, x)
    assert q.coeffs == (0, 1) and r.is_zero

    f = Poly.make(F7, (3, 1, 4))
    one = Poly.make(F7, (1,))
    q, r = divrem(f, one)
    assert q == f and r.is_zero

    # (x^5 - x + 2, x^5 - x) over F_5 -> (1, 2)
    a = Poly.make(F5, (2, 4, 0, 0, 0, 1))
    b = Poly.make(F5, (0, 4, 0, 0, 0, 1))
    q, r = divrem(a, b)
    assert q.coeffs == (1,) and r.coeffs == (2,)

    with pytest.raises(DivByZeroPoly):
        divrem(a, Poly.zero(F5))


def test_divrem_property_random():
    rng = random.Random(0)
    for _ in range(200):
        f = random_poly(F13, rng.randrange(0, 8), rng)
        g = random_poly(F13, rng.randrange(0, 5), rng)
        q, r = divrem(f, g)
        assert g * q + r == f
        assert r.is_zero or r.degree < g.degree


def test_resultant_degree_one_is_evaluation():
    rng = random.Random(1)
    for _ in range(100):
        a = rng.randrange(7)
        g = random_poly(F7, rng.randrange(1, 6), rng)
        lin = Poly.make(F7, (F7.neg(a), 1))
        assert resultant(lin, g).val == evaluate(g, FqElem(F7, a)).val


def test_resultant_constant_case():
    f = Poly.make(F7, (1, 2, 3))
    c = Poly.make(F7, (4,))
    assert resultant(f, c).val == F7.pow_(4, 2)


@pytest.mark.parametrize("ctx", [F7, F13, F9])
def test_resultant_matches_sylvester_oracle(ctx):
    rng = random.Random(42)
    for _ in range(500):
        f = random_poly(ctx, rng.randrange(1, 6), rng)
        g = random_poly(ctx, rng.randrange(1, 6), rng)
        assert resultant(f, g).val == sylvester_resultant(f, g)


def test_resultant_swap_and_multiplicativity():
    rng = random.Random(3)
    for _ in range(200):
        f = random_poly(F13, rng.randrange(1, 5), rng)
        g = random_poly(F13, rng.randrange(1, 5), rng)
        h = random_poly(F13, rng.randrange(1, 4), rng)
        sign = F13.neg(1) if (f.degree * g.degree) % 2 else 1
        assert resultant(f, g).val == F13.mul(sign, resultant(g, f).val)
        assert resultant(f, g * h).val == F13.mul(resultant(f, g).val, resultant(f, h).val)
    with pytest.raises(ZeroPoly):
        resultant(Poly.zero(F13), f)


def test_discriminant_quadratic_and_cubic():
    rng = random.Random(4)
    for _ in range(100):
        b, c = rng.randrange(13), rng.randrange(13)
        g = Poly.make(F13, (c, b, 1))
        expect = F13.sub(F13.mul(b, b), F13.mul(4, c))
        assert discriminant(g).val == expect
    # disc(x^3 - 1) over F_13 = -27 = 12
    assert discriminant(Poly.make(F13, (12, 0, 0, 1))).val == 12
    # repeated root
    assert discriminant(Poly.make(F13, (1, 11, 1))).val == F13.sub(F13.mul(11, 11), 4)
    sq = Poly.make(F13, (1, 11, 1))  # (x-1)^2 = x^2 - 2x + 1
    assert discriminant(Poly.make(F13, (1, F13.neg(2), 1))).val == 0
    with pytest.raises(DegenerateDerivative):
        discriminant(random_poly(F5, 5, random.Random(0), monic=True))


def test_discriminant_iff_squarefree():
    rng = random.Random(5)
    for _ in range(500):
        d = rng.choice([2, 3, 4])
        g = random_poly(F7, d, rng)
        if g.degree % 7 == 0:
            continue
        assert (discriminant(g).val == 0) == (not is_squarefree(g))


def test_shift_examples_and_group_action():
    g = Poly.make(F13, (0, 0, 1))
    assert shift(g, 1).coeffs == (1, 2, 1)
    assert shift(g, 0) == g
    rng = random.Random(6)
    for _ in range(200):
        g = random_poly(F13, rng.randrange(1, 6), rng)
        c1, c2 = rng.randrange(13), rng.randrange(13)
        assert shift(shift(g, c2), c1) == shift(g, F13.add(c1, c2))
        assert shift(shift(g, c1), F13.neg(c1)) == g
        d = g.degree
        shifted = shift(g, c1)
        expect = F13.add(g.coeff(d - 1), F13.mul(d % 13, F13.mul(g.lead, c1)))
        assert shifted.coeff(d - 1) == expect


def test_squarefree_examples():
    assert is_squarefree(Poly.make(F7, (1, 0, 1)))
    assert not is_squarefree(Poly.make(F7, (1, F7.neg(2), 1)))  # (x-1)^2
    # x^p - a has zero derivative
    xp = Poly.make(F5, (3, 0, 0, 0, 0, 1))
    assert not is_squarefree(xp)


def test_roots_examples():
    g = Poly.make(F13, (12, 0, 0, 1))  # x^3 - 1
    assert sorted(r.val for r in root_structure(g, F13).roots) == [1, 3, 9]
    assert root_structure(Poly.make(F7, (1, 0, 1)), F7).roots == []
    rs = root_structure(Poly.make(F7, (0, 0, 1)), F7)
    assert [r.val for r in rs.roots] == [0] and rs.multiplicities == [2]
    assert rs.splits_completely
    # x^2 + 1 splits in F_49
    e2 = make_ext(F7, 2)
    rs2 = root_structure(Poly.make(F7, (1, 0, 1)), e2)
    assert len(rs2.roots) == 2 and rs2.splits_completely


def test_roots_cap():
    big = make_field(1021, 1)
    e2 = make_ext(big, 2)
    with pytest.raises(FieldTooLarge):
        root_structure(Poly.make(big, (1, 1)), e2)


def test_parity_check():
    assert parity_check(Poly.make(F7, (0, 1, 0, 1))) == Parity.ODD
    assert parity_check(Poly.make(F7, (1, 0, 3, 0, 1))) == Parity.EVEN
    assert parity_check(Poly.make(F7, (6, 0, 0, 1))) == Parity.NEITHER


def test_squarefree_decomposition_known_structures():
    rng = random.Random(9)
    for _ in range(100):
        # build f = (x - a)^e1 * (x - b)^e2 with distinct a, b
        a = rng.randrange(7)
        b = (a + rng.randrange(1, 7)) % 7
        e1 = rng.choice([1, 2, 3, 7, 14])
        e2 = rng.choice([1, 2, 5])
        la = Poly.make(F7, (F7.neg(a), 1))
        lb = Poly.make(F7, (F7.neg(b), 1))
        f = Poly.make(F7, (1,))
        for _ in range(e1):
            f = f * la
        for _ in range(e2):
            f = f * lb
        parts = squarefree_decomposition(f)
        got = {}
        for part, mult in parts:
            for root in root_structure(part, F7).roots:
                got[root.val] = mult
        expect = {a: e1, b: e2}
        if e1 == e2:
            expect = {a: e1, b: e1}
        assert got == expect
        # roundtrip
        rebuilt = Poly.make(F7, (f.lead,))
        for part, mult in parts:
            for _ in range(mult):
                rebuilt = rebuilt * part
        assert rebuilt == f


def test_split_power_of_x():
    g = Poly.make(F7, (0, 0, 3, 1))
    a, g0 = split_power_of_x(g)
    assert a == 2 and g0.coeffs == (3, 1)
    a, g0 = split_power_of_x(Poly.make(F7, (5,)))
    assert a == 0 and g0.coeffs == (5,)


def test_compose_and_evaluate_agree():
    rng = random.Random(11)
    for _ in range(50):
        f = random_poly(F7, rng.randrange(0, 4), rng)
        g = random_poly(F7, rng.randrange(1, 4), rng)
        h = compose(f, g)
        for v in range(7):
            x = FqElem(F7, v)
            assert evaluate(h, x).val == evaluate(f, evaluate(g, x)).val


def test_text_format_roundtrip():
    g = Poly.make(F13, (12, 0, 0, 1))
    assert poly_to_text(g) == "12,0,0,1"
    assert poly_from_text(F13, "12,0,0,1") == g
    e2 = make_ext(F7, 2)
    h = Poly.make(e2, (FqElem(e2, 10), FqElem(e2, 0), FqElem(e2, 3)))
    text = poly_to_text(h)
    assert poly_from_text(e2, text) == h


def test_gcd_and_derivative_basics():
    f = Poly.make(F7, (6, 0, 1))  # x^2 - 1
    g = Poly.make(F7, (6, 1))  # x - 1
    assert gcd(f, g) == g.monic()
    assert derivative(Poly.make(F5, (1, 0, 0, 0, 0, 1))).is_zero  # d/dx (x^5+1) = 0


@pytest.mark.parametrize(
    "text, parsed",
    [
        ("12,0,0,1", [12, 0, 0, 1]),
        (" 1, -2 ,3 ", [1, -2, 3]),
        ("[1 0], [0 1]", [[1, 0], [0, 1]]),
        ("", []),
    ],
)
def test_coeffs_from_text_accepts_ints_or_groups(text, parsed):
    assert coeffs_from_text(text) == parsed


@pytest.mark.parametrize(
    "text",
    ["[1 0],[0 1],5", "1,[2]", "[1 2", "[],[]", "[ ]", "[1][2]", "1,,2", "1]", "[1 x]"],
)
def test_coeffs_from_text_rejects_partial_or_mixed_text(text):
    # each of these used to parse to a prefix or a subset of its groups
    with pytest.raises(ValueError):
        coeffs_from_text(text)


def _text_ctx(p, s, r):
    base = make_field(p, s, seed=0)
    return base if r is None else make_ext(base, r)


@pytest.mark.parametrize(
    "p, s, r, text",
    [
        (7, 1, None, "[3 4],[1]"),  # read as 3 + x
        (7, 1, None, "[7]"),
        (7, 1, None, "[-1]"),
        (3, 2, None, "[4 0]"),  # read as 1
        (3, 2, None, "[1 0 1]"),
        (7, 1, 2, "[8 0]"),
        (7, 1, 2, "[1 2 3]"),
    ],
)
def test_poly_from_text_rejects_groups_outside_the_field(p, s, r, text):
    with pytest.raises(ValueError):
        poly_from_text(_text_ctx(p, s, r), text)


@pytest.mark.parametrize(
    "p, s, r, text, coeffs",
    [
        (7, 1, None, "[3],[6]", (3, 6)),
        (3, 2, None, "[2 1],[0]", (5,)),
        (3, 2, None, "[1]", (1,)),
        (7, 1, 2, "[6 6],[1]", (48, 1)),
    ],
)
def test_poly_from_text_reads_groups_inside_the_field(p, s, r, text, coeffs):
    ctx = _text_ctx(p, s, r)
    assert poly_from_text(ctx, text) == Poly.make(ctx, coeffs)


def _gauss_count(q: int, n: int) -> int:
    """Monic irreducibles of degree n over F_q: (1/n) sum_{d | n} mu(d) q^(n/d)."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            primes = factorize(d)
            if all(d % (ell * ell) for ell in primes):  # mu(d) != 0
                total += (-1) ** len(primes) * q ** (n // d)
    return total // n


@pytest.mark.parametrize(
    "build, max_n",
    [
        (lambda: make_field(2, 1), 6),
        (lambda: make_field(3, 1), 4),
        (lambda: make_field(2, 2), 3),
        (lambda: make_ext(make_field(2, 1), 2), 3),
        (lambda: make_field(5, 1), 3),
        (lambda: make_field(3, 2), 2),
    ],
    ids=["F2", "F3", "F4", "F4-as-extension", "F5", "F9"],
)
def test_is_irreducible_counts_match_gauss(build, max_n):
    ctx = build()
    q = ctx.size
    for n in range(1, max_n + 1):
        count = sum(
            is_irreducible(Poly(ctx, low + (1,))) for low in product(range(q), repeat=n)
        )
        assert count == _gauss_count(q, n), n


def test_is_irreducible_degree_one_and_below():
    for c in range(7):
        assert is_irreducible(Poly.make(F7, (c, 1)))
        assert is_irreducible(Poly.make(F7, (c, 3)))  # not monic
    assert not is_irreducible(Poly.make(F7, (3,)))
    assert not is_irreducible(Poly.zero(F7))
    assert is_irreducible(Poly.make(F7, (1, 0, 1)))  # -1 is not a square mod 7
    assert not is_irreducible(Poly.make(F7, (3, 0, 1)))  # -3 = 4 = 2^2


def test_lift_reads_base_polynomials_in_the_extension():
    e3 = make_ext(F7, 3)
    f = Poly.make(F7, (3, 0, 1))
    assert lift(f, F7) is f
    assert lift(f, e3) == Poly(e3, f.coeffs)
    h = lift(f, e3)
    assert lift(h, e3) is h
    for fld in (F13, make_ext(F13, 2), make_ext(F9, 2)):
        with pytest.raises(CtxMismatch):
            lift(f, fld)
    with pytest.raises(CtxMismatch):
        lift(h, F7)  # no way down from k_r to k


def test_callers_of_lift_keep_their_ctx_mismatch():
    e2 = make_ext(F7, 2)
    foreign = Poly.make(F13, (1, 0, 1))
    with pytest.raises(CtxMismatch):
        evaluate(foreign, FqElem(e2, 3), ext=e2)
    with pytest.raises(CtxMismatch):
        root_structure(foreign, e2)
    with pytest.raises(CtxMismatch):
        sum_additive(foreign, AdditiveChar.canonical(F7), e2)
    with pytest.raises(CtxMismatch):
        weil_descent_check(foreign, e2, [FqElem(e2, 1), FqElem(e2, 7)], trials=1)
