"""Invariance decompositions, Artin-Schreier reduction, m-th power test."""

import math
import random

import pytest

from charsums import make_ext, make_field
from charsums.charsum import AdditiveChar, sum_additive
from charsums.errors import NotInvariant, ZeroPoly
from charsums.ffield import FieldCtx
from charsums.invariance import (
    artin_schreier_poly,
    as_reduce,
    decompose_homothety,
    decompose_translation,
    homothety_invariant_pointwise,
    mth_power_test,
)
from charsums.polyring import Poly, compose, is_squarefree, random_poly, root_structure, shift

F5 = make_field(5, 1)
F7 = make_field(7, 1)
F13 = make_field(13, 1)


def test_translation_roundtrip_simple():
    asp = artin_schreier_poly(F5, 5)
    g = Poly.make(F5, (3, 0, 1))  # x^2 + 3
    f = compose(g, asp)
    assert decompose_translation(f) == g

    const = Poly.make(F5, (2,))
    assert decompose_translation(const) == const

    with pytest.raises(NotInvariant):
        decompose_translation(Poly.make(F5, (0, 1)))


def test_translation_decomposition_iff_invariant_exhaustive():
    # over small fields, decomposition succeeds exactly when f(x+a) = f(x)
    # for every a in k (polynomial identity), for random f of degree <= 3q
    for ctx in (F5, F7, make_field(3, 2, seed=0)):
        q = ctx.q
        rng = random.Random(q)
        asp = artin_schreier_poly(ctx, q)
        for trial in range(30):
            if trial % 2 == 0:
                g = random_poly(ctx, rng.randrange(0, 3), rng)
                f = compose(g, asp)
            else:
                f = random_poly(ctx, rng.randrange(1, 3 * q), rng)
            invariant = all(shift(f, a) == f for a in range(q))
            try:
                g_out = decompose_translation(f)
                assert compose(g_out, asp) == f
                ok = True
            except NotInvariant:
                ok = False
            assert ok == invariant


def test_homothety_examples():
    # q = 13, e = 3: exponents divisible by 4
    f = Poly.make(F13, (1, 0, 0, 0, 2, 0, 0, 0, 1))  # x^8 + 2x^4 + 1
    g = decompose_homothety(f, 3)
    assert g.coeffs == (1, 2, 1)
    const = Poly.make(F13, (9,))
    assert decompose_homothety(const, 3) == const
    with pytest.raises(NotInvariant):
        decompose_homothety(Poly.make(F13, (0, 0, 0, 0, 0, 1)), 3)  # x^5
    with pytest.raises(ValueError):
        decompose_homothety(f, 5)  # 5 does not divide 12


def test_homothety_matches_pointwise_invariance():
    rng = random.Random(77)
    ext = make_ext(F13, 2, seed=0)
    for _ in range(40):
        e = rng.choice([2, 3, 4, 6])
        n = 12 // e
        if rng.random() < 0.5:
            g = random_poly(ext, rng.randrange(0, 3), rng)
            f = compose(g, Poly(ext, tuple([0] * n + [1])))
        else:
            f = random_poly(ext, rng.randrange(1, 10), rng)
        invariant = homothety_invariant_pointwise(f, e)
        try:
            g_out = decompose_homothety(f, e)
            rebuilt = compose(g_out, Poly(ext, tuple([0] * n + [1])))
            assert rebuilt == f
            ok = True
        except NotInvariant:
            ok = False
        assert ok == invariant


def test_as_reduce_x_p_canonical():
    psi = AdditiveChar.canonical(F5)
    f = Poly.make(F5, (0, 0, 0, 0, 0, 1))  # x^5
    red = as_reduce(f, psi)
    assert red.reduced.coeffs == (0, 1)  # a = 1, so x^5 ~ x
    assert red.d_prime == 1
    assert red.steps == ((5, 1),)


def test_as_reduce_xp_plus_x_and_constant():
    psi = AdditiveChar.canonical(F5)
    f = Poly.make(F5, (0, 1, 0, 0, 0, 1))  # x^5 + x
    red = as_reduce(f, psi)
    assert red.reduced.coeffs == (0, 2)
    assert red.d_prime == 1

    g = Poly.make(F5, (0, 4, 0, 0, 0, 1))  # x^5 - x
    red = as_reduce(g, psi)
    assert red.reduced.is_zero and red.d_prime == 0
    # the sum is exactly q^r in that case
    ext = make_ext(F5, 2)
    s = sum_additive(g, psi, ext)
    assert abs(s - 25) < 1e-9


def test_as_reduce_preserves_sums():
    rng = random.Random(31)
    for p in (3, 5, 7):
        ctx = make_field(p, 1)
        psi = AdditiveChar.canonical(ctx)
        for r in (1, 2):
            ext = make_ext(ctx, r)
            for _ in range(5):
                f = random_poly(ctx, rng.randrange(p, 3 * p), rng)
                red = as_reduce(f, psi)
                s1 = sum_additive(f, psi, ext)
                s2 = sum_additive(red.reduced, psi, ext)
                assert abs(s1 - s2) <= 1e-6 * math.sqrt(ctx.q**r)


def test_as_reduce_preserves_character_pointwise():
    # stronger than sum equality: psi(Tr f(x)) matches psi(Tr reduced(x))
    # at every point of k_r
    from charsums.polyring import evaluate
    from charsums import FqElem, elements, trace

    rng = random.Random(55)
    ctx = F5
    psi = AdditiveChar.canonical(ctx)
    for r in (1, 2):
        ext = make_ext(ctx, r)
        for _ in range(5):
            f = random_poly(ctx, rng.randrange(5, 12), rng)
            red = as_reduce(f, psi)
            for x in elements(ext):
                a = trace(evaluate(f, x, ext=ext), ext).val
                b = trace(evaluate(red.reduced, x, ext=ext), ext).val
                assert abs(psi.value(a) - psi.value(b)) < 1e-12


@pytest.mark.parametrize(
    "p, s, seed", [(3, 2, 0), (2, 3, 1), (3, 3, 1), (5, 2, 1), (3, 2, 1)],
    ids=["F9", "F8-seed1", "F27-seed1", "F25-seed1", "F9-seed1"],
)
def test_as_reduce_twisted_character(p, s, seed):
    # psi_b with b != 1: the twist constant must satisfy psi(t^p) = psi(a t)
    from charsums.invariance import _twist_constant

    ctx = make_field(p, s, seed=seed)
    for b in range(1, ctx.q):
        psi = AdditiveChar(ctx, b)
        a = _twist_constant(psi)
        tab = psi.table()
        for t in range(ctx.q):
            assert abs(tab[ctx.pow_(t, p)] - tab[ctx.mul(a, t)]) < 1e-12


def test_reduced_degree_of_composed_polynomial():
    # Artin-Schreier-reduced degree of g(x^q - x) is q(d-1)+1 for p not
    # dividing d and d >= 2
    rng = random.Random(8)
    for ctx in (F5, F7):
        q = ctx.q
        psi = AdditiveChar.canonical(ctx)
        asp = artin_schreier_poly(ctx, q)
        for _ in range(10):
            d = rng.choice([2, 3, 4])
            if d % ctx.p == 0:
                continue
            g = random_poly(ctx, d, rng)
            f = compose(g, asp)
            red = as_reduce(f, psi)
            assert red.d_prime == q * (d - 1) + 1


def test_mth_power_examples():
    sq = Poly.make(F7, (1, 0, 1))
    f = sq * sq  # (x^2+1)^2
    assert mth_power_test(f, 2) == (True, 2)
    assert mth_power_test(sq, 2) == (False, 2)
    assert mth_power_test(Poly.make(F7, (4,)), 3) == (True, 0)


def test_mth_power_against_splitting_oracle():
    # oracle: enumerate roots with multiplicity in a small splitting extension
    rng = random.Random(14)
    for _ in range(30):
        ctx = F7
        factors = [random_poly(ctx, 1, rng, monic=True) for _ in range(rng.randrange(1, 4))]
        mults = [rng.randrange(1, 5) for _ in factors]
        f = Poly.make(ctx, (rng.randrange(1, 7),))
        for fac, m in zip(factors, mults):
            for _ in range(m):
                f = f * fac
        for m in (2, 3):
            got = mth_power_test(f, m)
            # splitting oracle over an extension where f certainly splits
            ext = make_ext(ctx, 2, seed=0)
            rs = root_structure(f, ext)
            assert rs.splits_completely
            expect_power = all(mm % m == 0 for mm in rs.multiplicities)
            assert got == (expect_power, len(rs.roots))


def test_memoized_analyses_equal_fresh_computation():
    # is_squarefree, as_reduce and mth_power_test keep their answers: on g
    # over k and over k_r each must equal the undecorated function, also
    # for an equal g built apart, squares and p-th powers included
    rng = random.Random(27)
    for ctx in (F7, make_field(3, 2), make_ext(F5, 2), make_ext(make_field(2, 2), 3)):
        p = ctx.p
        for _ in range(12):
            g = random_poly(ctx, rng.randrange(1, 7), rng, monic=rng.random() < 0.5)
            # g(x^p): the leading degree is divisible by p
            frob = Poly(ctx, tuple(0 if i % p else g.coeff(i // p) for i in range(p * g.degree + 1)))
            for h in (g, g * g, frob):
                twin = Poly(ctx, tuple(h.coeffs))
                assert is_squarefree(h) == is_squarefree.__wrapped__(h) == is_squarefree(twin)
                for m in (1, 2, 3):
                    fresh = mth_power_test.__wrapped__(h, m)
                    assert mth_power_test(h, m) == fresh == mth_power_test(twin, m)
                if isinstance(ctx, FieldCtx):
                    psi = AdditiveChar(ctx, rng.randrange(1, ctx.q))
                    assert as_reduce(h, psi) == as_reduce.__wrapped__(h, psi) == as_reduce(twin, psi)
            assert not is_squarefree(g * g)


def test_memoized_analyses_raise_on_the_zero_polynomial_every_call():
    for ctx in (F7, make_ext(F5, 2)):
        zero = Poly.zero(ctx)
        for _ in range(3):
            with pytest.raises(ZeroPoly):
                is_squarefree(zero)
            with pytest.raises(ZeroPoly):
                mth_power_test(zero, 2)
