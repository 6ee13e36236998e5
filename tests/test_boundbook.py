"""Bound constants, resultant sequence, main terms and hypothesis gates."""

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from charsums import make_ext, make_field
from charsums.boundbook import (
    all_power_roots_in_field,
    bound_constant_additive,
    bound_constant_multiplicative,
    homothety_bound,
    homothety_fiber_bound,
    local_b0,
    main_term_additive_sl,
    main_term_additive_sp,
    main_term_multiplicative,
    odd_shift_data,
    report_translation_additive,
    report_translation_multiplicative,
    report_weil_additive,
    report_weil_multiplicative,
    resultant_sequence,
    resultant_sequence_value_at_zero,
    weil_bound_additive,
    weil_bound_multiplicative,
)
from charsums.charsum import AdditiveChar, MultChar, gauss_sum
from charsums.errors import (
    DegenerateReduction,
    HypothesisFailed,
    MthPower,
    NotExceptionalCell,
    RootsNotInBaseField,
    SequenceMismatch,
)
from charsums.localdata import compute_local_data, root_branches
from charsums import boundbook, ffield
from charsums.polyring import Poly, evaluate, random_poly, root_structure

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F5 = make_field(5, 1)
F7 = make_field(7, 1)
F8 = make_field(2, 3)
F9 = make_field(3, 2)
F13 = make_field(13, 1)


def test_weil_bound_formulas():
    assert weil_bound_additive(1, 7, 2) == 0.0
    assert weil_bound_additive(3, 7, 2) == pytest.approx(14.0)
    with pytest.raises(DegenerateReduction):
        weil_bound_additive(0, 7, 1)
    assert weil_bound_multiplicative(1, 7, 1) == 0.0
    assert weil_bound_multiplicative(2, 7, 1) == pytest.approx(math.sqrt(7))
    with pytest.raises(MthPower):
        weil_bound_multiplicative(2, 7, 1, is_mth_power=True)


def test_bound_constant_additive_frozen():
    assert bound_constant_additive(3, 2) == 2
    assert bound_constant_additive(2, 1) == 1
    assert bound_constant_additive(5, 4) == Fraction(130, 4)
    assert bound_constant_additive(4, 3) == 7
    for d in range(2, 9):
        prev = None
        for r in range(1, 9):
            c = bound_constant_additive(d, r)
            assert c >= 0
            if prev is not None:
                assert c >= prev  # empirical monotonicity on the desk grid
            prev = c


def test_bound_constant_multiplicative_frozen():
    # d=1, r=1: single surviving i=0 term equal to 1
    assert bound_constant_multiplicative(1, 1) == 1
    # d=2, r=2: i=0 gives 2, i=1 gives 0, i=2 gives C(1,0)C(2,2)-C(0,0)C(1,2) = 1
    assert bound_constant_multiplicative(2, 2) == 3
    assert bound_constant_multiplicative(3, 2) == 5
    assert bound_constant_multiplicative(3, 3) == 15
    for d in range(1, 9):
        for r in range(1, 9):
            assert bound_constant_multiplicative(d, r) >= 0


def test_resultant_sequence_base_cases():
    g = Poly.make(F13, (12, 0, 0, 1))
    assert resultant_sequence(g, 1) == g
    # g = x - c  ->  g_2 = x - 2c
    for c in range(13):
        lin = Poly.make(F13, (F13.neg(c), 1))
        g2 = resultant_sequence(lin, 2)
        assert g2.degree == 1
        assert sorted(r.val for r in root_structure(g2, F13).roots) == [(2 * c) % 13]


def test_resultant_sequence_root_sets():
    # roots of g_n are the n-fold sums of roots of g
    g = Poly.make(F13, (12, 0, 0, 1))  # roots 1, 3, 9
    g2 = resultant_sequence(g, 2)
    got = sorted(r.val for r in root_structure(g2, F13).roots)
    expect = sorted({(a + b) % 13 for a in (1, 3, 9) for b in (1, 3, 9)})
    assert got == expect == [2, 4, 5, 6, 10, 12]

    # degree-2 splitting case, degree 4 and 8 sequence terms over F_5
    h = Poly.make(F5, (2, 2, 1))  # (x-1)(x-2) = x^2 - 3x + 2
    assert sorted(r.val for r in root_structure(h, F5).roots) == [1, 2]
    h2 = resultant_sequence(h, 2)
    got = sorted(r.val for r in root_structure(h2, F5).roots)
    assert got == sorted({2, 3, 4})

    # three-fold sums
    h3 = resultant_sequence(h, 3)
    expect3 = sorted({(a + b + c) % 5 for a in (1, 2) for b in (1, 2) for c in (1, 2)})
    assert sorted(set(r.val for r in root_structure(h3, F5).roots)) == expect3

    # degree 4 with distinct roots: g_2 has degree 16 > 13
    roots4 = (1, 2, 5, 11)
    g4 = Poly.make(F13, (1,))
    for rt in roots4:
        g4 = g4 * Poly.make(F13, (F13.neg(rt), 1))
    g4_2 = resultant_sequence(g4, 2)
    assert g4_2.degree == 16
    got = sorted(set(r.val for r in root_structure(g4_2, F13).roots))
    expect = sorted({(a + b) % 13 for a in roots4 for b in roots4})
    assert got == expect


def test_resultant_sequence_value_at_zero_consistent():
    rng = random.Random(5)
    for _ in range(20):
        g = random_poly(F7, rng.randrange(1, 4), rng)
        for n in (1, 2, 3):
            gn = resultant_sequence(g, n)
            v = resultant_sequence_value_at_zero(g, n)
            assert v == evaluate(gn, __import__("charsums").FqElem(F7, 0)).val


def _gate_cases(ctx, rng):
    """Non-monic quadratics and cubics over ctx, two of them with a double root."""
    lin = [random_poly(ctx, 1, rng) for _ in range(3)]
    c = Poly.make(ctx, (rng.randrange(2, ctx.size),))  # a lead other than 1
    return [
        c * lin[0] * lin[1],  # square-free unless the two roots coincide
        c * lin[0] * lin[0],  # a double root
        random_poly(ctx, 3, rng, monic=False),
        c * lin[0] * lin[0] * lin[2],  # a cubic with a double root
    ]


@pytest.mark.parametrize("ctx", [F5, F7, F9, F4, F8], ids=["F5", "F7", "F9", "F4", "F8"])
def test_halved_gate_equals_full_sequence(ctx):
    # g_n(0) from g_floor(n/2) and g_ceil(n/2) against g_n itself; the gate
    # runs before square-freeness is enforced, so double roots are included
    rng = random.Random(ctx.size)
    values = []
    for g in _gate_cases(ctx, rng):
        for n in range(2, 6 if g.degree == 2 else 4):
            v = resultant_sequence_value_at_zero(g, n)
            assert v == resultant_sequence(g, n).coeff(0), (g, n)
            values.append(v)
    assert any(values)


@pytest.mark.parametrize(
    "ctx, roots, lead",
    [(F5, (0, 1, 3), 2), (F7, (1, 2, 6), 3), (F7, (2, 5), 4), (F13, (1, 3, 9, 11), 1)],
)
def test_halved_gate_equals_product_over_tuples(ctx, roots, lead):
    g = _tuple_sum_product(ctx, roots, 1, lead=lead)
    for n in range(2, 6 if len(roots) < 4 else 4):
        lead_n = ctx.pow_(lead, n * len(roots) ** (n - 1))
        want = _tuple_sum_product(ctx, roots, n, lead=lead_n).coeff(0)
        assert resultant_sequence_value_at_zero(g, n) == want


@pytest.mark.parametrize("d, n, steps", [(5, 4, [25]), (3, 5, [9, 27]), (3, 4, [9])])
def test_halved_gate_stops_at_degree_d_to_ceil_half_n(monkeypatch, d, n, steps):
    # the sequence is built to g_ceil(n/2) only: never g_(n-1) of degree d^(n-1)
    real_step = boundbook._sequence_step
    targets = []

    def recording_step(gn, g):
        targets.append(gn.degree * g.degree)
        return real_step(gn, g)

    monkeypatch.setattr(boundbook, "_sequence_step", recording_step)
    resultant_sequence_value_at_zero(random_poly(F7, d, random.Random(d * n)), n)
    assert targets == steps and max(targets) == d ** ((n + 1) // 2)


def _tuple_sum_product(ctx, roots, n, lead=1):
    """lead * prod over ordered n-tuples of roots of (x - sum), over k."""
    out = Poly.make(ctx, (lead,))
    for tup in itertools.product(roots, repeat=n):
        out = out * Poly.make(ctx, (ctx.neg(sum(tup) % ctx.p), 1))
    return out


@pytest.mark.parametrize(
    "ctx, roots, n",
    [
        (F5, (0, 1, 3), 3),  # a zero root; 27 root sums take 5 values
        (F7, (1, 2, 4), 3),  # deg 27 > 7: repeated eigenvalues of the Kronecker sum
        (F13, (1, 3, 9, 11), 2),  # a quartic: a 16 x 16 Kronecker sum
        (F13, (2, 5, 7), 2),  # deg 9 < 13
    ],
)
def test_resultant_sequence_exact_product_over_tuples(ctx, roots, n):
    # exact oracle: coefficients, constants and multiplicities, not root sets
    g = _tuple_sum_product(ctx, roots, 1)
    assert resultant_sequence(g, n).coeffs == _tuple_sum_product(ctx, roots, n).coeffs


SEQUENCES = json.loads((Path(__file__).parent / "data" / "sequence_coefficients.json").read_text())


@pytest.mark.parametrize("case", SEQUENCES, ids=[c["name"] for c in SEQUENCES])
def test_resultant_sequence_matches_recorded_coefficients(case):
    # g that do not split over k, so no product over tuples of roots in k
    # can check them: g_n as recorded by interpolation on extensions of k
    ctx = make_field(case["p"], case["s"])
    g = Poly(ctx, tuple(case["g"]))
    for n, coeffs in case["g_n"].items():
        assert resultant_sequence(g, int(n)).coeffs == tuple(coeffs), n


def test_resultant_sequence_leading_coefficient_non_monic():
    # g = c * prod (x - a) gives g_n = c^(n d^(n-1)) * prod over n-tuples
    roots, c = (1, 2, 6), 3
    for n in (2, 3):
        g = _tuple_sum_product(F7, roots, 1, lead=c)
        lead = F7.pow_(c, n * len(roots) ** (n - 1))
        assert resultant_sequence(g, n) == _tuple_sum_product(F7, roots, n, lead=lead)


# HESSENBERG_MAX_DEGREE values that send every step down one route, and the
# function that gives that route's product before scaling
ROUTES = {"hessenberg": (math.inf, "_charpoly"), "chain": (-1, "_resultant_kx")}


def _by_each_route(monkeypatch, fn, *args):
    """fn(*args) with every step on the Hessenberg route, then on the chain."""
    out = []
    for bound, _ in ROUTES.values():
        monkeypatch.setattr(boundbook, "HESSENBERG_MAX_DEGREE", bound)
        out.append(fn(*args))
    return out


def test_sequence_step_rejects_wrong_degree_or_leading_coefficient(monkeypatch):
    # corruptions of either route's product, the characteristic polynomial
    # over k or the resultant over k[x], caught by the resultants over k at
    # x = 0 and x = 1
    g = Poly.make(F7, (3, 0, 5, 1))
    good = resultant_sequence(g, 2)
    changes = [
        lambda ctx, c: c[:-1],  # degree one lower
        lambda ctx, c: c[:-1] + [ctx.add(c[-1], c[-1])],  # leading coefficient doubled
        lambda ctx, c: [ctx.add(c[0], 1)] + c[1:],  # constant term
        lambda ctx, c: c[:4] + [ctx.add(c[4], 3)] + c[5:],  # a middle coefficient
        lambda ctx, c: c[::-1],  # reversed
    ]

    def corrupt(real, change):
        def bad(*args):
            return Poly(F7, tuple(change(F7, list(real(*args).coeffs))))

        return bad

    for bound, name in ROUTES.values():
        real = getattr(boundbook, name)
        monkeypatch.setattr(boundbook, "HESSENBERG_MAX_DEGREE", bound)
        for change in changes:
            monkeypatch.setattr(boundbook, name, corrupt(real, change))
            with pytest.raises(SequenceMismatch):
                resultant_sequence(g, 2)
        monkeypatch.setattr(boundbook, name, real)
        assert resultant_sequence(g, 2) == good


@pytest.mark.parametrize(
    "ctx", [F2, F3, F4, F5, F7, F9, F13], ids=["F2", "F3", "F4", "F5", "F7", "F9", "F13"]
)
def test_both_routes_give_the_same_step(ctx, monkeypatch):
    # first steps (g_n = g: the Kronecker sum has the repeated eigenvalues
    # a + b = b + a), a g_n of lower degree than g, monic and non-monic g,
    # the steps with D d = 0 and 1, and second and third steps through the
    # whole sequence
    rng = random.Random(ctx.size)
    step = boundbook._sequence_step
    cases = []
    for d in range(1, 7):
        for monic in (True, False):
            g = random_poly(ctx, d, rng, monic=monic)
            cases.append((g, g))
            if d > 1:
                cases.append((random_poly(ctx, rng.randrange(1, d), rng, monic=not monic), g))
    const, lin = Poly(ctx, (rng.randrange(1, ctx.size),)), random_poly(ctx, 1, rng)
    cases += [(const, lin), (lin, const), (const, const), (lin, lin)]
    for gn, g in cases:
        hess, chain = _by_each_route(monkeypatch, step, gn, g)
        assert hess == chain, (gn, g)
    for d in (1, 2, 3, 4):
        g = random_poly(ctx, d, rng)
        hess, chain = _by_each_route(monkeypatch, resultant_sequence, g, 3)
        assert hess == chain and hess.degree == d**3, g


@pytest.mark.parametrize("ctx", [F5, F4], ids=["F5", "F4"])
def test_charpoly_is_the_laplace_determinant(ctx):
    # det(x I - m) by the Hessenberg form against expansion, on sparse
    # matrices too: row swaps and zero subdiagonal entries
    rng = random.Random(ctx.size)
    x, zero = Poly.x(ctx), Poly(ctx, ())
    for n in range(1, 6):
        for density in (0.3, 0.6, 1.0):
            m = [[rng.randrange(ctx.size) if rng.random() < density else 0 for _ in range(n)]
                 for _ in range(n)]
            xm = [[(x if i == j else zero) - Poly(ctx, (a,)) for j, a in enumerate(row)]
                  for i, row in enumerate(m)]
            assert boundbook._charpoly([list(row) for row in m], ctx) == _laplace(xm), m


@pytest.mark.parametrize("ctx", [F5, F4, F7], ids=["F5", "F4", "F7"])
def test_hessenberg_route_is_the_determinant_of_f_at_x_minus_companion(ctx, monkeypatch):
    # lc(g_n)^d lc(g)^D det f(x I - C_g) over k[x], f = g_n / lc(g_n), by
    # expansion: the d x d form of the Kronecker sum's determinant
    monkeypatch.setattr(boundbook, "HESSENBERG_MAX_DEGREE", math.inf)
    rng = random.Random(ctx.size)
    x = Poly.x(ctx)

    def const(c):
        return Poly(ctx, (c,))

    for D, d in [(1, 1), (2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (1, 3)]:
        gn, g = random_poly(ctx, D, rng), random_poly(ctx, d, rng)
        inv_n, inv = ctx.inv(gn.lead), ctx.inv(g.lead)
        # x I - C_g: C_g has ones below the diagonal and -g_i / lc(g) last
        X = [[(x if i == j else const(0)) - const(1 if i == j + 1 else 0)
              + const(ctx.mul(inv, g.coeffs[i]) if j == d - 1 else 0) for j in range(d)]
             for i in range(d)]
        fX = [[const(1 if i == j else 0) for j in range(d)] for i in range(d)]
        for c in reversed(gn.coeffs[:-1]):  # Horner in the d x d matrices
            fX = [[sum((fX[i][l] * X[l][j] for l in range(d)),
                       const(ctx.mul(inv_n, c) if i == j else 0)) for j in range(d)]
                  for i in range(d)]
        lead = ctx.mul(ctx.pow_(gn.lead, d), ctx.pow_(g.lead, D))
        assert boundbook._sequence_step(gn, g) == _laplace(fX).scale(lead), (gn, g)


def test_small_steps_take_the_hessenberg_route_and_large_ones_the_chain(monkeypatch):
    calls = []
    for _, name in ROUTES.values():
        real = getattr(boundbook, name)

        def spy(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(boundbook, name, spy)
    cubic = random_poly(F7, 3, random.Random(1))
    boundbook._sequence_step(cubic, cubic)
    assert calls == ["_charpoly"]
    quintic = Poly.make(F7, (3, 1, 0, 0, 0, 1))
    g2 = resultant_sequence(quintic, 2)
    calls.clear()
    assert boundbook._sequence_step(g2, quintic).degree == 125
    assert g2.degree == 25 and calls == ["_resultant_kx"]


def _laplace(m):
    """Determinant over k[x] by expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    out = Poly(m[0][0].ctx, ())
    for j, a in enumerate(m[0]):
        minor = _laplace([row[:j] + row[j + 1 :] for row in m[1:]])
        out = out - a * minor if j % 2 else out + a * minor
    return out


@pytest.mark.parametrize("ctx", [F5, F4], ids=["F5", "F4"])
def test_resultant_over_kx_is_the_sylvester_determinant(ctx):
    # the subresultant PRS against det of the Sylvester matrix, with zero
    # coefficients (degree drops of more than one) and common factors
    rng = random.Random(ctx.size)
    zero = Poly(ctx, ())

    def entry(top=False):
        while True:
            e = Poly(ctx, tuple(rng.randrange(ctx.size) for _ in range(rng.randrange(4))))
            if not (top and e.is_zero):
                return e

    def sylvester(a, b):
        m, n = len(a) - 1, len(b) - 1
        rows = [[zero] * i + a[::-1] + [zero] * (n - 1 - i) for i in range(n)]
        return rows + [[zero] * i + b[::-1] + [zero] * (m - 1 - i) for i in range(m)]

    for da in (1, 2, 3):
        for db in range(da + 1):
            for _ in range(4):
                a = [entry() for _ in range(da)] + [entry(top=True)]
                b = [entry() for _ in range(db)] + [entry(top=True)]
                assert boundbook._resultant_kx(a, b) == _laplace(sylvester(a, b)), (a, b)
    # a = lin * quo shares the factor lin with b = lin: the resultant is 0
    lin, quo = [entry(), entry(top=True)], [entry(), entry(top=True)]
    a = [lin[0] * quo[0], lin[1] * quo[0] + lin[0] * quo[1], lin[1] * quo[1]]
    assert boundbook._resultant_kx(a, lin).is_zero


def test_resultant_sequence_builds_no_field_context(monkeypatch):
    # the step stays in k: an irreducible quintic over F_7 up to degree 125
    # makes no extension of F_7
    monkeypatch.setattr(ffield, "_CONTEXTS", {})
    g = Poly.make(F7, (3, 1, 0, 0, 0, 1))
    assert resultant_sequence(g, 3).degree == 125
    assert ffield._CONTEXTS == {}


def test_main_term_magnitudes():
    psi = AdditiveChar.canonical(F13)
    # SL: |main| = q^((d+1)/2)
    g = Poly.make(F13, (0, 1, 0, 0, 3))  # 3x^4 + x
    main = main_term_additive_sl(g, psi)
    assert abs(main) == pytest.approx(13 ** 2.5, rel=1e-9)
    # Sp: |main| = q^(r/2+1)
    sp = main_term_additive_sp(0, psi, 2)
    assert sp == pytest.approx(169.0)
    assert main_term_additive_sp(0, AdditiveChar.canonical(F7), 2) == pytest.approx(49.0)
    with pytest.raises(NotExceptionalCell):
        main_term_additive_sp(0, psi, 3)
    # mult: |main| = q^(d/2+1)
    chi3 = MultChar.of_order(F13, 3)
    g3 = Poly.make(F13, (12, 0, 0, 1))
    m3 = main_term_multiplicative(g3, chi3, psi)
    assert abs(m3) == pytest.approx(13 ** 2.5, rel=1e-9)


@pytest.mark.parametrize("p, d", [(3, 4), (5, 5), (7, 9)])
def test_sl_main_term_needs_p_above_d(p, d):
    # b_0 divides by d a_d and by d - 1, as the series does; p <= d is a
    # failed hypothesis, not a division by zero
    F = make_field(p, 1)
    g = Poly.make(F, (1, 1) + (0,) * (d - 2) + (1,))
    with pytest.raises(HypothesisFailed, match=f"p = {p}, d = {d}"):
        main_term_additive_sl(g, AdditiveChar.canonical(F))
    with pytest.raises(HypothesisFailed):
        compute_local_data(g)


def test_local_b0_equals_the_series_on_every_branch():
    # the residue formula against the Laurent series, branch by branch
    fields = [make_field(p, 1) for p in (7, 11, 13, 17, 19, 23, 29, 31)]
    fields += [make_field(5, 2), make_field(7, 2), make_field(11, 2)]
    rng = random.Random(2)
    pairs = 0
    for F in fields:
        for d in range(2, min(F.p - 1, 8) + 1):
            for _ in range(5):
                g = random_poly(F, d, rng)
                b0 = local_b0(g)
                for br in root_branches(g):
                    assert compute_local_data(g, branch=br).b0 == b0, (g, br)
                    pairs += 1
    assert pairs >= 300


def test_sl_main_term_valid_for_every_root_branch():
    # the local datum b_0 is the same on every branch of u, and equals the
    # residue formula; the main term satisfies the strict exceptional
    # inequality
    from charsums import make_ext
    from charsums.charsum import sum_additive

    psi = AdditiveChar.canonical(F13)
    e3 = make_ext(F13, 3)
    bound = float(bound_constant_additive(4, 3)) * 13**2
    rng = random.Random(11)
    tested = 0
    for _ in range(12):
        coeffs = [rng.randrange(13), rng.randrange(13), rng.randrange(13), 0, rng.randrange(1, 13)]
        g = Poly.make(F13, coeffs)
        branches = root_branches(g)
        if len(branches) < 2:
            continue
        assert {compute_local_data(g, branch=br).b0 for br in branches} == {local_b0(g)}
        S3 = sum_additive(g, psi, e3, inner=("frobsub",))
        assert abs(S3 - main_term_additive_sl(g, psi)) < bound
        tested += 1
    assert tested >= 3


def test_sl_main_term_sign_pinned_by_inequality():
    # of the two candidate signs, only (-1)^(d-1) survives the strict bound
    # on every instance; the flipped sign must break it somewhere
    from charsums import make_ext
    from charsums.charsum import sum_additive

    psi = AdditiveChar.canonical(F13)
    e3 = make_ext(F13, 3)
    bound = float(bound_constant_additive(4, 3)) * 13**2
    rng = random.Random(99)
    flipped_failures = 0
    tested = 0
    while tested < 8:
        coeffs = [rng.randrange(13) for _ in range(3)] + [0, rng.randrange(1, 13)]
        g = Poly.make(F13, coeffs)
        if not root_branches(g):  # -d a_d has no cube root in k
            continue
        main = main_term_additive_sl(g, psi)
        S3 = sum_additive(g, psi, e3, inner=("frobsub",))
        assert abs(S3 - main) < bound
        if abs(S3 + main) >= bound:
            flipped_failures += 1
        tested += 1
    assert flipped_failures > 0


def test_main_term_mult_beta_example():
    # g = x^3 - 1 over F_13: disc = 12, (-1)^3 a_3^-1 disc = 1, beta = G^3
    psi = AdditiveChar.canonical(F13)
    chi3 = MultChar.of_order(F13, 3)
    g3 = Poly.make(F13, (12, 0, 0, 1))
    G = gauss_sum(chi3, psi)
    main = main_term_multiplicative(g3, chi3, psi)
    assert main == pytest.approx(-13 * G**3, rel=1e-12)


def test_main_term_mult_gates():
    psi = AdditiveChar.canonical(F13)
    rho = MultChar.quadratic(F13)
    g3 = Poly.make(F13, (12, 0, 0, 1))
    with pytest.raises(NotExceptionalCell):
        main_term_multiplicative(g3, rho, psi)  # chi^3 nontrivial
    chi3 = MultChar.of_order(F13, 3)
    g_nosplit = Poly.make(F13, (2, 0, 0, 1))  # x^3 + 2: 11 is not a cube value...
    if len(root_structure(g_nosplit, F13).roots) < 3:
        with pytest.raises((RootsNotInBaseField, NotExceptionalCell)):
            main_term_multiplicative(g_nosplit, chi3, psi)


def test_an_exceptional_transmult_row_searches_for_the_roots_once(monkeypatch):
    # "all roots of g in k" and the main term's own guard share one search
    psi = AdditiveChar.canonical(F13)
    chi3 = MultChar.of_order(F13, 3)
    g3 = Poly.make(F13, (12, 0, 0, 1))  # x^3 - 1 = (x - 1)(x - 3)(x - 9)
    calls = []

    def counted(g, fld):
        calls.append(g)
        return root_structure(g, fld)

    monkeypatch.setattr(boundbook, "root_structure", counted)
    rep = report_translation_multiplicative(g3, chi3, psi, 3)
    assert rep.kind == "TransMultExc" and rep.applicable and len(calls) == 1
    assert rep.main_term == main_term_multiplicative(g3, chi3, psi)
    # called directly, the main term still checks that g splits over k
    with pytest.raises(RootsNotInBaseField):
        main_term_multiplicative(Poly.make(F13, (2, 0, 0, 1)), chi3, psi)  # -2 is no cube mod 13


def test_odd_shift_detection():
    # x^3 + x is already odd
    ok, c, beta = odd_shift_data(Poly.make(F7, (0, 1, 0, 1)))
    assert ok and c == 0 and beta == 0
    # x^3 + x^2: shift by c = -1/3... check detection runs and is consistent
    ok2, c2, beta2 = odd_shift_data(Poly.make(F7, (0, 0, 1, 1)))
    from charsums.polyring import shift

    if ok2:
        h = shift(Poly.make(F7, (0, 0, 1, 1)), c2)
        assert all(h.coeff(i) == 0 for i in range(2, 3, 2))
    # even degree never works
    ok3, _, _ = odd_shift_data(Poly.make(F13, (1, 2, 3, 0, 1)))
    assert not ok3
    # x^3 + 5: beta = -5
    ok4, c4, beta4 = odd_shift_data(Poly.make(F7, (5, 0, 0, 1)))
    assert ok4 and c4 == 0 and beta4 == F7.neg(5)
    # p | d: d a_d = 0 leaves no centring shift, even for the odd x^3 + x
    assert odd_shift_data(Poly.make(F3, (0, 1, 0, 1))) == (False, None, None)


def test_all_power_roots_in_field():
    # z^4 = 1 over F_13: gcd(4,12)=4 solutions, all present
    assert all_power_roots_in_field(F13, 4, 1)
    # z^8 = 1 over F_13: only gcd(8,12)=4 solutions
    assert not all_power_roots_in_field(F13, 8, 1)
    assert not all_power_roots_in_field(F13, 4, 0)
    # z^4 = w for w not a 4th power
    fourths = {F13.pow_(z, 4) for z in range(1, 13)}
    w = next(v for v in range(1, 13) if v not in fourths)
    assert not all_power_roots_in_field(F13, 4, w)


def test_translation_additive_report_branches():
    psi = AdditiveChar.canonical(F13)
    # cubic is always odd-able: Sp branch
    g = Poly.make(F13, (1, 2, 5, 1))
    rep = report_translation_additive(g, psi, r=1)
    assert rep.kind == "TransAddSp" and rep.main_term is None
    # exceptional Sp cell
    godd = Poly.make(F13, (3, 1, 0, 1))
    rep2 = report_translation_additive(godd, psi, r=2)
    assert rep2.kind == "TransAddSpExc" and rep2.strict and rep2.applicable
    assert rep2.main_term == pytest.approx(psi.value(F13.neg(F13.neg(3))) ** 2 * 13**2)
    # d=4: SL branch, exceptional at r=3
    g4 = Poly.make(F13, (0, 1, 0, 0, 3))
    rep3 = report_translation_additive(g4, psi, r=3)
    assert rep3.kind == "TransAddExc" and rep3.applicable and rep3.main_term is not None
    rep4 = report_translation_additive(g4, psi, r=2)
    assert rep4.kind == "TransAdd" and rep4.main_term is None
    # p <= 2d-1 marks inapplicable
    g5 = Poly.make(F7, (1, 1, 0, 0, 1))
    rep5 = report_translation_additive(g5, AdditiveChar.canonical(F7), r=2)
    assert not rep5.applicable


def test_translation_multiplicative_report_gate():
    psi = AdditiveChar.canonical(F13)
    rho = MultChar.quadratic(F13)
    g = Poly.make(F13, (5, 1, 0, 1))  # cubic, a_2 = 0
    # m=2 does not divide r=3: gate passes without computing g_3
    rep = report_translation_multiplicative(g, rho, psi, r=3)
    assert rep.kind == "TransMult"
    gate = [h for h in rep.hypotheses if "g_r(0)" in h.name][0]
    assert gate.passed and "does not divide" in gate.detail
    # m=2 divides r=2: computes g_2(0)
    rep2 = report_translation_multiplicative(g, rho, psi, r=2)
    gate2 = [h for h in rep2.hypotheses if "g_r(0)" in h.name][0]
    assert "g_2(0)" in gate2.detail
    # exceptional: r=d=3, chi order 3, a_2 = 0, split roots
    chi3 = MultChar.of_order(F13, 3)
    g3 = Poly.make(F13, (12, 0, 0, 1))
    rep3 = report_translation_multiplicative(g3, chi3, psi, r=3)
    assert rep3.kind == "TransMultExc" and rep3.applicable and not rep3.strict
    assert rep3.main_term is not None


def test_translation_reports_when_p_divides_d():
    # no centring shift -a_{d-1} / (d a_d) exists: the reports fail a hypothesis
    psi = AdditiveChar.canonical(F3)
    rep = report_translation_additive(Poly.make(F3, (2, 2, 2, 1)), psi, r=2)
    assert rep.kind == "TransAdd" and not rep.applicable
    assert not next(h for h in rep.hypotheses if h.name == "p > d").passed
    rho = MultChar.quadratic(F3)
    g6 = Poly.make(F3, (1, 2, 0, 0, 1, 0, 1))  # a_5 = 0: the exceptional cell r = d = 6
    rep2 = report_translation_multiplicative(g6, rho, psi, r=6)
    assert rep2.kind == "TransMultExc" and not rep2.applicable
    parity = next(h for h in rep2.hypotheses if h.name == "h not even (d even)")
    assert not parity.passed and "p = 3 divides d = 6" in parity.detail


@pytest.mark.parametrize("r, kind", [(1, "TransAdd"), (2, "TransAddExc")])
def test_odd_g_with_p_dividing_d_fails_the_no_odd_shift_hypothesis(r, kind):
    # x^3 + x over F_3 is odd, but d a_d = 0 leaves no centring shift to
    # test, so "no g(x+c)+delta is odd" is not claimed; kind and flags stay
    psi = AdditiveChar.canonical(F3)
    rep = report_translation_additive(Poly.make(F3, (0, 1, 0, 1)), psi, r=r)
    assert rep.kind == kind and not rep.applicable and rep.main_term is None
    hyp = next(h for h in rep.hypotheses if h.name == "no g(x+c)+delta is odd")
    assert not hyp.passed and hyp.detail == "p = 3 divides d = 3: no centring shift"
    # an even d keeps the claim, p | d or not: x^d survives every shift
    even = report_translation_additive(Poly.make(F3, (0, 1, 0, 0, 0, 0, 1)), psi, r=r)
    assert next(h for h in even.hypotheses if h.name == "no g(x+c)+delta is odd").passed


def test_homothety_bounds():
    assert homothety_fiber_bound(2, 13, 2) == pytest.approx(4 * math.sqrt(13))
    assert homothety_bound(2, 13, 2) == pytest.approx(2 * 2 * 12 * math.sqrt(13))
    assert homothety_fiber_bound(1, 13, 1) == 1.0
    # a constant g claims no bound at any r (0**0 would read 1 at r = 1)
    for r in (1, 2, 3):
        assert homothety_fiber_bound(0, 7, r) == homothety_bound(0, 7, r) == 0.0


def test_report_json_roundtrip():
    psi = AdditiveChar.canonical(F13)
    rep = report_translation_additive(Poly.make(F13, (3, 1, 0, 1)), psi, r=2)
    blob = json.dumps(rep.to_json())
    back = json.loads(blob)
    assert back["kind"] == "TransAddSpExc"
    assert back["applicable"] is True
    assert back["main_term_re"] == pytest.approx(rep.main_term.real)
    assert isinstance(back["hypotheses"], list) and back["hypotheses"][0]["name"]


def test_hypothesis_gate_dispatch():
    psi = AdditiveChar.canonical(F7)
    hyps = report_translation_additive(Poly.make(F7, (1, 0, 1, 1)), psi, 2).hypotheses
    assert any("p > d" in h.name for h in hyps)
    rep = report_weil_additive(3, 7, 2)
    assert rep.applicable and rep.bound == pytest.approx(14.0)
    rep2 = report_weil_multiplicative(2, 7, 1, is_mth_power=True)
    assert not rep2.applicable
