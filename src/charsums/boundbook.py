"""Bound constants, exceptional main terms and hypothesis gates.

Each theorem kind gets a report builder that evaluates every hypothesis
computationally and, in the exceptional parameter cells, computes the
explicit main term that must be subtracted before bounding the remainder.
Reports never enumerate field elements; the sums they are compared
against come from the oracles in `charsum`.

The TransMult gate reads g_r(0) off the resultant sequence g_n (roots: the
n-fold sums of the roots of g), whose steps are characteristic polynomials
of Kronecker sums.  A small step takes the characteristic polynomial of
the Kronecker sum over k, through its Hessenberg form; a larger one takes
a resultant over k[x] of degree d in u.  No extension of k is built.

Kinds: WeilAdd, WeilMult, TransAdd, TransAddExc, TransAddSp,
TransAddSpExc, TransMult, TransMultExc, HomAdd, HomMult.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .charsum import AdditiveChar, MultChar, gauss_sum
from .errors import (
    DegenerateReduction,
    HypothesisFailed,
    MthPower,
    NotExceptionalCell,
    RootsNotInBaseField,
    SequenceMismatch,
)
# make_ext, interpolate and compute_local_data are unused here but stay
# bound in this module: perfbench/tracer.py still rebinds all three here,
# and its self-test reads them
from .ffield import ExtCtx, FieldCtx, FqElem, make_ext, power
from .localdata import compute_local_data
from .polyring import (
    Parity,
    Poly,
    compose,
    derivative,
    discriminant,
    divrem,
    evaluate,
    is_squarefree,
    parity_check,
    resultant,
    root_structure,
    shift,
)


def _comb(n: int, k: int) -> int:
    """Binomial with C(n, k) = 0 whenever k < 0, k > n or n < 0."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# Weil baselines
# ---------------------------------------------------------------------------


def weil_bound_additive(d_prime: int, q: int, r: int) -> float:
    """(d'-1) q^(r/2) for an additive sum with reduced degree d' prime to p."""
    if d_prime == 0:
        raise DegenerateReduction(
            "reduced polynomial is constant: the sum equals q^r * psi(Tr c) exactly"
        )
    if d_prime < 0:
        raise ValueError("reduced degree must be >= 0")
    return (d_prime - 1) * q ** (r / 2)


def weil_bound_multiplicative(
    e_roots: int, q: int, r: int, *, is_mth_power: bool = False
) -> float:
    """(e-1) q^(r/2) where e counts distinct roots; invalid for m-th powers."""
    if is_mth_power:
        raise MthPower("the bound does not apply to c * h^m")
    if e_roots < 1:
        raise ValueError("need at least one distinct root")
    return (e_roots - 1) * q ** (r / 2)


# ---------------------------------------------------------------------------
# the improved constants
# ---------------------------------------------------------------------------


def bound_constant_additive(d: int, r: int) -> Fraction:
    """C_{d,r} = (1/(d-1)) sum_{i=0}^{d-1} |i-1| C(d-2+r-i, r-i) C(d-1, i)."""
    if d < 2 or r < 1:
        raise ValueError("need d >= 2 and r >= 1")
    total = 0
    for i in range(d):
        total += abs(i - 1) * _comb(d - 2 + r - i, r - i) * _comb(d - 1, i)
    return Fraction(total, d - 1)


def bound_constant_multiplicative(d: int, r: int) -> int:
    """sum_{i=0}^r |i-1| (C(d-1+r-i, r-i) C(d, i) - C(d-2+r-i, r-i) C(d-1, i))."""
    if d < 1 or r < 1:
        raise ValueError("need d >= 1 and r >= 1")
    total = 0
    for i in range(r + 1):
        term = _comb(d - 1 + r - i, r - i) * _comb(d, i) - _comb(d - 2 + r - i, r - i) * _comb(
            d - 1, i
        )
        total += abs(i - 1) * term
    return total


# ---------------------------------------------------------------------------
# the resultant sequence g_1 = g, g_{n+1}(x) = Res_t(g_n(t), g(x - t))
# ---------------------------------------------------------------------------


def _prem(a: list[Poly], b: list[Poly]) -> list[Poly]:
    """lc(b)^(deg a - deg b + 1) a mod b, for a and b in k[x][u] given by
    their coefficient lists over k[x] (ascending, top nonzero)."""
    r, lb, db = list(a), b[-1], len(b) - 1
    for _ in range(len(a) - db):
        c = r.pop()
        off = len(r) - db
        r = [lb * v for v in r[:off]] + [lb * v - c * w for v, w in zip(r[off:], b)]
    while r and r[-1].is_zero:
        r.pop()
    return r


def _resultant_kx(a: list[Poly], b: list[Poly]) -> Poly:
    """Res_u(a, b) over k[x] for deg a >= deg b >= 0, by Collins's
    subresultant PRS (Cohen, GTM 138, Algorithm 3.3.7), whose every
    division is exact."""
    one = Poly(a[-1].ctx, (1,))

    def pw(x, e):
        return power(Poly.__mul__, one, x, e)

    g = h = one
    neg = False
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        neg ^= bool(da & db & 1)
        r = _prem(a, b)
        if not r:
            return Poly(one.ctx, ())
        den = g * pw(h, da - db)
        a, b = b, [divrem(c, den)[0] for c in r]
        g = a[-1]
        if da > db:
            h = divrem(pw(g, da - db), pw(h, da - db - 1))[0]
    da = len(a) - 1
    h = divrem(pw(b[0], da), pw(h, da - 1))[0] if da else one
    return -h if neg else h


def _norm_kx(f: tuple[int, ...], h: tuple[int, ...], ctx: FieldCtx) -> Poly:
    """prod (x - a - b) over the roots a of f and b of h, both monic and
    given by ascending coefficients: the norm of f(x - u) from
    A = k[x][u]/(h(u)) to k[x], by Horner in A and the subresultant chain."""

    def times_u(v):  # u v in A, v by its coordinates over k[x]
        return [a - v[-1].scale(c) for a, c in zip([Poly(ctx, ())] + v[:-1], h)]

    v = [Poly(ctx, (1,))] + [Poly(ctx, ())] * (len(h) - 2)
    for c in reversed(f[:-1]):  # Horner: v = v (x - u) + c
        v = [Poly(ctx, (0,) + a.coeffs) - b for a, b in zip(v, times_u(v))]
        v[0] += Poly(ctx, (c,))
    while v[-1].is_zero:  # v[0] has degree deg f in x, so v is not zero
        v.pop()
    return _resultant_kx([Poly(ctx, (c,)) for c in h], v)


def _charpoly(m: list[list[int]], ctx: FieldCtx) -> Poly:
    """det(x I - m) for a square matrix m over k, given by its rows and
    changed in place: a similarity over k brings m to upper Hessenberg form,
    whose leading principal minors follow a recurrence (Cohen, GTM 138,
    Algorithm 2.2.9)."""
    n = len(m)
    for c in range(n - 2):  # clear column c below row c + 1
        piv = next((i for i in range(c + 1, n) if m[i][c]), None)
        if piv is None:
            continue
        if piv > c + 1:
            m[piv], m[c + 1] = m[c + 1], m[piv]
            for row in m:
                row[piv], row[c + 1] = row[c + 1], row[piv]
        top, inv = m[c + 1], ctx.inv(m[c + 1][c])
        mults = [(i, ctx.mul(m[i][c], inv)) for i in range(c + 2, n) if m[i][c]]
        for i, u in mults:  # row i -= u row c+1, then column c+1 += u column i
            m[i] = ctx.axpy(ctx.neg(u), top, m[i])
        if mults:
            cols = list(zip(*m))
            col = cols[c + 1]
            for i, u in mults:
                col = ctx.axpy(u, cols[i], col)
            for row, v in zip(m, col):
                row[c + 1] = v
    minors = [[1]]  # minors[j]: det(x I - H) over the leading j x j block
    for j in range(n):
        prev = minors[-1]
        cur = ctx.axpy(ctx.neg(m[j][j]), prev + [0], [0] + prev)
        t = 1
        for i in range(j, 0, -1):
            t = ctx.mul(t, m[i][i - 1])
            if not t:
                break
            w = ctx.mul(t, m[i - 1][j])
            if w:
                cur[:i] = ctx.axpy(ctx.neg(w), minors[i - 1], cur[:i])
        minors.append(cur)
    return Poly(ctx, tuple(minors[n]))


def _kronecker_charpoly(f: tuple[int, ...], h: tuple[int, ...], ctx: FieldCtx) -> Poly:
    """det(x I - C_f (x) I - I (x) C_h) for monic f of degree D and h of
    degree d (ascending coefficients): the D d x D d Kronecker sum, built
    with row i d + j for the pair (i, j), in `_charpoly`."""
    D, d = len(f) - 1, len(h) - 1
    m = [[0] * (D * d) for _ in range(D * d)]
    for i in range(D):
        for j in range(d):
            row = m[i * d + j]
            if i:
                row[(i - 1) * d + j] = 1
            if j:
                row[i * d + j - 1] = 1
            row[(D - 1) * d + j] = ctx.sub(row[(D - 1) * d + j], f[i])
            row[i * d + d - 1] = ctx.sub(row[i * d + d - 1], h[j])
    return _charpoly(m, ctx)


# a step with D and d both at most this takes the Hessenberg route, any
# other the subresultant chain over k[x]: the measured crossover.  The chain
# is faster at D = 9, d = 3 over every k timed, at D = 8, d = 2 over most,
# and at D = d = 5 over k of characteristic 2
HESSENBERG_MAX_DEGREE = 4


def _sequence_step(gn: Poly, g: Poly) -> Poly:
    """g_{n+1}(x) = Res_t(g_n(t), g(x - t)) = lc(g_n)^d lc(g)^D prod (x - a - b)
    over the D roots a of g_n and the d roots b of g.

    The product is det(x I - C_{g_n} (x) I_d - I_D (x) C_g), C_f the
    companion matrix of f / lc(f).  When D and d are both at most
    HESSENBERG_MAX_DEGREE, that characteristic polynomial is taken over k
    (`_kronecker_charpoly`).  Otherwise: the blocks of that Kronecker sum all
    commute with C_g, so it is the d x d determinant det f(x I_d - C_g)
    over k[x], f = g_n / lc(g_n): the norm of f(x - u) from
    A = k[x][u]/(g(u)) to k[x], which is Res_u(g(u) / lc(g), f(x - u)
    mod g(u)) (`_norm_kx`).  Two resultants over k check either route at
    x = 0 and x = 1.
    """
    ctx = gn.ctx
    D, d = gn.degree, g.degree
    route = _kronecker_charpoly if max(D, d) <= HESSENBERG_MAX_DEGREE else _norm_kx
    lead = ctx.mul(ctx.pow_(gn.lead, d), ctx.pow_(g.lead, D))
    res = route(gn.monic().coeffs, g.monic().coeffs, ctx).scale(lead)
    for x0 in (0, 1):
        want = resultant(gn, compose(g, Poly(ctx, (x0, ctx.neg(1)))))
        if evaluate(res, FqElem(ctx, x0)) != want:
            raise SequenceMismatch(f"g_n+1({x0}) is not Res_t(g_n(t), g({x0} - t)) = {want.val}")
    return res


def interpolate(*args, **kwargs):
    """Only a name (see the make_ext import): the sequence has no
    interpolation step."""
    raise NotImplementedError("the resultant sequence does not interpolate")


def resultant_sequence(g: Poly, n: int) -> Poly:
    """g_n with roots the n-fold sums of the roots of g."""
    if n < 1:
        raise ValueError("sequence index starts at 1")
    if g.is_zero:
        raise ValueError("sequence of the zero polynomial")
    cur = g
    for _ in range(n - 1):
        cur = _sequence_step(cur, g)
    return cur


def resultant_sequence_value_at_zero(g: Poly, n: int) -> int:
    """g_n(0) = Res_t(g_a(t), g_b(-t)) with a = floor(n/2), b = n - a.

    g_{a+b}(x) = Res_t(g_a(t), g_b(x - t)) for every a + b = n: both sides
    have the (a+b)-fold root sums and leading coefficient lc(g)^(n d^(n-1)).
    So the sequence is built only up to g_b, of degree d^ceil(n/2).
    """
    if n == 1:
        return g.coeff(0)
    a = n // 2
    ga = resultant_sequence(g, a)
    gb = ga if 2 * a == n else _sequence_step(ga, g)
    lin = Poly.make(g.ctx, (0, g.ctx.neg(1)))  # -t
    return resultant(ga, compose(gb, lin)).val


# ---------------------------------------------------------------------------
# exceptional main terms
# ---------------------------------------------------------------------------


def local_b0(g: Poly) -> int:
    """b_0, the t^0 coefficient of g(v(t)) + v(t) t^(d-1), v the inverse of
    u with u^(d-1) = -g'.  Put t = u(x) in the residue that gives it and use
    (d-1) u'/u = g''/g': b_0 is the constant term of the polynomial quotient
    of (g - x g') x g'' by g', over d - 1.  No branch of u enters."""
    ctx, d = g.ctx, g.degree
    if not 1 < d < ctx.p:
        raise HypothesisFailed(f"needs 1 < d < p, got p = {ctx.p}, d = {d}")
    x, gp = Poly.x(ctx), derivative(g)
    quo = divrem((g - x * gp) * x * derivative(gp), gp)[0]
    return ctx.mul(quo.coeff(0), ctx.inv(d - 1))


def main_term_additive_sl(g: Poly, psi: AdditiveChar) -> complex:
    """(-1)^(d-1) q rho^d(-1) (psi(b_0) rho(d(d-1)a_d/2) g(rho,psi))^(d-1), rho quadratic."""
    ctx = g.ctx
    d = g.degree
    rho = MultChar.quadratic(ctx)
    c_elem = ctx.mul((d * (d - 1) // 2) % ctx.p, g.lead)
    G = gauss_sum(rho, psi)
    base = psi.value(local_b0(g)) * rho.value(c_elem) * G
    val = rho.value(ctx.neg(1)) ** d
    for _ in range(d - 1):
        val *= base
    val *= ctx.q
    if (d - 1) % 2 == 1:
        val = -val
    return val


def main_term_additive_sp(beta: int, psi: AdditiveChar, r: int) -> complex:
    """(-1)^r psi(-beta)^r q^(r/2 + 1)."""
    if r % 2 != 0:
        raise NotExceptionalCell("symplectic main term needs even r")
    ctx = psi.ctx
    return psi.value(ctx.neg(beta)) ** r * ctx.q ** (r / 2 + 1)


def main_term_multiplicative(g: Poly, chi: MultChar, psi: AdditiveChar) -> complex:
    """(-1)^d q beta with beta = chi((-1)^(d(d-1)/2) a_d^-(d-2) disc(g)) g(chi,psi)^d.

    Requires chi^d trivial and all roots of g in k; otherwise only
    |beta| = q^(d/2) is known and RootsNotInBaseField is raised.
    """
    ctx = g.ctx
    d = g.degree
    if d % chi.order != 0:
        raise NotExceptionalCell("chi^d must be trivial")
    if g.coeff(d - 1) != 0:
        raise NotExceptionalCell("needs a_{d-1} = 0")
    if not root_structure(g, ctx).splits_completely:
        raise RootsNotInBaseField("beta value needs all roots of g in k")
    return _main_term_multiplicative(g, chi, psi)


def _main_term_multiplicative(g: Poly, chi: MultChar, psi: AdditiveChar) -> complex:
    # the value of main_term_multiplicative, for a caller that has checked
    # its hypotheses: each root search is exhaustive over k
    ctx = g.ctx
    d = g.degree
    arg = ctx.mul(ctx.pow_(g.lead, -(d - 2)), discriminant(g).val)
    if (d * (d - 1) // 2) % 2 == 1:
        arg = ctx.neg(arg)
    G = gauss_sum(chi, psi)
    beta = chi.value(arg)
    for _ in range(d):
        beta *= G
    val = ctx.q * beta
    if d % 2 == 1:
        val = -val
    return val


# ---------------------------------------------------------------------------
# hypothesis checks
# ---------------------------------------------------------------------------


def centring_shift(g: Poly) -> int:
    """c = -a_{d-1} / (d a_d), the shift that kills the x^(d-1) term of g(x+c)."""
    ctx = g.ctx
    d = g.degree
    return ctx.neg(ctx.mul(g.coeff(d - 1), ctx.inv(ctx.mul(d % ctx.p, g.lead))))


def odd_shift_data(g: Poly) -> tuple[bool, int | None, int | None]:
    """Does some g(x+c) + delta become odd?  Returns (exists, c, beta).

    For p > d the only candidate shift kills the x^(d-1) coefficient:
    c = -a_{d-1} / (d a_d).  Even d can never work since x^d survives.
    When p divides d there is no candidate (d a_d = 0); such a g fails
    the "p > d" hypothesis anyway.
    """
    ctx = g.ctx
    d = g.degree
    if d % 2 == 0 or d % ctx.p == 0:
        return False, None, None
    c = centring_shift(g)
    h = shift(g, c)
    for i in range(2, d, 2):
        if h.coeff(i) != 0:
            return False, None, None
    return True, c, ctx.neg(h.coeff(0))


def all_power_roots_in_field(ctx: FieldCtx, n: int, w: int) -> bool:
    """Does z^n = w have exactly n solutions in k?  (w != 0.)"""
    if w == 0:
        return False
    m = ctx.q - 1
    if m % n != 0:
        return False
    return ctx.pow_(w, m // n) == 1


@dataclass(frozen=True)
class Hypothesis:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class BoundReport:
    kind: str
    bound: float
    main_term: complex | None
    hypotheses: list[Hypothesis]
    applicable: bool
    strict: bool = False

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "bound": self.bound,
            "main_term_re": self.main_term.real if self.main_term is not None else None,
            "main_term_im": self.main_term.imag if self.main_term is not None else None,
            "hypotheses": [
                {"name": h.name, "passed": h.passed, "detail": h.detail}
                for h in self.hypotheses
            ],
            "applicable": self.applicable,
            "strict": self.strict,
        }


# exceptional cells whose residual must stay strictly below the bound
STRICT_KINDS = frozenset({"TransAddExc", "TransAddSpExc"})


def _finish(kind, bound, main, hyps):
    return BoundReport(
        kind=kind,
        bound=bound,
        main_term=main,
        hypotheses=hyps,
        applicable=all(h.passed for h in hyps),
        strict=kind in STRICT_KINDS,
    )


def report_weil_additive(d_prime: int, q: int, r: int) -> BoundReport:
    hyps = [
        Hypothesis(
            "reduced degree positive",
            d_prime >= 1,
            f"d' = {d_prime}" + ("; sum equals q^r * psi(Tr c) exactly" if d_prime == 0 else ""),
        )
    ]
    bound = weil_bound_additive(d_prime, q, r) if d_prime >= 1 else 0.0
    return _finish("WeilAdd", bound, None, hyps)


def report_weil_multiplicative(
    e_roots: int, q: int, r: int, is_mth_power: bool
) -> BoundReport:
    hyps = [
        Hypothesis("not an m-th power times a constant", not is_mth_power, ""),
        Hypothesis("at least one distinct root", e_roots >= 1, f"e = {e_roots}"),
    ]
    bound = weil_bound_multiplicative(e_roots, q, r) if e_roots >= 1 else 0.0
    return _finish("WeilMult", bound, None, hyps)


def report_translation_additive(g: Poly, psi: AdditiveChar, r: int) -> BoundReport:
    """Improved bound for sums of psi(Tr g(x^q - x)) on k_r.

    Routes between the generic branch and the self-dual branch by testing
    whether some shift of g becomes odd; exceptional cells carry a main
    term of magnitude q^(r/2+1).
    """
    ctx = g.ctx
    d = g.degree
    p, q = ctx.p, ctx.q
    hyps = [
        Hypothesis("d >= 3", d >= 3, f"d = {d}"),
        Hypothesis("p > d", p > d, f"p = {p}, d = {d}"),
        Hypothesis("monodromy not finite (p > 2d-1)", p > 2 * d - 1, f"p = {p}"),
        Hypothesis("psi nontrivial", not psi.is_trivial, ""),
    ]
    odd_able, c, beta = odd_shift_data(g)
    bound = float(bound_constant_additive(d, r)) * q ** ((r + 1) / 2) if d >= 2 else 0.0
    adm1_zero = g.coeff(d - 1) == 0 if d >= 1 else False

    if odd_able:
        hyps.append(
            Hypothesis("some g(x+c)+delta is odd", True, f"c = {c}, delta = -beta, beta = {beta}")
        )
        exceptional = adm1_zero and r % 2 == 0 and r <= d - 1
        if not exceptional:
            return _finish("TransAddSp", bound, None, hyps)
        hyps.append(
            Hypothesis(
                "exceptional cell: a_{d-1} = 0, r even, r <= d-1",
                True,
                f"r = {r}, d = {d}",
            )
        )
        main = main_term_additive_sp(beta, psi, r)
        return _finish("TransAddSpExc", bound, main, hyps)

    if d % 2 == 1 and d % p == 0:
        # d a_d = 0: no shift kills a_{d-1}, and no search was made
        hyps.append(Hypothesis("no g(x+c)+delta is odd", False, f"p = {p} divides d = {d}: no centring shift"))
    else:
        hyps.append(Hypothesis("no g(x+c)+delta is odd", True, ""))
    exceptional = adm1_zero and r == d - 1
    if not exceptional:
        return _finish("TransAdd", bound, None, hyps)
    hyps.append(
        Hypothesis("exceptional cell: a_{d-1} = 0, r = d-1", True, f"r = {r}, d = {d}")
    )
    dad = ctx.mul(d % p, g.lead)
    roots_ok = all_power_roots_in_field(ctx, 2 * (d - 1), ctx.neg(dad))
    hyps.append(
        Hypothesis(
            "k contains all 2(d-1)-th roots of -d*a_d",
            roots_ok,
            f"-d*a_d = {ctx.neg(dad)}",
        )
    )
    main = None
    if roots_ok and all(h.passed for h in hyps):
        main = main_term_additive_sl(g, psi)
    return _finish("TransAddExc", bound, main, hyps)


def report_translation_multiplicative(
    g: Poly, chi: MultChar, psi: AdditiveChar, r: int
) -> BoundReport:
    """Improved bound for sums of chi(N(g(x^q - x))) on k_r."""
    ctx = g.ctx
    d = g.degree
    p, q = ctx.p, ctx.q
    m = chi.order
    hyps = [
        Hypothesis("d >= 1", d >= 1, f"d = {d}"),
        Hypothesis("chi nontrivial (m > 1)", m > 1, f"m = {m}"),
        Hypothesis("d prime to p", d % p != 0, f"d = {d}, p = {p}"),
        Hypothesis("g square-free", not g.is_zero and is_squarefree(g), ""),
    ]
    if d < 1:
        # a constant g has no sequence g_r, and so no gate to evaluate
        return _finish("TransMult", 0.0, None, hyps)
    bound = float(bound_constant_multiplicative(d, r)) * q ** ((r + 1) / 2)
    chi_d_trivial = d % chi.order == 0
    exceptional = r == d and chi_d_trivial and g.coeff(d - 1) == 0

    if not exceptional:
        if r % m != 0:
            gate = Hypothesis("m does not divide r or g_r(0) != 0", True, f"m = {m} does not divide r = {r}")
        else:
            gr0 = resultant_sequence_value_at_zero(g, r)
            gate = Hypothesis(
                "m does not divide r or g_r(0) != 0", gr0 != 0, f"g_{r}(0) = {gr0}"
            )
        hyps.append(gate)
        return _finish("TransMult", bound, None, hyps)

    hyps.append(
        Hypothesis(
            "exceptional cell: r = d, chi^d trivial, a_{d-1} = 0",
            True,
            f"r = {r}, d = {d}, m = {m}",
        )
    )
    hyps.append(Hypothesis("p > 2d+1", p > 2 * d + 1, f"p = {p}"))
    banned = Parity.ODD if d % 2 == 1 else Parity.EVEN
    name = f"h not {banned.value} (d {banned.value})"
    if d % p == 0:
        hyps.append(Hypothesis(name, False, f"p = {p} divides d = {d}: no centring shift"))
    else:
        par = parity_check(shift(g, centring_shift(g)))
        hyps.append(Hypothesis(name, par != banned, f"parity = {par.value}"))
    splits = root_structure(g, ctx).splits_completely
    hyps.append(
        Hypothesis(
            "all roots of g in k",
            splits,
            "" if splits else "only |beta| = q^(d/2) is known; magnitude-only report",
        )
    )
    main = None
    if splits and all(h_.passed for h_ in hyps):
        main = _main_term_multiplicative(g, chi, psi)
    return _finish("TransMultExc", bound, main, hyps)


def homothety_fiber_bound(d: int, q: int, r: int) -> float:
    """Per-fiber bound r d^(r-1) q^((r-1)/2) for norm-fiber character sums;
    0 for a constant g (d < 1), which has no bound, as in the Trans reports."""
    if d < 1:
        return 0.0
    return r * d ** (r - 1) * q ** ((r - 1) / 2)


def homothety_bound(d: int, q: int, r: int) -> float:
    """Full-sum bound r d^(r-1) (q-1) q^((r-1)/2) over the nonzero elements."""
    return (q - 1) * homothety_fiber_bound(d, q, r)


def report_homothety_additive(g: Poly, e: int, ext: ExtCtx) -> BoundReport:
    """Bound for sums of psi(Tr g(x^((q-1)/e))) over k_r^*; g may live on k_r."""
    base = ext.base
    p, q, r = base.p, base.q, ext.r
    d = g.degree
    hyps = [
        Hypothesis("d prime to p", d >= 1 and d % p != 0, f"d = {d}, p = {p}"),
        Hypothesis("e divides q-1", e >= 1 and (q - 1) % e == 0, f"e = {e}"),
    ]
    return _finish("HomAdd", homothety_bound(d, q, r), None, hyps)


def report_homothety_multiplicative(g: Poly, chi: MultChar, e: int, ext: ExtCtx) -> BoundReport:
    """Bound for sums of chi(N(g(x^((q-1)/e)))) over k_r^*."""
    from .polyring import split_power_of_x

    base = ext.base
    p, q, r = base.p, base.q, ext.r
    d = g.degree
    m = chi.order
    a, g0 = split_power_of_x(g)
    hyps = [
        Hypothesis("d prime to p", d >= 1 and d % p != 0, f"d = {d}, p = {p}"),
        Hypothesis("e divides q-1", e >= 1 and (q - 1) % e == 0, f"e = {e}"),
        Hypothesis("g square-free", is_squarefree(g), ""),
        Hypothesis("chi^d nontrivial", d % m != 0, f"m = {m}, d = {d}"),
    ]
    if a:
        d0 = g0.degree
        hyps.append(
            Hypothesis(
                "chi^(d-a) nontrivial after removing x^a",
                d0 % m != 0,
                f"a = {a}, deg g0 = {d0}",
            )
        )
    return _finish("HomMult", homothety_bound(d, q, r), None, hyps)
