"""Asymptotic machinery: saddle expansion, theta representation, Tauberian transfer.

Contents:
  root_R                 unique root in (0,1) of R + R^A = 1
  zagier_log_expansion   four printed terms of the log-summand expansion at (A, B, R, eps, nu)
  phi_nu                 phi(nu) = sqrt(eps/pi) e^(V/eps - (sqrt5/2)(nu^2-nu+1/6) eps), O's V
  sj_theta_asymptotic    theta-function form of the class sums S_j
  Growth                 (lam, V) of a generating function: F(e^-eps) ~ lam e^(V/eps)
  o_growth, obar_growth  the Growth of O and of Obar
  gf_asymptotic          leading term of O, O_e, O_o at q = e^(-eps)
  ingham_transfer        (lambda, A) of f(e^-eps) ~ lambda e^(A/eps)
                         -> coefficient law c n^-p e^(k sqrt n)
  halve_argument         the n -> n/2 substitution on a coefficient law
  oe_asymptotic          leading term of OE(n)
  oebar_asymptotic       leading term of OEbar(n)
  oebar_bessel_form      OEbar(n)'s leading term in Bessel form

Each law is read from its generating function's Growth, whose (lam, V) are
written once, in o_growth and obar_growth: gf_asymptotic is lam e^(V/eps),
and the coefficient laws are Ingham's transfer of (lam, V), as in the
paper.  O's even part O_e has half of O's lam; in q^2 its coefficients
OE(2m) increase, so the transfer runs on O_e(q^(1/2)), whose V is twice
O's, and halve_argument takes the law back to n.  Obar's coefficients
increase, and its law is the transfer of its Growth.

ingham_transfer and halve_argument are generic over the scalar type: they
use only +, *, / and ** with rational exponents, so they can be driven with
sympy expressions for exact constant algebra as well as with mpmath floats.
The package itself does not import sympy: ingham_transfer takes the pi of
the caller's scalar type.
"""

from collections import namedtuple

from mpmath import mp, mpf

from .specfun import (GUARD_BITS, TERM_BUDGET, DomainError, bessel_i, dilog, guarded,
                      jacobi_theta)


@guarded
def root_R(a_exponent, prec=256):
    """Unique root R in (0,1) of R + R^A = 1, by mpmath's bracketing
    Anderson-Bjorck solver on [0, 1], which keeps every iterate inside it."""
    a = mpf(a_exponent)
    if a <= 0:
        raise DomainError("exponent A must be > 0")
    return mp.findroot(lambda r: r + r ** a - 1, (mpf(0), mpf(1)), solver="anderson")


@guarded
def zagier_log_expansion(a, b, r, eps, nu, prec=256):
    """The four printed terms of Log(q^(A n^2/2 + B n) / (q;q)_n) at q = e^(-eps),
    for the exponent data a = A, b = B and the root r = R of R + R^A = 1.

    Valid when q^n = R q^(-nu); returns
      (pi^2/6 - Li2(R) - Log(R) Log(1-R)/2) / eps
      - Log(2 pi / eps)/2 + Log(R^B / sqrt(1-R))
      - ((A+R-AR)/(2(1-R)) nu^2 - (B + R/(2(1-R))) nu + (1+R)/(24(1-R))) eps.
    The omitted remainder is O(eps^2).
    """
    a = mpf(a)
    b = mpf(b)
    r = mpf(r)
    eps = mpf(eps)
    nu = mpf(nu)
    if eps <= 0 or not 0 < r < 1:
        raise DomainError("need eps > 0 and R in (0,1)")
    li2 = dilog(r, prec + GUARD_BITS)
    lead = (mp.pi ** 2 / 6 - li2 - mp.log(r) * mp.log(1 - r) / 2) / eps
    logterm = -mp.log(2 * mp.pi / eps) / 2
    const = mp.log(r ** b / mp.sqrt(1 - r))
    linear = -(
        (a + r - a * r) / (2 * (1 - r)) * nu ** 2
        - (b + r / (2 * (1 - r))) * nu
        + (1 + r) / (24 * (1 - r))
    ) * eps
    return lead + logterm + const + linear


@guarded
def phi_nu(eps, nu, prec=256):
    """phi(nu): the exponentiated saddle approximation of a single OE summand,
    e^zagier_log_expansion(1/2, 1/4, Q, 2 eps, nu) at O's saddle Q = root_R(1/2),
    with its eps^-1 bracket read as O's V from o_growth.  The lemma itself is
    not called: Li2(Q) alone costs about ten times this value, and verify
    --suite specfun checks the two against each other."""
    eps = mpf(eps)
    nu = mpf(nu)
    if eps <= 0:
        raise DomainError("eps must be > 0")
    return mp.sqrt(eps / mp.pi) * mp.e ** (
        o_growth().v / eps
        - mp.sqrt(5) / 2 * (nu * nu - nu + mpf(1) / 6) * eps
    )


class NuFrame(namedtuple("NuFrame", "nu0 j")):
    """Residue data for a class sum: nu0 in [0,1), class j, alpha = 2 + nu0 + j."""

    __slots__ = ()

    @property
    def alpha(self):
        return mpf(self.nu0) + 2 + self.j


@guarded
def nu0_for_eps(eps, prec=256):
    """Fractional part of Log(Q) / (2 Log(q)) at q = e^(-eps)."""
    eps = mpf(eps)
    q_big = (3 - mp.sqrt(5)) / 2
    ratio = mp.log(q_big) / (-2 * eps)
    return ratio - mp.floor(ratio)


@guarded
def phi_class_sum(frame, eps, prec=256):
    """Direct sum of phi(nu) over nu = nu0 + j (mod 4): the oracle route.

    The cutoff keeps every omitted Gaussian term below the precision target;
    it grows like eps^(-1/2), and past TERM_BUDGET terms this raises at once.
    """
    eps = mpf(eps)
    if eps <= 0:
        raise DomainError("eps must be > 0")
    bits = (prec + GUARD_BITS + 8) * mp.ln(2)
    # include all nu with (sqrt5/2) nu^2 eps <= bits * ln2 (plus slack)
    cutoff = int(mp.ceil(mp.sqrt(2 * bits / (mp.sqrt(5) * eps)) / 4)) + 2
    if 2 * cutoff + 1 > TERM_BUDGET:
        raise ArithmeticError(f"the class sum at eps = {eps} needs over {TERM_BUDGET} terms")
    # phi(nu) = phi(0) e^(-(sqrt5/2)(nu^2 - nu) eps): the prefactor is taken once
    rate = mp.sqrt(5) / 2 * eps
    base = mpf(frame.nu0) + frame.j
    total = mpf(0)
    for n in range(-cutoff, cutoff + 1):
        nu = base + 4 * n
        total += mp.exp(-rate * (nu * nu - nu))
    return phi_nu(eps, 0, prec + GUARD_BITS) * total


@guarded
def sj_theta_asymptotic(frame, eps, prec=256):
    """Class sum of phi via the Jacobi theta representation.

    sum_nu phi(nu) = phi(alpha) theta(sqrt5 (2 alpha - 1) eps i / pi - 1/2; 8 sqrt5 eps i / pi)
    with alpha = 2 + nu0 + j.  The value is real; the imaginary part of the
    theta evaluation is discarded once checked to be below 2^(-prec/2) of
    the real part, and ArithmeticError is raised if it is not.
    """
    eps = mpf(eps)
    if eps <= 0:
        raise DomainError("eps must be > 0")
    alpha = mpf(frame.alpha)
    z = mp.sqrt(5) * (2 * alpha - 1) * eps * 1j / mp.pi - mpf(1) / 2
    tau = 8 * mp.sqrt(5) * eps * 1j / mp.pi
    th = jacobi_theta(z, tau, prec + GUARD_BITS)
    val = phi_nu(eps, alpha, prec + GUARD_BITS) * th
    if abs(val.imag) > abs(val.real) * mpf(2) ** (-prec // 2):
        raise ArithmeticError(f"theta form is not real: {val}")
    return val.real


class Growth(namedtuple("Growth", "lam v")):
    """A generating function near q = 1: F(e^(-eps)) ~ lam e^(v/eps) as eps -> 0+."""

    __slots__ = ()


def o_growth():
    """O's Growth at the working precision.  V = pi^2/20 is the dilogarithm
    bracket at R = root_R(1/2); phi_nu reads it, and verify --suite specfun
    checks phi_nu against zagier_log_expansion there.  lam is the Gaussian
    sum over the four classes; O_e and O_o have half of lam each."""
    return Growth(lam=mp.sqrt(2 / mp.sqrt(5)), v=mp.pi ** 2 / 20)


def obar_growth():
    """Obar's Growth at the working precision: Obar = (-q;q)_inf f(q), with
    (-q;q)_inf ~ e^(pi^2/(12 eps)) / sqrt2 and f(1) = sum 4^-n = 4/3."""
    return Growth(lam=2 * mp.sqrt(2) / 3, v=mp.pi ** 2 / 12)


@guarded
def gf_asymptotic(eps, which="full", prec=256):
    """Leading term lam e^(V/eps) of O (which="full") or of its even or odd
    part ("even"/"odd", half of O's lam each) at q = e^(-eps)."""
    eps = mpf(eps)
    if eps <= 0:
        raise DomainError("eps must be > 0")
    if which not in ("full", "even", "odd"):
        raise ValueError("which must be 'full', 'even' or 'odd'")
    lam, v = o_growth()
    return (lam if which == "full" else lam / 2) * mp.exp(v / eps)


class AsymptoticLaw(namedtuple("AsymptoticLaw", "c p k")):
    """Coefficient law a(n) ~ c n^(-p) e^(k sqrt n)."""

    __slots__ = ()


def ingham_transfer(lam, a_gap, *, pi=mp.pi):
    """Map the Tauberian hypothesis f(e^-eps) ~ lam e^(a_gap/eps) to the
    coefficient law of f,

    a(n) ~ (lam / (2 sqrt pi)) a_gap^(1/4) n^(-3/4) e^(2 sqrt(a_gap n)):
    Ingham's theorem with no power of eps, which no generating function here
    carries.  Generic over the scalar type of the inputs; `pi` must be of
    that type too: mp.pi for mpmath inputs, sympy.pi for exact sympy algebra.
    """
    half = a_gap ** 0 / 2
    return AsymptoticLaw(c=lam * a_gap ** (half / 2) / (2 * pi ** half), p=3 * half / 2,
                         k=2 * a_gap ** half)


def halve_argument(law):
    """Substitute n -> n/2 in a coefficient law: (c, p, k) -> (c 2^p, p, k / sqrt 2)."""
    one = law.c ** 0
    two = 2 * one
    return AsymptoticLaw(c=law.c * two ** law.p, p=law.p, k=law.k / two ** (one / 2))


def _law_at(law, n):
    """A coefficient law's value c n^(-p) e^(k sqrt n) at n >= 1."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return law.c * mp.exp(law.k * mp.sqrt(n)) / mpf(n) ** law.p


@guarded
def oe_asymptotic(n, prec=256):
    """Leading asymptotic value of OE(n): the transfer of O_e's Growth in q^2,
    (lam/2, 2V), taken back to n."""
    lam, v = o_growth()
    return _law_at(halve_argument(ingham_transfer(lam / 2, 2 * v)), n)


@guarded
def oebar_asymptotic(n, prec=256):
    """Leading asymptotic value of OEbar(n): the transfer of Obar's Growth."""
    lam, v = obar_growth()
    return _law_at(ingham_transfer(lam, v), n)


@guarded
def oebar_bessel_form(n, prec=256):
    """OEbar(n)'s leading term in Bessel form, lam sqrt(V/n) I_1(2 sqrt(V n))
    from Obar's Growth: the major arc's integral to leading order, and
    oebar_asymptotic's value times 1 + O(n^(-1/2))."""
    if n < 1:
        raise DomainError("n must be >= 1")
    lam, v = obar_growth()
    return lam * mp.sqrt(v / n) * bessel_i(1, 2 * mp.sqrt(v * n), prec + GUARD_BITS)
