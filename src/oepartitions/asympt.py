"""Asymptotic machinery: saddle expansion, theta representation, Tauberian transfer.

Contents:
  root_R                 unique root in (0,1) of R + R^A = 1
  zagier_log_expansion   four printed terms of the log-summand expansion at (A, B, R, eps, nu)
  phi_nu                 phi(nu) = sqrt(eps/pi) e^(pi^2/(20 eps) - (sqrt5/2)(nu^2-nu+1/6) eps)
  sj_theta_asymptotic    theta-function form of the class sums S_j
  gf_asymptotic          leading term of O, O_e, O_o at q = e^(-eps)
  ingham_transfer        (lambda, alpha, A) of f(e^-eps) ~ lambda eps^alpha e^(A/eps)
                         -> coefficient law c n^-p e^(k sqrt n)
  halve_argument         the n -> n/2 substitution on a coefficient law
  oe_asymptotic          OE(n) ~ e^(pi sqrt(n/5)) / (2 sqrt5 n^(3/4))
  oebar_asymptotic       OEbar(n) ~ e^(pi sqrt(n/3)) / (3^(5/4) n^(3/4))

ingham_transfer and halve_argument are generic over the scalar type: they
use only +, *, / and ** with rational exponents, so they can be driven with
sympy expressions for exact constant algebra as well as with mpmath floats.
The package itself does not import sympy: ingham_transfer takes the pi of
the caller's scalar type.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf

from .specfun import GUARD_BITS, TERM_BUDGET, DomainError, dilog, guarded, jacobi_theta


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
    """phi(nu): the exponentiated saddle approximation of a single OE summand."""
    eps = mpf(eps)
    nu = mpf(nu)
    if eps <= 0:
        raise DomainError("eps must be > 0")
    return mp.sqrt(eps / mp.pi) * mp.e ** (
        mp.pi ** 2 / (20 * eps)
        - mp.sqrt(5) / 2 * (nu * nu - nu + mpf(1) / 6) * eps
    )


@dataclass(frozen=True)
class NuFrame:
    """Residue data for a class sum: nu0 in [0,1), class j, alpha = 2 + nu0 + j."""

    nu0: mpf
    j: int

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
    base = mpf(frame.nu0) + frame.j
    total = mpf(0)
    for n in range(-cutoff, cutoff + 1):
        total += phi_nu(eps, base + 4 * n, prec + GUARD_BITS)
    return total


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


@guarded
def gf_asymptotic(eps, which="full", prec=256):
    """Leading term of the generating function at q = e^(-eps).

    which="full":  sqrt(2/sqrt5) e^(pi^2/(20 eps))   (the full series O)
    which="even"/"odd":  (1/sqrt(2 sqrt5)) e^(pi^2/(20 eps))  (O_e and O_o)
    """
    eps = mpf(eps)
    if eps <= 0:
        raise DomainError("eps must be > 0")
    growth = mp.e ** (mp.pi ** 2 / (20 * eps))
    if which == "full":
        c = mp.sqrt(2 / mp.sqrt(5))
    elif which in ("even", "odd"):
        c = 1 / mp.sqrt(2 * mp.sqrt(5))
    else:
        raise ValueError("which must be 'full', 'even' or 'odd'")
    return c * growth


@dataclass(frozen=True)
class AsymptoticLaw:
    """Coefficient law a(n) ~ c n^(-p) e^(k sqrt n)."""

    c: object
    p: object
    k: object


def ingham_transfer(lam, alpha, a_gap, *, pi=mp.pi):
    """Map the Tauberian hypothesis f(e^-eps) ~ lam eps^alpha e^(a_gap/eps)
    to the coefficient law of f,

    a(n) ~ (lam / (2 sqrt pi)) a_gap^(alpha/2 + 1/4) n^-(alpha/2 + 3/4) e^(2 sqrt(a_gap n)).
    Generic over the scalar type of the inputs; `pi` must be of that type
    too: mp.pi for mpmath inputs, sympy.pi for exact sympy algebra.
    """
    one = a_gap ** 0
    half = one / 2
    c = lam * a_gap ** (alpha * half + half / 2) / (2 * pi ** half)
    p = alpha * half + 3 * half / 2
    k = 2 * a_gap ** half
    return AsymptoticLaw(c=c, p=p, k=k)


def halve_argument(law):
    """Substitute n -> n/2 in a coefficient law: (c, p, k) -> (c 2^p, p, k / sqrt 2)."""
    one = law.c ** 0
    two = 2 * one
    return AsymptoticLaw(c=law.c * two ** law.p, p=law.p, k=law.k / two ** (one / 2))


@guarded
def oe_asymptotic(n, prec=256):
    """Leading asymptotic value e^(pi sqrt(n/5)) / (2 sqrt5 n^(3/4)) of OE(n)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    n = mpf(n)
    return mp.e ** (mp.pi * mp.sqrt(n / 5)) / (2 * mp.sqrt(5) * n ** mpf("0.75"))


@guarded
def oebar_asymptotic(n, prec=256):
    """Leading asymptotic value e^(pi sqrt(n/3)) / (3^(5/4) n^(3/4)) of OEbar(n)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    n = mpf(n)
    return mp.e ** (mp.pi * mp.sqrt(n / 3)) / (mpf(3) ** mpf("1.25") * n ** mpf("0.75"))
