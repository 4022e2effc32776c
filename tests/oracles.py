"""Reference values the tests hold the package to, and no command computes.

  euler_eval(tau)    (q;q)_inf at q = e^(2 pi i tau): modular reduction, then mp.qp
  invert(series)     the inverse of an exact series whose constant term is +-1
  m_threshold()      the M = sqrt((12/(12-pi^2))^2 - 1) = 5.543... at which
                     circle.exponent_saving changes sign

euler_eval and m_threshold are wrapped in specfun.guarded, as the package's
public entry points are; invert divides with series' own sparse kernel.
"""

from mpmath import mp, mpc

from oepartitions.series import PowerSeries, SeriesError, _div_sparse
from oepartitions.specfun import DomainError, guarded


@guarded
def euler_eval(tau, prec=256):
    """(q;q)_inf at q = e^(2 pi i tau), after full modular reduction of tau.

    With eta(tau) = e^(pi i tau/12) (q;q)_inf, the two steps
      tau -> tau - k, k = round(Re tau):  eta(tau) = e^(pi i k/12) eta(tau - k)
      tau -> -1/tau:                      eta(tau) = eta(-1/tau) / sqrt(-i tau)
    are repeated until |tau| >= 1 with |Re tau| <= 1/2, collecting the
    multipliers on the way.  The reduced point has Im tau >= sqrt(3)/2, so
    |q'| < 0.005 there, and mpmath's qp sums (q';q')_inf from a few terms of
    Euler's pentagonal series for every tau, however close q is to the unit
    circle.  Every step is an exact identity.
    """
    tau = mpc(tau)
    if tau.imag <= 0:
        raise DomainError("tau must lie in the upper half plane")
    start = tau
    turns = 0  # sum of the translations k
    scale = mpc(1)  # product of the 1/sqrt(-i tau) multipliers
    # after a translation |tau|^2 <= 1/4 + Im(tau)^2, so every inversion
    # below Im tau = 1/2 at least doubles Im tau; from there two more
    # inversions at most end the reduction, well inside this budget
    for _ in range(8 + max(0, int(-mp.log(tau.imag, 2)))):
        k = int(mp.nint(tau.real))
        tau -= k
        turns += k
        if abs(tau) >= 1:
            break
        scale /= mp.sqrt(-1j * tau)
        tau = -1 / tau
    else:
        raise ArithmeticError(f"modular reduction of tau = {start} did not end")
    return mp.expjpi((turns % 24 + tau - start) / 12) * scale * mp.qp(mp.expjpi(2 * tau))


def invert(series):
    """Multiplicative inverse mod q^(order+1); constant term must be +-1."""
    u = series.coeffs[0]
    if u not in (1, -1):
        raise SeriesError("series is not invertible: constant term must be +1 or -1")
    # 1/a = u / (u a), and u a has constant term u^2 = 1
    c = [u] + [0] * series.order
    _div_sparse(c, [u * x for x in series.coeffs])
    return PowerSeries(c)


@guarded
def m_threshold(prec=256):
    """The critical M = sqrt((12/(12-pi^2))^2 - 1) = 5.543... above which the
    minor-arc bound is genuinely smaller than the major-arc main term."""
    return mp.sqrt((12 / (12 - mp.pi ** 2)) ** 2 - 1)
