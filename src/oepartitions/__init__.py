"""Odd-even partitions: exact counts, q-series identities, and asymptotics.

An odd-even partition has parts alternating in parity with the smallest
part odd; OE(n) counts them, OEbar(n) counts their overpartition
companions.  This package computes both exactly by independent routes
(direct enumeration, hypergeometric q-series, mixed-mock product, Cauchy
integral), evaluates the associated special functions to arbitrary
precision, and verifies the asymptotic laws

    OE(n)    ~ e^(pi sqrt(n/5)) / (2 sqrt5 n^(3/4))
    OEbar(n) ~ e^(pi sqrt(n/3)) / (3^(5/4) n^(3/4))

numerically at desk scale.

Importing the package loads none of its modules, so that each command of
the CLI pays only for the layers it runs; import from the submodules
(series, enumeration, genfun, specfun, asympt, circle).
"""

__version__ = "0.1.0"
