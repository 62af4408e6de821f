"""The large-z sum of one Kummer ratio's expansion, summed in a loop of its own.

The reference for specfun._large_z_sums, which sums the expansion's two
series in one loop and must give each bit for bit as this loop does, and
the witness of the covering argument in tests/test_specfun.py, which is
about the bottom sum S(1/2, c, z) alone.
"""

import math

from magsteklov import specfun


def large_z_sum(a, c, z):
    """S(a, c, z) = sum_s (c-a)_s (1-a)_s / (s! z^s), or None where it declines."""
    p, q = c - a, 1.0 - a
    term = total = 1.0
    terms = [term]
    for s in range(specfun._LARGE_Z_MAX_TERMS):
        num = (p + s) * (q + s)
        den = (s + 1.0) * z
        if abs(num) >= den:
            return None
        term *= num / den
        terms.append(term)
        total += term
        if abs(term) < specfun._LARGE_Z_STOP_REL * abs(total):
            return math.fsum(terms)
    return None
