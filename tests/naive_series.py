"""The Kummer series summed naively in floats, and the crossing point found on it.

Oracles for small |z| only: the terms are formed and added one by one with
no guard against cancellation or overflow, independently of ``specfun``.
"""


def kummer_series(a, c, z, terms):
    """M(a, c, z) from the terms of its defining series up to z**terms."""
    total, term = 1.0, 1.0
    for k in range(terms):
        term *= (a + k) * z / ((c + k) * (k + 1.0))
        total += term
    return total


def crossing_oracle(n, lo, hi, terms=30):
    """Bisection on the truncated series of M(-1/2, n+1, z) for its zero in [lo, hi]."""
    f = lambda z: kummer_series(-0.5, n + 1.0, z, terms)
    assert f(lo) * f(hi) < 0.0, "oracle bracket must straddle the crossing"
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
