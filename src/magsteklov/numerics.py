"""Shared numeric substrate.

The Cody-Waite exp on lanes, as a float times a power of two, so that
values past the float range stay representable; double-exponential
quadrature on the half line, of one integrand or of the rows of one array
at once, each row the one-integrand result; and Brent's bracketing root
finder.  REL_TOL is the one relative accuracy the package asks of its
iterative routines; both kernels here read it, and no function takes an
accuracy argument.  Everything here is a pure function of its inputs and
safe to call concurrently.
"""

import functools
import math
import sys
from collections.abc import Callable

import numpy as np

EPS = sys.float_info.epsilon

__all__ = [
    "EPS",
    "BracketError",
    "ConvergenceError",
    "DomainError",
    "QuadratureError",
    "REL_TOL",
    "brent_root",
    "integrate_semi_infinite",
]


class DomainError(ValueError):
    """An argument lies outside the supported domain."""


class BracketError(ValueError):
    """The supplied interval does not bracket a sign change."""


class ConvergenceError(ArithmeticError):
    """An iteration failed to converge within its budget."""


class QuadratureError(ArithmeticError):
    """Quadrature could not reach the accuracy REL_TOL."""


def _require_lanes(ok: np.ndarray, error: type[Exception], message: str, **lanes: np.ndarray):
    """Raise error where ok first fails, with message formatted from that index i and its lanes."""
    if not ok.all():
        i = int(np.argmin(ok))
        raise error(message.format(i=i, **{k: v[i].item() for k, v in lanes.items()}))


# Relative accuracy of quadrature and root finding, the one accuracy of the package.
REL_TOL = 1e-13

# Absolute error floor and iteration budget of Brent's method.
_ABS_TOL = 1e-300
_MAX_ITER = 200

# Double-exponential quadrature (Takahasi & Mori 1974; DLMF 3.5(viii)): the
# half line is split at max(decay_scale, 1), and both parts are sampled at
# s = j h of a substitution whose nodes crowd double-exponentially to the
# ends.  The split is at least 1 so that exp-sinh starts well away from an
# endpoint singularity at 0, which a split near 0 would leave it to resolve
# at a far finer step.  tanh-sinh maps s in [-6, 6] onto (0, split), where its abscissae
# stay normal floats (> 1e-275) and the end term of a t**(-1/2) singularity
# is ~1e-136; exp-sinh maps s in [-4.5, 2.25] onto split plus offsets from
# 2e-31 to 1.6e3.  Level 0 has step _DE_STEP, each later level halves it,
# and the cap bounds the finest step at _DE_STEP / 8.  The range ends are
# multiples of 2 * _DE_STEP, so the even nodes of level 0 start each range.
_DE_STEP = 1.0 / 32.0
_DE_LEVELS = 4
_TANH_SINH_S = 6.0
_EXP_SINH_S = (-4.5, 2.25)

# Cody-Waite split of ln 2; the high part has 31 trailing zero bits so that
# k * _LN2_HI is exact for |k| < 2**31.
_LN2_HI = float.fromhex("0x1.62e42p-1")
_LN2_LO = 4.7493250390316726e-07
_LOG2E = 1.4426950408889634


def _libm_exp(x: np.ndarray) -> np.ndarray:
    """math.exp on each lane: np.exp differs from libm's exp in the last bit on some arguments."""
    return np.array([math.exp(v) for v in x.tolist()])


def _exp_split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(exp(r), k) with exp(x) = exp(r) * 2**k on the lanes of a 1-d array x.

    Cody-Waite reduction with k = x / ln 2 rounded half to even, so that
    |r| <= ln(2)/2; k is int64, and exp(r) is libm's on every lane.
    """
    k = np.rint(x * _LOG2E)
    r = (x - k * _LN2_HI) - k * _LN2_LO
    return _libm_exp(r), k.astype(np.int64)


@functools.cache
def _de_level(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nodes and weights of one quadrature level, each range in increasing s.

    Returns (x, x_weight, y, y_weight): tanh-sinh abscissae x in (0, 1)
    with their weights on [0, 1], and exp-sinh offsets y > 0 with their
    weights, so that the nodes are split * x and split + y.  Level 0 holds
    every multiple of _DE_STEP; level k > 0 holds the odd multiples of
    _DE_STEP / 2**k, the nodes that level k - 1 lacks.
    """
    h = _DE_STEP / 2**level

    def grid(lo: float, hi: float) -> np.ndarray:
        j = np.arange(round(lo / h), round(hi / h) + 1)
        return h * (j if level == 0 else j[j % 2 == 1])

    s = grid(-_TANH_SINH_S, _TANH_SINH_S)
    u = 0.5 * math.pi * np.sinh(s)
    # x = (1 + tanh u)/2 and its weight h (pi/2) cosh(s) / (2 cosh(u)**2),
    # both written with e = exp(-2|u|): cosh(u)**2 overflows, and 1 + tanh(u)
    # loses the abscissae near 0
    e = np.exp(-2.0 * np.abs(u))
    x = np.where(u < 0.0, e, 1.0) / (1.0 + e)
    x_weight = h * math.pi * np.cosh(s) * e / (1.0 + e) ** 2
    r = grid(*_EXP_SINH_S)
    y = np.exp(0.5 * math.pi * np.sinh(r))
    y_weight = h * 0.5 * math.pi * np.cosh(r) * y
    tables = x, x_weight, y, y_weight
    for table in tables:  # cached and shared by every call
        table.flags.writeable = False
    return tables


def integrate_semi_infinite(
    f: Callable[[np.ndarray], np.ndarray], decay_scale: float = 0.0
) -> float | np.ndarray:
    """Integral of f over (0, infinity) for Gaussian- or exponentially-decaying f.

    ``f`` maps an array of abscissae to the array of integrand values, or
    to a (lanes, nodes) array of several integrands at once; the result is
    then one integral per lane, each the float a one-lane call returns.
    The float array ``f`` returns is overwritten in place: the weights are
    multiplied into it, and its absolute values replace it for the integral
    of |f|, so the quadrature allocates no array of that shape itself.  An
    integrand may return a view of a buffer it rewrites at every call, but
    never an array it needs again.
    An integrand may carry an endpoint singularity t**p with p > -1 (from
    p ~ -0.97 on, the nodes end too soon and QuadratureError is raised)
    and must decay at least like exp(-t) beyond ``decay_scale``, e.g. any
    integrand bounded by exp(b*t - t**2/2) * t**p with b <= decay_scale.

    Tanh-sinh on [0, max(decay_scale, 1)] and exp-sinh beyond it sample f
    at one node array per level (see _de_level).  Level 0 also yields the
    sum at twice its step from its even nodes; each later level adds only
    the nodes the previous one lacks.  Each lane returns its sum at the
    first level that agrees with the one before to REL_TOL of the integral
    of |f|, and QuadratureError is raised when some lane agrees at no level
    up to the cap.  An integrand that is not negligible at the ends of the
    node ranges (too slow a decay, too strong a singularity) never agrees:
    halving the step halves the weight of each end node.  numpy sums each
    row of a C-contiguous array, strided halves included, as it sums the
    same values in a 1-d array, so each lane's float is a one-lane call's.
    """
    split = max(decay_scale, 1.0)
    total = norm = result = 0.0
    pending = True  # the lanes that agreed at no level yet
    for level in range(_DE_LEVELS):
        x, x_weight, y, y_weight = _de_level(level)
        nodes = np.concatenate((split * x, split + y))
        terms = f(nodes)
        terms *= np.concatenate((split * x_weight, y_weight))
        total = 0.5 * total + terms.sum(axis=-1)
        if level == 0:
            n = x.size
            previous = 2.0 * (terms[..., :n:2].sum(axis=-1) + terms[..., n::2].sum(axis=-1))
        norm = 0.5 * norm + np.abs(terms, out=terms).sum(axis=-1)
        result = np.where(pending, total, result)
        pending = pending & ~(abs(total - previous) <= REL_TOL * norm)
        if not pending.any():
            return float(result) if terms.ndim == 1 else result
        previous = total
    raise QuadratureError(f"quadrature levels disagree at step {_DE_STEP / 2 ** (_DE_LEVELS - 1)}")


def _value(f: Callable[[float], float], x: float) -> float:
    fx = f(x)
    if math.isnan(fx):
        raise ConvergenceError(f"f is NaN at x={x}")
    return fx


def brent_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of f on [lo, hi], which must bracket a sign change.

    Brent's method (Brent 1973, ch. 4) in the form of scipy's brentq.c,
    operation for operation, so the iterates are scipy's: interpolation or
    extrapolation while it shrinks the bracket fast enough, bisection
    otherwise.  The root is located to the relative accuracy REL_TOL (with
    an absolute floor of 1e-300); an exact zero at an endpoint is returned
    as it is.  Raises BracketError when f(lo) and f(hi) have the same sign,
    and ConvergenceError when f is NaN or the iteration budget is exhausted.
    """
    if not lo < hi:
        raise BracketError(f"need lo < hi, got [{lo}, {hi}]")
    xpre, xcur = float(lo), float(hi)
    fpre, fcur = _value(f, xpre), _value(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise BracketError(f"f({lo}) = {fpre} and f({hi}) = {fcur} have the same sign")
    # xcur is the best estimate, xblk the contrapoint and xpre the previous
    # iterate; scur and spre are the last two steps
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAX_ITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_ABS_TOL + REL_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic step
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise ConvergenceError(f"no convergence in {_MAX_ITER} iterations")
