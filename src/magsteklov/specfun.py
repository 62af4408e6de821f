"""Confluent hypergeometric and parabolic cylinder functions.

This module alone decides how each function is evaluated; callers name the
function and its arguments, never a route.

The Kummer function M(a, c, z) = sum_k (a)_k/(c)_k z^k/k! is summed termwise
for z >= 0 in floats that share one power-of-two offset, so values of size
exp(z) for z up to ~1e6 stay representable.  That series needs O(z) terms.
The library reads every sum in that form: the branch ratio divides two sums
and scales the quotient by the power of two between their offsets, and
``_kummer_values`` scales each lane's sum to a float by its offset.  No
public function returns M itself: the crossing residuals and the
cross-checks of ``verify`` read it through ``_kummer_values``.
The log-derivative M'/M has a second route: by the large-z expansion of
DLMF 13.7.2,

    M(a, c, z) = Gamma(c)/Gamma(a) e^z z^(a-c) [S(a, c, z) + O(e^-z)],
    S(a, c, z) = sum_s (c-a)_s (1-a)_s / (s! z^s),

so the exp(z)-sized growth cancels and M'/M is a quotient of two short
gamma-free sums.  S diverges; ``kummer_log_ratio`` uses it only where its
terms, whose ratio is (c-a+s)(1-a+s)/((s+1) z), fall below 1e-17 of the sum
before that ratio reaches 1 in size, and sums the Kummer series otherwise.

``kummer_log_ratios(a, c, z)`` is the series route of that ratio on arrays
c and z >= 0 with one a, for callers that need one or many at once (the
envelope's grid, the crossing points).  Its contract is bitwise: each lane
is the float the scalar series route returns, because it runs the same
float operations in the same order.  It never tries the expansion, which
refuses every envelope lane (c >= 1, z <= c + sqrt(c) + 1).  Its two
series, M(a+1, c+1, z) and M(a, c, z), are the two halves of one batch.
The lane count picks the loop that sums a batch of series: below
_BATCH_MIN lanes the scalar loop runs lane by lane on Python floats, and
from there one numpy loop runs all lanes together, so no caller chooses a
route by size.  In that loop a lane whose series has stopped retires in
place, and retired rows are dropped, their parts written, only once they
fill at least half of the rows.  A retiring term costs a few scatters on
the stopping lanes alone; the whole-array work of a term is its
arithmetic and its stopping test, which runs on every term.  The rescale
test, one maximum per term, runs only in a call where some lane's bound
on its sums (``_sum_bits``) reaches 2**501: no call of the envelope or
crossing-point paths does, and cylinder lanes far from z = 0 do.

Parabolic cylinder functions D_nu take one of two routes, by the sign of z.
For z <= 0, D_nu and D_{nu-1} both come from the even/odd Kummer
decomposition (DLMF 12.4, 12.7).  For z > 0 the anchors are the half-line
integrals

    D_mu(z) = exp(-z^2/4)/Gamma(-mu) * int_0^inf t^(-mu-1) exp(-t^2/2 - z t) dt

at orders mu and mu-1 below -1, so t^(-mu-1) has no endpoint singularity.
Both orders are the rows of one quadrature, which forms exp(-t^2/2 - z t)
once for them, and they are lifted to nu by the three-term recurrence
D_{mu+1}(z) = z D_mu(z) - mu D_{mu-1}(z).  The derivative always comes from
the companion recurrence D'_nu(z) = nu D_{nu-1}(z) - (z/2) D_nu(z), never
from numerical differentiation.  (For half-integer orders D_nu is
expressible through modified Bessel functions K_{1/4}, K_{3/4}; that form
carries no extra information and is not provided.)

``cylinder_ds(nu, z)`` is ``cylinder_d`` on the lanes of a 1-d array z with
one nu, for graphs and quadrature nodes, and ``cylinder_d`` is its one-lane
call, so each route is written once, for lanes.  Lanes with z <= 0 sum the
four Kummer series of both orders, even and odd, as the quarters of one
batch whose first parameter varies by lane, negative on some (the even
piece of D_{1/2} has a = -1/4).  One assembly then forms D_nu and D_{nu-1}
as the two rows of one array, combining the pieces in floats at
power-of-two offsets.  Lanes with z > 0 share one quadrature per block of
_LANE_BLOCK lanes: ``integrate_semi_infinite`` takes the (2 lanes, nodes)
array of both orders' integrands, a view of one buffer that every block and
level of the call rewrites, so no block allocates and frees an array of
that shape, and the node powers are formed once per node array of the
call.  On either side both orders share one e^{-z^2/4}.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    ConvergenceError,
    DomainError,
    _exp_split,
    _libm_exp,
    _require_in,
    _require_lanes,
    integrate_semi_infinite,
)

__all__ = [
    "CylinderValue",
    "cylinder_d",
    "cylinder_ds",
    "kummer_log_ratio",
    "kummer_log_ratios",
]

_MAX_TERMS = 2_000_000
_STOP_REL = 1e-16
_RESCALE = 2.0**512
_RESCALE_INV = 2.0**-512
_MAX_ABS_Z = 1e6
_MAX_CYLINDER_Z = 50.0  # |z| bound of cylinder_d and cylinder_ds
_LARGE_Z_STOP_REL = 1e-17
_LARGE_Z_MAX_TERMS = 1000
# A quotient a/c below 2**-1022 is subnormal and keeps fewer than 53 bits, so
# the series quotients divide a * 2**1022 by c instead and scale back by the
# offset's ldexp.  The sums' quotient lies in [2**-513, 2**513], so the
# product is a normal float for every c below 2**450.
_MIN_NORMAL = 2.0**-1022
_SUBNORMAL_SHIFT = 1022
# Lanes per quadrature on the z > 0 route of cylinder_ds.  A quadrature writes
# both orders' rows into one (2 lanes x nodes) buffer, 308 KB at 32 lanes on
# the 602 nodes of level 0, which every block of the call reuses: a 2,001-point
# sweep peaks at ~0.55 MB of traced memory, the scalar route at ~0.03 MB, and
# unblocked the same sweep took ~9.9 MB (19.6 MB with every lane above 0).
_LANE_BLOCK = 32
# Lanes from which _series_sums runs one numpy loop, not _series_parts lane by
# lane.  Timed on kummer_log_ratios' crossing-point lanes of consecutive modes
# with each loop forced (best of 15, 2-vCPU KVM host): near c = 6 the two
# loops are even at ~40-42 series lanes (40: 0.36-0.37 ms scalar against
# 0.37-0.38 ms numpy, 44: 0.41 against 0.39 ms), and near c = 1000 at ~24-26
# (24: 1.47-1.52 against 1.52-1.55 ms, 28: 1.73-1.91 against 1.42-1.66 ms).
# The threshold stays a few lanes above the low-c break-even, below which the
# numpy loop is the slower one; at 44 lanes it is 3-6% the faster.
_BATCH_MIN = 44
# A numpy series call runs no rescale test when every lane's _sum_bits reads
# below this: its sums then stay below 2**501, short of _RESCALE (the proof
# is in _series_sums).
_UNSCALED_BITS = 480.0


@dataclass(frozen=True)
class CylinderValue:
    """Parabolic cylinder function value and derivative at one point."""

    value: float
    derivative: float


def _term_peak_bound(a: float, c: float, z: float) -> float:
    """Upper bound on the index where |series term| stops growing.

    |t_{k+1}| >= |t_k| requires (|a|+k) z >= (c+k)(k+1); the positive root
    of k^2 + (c+1-z) k + (c - |a| z) bounds every growth index (using |a|
    only enlarges the root).  No real root means the terms decay from the
    start.
    """
    half_b = 0.5 * (c + 1.0 - z)
    disc = half_b * half_b - (c - abs(a) * z)
    if disc <= 0.0:
        return 0.0
    return max(0.0, -half_b + math.sqrt(disc))


def _series_parts(a: float, c: float, z: float) -> tuple[float, int, float, int]:
    """Termwise sum of the Kummer series for z >= 0, as (pos, offset, neg, terms).

    M(a, c, z) = (pos - neg) * 2**offset.  Positive and negative terms go to
    separate accumulators so the only cancellation is the single final
    subtraction; for a > 0 the negative accumulator stays empty.  Term and
    accumulators share the offset, which grows by 512 whenever the running
    sum outgrows 2**512; the stopping test runs before any rescale so it
    always compares the term and the sum in the same scaling.  Raises ConvergenceError when the
    term budget runs out first, or at the first rescale of a sum that overflowed to inf.
    """
    term = 1.0
    pos = 1.0
    neg = 0.0
    offset = 0
    k = 0
    k_peak = _term_peak_bound(a, c, z)
    while k < _MAX_TERMS:
        term *= (a + k) * z / ((c + k) * (k + 1.0))
        k += 1
        if term >= 0.0:
            pos += term
        else:
            neg -= term
        scale = pos if pos >= neg else neg
        if term == 0.0:  # terminating polynomial, or underflow past the peak
            break
        if abs(term) < _STOP_REL * scale and k > k_peak:
            break
        if scale > _RESCALE:
            if scale == math.inf:
                raise ConvergenceError(f"Kummer series M({a}, {c}, {z}) overflowed at term {k}")
            pos *= _RESCALE_INV
            neg *= _RESCALE_INV
            term *= _RESCALE_INV
            offset += 512
    else:
        raise ConvergenceError(f"Kummer series M({a}, {c}, {z}) did not converge in {k} terms")
    return pos, offset, neg, k + 1


def _large_z_sums(upper: float, lower: float, c: float, z: float) -> tuple[float, float] | None:
    """S(upper, c+1, z) and S(lower, c, z), or None if either cannot reach full precision.

    S(a, c, z) = sum_s (c-a)_s (1-a)_s / (s! z^s) is asymptotic: its terms
    shrink while the ratio of consecutive terms, (c-a+s)(1-a+s) / ((s+1) z),
    stays below 1 in size, and grow from there on.  A sum is complete once a
    term falls below _LARGE_Z_STOP_REL of it; None means a ratio reached 1
    first (always so for z <= 0), or the term cap ran out.  The cap ends the
    loop for a NaN, and near the switch for modes above ~1e4, where the
    series is then used.  The two sums share one loop and each step's
    (s+1) z, but each keeps its own decline and stop tests, so each is the
    float a loop of its own gives.  The terms are added by math.fsum: near
    the switch there are a few hundred of them, and a running float sum
    would lose ~7 ulp.
    """
    p_top, q_top = (c + 1.0) - upper, 1.0 - upper
    p_bottom, q_bottom = c - lower, 1.0 - lower
    term_top = total_top = term_bottom = total_bottom = 1.0
    terms_top, terms_bottom = [1.0], [1.0]
    top = bottom = None
    for s in range(_LARGE_Z_MAX_TERMS):
        den = (s + 1.0) * z
        if top is None:
            num = (p_top + s) * (q_top + s)
            if abs(num) >= den:
                return None
            term_top *= num / den
            terms_top.append(term_top)
            total_top += term_top
            if abs(term_top) < _LARGE_Z_STOP_REL * abs(total_top):
                top = math.fsum(terms_top)
                if bottom is not None:
                    return top, bottom
        if bottom is None:
            num = (p_bottom + s) * (q_bottom + s)
            if abs(num) >= den:
                return None
            term_bottom *= num / den
            terms_bottom.append(term_bottom)
            total_bottom += term_bottom
            if abs(term_bottom) < _LARGE_Z_STOP_REL * abs(total_bottom):
                bottom = math.fsum(terms_bottom)
                if top is not None:
                    return top, bottom
    return None


def kummer_log_ratio(a: float, c: float, z: float) -> float:
    """M'(a, c, z) / M(a, c, z) for a > 0, c > 0 and real z with |z| <= 1e6; z < 0 needs c >= a.

    The ratio is (a/c) M(a+1, c+1, z) / M(a, c, z) for z >= 0 and, through
    M(a, c, -y) = exp(-y) M(c-a, c, y), (a/c) M(c-a, c+1, y) / M(c-a, c, y)
    for z = -y < 0: both series have positive terms, and their exp(|z|)-sized
    growth cancels in the quotient of their sums, scaled by the power of two
    between their offsets.  When the shared first
    parameter (a, or c-a) is a half-integer the large-z expansion is tried
    first: S(a+1, c+1, z) / S(a, c, z), or (a/y) S(c-a, c+1, y) / S(c-a, c, y).
    Its neglected O(e^-y) part is then about the size of the smallest term of
    S, which the stopping rule of _large_z_sums bounds; for other first
    parameters it can be far larger (S(1, 2, z) = 1 exactly, while
    M(1, 2, z) = (e^z - 1)/z).  The series is summed wherever the expansion
    is not tried or either sum declines.
    """
    z = _require_in("z", z, -_MAX_ABS_Z, _MAX_ABS_Z)
    a, c = float(a), float(c)
    if not (a > 0.0 and c > 0.0 and a + c < math.inf) or (z < 0.0 and c < a):
        raise DomainError(
            "kummer_log_ratio requires finite a > 0 and c > 0, and c >= a for z < 0;"
            f" got a={a!r}, c={c!r}, z={z!r}"
        )
    if z >= 0.0:
        y, upper, lower, prefactor = z, a + 1.0, a, 1.0
    else:
        y, upper, lower, prefactor = -z, c - a, c - a, a / -z
    if lower % 1.0 == 0.5:
        sums = _large_z_sums(upper, lower, c, y)
        if sums is not None:
            return prefactor * (sums[0] / sums[1])
    # both first parameters are >= 0, so no term is negative and neg stays 0
    num, num_offset, _, _ = _series_parts(upper, c + 1.0, y)
    den, den_offset, _, _ = _series_parts(lower, c, y)
    # scaled after the multiply, so a tiny a cannot push the quotient past the float range
    shift = _SUBNORMAL_SHIFT if a / c < _MIN_NORMAL else 0
    return math.ldexp((math.ldexp(a, shift) / c) * (num / den), num_offset - den_offset - shift)


def _term_peak_bounds(a: float | np.ndarray, c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """_term_peak_bound(a_i, c_i, z_i) on every lane, bit for bit.

    The float operations are the scalar's, in its order, and np.sqrt rounds
    correctly as math.sqrt does; a lane with disc <= 0 gets 0.
    """
    half_b = 0.5 * (c + 1.0 - z)
    disc = half_b * half_b - (c - np.abs(a) * z)
    return np.where(disc > 0.0, np.maximum(-half_b + np.sqrt(np.maximum(disc, 0.0)), 0.0), 0.0)


def _sum_bits(
    a: float | np.ndarray,
    c: np.ndarray,
    z: np.ndarray,
    k_top: np.ndarray,
    ratio: np.ndarray,
    work: np.ndarray,
) -> np.ndarray:
    """Per-lane b = (K+1) log2 max(1, z/c) + max(0, |a|-1) (1 + ln(K+1)) / ln 2.

    K = k_top = floor(k_peak) on every lane, and a is one float or one per
    lane, of either sign; _series_sums says why each sum of the lane stays
    below 2**(21 + b).  b is formed in the scratch rows ratio and work of
    z's length, and the result is work.  z/c is clipped to 2**512, so a lane
    where z/c overflows (c near the float's least values) reads b >= 512
    without a warning.
    """
    np.add(np.log1p(k_top, out=ratio), 1.0, out=ratio)
    if np.ndim(a):
        np.maximum(np.subtract(np.abs(a, out=work), 1.0, out=work), 0.0, out=work)
        work *= ratio
    else:
        np.multiply(ratio, max(0.0, abs(a) - 1.0), out=work)
    work *= 1.0 / math.log(2.0)
    with np.errstate(over="ignore"):
        np.divide(z, c, out=ratio)
    np.log2(np.clip(ratio, 1.0, _RESCALE, out=ratio), out=ratio)
    work += ratio  # (K+1) L as L + K L, with no row for K+1
    work += np.multiply(ratio, k_top, out=ratio)
    return work


def _series_sums(
    a: float | np.ndarray, c: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pos, offset, neg) of _series_parts(a_i, c_i, z_i) on every lane, for z >= 0.

    a is one float, or an array of one a per lane, of either sign.  Fewer
    than _BATCH_MIN lanes run _series_parts one by one on Python floats.
    More run one numpy loop.  With z >= 0 the term of a lane has the sign of
    the Pochhammer symbol (a)_k, which changes at each k with a + k < 0.
    With one a, all lanes add the term to pos, or all to neg.  A call with a
    lane below 0 keeps a per-lane sign flag, toggled while a + k < 0, and
    each lane adds its term to pos or neg by its flag.  In both signed forms
    the stopping test compares |term| with max(pos, neg), as the scalar loop
    does.  Where every a >= 0, neg stays zero, is never touched, and the
    scale is pos itself.  Every lane keeps its own k_peak, stopping test,
    rescale and offset; the term index k is shared.  Each term finds its
    small lanes by index, and a term where no lane is small does no more
    than its arithmetic and its stopping test, plus one maximum for the
    rescale test in a call that keeps it.  Of the small lanes, those where the scalar
    loop would break retire: their term becomes 0, their live flag False,
    and their pos and neg are negated, so the scale is <= 0 and the lane
    passes neither the stopping test nor the rescale test again.  Once k is
    past the largest k_peak every small lane stops.  The live flag, not the
    sign of pos, marks a retired lane: a signed lane's pos underflows to 0
    after three rescales.  A retired lane's parts are written when the loop
    drops retired rows, which it does once at most half of its rows are
    live, and when the last lane retires.

    The call decides once, from its inputs, whether any sum can reach
    _RESCALE.  Only indices up to k_peak grow a term (_term_peak_bound), so
    with K = floor(k_peak) every |t_k| is at most the product over j <= K
    of max(1, |r_j|), where r_j = (a+j) z / ((c+j)(j+1)) takes t_j to
    t_{j+1}.  |r_j| <= ((|a|+j)/(j+1)) (z/c), and the product over j <= K
    of 1 + (|a|-1)/(j+1) is at most exp(max(0, |a|-1) (1 + ln(K+1))), so
    every |t_k| <= 2**b with b the lane's _sum_bits.  A sum has at most
    _MAX_TERMS + 1 terms, and rounding compounds by a factor below 1 + 2e-9
    over 2e6 steps of six roundings and one addition each; as 2,000,001
    times that factor is below 2**21, pos and neg stay below 2**(21 + b).
    Where every lane reads b < _UNSCALED_BITS = 480, no sum reaches 2**501,
    the test could never pass, and the loop runs none; the 11 bits left
    below 2**512 cover the rounding of b itself.  A call with any other
    lane keeps the test on every term, and a rescale that finds a sum at
    inf raises ConvergenceError naming that lane's series, as
    _series_parts does.
    """
    if z.size < _BATCH_MIN:
        lanes = zip(np.broadcast_to(a, z.shape).tolist(), c.tolist(), z.tolist())
        parts = [_series_parts(*lane) for lane in lanes]
        # offsets are multiples of 512, exact in a float
        pos, offset, neg, _ = np.array(parts, dtype=float).reshape(-1, 4).T
        return pos, offset.astype(np.int64), neg
    per_lane = np.ndim(a) > 0
    # while low + k < 0 the Pochhammer symbol (a)_k of some lane changes sign;
    # a Python float, as the test runs on every term
    low = float(a.min(initial=0.0)) if per_lane else a
    signed = low < 0.0
    mixed = per_lane and signed  # the sign of a term varies by lane
    k_peak = _term_peak_bounds(a, c, z)
    # floored in place: an integer k passes k > k_peak just where it passes k > floor(k_peak)
    np.floor(k_peak, out=k_peak)
    last_peak = k_peak.max(initial=0.0)
    sums = np.empty(z.shape)
    negs = np.zeros(z.shape)
    offsets = np.zeros(z.shape, dtype=np.int64)
    lane = np.arange(z.size)
    live = np.ones(z.shape, dtype=bool)
    term = np.ones(z.shape)
    pos = np.ones(z.shape)
    neg = np.zeros(z.shape)
    offset = np.zeros(z.shape, dtype=np.int64)
    ratio, work = np.empty((2, z.size))  # scratch rows, rewritten at every term
    small = np.empty(z.shape, dtype=bool)
    rescale = _sum_bits(a, c, z, k_peak, ratio, work).max(initial=0.0) >= _UNSCALED_BITS
    remaining = z.size
    negative = np.zeros(z.shape, dtype=bool) if mixed else False
    # local: read per term
    add, subtract, multiply, divide, less = np.add, np.subtract, np.multiply, np.divide, np.less
    k = 0
    while remaining:
        if k >= _MAX_TERMS:
            i = int(np.argmax(live))
            a_i = np.broadcast_to(a, z.shape)[i]
            raise ConvergenceError(
                f"Kummer series M({a_i}, {c[i]}, {z[i]}) did not converge in {k} terms"
            )
        if low + k < 0.0:
            negative ^= a + k < 0.0
            if mixed:
                positive = ~negative
        # term *= (a + k) * z / ((c + k) * (k + 1.0)), the scalar's operations.  A
        # per-lane a adds into the scratch row, as a + k would take a new array at
        # each term; a scalar a + k is one Python float, so one multiply suffices
        if per_lane:
            multiply(add(a, k, out=ratio), z, out=ratio)
        else:
            multiply(z, a + k, out=ratio)
        multiply(add(c, k, out=work), k + 1.0, out=work)
        term *= divide(ratio, work, out=ratio)
        k += 1
        if mixed:
            subtract(neg, term, out=neg, where=negative)
            add(pos, term, out=pos, where=positive)
        elif negative:
            neg -= term
        else:
            pos += term
        scale = np.maximum(pos, neg) if signed else pos
        # a zero term of a live lane is small: its scale is >= 1
        size = np.abs(term, out=ratio) if signed else term
        less(size, multiply(scale, _STOP_REL, out=work), out=small)
        stop = small.nonzero()[0]
        if stop.size and k <= last_peak:  # past every lane's peak bound each small lane stops
            stop = stop[(term[stop] == 0.0) | (k > k_peak[stop])]
        if stop.size:
            term[stop] = 0.0
            live[stop] = False
            pos[stop] = -pos[stop]  # an unsigned lane's scale is its pos
            if signed:
                neg[stop] = -neg[stop]
                scale[stop] = 0.0  # so this term's rescale test skips the lane
            remaining -= stop.size
            if 2 * remaining <= live.size:
                # a retired lane holds its parts negated; abs restores them, also where
                # a zero term added since turned a -0.0 into 0.0
                retired = ~live
                rows = lane[retired]
                sums[rows] = np.abs(pos[retired])
                offsets[rows] = offset[retired]
                if signed:
                    negs[rows] = np.abs(neg[retired])
                if not remaining:
                    break
                lane, c, z, k_peak = lane[live], c[live], z[live], k_peak[live]
                term, pos, neg, offset = term[live], pos[live], neg[live], offset[live]
                if per_lane:
                    a = a[live]
                if mixed:
                    negative, positive = negative[live], positive[live]
                live = np.ones(remaining, dtype=bool)
                ratio, work = np.empty((2, remaining))
                small = np.empty(remaining, dtype=bool)
                scale = np.maximum(pos, neg) if signed else pos
        if rescale and (top := np.maximum.reduce(scale)) > _RESCALE:
            if top == math.inf:
                i = int(np.argmax(scale))
                a_i = np.broadcast_to(a, z.shape)[i]
                message = f"Kummer series M({a_i}, {c[i]}, {z[i]}) overflowed at term {k}"
                raise ConvergenceError(message)
            big = scale > _RESCALE
            pos[big] *= _RESCALE_INV
            if signed:
                neg[big] *= _RESCALE_INV
            term[big] *= _RESCALE_INV
            offset[big] += 512
    return sums, offsets, negs


def kummer_log_ratios(a: float, c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(a/c_i) M(a+1, c_i+1, z_i) / M(a, c_i, z_i) from the Kummer series on every lane.

    For finite a > 0 and arrays c > 0, 0 <= z <= 1e6.  Each lane is the
    float that the series route of the scalar ``kummer_log_ratio`` returns,
    bit for bit: both series are the two halves of one _series_sums call,
    whose first parameter is a + 1 on one half and a on the other, and
    their quotient is formed as the scalar forms it.  So n lanes pay one
    loop's cost per term, on 2n lanes.  The expansion is never tried, so
    a lane equals ``kummer_log_ratio`` wherever the scalar refuses it, as for
    a = 1/2 at every c >= 1 with z <= c + sqrt(c) + 1.
    """
    c = np.asarray(c, dtype=float)
    z = np.asarray(z, dtype=float)
    if c.shape != z.shape or c.ndim != 1:
        raise DomainError(f"c and z must be 1-d arrays of one length, got {c.shape} and {z.shape}")
    if not 0.0 < a < math.inf:
        raise DomainError(f"kummer_log_ratios requires finite a > 0, got a={a!r}")
    message = "kummer_log_ratios requires finite c > 0, got c[{i}]={c!r}"
    _require_lanes((c > 0.0) & (c < math.inf), DomainError, message, c=c)
    z = _require_in("z", z, 0.0, _MAX_ABS_Z)
    # M(a+1, c+1, z) on the first n lanes of one call, M(a, c, z) on the last n
    n = z.size
    first = np.repeat([a + 1.0, a], n)
    with np.errstate(over="ignore"):  # a sum that overflows raises ConvergenceError, not a warning
        sums, offsets, _ = _series_sums(first, np.concatenate([c + 1.0, c]), np.concatenate([z, z]))
    # the scalar series route's quotient: both sums lie in [1, 2**513], so
    # num / den rounds once, and the power of two scales the product exactly
    shift = np.where(a / c < _MIN_NORMAL, _SUBNORMAL_SHIFT, 0)
    quotient = (np.ldexp(a, shift) / c) * (sums[:n] / sums[n:])
    return np.ldexp(quotient, offsets[:n] - offsets[n:] - shift)


def _kummer_values(a: float, c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """M(a, c_i, z_i) on every lane of checked arrays c and 0 <= z <= 1e6, as floats.

    Each lane is its series' pos - neg scaled exactly by their power-of-two
    offset, saturated to +-inf past the float range.
    """
    pos, offset, neg = _series_sums(a, c, z)
    with np.errstate(over="ignore"):
        return np.ldexp(pos - neg, offset)


def _cylinder_anchors(mu: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D_mu(z_i), D_{mu-1}(z_i)) for mu < -1 on lanes z_i > 0, one quadrature per block.

    A block's rows of order mu - 1, then mu, are the two halves of one
    (2 lanes, nodes) view of a buffer that grows only when a level has more
    nodes than any before: the kernel exp(-t^2/2 - z t) fills the first
    half, its product with t^(-mu-1) the second, and t^(-(mu-1)-1) then
    multiplies the first in place.  -t^2/2 and both powers of t are formed
    once per node array of the call, not once per block.  Each order nu
    keeps the float expressions of a quadrature of its own, t**(-nu - 1) and
    Gamma(-nu) with nu = mu - 1.0 as written, and so its floats.
    """
    lower = mu - 1.0
    integral = np.empty((2, z.size))
    work = np.empty(0)
    # -t^2/2 and both node powers by node array length: every block's quadrature
    # samples the same levels, and no two levels have one length
    powers = {}

    def integrand(t: np.ndarray) -> np.ndarray:
        nonlocal work
        lanes = block.size
        size = 2 * lanes * t.size
        if work.size < size:
            work = np.empty(size)
        rows = work[:size].reshape(2 * lanes, t.size)
        kernel = rows[:lanes]
        if t.size not in powers:
            powers[t.size] = -0.5 * t * t, t ** (-mu - 1.0), t ** (-lower - 1.0)
        square, upper_power, lower_power = powers[t.size]
        np.subtract(square, np.multiply.outer(block, t, out=kernel), out=kernel)
        np.exp(kernel, out=kernel)
        np.multiply(upper_power, kernel, out=rows[lanes:])
        kernel *= lower_power
        return rows

    for start in range(0, z.size, _LANE_BLOCK):
        block = z[start : start + _LANE_BLOCK]
        integral[:, start : start + block.size] = integrate_semi_infinite(integrand).reshape(2, -1)
    # exp(-z^2/4) from z^2 = hi + lo split exactly (Dekker): the rounding of
    # z * z alone would cost up to z^2/4 ulp, 6e-14 at z = 48
    hi = z * z
    split = 134217729.0 * z  # 2**27 + 1
    z_hi = split - (split - z)
    z_lo = z - z_hi
    lo = ((z_hi * z_hi - hi) + 2.0 * z_hi * z_lo) + z_lo * z_lo
    gauss = _libm_exp(-0.25 * hi) * (1.0 - 0.25 * lo)
    return gauss * integral[1] / math.gamma(-mu), gauss * integral[0] / math.gamma(-lower)


def _cylinder_lifted(nu: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D_nu(z_i), D_{nu-1}(z_i)) on lanes z_i > 0.

    Half-line integrals at mu and mu-1, where mu = nu - max(0, floor(nu) + 2)
    < -1, lifted to nu by D_{mu+1}(z) = z D_mu(z) - mu D_{mu-1}(z).  While
    mu < 0 both terms are positive; above that the subtracted term is
    smaller by ~mu/z^2 at large z.  The lift ends holding D_{nu-1} as well.
    """
    lifts = max(0, int(math.floor(nu)) + 2)
    mu = nu - lifts
    value, below = _cylinder_anchors(mu, z)
    for _ in range(lifts):
        below, value = value, z * value - mu * below
        mu += 1.0
    return value, below


def _reciprocal_gamma(x: float) -> float:
    """1/Gamma(x) for any real x, zero at the poles."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    return 1.0 / math.gamma(x)


def _cylinder_even_odd(nu: float, z: np.ndarray) -> np.ndarray:
    """D_nu(z_i) and D_{nu-1}(z_i) as two rows, from the even/odd Kummer decomposition

        2^{nu/2} sqrt(pi) e^{-z^2/4} [ M(-nu/2, 1/2, z^2/2) / Gamma((1-nu)/2)
                                       - sqrt(2) z M((1-nu)/2, 3/2, z^2/2) / Gamma(-nu/2) ]

    at each order.  The four series, even and odd at nu and then at nu - 1,
    are the quarters of one _series_sums call, each first parameter formed
    by its order's expression above.  The Kummer factors reach exp(z^2/2),
    so each piece is a float times its series' power-of-two offset,
    e^{-z^2/4} is gauss 2^k, the split ``_exp_split(-0.25 * z * z)`` that
    both orders share, and one final ldexp applies offset and k.  Each
    order's constants are a column that multiplies its row, so each value
    is the float that the same operations on that order alone form, and
    scaling by powers of two is exact, so it is the float they form on an
    unbounded exponent range.  Accurate for z <= 0, where the two pieces
    reinforce the dominant exp(+z^2/4) branch; useless for large z > 0,
    where they cancel to the recessive solution.
    """
    orders = (nu, nu - 1.0)
    n = z.size
    w = 0.5 * z * z
    first = [a for order in orders for a in (-0.5 * order, 0.5 * (1.0 - order))]
    c = np.tile(np.repeat([0.5, 1.5], n), 2)
    pos, offset, neg = _series_sums(np.repeat(first, n), c, np.tile(w, 4))
    # [order, piece, lane], the even piece first
    sums, offsets = (pos - neg).reshape(2, 2, n), offset.reshape(2, 2, n)
    even_offset, odd_offset = offsets[:, 0], offsets[:, 1]
    # each order's constants, as columns that multiply its row
    even_scale, odd_scale, scale = np.array(
        [
            [
                _reciprocal_gamma(0.5 * (1.0 - order)),
                _reciprocal_gamma(-0.5 * order),
                2.0 ** (0.5 * order) * math.sqrt(math.pi),
            ]
            for order in orders
        ]
    ).T[..., None]
    even = even_scale * sums[:, 0]
    odd = -math.sqrt(2.0) * z * odd_scale * sums[:, 1]
    offset = np.maximum(even_offset, odd_offset)
    pieces = np.ldexp(even, even_offset - offset) + np.ldexp(odd, odd_offset - offset)
    # an exact-zero piece leaves the other as it is, at its own offset, which the
    # alignment to the larger offset could push below the normal range
    pieces = np.where(even == 0.0, odd, np.where(odd == 0.0, even, pieces))
    offset = np.where(even == 0.0, odd_offset, np.where(odd == 0.0, even_offset, offset))
    gauss, k = _exp_split(-0.25 * z * z)
    return np.ldexp(gauss * scale * pieces, offset + k)


def _cylinder_lanes(nu: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D_nu(z_i) and D'_nu(z_i) on every lane of a checked 1-d array z.

    Lanes with z <= 0 take the even/odd Kummer decomposition for both orders
    nu and nu - 1, whose pieces reinforce there, in one series call and one
    assembly.  Lanes with z > 0 take the lifted half-line integrals and share
    one quadrature per _LANE_BLOCK lanes.  A side without lanes runs nothing.
    The derivative is the recurrence nu D_{nu-1}(z) - (z/2) D_nu(z).
    """
    value, below = np.empty((2, z.size))
    left = z <= 0.0
    if left.any():
        value[left], below[left] = _cylinder_even_odd(nu, z[left])
    right = ~left
    if right.any():
        value[right], below[right] = _cylinder_lifted(nu, z[right])
    return value, nu * below - 0.5 * z * value


def cylinder_d(nu: float, z: float) -> CylinderValue:
    """Parabolic cylinder function D_nu(z) with derivative, nu in [-4, 4].

    The derivative is always the recurrence combination
    nu D_{nu-1}(z) - (z/2) D_nu(z), never a numerical difference.
    """
    nu = _require_in("nu", nu, -4.0, 4.0)
    z = _require_in("z", z, -_MAX_CYLINDER_Z, _MAX_CYLINDER_Z)
    value, derivative = _cylinder_lanes(nu, np.array([z]))
    return CylinderValue(value=value.item(), derivative=derivative.item())


def cylinder_ds(nu: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D_nu(z_i) and D'_nu(z_i) on every lane of a 1-d array z, for nu in [-4, 4] and |z_i| <= 50.

    Each lane is ``cylinder_d(nu, z_i)``'s value and derivative, bit for bit:
    both run the same lane code.
    """
    nu = _require_in("nu", nu, -4.0, 4.0)
    z = _require_in("z", np.asarray(z), -_MAX_CYLINDER_Z, _MAX_CYLINDER_Z)
    return _cylinder_lanes(nu, z)
