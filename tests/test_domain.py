"""One interval rule for every public argument whose domain is a closed interval.

Each such argument is checked by ``numerics._require_in``, so each refuses
NaN, +-inf and a value just past either end with one message form, naming
the argument and the value: ``{name} must lie in [{lo:g}, {hi:g}], got
{name}={value!r}``.  An argument taken as lanes names the first bad lane,
``{name}[{i}]={value!r}``, and refuses an array of any rank but 1 by its
shape.
"""

import math
import re

import numpy as np
import pytest

from magsteklov import disk, models
from magsteklov.numerics import DomainError, _require_in
from magsteklov.specfun import cylinder_d, cylinder_ds, kummer_log_ratio, kummer_log_ratios

# (entry, name, lo, hi, call of the entry with x as the argument, lanes)
INTERVALS = [
    ("cylinder_d", "nu", -4.0, 4.0, lambda x: cylinder_d(x, 0.5), False),
    ("cylinder_d", "z", -50.0, 50.0, lambda x: cylinder_d(0.5, x), False),
    ("cylinder_ds", "nu", -4.0, 4.0, lambda x: cylinder_ds(x, np.array([0.5])), False),
    ("cylinder_ds", "z", -50.0, 50.0, lambda x: cylinder_ds(0.5, x), True),
    ("kummer_log_ratio", "z", -1e6, 1e6, lambda x: kummer_log_ratio(0.5, 1.0, x), False),
    ("kummer_log_ratios", "z", 0.0, 1e6, lambda x: kummer_log_ratios(0.5, np.ones(2), x), True),
    ("lambda_n", "b", -1e6, 1e6, lambda x: disk.lambda_n(0, x), False),
    ("lambda_minus_n", "b", -1e6, 1e6, lambda x: disk.lambda_minus_n(1, x), False),
    ("envelope", "b", 0.0, 1e6, disk.envelope, True),
    ("halfplane_multiplier", "xi", -50.0, 50.0, models.halfplane_multiplier, False),
    ("halfplane_multiplier", "xi", -50.0, 50.0, models.halfplane_multiplier, True),
    ("phi", "beta", -50.0, 50.0, models.phi, False),
    ("moment_integrals", "beta", -37.0, 37.0, models.moment_integrals, False),
    ("degennes_f", "xi", 0.0, 1.5, models.degennes_f, False),
]


def _cases():
    for entry, name, lo, hi, call, lanes in INTERVALS:
        values = {
            "nan": math.nan,
            "inf": math.inf,
            "-inf": -math.inf,
            "below": math.nextafter(lo, -math.inf),
            "above": math.nextafter(hi, math.inf),
        }
        for label, value in values.items():
            if lanes:
                # the bad value is lane 1, behind the lower end itself
                given = np.array([lo, value])
                expected = f"{name}[1]={value!r}"
            else:
                given, expected = value, f"{name}={value!r}"
            message = f"{name} must lie in [{lo:g}, {hi:g}], got {expected}"
            suffix = "-lanes" if lanes else ""
            yield pytest.param(call, given, message, id=f"{entry}-{name}{suffix}-{label}")
        if lanes and entry != "kummer_log_ratios":  # its shapes are the rule of c and z together
            message = f"{name} must be a 1-d array, got shape (1, 1)"
            yield pytest.param(call, np.array([[1.0]]), message, id=f"{entry}-{name}-2-d")


@pytest.mark.parametrize("call, given, message", list(_cases()))
def test_every_interval_argument_raises_the_one_form(call, given, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(given)


def test_a_number_given_for_a_grid_is_refused_by_its_shape():
    with pytest.raises(DomainError, match=re.escape("b must be a 1-d array, got shape ()")):
        disk.envelope(5.0)


class TestRequireIn:
    def test_the_ends_are_inside(self):
        assert _require_in("x", -1.0, -1.0, 2.0) == -1.0
        assert _require_in("x", 2.0, -1.0, 2.0) == 2.0
        assert _require_in("x", np.array([-1.0, 2.0]), -1.0, 2.0).tolist() == [-1.0, 2.0]

    def test_a_number_is_returned_as_a_float_and_lanes_as_floats(self):
        for x in (np.float64(0.25), np.int64(1), 1):
            value = _require_in("x", x, 0.0, 1.0)
            assert type(value) is float and value == float(x)
        lanes = _require_in("x", np.array([0, 1]), 0.0, 1.0)
        assert lanes.dtype == np.float64 and lanes.tolist() == [0.0, 1.0]

    def test_the_first_of_several_bad_lanes_is_named(self):
        message = "x must lie in [0, 1], got x[1]=-0.5"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            _require_in("x", np.array([0.5, -0.5, math.nan]), 0.0, 1.0)
