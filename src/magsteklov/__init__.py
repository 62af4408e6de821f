"""Magnetic Steklov spectrum of the unit disk under a constant field.

Subpackages:

* ``numerics``: the error types, the lane exp, quadrature, root finding.
* ``specfun``: the Kummer series and M'/M, parabolic cylinder D_nu.
* ``disk``: eigenvalue branches lambda_n(b) and the ground-state envelope.
* ``intersect``: branch crossing points z_n and their asymptotics.
* ``models``: the constants alpha, xi0, theta0 and the limit functions.
* ``verify``: the named checks, and the reference routes only they use
  (central differences among them).
* ``cli``: command-line sweeps, the constants report, and the check table.
"""

__version__ = "0.1.0"

import importlib

# cli and verify load on first use (``from magsteklov import cli``, or an
# attribute read such as ``magsteklov.verify``), so that ``python -m
# magsteklov.cli`` does not find its own module already imported, and the
# data commands never load verify.
from . import disk, intersect, models, numerics, specfun

__all__ = ["cli", "disk", "intersect", "models", "numerics", "specfun", "verify"]


def __getattr__(name: str):
    if name in ("cli", "verify"):
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
