"""Fixtures shared by the test modules."""

import pytest

from magsteklov import models


@pytest.fixture
def bound_below_alpha(monkeypatch):
    """The constants resolved with a comparison bound 0.01 below alpha; returns that bound.

    The bound is the one constant that no other ``constants`` check reads,
    so only ``alpha-below-bound`` can fail.  The cache of ``constants()`` is
    cleared on both sides, so no other test sees the patched constants.
    """
    resolved = models.constants()
    bound = resolved.alpha - 0.01
    monkeypatch.setattr(models, "comparison_bound", lambda: (resolved.u0_sq_at_0, bound))
    models.constants.cache_clear()
    yield bound
    models.constants.cache_clear()
