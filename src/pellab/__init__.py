"""Exact arithmetic for polynomial Pell equations and their monodromy."""

from __future__ import annotations

__version__ = "0.1.0"

from . import census, exactpoly, hurwitz, pellcore, permgroup

__all__ = ["census", "cli", "exactpoly", "hurwitz", "pellcore", "permgroup", "__version__"]
