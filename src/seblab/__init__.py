"""Smallest enclosing ball of an intersection of balls, solved as a convex
quadratic program on the unit simplex, with multiplier certificates and an
exact joint-numerical-range membership lab for verification."""

from .geometry import (
    Certificate,
    Instance,
    Solution,
    SolveStatus,
    UnitQuadratic,
)
from .numrange import MembershipVerdict, QuadraticMap
from .solver import (
    RankRegime,
    Regime,
    build_certificate,
    classify,
    solve_seb,
)

__all__ = [
    "Certificate",
    "Instance",
    "MembershipVerdict",
    "QuadraticMap",
    "RankRegime",
    "Regime",
    "Solution",
    "SolveStatus",
    "UnitQuadratic",
    "build_certificate",
    "classify",
    "solve_seb",
]

__version__ = "0.1.0"
