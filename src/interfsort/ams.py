"""Magnetic-deflection (AMS) reference formulas.

The interferometric sorter is compared against separating the same
species by their deflection radius R = m*v / (q*B) in a magnetic field.
"""

from __future__ import annotations

import math


class NeutralSpeciesError(ValueError):
    """Magnetic deflection cannot separate uncharged species."""


def ams_radius(mass: float, velocity: float, charge: float, b_field: float) -> float:
    """Deflection radius m*v / (q*B) of a charged species."""
    if charge == 0:
        raise NeutralSpeciesError("magnetic deflection cannot separate neutral species")
    if not math.isfinite(charge):
        raise ValueError(f"charge must be finite, got {charge}")
    if not all(math.isfinite(x) and x > 0 for x in (mass, velocity, b_field)):
        raise ValueError(f"mass, velocity and field must be positive and finite, "
                         f"got {mass}, {velocity}, {b_field}")
    field_charge = charge * b_field
    if field_charge == 0:
        raise ValueError(f"q*B underflows to 0 for q = {charge} C, B = {b_field} T")
    radius = mass * velocity / field_charge
    if not math.isfinite(radius):
        raise ValueError(f"deflection radius m*v / (q*B) overflows for m = {mass} kg, "
                         f"v = {velocity} m/s, q = {charge} C, B = {b_field} T")
    return radius


def ams_separation(
    m1: float, q1: float, m2: float, q2: float, velocity: float, b_field: float
) -> float:
    """Radius difference (v/B) * (m2/q2 - m1/q1); species separation is twice this."""
    if q1 == 0 or q2 == 0:
        raise NeutralSpeciesError("magnetic deflection cannot separate neutral species")
    if not (math.isfinite(q1) and math.isfinite(q2)):
        raise ValueError(f"charges must be finite, got {q1}, {q2}")
    if not all(math.isfinite(x) and x > 0 for x in (m1, m2, velocity, b_field)):
        raise ValueError(f"masses, velocity and field must be positive and finite, "
                         f"got {m1}, {m2}, {velocity}, {b_field}")
    separation = velocity / b_field * (m2 / q2 - m1 / q1)
    if not math.isfinite(separation):
        raise ValueError(f"radius difference (v/B) * (m2/q2 - m1/q1) overflows for "
                         f"m1 = {m1} kg, m2 = {m2} kg, q1 = {q1} C, q2 = {q2} C, "
                         f"v = {velocity} m/s, B = {b_field} T")
    return separation
