"""Perfect-sorting design search for N-path matter-wave mass sorters.

Sorting species k into output port k requires the relative path phases
to satisfy, for every mass k and path s,

    2*pi * dL_s * m_k * v / h  =  (2*pi/N) * k * s  +  2*pi * n_{k,s}

with integer windings n_{k,s} (n_{k,0} = 0).  In units of the reference
wavelength, x_s := dL_s * m_0 * v / h, the k = 0 row forces x_s to be an
integer, so the search runs over integer x_s and checks the remaining
congruences exactly with rational mass ratios.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .constants import ATOMIC_MASS_KG, PLANCK_H

PHASE_TOL = 1e-9           # rad; max residual for a design to count as valid
RATIO_REL_TOL = 1e-9       # relative tolerance when rationalizing mass ratios
DEFAULT_MAX_WINDING = 1000
DEFAULT_DENOM_BOUND = 10_000


class NonCommensurableMassesError(ValueError):
    """Mass ratios admit no rational approximation within the denominator bound."""


class InfeasibleDesignError(ValueError):
    """No winding solution exists within the search bounds.

    `report` carries the best approximation found (per-path minimal
    residuals for the N-path solver, best odd/even integer pair for the
    two-species solver).
    """

    def __init__(self, message: str, report: dict | None = None):
        super().__init__(message)
        self.report = report or {}


@dataclass(frozen=True)
class Species:
    """A sortable mass point."""

    name: str
    mass: float  # kg

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ValueError(f"species {self.name!r}: mass must be positive, got {self.mass}")


@dataclass(frozen=True)
class MmiGeometry:
    """Multimode-interference coupler geometry."""

    width: float   # m
    length: float  # m
    ports: int


@dataclass(frozen=True)
class TwoSpeciesSolution:
    k1: int
    k2: int
    delta_length: float            # m
    phases: tuple[float, float]    # rad, (species 1, species 2)


@dataclass(frozen=True)
class SorterDesign:
    """Solved sorter: path-length offsets and phase windings for N species."""

    velocity: float                       # m/s, common to all species
    species: tuple[Species, ...]          # index k
    delta_lengths: tuple[float, ...]      # m, dL_s with dL_0 = 0
    windings: tuple[tuple[int, ...], ...] # n_{k,s}, row k, column s
    coupler: MmiGeometry | None = None

    @property
    def n(self) -> int:
        return len(self.species)


def de_broglie_wavelength(mass: float, velocity: float) -> float:
    """Matter wavelength h / (m * v)."""
    if mass <= 0 or not (math.isfinite(velocity) and velocity > 0):
        raise ValueError(f"mass and velocity must be positive and finite, got {mass}, {velocity}")
    return PLANCK_H / (mass * velocity)


def phase_shift(delta_length: float, mass: float, velocity: float) -> float:
    """Unwrapped phase 2*pi * dL * m * v / h accumulated over a path offset."""
    if mass <= 0 or not (math.isfinite(velocity) and velocity > 0):
        raise ValueError(f"mass and velocity must be positive and finite, got {mass}, {velocity}")
    return 2.0 * np.pi * delta_length * mass * velocity / PLANCK_H


def wrap_phase(phi):
    """Wrap phases to [-pi, pi]."""
    phi = np.asarray(phi, dtype=float)
    return phi - 2.0 * np.pi * np.round(phi / (2.0 * np.pi))


def solve_two_species(
    m1: float,
    m2: float,
    velocity: float,
    max_k: int = DEFAULT_MAX_WINDING,
) -> TwoSpeciesSolution:
    """Smallest (k1, k2) with m1/m2 = 2*k1 / (2*k2 + 1), dL = k1 * lambda_1.

    Species 1 then exits one port (phase multiple of 2*pi) and species 2
    the other (odd multiple of pi).  Raises InfeasibleDesignError with the
    best rational approximation when no pair exists within max_k.
    """
    if m1 <= 0 or m2 <= 0 or velocity <= 0:
        raise ValueError("masses and velocity must be positive")
    if m1 == m2:
        raise ValueError("species masses must differ")
    ratio = m1 / m2
    best = None  # (rel_error, k1, k2)
    for k1 in range(1, max_k + 1):
        t = 2.0 * k1 / ratio
        t_odd = 2 * round((t - 1.0) / 2.0) + 1
        if t_odd < 1:
            continue
        k2 = (t_odd - 1) // 2
        if k2 > max_k:
            continue
        rel = abs(2.0 * k1 / t_odd - ratio) / ratio
        if best is None or rel < best[0]:
            best = (rel, k1, k2)
        if rel <= RATIO_REL_TOL:
            lam1 = de_broglie_wavelength(m1, velocity)
            delta_length = k1 * lam1
            phases = (
                phase_shift(delta_length, m1, velocity),
                phase_shift(delta_length, m2, velocity),
            )
            return TwoSpeciesSolution(k1=k1, k2=k2, delta_length=delta_length, phases=phases)
    report = {}
    if best is not None:
        report = {
            "best_k1": best[1],
            "best_k2": best[2],
            "best_ratio": 2.0 * best[1] / (2.0 * best[2] + 1),
            "relative_error": best[0],
        }
    raise InfeasibleDesignError(
        f"no odd/even pair matches mass ratio {ratio!r} within max_k={max_k}", report
    )


def _rationalize_masses(masses: list[float], denom_bound: int) -> list[int]:
    """Integer proportions A_k with m_k / m_0 = A_k / A_0 within RATIO_REL_TOL."""
    fracs = []
    for m in masses:
        r = m / masses[0]
        f = Fraction(r).limit_denominator(denom_bound)
        if f <= 0 or abs(float(f) - r) > RATIO_REL_TOL * r:
            raise NonCommensurableMassesError(
                f"mass ratio {r!r} has no rational approximation with denominator "
                f"<= {denom_bound} within relative tolerance {RATIO_REL_TOL}"
            )
        fracs.append(f)
    common = math.lcm(*(f.denominator for f in fracs))
    return [int(f * common) for f in fracs]


def solve_n_path(
    species: list[Species] | tuple[Species, ...],
    velocity: float,
    max_winding: int = DEFAULT_MAX_WINDING,
    denom_bound: int = DEFAULT_DENOM_BOUND,
) -> SorterDesign:
    """Find the shortest path offsets dL_s sorting all N species at once.

    For each path s the candidate x_s = dL_s * m_0 * v / h runs over the
    integers 1..max_winding (the k = 0 congruence admits nothing else);
    a candidate is accepted when every mass row yields an integer winding.
    The smallest feasible x_s wins, giving the shortest interferometer.
    """
    species = tuple(species)
    n = len(species)
    if n < 2:
        raise ValueError("need at least 2 species to sort")
    masses = [sp.mass for sp in species]
    if len(set(masses)) != n:
        raise ValueError("species masses must be distinct")
    if not (math.isfinite(velocity) and velocity > 0):
        raise ValueError(f"velocity must be positive and finite, got {velocity}")

    proportions = _rationalize_masses(masses, denom_bound)
    a0 = proportions[0]
    lam0 = de_broglie_wavelength(masses[0], velocity)

    delta_lengths = [0.0] * n
    windings = [[0] * n for _ in range(n)]
    infeasible: dict[int, dict] = {}

    for s in range(1, n):
        solution = None
        best_residual = math.inf  # cycles, max over k, minimized over x
        for x in range(1, max_winding + 1):
            column = [0] * n
            column[0] = x
            worst = 0.0
            ok = True
            for k in range(1, n):
                t = Fraction(proportions[k] * x, a0) - Fraction(k * s, n)
                if t.denominator == 1 and abs(t) <= max_winding:
                    column[k] = int(t)
                else:
                    ok = False
                    frac = t - round(t)
                    worst = max(worst, abs(float(frac)))
            if ok:
                solution = (x, column)
                break
            best_residual = min(best_residual, worst)
        if solution is None:
            infeasible[s] = {
                "min_residual_cycles": best_residual,
                "min_residual_rad": 2.0 * np.pi * best_residual,
            }
            continue
        x, column = solution
        delta_lengths[s] = x * lam0
        for k in range(n):
            windings[k][s] = column[k]

    if infeasible:
        raise InfeasibleDesignError(
            f"no winding solution within max_winding={max_winding} for paths "
            f"{sorted(infeasible)}",
            {"paths": infeasible},
        )

    return SorterDesign(
        velocity=velocity,
        species=species,
        delta_lengths=tuple(delta_lengths),
        windings=tuple(tuple(row) for row in windings),
    )


def verify_design(design: SorterDesign) -> np.ndarray:
    """Per-(k, s) phase residual, wrapped to [-pi, pi].

    Residual r_{k,s} = wrap(2*pi * dL_s * m_k * v / h - 2*pi*k*s/N); the
    design is valid iff max |r| <= PHASE_TOL.
    """
    n = design.n
    masses = np.array([sp.mass for sp in design.species])
    dl = np.array(design.delta_lengths)
    total = 2.0 * np.pi * np.outer(masses, dl) * design.velocity / PLANCK_H
    target = 2.0 * np.pi / n * np.outer(np.arange(n), np.arange(n))
    return wrap_phase(total - target)


def distinct_phases_check(n: int, k: int) -> bool:
    """True iff the N sorting phases (2*pi/N)*k*s, s = 0..N-1, are all distinct."""
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
    return len({(k * s) % n for s in range(n)}) == n


def mmi_length(width: float, wavelength: float, n: int) -> float:
    """Self-imaging coupler length 4*W**2 / (lambda * N)."""
    if width <= 0 or wavelength <= 0 or n < 1:
        raise ValueError("width, wavelength and port count must be positive")
    return 4.0 * width**2 / (wavelength * n)


def path_error_budget(wavelengths: list[float], n: int) -> float:
    """Rule-of-thumb path-length control requirement min(lambda) / N."""
    if not wavelengths:
        raise ValueError("need at least one wavelength")
    if n < 2:
        raise ValueError("sorting needs at least 2 species")
    return min(wavelengths) / n


# --- JSON interfaces -------------------------------------------------------

def species_from_obj(obj: dict) -> Species:
    """Parse {name, mass_kg} or {name, mass_u} into a Species."""
    name = obj["name"]
    if "mass_kg" in obj:
        mass = float(obj["mass_kg"])
    elif "mass_u" in obj:
        mass = float(obj["mass_u"]) * ATOMIC_MASS_KG
    else:
        raise ValueError(f"species {name!r}: need mass_kg or mass_u")
    return Species(name=str(name), mass=mass)


def load_species_file(path: str | Path) -> list[Species]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, list) or not data:
        raise ValueError("species file must be a non-empty JSON array")
    return [species_from_obj(obj) for obj in data]


def design_to_dict(design: SorterDesign) -> dict:
    out = {
        "n": design.n,
        "velocity_mps": design.velocity,
        "species": [{"name": sp.name, "mass_kg": sp.mass} for sp in design.species],
        "delta_L_m": list(design.delta_lengths),
        "windings": [list(row) for row in design.windings],
    }
    if design.coupler is not None:
        out["coupler"] = {
            "width_m": design.coupler.width,
            "length_m": design.coupler.length,
            "ports": design.coupler.ports,
        }
    return out


def design_from_dict(data: dict) -> SorterDesign:
    coupler = None
    if "coupler" in data:
        c = data["coupler"]
        coupler = MmiGeometry(width=float(c["width_m"]), length=float(c["length_m"]),
                              ports=int(c["ports"]))
    return SorterDesign(
        velocity=float(data["velocity_mps"]),
        species=tuple(species_from_obj(obj) for obj in data["species"]),
        delta_lengths=tuple(float(x) for x in data["delta_L_m"]),
        windings=tuple(tuple(int(w) for w in row) for row in data["windings"]),
        coupler=coupler,
    )


def save_design(design: SorterDesign, path: str | Path) -> None:
    Path(path).write_text(json.dumps(design_to_dict(design), indent=2) + "\n",
                          encoding="utf-8")


def load_design(path: str | Path) -> SorterDesign:
    return design_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
