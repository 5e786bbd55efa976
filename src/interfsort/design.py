"""Perfect-sorting design search for N-path matter-wave mass sorters.

Sorting species k into output port k requires the relative path phases
to satisfy, for every mass k and path s,

    2*pi * dL_s * m_k * v / h  =  (2*pi/N) * k * s  +  2*pi * n_{k,s}

with integer windings n_{k,s} (n_{k,0} = 0).  In units of the reference
wavelength, x_s := dL_s * m_0 * v / h, the k = 0 row forces x_s to be an
integer.  With integer mass proportions m_k / m_0 = A_k / A_0 the other
rows become the linear congruences

    N * A_k * x_s  =  k * s * A_0   (mod N * A_0),

Given row 1, the rows k >= 2 only ask that x be a multiple of one step
P, so every path reduces to the single congruence N*A_1*P*y = s*A_0
(mod N*A_0) in x = P*y: a gcd test and a modular inverse computed once
per design.  The proportions A_k come from the continued fraction of
each float ratio, in integer arithmetic, with denominators of at most
N*max_winding: a path with x_s <= max_winding sorts only the ratios
m_k / m_0 = (k*s + N*n_{k,s}) / (N*x_s).  Feasibility is therefore
decided by arithmetic, and an infeasible path comes with what obstructs
it: the congruence, or the winding bound its shortest solution exceeds.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from . import _np as np
from .constants import ATOMIC_MASS_KG, PLANCK_H, SPEED_OF_LIGHT

PHASE_TOL = 1e-9           # rad; max residual for a design to count as valid
RATIO_REL_TOL = 1e-9       # relative tolerance when rationalizing mass ratios
DEFAULT_MAX_WINDING = 1000
# fractions up to this denominator are >= 2*RATIO_REL_TOL apart; beyond it lies float noise
_MAX_DENOMINATOR = math.isqrt(round(0.5 / RATIO_REL_TOL))
_RESIDUAL_BLOCK = 1 << 16   # residues per block of the residual scan
_RESIDUAL_BUDGET = 1 << 24  # residues per residual scan, over all blocks


class InfeasibleDesignError(ValueError):
    """No design exists whose path offsets and windings stay within max_winding.

    `report["paths"][s]` carries each infeasible path's obstruction and its
    minimal residual over x = 1..report["residual_x_max"], x whose windings
    all stay within max_winding (None, and residual_x_max 0, when x = 1
    already winds beyond it).  The obstruction is {"type": "congruence",
    "step": P, "gcd": g, "modulus": N*A_0} when g = gcd(N*A_1*P, N*A_0)
    does not divide s*A_0, or {"type": "winding_bound", "x": x,
    "max_winding_needed": w} when the shortest solution x needs windings up
    to w > max_winding.
    """

    def __init__(self, message: str, report: dict | None = None):
        super().__init__(message)
        self.report = report or {}


class NonCommensurableMassesError(InfeasibleDesignError):
    """An infeasible design: a mass ratio has no rational approximation with a denominator
    <= min(N*max_winding, _MAX_DENOMINATOR), as all ratios of a design have.  Empty report."""


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

    @cached_property
    def path_phases(self) -> tuple[tuple[float, ...], ...]:
        """N x N accumulated phases 2*pi * dL_s * m_k * v / h, as rows = mass k of floats.

        Plain floats, so that verifying a design loads no numpy; np.asarray
        takes the rows as an (N, N) array.  Each entry is phase_shift(dL_s,
        m_k, v), written out in its order of operations with the velocity
        checked once: N**2 calls cost twice as much at N = 7.  The fields
        are trusted: they are checked where a design is built (solve_n_path,
        design_from_dict), not on every call.  Formed once per design and
        shared by design_from_dict, verify_design and design_leakage: the
        fields are frozen, and dataclasses.replace builds a new design.
        """
        v = self.velocity
        require_velocity(v)
        return tuple([tuple([2.0 * math.pi * dl * sp.mass * v / PLANCK_H
                             for dl in self.delta_lengths]) for sp in self.species])


def require_velocity(velocity: float) -> None:
    """Refuse a velocity outside 0 < v < c: h / (m*v) describes a slow matter wave."""
    if not 0 < velocity < SPEED_OF_LIGHT:
        raise ValueError(f"velocity must be finite, positive and below c = {SPEED_OF_LIGHT} m/s, "
                         f"got {velocity}")


def de_broglie_wavelength(mass: float, velocity: float) -> float:
    """Matter wavelength h / (m * v) for 0 < v < c.

    A momentum or a wavelength below the smallest normal float is refused:
    it keeps too few bits, or none, for the phases built on it.
    """
    require_velocity(velocity)
    if not mass > 0:
        raise ValueError(f"mass must be positive, got {mass}")
    momentum = mass * velocity
    if not (momentum >= sys.float_info.min and PLANCK_H / momentum >= sys.float_info.min):
        raise ValueError(f"mass {mass!r} kg at velocity {velocity!r} m/s underflows the float "
                         f"range: m*v or h/(m*v) is below {sys.float_info.min!r}")
    return PLANCK_H / momentum


def phase_shift(delta_length, mass, velocity: float):
    """Unwrapped phase 2*pi * dL * m * v / h accumulated over a path offset.

    Lengths and masses broadcast as numpy arrays.  Only the scalar velocity
    is checked here (0 < v < c); a Species checks its own mass.
    """
    require_velocity(velocity)
    return 2.0 * math.pi * delta_length * mass * velocity / PLANCK_H


def solve_two_species(
    m1: float,
    m2: float,
    velocity: float,
    max_k: int = DEFAULT_MAX_WINDING,
) -> TwoSpeciesSolution:
    """Smallest (k1, k2) with m1/m2 = 2*k1 / (2*k2 + 1), dL = k1 * lambda_1.

    Species 1 then exits one port (phase multiple of 2*pi) and species 2
    the other (odd multiple of pi): path 1 of the N = 2 sorter, with
    k1 = n_{0,1} and k2 = n_{1,1}.  Raises InfeasibleDesignError, with
    solve_n_path's report, when no pair exists within max_k.
    """
    design = solve_n_path([Species("m1", m1), Species("m2", m2)], velocity, max_winding=max_k)
    delta_length = design.delta_lengths[1]
    phases = (phase_shift(delta_length, m1, velocity), phase_shift(delta_length, m2, velocity))
    return TwoSpeciesSolution(k1=design.windings[0][1], k2=design.windings[1][1],
                              delta_length=delta_length, phases=phases)


def _limit_denominator(num: int, den: int, bound: int) -> tuple[int, int]:
    """Closest p/q to num/den with q <= bound, as Fraction.limit_denominator picks it.

    num/den is non-negative and in lowest terms.  The best approximations
    are the convergents and semiconvergents of its continued fraction; of
    the best lower and upper ones within the bound, the closer wins, and a
    tie goes to the convergent p1/q1.
    """
    if den <= bound:
        return num, den
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > bound:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (bound - q0) // q1
    p2, q2 = p0 + k * p1, q0 + k * q1
    # |p1/q1 - num/den| <= |p2/q2 - num/den|, multiplied through by q1*q2*den
    if abs(p1 * den - num * q1) * q2 <= abs(p2 * den - num * q2) * q1:
        return p1, q1
    return p2, q2


def _rationalize_masses(species: tuple[Species, ...], max_winding: int) -> list[int]:
    """Integer proportions A_k with m_k / m_0 = A_k / A_0 within RATIO_REL_TOL."""
    bound = min(len(species) * max_winding, _MAX_DENOMINATOR)
    m0 = species[0].mass
    fracs = []
    for sp in species:
        r = sp.mass / m0
        if not (math.isfinite(r) and r > 0):
            problem = "overflows a float" if r else "underflows to 0"
            raise ValueError(f"species {sp.name!r}: mass ratio to species {species[0].name!r} "
                             f"({sp.mass!r} kg / {m0!r} kg) {problem}")
        p, q = _limit_denominator(*r.as_integer_ratio(), bound)
        if p <= 0 or abs(p / q - r) > RATIO_REL_TOL * r:
            raise NonCommensurableMassesError(
                f"mass ratio {r!r} has no rational approximation with denominator <= {bound} = "
                f"min(N*max_winding, {_MAX_DENOMINATOR}) within relative tolerance {RATIO_REL_TOL}"
            )
        fracs.append((p, q))
    common = math.lcm(*(q for _, q in fracs))
    return [p * (common // q) for p, q in fracs]


def _path_residues(a: list[int]) -> list[tuple[tuple[int, int] | None, dict | None]]:
    """Per path s = 1..N-1: every x solving its rows as x = r (mod M), or its obstruction.

    Mass k needs N*A_k*x = k*s*A_0 (mod N*A_0).  Given row 1, row k >= 2
    reads (A_k - k*A_1)*x = 0 (mod A_0), so the rows k >= 2 together say
    x = P*y with P = A_0 / gcd(A_0, A_2 - 2*A_1, ..., A_{N-1} - (N-1)*A_1).
    Row 1 then reads N*A_1*P*y = s*A_0 (mod N*A_0): one gcd test and one
    modular inverse, shared by every path.
    """
    n = len(a)
    mod = n * a[0]
    step = a[0] // math.gcd(a[0], *(a[k] - k * a[1] for k in range(2, n)))
    g = math.gcd(n * a[1] * step, mod)
    m = mod // g
    inv = pow(n * a[1] * step // g, -1, m)
    return [((step * (s * a[0] // g * inv % m), step * m), None) if s * a[0] % g == 0
            else (None, {"type": "congruence", "step": step, "gcd": g, "modulus": mod})
            for s in range(1, n)]


def _bounded_solution(a: list[int], s: int, r: int, m: int,
                      max_winding: int) -> tuple[list[int] | None, dict | None]:
    """Column [x, t_1(x), ..., t_{N-1}(x)] of the smallest x = r (mod m) within the
    winding bound, or the obstruction.

    The windings t_k(x) = (N*A_k*x - k*s*A_0) / (N*A_0) are exact integers at
    the shortest solution r, t_0(x) = x, and each step of m in x adds the
    integer m*A_k/A_0 to row k.  So the column at r is formed once; a row
    below -max_winding lifts x by the fewest steps that bring every row up
    to it, and the column is then the bound test: its largest entry must
    stay within max_winding, since every t_k grows with x.
    """
    mod = len(a) * a[0]
    nr, b = len(a) * r, s * a[0]
    column = [(nr * a_k - k * b) // mod for k, a_k in enumerate(a)]
    bounded = column
    if min(column) < -max_winding:
        steps = [m * a_k // a[0] for a_k in a]  # steps[0] = m, the step of x itself
        lift = max(-((t + max_winding) // d) for t, d in zip(column, steps))
        bounded = [t + lift * d for t, d in zip(column, steps)]
    if max(bounded) > max_winding:
        # r > 0, since x = 0 would need N | s in row k = 1: r is the shortest solution
        return None, {"type": "winding_bound", "x": r,
                      "max_winding_needed": max(map(abs, column))}
    return bounded, None


def _min_residual_cycles(a: list[int], paths: list[int],
                         max_winding: int) -> tuple[list[float | None], int]:
    """Per path s: min over x = 1..x_max of max over k of t_k(x)'s distance to an integer.

    Every x scanned keeps its windings within max_winding: x itself, and a
    nearest integer of every t_k(x) = (N*A_k*x - k*s*A_0) / (N*A_0) of every
    path, |t_k(x)| <= max_winding + 1/2.  t_k grows with x and falls with s,
    so the first and the last of the ascending paths bound each row: one
    range per design, and x_max = 0, with no minima, when x = 1 is already
    out of it.  The distances repeat with period N*A_0 in x, so longer ranges add nothing,
    and the scan stops early enough that it reads at most _RESIDUAL_BUDGET
    residues: x_max <= min(max_winding, N*A_0, budget / (S*K)) for S paths
    and K = N - 1 rows, returned with the minima.  N*A_k*x mod N*A_0 is the
    same for every path, so it is computed once per block of x and every
    path is read from one [S, K, X] array of at most _RESIDUAL_BLOCK entries.
    """
    n = len(a)
    mod = n * a[0]
    per_x = len(paths) * (n - 1)
    stop = min(max_winding, mod, max(1, _RESIDUAL_BUDGET // per_x))
    reach = (2 * max_winding + 1) * mod  # max_winding + 1/2, times 2*N*A_0
    for k in range(1, n):
        c, b = 2 * n * a[k], 2 * k * a[0]  # 2*N*A_0*t_k(x) = c*x - b*s
        stop = min(stop, (reach + b * paths[0]) // c)
        if c - b * paths[-1] < -reach:
            stop = 0
    if not stop:
        return [None] * len(paths), 0
    step = max(1, _RESIDUAL_BLOCK // per_x)
    coef = [n * a_k for a_k in a[1:]]
    # k*s*A_0 reduced first, so only N*A_k*x can leave the int64 range
    offset = [[k * s * a[0] % mod for k in range(1, n)] for s in paths]
    dtype = np.int64 if max(max(coef) * stop, mod) < 2**63 else object
    coef = np.array(coef, dtype=dtype)[:, None]
    offset = np.array(offset, dtype=dtype)[:, :, None]
    best = np.full(len(paths), mod, dtype=dtype)
    for first in range(1, stop + 1, step):
        x = np.arange(first, min(first + step, stop + 1)).astype(dtype)
        rem = (coef * x % mod - offset) % mod
        best = np.minimum(best, np.minimum(rem, mod - rem).max(axis=1).min(axis=1))
    return [int(b) / mod for b in best], stop


def solve_n_path(
    species: list[Species] | tuple[Species, ...],
    velocity: float,
    max_winding: int = DEFAULT_MAX_WINDING,
) -> SorterDesign:
    """Find the shortest path offsets dL_s sorting all N species at once.

    For each path s, x_s = dL_s * m_0 * v / h is the smallest positive
    integer solving the congruences N*A_k*x = k*s*A_0 (mod N*A_0) of every
    mass row whose windings all stay within max_winding.  Every path is
    solved exactly as one congruence in x = P*y (see _path_residues), so
    max_winding bounds only the windings and the ratio denominators.  A
    path's windings are its bound test: the column [x_s, n_{1,s}, ...,
    n_{N-1,s}] that _bounded_solution checks is the design's column s, so
    each path is solved in one pass over its rows.  When a path has no
    solution, InfeasibleDesignError.report["paths"][s] carries
    its obstruction and the smallest worst-row residual over x = 1..x_max,
    where report["residual_x_max"] = x_max <= max_winding bounds the scan to
    x whose windings all stay within max_winding.
    """
    if require_int(max_winding, "max_winding") < 1:
        raise ValueError(f"max_winding must be at least 1, got {max_winding}")
    species = tuple(species)
    n = len(species)
    require_sortable(n, "species")
    masses = [sp.mass for sp in species]
    if len(set(masses)) != n:
        raise ValueError("species masses must be distinct")
    require_velocity(velocity)

    proportions = _rationalize_masses(species, max_winding)
    lam0 = de_broglie_wavelength(masses[0], velocity)

    columns = [[0] * n]  # path 0: no offset and no windings
    infeasible: dict[int, dict] = {}

    for s, (residue, obstruction) in enumerate(_path_residues(proportions), start=1):
        if residue is not None:
            column, obstruction = _bounded_solution(proportions, s, *residue, max_winding)
        if obstruction is not None:
            infeasible[s] = obstruction
            continue
        columns.append(column)

    if infeasible:
        residuals, x_max = _min_residual_cycles(proportions, list(infeasible), max_winding)
        paths = {s: {"min_residual_cycles": residual,
                     "min_residual_rad": None if residual is None else 2.0 * math.pi * residual,
                     "obstruction": obstruction}
                 for (s, obstruction), residual in zip(infeasible.items(), residuals)}
        raise InfeasibleDesignError(
            f"no winding solution within max_winding={max_winding} for paths "
            f"{sorted(infeasible)}",
            {"paths": paths, "residual_x_max": x_max},
        )

    windings = tuple(zip(*columns))
    return SorterDesign(
        velocity=velocity,
        species=species,
        delta_lengths=tuple([x * lam0 for x in windings[0]]),
        windings=windings,
    )


def ideal_phases(n: int) -> np.ndarray:
    """(n, n) sorting phases 2*pi*k*s/N of the ideal sorter, rows = mass k."""
    return 2.0 * np.pi / n * np.outer(np.arange(n), np.arange(n))


def verify_design(design: SorterDesign) -> tuple[tuple[float, ...], ...]:
    """Per-(k, s) residual of the sorting condition with the design's own windings.

    r_{k,s} = 2*pi * dL_s * m_k * v / h - 2*pi*k*s/N - 2*pi*n_{k,s}, unwrapped:
    a wrong winding leaves a residual of at least pi.  The design is valid
    iff max |r| <= PHASE_TOL.  Rows = mass k of plain floats, each entry
    formed as path_phases - ideal_phases(N) - 2*pi*windings would form it.
    """
    n = design.n
    step, turn = 2.0 * math.pi / n, 2.0 * math.pi
    return tuple([tuple([p - step * (k * s) - turn * w
                         for s, p, w in zip(range(n), phases, turns)])
                  for k, phases, turns in zip(range(n), design.path_phases, design.windings)])


def distinct_phases_check(n: int, k: int) -> bool:
    """True iff the N sorting phases (2*pi/N)*k*s, s = 0..N-1, are all distinct."""
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
    return len({(k * s) % n for s in range(n)}) == n


def mmi_length(width: float, wavelength: float, n: int) -> float:
    """Self-imaging coupler length 4*W**2 / (lambda * N), refused unless positive and finite."""
    if not (0 < width < math.inf and 0 < wavelength < math.inf and n >= 1):
        raise ValueError(f"width and wavelength must be positive and finite and the port "
                         f"count positive, got {width}, {wavelength}, {n}")
    try:
        length = 4.0 * width**2 / (wavelength * n)
    except OverflowError:  # width**2 past the float range
        length = math.inf
    if not 0 < length < math.inf:
        raise ValueError(f"coupler length 4*W**2/(lambda*N) is {length} m for W = {width} m, "
                         f"lambda = {wavelength} m, N = {n}")
    return length


def path_error_budget(wavelengths: list[float], n: int) -> float:
    """Rule-of-thumb path-length control requirement min(lambda) / N."""
    if not wavelengths:
        raise ValueError("need at least one wavelength")
    require_sortable(n, "n")
    return min(wavelengths) / n


# --- JSON interfaces -------------------------------------------------------
#
# Species, design and simulate-config files are checked here, once, where they
# are read: load_json refuses a key repeated in any object, require_keys a missing
# or an unknown key, and every malformed value raises a ValueError naming its field.

def load_json(path: str | Path):
    """The JSON value in a file, refused if an object repeats a key.

    json.loads keeps the last of two values silently, so a file holding
    {"mass_u": 12, "mass_u": 99} would be read as 99 u.
    """
    def unique_keys(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"{path}: a JSON object repeats key {key!r}")
            obj[key] = value
        return obj

    return json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=unique_keys)


def require_keys(obj: dict, what: str, required=(), optional=()) -> dict:
    """Return the JSON object `what`, refused if it lacks a required key or holds a
    key that is neither required nor optional."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ValueError(f"{what} is missing required key(s): {', '.join(missing)}")
    for key in obj:
        if key not in required and key not in optional:
            raise ValueError(f"{what} has unknown key {key!r}; it takes "
                             f"{', '.join((*required, *optional))}")
    return obj


def require_number(value, field: str, *, positive: bool = False) -> float:
    """A finite JSON number (positive if asked) as a float."""
    # the bounds also refuse NaN and integers too large for a float
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not -sys.float_info.max <= value <= sys.float_info.max
            or (positive and value <= 0)):
        kind = "a positive finite number" if positive else "a finite number"
        raise ValueError(f"{field} must be {kind}, got {value!r}")
    return float(value)


def require_int(value, field: str) -> int:
    """A JSON integer; floats such as 1.5 or 2.0 are refused, not truncated."""
    if not isinstance(value, bool):  # bool is an int, but no count
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{field} must be an integer, got {value!r}")


def require_sortable(n: int, field: str) -> None:
    """Refuse a species count below 2, the fewest masses a sorter can tell apart."""
    if n < 2:
        raise ValueError(f"{field}: sorting needs at least 2 species, got {n}")


def require_list(value, field: str, length: int | None = None) -> list:
    """A JSON array, of the given length if one is given."""
    if not isinstance(value, list) or (length is not None and len(value) != length):
        kind = "a list" if length is None else f"a list of {length}"
        raise ValueError(f"{field} must be {kind}, got {value!r}")
    return value


def species_from_obj(obj: dict) -> Species:
    """Parse {name, mass_kg} or {name, mass_u} into a Species."""
    name = require_keys(obj, "a species", ("name",), ("mass_kg", "mass_u"))["name"]
    if not isinstance(name, str):
        raise ValueError(f"a species name must be a string, got {name!r}")
    if ("mass_kg" in obj) == ("mass_u" in obj):
        raise ValueError(f"species {name!r}: need exactly one of mass_kg and mass_u")
    if "mass_kg" in obj:
        mass = require_number(obj["mass_kg"], f"species {name!r}: mass_kg", positive=True)
    else:
        mass = require_number(obj["mass_u"], f"species {name!r}: mass_u",
                              positive=True) * ATOMIC_MASS_KG
    return Species(name=name, mass=mass)


def load_species_file(path: str | Path) -> list[Species]:
    data = load_json(path)
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
    """Check and parse a design object as design_to_dict writes it."""
    require_keys(data, "design", ("velocity_mps", "species", "delta_L_m", "windings"),
                 ("n", "coupler"))
    velocity = require_number(data["velocity_mps"], "velocity_mps", positive=True)
    require_velocity(velocity)
    species = tuple(species_from_obj(obj) for obj in require_list(data["species"], "species"))
    n = len(species)
    require_sortable(n, "species")
    if "n" in data and require_int(data["n"], "n") != n:
        raise ValueError(f"n is {data['n']}, but species lists {n}")
    delta_lengths = tuple(require_number(x, f"delta_L_m[{s}]")
                          for s, x in enumerate(require_list(data["delta_L_m"], "delta_L_m", n)))
    windings = tuple(
        tuple(require_int(w, f"windings[{k}][{s}]")
              for s, w in enumerate(require_list(row, f"windings[{k}]", n)))
        for k, row in enumerate(require_list(data["windings"], "windings", n)))
    # verify_design forms 2*pi * n_ks as a float: an int past the float range would
    # raise OverflowError there
    w_max = max(abs(w) for row in windings for w in row)
    if not (w_max <= sys.float_info.max and math.isfinite(2.0 * math.pi * w_max)):
        raise ValueError("windings must lie within the float range, and 2*pi times them too: "
                         "verify_design takes them as floats")
    coupler = None
    if "coupler" in data:
        c = require_keys(data["coupler"], "coupler", ("width_m", "length_m", "ports"))
        ports = require_int(c["ports"], "coupler.ports")
        if ports != n:
            raise ValueError(f"coupler.ports is {ports}, but species lists {n}")
        coupler = MmiGeometry(width=require_number(c["width_m"], "coupler.width_m", positive=True),
                              length=require_number(c["length_m"], "coupler.length_m",
                                                    positive=True),
                              ports=ports)
    design = SorterDesign(velocity=velocity, species=species, delta_lengths=delta_lengths,
                          windings=windings, coupler=coupler)
    if not all(math.isfinite(p) for row in design.path_phases for p in row):
        raise ValueError(f"path phases 2*pi * delta_L_m * mass_kg * velocity_mps / h overflow a "
                         f"float: max |delta_L_m| = {max(map(abs, delta_lengths))!r}, max "
                         f"mass_kg = {max(sp.mass for sp in species)!r}, "
                         f"velocity_mps = {velocity!r}")
    return design


def save_design(design: SorterDesign, path: str | Path) -> None:
    Path(path).write_text(json.dumps(design_to_dict(design), indent=2) + "\n",
                          encoding="utf-8")


def load_design(path: str | Path) -> SorterDesign:
    data = load_json(path)
    try:
        return design_from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
