"""Path-fluctuation errors and channel leakage.

Only relative phases matter: a common shift of every path leaves the
sorter unchanged, so the error state is the N-1 base phase errors of
paths 1..N-1 relative to path 0, for the reference mass.  Heavier species
see the same length errors scaled by their mass ratio m_k / m_0.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from . import _np as np
from .design import Species, SorterDesign, ideal_phases, phase_shift, require_sortable


@dataclass(frozen=True)
class PathFluctuation:
    """Per-path length errors in meters; entry 0 is the reference path."""

    delta_lengths: tuple[float, ...]

    def __post_init__(self):
        if not all(map(math.isfinite, self.delta_lengths)):
            raise ValueError("path fluctuations must be finite")


@dataclass(frozen=True)
class PhaseErrorVector:
    """Phase errors of the sorter, parametrized by the reference-mass row."""

    n: int
    base_errors: tuple[float, ...]   # rad, paths 1..n-1 for mass 0
    mass_ratios: tuple[float, ...]   # m_k / m_0, entry 0 == 1

    def __post_init__(self):
        if len(self.base_errors) != self.n - 1:
            raise ValueError(f"need {self.n - 1} base errors, got {len(self.base_errors)}")
        if len(self.mass_ratios) != self.n:
            raise ValueError(f"need {self.n} mass ratios, got {len(self.mass_ratios)}")
        if not all(map(math.isfinite, self.base_errors)):
            raise ValueError("base phase errors must be finite")
        if not all(map(math.isfinite, self.mass_ratios)):
            raise ValueError("mass ratios must be finite")

    def phase_matrix(self) -> np.ndarray:
        """(n, n) array of phase errors, rows = mass, columns = path."""
        return error_phases(self.base_errors, self.mass_ratios)


def error_phases(base_errors, mass_ratios) -> np.ndarray:
    """Phase error (m_k / m_0) * base_s of mass k on path s, with base_0 = 0.

    `base_errors` holds the reference-mass errors of paths 1..N-1 along its
    last axis, shape [..., N-1]; the result has shape [..., N, N] (rows =
    mass, columns = path), ready to add to ideal_phases(N).  The one place
    that refuses, with no numpy warning, phase errors that are not finite.
    """
    base = np.asarray(base_errors, dtype=float)
    path = np.zeros(base.shape[:-1] + (base.shape[-1] + 1,))
    path[..., 1:] = base
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        phases = np.asarray(mass_ratios, dtype=float)[:, None] * path[..., None, :]
    if not np.isfinite(phases).all():
        raise ValueError("phase errors must be finite: (m_k/m_0) * base overflows a float")
    return phases


def _base_phase_errors(d: np.ndarray, m0: float, velocity: float) -> np.ndarray:
    """2*pi * (dL_s - dL_0) * m_0 * v / h for path-length errors dL along the last axis."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused where the errors are used
        return phase_shift(d[..., 1:] - d[..., :1], m0, velocity)


def phases_from_fluctuation(
    fluct: PathFluctuation,
    species: list[Species] | tuple[Species, ...],
    velocity: float,
) -> PhaseErrorVector:
    """Convert path-length errors into the reference-mass phase errors.

    base[s] = 2*pi * (dL_s - dL_0) * m_0 * v / h; a uniform fluctuation of
    all paths therefore maps to the zero vector.
    """
    n = len(species)
    require_sortable(n, "species")
    if len(fluct.delta_lengths) != n:
        raise ValueError(f"need {n} path fluctuations, got {len(fluct.delta_lengths)}")
    m0 = species[0].mass
    base = _base_phase_errors(np.asarray(fluct.delta_lengths), m0, velocity)
    ratios = tuple(sp.mass / m0 for sp in species)
    return PhaseErrorVector(n=n, base_errors=tuple(base), mass_ratios=ratios)


def exit_probabilities(phase) -> np.ndarray:
    """Exit probabilities |c_{k,s}|**2 from the path phases of each mass.

    The sorter is F^dag diag(exp(i*phi_k)) F acting on |k,0>, so the exit
    amplitudes of mass k are one length-N DFT of its path phasors:
    c_{k,s} = fft(exp(i*phi_k))[s] / N.  `phase` has shape [..., N, N]
    (rows = mass, columns = path); leading axes are a batch.
    """
    phase = np.asarray(phase, dtype=float)
    if phase.ndim < 2 or phase.shape[-1] != phase.shape[-2]:
        raise ValueError(f"phase must have shape [..., N, N], got {phase.shape}")
    amps = np.fft.fft(np.exp(1j * phase), axis=-1) / phase.shape[-1]
    return amps.real ** 2 + amps.imag ** 2


def simulate_leakage(errs: PhaseErrorVector) -> np.ndarray:
    """Row-stochastic exit-probability matrix p_{k,s} = |c_{k,s}|**2."""
    return exit_probabilities(ideal_phases(errs.n) + errs.phase_matrix())


def design_leakage(design: SorterDesign) -> np.ndarray:
    """Exit probabilities of a concrete design, from its actual path phases.

    Uses the full accumulated phases 2*pi * dL_s * m_k * v / h, so any
    residual of an imperfect design shows up as off-diagonal leakage.
    """
    return exit_probabilities(design.path_phases)


def analytic_leakage_n3(
    delta1: float,
    delta2: float,
    ratio1: float,
    ratio2: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form amplitudes and probabilities for the 3-path sorter.

    Independent of the matrix simulation: the nine amplitudes are written
    out termwise, and the mass-0 probabilities come from the cosine form
    p_{0,s} = 1/3 + (2/9) * [three shifted cosines].
    """
    w = np.exp(2j * np.pi / 3)
    d1p, d2p = delta1 * ratio1, delta2 * ratio1
    d1pp, d2pp = delta1 * ratio2, delta2 * ratio2
    e = lambda x: np.exp(1j * x)
    amps = np.array([
        [1 + e(delta1) + e(delta2),
         1 + w**2 * e(delta1) + w * e(delta2),
         1 + w * e(delta1) + w**2 * e(delta2)],
        [1 + w * e(d1p) + w**2 * e(d2p),
         1 + e(d1p) + e(d2p),
         1 + w**2 * e(d1p) + w * e(d2p)],
        [1 + w**2 * e(d1pp) + w * e(d2pp),
         1 + w * e(d1pp) + w**2 * e(d2pp),
         1 + e(d1pp) + e(d2pp)],
    ]) / 3.0

    third = 2.0 * np.pi / 3.0
    row0 = 1.0 / 3.0 + (2.0 / 9.0) * np.array([
        np.cos(delta1) + np.cos(delta2) + np.cos(delta1 - delta2),
        np.cos(delta1 - third) + np.cos(delta2 + third) + np.cos(delta1 - delta2 + third),
        np.cos(delta1 + third) + np.cos(delta2 - third) + np.cos(delta1 - delta2 - third),
    ])
    probs = np.abs(amps) ** 2
    probs[0] = row0
    return amps, probs


def sweep_leakage(
    delta1_values,
    delta2_values,
    mass_ratios: tuple[float, ...],
) -> np.ndarray:
    """Leakage matrices over a (delta1, delta2) grid.

    Returns shape (len(delta1), len(delta2), n, n); the exit-0 probability
    of mass 0 is grid[..., 0, 0].  A grid point whose phase errors are not
    finite is refused by error_phases.
    """
    d1s = np.atleast_1d(np.asarray(delta1_values, dtype=float))
    d2s = np.atleast_1d(np.asarray(delta2_values, dtype=float))
    if d1s.size == 0 or d2s.size == 0:
        raise ValueError("sweep ranges must be non-empty")
    ratios = np.asarray(mass_ratios, dtype=float)
    n = ratios.size
    if n != 3:
        raise ValueError("the two-error sweep is defined for 3 paths")
    if not (np.isfinite(ratios).all() and ratios.min() > 0):
        raise ValueError(f"mass ratios must be positive and finite, got {mass_ratios}")
    base = np.stack(np.meshgrid(d1s, d2s, indexing="ij"), axis=-1)
    return exit_probabilities(ideal_phases(n) + error_phases(base, ratios))


def write_sweep_csv(
    path: str | Path,
    delta1_values,
    delta2_values,
    grid: np.ndarray,
    all_entries: bool = False,
) -> None:
    """Write a sweep grid row-major as delta1_rad,delta2_rad,p00[,p_ks...]."""
    d1s = np.atleast_1d(np.asarray(delta1_values, dtype=float))
    d2s = np.atleast_1d(np.asarray(delta2_values, dtype=float))
    n = grid.shape[-1]
    header = ["delta1_rad", "delta2_rad", "p00"]
    columns = [*np.meshgrid(d1s, d2s, indexing="ij"), grid[..., 0, 0]]
    if all_entries:
        extra = [(k, s) for k in range(n) for s in range(n) if (k, s) != (0, 0)]
        header += [f"p{k}{s}" for k, s in extra]
        columns += [grid[..., k, s] for k, s in extra]
    # tolist() gives Python floats, which csv writes as their repr
    rows = np.stack(columns, axis=-1).reshape(-1, len(columns)).tolist()
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@dataclass(frozen=True)
class MonteCarloResult:
    """Mean and standard deviation of the diagonal exit probabilities."""

    mean: tuple[float, ...]
    std: tuple[float, ...]
    trials: int
    seed: int
    sigma_length: float


def monte_carlo_leakage(
    design: SorterDesign,
    sigma_length: float,
    trials: int,
    seed: int,
) -> MonteCarloResult:
    """Sample i.i.d. Gaussian path noise and aggregate the diagonal leakage.

    Each trial uses an RNG stream derived from (seed, trial index), so a
    parallel split over trials would reproduce the serial result.  The
    draws fill one array, allocated before the first draw so that a trial
    count too large for memory fails at once, and are turned into phase
    errors in one batch, with the arithmetic of phases_from_fluctuation and
    PhaseErrorVector.phase_matrix; error_phases refuses noise whose phase
    errors overflow a float.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not (math.isfinite(sigma_length) and sigma_length >= 0):
        raise ValueError(f"sigma must be non-negative and finite, got {sigma_length}")
    n = design.n
    lengths = np.empty((trials, n))
    for t in range(trials):
        lengths[t] = (np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))
                      .normal(0.0, sigma_length, size=n))
    m0 = design.species[0].mass
    ratios = [sp.mass / m0 for sp in design.species]
    base = _base_phase_errors(lengths, m0, design.velocity)
    probs = exit_probabilities(ideal_phases(n) + error_phases(base, ratios))
    diagonals = np.diagonal(probs, axis1=-2, axis2=-1)
    return MonteCarloResult(
        mean=tuple(diagonals.mean(axis=0)),
        std=tuple(diagonals.std(axis=0)),
        trials=trials,
        seed=seed,
        sigma_length=sigma_length,
    )
