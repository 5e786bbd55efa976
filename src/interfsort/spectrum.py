"""End-to-end acquisition: abundances -> imperfect sorter -> counts -> spectrum.

Also houses the magnetic-deflection reference formulas used for
comparison against the interferometric sorter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import species_from_obj
from .leakage import PathFluctuation, PhaseErrorVector, phases_from_fluctuation, simulate_leakage

CONDITION_LIMIT = 1e8


class NeutralSpeciesError(ValueError):
    """Magnetic deflection cannot separate uncharged species."""


class UnidentifiableLeakageError(ValueError):
    """The leakage matrix is too ill-conditioned to unfold the spectrum."""


@dataclass(frozen=True)
class CountRecord:
    """Detector counts of one acquisition run."""

    total: int
    counts: tuple[int, ...]
    seed: int

    def __post_init__(self):
        if sum(self.counts) != self.total:
            raise ValueError("counts must sum to the total particle number")

    def fractions(self) -> np.ndarray:
        return np.array(self.counts, dtype=float) / self.total


def _check_abundances(abundances) -> np.ndarray:
    a = np.asarray(abundances, dtype=float)
    if a.ndim != 1 or a.size < 1:
        raise ValueError("abundances must be a 1-d vector")
    if a.min() < 0 or abs(a.sum() - 1.0) > 1e-12:
        raise ValueError("abundances must be non-negative and sum to 1")
    return a


def simulate_counts(abundances, leakage, total: int, seed: int) -> CountRecord:
    """Draw detector counts for `total` particles through a leaky sorter.

    Sampling is a two-stage categorical draw, aggregated per species for
    speed: species counts ~ multinomial(total, abundances), then each
    species' exits ~ multinomial over its leakage row.  Fixed seed gives
    bit-identical counts.
    """
    a = _check_abundances(abundances)
    p = np.asarray(leakage, dtype=float)
    if p.shape != (a.size, a.size):
        raise ValueError(f"dimension mismatch: {a.size} abundances vs leakage {p.shape}")
    if total < 1:
        raise ValueError("need at least one particle")
    if p.min() < -1e-12 or np.abs(p.sum(axis=1) - 1.0).max() > 1e-12:
        raise ValueError("leakage rows must be non-negative and sum to 1")
    # scrub float dust (entries like 1 + 4e-16) that multinomial rejects
    p = np.clip(p, 0.0, 1.0)
    p = p / p.sum(axis=1, keepdims=True)
    rng = np.random.default_rng(seed)
    per_species = rng.multinomial(total, a)
    counts = np.zeros(a.size, dtype=np.int64)
    for k, n_k in enumerate(per_species):
        counts += rng.multinomial(n_k, p[k])
    return CountRecord(total=total, counts=tuple(int(c) for c in counts), seed=seed)


def reconstruct_spectrum(counts: CountRecord, leakage) -> tuple[np.ndarray, np.ndarray]:
    """Unfold observed channel fractions into abundances with uncertainties.

    Solves leakage^T a = f; with a row-stochastic leakage the exact
    solution already sums to 1, so the non-negativity constrained solve is
    only used when the plain solve leaves the simplex.  Uncertainties are
    propagated from the multinomial covariance of the observed fractions.
    """
    # imported here, not at module level: scipy.optimize is most of the
    # package's import time and memory, and only unfolding needs it.  It is
    # imported on every call, not just in the NNLS branch, so that the time
    # and memory a process spends does not hinge on whether its counts
    # happen to push the plain solve off the simplex.
    from scipy.optimize import nnls

    p = np.asarray(leakage, dtype=float)
    n = p.shape[0]
    if p.shape != (n, n) or len(counts.counts) != n:
        raise ValueError("leakage must be square and match the channel count")
    system = p.T
    if np.linalg.cond(system) > CONDITION_LIMIT:
        raise UnidentifiableLeakageError(
            "leakage matrix condition number exceeds 1e8; abundances unidentifiable"
        )
    f = counts.fractions()
    a = np.linalg.solve(system, f)
    if a.min() < -1e-12:
        # pin the simplex constraint with a heavily weighted sum row
        weight = 1e6
        stacked = np.vstack([system, weight * np.ones((1, n))])
        target = np.concatenate([f, [weight]])
        a, _ = nnls(stacked, target)
        a = a / a.sum()
    else:
        a = np.clip(a, 0.0, None)

    inv = np.linalg.inv(system)
    cov_f = (np.diag(f) - np.outer(f, f)) / counts.total
    cov_a = inv @ cov_f @ inv.T
    sigma = np.sqrt(np.clip(np.diag(cov_a), 0.0, None))
    return a, sigma


def ams_radius(mass: float, velocity: float, charge: float, b_field: float) -> float:
    """Deflection radius m*v / (q*B) of a charged species."""
    if charge == 0:
        raise NeutralSpeciesError("magnetic deflection cannot separate neutral species")
    if not math.isfinite(charge):
        raise ValueError(f"charge must be finite, got {charge}")
    if not all(math.isfinite(x) and x > 0 for x in (mass, velocity, b_field)):
        raise ValueError(f"mass, velocity and field must be positive and finite, "
                         f"got {mass}, {velocity}, {b_field}")
    return mass * velocity / (charge * b_field)


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
    return velocity / b_field * (m2 / q2 - m1 / q1)


def run_experiment(config: dict) -> dict:
    """Run the full acquisition pipeline from a config dict.

    Config schema: {species: [{name, mass_kg|mass_u}, ...], velocity_mps,
    abundances, total_particles, seed, errors: {delta_phi_rad: [...] |
    sigma_L_m}}.  The result contains only seed-deterministic fields.
    """
    species = tuple(species_from_obj(obj) for obj in config["species"])
    n = len(species)
    velocity = float(config["velocity_mps"])
    abundances = _check_abundances(config["abundances"])
    if abundances.size != n:
        raise ValueError(f"dimension mismatch: {n} species vs {abundances.size} abundances")
    total = int(config["total_particles"])
    seed = int(config["seed"])

    errors = config.get("errors") or {}
    m0 = species[0].mass
    ratios = tuple(sp.mass / m0 for sp in species)
    if "delta_phi_rad" in errors:
        base = tuple(float(x) for x in errors["delta_phi_rad"])
        errs = PhaseErrorVector(n=n, base_errors=base, mass_ratios=ratios)
    elif "sigma_L_m" in errors:
        sigma = float(errors["sigma_L_m"])
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
        fluct = PathFluctuation(tuple(rng.normal(0.0, sigma, size=n)))
        errs = phases_from_fluctuation(fluct, species, velocity)
    else:
        errs = PhaseErrorVector(n=n, base_errors=(0.0,) * (n - 1), mass_ratios=ratios)

    leakage = simulate_leakage(errs)
    record = simulate_counts(abundances, leakage, total, seed)
    recovered, sigma_a = reconstruct_spectrum(record, leakage)
    return {
        "species": [sp.name for sp in species],
        "velocity_mps": velocity,
        "seed": seed,
        "total_particles": total,
        "base_phase_errors_rad": list(errs.base_errors),
        "leakage_matrix": leakage.tolist(),
        "counts": list(record.counts),
        "observed_fractions": record.fractions().tolist(),
        "true_abundances": abundances.tolist(),
        "reconstructed_abundances": recovered.tolist(),
        "uncertainties": sigma_a.tolist(),
    }
