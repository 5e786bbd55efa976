"""End-to-end acquisition: abundances -> imperfect sorter -> counts -> spectrum."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _np as np
from .design import (require_int, require_keys, require_list, require_number, require_sortable,
                     require_velocity, species_from_obj)
from .leakage import PathFluctuation, PhaseErrorVector, phases_from_fluctuation, simulate_leakage

CONDITION_LIMIT = 1e8
KKT_TOL = 1e-10  # on the gradient of the log-likelihood per particle
MAX_NEWTON_STEPS = 200
MAX_PARTICLES = 2**63 - 1  # numpy's multinomial counts are int64
CONFIG_KEYS = ("species", "velocity_mps", "abundances", "total_particles", "seed")


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
    if not (a.min() >= 0 and abs(a.sum() - 1.0) <= 1e-12):  # NaN fails too
        raise ValueError("abundances must be non-negative and sum to 1")
    return a


def simulate_counts(abundances, leakage, total: int, seed: int) -> CountRecord:
    """Draw detector counts for `total` particles through a leaky sorter.

    Each particle is species k with probability a_k and leaves exit s with
    probability p_ks, independently, so the exit counts are exactly
    multinomial(total, q) at the channel probabilities q = P^T a: one draw.
    Fixed seed gives bit-identical counts.
    """
    a = _check_abundances(abundances)
    p = np.asarray(leakage, dtype=float)
    if p.shape != (a.size, a.size):
        raise ValueError(f"dimension mismatch: {a.size} abundances vs leakage {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("leakage entries must be finite")
    total = require_int(total, "the number of particles")
    if not 1 <= total <= MAX_PARTICLES:
        raise ValueError(f"the number of particles must be 1 to {MAX_PARTICLES}, got {total}")
    if p.min() < -1e-12 or np.abs(p.sum(axis=1) - 1.0).max() > 1e-12:
        raise ValueError("leakage rows must be non-negative and sum to 1")
    # scrub float dust (a q_s like -1e-17 or 1 + 4e-16) that multinomial rejects
    q = np.clip(a @ p, 0.0, 1.0)
    counts = np.random.default_rng(seed).multinomial(total, q / q.sum())
    return CountRecord(total=total, counts=tuple(int(c) for c in counts), seed=seed)


def _ml_on_boundary(system: np.ndarray, f: np.ndarray, total: int,
                    start: np.ndarray) -> np.ndarray:
    """Maximise the multinomial likelihood of fractions f over the simplex.

    Works on the Poisson form phi(a) = sum_s f_s log q_s - sum(a), q = system @ a,
    over a >= 0: its maximiser sums to 1, so no sum constraint is needed.
    Active-set Newton from `start`.  Each step solves the Newton system on
    the free components and stops where the first of them reaches zero
    (ratio test, which pins it).  A pinned component is released when its
    gradient exceeds the tolerance once the free components are stationary.
    -total * phi is self-concordant, since every seen channel holds at
    least one count, so a step damped to 1 / (1 + lambda) keeps q > 0 and
    raises phi.  Steps are full once the Newton decrement lambda is below
    1/4; above it they backtrack from the full step to at most the damped
    one.  Returns only a point that meets the KKT conditions to KKT_TOL;
    raises otherwise.
    """
    seen = f > 0  # a channel without counts enters phi only through sum(a)
    sys_seen, f_seen = system[seen], f[seen]
    a = start / start.sum()
    q = sys_seen @ a
    if not q.min() > 0:  # every species reaching a seen channel was clipped
        a = (a + 1.0 / a.size) / 2
        q = sys_seen @ a
    free = a > 0
    cols = sys_seen[:, free]
    for _ in range(MAX_NEWTON_STEPS):
        ratio = f_seen / q
        grad = cols.T @ ratio - 1.0
        if np.abs(grad).max() <= KKT_TOL:
            pinned_grad = np.where(free, -np.inf, sys_seen.T @ ratio - 1.0)
            k = int(pinned_grad.argmax())
            if pinned_grad[k] <= KKT_TOL:
                return a
            free[k] = True
            cols = sys_seen[:, free]
            grad = cols.T @ ratio - 1.0
        x = a[free]
        if x.size > q.size:
            # more free components than seen channels: phi is linear along
            # the null space of cols, rising as sum(a) falls, so move along
            # it until a component reaches zero
            null = np.linalg.svd(cols)[2][q.size:]
            step = -null.T @ null.sum(axis=1)
            if not np.abs(step).max() > 1e-9:  # phi is flat there: any null direction
                step = null[0] if null[0].min() < 0 else -null[0]
            t, decrement = np.inf, 0.0
        else:
            step = np.linalg.solve((cols.T * (ratio / q)) @ cols, grad)
            rise = grad @ step
            t, decrement = 1.0, math.sqrt(max(total * rise, 0.0))
        limits = np.where(step < 0, x, np.inf) / np.abs(step)
        block = int(limits.argmin())
        t = min(t, limits[block])
        if decrement > 0.25:
            # backtrack from the full step, never below the damped one
            floor = 1.0 / (1.0 + decrement)
            value = f_seen @ np.log(q) - x.sum()
            while t > floor:
                trial = np.maximum(x + t * step, 0.0)
                q_trial = cols @ trial
                if (q_trial.min() > 0 and f_seen @ np.log(q_trial) - trial.sum()
                        >= value + 1e-4 * t * rise):
                    break
                t = max(t / 2, floor)
        x = np.maximum(x + t * step, 0.0)
        if t == limits[block]:
            x[block] = 0.0
        a[free] = x
        q = cols @ x
        if not x.min() > 0:
            free = a > 0
            cols = sys_seen[:, free]
    raise UnidentifiableLeakageError(
        f"maximum-likelihood unfolding did not meet its KKT conditions "
        f"in {MAX_NEWTON_STEPS} Newton steps")


def reconstruct_spectrum(counts: CountRecord, leakage) -> tuple[np.ndarray, np.ndarray]:
    """Unfold channel counts into maximum-likelihood abundances with uncertainties.

    The estimate maximises the multinomial likelihood sum_s n_s log (P^T a)_s
    over the simplex, with P the row-stochastic leakage matrix.  When the
    plain solve P^T a = f of the observed fractions lies in the simplex it
    is that maximum; otherwise an active-set Newton solver in numpy finds
    it on the boundary.  Uncertainties are the multinomial standard errors
    at the expected fractions q = P^T a: the q-weighted spread of each row
    of P^-T over sqrt(total).  On the interior branch q = f.
    """
    p = np.asarray(leakage, dtype=float)
    n = p.shape[0]
    if p.shape != (n, n) or len(counts.counts) != n:
        raise ValueError("leakage must be square and match the channel count")
    system = p.T
    norm = np.abs(system).sum(axis=0).max()
    if not math.isfinite(norm):
        raise ValueError("leakage entries must be finite")
    try:
        inv = np.linalg.inv(system)
    except np.linalg.LinAlgError:  # exactly singular
        inv = None
    # cond_2 <= n * cond_1, so the SVD decides only near the limit
    if inv is None or (not n * norm * np.abs(inv).sum(axis=0).max() <= CONDITION_LIMIT
                       and not np.linalg.cond(system) <= CONDITION_LIMIT):
        raise UnidentifiableLeakageError(
            "leakage matrix condition number exceeds 1e8; abundances unidentifiable")
    f = counts.fractions()
    a = np.linalg.solve(system, f)
    if a.min() < -1e-12:
        a = _ml_on_boundary(system, f, counts.total, np.maximum(a, 0.0))
        q = system @ a
    else:
        a = np.maximum(a, 0.0)
        q = f
    mean = inv @ q
    sigma = np.sqrt(((inv - mean[:, None]) ** 2) @ q / counts.total)
    return a, sigma


def run_experiment(config: dict) -> dict:
    """Run the full acquisition pipeline from a config dict.

    Config schema: {species: [{name, mass_kg|mass_u}, ...], velocity_mps,
    abundances, total_particles, seed, errors: {delta_phi_rad: [...] |
    sigma_L_m}}; errors is optional and holds at most one of its two keys.
    The result contains only seed-deterministic fields.
    """
    if not isinstance(config, dict):
        raise ValueError(f"a config must be a JSON object, got {type(config).__name__}")
    require_keys(config, CONFIG_KEYS, "config")
    species = tuple(species_from_obj(obj)
                    for obj in require_list(config["species"], "config key 'species'"))
    n = len(species)
    require_sortable(n, "config key 'species'")
    velocity = require_number(config["velocity_mps"], "config key 'velocity_mps'",
                              positive=True)
    require_velocity(velocity)
    abundances = _check_abundances([
        require_number(x, f"abundances[{k}]")
        for k, x in enumerate(require_list(config["abundances"], "config key 'abundances'"))])
    if abundances.size != n:
        raise ValueError(f"dimension mismatch: {n} species vs {abundances.size} abundances")
    total = require_int(config["total_particles"], "config key 'total_particles'")
    seed = require_int(config["seed"], "config key 'seed'")
    if seed < 0:
        raise ValueError(f"config key 'seed' must be non-negative, got {seed}")

    errors = config.get("errors")
    if errors is None:
        errors = {}
    if not isinstance(errors, dict):
        raise ValueError(f"config key 'errors' must be an object, got {errors!r}")
    for key in errors:
        if key not in ("delta_phi_rad", "sigma_L_m"):
            raise ValueError(f"config key 'errors' has unknown key {key!r}; "
                             f"it takes delta_phi_rad or sigma_L_m")
    if len(errors) > 1:
        raise ValueError("config key 'errors' takes delta_phi_rad or sigma_L_m, not both")
    m0 = species[0].mass
    ratios = tuple(sp.mass / m0 for sp in species)
    if "delta_phi_rad" in errors:
        base = tuple(require_number(x, f"errors.delta_phi_rad[{s}]") for s, x in
                     enumerate(require_list(errors["delta_phi_rad"], "errors.delta_phi_rad")))
        errs = PhaseErrorVector(n=n, base_errors=base, mass_ratios=ratios)
    elif "sigma_L_m" in errors:
        sigma = require_number(errors["sigma_L_m"], "errors.sigma_L_m")
        if sigma < 0:
            raise ValueError(f"errors.sigma_L_m must be non-negative, got {sigma!r}")
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
