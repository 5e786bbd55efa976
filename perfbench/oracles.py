"""Reference computations the benchmark checks the program against.

Everything here is written independently of `interfsort`: integer
congruences for design feasibility, the closed-form N-path amplitude sum
for exit probabilities, and a re-derivation of the Monte Carlo samples.
Only numpy and the physical constants are shared.
"""

from __future__ import annotations

import math

import numpy as np

PLANCK_H = 6.62607015e-34           # J*s, exact SI value
ATOMIC_MASS_KG = 1.66053906660e-27  # kg per unified atomic mass unit
MAX_WINDING = 1000                  # the solver's default search bound

# tolerances the tier-1 tests use
PHASE_TOL = 1e-9
PROB_TOL = 1e-12
SIMPLEX_TOL = 1e-9
DESIGN_LEAK_TOL = 1e-9
MIN_P00_5A = 0.888  # criterion 5a: min p00 over the [-2pi/15, 2pi/15]^2 square
MIN_P00_5A_TOL = 1e-3


def min_path_windings(masses_u, max_winding: int = MAX_WINDING) -> list[int | None]:
    """Smallest x_s per path s = 1..N-1, or None where no x <= max_winding sorts.

    Path s sorts when N*A_k*x = k*s*A_0 (mod N*A_0) for every mass k, with
    the resulting winding t = (N*A_k*x - k*s*A_0) / (N*A_0) bounded by
    max_winding, as the solver's search requires.
    """
    a = [int(m) for m in masses_u]
    n = len(a)
    x = np.arange(1, max_winding + 1, dtype=np.int64)
    mod = n * a[0]
    out = []
    for s in range(1, n):
        ok = np.ones(x.size, dtype=bool)
        for k in range(1, n):
            num = n * a[k] * x - k * s * a[0]
            ok &= (num % mod == 0) & (np.abs(num) <= max_winding * mod)
        hits = np.flatnonzero(ok)
        out.append(int(x[hits[0]]) if hits.size else None)
    return out


def expected_windings(masses_u, xs) -> list[list[int]]:
    """n_{k,s} = (A_k * x_s - k*s*A_0 / N) / A_0 for a feasible set."""
    a = [int(m) for m in masses_u]
    n = len(a)
    cols = [0] + list(xs)
    return [[(n * a[k] * cols[s] - k * s * a[0]) // (n * a[0]) for s in range(n)]
            for k in range(n)]


def wavelength(mass_kg: float, velocity: float) -> float:
    return PLANCK_H / (mass_kg * velocity)


def exit_probabilities(phase_errors) -> np.ndarray:
    """Closed form p_ks = |sum_j exp(i(2*pi*(k-s)*j/N + dphi_kj))|**2 / N**2.

    `phase_errors` has shape (..., N, N): rows mass k, columns path j.
    """
    phase = np.asarray(phase_errors, dtype=float)
    n = phase.shape[-1]
    idx = np.arange(n)
    # reduce (k - s) * j mod N in integers so the argument stays small
    ideal = 2.0 * np.pi / n * (((idx[:, None, None] - idx[None, :, None])
                                * idx[None, None, :]) % n)
    amp = np.exp(1j * (ideal + phase[..., :, None, :])).sum(axis=-1) / n
    return np.abs(amp) ** 2


def phase_matrix(mass_ratios, base_errors) -> np.ndarray:
    """Phase errors dphi_kj = (m_k / m_0) * base_j with base_0 = 0."""
    base = np.concatenate([[0.0], np.asarray(base_errors, dtype=float)])
    return np.outer(np.asarray(mass_ratios, dtype=float), base)


def base_errors_from_lengths(delta_lengths, m0: float, velocity: float) -> np.ndarray:
    d = np.asarray(delta_lengths, dtype=float)
    return 2.0 * np.pi * (d[..., 1:] - d[..., :1]) * m0 * velocity / PLANCK_H


def monte_carlo_diagonals(masses_kg, velocity, sigma_length, trials, seed):
    """Mean and std of p_kk, re-drawing the solver's per-trial RNG streams."""
    n = len(masses_kg)
    draws = np.empty((trials, n))
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))
        draws[t] = rng.normal(0.0, sigma_length, size=n)
    m0 = masses_kg[0]
    ratios = np.array([m / m0 for m in masses_kg])
    base = base_errors_from_lengths(draws, m0, velocity)
    phase = ratios[None, :, None] * np.concatenate([np.zeros((trials, 1)), base], axis=1)[:, None, :]
    diag = exit_probabilities(phase)[:, np.arange(n), np.arange(n)]
    return diag.mean(axis=0), diag.std(axis=0)


def wrap(phi):
    phi = np.asarray(phi, dtype=float)
    return phi - 2.0 * np.pi * np.round(phi / (2.0 * np.pi))


def design_residuals(masses_kg, delta_lengths, velocity) -> np.ndarray:
    """wrap(2*pi*dL_s*m_k*v/h - 2*pi*k*s/N), computed from the design's numbers."""
    m = np.asarray(masses_kg, dtype=float)
    n = m.size
    total = 2.0 * np.pi * np.outer(m, np.asarray(delta_lengths, dtype=float)) * velocity / PLANCK_H
    return wrap(total - 2.0 * np.pi / n * np.outer(np.arange(n), np.arange(n)))


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)
