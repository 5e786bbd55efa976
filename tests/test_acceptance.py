"""Acceptance suite: one pass/fail line per criterion on stdout.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
Each of the paper's claims and the test that checks it:

1. two-isotope carbon sorter, (k1, k2) = (3, 3), dL = 1e-9 m at 100 m/s
   and 1e-7 m at 1 m/s: test_criterion_1_carbon_two_species_design
2. 5-port self-imaging coupler about 24 um long at W = 1 um, v = 1 m/s:
   test_criterion_2_mmi_geometry
3. the controlled-X gate permutes the two-qudit basis, N = 2..8:
   test_criterion_3_gate_identity
4. closed-form 3-path leakage equals the simulated one to 1e-12:
   test_criterion_4_analytic_vs_numeric_leakage
5a. p00 >= 0.96 over the square |delta| <= 2*pi/15:
    test_criterion_5a_leakage_bound_wide_grid (strict xfail)
5b. leakage below 1 % over the square |delta| <= (2*pi/3)/10:
    test_criterion_5b_leakage_below_one_percent (strict xfail)
5. both bounds on the equal-error diagonal and the axes:
   test_criterion_5_diagonal_and_axes_bounds_hold
6. a solved design sorts every species to its own port without errors:
   test_criterion_6_zero_error_sorting
7. a shift common to all paths leaves the sorting intact:
   test_criterion_7_global_fluctuation_robustness
8. the N sorting phases are distinct iff gcd(k, N) = 1:
   test_criterion_8_coprimality
9. abundances -> counts -> unfolded spectrum recovers the truth, seed for
   seed: test_criterion_9_end_to_end_round_trip
10. a carbon-12 wavelength of 1 nm implies v = 33.3 m/s:
    test_criterion_10_implied_velocity

Criteria 5a and 5b are strict expected failures: the claimed bounds hold
on the equal-error diagonal and on the axes of the (delta1, delta2) plane,
but not at the anti-diagonal corners of the full square (see the analysis
printed by the tests).
"""

import json
import math
import time

import numpy as np
import pytest

from interfsort.constants import PLANCK_H
from interfsort.design import (
    Species,
    de_broglie_wavelength,
    distinct_phases_check,
    mmi_length,
    solve_n_path,
    solve_two_species,
    verify_design,
)
from interfsort.gates import controlled_x
from interfsort.leakage import (
    PathFluctuation,
    PhaseErrorVector,
    analytic_leakage_n3,
    design_leakage,
    phases_from_fluctuation,
    simulate_leakage,
    sweep_leakage,
)
from interfsort.spectrum import reconstruct_spectrum, run_experiment, simulate_counts

M_C12 = 1.99e-26
M_C14 = M_C12 * 7.0 / 6.0


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_1_carbon_two_species_design():
    start = time.perf_counter()
    sol_fast = solve_two_species(M_C12, M_C14, 100.0, max_k=1000)
    sol_slow = solve_two_species(M_C12, M_C14, 1.0, max_k=1000)
    elapsed = time.perf_counter() - start
    ok = (
        (sol_fast.k1, sol_fast.k2) == (3, 3)
        and abs(sol_fast.delta_length - 1e-9) <= 0.02 * 1e-9
        and abs(sol_slow.delta_length - 1e-7) <= 0.02 * 1e-7
        and elapsed < 1.0
    )
    report("1", ok,
           f"k1={sol_fast.k1}, k2={sol_fast.k2}, "
           f"dL(100 m/s)={sol_fast.delta_length:.4e} m, "
           f"dL(1 m/s)={sol_slow.delta_length:.4e} m, {elapsed:.3f} s")


def test_criterion_2_mmi_geometry():
    lam = de_broglie_wavelength(M_C12, 1.0)
    length = mmi_length(1e-6, lam, 5)
    ok = abs(length - 24e-6) <= 0.02 * 24e-6
    report("2", ok, f"D_5 = {length:.4e} m vs 24e-6 m")


def test_criterion_3_gate_identity():
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 9):
        perm = np.zeros((n * n, n * n))
        for k in range(n):
            for s in range(n):
                perm[n * k + (s + k) % n, n * k + s] = 1.0
        worst = max(worst, float(np.abs(controlled_x(n) - perm).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report("3", ok, f"max entry deviation {worst:.2e} over N=2..8, {elapsed:.3f} s")


def test_criterion_4_analytic_vs_numeric_leakage():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_p = worst_sum = 0.0
    for _ in range(1000):
        d1, d2 = rng.uniform(-np.pi, np.pi, 2)
        r1, r2 = rng.uniform(0.5, 3.0, 2)
        _, probs = analytic_leakage_n3(d1, d2, r1, r2)
        sim = simulate_leakage(PhaseErrorVector(3, (d1, d2), (1.0, r1, r2)))
        worst_p = max(worst_p, float(np.abs(probs[0] - sim[0]).max()))
        worst_sum = max(worst_sum, float(np.abs(sim.sum(axis=1) - 1.0).max()))
    elapsed = time.perf_counter() - start
    ok = worst_p <= 1e-12 and worst_sum <= 1e-12 and elapsed < 5.0
    report("4", ok, f"max |p_0s| deviation {worst_p:.2e}, "
                    f"max row-sum deviation {worst_sum:.2e}, {elapsed:.3f} s")


@pytest.mark.xfail(
    strict=True,
    reason="min over the full square is ~0.888 at the anti-diagonal corners "
           "(delta1 = -delta2 = 2*pi/15); the 0.96 bound holds only where "
           "delta1 = delta2 or one error vanishes",
)
def test_criterion_5a_leakage_bound_wide_grid():
    start = time.perf_counter()
    edge = 2 * np.pi / 15
    grid_pts = np.linspace(-edge, edge, 101)
    grid = sweep_leakage(grid_pts, grid_pts, (1.0, 7 / 6, 8 / 6))
    p00_min = float(grid[..., 0, 0].min())
    elapsed = time.perf_counter() - start
    ok = p00_min >= 0.96 and elapsed < 10.0
    report("5a", ok, f"min p00 = {p00_min:.4f} over [-2pi/15, 2pi/15]^2, {elapsed:.3f} s")


@pytest.mark.xfail(
    strict=True,
    reason="max leakage over the full square is ~2.9% at the anti-diagonal "
           "corners; the 1% bound holds only where delta1 = delta2 or one "
           "error vanishes",
)
def test_criterion_5b_leakage_below_one_percent():
    edge = (2 * np.pi / 3) / 10
    grid_pts = np.linspace(-edge, edge, 101)
    grid = sweep_leakage(grid_pts, grid_pts, (1.0, 7 / 6, 8 / 6))
    leak_max = float((1.0 - grid[..., 0, 0]).max())
    ok = leak_max < 0.01
    report("5b", ok, f"max leakage = {leak_max:.4f} over +/-(2pi/3)/10 square")


def test_criterion_5_diagonal_and_axes_bounds_hold():
    # the attainable form of criterion 5: equal errors or a single error
    line = np.linspace(-2 * np.pi / 15, 2 * np.pi / 15, 101)
    p_diag = [analytic_leakage_n3(d, d, 1.0, 1.0)[1][0, 0] for d in line]
    p_axis = [analytic_leakage_n3(d, 0.0, 1.0, 1.0)[1][0, 0] for d in line]
    small = np.linspace(-(2 * np.pi / 3) / 10, (2 * np.pi / 3) / 10, 101)
    leak_diag = [1 - analytic_leakage_n3(d, d, 1.0, 1.0)[1][0, 0] for d in small]
    ok = min(p_diag) >= 0.96 and min(p_axis) >= 0.96 and max(leak_diag) < 0.01
    report("5 (diagonal/axis form)", ok,
           f"min p00 diag {min(p_diag):.4f}, axis {min(p_axis):.4f}, "
           f"max small-error leakage {max(leak_diag):.5f}")


def test_criterion_6_zero_error_sorting():
    mass_sets = [(6, 7), (6, 7, 8), (3, 4, 5), (4, 5, 6, 7), (2, 3), (9, 10, 11)]
    worst = 0.0
    for masses in mass_sets:
        species = [Species(f"m{a}", a * 1.66053906660e-27) for a in masses]
        design = solve_n_path(species, 30.0)
        residual = float(np.abs(verify_design(design)).max())
        assert residual <= 1e-9
        leak = design_leakage(design)
        worst = max(worst, float(np.abs(leak - np.eye(design.n)).max()))
    ok = worst <= 1e-9
    report("6", ok, f"max |leakage - identity| = {worst:.2e} over {len(mass_sets)} designs")


def test_criterion_7_global_fluctuation_robustness():
    species = (Species("a", M_C12), Species("b", M_C14), Species("c", M_C12 * 8 / 6))
    worst = 0.0
    for shift in (-3e-9, 1e-12, 2.7e-8):
        errs = phases_from_fluctuation(PathFluctuation((shift,) * 3), species, 10.0)
        worst = max(worst, float(np.abs(simulate_leakage(errs) - np.eye(3)).max()))
    ok = worst <= 1e-12
    report("7", ok, f"max |leakage - identity| = {worst:.2e} under uniform shifts")


def test_criterion_8_coprimality():
    ok = all(
        distinct_phases_check(n, k) == (math.gcd(k, n) == 1)
        for n in range(2, 65) for k in range(n)
    )
    report("8", ok, "distinct-phase check agrees with gcd(k, N) = 1 for all N <= 64")


def test_criterion_9_end_to_end_round_trip():
    start = time.perf_counter()
    delta = 2 * np.pi / 15
    truth = np.array([0.9, 0.05, 0.05])
    errs = PhaseErrorVector(3, (delta, delta), (1.0, 7 / 6, 8 / 6))
    leakage = simulate_leakage(errs)
    record = simulate_counts(truth, leakage, 10**6, seed=321)
    recovered, sigma = reconstruct_spectrum(record, leakage)
    within = np.abs(recovered - truth) < 5 * sigma

    config = {
        "species": [{"name": "C12", "mass_u": 12}, {"name": "C14", "mass_u": 14},
                    {"name": "O16", "mass_u": 16}],
        "velocity_mps": 50.0,
        "abundances": truth.tolist(),
        "total_particles": 10**6,
        "seed": 321,
        "errors": {"delta_phi_rad": [delta, delta]},
    }
    bytes_a = json.dumps(run_experiment(config), sort_keys=True).encode()
    bytes_b = json.dumps(run_experiment(config), sort_keys=True).encode()
    elapsed = time.perf_counter() - start
    ok = bool(within.all()) and bytes_a == bytes_b and elapsed < 30.0
    report("9", ok,
           f"recovered {np.round(recovered, 5).tolist()} vs truth {truth.tolist()}, "
           f"rerun identical: {bytes_a == bytes_b}, {elapsed:.3f} s")


def test_criterion_10_implied_velocity():
    velocity = PLANCK_H / (M_C12 * 1e-9)
    ok = abs(velocity - 33.3) <= 0.005 * 33.3
    report("10", ok, f"implied velocity {velocity:.4f} m/s vs 33.3 m/s")
