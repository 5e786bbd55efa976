import json
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interfsort.design as design_module
from interfsort.constants import ATOMIC_MASS_KG, PLANCK_H, SPEED_OF_LIGHT
from interfsort.design import (
    InfeasibleDesignError,
    NonCommensurableMassesError,
    SorterDesign,
    Species,
    de_broglie_wavelength,
    design_from_dict,
    design_to_dict,
    distinct_phases_check,
    ideal_phases,
    load_design,
    load_species_file,
    mmi_length,
    path_error_budget,
    phase_shift,
    require_int,
    solve_n_path,
    solve_two_species,
    species_from_obj,
    verify_design,
)

M_C12 = 1.99e-26           # kg
M_C14 = M_C12 * 7.0 / 6.0  # kg


def brute_force_windings(masses, velocity, s, n, x_max=200):
    """Float-arithmetic oracle: scan integer x, accept when every mass row's
    fractional part of x * m_k/m_0 - k*s/n is below 1e-9."""
    for x in range(1, x_max + 1):
        residuals = []
        for k in range(n):
            val = x * masses[k] / masses[0] - k * s / n
            residuals.append(abs(val - round(val)))
        if max(residuals) < 1e-9:
            return x
    return None


def brute_force_n_path(masses_u, max_winding, scan_stop=math.inf):
    """The bounded search solve_n_path used before the congruence solver.

    Integer masses A_k; for each path s, scans x = 1..max_winding with exact
    rationals t_k(x) = A_k*x/A_0 - k*s/N. Returns (xs, windings, None) when
    every path sorts, else (None, None, report) with the report's residual
    part: the infeasible paths' minimal worst-row residuals over x = 1..x_max,
    where x_max is the largest x (at most max_winding, N*A_0 in lowest terms
    and scan_stop) such that every x' <= x has a nearest integer of every
    t_k(x') of every infeasible path within max_winding; the residuals are
    None when x_max is 0.
    """
    a = list(masses_u)
    n = len(a)
    # per infeasible path s, the rows t_k(x), k = 1..N-1, of every x scanned
    xs, windings, columns = [], [[0] * n for _ in range(n)], {}
    for s in range(1, n):
        columns[s] = []
        for x in range(1, max_winding + 1):
            column = [Fraction(a[k] * x, a[0]) - Fraction(k * s, n) for k in range(1, n)]
            if all(t.denominator == 1 and abs(t) <= max_winding for t in column):
                xs.append(x)
                for k, t in enumerate([x, *column]):
                    windings[k][s] = int(t)
                del columns[s]
                break
            columns[s].append(column)
    if not columns:
        return xs, windings, None
    x_max, best, limit = 0, dict.fromkeys(columns), max_winding + Fraction(1, 2)
    while x_max < min(max_winding, n * a[0] // math.gcd(*a), scan_stop):
        rows = {s: column[x_max] for s, column in columns.items()}
        if any(abs(t) > limit for row in rows.values() for t in row):
            break
        for s, row in rows.items():
            worst = max(abs(t - round(t)) for t in row)
            best[s] = worst if best[s] is None else min(best[s], worst)
        x_max += 1
    paths = {s: {"min_residual_cycles": None if b is None else float(b),
                 "min_residual_rad": None if b is None else 2.0 * np.pi * float(b)}
             for s, b in best.items()}
    return None, None, {"paths": paths, "residual_x_max": x_max}


def without_obstructions(report):
    """An InfeasibleDesignError report with the obstructions left out."""
    return {"paths": {s: {k: v for k, v in info.items() if k != "obstruction"}
                      for s, info in report["paths"].items()},
            "residual_x_max": report["residual_x_max"]}


def two_species_loop(m1, m2, velocity, max_k):
    """The float search solve_two_species ran before it became the N = 2 case
    of solve_n_path: the first k1 = 1..max_k whose nearest odd 2*k2 + 1 gives
    m1/m2 = 2*k1 / (2*k2 + 1) within RATIO_REL_TOL, as (k1, k2, dL, phases),
    or None."""
    ratio = m1 / m2
    for k1 in range(1, max_k + 1):
        t = 2.0 * k1 / ratio
        t_odd = 2 * round((t - 1.0) / 2.0) + 1
        if t_odd < 1:
            continue
        k2 = (t_odd - 1) // 2
        if k2 > max_k:
            continue
        if abs(2.0 * k1 / t_odd - ratio) / ratio <= design_module.RATIO_REL_TOL:
            delta_length = k1 * de_broglie_wavelength(m1, velocity)
            phases = (phase_shift(delta_length, m1, velocity),
                      phase_shift(delta_length, m2, velocity))
            return k1, k2, delta_length, phases
    return None


def two_species_cases(seed, count):
    """Seeded (m1, m2, velocity, max_k): exact 2*k1/(2*k2 + 1) ratios, the same
    perturbed by up to 3e-9, random p/q and random irrational ratios."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        max_k = (1, 3, 10, 100, 1000)[i % 5]
        m1 = ATOMIC_MASS_KG * rng.uniform(0.5, 50.0)
        kind = i // 5 % 4
        if kind < 2:
            k1, k2 = rng.randint(1, max_k + 2), rng.randint(0, max_k + 2)
            m2 = m1 * (2 * k2 + 1) / (2 * k1)
            if kind == 1:
                m2 *= 1.0 + rng.uniform(-3e-9, 3e-9)
        elif kind == 2:
            p, q = rng.sample(range(1, 2 * max_k + 4), 2)
            m2 = m1 * p / q
        else:
            m2 = m1 * rng.uniform(0.1, 10.0)
        cases.append((m1, m2, rng.uniform(0.5, 500.0), max_k))
    return cases


def random_mass_sets(seed, count):
    """Seeded integer mass sets, N = 2..7; half built feasible as A_k = k*d (mod A_0)."""
    rng = random.Random(seed)
    sets = []
    while len(sets) < count:
        n = rng.randint(2, 7)
        if len(sets) % 2 == 0:
            a0 = n * rng.randint(1, 6)
            d = rng.choice([d for d in range(1, a0 + 1) if math.gcd(d, a0) == 1])
            masses = [a0] + [(k * d) % a0 + a0 * rng.randint(0, 3) for k in range(1, n)]
        else:
            masses = rng.sample(range(2, 40), n)
        if len(set(masses)) == n and min(masses) >= 1:
            sets.append(masses)
    return sets


def step_and_gcd(a):
    """P = A_0 / gcd(A_0, A_k - k*A_1 for k >= 2) and g = gcd(N*A_1*P, N*A_0)."""
    n = len(a)
    step = a[0] // math.gcd(a[0], *(a[k] - k * a[1] for k in range(2, n)))
    return step, math.gcd(n * a[1] * step, n * a[0])


def check_obstruction(masses_u, s, obstruction, max_winding):
    """Check a reported obstruction by scanning x over one period, 1..N*A_0."""
    a = [m // math.gcd(*masses_u) for m in masses_u]
    n = len(a)
    mod = n * a[0]
    x = np.arange(1, mod + 1)

    def solved(rows):
        ok = np.ones(mod, dtype=bool)
        for k in rows:
            ok &= (n * a[k] * x - k * s * a[0]) % mod == 0
        return ok

    kind = obstruction["type"]
    if kind == "congruence":
        step, g = step_and_gcd(a)
        assert obstruction == {"type": "congruence", "step": step, "gcd": g, "modulus": mod}
        assert s * a[0] % g and not solved(range(1, n)).any()
    else:
        assert kind == "winding_bound"
        x0 = int(x[np.flatnonzero(solved(range(1, n)))[0]])
        windings = [abs(n * a[k] * x0 - k * s * a[0]) // mod for k in range(1, n)]
        assert obstruction["x"] == x0
        assert obstruction["max_winding_needed"] == max(x0, *windings) > max_winding


class TestWavelengthAndPhase:
    def test_carbon_at_100mps(self):
        lam = de_broglie_wavelength(M_C12, 100.0)
        assert lam == pytest.approx(3.3297e-10, rel=1e-4)
        assert 3 * lam == pytest.approx(1e-9, rel=0.02)

    def test_carbon_at_1mps(self):
        lam = de_broglie_wavelength(M_C12, 1.0)
        assert 3 * lam == pytest.approx(1e-7, rel=0.02)

    def test_doubling_mass_halves_wavelength(self):
        assert de_broglie_wavelength(2 * M_C12, 5.0) == pytest.approx(
            de_broglie_wavelength(M_C12, 5.0) / 2, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            de_broglie_wavelength(-1.0, 1.0)
        with pytest.raises(ValueError):
            phase_shift(1e-9, M_C12, 0.0)

    def test_underflowing_momentum_names_mass_and_velocity(self):
        with pytest.raises(ValueError, match=r"1\.99e-26 kg at velocity 1e-320 m/s underflows"):
            de_broglie_wavelength(M_C12, 1e-320)

    @pytest.mark.parametrize("mass, velocity", [
        (1e300, 100.0),   # h/(m*v) underflows to 0
        (1e280, 100.0),   # h/(m*v) is subnormal
        (1e-300, 1e-15),  # m*v is subnormal
        (math.inf, 1.0),
    ])
    def test_subnormal_momentum_or_wavelength_refused(self, mass, velocity):
        with pytest.raises(ValueError, match="underflows the float range"):
            de_broglie_wavelength(mass, velocity)
        assert de_broglie_wavelength(1e250, 100.0) > 0

    @pytest.mark.parametrize("velocity", [SPEED_OF_LIGHT, 1e290])
    def test_velocity_at_or_above_c_refused(self, velocity):
        for call in (lambda: de_broglie_wavelength(M_C12, velocity),
                     lambda: phase_shift(1e-9, M_C12, velocity)):
            with pytest.raises(ValueError, match="below c"):
                call()
        assert phase_shift(1e-9, M_C12, np.nextafter(SPEED_OF_LIGHT, 0)) > 0

    def test_phase_shift_zero(self):
        assert phase_shift(0.0, M_C12, 1.0) == 0.0

    def test_phase_shift_one_wavelength(self):
        lam = de_broglie_wavelength(M_C12, 1.0)
        assert phase_shift(lam, M_C12, 1.0) == pytest.approx(2 * np.pi, rel=1e-12)

    def test_phase_shift_broadcasts_like_scalar_calls(self):
        lengths = np.array([0.0, 1e-9, 3.7e-8])
        masses = np.array([M_C12, M_C14, 2.5e-26])
        grid = phase_shift(lengths, masses[:, None], 42.0)
        assert grid.shape == (3, 3)
        for k, m in enumerate(masses):
            for s, dl in enumerate(lengths):
                assert grid[k, s] == phase_shift(float(dl), float(m), 42.0)

    def test_phase_shift_piezo_step(self):
        # oracle: 2*pi * dL / lambda with lambda computed independently
        lam = de_broglie_wavelength(M_C12, 1.0)
        expected = 2 * np.pi * 0.3e-9 / lam
        got = phase_shift(0.3e-9, M_C12, 1.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(5.661065e-2, rel=1e-6)


class TestTwoSpecies:
    def test_carbon_pair(self):
        sol = solve_two_species(M_C12, M_C14, 100.0, max_k=100)
        assert (sol.k1, sol.k2) == (3, 3)
        assert sol.delta_length == pytest.approx(1e-9, rel=0.02)
        assert sol.delta_length == pytest.approx(
            3 * de_broglie_wavelength(M_C12, 100.0), rel=1e-12)

    def test_ratio_two_thirds(self):
        sol = solve_two_species(2e-26, 3e-26, 10.0, max_k=100)
        assert (sol.k1, sol.k2) == (1, 1)
        assert sol.delta_length == pytest.approx(
            de_broglie_wavelength(2e-26, 10.0), rel=1e-12)

    def test_phase_conditions(self):
        sol = solve_two_species(M_C12, M_C14, 100.0, max_k=100)
        assert math.remainder(sol.phases[0], 2 * math.pi) == pytest.approx(0.0, abs=1e-9)
        assert abs(abs(math.remainder(sol.phases[1], 2 * math.pi)) - np.pi) < 1e-9

    def test_irrational_ratio_infeasible(self):
        with pytest.raises(InfeasibleDesignError) as exc:
            solve_two_species(1e-26, math.sqrt(2) * 1e-26, 1.0, max_k=10)
        assert isinstance(exc.value, NonCommensurableMassesError)
        assert exc.value.report == {}

    @pytest.mark.parametrize("m1, m2, obstruction", [
        # 2*x = 3 (mod 6) has no solution: gcd 2 does not divide 3
        (3, 1, "congruence"),
        # m1/m2 = 2/23 needs k2 = 11
        (2, 23, "winding_bound"),
    ])
    def test_infeasible_ratio_names_obstruction(self, m1, m2, obstruction):
        with pytest.raises(InfeasibleDesignError) as exc:
            solve_two_species(m1 * 1e-26, m2 * 1e-26, 1.0, max_k=10)
        assert not isinstance(exc.value, NonCommensurableMassesError)
        assert exc.value.report["paths"][1]["obstruction"]["type"] == obstruction

    def test_matches_float_search(self):
        cases = [*two_species_cases(11, 5000),
                 (15998 * ATOMIC_MASS_KG, 14001 * ATOMIC_MASS_KG, 30.0, 8000)]
        feasible = 0
        for m1, m2, velocity, max_k in cases:
            expected = two_species_loop(m1, m2, velocity, max_k)
            try:
                sol = solve_two_species(m1, m2, velocity, max_k=max_k)
            except InfeasibleDesignError:
                assert expected is None, (m1, m2, max_k)
                continue
            assert expected is not None, (m1, m2, max_k)
            # delta_length and phases bit for bit
            assert (sol.k1, sol.k2, sol.delta_length, sol.phases) == expected, (m1, m2, max_k)
            feasible += 1
        assert 1000 < feasible < len(cases) - 1000

    def test_denominator_bound_follows_max_k(self):
        # m2/m1 = 14001/15998 is the pair (7999, 7000): its denominator 15998
        # is within N*max_winding from max_winding = 7999 on, and not below
        m1, m2 = 15998 * ATOMIC_MASS_KG, 14001 * ATOMIC_MASS_KG
        sol = solve_two_species(m1, m2, 30.0, max_k=8000)
        assert (sol.k1, sol.k2) == (7999, 7000)
        species = [Species("m1", m1), Species("m2", m2)]
        for max_winding in (8000, 7999):
            design = solve_n_path(species, 30.0, max_winding=max_winding)
            assert design.windings == ((0, 7999), (0, 7000))
            assert design.delta_lengths[1] == sol.delta_length
        with pytest.raises(NonCommensurableMassesError, match=re.escape(
                "denominator <= 15996 = min(N*max_winding, 22360)")):
            solve_n_path(species, 30.0, max_winding=7998)
        # m2/m1 = 101/100 needs a denominator of 100 > 2*max_k
        with pytest.raises(NonCommensurableMassesError):
            solve_two_species(100e-26, 101e-26, 1.0, max_k=10)

    def test_max_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="at least 1") as exc:
            solve_two_species(M_C12, M_C14, 100.0, max_k=0)
        assert not isinstance(exc.value, InfeasibleDesignError)

    def test_equal_masses_rejected(self):
        with pytest.raises(ValueError):
            solve_two_species(1e-26, 1e-26, 1.0)

    @pytest.mark.parametrize("velocity", [math.nan, math.inf, -1.0, SPEED_OF_LIGHT])
    def test_bad_velocity_is_input_error(self, velocity):
        # an irrational ratio would otherwise end in InfeasibleDesignError
        with pytest.raises(ValueError, match="finite") as exc:
            solve_two_species(1e-26, math.sqrt(2) * 1e-26, velocity, max_k=10)
        assert not isinstance(exc.value, InfeasibleDesignError)


class TestNPath:
    def test_two_species_consistency(self):
        design = solve_n_path([Species("c12", M_C12), Species("c14", M_C14)], 100.0)
        lam0 = de_broglie_wavelength(M_C12, 100.0)
        assert design.delta_lengths[1] == pytest.approx(3 * lam0, rel=1e-12)
        # mass 0: multiple of 2*pi; mass 1: odd multiple of pi
        phi0 = phase_shift(design.delta_lengths[1], M_C12, 100.0)
        phi1 = phase_shift(design.delta_lengths[1], M_C14, 100.0)
        assert abs(math.remainder(phi0, 2 * math.pi)) < 1e-9
        assert abs(abs(math.remainder(phi1, 2 * math.pi)) - np.pi) < 1e-9

    def test_three_species_678(self):
        masses = [6 * ATOMIC_MASS_KG, 7 * ATOMIC_MASS_KG, 8 * ATOMIC_MASS_KG]
        species = [Species(f"m{i}", m) for i, m in enumerate(masses)]
        design = solve_n_path(species, 50.0)
        lam0 = de_broglie_wavelength(masses[0], 50.0)
        for s in range(1, 3):
            x_oracle = brute_force_windings(masses, 50.0, s, 3)
            assert x_oracle is not None
            assert design.delta_lengths[s] == pytest.approx(x_oracle * lam0, rel=1e-12)
        assert np.abs(verify_design(design)).max() <= 1e-9

    def test_integer_multiple_masses_infeasible(self):
        species = [Species("a", 1e-26), Species("b", 2e-26), Species("c", 4e-26)]
        with pytest.raises(InfeasibleDesignError) as exc:
            solve_n_path(species, 1.0, max_winding=200)
        paths = exc.value.report["paths"]
        assert set(paths) == {1, 2}
        for info in paths.values():
            assert info["min_residual_rad"] > 0

    def test_irrational_masses_rejected(self):
        species = [
            Species("a", 1e-26),
            Species("b", (1 + math.sqrt(5)) / 2 * 1e-26),
            Species("c", math.pi * 1e-26),
        ]
        with pytest.raises(NonCommensurableMassesError):
            solve_n_path(species, 1.0, max_winding=33)

    @pytest.mark.parametrize("max_winding", [1, 3, 7, 10, 20, 60, 200])
    def test_matches_brute_force(self, max_winding):
        feasible = infeasible = 0
        # descending masses: at max_winding = 1, x = 1 solves path 3's
        # congruences but winds mass 3 by -2
        for masses in [[4, 3, 2, 1], *random_mass_sets(max_winding, 60)]:
            species = [Species(f"m{m}", m * ATOMIC_MASS_KG) for m in masses]
            xs, windings, report = brute_force_n_path(masses, max_winding)
            if xs is None:
                infeasible += 1
                with pytest.raises(InfeasibleDesignError) as exc:
                    solve_n_path(species, 3.0, max_winding=max_winding)
                if isinstance(exc.value, NonCommensurableMassesError):
                    # a ratio's denominator exceeds N*max_winding: no path sorts
                    assert set(report["paths"]) == set(range(1, len(masses))), masses
                    continue
                assert without_obstructions(exc.value.report) == report, masses
                for s, info in exc.value.report["paths"].items():
                    check_obstruction(masses, s, info["obstruction"], max_winding)
                continue
            feasible += 1
            design = solve_n_path(species, 3.0, max_winding=max_winding)
            lam0 = de_broglie_wavelength(species[0].mass, 3.0)
            assert design.delta_lengths == (0.0, *(x * lam0 for x in xs)), masses
            assert [list(row) for row in design.windings] == windings, masses
        assert infeasible >= 5 and (feasible >= 5 or max_winding == 1)

    def test_large_proportions_match_brute_force(self):
        # ratios 1 + 1/p for primes p near 1e4 give A_0 ~ 1e16, so N*A_k*x
        # leaves the int64 range in the residual scan; N*max_winding = 10 000
        # still admits each denominator p
        ratios = [Fraction(1)] + [1 + Fraction(1, p) for p in (9973, 9967, 9949, 9941)]
        common = math.lcm(*(r.denominator for r in ratios))
        proportions = [int(r * common) for r in ratios]
        species = [Species(f"m{k}", float(r) * 1e-26) for k, r in enumerate(ratios)]
        with pytest.raises(InfeasibleDesignError) as exc:
            solve_n_path(species, 3.0, max_winding=2000)
        assert without_obstructions(exc.value.report) == brute_force_n_path(proportions, 2000)[2]

    @pytest.mark.parametrize("block", [45, 46])
    def test_residual_scan_in_blocks(self, monkeypatch, block):
        # masses 65, 64, 42: path 1's smallest residual over x = 1..100 is at
        # x = 46 alone, which opens or closes a block of this many x values;
        # both paths are infeasible, so each x holds 2 paths * 2 rows residues
        monkeypatch.setattr(design_module, "_RESIDUAL_BLOCK", 4 * block)
        masses = [65, 64, 42]
        species = [Species(f"m{a}", a * ATOMIC_MASS_KG) for a in masses]
        with pytest.raises(InfeasibleDesignError) as exc:
            solve_n_path(species, 10.0, max_winding=100)
        assert without_obstructions(exc.value.report) == brute_force_n_path(masses, 100)[2]

    def test_residual_scan_within_budget(self, monkeypatch):
        # 2 paths * 2 rows residues per x: a budget of 120 stops the scan at
        # x = 30, below max_winding = 100 and N*A_0 = 195
        monkeypatch.setattr(design_module, "_RESIDUAL_BUDGET", 120)
        masses = [65, 64, 42]
        species = [Species(f"m{a}", a * ATOMIC_MASS_KG) for a in masses]
        with pytest.raises(InfeasibleDesignError) as exc:
            solve_n_path(species, 10.0, max_winding=100)
        assert exc.value.report["residual_x_max"] == 30
        assert without_obstructions(exc.value.report) == brute_force_n_path(
            masses, 100, scan_stop=30)[2]

    def test_obstruction_names_row_and_gcd(self):
        # N = 5, A_0 = 12: A_k - k*A_1 = -12*(k - 1), so P = 1; row 1 reads
        # 65x = 12s (mod 60), and gcd(65, 60) = 5 divides 12s for no s = 1..4
        species = [Species(f"m{a}", a * ATOMIC_MASS_KG) for a in range(12, 17)]
        with pytest.raises(InfeasibleDesignError) as exc:
            solve_n_path(species, 10.0)
        for s in range(1, 5):
            assert exc.value.report["paths"][s]["obstruction"] == {
                "type": "congruence", "step": 1, "gcd": 5, "modulus": 60}

    def test_obstruction_names_contradicting_rows(self):
        # masses 3, 4, 7 (N = 3, mod 9): path 1 needs x = 1 (mod 3) from
        # row 1 and x = 2 (mod 3) from row 2.  Given row 1, row 2 reads
        # -x = 0 (mod 3), so P = 3, and row 1 then reads 36y = 3s (mod 9),
        # which gcd(36, 9) = 9 rules out for s = 1, 2
        species = [Species(f"m{a}", a * ATOMIC_MASS_KG) for a in (3, 4, 7)]
        with pytest.raises(InfeasibleDesignError) as exc:
            solve_n_path(species, 10.0)
        for s in (1, 2):
            assert exc.value.report["paths"][s]["obstruction"] == {
                "type": "congruence", "step": 3, "gcd": 9, "modulus": 9}

    def test_obstruction_winding_bound(self):
        # masses 6, 7, 8 sort path 2 at x = 4 with windings (4, 4, 4)
        species = [Species(f"m{a}", a * ATOMIC_MASS_KG) for a in (6, 7, 8)]
        assert solve_n_path(species, 10.0, max_winding=4).windings[0][2] == 4
        with pytest.raises(InfeasibleDesignError) as exc:
            solve_n_path(species, 10.0, max_winding=3)
        assert set(exc.value.report["paths"]) == {2}
        assert exc.value.report["paths"][2]["obstruction"] == {
            "type": "winding_bound", "x": 4, "max_winding_needed": 4}

    def test_denominator_cap(self):
        # fractions with denominators up to the cap stay 2*RATIO_REL_TOL apart
        cap = design_module._MAX_DENOMINATOR
        assert cap == 22360
        assert 1 / cap**2 >= 2 * design_module.RATIO_REL_TOL > 1 / (cap + 1)**2
        # real C12/13/14: however large max_winding, the cap keeps the
        # proportions off the float noise of the ratios
        real = [Species(f"C{a}", m * ATOMIC_MASS_KG)
                for a, m in ((12, 12.0), (13, 13.00335483507), (14, 14.00324198843))]
        with pytest.raises(NonCommensurableMassesError, match=re.escape(
                "denominator <= 22360 = min(N*max_winding, 22360)")) as exc:
            solve_n_path(real, 10.0, max_winding=10**8)
        assert exc.value.report == {}

    @pytest.mark.parametrize("bounds", [{"max_winding": 0}, {"max_winding": -3}])
    def test_bounds_below_one_rejected(self, bounds):
        species = [Species("a", 6e-26), Species("b", 7e-26)]
        with pytest.raises(ValueError, match="at least 1"):
            solve_n_path(species, 10.0, **bounds)

    @pytest.mark.parametrize("max_winding", [7.5, 2000.0, True])
    def test_max_winding_must_be_an_integer(self, max_winding):
        species = [Species("a", 6e-26), Species("b", 7e-26)]
        with pytest.raises(ValueError, match="max_winding must be an integer") as exc:
            solve_n_path(species, 10.0, max_winding=max_winding)
        assert not isinstance(exc.value, InfeasibleDesignError)

    @settings(deadline=None, max_examples=30)
    @given(factor=st.floats(0.01, 100.0, allow_nan=False))
    def test_velocity_scaling_law(self, factor):
        species = [Species("a", 6e-26), Species("b", 7e-26), Species("c", 8e-26)]
        base = solve_n_path(species, 10.0)
        scaled = solve_n_path(species, 10.0 * factor)
        assert scaled.windings == base.windings
        for a, b in zip(scaled.delta_lengths, base.delta_lengths):
            assert a == pytest.approx(b / factor, rel=1e-12)



def farey_neighbours(x, bound):
    """Closest fractions below and above x with denominator <= bound, by brute force."""
    lower = max(Fraction(math.floor(x * q), q) for q in range(1, bound + 1))
    upper = min(Fraction(math.ceil(x * q), q) for q in range(1, bound + 1))
    return lower, upper


class TestIntegerSolver:
    def test_limit_denominator_matches_fraction(self):
        rng = random.Random(17)
        cases = []
        for _ in range(10_000):  # float ratios, as the solver rationalizes them
            r = rng.choice([rng.uniform(1e-3, 1e3), rng.randint(1, 400) / rng.randint(1, 400)])
            cases.append((*r.as_integer_ratio(), rng.choice([1, 50, 10_000, 10**6,
                                                              rng.randint(1, 10**6)])))
        # every fraction num/den <= 3 with den <= 24 at every bound 1..den + 1:
        # den <= bound, bound 1 and the exact ties midway between the two candidates
        ties = 0
        for den in range(1, 25):
            for num in range(3 * den + 1):
                if math.gcd(num, den) != 1:
                    continue
                for bound in range(1, den + 2):
                    cases.append((num, den, bound))
                    if den > bound:
                        lower, upper = farey_neighbours(Fraction(num, den), bound)
                        ties += Fraction(num, den) - lower == upper - Fraction(num, den)
        assert len(cases) > 15_000 and ties > 100
        for num, den, bound in cases:
            f = Fraction(num, den).limit_denominator(bound)
            assert design_module._limit_denominator(num, den, bound) == (
                f.numerator, f.denominator), (num, den, bound)

    def test_rows_reduce_to_one_congruence(self):
        # by brute force over one period x = 1..N*A_0: every row holds iff
        # P | x and row 1 holds, and _path_residues reports exactly that set
        feasible = infeasible = 0
        for masses in random_mass_sets(3, 400):
            species = tuple(Species(f"m{m}", m * ATOMIC_MASS_KG) for m in masses)
            a = design_module._rationalize_masses(species, 10_000)
            n, mod = len(a), len(a) * a[0]
            step, _ = step_and_gcd(a)
            x = np.arange(1, mod + 1)
            for s, (residue, _) in enumerate(design_module._path_residues(a), start=1):
                rows = [(n * a[k] * x - k * s * a[0]) % mod == 0 for k in range(1, n)]
                every_row = np.logical_and.reduce(rows)
                assert np.array_equal(every_row, (x % step == 0) & rows[0]), (masses, s)
                if residue is None:
                    assert not every_row.any(), (masses, s)
                    infeasible += 1
                else:
                    r, m = residue
                    assert 0 <= r < m and np.array_equal(every_row, x % m == r), (masses, s)
                    feasible += 1
        assert feasible >= 500 and infeasible >= 500

    def test_overflowing_mass_ratio_names_species(self):
        species = [Species("light", 1e-300), Species("heavy", 1e300)]
        with pytest.raises(ValueError, match="'heavy'.*overflows") as exc:
            solve_n_path(species, 1.0)
        assert not isinstance(exc.value, NonCommensurableMassesError)


class TestVerifyDesign:
    def _design(self):
        species = [Species("a", 6e-26), Species("b", 7e-26), Species("c", 8e-26)]
        return solve_n_path(species, 25.0)

    def test_solver_output_valid(self):
        assert np.abs(verify_design(self._design())).max() <= 1e-9

    def test_perturbation_shows_up(self):
        design = self._design()
        n = design.n
        lam0 = de_broglie_wavelength(design.species[0].mass, design.velocity)
        dl = list(design.delta_lengths)
        dl[1] += lam0 / (2 * n)
        perturbed = SorterDesign(velocity=design.velocity, species=design.species,
                                 delta_lengths=tuple(dl), windings=design.windings)
        residuals = verify_design(perturbed)
        assert abs(residuals[0, 1]) == pytest.approx(np.pi / n, rel=1e-9)

    def test_ideal_phases_entries(self):
        for n in (1, 2, 5):
            phases = ideal_phases(n)
            for k in range(n):
                for s in range(n):
                    assert phases[k, s] == pytest.approx(2 * np.pi * k * s / n, rel=1e-15)

    def test_residual_is_path_phases_minus_ideal(self):
        design = self._design()
        expected = [[phase_shift(dl, sp.mass, design.velocity) for dl in design.delta_lengths]
                    for sp in design.species]
        assert np.array_equal(design.path_phases(), np.array(expected))
        assert np.array_equal(verify_design(design),
                              design.path_phases() - ideal_phases(design.n)
                              - 2 * np.pi * np.array(design.windings, dtype=float))

    @pytest.mark.parametrize("max_winding", [10, 60, 1000])
    def test_windings_are_the_turns_of_the_path_phases(self, max_winding):
        # seeded feasible designs, N = 2..7: the solver's integer windings are the
        # turns that the float path phases make, and verify_design finds no residual
        designs = 0
        for masses in random_mass_sets(100 + max_winding, 200):
            species = [Species(f"m{m}", m * ATOMIC_MASS_KG) for m in masses]
            try:
                design = solve_n_path(species, 7.0, max_winding=max_winding)
            except InfeasibleDesignError:
                continue
            turns = np.rint((design.path_phases() - ideal_phases(design.n)) / (2 * np.pi))
            assert np.array_equal(turns, np.array(design.windings)), masses
            assert np.abs(verify_design(design)).max() <= design_module.PHASE_TOL, masses
            designs += 1
        assert designs >= 25

    def test_zero_length_design(self):
        species = [Species("a", 6e-26), Species("b", 7e-26), Species("c", 8e-26)]
        n = 3
        design = SorterDesign(velocity=1.0, species=tuple(species),
                              delta_lengths=(0.0,) * n,
                              windings=((0,) * n,) * n)
        residuals = verify_design(design)
        # every winding is 0, so the residuals are the unwrapped sorting phases
        expected = -ideal_phases(n)
        assert np.abs(residuals - expected).max() < 1e-12
        assert abs(residuals[1, 1]) > 0.1

    def test_implied_velocity_for_unit_winding(self):
        # dL_1 = 1 nm and one full winding for the reference mass
        velocity = PLANCK_H / (M_C12 * 1e-9)
        assert velocity == pytest.approx(33.3, rel=0.005)


class TestDistinctPhases:
    def test_exhaustive_vs_gcd(self):
        for n in range(2, 65):
            for k in range(n):
                assert distinct_phases_check(n, k) == (math.gcd(k, n) == 1), (n, k)

    def test_prime_all_true(self):
        assert all(distinct_phases_check(5, k) for k in range(1, 5))

    def test_k0_false(self):
        assert not distinct_phases_check(4, 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            distinct_phases_check(4, 4)


class TestGeometry:
    def test_five_port_coupler_length(self):
        lam = de_broglie_wavelength(M_C12, 1.0)
        assert mmi_length(1e-6, lam, 5) == pytest.approx(24e-6, rel=0.02)

    def test_width_scaling(self):
        lam = 1e-8
        assert mmi_length(2e-6, lam, 5) == pytest.approx(4 * mmi_length(1e-6, lam, 5))

    def test_halved_wavelength_doubles_length(self):
        lam = de_broglie_wavelength(M_C12, 2.0)  # v = 2 m/s halves lambda
        assert mmi_length(1e-6, lam, 5) == pytest.approx(48e-6, rel=0.02)

    @pytest.mark.parametrize("width, wavelength", [
        (math.nan, 1e-10), (math.inf, 1e-10), (0.0, 1e-10), (-1e-6, 1e-10),
        (1e-6, math.nan), (1e-6, math.inf), (1e-6, 0.0),
        (1e300, 1e-10),   # width**2 overflows
        (1e-6, 1e-322),   # the quotient overflows
        (1e-320, 1e-10),  # the length underflows to 0
    ])
    def test_coupler_length_positive_and_finite(self, width, wavelength):
        with pytest.raises(ValueError):
            mmi_length(width, wavelength, 5)

    def test_error_budget(self):
        lam = de_broglie_wavelength(M_C12, 1.0)
        assert path_error_budget([lam], 3) == pytest.approx(1.11e-8, rel=1e-3)
        assert path_error_budget([lam, lam], 3) == path_error_budget([lam], 3)
        with pytest.raises(ValueError):
            path_error_budget([lam], 1)
        with pytest.raises(ValueError):
            path_error_budget([], 3)


class TestJsonInterfaces:
    def test_species_file_both_units(self, tmp_path):
        path = tmp_path / "species.json"
        path.write_text(json.dumps([
            {"name": "a", "mass_kg": 1.99e-26},
            {"name": "b", "mass_u": 14.0},
        ]))
        species = load_species_file(path)
        assert species[0].mass == 1.99e-26
        assert species[1].mass == pytest.approx(14 * ATOMIC_MASS_KG, rel=1e-15)

    def test_design_round_trip(self):
        species = [Species("a", 6e-26), Species("b", 7e-26)]
        design = solve_n_path(species, 10.0)
        clone = design_from_dict(design_to_dict(design))
        assert clone == design

    @pytest.mark.parametrize("change, named", [
        ({"velocity_mps": float("nan")}, "velocity_mps"),
        ({"velocity_mps": 0}, "velocity_mps"),
        ({"velocity_mps": True}, "velocity_mps"),
        ({"delta_L_m": [0.0, float("inf")]}, "delta_L_m[1]"),
        ({"delta_L_m": [0.0]}, "delta_L_m"),
        ({"delta_L_m": "x"}, "delta_L_m"),
        ({"windings": [[0, 0], [0, 1.5]]}, "windings[1][1]"),
        ({"windings": [[0, 0]]}, "windings"),
        ({"windings": [[0, 0], [0]]}, "windings[1]"),
        ({"species": {"a": 1}}, "species"),
        ({"species": []}, "species"),
        ({"species": [{"name": "a", "mass_u": [12]}, {"name": "b", "mass_u": 13}]}, "mass_u"),
        ({"coupler": {"width_m": 1e-6, "length_m": -1.0, "ports": 2}}, "coupler.length_m"),
        ({"coupler": {"width_m": 1e-6, "length_m": 1e-5, "ports": 0}}, "coupler.ports"),
        ({"coupler": {"width_m": 1e-6}}, "length_m"),
        ({"coupler": [1]}, "coupler"),
        ({"n": 3}, "n is 3"),
        ({"n": "2"}, "n must be an integer"),
        ({"species": [{"name": "a", "mass_u": 6}]}, "species: sorting needs at least 2 species"),
        ({"coupler": {"width_m": 1e-6, "length_m": 1e-5, "ports": 5}}, "coupler.ports is 5"),
        ({"windings": [[0, 0], [0, -10**400]]}, "windings must lie within the float range"),
        ({"windings": [[0, 0], [0, 10**308]]}, "2*pi times them too"),  # 2*pi*n_ks is inf
        ({"species": [{"name": "a", "mass_kg": 6e-26}, {"name": "b", "mass_kg": 1e300}]},
         "path phases 2*pi * delta_L_m * mass_kg * velocity_mps / h overflow"),
        ({"delta_L_m": [0.0, -1.7e308]}, "max |delta_L_m| = 1.7e+308"),
    ])
    def test_design_fields_checked_at_load(self, tmp_path, change, named):
        data = design_to_dict(solve_n_path([Species("a", 6e-26), Species("b", 7e-26)], 10.0))
        data.update(change)
        with pytest.raises(ValueError, match=re.escape(named)):
            design_from_dict(data)
        path = tmp_path / "design.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_design(path)

    def test_missing_design_keys_named(self):
        with pytest.raises(ValueError, match="velocity_mps, species, delta_L_m, windings"):
            design_from_dict({})

    @pytest.mark.parametrize("obj, named", [
        ({"name": "a", "mass_u": [12]}, "mass_u"),
        ({"name": "a", "mass_kg": float("nan")}, "mass_kg"),
        ({"name": "a", "mass_kg": -1}, "mass_kg"),
        ({"name": "a", "mass_u": "12"}, "mass_u"),
        ({"name": "a", "mass_u": 10**400}, "mass_u"),
        ({"name": None, "mass_u": 12}, "name"),
    ])
    def test_species_fields_checked(self, obj, named):
        with pytest.raises(ValueError, match=named):
            species_from_obj(obj)

    @pytest.mark.parametrize("value, accepted", [
        (3, True), (np.int64(3), True), (10**400, True),
        (True, False), (np.bool_(True), False), (2.0, False), (np.float64(2.0), False),
        ("3", False),
    ])
    def test_require_int_accepts_integers_only(self, value, accepted):
        if accepted:
            got = require_int(value, "count")
            assert got == value and type(got) is int
        else:
            with pytest.raises(ValueError, match="count must be an integer"):
                require_int(value, "count")

    def test_bad_species_entry(self):
        with pytest.raises(ValueError):
            from interfsort.design import species_from_obj
            species_from_obj({"name": "x"})
