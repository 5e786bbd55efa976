import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interfsort.design import (
    SorterDesign,
    Species,
    de_broglie_wavelength,
    ideal_phases,
    phase_shift,
    solve_n_path,
)
from interfsort.gates import (
    controlled_x,
    controlled_x_err,
    controlled_z,
    controlled_z_err,
    dft_matrix,
    is_unitary,
    leakage_amplitudes,
)
from interfsort.leakage import (
    MonteCarloResult,
    PathFluctuation,
    PhaseErrorVector,
    analytic_leakage_n3,
    design_leakage,
    error_phases,
    exit_probabilities,
    monte_carlo_leakage,
    phases_from_fluctuation,
    simulate_leakage,
    sweep_leakage,
    write_sweep_csv,
)

W3 = np.exp(2j * np.pi / 3)

finite_phase = st.floats(-10.0, 10.0, allow_nan=False)
mass_ratio = st.floats(0.1, 10.0, allow_nan=False)


def random_errors(rng, n):
    return PhaseErrorVector(
        n=n,
        base_errors=tuple(rng.uniform(-np.pi, np.pi, n - 1)),
        mass_ratios=(1.0,) + tuple(rng.uniform(0.5, 3.0, n - 1)),
    )


class TestPhasesFromFluctuation:
    SPECIES = (Species("a", 1.99e-26), Species("b", 1.99e-26 * 7 / 6),
               Species("c", 1.99e-26 * 8 / 6))

    def test_uniform_fluctuation_is_null(self):
        errs = phases_from_fluctuation(PathFluctuation((3e-9, 3e-9, 3e-9)),
                                       self.SPECIES, 10.0)
        assert errs.base_errors == (0.0, 0.0)

    def test_one_wavelength_offset(self):
        lam0 = de_broglie_wavelength(self.SPECIES[0].mass, 10.0)
        errs = phases_from_fluctuation(PathFluctuation((0.0, lam0, 0.0)),
                                       self.SPECIES, 10.0)
        assert errs.base_errors[0] == pytest.approx(2 * np.pi, rel=1e-12)
        assert errs.base_errors[1] == 0.0

    def test_fifteenth_wavelength(self):
        lam0 = de_broglie_wavelength(self.SPECIES[0].mass, 10.0)
        errs = phases_from_fluctuation(
            PathFluctuation((0.0, lam0 / 15, lam0 / 15)), self.SPECIES, 10.0)
        assert np.allclose(errs.base_errors, 2 * np.pi / 15, rtol=1e-12)

    def test_mass_ratio_scaling(self):
        lam0 = de_broglie_wavelength(self.SPECIES[0].mass, 10.0)
        errs = phases_from_fluctuation(
            PathFluctuation((0.0, lam0 / 10, 0.0)), self.SPECIES, 10.0)
        phase = errs.phase_matrix()
        assert phase[1, 1] == pytest.approx((7 / 6) * phase[0, 1], rel=1e-12)
        assert phase[2, 0] == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            phases_from_fluctuation(PathFluctuation((0.0, 1e-9)), self.SPECIES, 10.0)


class TestErrorPhases:
    def test_batch_matches_per_entry_loop(self):
        rng = np.random.default_rng(12)
        n = 4
        base = rng.uniform(-np.pi, np.pi, size=(2, 3, n - 1))
        ratios = (1.0, *rng.uniform(0.5, 3.0, n - 1))
        out = error_phases(base, ratios)
        assert out.shape == (2, 3, n, n)
        for idx in np.ndindex(2, 3):
            for k in range(n):
                assert out[idx][k, 0] == 0.0
                for s in range(1, n):
                    assert out[idx][k, s] == ratios[k] * base[idx][s - 1]


class TestPhaseErrorValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_base_error_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PhaseErrorVector(3, (bad, 0.0), (1.0, 1.0, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mass_ratio_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PhaseErrorVector(3, (0.1, 0.2), (1.0, bad, 1.0))


class TestExitProbabilities:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 16, 32])
    def test_matches_dense_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        errs = random_errors(rng, n)
        p = exit_probabilities(ideal_phases(n) + errs.phase_matrix())
        assert np.abs(p - np.abs(leakage_amplitudes(errs)) ** 2).max() < 1e-12
        assert np.abs(p.sum(axis=-1) - 1.0).max() < 1e-12

    def test_batch_equals_per_matrix_calls(self):
        n = 5
        rng = np.random.default_rng(11)
        stack = rng.uniform(-np.pi, np.pi, size=(2, 3, n, n))
        batched = exit_probabilities(stack)
        assert batched.shape == (2, 3, n, n)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(batched[i, j], exit_probabilities(stack[i, j]))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 3, 2)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match="shape"):
            exit_probabilities(np.zeros(shape))


class TestImperfectGates:
    def test_zero_errors_reduce_to_ideal(self):
        for n in range(2, 6):
            errs = PhaseErrorVector(n, (0.0,) * (n - 1), (1.0,) * n)
            assert np.abs(controlled_z_err(errs) - controlled_z(n)).max() < 1e-12
            assert np.abs(controlled_x_err(errs) - controlled_x(n)).max() < 1e-12

    def test_n3_diagonal_structure(self):
        d1, d2, r1, r2 = 0.3, -0.7, 7 / 6, 8 / 6
        errs = PhaseErrorVector(3, (d1, d2), (1.0, r1, r2))
        expected = np.diag([
            1, np.exp(1j * d1), np.exp(1j * d2),
            1, W3 * np.exp(1j * d1 * r1), W3**2 * np.exp(1j * d2 * r1),
            1, W3**2 * np.exp(1j * d1 * r2), W3 * np.exp(1j * d2 * r2),
        ])
        assert np.abs(controlled_z_err(errs) - expected).max() < 1e-12

    def test_unit_modulus_diagonal(self):
        rng = np.random.default_rng(5)
        errs = random_errors(rng, 4)
        cz = controlled_z_err(errs)
        assert np.abs(np.abs(np.diag(cz)) - 1.0).max() < 1e-12

    def test_cx_err_unitary(self):
        rng = np.random.default_rng(6)
        for n in range(2, 9):
            assert is_unitary(controlled_x_err(random_errors(rng, n)), 1e-12)

    def test_cx_err_block_diagonal(self):
        rng = np.random.default_rng(7)
        for n in range(2, 9):
            cx = controlled_x_err(random_errors(rng, n)).reshape(n, n, n, n)
            for k_out in range(n):
                for k_in in range(n):
                    if k_out != k_in:
                        assert np.abs(cx[k_out, :, k_in, :]).max() < 1e-12

    def test_blocks_are_fourier_conjugated_phases(self):
        d1, d2, r1, r2 = 0.4, 0.9, 1.2, 2.5
        errs = PhaseErrorVector(3, (d1, d2), (1.0, r1, r2))
        f = dft_matrix(3)
        d_block1 = np.diag([1, np.exp(1j * d1), np.exp(1j * d2)])
        block = controlled_x_err(errs)[:3, :3]
        assert np.abs(block - f.conj().T @ d_block1 @ f).max() < 1e-12


class TestSimulateLeakage:
    def test_zero_errors_identity(self):
        for n in range(2, 7):
            errs = PhaseErrorVector(n, (0.0,) * (n - 1), (1.0,) * n)
            assert np.abs(simulate_leakage(errs) - np.eye(n)).max() < 1e-12

    def test_symmetric_error_exit_probabilities(self):
        d = 2 * np.pi / 15
        errs = PhaseErrorVector(3, (d, d), (1.0, 1.0, 1.0))
        p = simulate_leakage(errs)
        assert p[0, 0] == pytest.approx(0.9616, abs=1e-4)
        assert p[0, 1] == pytest.approx(0.0192, abs=1e-4)
        assert p[0, 2] == pytest.approx(0.0192, abs=1e-4)

    def test_two_path_full_swap(self):
        errs = PhaseErrorVector(2, (np.pi,), (1.0, 1.0))
        p = simulate_leakage(errs)
        assert np.abs(p[0] - [0.0, 1.0]).max() < 1e-12

    def test_row_stochastic_random(self):
        rng = np.random.default_rng(8)
        for n in range(2, 8):
            p = simulate_leakage(random_errors(rng, n))
            assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12
            assert p.min() > -1e-12

    @settings(deadline=None, max_examples=50)
    @given(base=st.tuples(finite_phase, finite_phase),
           extra_turns=st.integers(-3, 3),
           ratios=st.tuples(st.integers(1, 6), st.integers(1, 6)))
    def test_two_pi_periodicity_for_integer_ratios(self, base, extra_turns, ratios):
        full = (1, *ratios)
        errs = PhaseErrorVector(3, base, tuple(float(r) for r in full))
        shifted = PhaseErrorVector(
            3, (base[0] + 2 * np.pi * extra_turns, base[1]),
            tuple(float(r) for r in full))
        assert np.abs(simulate_leakage(errs) - simulate_leakage(shifted)).max() < 1e-10

    @settings(deadline=None, max_examples=50)
    @given(shift=finite_phase, velocity=st.floats(1.0, 100.0))
    def test_global_fluctuation_invariance(self, shift, velocity):
        species = (Species("a", 1.99e-26), Species("b", 2.3e-26), Species("c", 2.7e-26))
        fluct = PathFluctuation((shift * 1e-10,) * 3)
        errs = phases_from_fluctuation(fluct, species, velocity)
        assert np.abs(simulate_leakage(errs) - np.eye(3)).max() < 1e-12


class TestAnalyticN3:
    def test_ideal_case(self):
        _, probs = analytic_leakage_n3(0.0, 0.0, 7 / 6, 8 / 6)
        assert probs[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert probs[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert probs[0, 2] == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_error_value(self):
        d = 2 * np.pi / 15
        _, probs = analytic_leakage_n3(d, d, 1.0, 1.0)
        expected = 1 / 3 + (2 / 9) * (2 * np.cos(d) + 1)
        assert probs[0, 0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.96158, abs=1e-5)

    @settings(deadline=None, max_examples=100)
    @given(d1=finite_phase, d2=finite_phase, r1=mass_ratio, r2=mass_ratio)
    def test_matches_matrix_simulation(self, d1, d2, r1, r2):
        errs = PhaseErrorVector(3, (d1, d2), (1.0, r1, r2))
        amps, probs = analytic_leakage_n3(d1, d2, r1, r2)
        assert np.abs(amps - leakage_amplitudes(errs)).max() < 1e-12
        assert np.abs(probs - simulate_leakage(errs)).max() < 1e-12
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12


class TestSweep:
    def test_single_point_origin(self):
        grid = sweep_leakage([0.0], [0.0], (1.0, 1.0, 1.0))
        assert grid.shape == (1, 1, 3, 3)
        assert grid[0, 0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_grid_matches_analytic(self):
        d1s = np.linspace(-0.5, 0.5, 5)
        d2s = np.linspace(-0.3, 0.3, 4)
        grid = sweep_leakage(d1s, d2s, (1.0, 7 / 6, 8 / 6))
        for i, d1 in enumerate(d1s):
            for j, d2 in enumerate(d2s):
                _, probs = analytic_leakage_n3(d1, d2, 7 / 6, 8 / 6)
                assert np.abs(grid[i, j] - probs).max() < 1e-12

    def test_csv_deterministic(self, tmp_path):
        d1s = np.linspace(-0.2, 0.2, 3)
        d2s = np.linspace(-0.2, 0.2, 3)
        grid = sweep_leakage(d1s, d2s, (1.0, 1.5, 2.0))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(a, d1s, d2s, grid)
        write_sweep_csv(b, d1s, d2s, grid)
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "delta1_rad,delta2_rad,p00"

    def test_csv_full_columns(self, tmp_path):
        grid = sweep_leakage([0.1], [0.2], (1.0, 1.5, 2.0))
        path = tmp_path / "full.csv"
        write_sweep_csv(path, [0.1], [0.2], grid, all_entries=True)
        header = path.read_text().splitlines()[0].split(",")
        assert len(header) == 2 + 9

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            sweep_leakage([], [0.0], (1.0, 1.0, 1.0))

    @staticmethod
    def _per_cell_csv(path, d1s, d2s, grid, all_entries):
        """Reference writer: one repr per cell, row by row."""
        n = grid.shape[-1]
        extra = [(k, s) for k in range(n) for s in range(n) if (k, s) != (0, 0)]
        header = ["delta1_rad", "delta2_rad", "p00"]
        if all_entries:
            header += [f"p{k}{s}" for k, s in extra]
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i, d1 in enumerate(d1s):
                for j, d2 in enumerate(d2s):
                    row = [repr(float(d1)), repr(float(d2)), repr(float(grid[i, j, 0, 0]))]
                    if all_entries:
                        row += [repr(float(grid[i, j, k, s])) for k, s in extra]
                    writer.writerow(row)

    @pytest.mark.parametrize("steps, all_entries, ratios, edge", [
        (101, False, (1.0, 7 / 6, 8 / 6), 0.42),
        (57, True, (1.0, 1.23, 0.77), 2.5),
        (1, True, (1.0, 1.0, 1.0), 0.0),
    ])
    def test_csv_matches_per_cell_writer(self, tmp_path, steps, all_entries, ratios, edge):
        d1s = np.linspace(-edge, edge, steps)
        d2s = np.linspace(-edge / 2, edge, steps + 3)
        grid = sweep_leakage(d1s, d2s, ratios)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_sweep_csv(got, d1s, d2s, grid, all_entries=all_entries)
        self._per_cell_csv(want, d1s, d2s, grid, all_entries)
        assert got.read_bytes() == want.read_bytes()

    def test_grid_matches_per_point_simulation(self):
        ratios = (1.0, 2.37, 0.61)
        d1s = np.linspace(-2.0, 3.0, 6)
        d2s = np.linspace(-1.0, 0.5, 4)
        grid = sweep_leakage(d1s, d2s, ratios)
        for i, d1 in enumerate(d1s):
            for j, d2 in enumerate(d2s):
                point = simulate_leakage(PhaseErrorVector(3, (d1, d2), ratios))
                assert np.array_equal(grid[i, j], point)

    @pytest.mark.parametrize("d1s, d2s, ratios", [
        ([0.0, np.nan], [0.0], (1.0, 1.0, 1.0)),
        ([0.0], [np.inf], (1.0, 1.0, 1.0)),
        ([0.0], [0.0], (1.0, np.nan, 1.0)),
        ([0.0], [0.0], (1.0, 1.0, -np.inf)),
    ])
    def test_non_finite_input_rejected(self, d1s, d2s, ratios):
        with pytest.raises(ValueError, match="finite"):
            sweep_leakage(d1s, d2s, ratios)


class TestDesignLeakage:
    def test_solved_design_sorts_perfectly(self):
        species = [Species("a", 6e-26), Species("b", 7e-26), Species("c", 8e-26)]
        design = solve_n_path(species, 40.0)
        assert np.abs(design_leakage(design) - np.eye(3)).max() < 1e-9

    def test_perturbed_design_matches_coupler_products(self):
        species = [Species("a", 6e-26), Species("b", 7e-26), Species("c", 8e-26)]
        design = solve_n_path(species, 40.0)
        design = SorterDesign(design.velocity, design.species,
                              (0.0, design.delta_lengths[1] * 1.003,
                               design.delta_lengths[2] * 0.998), design.windings)
        f = dft_matrix(3)
        expected = []
        for sp in species:
            phases = [phase_shift(dl, sp.mass, design.velocity) for dl in design.delta_lengths]
            expected.append(np.abs(f.conj().T @ (np.exp(1j * np.array(phases)) * f[:, 0])) ** 2)
        p = design_leakage(design)
        assert np.abs(p - np.array(expected)).max() < 1e-12
        assert np.abs(p - np.eye(3)).max() > 1e-3


class TestMonteCarlo:
    def _design(self):
        species = [Species("a", 6e-26), Species("b", 7e-26), Species("c", 8e-26)]
        return solve_n_path(species, 40.0)

    def test_zero_noise(self):
        result = monte_carlo_leakage(self._design(), 0.0, trials=5, seed=1)
        assert np.allclose(result.mean, 1.0, atol=1e-9)
        assert np.allclose(result.std, 0.0, atol=1e-12)

    def test_rule_of_thumb_noise_degrades_sorting(self):
        design = self._design()
        lam_min = min(de_broglie_wavelength(sp.mass, design.velocity)
                      for sp in design.species)
        result = monte_carlo_leakage(design, lam_min / design.n, trials=200, seed=2)
        assert min(result.mean) < 0.95

    def test_seed_reproducibility(self):
        a = monte_carlo_leakage(self._design(), 1e-10, trials=50, seed=9)
        b = monte_carlo_leakage(self._design(), 1e-10, trials=50, seed=9)
        assert a == b
        assert isinstance(a, MonteCarloResult)

    def test_matches_serial_dense_oracle(self):
        design = self._design()
        sigma, trials, seed = 3e-11, 40, 17
        result = monte_carlo_leakage(design, sigma, trials=trials, seed=seed)
        diagonals, errors = [], []
        for t in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))
            fluct = PathFluctuation(tuple(rng.normal(0.0, sigma, size=design.n)))
            errs = phases_from_fluctuation(fluct, design.species, design.velocity)
            diagonals.append(np.diag(np.abs(leakage_amplitudes(errs)) ** 2))
            errors.append(errs.phase_matrix())
        diagonals = np.array(diagonals)
        assert np.abs(np.array(result.mean) - diagonals.mean(axis=0)).max() < 1e-12
        assert np.abs(np.array(result.std) - diagonals.std(axis=0)).max() < 1e-12
        assert min(result.mean) < 1.0 - 1e-6
        # the batched phase conversion does the per-trial arithmetic exactly
        kernel = np.diagonal(exit_probabilities(ideal_phases(design.n) + np.array(errors)),
                             axis1=-2, axis2=-1)
        assert result.mean == tuple(kernel.mean(axis=0))
        assert result.std == tuple(kernel.std(axis=0))

    def test_overflowing_phases_rejected(self):
        species = (Species("a", 1e300), Species("b", 2e300))
        design = SorterDesign(1e300, species, (0.0, 1e-9), ((0, 0), (0, 0)))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            monte_carlo_leakage(design, 1e-10, trials=3, seed=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_leakage(self._design(), -1.0, trials=5, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_leakage(self._design(), 1e-10, trials=0, seed=0)
        for sigma in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                monte_carlo_leakage(self._design(), sigma, trials=5, seed=0)
