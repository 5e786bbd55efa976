import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from interfsort.constants import ELEMENTARY_CHARGE
from interfsort.leakage import PhaseErrorVector, simulate_leakage
from interfsort.spectrum import (
    CountRecord,
    NeutralSpeciesError,
    UnidentifiableLeakageError,
    ams_radius,
    ams_separation,
    reconstruct_spectrum,
    run_experiment,
    simulate_counts,
)

M_C12 = 1.99e-26
ROOT = Path(__file__).resolve().parents[1]


def carbonish_leakage(delta=2 * np.pi / 15):
    errs = PhaseErrorVector(3, (delta, delta), (1.0, 7 / 6, 8 / 6))
    return simulate_leakage(errs)


class TestSimulateCounts:
    def test_pure_species_identity_leakage(self):
        record = simulate_counts([1.0, 0.0, 0.0], np.eye(3), 1000, seed=0)
        assert record.counts == (1000, 0, 0)

    def test_counts_conserved(self):
        record = simulate_counts([0.2, 0.5, 0.3], carbonish_leakage(), 12345, seed=1)
        assert sum(record.counts) == 12345

    def test_binomial_statistics(self):
        total = 10**6
        record = simulate_counts([0.5, 0.5], np.eye(2), total, seed=2)
        sigma = 0.5 / np.sqrt(total)
        assert abs(record.counts[0] / total - 0.5) < 5 * sigma

    def test_leaky_channel_fraction(self):
        total = 10**6
        leakage = carbonish_leakage()
        record = simulate_counts([1.0, 0.0, 0.0], leakage, total, seed=3)
        p00 = leakage[0, 0]
        sigma = np.sqrt(p00 * (1 - p00) / total)
        assert p00 == pytest.approx(0.9616, abs=1e-4)
        assert abs(record.counts[0] / total - p00) < 5 * sigma

    def test_seed_determinism(self):
        a = simulate_counts([0.3, 0.7], np.eye(2), 10**4, seed=11)
        b = simulate_counts([0.3, 0.7], np.eye(2), 10**4, seed=11)
        assert a == b

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            simulate_counts([0.5, 0.5], np.eye(3), 100, seed=0)

    def test_bad_abundances(self):
        with pytest.raises(ValueError):
            simulate_counts([0.5, 0.4], np.eye(2), 100, seed=0)
        with pytest.raises(ValueError):
            simulate_counts([-0.1, 1.1], np.eye(2), 100, seed=0)


class TestReconstruct:
    def test_identity_leakage_exact(self):
        record = CountRecord(total=1000, counts=(600, 400), seed=0)
        a, sigma = reconstruct_spectrum(record, np.eye(2))
        assert a.tolist() == [0.6, 0.4]
        assert sigma.min() > 0

    def test_round_trip_with_leakage(self):
        truth = np.array([0.9, 0.05, 0.05])
        leakage = carbonish_leakage()
        record = simulate_counts(truth, leakage, 10**6, seed=4)
        a, sigma = reconstruct_spectrum(record, leakage)
        assert np.all(np.abs(a - truth) < 5 * sigma)
        assert a.sum() == pytest.approx(1.0, abs=1e-9)

    def test_uniform_leakage_unidentifiable(self):
        record = CountRecord(total=300, counts=(100, 100, 100), seed=0)
        with pytest.raises(UnidentifiableLeakageError):
            reconstruct_spectrum(record, np.full((3, 3), 1 / 3))

    def test_nonnegativity_enforced(self):
        # fractions inconsistent with the leakage model force the constrained path
        leakage = carbonish_leakage(1.0)
        record = CountRecord(total=1000, counts=(0, 0, 1000), seed=0)
        assert np.linalg.solve(leakage.T, record.fractions()).min() < -1e-12
        a, _ = reconstruct_spectrum(record, leakage)
        assert a.min() >= 0
        assert a.sum() == pytest.approx(1.0, abs=1e-9)

    def test_scipy_loaded_by_unfolding_on_either_branch(self):
        # a fresh process: importing the CLI must not pay for scipy.optimize,
        # and the first unfolding pays for it whether or not NNLS runs
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import interfsort.cli\n"
            "from interfsort.spectrum import CountRecord, reconstruct_spectrum\n"
            "from interfsort.leakage import PhaseErrorVector, simulate_leakage\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "leak = simulate_leakage(PhaseErrorVector(3, (0.1, 0.1), (1.0, 7 / 6, 8 / 6)))\n"
            "plain = CountRecord(1000, (400, 300, 300), 0)\n"
            "print(np.linalg.solve(leak.T, plain.fractions()).min() > 0)\n"
            "reconstruct_spectrum(plain, leak)\n"
            "print('scipy.optimize' in sys.modules)\n"
            "leak = simulate_leakage(PhaseErrorVector(3, (1.0, 1.0), (1.0, 7 / 6, 8 / 6)))\n"
            "a, _ = reconstruct_spectrum(CountRecord(1000, (0, 0, 1000), 0), leak)\n"
            "print(a.min() >= 0, abs(a.sum() - 1) < 1e-9)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "True", "True", "True True"]


class TestMagneticReference:
    def test_radius_example(self):
        r = ams_radius(M_C12, 1e5, ELEMENTARY_CHARGE, 1.0)
        assert r == pytest.approx(1.242e-2, rel=1e-3)

    def test_doubling_field_halves_radius(self):
        r1 = ams_radius(M_C12, 1e5, ELEMENTARY_CHARGE, 1.0)
        r2 = ams_radius(M_C12, 1e5, ELEMENTARY_CHARGE, 2.0)
        assert r2 == pytest.approx(r1 / 2)

    def test_neutral_rejected(self):
        with pytest.raises(NeutralSpeciesError):
            ams_radius(M_C12, 1e5, 0.0, 1.0)
        with pytest.raises(NeutralSpeciesError):
            ams_separation(M_C12, 0.0, M_C12, ELEMENTARY_CHARGE, 1e5, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_rejected(self, bad):
        q = ELEMENTARY_CHARGE
        for args in ((M_C12, bad, q, 1.0), (M_C12, 1e5, q, bad), (M_C12, 1e5, bad, 1.0),
                     (bad, 1e5, q, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                ams_radius(*args)
        for args in ((M_C12, q, M_C12, q, bad, 1.0), (M_C12, q, M_C12, q, 1e5, bad),
                     (M_C12, bad, M_C12, q, 1e5, 1.0), (M_C12, q, bad, q, 1e5, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                ams_separation(*args)

    def test_carbon_separation(self):
        sep = ams_separation(M_C12, ELEMENTARY_CHARGE, M_C12 * 7 / 6,
                             ELEMENTARY_CHARGE, 1e5, 1.0)
        assert sep == pytest.approx(2.07e-3, rel=1e-3)

    def test_separation_scales_with_velocity(self):
        sep1 = ams_separation(M_C12, ELEMENTARY_CHARGE, M_C12 * 7 / 6,
                              ELEMENTARY_CHARGE, 1e5, 1.0)
        sep2 = ams_separation(M_C12, ELEMENTARY_CHARGE, M_C12 * 7 / 6,
                              ELEMENTARY_CHARGE, 2e5, 1.0)
        assert sep2 == pytest.approx(2 * sep1)

    def test_same_mass_to_charge_ratio(self):
        assert ams_separation(M_C12, 1.0, 2 * M_C12, 2.0, 1e5, 1.0) == 0.0

    def test_antisymmetric_under_swap(self):
        a = ams_separation(M_C12, 1.0, 1.5 * M_C12, 2.0, 1e5, 1.0)
        b = ams_separation(1.5 * M_C12, 2.0, M_C12, 1.0, 1e5, 1.0)
        assert a == pytest.approx(-b)


class TestRunExperiment:
    CONFIG = {
        "species": [
            {"name": "C12", "mass_u": 12.0},
            {"name": "C13", "mass_u": 13.0},
            {"name": "C14", "mass_u": 14.0},
        ],
        "velocity_mps": 50.0,
        "abundances": [0.9, 0.05, 0.05],
        "total_particles": 200000,
        "seed": 77,
        "errors": {"delta_phi_rad": [0.2, -0.1]},
    }

    def test_round_trip_within_uncertainty(self):
        result = run_experiment(self.CONFIG)
        a = np.array(result["reconstructed_abundances"])
        sigma = np.array(result["uncertainties"])
        truth = np.array(self.CONFIG["abundances"])
        assert np.all(np.abs(a - truth) < 5 * sigma)

    def test_deterministic_given_seed(self):
        a = json.dumps(run_experiment(self.CONFIG), sort_keys=True)
        b = json.dumps(run_experiment(self.CONFIG), sort_keys=True)
        assert a == b

    def test_zero_error_pure_species(self):
        config = dict(self.CONFIG, abundances=[1.0, 0.0, 0.0], errors={})
        result = run_experiment(config)
        assert result["counts"][0] == config["total_particles"]
        assert result["reconstructed_abundances"][0] == pytest.approx(1.0)

    def test_gaussian_path_noise_branch(self):
        config = dict(self.CONFIG, errors={"sigma_L_m": 1e-10})
        a = run_experiment(config)
        b = run_experiment(config)
        assert a == b
        assert any(x != 0 for x in a["base_phase_errors_rad"])

    def test_dimension_mismatch(self):
        config = dict(self.CONFIG, abundances=[0.5, 0.5])
        with pytest.raises(ValueError):
            run_experiment(config)
