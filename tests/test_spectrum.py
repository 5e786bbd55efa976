import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from interfsort import spectrum
from interfsort.ams import NeutralSpeciesError, ams_radius, ams_separation
from interfsort.constants import ELEMENTARY_CHARGE
from interfsort.leakage import PhaseErrorVector, simulate_leakage
from interfsort.spectrum import (
    CountRecord,
    UnidentifiableLeakageError,
    reconstruct_spectrum,
    run_experiment,
    simulate_counts,
)

M_C12 = 1.99e-26
ROOT = Path(__file__).resolve().parents[1]


def carbonish_leakage(delta=2 * np.pi / 15):
    errs = PhaseErrorVector(3, (delta, delta), (1.0, 7 / 6, 8 / 6))
    return simulate_leakage(errs)


def per_species_loop(abundances, leakage, total, seed):
    """Reference sampler: species counts, then one multinomial draw over the
    exits per species, summed.  A statistical oracle: simulate_counts draws
    the same distribution from another random stream."""
    p = np.clip(leakage, 0.0, 1.0)
    p = p / p.sum(axis=1, keepdims=True)
    rng = np.random.default_rng(seed)
    counts = np.zeros(len(abundances), dtype=np.int64)
    for k, n_k in enumerate(rng.multinomial(total, abundances)):
        counts += rng.multinomial(n_k, p[k])
    return tuple(int(c) for c in counts)


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

    @pytest.mark.parametrize("total", [1.5, 2.0, True, "10"])
    def test_non_integer_total_refused(self, total):
        with pytest.raises(ValueError, match="number of particles must be an integer"):
            simulate_counts([0.5, 0.5], np.eye(2), total, seed=0)

    def test_numpy_integer_total_accepted(self):
        record = simulate_counts([0.5, 0.5], np.eye(2), np.int64(1000), seed=4)
        assert record == simulate_counts([0.5, 0.5], np.eye(2), 1000, seed=4)

    @pytest.mark.parametrize("n", [2, 3, 8, 32])
    def test_same_distribution_as_per_species_loop(self, n):
        # 2000 seeded draws of each sampler: every channel mean within
        # |z| <= 4.5 of T*q, and every covariance entry within |z| <= 5 of
        # T*(diag q - q q^T), with the Gaussian standard error of a sample
        # covariance, sqrt((C_ii C_jj + C_ij^2) / draws)
        draws, total = 2000, 10**4
        rng = np.random.default_rng(n)
        ratios = (1.0, *np.sort(rng.uniform(1.05, 2.0, n - 1)))
        leakage = simulate_leakage(PhaseErrorVector(n, tuple(rng.uniform(-0.4, 0.4, n - 1)),
                                                    ratios))
        a = rng.dirichlet(np.ones(n))
        q = a @ leakage
        cov = total * (np.diag(q) - np.outer(q, q))
        cov_se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / draws)
        for sampler in (lambda seed: simulate_counts(a, leakage, total, seed).counts,
                        lambda seed: per_species_loop(a, leakage, total, seed)):
            counts = np.array([sampler(seed) for seed in range(draws)], dtype=float)
            mean_z = (counts.mean(axis=0) - total * q) / np.sqrt(np.diag(cov) / draws)
            cov_z = (np.cov(counts, rowvar=False) - cov) / cov_se
            assert np.abs(mean_z).max() <= 4.5
            assert np.abs(cov_z).max() <= 5.0

    @pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
    def test_one_multinomial_at_channel_probabilities(self, seed):
        # with P = I the channel probabilities are the abundances themselves
        for a in ([0.25, 0.5, 0.25], np.random.default_rng(seed).dirichlet(np.ones(5))):
            a = np.asarray(a)
            record = simulate_counts(a, np.eye(a.size), 123_457, seed)
            expected = np.random.default_rng(seed).multinomial(123_457, a / a.sum())
            assert record.counts == tuple(int(c) for c in expected)
        # a leaky sorter: one draw at q = P^T a, where a per-species second
        # stage would take further numbers from the stream
        a, leakage = np.array([0.2, 0.5, 0.3]), carbonish_leakage()
        q = a @ leakage
        expected = np.random.default_rng(seed).multinomial(123_457, q / q.sum())
        assert simulate_counts(a, leakage, 123_457, seed).counts == tuple(int(c) for c in expected)

    def test_total_near_max_particles(self):
        total, a, leakage = spectrum.MAX_PARTICLES - 5, np.array([0.2, 0.5, 0.3]), carbonish_leakage()
        record = simulate_counts(a, leakage, total, seed=9)
        assert sum(record.counts) == total and min(record.counts) > 0
        assert np.allclose(record.fractions(), a @ leakage, rtol=0, atol=1e-6)
        with pytest.raises(ValueError, match="number of particles"):
            simulate_counts([0.5, 0.5], np.eye(2), spectrum.MAX_PARTICLES + 1, seed=0)

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

    def test_no_scipy_loaded_by_unfolding_or_simulate(self, tmp_path):
        # a fresh process: neither unfolding branch nor the simulate command
        # may load scipy, which the package no longer depends on
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(TestRunExperiment.CONFIG))
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import interfsort.cli\n"
            "from interfsort.spectrum import CountRecord, reconstruct_spectrum\n"
            "from interfsort.leakage import PhaseErrorVector, simulate_leakage\n"
            "leak = simulate_leakage(PhaseErrorVector(3, (0.1, 0.1), (1.0, 7 / 6, 8 / 6)))\n"
            "plain = CountRecord(1000, (400, 300, 300), 0)\n"
            "print(np.linalg.solve(leak.T, plain.fractions()).min() > 0)\n"
            "reconstruct_spectrum(plain, leak)\n"
            "leak = simulate_leakage(PhaseErrorVector(3, (1.0, 1.0), (1.0, 7 / 6, 8 / 6)))\n"
            "edge = CountRecord(1000, (0, 0, 1000), 0)\n"
            "print(np.linalg.solve(leak.T, edge.fractions()).min() < -1e-12)\n"
            "a, _ = reconstruct_spectrum(edge, leak)\n"
            "print(a.min() >= 0, abs(a.sum() - 1) < 1e-9)\n"
            f"print(interfsort.cli.main(['simulate', {str(config)!r}, '--out', "
            f"{str(tmp_path / 'r.json')!r}]))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[:3] == ["True", "True", "True True"]
        assert lines[-2:] == ["0", "[]"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_leakage_rejected(self, bad):
        leakage = carbonish_leakage()
        leakage[1, 2] = bad
        record = CountRecord(total=300, counts=(100, 100, 100), seed=0)
        with pytest.raises(ValueError, match="finite"):
            reconstruct_spectrum(record, leakage)
        with pytest.raises(ValueError, match="finite"):
            simulate_counts([0.2, 0.5, 0.3], leakage, 300, seed=0)

    def test_interior_branch_is_the_plain_solve(self):
        rng = np.random.default_rng(12)
        checked = 0
        for n in (2, 3, 5, 8, 16, 32):
            for _ in range(5):
                leakage, record = random_acquisition(rng, n)
                plain = np.linalg.solve(leakage.T, record.fractions())
                if plain.min() < 0:
                    continue
                a, _ = reconstruct_spectrum(record, leakage)
                assert np.array_equal(a, plain)
                checked += 1
        assert checked >= 15

    def test_interior_sigma_matches_exact_arithmetic(self):
        # sigma_k^2 = (sum_s f_s w_ks^2 - (sum_s f_s w_ks)^2) / T with w = P^-T,
        # evaluated in exact rational arithmetic on the rounded matrix
        rng = np.random.default_rng(5)
        for n in (2, 3, 4):
            leakage, record = random_acquisition(rng, n, interior=True)
            _, sigma = reconstruct_spectrum(record, leakage)
            w = exact_inverse([[Fraction(x) for x in row] for row in leakage.T])
            f = [Fraction(c, record.total) for c in record.counts]
            for k in range(n):
                mean = sum(fs * wks for fs, wks in zip(f, w[k]))
                var = (sum(fs * wks * wks for fs, wks in zip(f, w[k])) - mean * mean)
                assert sigma[k] == pytest.approx(math.sqrt(var / record.total), rel=1e-13)

    def test_condition_decision_matches_svd(self):
        # P = (1 - w) 1 r^T + w I is row-stochastic with condition number about
        # 1/w; counts proportional to r put the solution inside the simplex
        rng = np.random.default_rng(9)
        refused = accepted = near = 0
        for n in (2, 3, 5, 8, 16):
            for log_cond in np.linspace(8 - 2 * np.log10(n), 8 + np.log10(n), 12):
                counts = rng.integers(20, 100, n)
                r = counts / counts.sum()
                w = 10.0 ** -log_cond
                leakage = (1 - w) * np.outer(np.ones(n), r) + w * np.eye(n)
                record = CountRecord(int(counts.sum()), tuple(int(c) for c in counts), 0)
                expect = np.linalg.cond(leakage.T) > 1e8
                # accepted although n * cond_1 is above the limit: the SVD decides
                near += not expect and n * np.linalg.cond(leakage.T, 1) > 1e8
                if expect:
                    with pytest.raises(UnidentifiableLeakageError, match="condition"):
                        reconstruct_spectrum(record, leakage)
                    refused += 1
                else:
                    a, _ = reconstruct_spectrum(record, leakage)
                    assert np.all(np.isfinite(a))
                    accepted += 1
        assert refused >= 10 and accepted >= 10 and near >= 5


def random_acquisition(rng, n, interior=False, trace=False):
    """A leaky sorter at N paths and counts drawn through it."""
    while True:
        ratios = (1.0, *np.sort(rng.uniform(1.05, 2.0, n - 1)))
        base = tuple(rng.uniform(-0.4, 0.4, n - 1))
        leakage = simulate_leakage(PhaseErrorVector(n, base, ratios))
        a = rng.dirichlet(np.ones(n))
        if trace:
            a[rng.choice(n, size=max(1, n // 3), replace=False)] = 0.0
            a /= a.sum()
        record = simulate_counts(a, leakage, int(rng.integers(1000, 100_000)),
                                 int(rng.integers(2**31)))
        if not interior or np.linalg.solve(leakage.T, record.fractions()).min() >= 0:
            return leakage, record


def exact_inverse(m):
    """Gauss-Jordan inverse of a square matrix of Fractions."""
    n = len(m)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        head = aug[col][col]
        aug[col] = [x / head for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def em_oracle(leakage, fractions, tol=1e-14, max_iter=200_000):
    """Richardson-Lucy (EM) iteration for the multinomial maximum likelihood."""
    seen = fractions > 0
    p, f = leakage[:, seen], fractions[seen]
    a = np.full(leakage.shape[0], 1.0 / leakage.shape[0])
    for _ in range(max_iter):
        new = a * (p @ (f / (a @ p)))
        if np.abs(new - a).max() < tol:
            return new
        a = new
    raise AssertionError("EM oracle did not converge")


def kkt_residual(leakage, record, a):
    """Largest KKT violation of the Poisson log-likelihood, in counts."""
    n = np.array(record.counts, dtype=float)
    q = leakage.T @ a
    seen = n > 0
    grad = leakage[:, seen] @ (n[seen] / q[seen]) - record.total
    return max(np.abs(grad[a > 0]).max(), grad[a == 0].max(initial=0.0), 0.0)


class TestMaximumLikelihoodBoundary:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 32])
    def test_matches_em_oracle_and_kkt(self, n):
        rng = np.random.default_rng(100 + n)
        found = 0
        while found < 3:
            leakage, record = random_acquisition(rng, n, trace=True)
            if np.linalg.solve(leakage.T, record.fractions()).min() >= -1e-12:
                continue
            a, sigma = reconstruct_spectrum(record, leakage)
            assert a.min() == 0
            assert a.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.abs(a - em_oracle(leakage, record.fractions())).max() < 1e-9
            assert kkt_residual(leakage, record, a) <= 1e-10 * record.total
            assert np.all(sigma > 0)
            found += 1

    @pytest.mark.parametrize("counts", [(5000, 0, 3000, 2000), (0, 120, 0, 0, 40),
                                        (900, 0, 0, 40, 0, 300, 0, 5)])
    def test_zero_count_channels(self, counts):
        # the last two leave fewer seen channels than species
        n = len(counts)
        rng = np.random.default_rng(n)
        ratios = (1.0, *np.sort(rng.uniform(1.05, 2.0, n - 1)))
        leakage = simulate_leakage(PhaseErrorVector(n, tuple(rng.uniform(-0.6, 0.6, n - 1)),
                                                    ratios))
        record = CountRecord(sum(counts), counts, 0)
        assert np.linalg.solve(leakage.T, record.fractions()).min() < -1e-12
        a, _ = reconstruct_spectrum(record, leakage)
        assert a.min() == 0 and a.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.abs(a - em_oracle(leakage, record.fractions())).max() < 1e-9
        assert kkt_residual(leakage, record, a) <= 1e-10 * record.total

    def test_pinned_sigma_from_expected_fractions(self):
        # every count in one channel: the observed fractions have no spread,
        # but the fitted ones do, so no sigma is zero
        leakage = carbonish_leakage(1.0)
        record = CountRecord(total=1000, counts=(0, 0, 1000), seed=0)
        a, sigma = reconstruct_spectrum(record, leakage)
        pinned = a == 0
        assert pinned.sum() == 2
        assert np.all((leakage.T @ a)[pinned] > 0)
        assert np.all(sigma > 0)

    def test_unconverged_point_is_never_returned(self, monkeypatch):
        leakage = carbonish_leakage(0.6)
        record = CountRecord(total=1000, counts=(100, 0, 900), seed=0)
        assert np.linalg.solve(leakage.T, record.fractions()).min() < -1e-12
        monkeypatch.setattr(spectrum, "MAX_NEWTON_STEPS", 1)
        with pytest.raises(UnidentifiableLeakageError, match="KKT"):
            reconstruct_spectrum(record, leakage)


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

    @pytest.mark.parametrize("key", ["species", "velocity_mps", "abundances",
                                     "total_particles", "seed"])
    def test_missing_key_named(self, key):
        config = {k: v for k, v in self.CONFIG.items() if k != key}
        with pytest.raises(ValueError, match=key):
            run_experiment(config)

    @pytest.mark.parametrize("field, value, match", [
        ("total_particles", 1.5, "total_particles.*integer"),
        ("total_particles", True, "total_particles.*integer"),
        ("seed", 1.7, "seed.*integer"),
        ("seed", "7", "seed.*integer"),
        ("species", 5, "species.*list"),
        ("species", [5, 6, 7], "species"),
        ("velocity_mps", float("nan"), "velocity_mps"),
        ("velocity_mps", [50.0], "velocity_mps"),
        ("errors", [0.1], "errors"),
    ])
    def test_wrong_types_rejected(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            run_experiment(dict(self.CONFIG, **{field: value}))

    def test_config_must_be_an_object(self):
        with pytest.raises(ValueError, match="object"):
            run_experiment([self.CONFIG])

    @pytest.mark.parametrize("errors, match", [
        ({"sigma_l_m": 1e-10}, "unknown key 'sigma_l_m'"),
        ({"delta_phi_rad": [0.1, 0.2], "noise": 1}, "unknown key 'noise'"),
        ({"delta_phi_rad": [0.1, 0.2], "sigma_L_m": 1e-10}, "delta_phi_rad or sigma_L_m, not both"),
    ])
    def test_errors_misread_rejected(self, errors, match):
        # a typo would simulate the ideal sorter, both keys would drop the noise
        with pytest.raises(ValueError, match=match):
            run_experiment(dict(self.CONFIG, errors=errors))

    def test_numpy_integers_accepted(self):
        config = dict(self.CONFIG, total_particles=np.int64(200000), seed=np.int64(77))
        assert run_experiment(config) == run_experiment(self.CONFIG)
