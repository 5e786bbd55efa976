import copy
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interfsort import cli
from interfsort.cli import main
from interfsort.constants import ATOMIC_MASS_KG, PLANCK_H

ROOT = Path(__file__).resolve().parents[1]
M_C12 = 1.99e-26
# m_1 / m_0 = 1e600 overflows a float
OVERFLOWING_SPECIES = [{"name": "a", "mass_kg": 1e-300}, {"name": "b", "mass_kg": 1e300}]


def run_child(argv, setup="", timeout=120):
    """Run the CLI in a child process, after the Python statements `setup`.

    Its stderr is the real one, so numpy warnings show there.
    """
    code = f"import sys\n{setup}from interfsort.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


def run_under_4gib(argv):
    """Run the CLI in a child process whose address space is capped at 4 GiB.

    An allocation beyond the cap fails at once, whatever memory the host has.
    """
    pytest.importorskip("resource")
    return run_child(argv, setup=(
        "import resource\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "soft = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (soft, hard))\n"))


@pytest.fixture
def carbon_file(tmp_path):
    path = tmp_path / "carbon.json"
    path.write_text(json.dumps([
        {"name": "C12", "mass_kg": M_C12},
        {"name": "C14", "mass_kg": M_C12 * 7 / 6},
    ]))
    return path


@pytest.fixture
def experiment_file(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "species": [{"name": "C12", "mass_u": 12}, {"name": "C13", "mass_u": 13},
                    {"name": "C14", "mass_u": 14}],
        "velocity_mps": 50.0,
        "abundances": [1.0, 0.0, 0.0],
        "total_particles": 10000,
        "seed": 21,
        "errors": {},
    }))
    return path


class TestDesignCommand:
    def test_carbon_at_100(self, carbon_file, tmp_path, capsys):
        out = tmp_path / "design.json"
        assert main(["design", str(carbon_file), "--velocity", "100",
                     "--out", str(out)]) == 0
        design = json.loads(out.read_text())
        assert design["delta_L_m"][1] == pytest.approx(1e-9, rel=0.02)
        assert "9.989" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "design.json.manifest.json").read_text())
        assert manifest["command"] == "design"
        assert manifest["parameters"]["velocity_mps"] == 100.0

    def test_carbon_at_1(self, carbon_file, tmp_path):
        out = tmp_path / "design.json"
        assert main(["design", str(carbon_file), "--velocity", "1",
                     "--out", str(out)]) == 0
        design = json.loads(out.read_text())
        assert design["delta_L_m"][1] == pytest.approx(1e-7, rel=0.02)

    def test_mmi_width_adds_coupler(self, carbon_file, tmp_path):
        out = tmp_path / "design.json"
        assert main(["design", str(carbon_file), "--velocity", "1",
                     "--mmi-width", "1e-6", "--out", str(out)]) == 0
        design = json.loads(out.read_text())
        assert design["coupler"]["ports"] == 2

    def test_incommensurable_exit_2(self, tmp_path, capsys):
        species = tmp_path / "bad.json"
        species.write_text(json.dumps([
            {"name": "a", "mass_kg": 1e-26},
            {"name": "b", "mass_kg": 1.4142135623730951e-26},
        ]))
        out = tmp_path / "design.json"
        code = main(["design", str(species), "--velocity", "1",
                     "--max-winding", "25", "--out", str(out)])
        assert code == 2
        payload = json.loads(out.read_text())
        assert payload["feasible"] is False
        # the refusal names the bound that --max-winding sets
        assert "denominator <= 50 = min(N*max_winding, 22360)" in capsys.readouterr().err

    def test_max_winding_bounds_ratio_denominators(self, tmp_path):
        # 12001/12000 needs x_1 = 6000 and a denominator of 12 000 <= N*max_winding
        species = tmp_path / "species.json"
        species.write_text(json.dumps([{"name": "a", "mass_u": 12000},
                                       {"name": "b", "mass_u": 12001}]))
        out = tmp_path / "design.json"
        assert main(["design", str(species), "--velocity", "10", "--max-winding", "10000",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["windings"][0][1] == 6000

    def test_removed_denom_bound_flag_exit_1(self, carbon_file, tmp_path, capsys):
        out = tmp_path / "design.json"
        assert main(["design", str(carbon_file), "--velocity", "10", "--denom-bound", "50",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --denom-bound 50" in err and "Traceback" not in err
        assert not list(tmp_path.glob("design.json*"))

    def test_infeasible_writes_residuals(self, tmp_path):
        species = tmp_path / "multiples.json"
        species.write_text(json.dumps([
            {"name": "a", "mass_kg": 1e-26},
            {"name": "b", "mass_kg": 2e-26},
            {"name": "c", "mass_kg": 4e-26},
        ]))
        out = tmp_path / "design.json"
        assert main(["design", str(species), "--velocity", "1",
                     "--max-winding", "50", "--out", str(out)]) == 2
        payload = json.loads(out.read_text())
        assert "paths" in payload["report"]

    def test_infeasible_names_obstruction(self, tmp_path, capsys):
        species = tmp_path / "c12_16.json"
        species.write_text(json.dumps([{"name": f"m{a}", "mass_u": a} for a in range(12, 17)]))
        out = tmp_path / "design.json"
        assert main(["design", str(species), "--velocity", "10", "--out", str(out)]) == 2
        report = json.loads(out.read_text())["report"]
        assert report["paths"]["1"]["obstruction"] == {
            "type": "congruence", "step": 1, "gcd": 5, "modulus": 60}
        err = capsys.readouterr().err
        assert err.count("no multiple x of P = 1 solves row 1, N*A_1*x = s*A_0 (mod 60): "
                         "gcd(N*A_1*P, N*A_0) = 5 does not divide s*A_0") == 4

    def test_huge_max_winding_scans_a_bounded_range(self, tmp_path):
        # A_0 = 9973 * 9967 * 9949: every path is obstructed by a congruence,
        # and the residual scan stops well before N*A_0 ~ 4e12 values of x
        species = tmp_path / "primes.json"
        species.write_text(json.dumps([{"name": f"m{k}", "mass_u": 1 + k / p}
                                       for k, p in enumerate((1, 9973, 9967, 9949))]))
        out = tmp_path / "design.json"
        proc = run_child(["design", str(species), "--velocity", "10", "--max-winding",
                          "1" + "0" * 30, "--out", str(out)], timeout=30)
        assert proc.returncode == 2, proc.stderr
        report = json.loads(out.read_text())["report"]
        x_max = report["residual_x_max"]
        assert 1 <= x_max < 9973 * 9967 * 9949
        assert set(report["paths"]) == {"1", "2", "3"}
        assert proc.stderr.count(f"rad over x <= {x_max}; no multiple x of P = ") == 3

    def test_no_x_within_the_bound_has_no_residual(self, tmp_path, capsys):
        # masses 2 and 23 u: x = 1 already winds mass 1 by 11 turns
        species = tmp_path / "species.json"
        species.write_text(json.dumps([{"name": "a", "mass_u": 2}, {"name": "b", "mass_u": 23}]))
        out = tmp_path / "design.json"
        assert main(["design", str(species), "--velocity", "10", "--max-winding", "10",
                     "--out", str(out)]) == 2
        report = json.loads(out.read_text())["report"]
        assert report["residual_x_max"] == 0
        assert report["paths"]["1"]["min_residual_rad"] is None
        assert ("path 1: no x keeps every winding within the bound; the shortest solution "
                "x = 1 needs windings up to 11") in capsys.readouterr().err

    @pytest.mark.parametrize("masses, velocity, named", [
        # h/(m*v) is below the smallest normal float
        ([{"name": "a", "mass_kg": 1e300}, {"name": "b", "mass_kg": 1.5e300}], "100",
         "underflows the float range"),
        # 2*pi*dL*m underflows at this speed; no matter wave moves at or above c
        ([{"name": f"C{a}", "mass_u": a} for a in (12, 13, 14)], "1e290", "below c"),
    ])
    def test_unrepresentable_phases_exit_1(self, tmp_path, capsys, masses, velocity, named):
        species = tmp_path / "species.json"
        species.write_text(json.dumps(masses))
        out = tmp_path / "design.json"
        assert main(["design", str(species), "--velocity", velocity, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not list(tmp_path.glob("design.json*"))

    @pytest.mark.parametrize("flag", ["--max-winding"])
    def test_bound_below_one_exit_1(self, carbon_file, tmp_path, capsys, flag):
        out = tmp_path / "design.json"
        assert main(["design", str(carbon_file), "--velocity", "10", flag, "0",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "at least 1" in err and "Traceback" not in err
        assert not out.exists()

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["design", str(tmp_path / "nope.json"), "--velocity", "1",
                     "--out", str(tmp_path / "x.json")]) == 1

    def test_malformed_json_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["design", str(bad), "--velocity", "1",
                     "--out", str(tmp_path / "x.json")]) == 1

    @pytest.mark.parametrize("velocity", ["nan", "inf", "-inf"])
    def test_non_finite_velocity_exit_1(self, carbon_file, tmp_path, capsys, velocity):
        out = tmp_path / "design.json"
        assert main(["design", str(carbon_file), f"--velocity={velocity}",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "velocity" in err and "Traceback" not in err
        assert not out.exists()

    def test_overflowing_mass_ratio_exit_1(self, tmp_path, capsys):
        species = tmp_path / "species.json"
        species.write_text(json.dumps(OVERFLOWING_SPECIES))
        out = tmp_path / "design.json"
        assert main(["design", str(species), "--velocity", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "species 'b'" in err and "overflows" in err and "Traceback" not in err
        assert not out.exists()

    def test_underflowing_mass_ratio_exit_1(self, tmp_path, capsys):
        species = tmp_path / "species.json"
        species.write_text(json.dumps(OVERFLOWING_SPECIES[::-1]))
        out = tmp_path / "design.json"
        assert main(["design", str(species), "--velocity", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "species 'a'" in err and "underflows" in err and "Traceback" not in err
        assert not out.exists()


class TestVerifyCommand:
    def test_valid_design(self, carbon_file, tmp_path):
        out = tmp_path / "design.json"
        main(["design", str(carbon_file), "--velocity", "100", "--out", str(out)])
        assert main(["verify", str(out)]) == 0

    def test_corrupted_design_fails(self, carbon_file, tmp_path):
        out = tmp_path / "design.json"
        main(["design", str(carbon_file), "--velocity", "100", "--out", str(out)])
        data = json.loads(out.read_text())
        data["delta_L_m"][1] *= 1.01
        out.write_text(json.dumps(data))
        assert main(["verify", str(out)]) == 2

    def test_wrong_winding_invalid(self, tmp_path, capsys):
        species = tmp_path / "species.json"
        species.write_text(json.dumps([{"name": f"C{a}", "mass_u": a} for a in (12, 13, 14)]))
        path = tmp_path / "design.json"
        assert main(["design", str(species), "--velocity", "100", "--out", str(path)]) == 0
        data = json.loads(path.read_text())
        data["windings"][1][2] -= 1
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert "design valid" not in captured.out
        assert "design INVALID" in captured.err and "Traceback" not in captured.err
        # residual [1][2], printed to 4 digits, is off by one turn
        residual = float(captured.out.splitlines()[2].split()[2])
        assert abs(abs(residual) - 2 * math.pi) < 1e-3

    # a wrong winding leaves a residual of at least pi, which a tolerance of pi accepts
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "3.2", "1e300"])
    def test_bad_phase_tol_exit_1(self, carbon_file, tmp_path, capsys, tol):
        out = tmp_path / "design.json"
        main(["design", str(carbon_file), "--velocity", "100", "--out", str(out)])
        capsys.readouterr()
        assert main(["verify", str(out), f"--phase-tol={tol}"]) == 1
        err = capsys.readouterr().err
        assert "--phase-tol" in err and "Traceback" not in err

    @pytest.mark.parametrize("change, named", [
        ({"velocity_mps": float("nan")}, "velocity_mps"),
        ({"delta_L_m": [0.0, float("nan")]}, "delta_L_m[1]"),
        ({"delta_L_m": [0.0, float("inf")]}, "delta_L_m[1]"),
        ({"delta_L_m": [0.0]}, "delta_L_m"),
        ({"species": [{"name": "C12", "mass_u": [12]}, {"name": "C14", "mass_u": 14}]},
         "mass_u"),
        ({"coupler": {"width_m": 1e-6, "length_m": 1e-5, "ports": 5}}, "coupler.ports"),
        ({"windings": [[0, 10**400], [0, 0]]}, "windings"),
        ({"velocity_mps": 3e8}, "below c"),
        # mass_kg was read and mass_u dropped: the design was reported valid
        ({"species": [{"name": "C12", "mass_kg": M_C12},
                      {"name": "C14", "mass_kg": M_C12 * 7 / 6, "mass_u": 99}]}, "mass_u"),
    ])
    def test_bad_design_field_exit_1(self, carbon_file, tmp_path, capsys, change, named):
        path = tmp_path / "design.json"
        main(["design", str(carbon_file), "--velocity", "100", "--out", str(path)])
        data = json.loads(path.read_text())
        data.update(change)
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", str(path)]) == 1
        err = capsys.readouterr().err
        assert named in err and str(path) in err and "Traceback" not in err

    def test_short_delta_l_three_species_exit_1(self, tmp_path, capsys):
        species = tmp_path / "species.json"
        species.write_text(json.dumps([{"name": f"m{a}", "mass_u": a} for a in (12, 13, 14)]))
        path = tmp_path / "design.json"
        main(["design", str(species), "--velocity", "50", "--out", str(path)])
        data = json.loads(path.read_text())
        data["delta_L_m"] = data["delta_L_m"][:2]
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", str(path)]) == 1
        err = capsys.readouterr().err
        assert "delta_L_m must be a list of 3" in err and "broadcast" not in err

    def test_empty_design_names_missing_keys(self, tmp_path, capsys):
        path = tmp_path / "design.json"
        path.write_text("{}")
        assert main(["verify", str(path)]) == 1
        assert "velocity_mps, species, delta_L_m, windings" in capsys.readouterr().err

    def test_nan_residual_is_invalid(self, tmp_path, capsys):
        # m * v overflows below c, so the path phases would not be finite: refused at
        # load, never "design valid" (a numpy warning would fail the test, as any does)
        path = tmp_path / "design.json"
        path.write_text(json.dumps({
            "velocity_mps": 2e8, "delta_L_m": [0.0, 1e-9], "windings": [[0, 0], [0, 0]],
            "species": [{"name": "a", "mass_kg": 1e300}, {"name": "b", "mass_kg": 2e300}],
        }))
        assert main(["verify", str(path)]) == 1
        captured = capsys.readouterr()
        assert "design valid" not in captured.out and "INVALID" not in captured.err
        assert "path phases" in captured.err and "mass_kg" in captured.err

    def test_overflowing_residual_invalid_without_warning(self, tmp_path):
        # path phase -1.5e308 rad and 2*pi*n_11 = +1.26e308 both pass the load checks,
        # but their difference overflows: -inf, INVALID, with no numpy warning
        mass = 13 * ATOMIC_MASS_KG
        path = tmp_path / "design.json"
        path.write_text(json.dumps({
            "velocity_mps": 50.0,
            "delta_L_m": [0.0, -1.5e308 * PLANCK_H / (2 * math.pi * mass * 50.0)],
            "windings": [[0, 0], [0, 2 * 10**307]],
            "species": [{"name": "C12", "mass_kg": 12 * ATOMIC_MASS_KG},
                        {"name": "C13", "mass_kg": mass}],
        }))
        proc = run_child(["verify", str(path)])
        assert proc.returncode == 2, proc.stderr
        assert "-inf" in proc.stdout and "design valid" not in proc.stdout
        assert "design INVALID" in proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr

    def test_nan_residual_fails_the_check(self, carbon_file, tmp_path, capsys, monkeypatch):
        # no loaded design yields a NaN residual, but one would fail wherever it stands
        path = tmp_path / "design.json"
        main(["design", str(carbon_file), "--velocity", "100", "--out", str(path)])
        capsys.readouterr()
        monkeypatch.setattr(cli, "verify_design",
                            lambda design: ((0.0, 0.0), (math.nan, 1e-12)))
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert "max |residual| = nan rad" in captured.out
        assert "design valid" not in captured.out and "design INVALID" in captured.err

    @pytest.mark.parametrize("payload", [[1, 2], 5, "design", None])
    def test_non_object_design_exit_1(self, tmp_path, capsys, payload):
        path = tmp_path / "listed.json"
        path.write_text(json.dumps(payload))
        assert main(["verify", str(path)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err


class TestSweepCommand:
    def test_single_origin_point(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--delta1-range", "0,0", "--delta2-range", "0,0",
                     "--steps", "1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta1_rad,delta2_rad,p00"
        assert float(lines[1].split(",")[2]) == pytest.approx(1.0, abs=1e-12)

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--ratios", "1,1.1667,1.3333",
                "--delta1-range=-0.4,0.4", "--delta2-range=-0.4,0.4",
                "--steps", "11"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_range_exit_1(self, tmp_path):
        assert main(["sweep", "--delta1-range", "1,0", "--delta2-range", "0,0",
                     "--out", str(tmp_path / "s.csv")]) == 1

    def test_bad_ratio_count_exit_1(self, tmp_path):
        assert main(["sweep", "--ratios", "1,2", "--delta1-range", "0,0",
                     "--delta2-range", "0,0", "--out", str(tmp_path / "s.csv")]) == 1

    def test_n_option_removed(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--n", "3", "--delta1-range", "0,0", "--delta2-range", "0,0",
                     "--out", str(out)]) == 1
        assert "--n" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_n_follows_ratios(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--ratios", "1,1.5,2", "--delta1-range", "0,0",
                     "--delta2-range", "0,0", "--steps", "1", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert manifest["parameters"]["n"] == 3

    def test_non_finite_ratio_exit_1(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--ratios", "1,nan,1", "--delta1-range", "0,0",
                     "--delta2-range", "0,0", "--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ratios, delta1, message", [
        ("1,1e308,1.2", "-1e10,1e10", "overflow"),   # (m_k/m_0) * delta is inf
        ("1,-1.1,1.2", "-0.1,0.1", "positive"),
        ("1,0,1.2", "-0.1,0.1", "positive"),
    ])
    def test_bad_phase_grid_exit_1(self, tmp_path, ratios, delta1, message):
        out = tmp_path / "s.csv"
        proc = run_child(["sweep", "--ratios", ratios, f"--delta1-range={delta1}",
                          "--delta2-range=-0.1,0.1", "--steps", "2", "--full",
                          "--out", str(out)])
        assert proc.returncode == 1, proc.stderr
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert not out.exists()

    def test_out_of_memory_exit_1(self, tmp_path):
        # a 100000 x 100000 grid needs 75 GiB per array
        out = tmp_path / "x.csv"
        proc = run_under_4gib(["sweep", "--delta1-range", "0,1", "--delta2-range", "0,1",
                               "--steps", "100000", "--out", str(out)])
        assert proc.returncode == 1, proc.stderr
        assert "out of memory" in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()


class TestMonteCarloCommand:
    def test_runs_and_reproduces(self, carbon_file, tmp_path):
        design = tmp_path / "design.json"
        main(["design", str(carbon_file), "--velocity", "100", "--out", str(design)])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["montecarlo", str(design), "--sigma-l", "1e-11",
                "--trials", "50", "--seed", "4"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert len(payload["diagonal_mean"]) == 2

    def test_negative_seed_names_flag(self, carbon_file, tmp_path, capsys):
        design = tmp_path / "design.json"
        main(["design", str(carbon_file), "--velocity", "100", "--out", str(design)])
        out = tmp_path / "mc.json"
        capsys.readouterr()
        assert main(["montecarlo", str(design), "--sigma-l", "1e-10", "--seed", "-1",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err
        assert not out.exists()

    def test_overflowing_heavy_species_phases_exit_1(self, tmp_path, capsys):
        # the base phase errors at 1e296 m are finite, (m_1/m_0) * base is not
        species = tmp_path / "species.json"
        species.write_text(json.dumps([{"name": "a", "mass_u": 2},
                                       {"name": "b", "mass_u": 1000001}]))
        design = tmp_path / "design.json"
        assert main(["design", str(species), "--velocity", "50", "--max-winding", "1000000",
                     "--out", str(design)]) == 0
        out = tmp_path / "mc.json"
        capsys.readouterr()
        assert main(["montecarlo", str(design), "--sigma-l", "1e296", "--trials", "20",
                     "--out", str(out)]) == 1
        assert "phase errors must be finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("mc.json*"))

    def test_out_of_memory_exit_1(self, carbon_file, tmp_path):
        # the draws of 1e11 trials need 1.5 TiB, refused before the first one
        design = tmp_path / "design.json"
        main(["design", str(carbon_file), "--velocity", "100", "--out", str(design)])
        out = tmp_path / "mc.json"
        proc = run_under_4gib(["montecarlo", str(design), "--sigma-l", "1e-10",
                               "--trials", "100000000000", "--out", str(out)])
        assert proc.returncode == 1, proc.stderr
        assert "out of memory" in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()


class TestMonteCarloBadDesign:
    def test_nan_velocity_exit_1(self, carbon_file, tmp_path, capsys):
        design = tmp_path / "design.json"
        main(["design", str(carbon_file), "--velocity", "100", "--out", str(design)])
        data = json.loads(design.read_text())
        data["velocity_mps"] = float("nan")
        design.write_text(json.dumps(data))
        out = tmp_path / "mc.json"
        capsys.readouterr()
        assert main(["montecarlo", str(design), "--sigma-l", "1e-11", "--trials", "5",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "velocity_mps" in err and "Traceback" not in err
        assert not out.exists()


class TestSimulateCommand:
    def test_pure_species_zero_error(self, experiment_file, tmp_path):
        out = tmp_path / "results.json"
        assert main(["simulate", str(experiment_file), "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["counts"] == [10000, 0, 0]

    def test_same_seed_identical_bytes(self, experiment_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["simulate", str(experiment_file), "--out", str(a)]) == 0
        assert main(["simulate", str(experiment_file), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dimension_mismatch_exit_1(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({
            "species": [{"name": "a", "mass_u": 12}],
            "velocity_mps": 1.0, "abundances": [0.5, 0.5],
            "total_particles": 10, "seed": 0,
        }))
        assert main(["simulate", str(config), "--out", str(tmp_path / "r.json")]) == 1

    def test_nan_phase_error_exit_1(self, tmp_path, capsys):
        config = tmp_path / "nan.json"
        config.write_text(json.dumps({
            "species": [{"name": "a", "mass_u": 12}, {"name": "b", "mass_u": 13}],
            "velocity_mps": 1.0, "abundances": [0.5, 0.5],
            "total_particles": 10, "seed": 0,
            "errors": {"delta_phi_rad": [float("nan")]},
        }))
        out = tmp_path / "r.json"
        assert main(["simulate", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err
        assert not out.exists()


    @pytest.mark.parametrize("change, named", [
        ({"velocity_mps": None}, "velocity_mps"),
        ({"total_particles": 1.5}, "total_particles"),
        ({"seed": 1.7}, "seed"),
        ({"species": 5}, "species"),
        ({"abundances": {"a": 1}}, "abundances"),
        ({"abundances": [1.0, float("nan"), 0.0]}, "abundances[1]"),
        ({"errors": {"delta_phi_rad": [[0.1]]}}, "errors.delta_phi_rad[0]"),
        ({"errors": {"sigma_L_m": -1}}, "errors.sigma_L_m"),
        ({"errors": []}, "errors"),
        ({"seed": -1}, "seed"),
        ({"total_particles": 10**30}, "particles"),
        ({"species": [{"name": "C12", "mass_u": [12]}, {"name": "C13", "mass_u": 13},
                      {"name": "C14", "mass_u": 14}]}, "mass_u"),
        ({"velocity_mps": 1e300}, "below c"),
        ({"errors": {"sigma_l_m": 1e-10}}, "unknown key 'sigma_l_m'"),
        ({"errors": {"delta_phi_rad": [0.1, 0.2], "sigma_L_m": 1e-10}}, "not both"),
        ({"error": {"delta_phi_rad": [0.1, 0.2]}}, "unknown key 'error'"),  # typo of errors
        ({"species": [{"name": "C12", "mass_u": 12, "charge_e": 1}, {"name": "C13", "mass_u": 13},
                      {"name": "C14", "mass_u": 14}]}, "unknown key 'charge_e'"),
    ])
    def test_bad_config_exit_1(self, experiment_file, tmp_path, capsys, change, named):
        config = json.loads(experiment_file.read_text())
        config.update(change)
        config = {k: v for k, v in config.items() if v is not None}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "r.json"
        assert main(["simulate", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    def test_repeated_key_exit_1(self, experiment_file, tmp_path, capsys):
        # json.loads would keep the second seed silently
        path = tmp_path / "repeated.json"
        path.write_text(experiment_file.read_text()[:-1] + ', "seed": 22}')
        out = tmp_path / "r.json"
        assert main(["simulate", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "repeats key 'seed'" in err and "Traceback" not in err
        assert not list(tmp_path.glob("r.json*"))


class TestAmsCompareCommand:
    def test_table_and_output(self, carbon_file, tmp_path, capsys):
        out = tmp_path / "ams.json"
        assert main(["ams-compare", str(carbon_file), "--velocity", "1e5",
                     "--b-field", "1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["species"][1]["delta_R_vs_first_m"] == pytest.approx(
            2.07e-3, rel=1e-3)
        assert "R =" in capsys.readouterr().out

    def test_zero_charge_exit_1(self, carbon_file, tmp_path):
        assert main(["ams-compare", str(carbon_file), "--velocity", "1e5",
                     "--charge-e", "0"]) == 1

    @pytest.mark.parametrize("flags", [["--velocity=nan"], ["--velocity=1e5", "--b-field=inf"],
                                       ["--velocity=1e5", "--charge-e=nan"]])
    def test_non_finite_input_exit_1(self, carbon_file, tmp_path, capsys, flags):
        out = tmp_path / "ams.json"
        assert main(["ams-compare", str(carbon_file), *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err
        assert not out.exists()

    def test_underflowing_field_times_charge_exit_1(self, carbon_file, tmp_path, capsys):
        # q*B = 1.6e-19 C * 1e-320 T underflows to 0, and m*v / (q*B) divided by it
        out = tmp_path / "ams.json"
        assert main(["ams-compare", str(carbon_file), "--velocity", "1e5",
                     "--b-field", "1e-320", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "q*B underflows to 0" in err and "Traceback" not in err
        assert not list(tmp_path.glob("ams.json*"))

    def test_underflowing_radius_exit_1(self, carbon_file, tmp_path, capsys):
        # m*v = 2e-26 kg * 1e-320 m/s underflows to 0, and the radius with it
        out = tmp_path / "ams.json"
        assert main(["ams-compare", str(carbon_file), "--velocity", "1e-320",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "m*v / (q*B) underflows to 0" in err and "Traceback" not in err
        assert not list(tmp_path.glob("ams.json*"))

    def test_underflowing_charge_exit_1(self, carbon_file, tmp_path, capsys):
        # 1e-320 * 1.6e-19 C underflows to 0: not a neutral species
        out = tmp_path / "ams.json"
        assert main(["ams-compare", str(carbon_file), "--velocity", "1e5",
                     "--charge-e", "1e-320", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--charge-e 1e-320" in err and "underflows to 0" in err
        assert "neutral" not in err
        assert not list(tmp_path.glob("ams.json*"))

    def test_infinite_radius_exit_1(self, tmp_path, capsys):
        species = tmp_path / "species.json"
        species.write_text(json.dumps(OVERFLOWING_SPECIES))
        out = tmp_path / "ams.json"
        assert main(["ams-compare", str(species), "--velocity", "1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "overflows" in captured.err and "Traceback" not in captured.err
        assert "inf" not in captured.out
        assert not out.exists()


class TestBadSpeciesFile:
    @pytest.mark.parametrize("command, flags", [
        ("design", ["--velocity", "100"]),
        ("ams-compare", ["--velocity", "1e5"]),
    ])
    def test_list_mass_exit_1(self, tmp_path, capsys, command, flags):
        species = tmp_path / "species.json"
        species.write_text(json.dumps([{"name": "a", "mass_u": [12]}, {"name": "b", "mass_u": 13}]))
        out = tmp_path / "out.json"
        assert main([command, str(species), *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "mass_u" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("design", ["--velocity", "100"]),
        ("ams-compare", ["--velocity", "1e5", "--b-field", "1"]),
    ])
    def test_both_mass_units_exit_1(self, tmp_path, capsys, command, flags):
        # mass_kg was read and mass_u dropped: a 1e-20 kg species labelled 14 u
        species = tmp_path / "species.json"
        species.write_text(json.dumps([{"name": "C12", "mass_u": 12},
                                       {"name": "C14", "mass_u": 14, "mass_kg": 1e-20}]))
        out = tmp_path / "out.json"
        assert main([command, str(species), *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "mass_u" in err and "Traceback" not in err
        assert not list(tmp_path.glob("out.json*"))

    @pytest.mark.parametrize("command, flags", [
        ("design", ["--velocity", "100"]),
        ("ams-compare", ["--velocity", "1e5", "--b-field", "1"]),
    ])
    def test_repeated_mass_key_exit_1(self, tmp_path, capsys, command, flags):
        # json.loads keeps the last value: C12's radius was printed for 99 u
        species = tmp_path / "species.json"
        species.write_text('[{"name": "C12", "mass_u": 12, "mass_u": 99}, '
                           '{"name": "C13", "mass_u": 13}]')
        out = tmp_path / "out.json"
        assert main([command, str(species), *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "repeats key 'mass_u'" in err and "Traceback" not in err
        assert not list(tmp_path.glob("out.json*"))


# --- fuzzing: one field of a valid input file replaced by a bad value ---------

FUZZ_VALUES = [None, True, "x", [], {}, [[0.1]], math.nan, math.inf, -math.inf, -1, 0,
               1e300, -1e300, 1.7e308]
FUZZ_SPECIES = [{"name": "C12", "mass_u": 12}, {"name": "C13", "mass_u": 13},
                {"name": "C14", "mass_u": 14}]


def _fuzz_documents():
    """(document, commands) for each input file kind; a command is argv with
    {file} and {out} placeholders."""
    with tempfile.TemporaryDirectory() as base:
        species_path = Path(base) / "species.json"
        species_path.write_text(json.dumps(FUZZ_SPECIES))
        design_path = Path(base) / "design.json"
        assert main(["design", str(species_path), "--velocity", "50", "--mmi-width", "1e-6",
                     "--out", str(design_path)]) == 0
        design = json.loads(design_path.read_text())
    config = {"species": FUZZ_SPECIES, "velocity_mps": 50.0, "abundances": [0.5, 0.3, 0.2],
              "total_particles": 2000, "seed": 3}
    return {
        "species": (FUZZ_SPECIES, [["design", "{file}", "--velocity", "50", "--out", "{out}"],
                                   ["ams-compare", "{file}", "--velocity", "1e5",
                                    "--out", "{out}"]]),
        "design": (design,
                   [["verify", "{file}"],
                    ["montecarlo", "{file}", "--sigma-l", "1e-10", "--trials", "20",
                     "--out", "{out}"]]),
        "config_phi": ({**config, "errors": {"delta_phi_rad": [0.1, -0.2]}},
                       [["simulate", "{file}", "--out", "{out}"]]),
        "config_sigma": ({**config, "errors": {"sigma_L_m": 1e-10}},
                         [["simulate", "{file}", "--out", "{out}"]]),
    }


FUZZ_DOCUMENTS = _fuzz_documents()


def _field_paths(doc, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _field_paths(value, prefix + (key,))


FUZZ_TARGETS = [(kind, path) for kind, (doc, _) in FUZZ_DOCUMENTS.items()
                for path in _field_paths(doc)]


def _replaced(doc, path, value):
    if not path:
        return copy.deepcopy(value)
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = copy.deepcopy(value)
    return doc


@pytest.mark.parametrize("kind, path, value, message", [
    ("config_sigma", ("errors", "sigma_L_m"), 1e300, "base phase errors must be finite"),
    ("config_phi", ("errors", "delta_phi_rad", 0), 1.7e308, "phase errors must be finite"),
    ("design", ("species", 1, "mass_kg"), 1e300, "path phases"),
    ("design", ("delta_L_m", 2), 1.7e308, "path phases"),
], ids=["sigma_L_m", "delta_phi_rad", "mass_kg", "delta_L_m"])
def test_overflowing_phases_exit_1_without_warning(tmp_path, kind, path, value, message):
    # in a child process, whose real stderr shows any numpy warning
    doc, commands = FUZZ_DOCUMENTS[kind]
    file = tmp_path / "input.json"
    file.write_text(json.dumps(_replaced(doc, path, value)))
    out = tmp_path / "out.json"
    for command in commands:
        proc = run_child([str(file) if a == "{file}" else str(out) if a == "{out}" else a
                          for a in command])
        assert proc.returncode == 1, (command, proc.stderr)
        assert message in proc.stderr, command
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr, command
        assert not list(tmp_path.glob("out.json*")), command


@settings(deadline=None, max_examples=300)
@given(target=st.sampled_from(FUZZ_TARGETS), value=st.sampled_from(FUZZ_VALUES))
def test_fuzzed_input_file_never_escapes(target, value):
    kind, path = target
    doc, commands = FUZZ_DOCUMENTS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "input.json"
        file.write_text(json.dumps(_replaced(doc, path, value)))
        for command in commands:
            out = Path(tmp) / f"{command[0]}.out"
            argv = [str(file) if a == "{file}" else str(out) if a == "{out}" else a
                    for a in command]
            code = main(argv)  # any exception escaping main fails the test
            assert code in (0, 1, 2), (argv, code)
            if code == 1:
                assert not out.exists(), argv
            elif out.exists():
                text = out.read_text()
                assert "NaN" not in text and "Infinity" not in text, (argv, path, value)


# every key that some input object takes; any other key in any object exits 1
KNOWN_KEYS = {"name", "mass_kg", "mass_u", "n", "velocity_mps", "species", "delta_L_m",
              "windings", "coupler", "width_m", "length_m", "ports", "abundances",
              "total_particles", "seed", "errors", "delta_phi_rad", "sigma_L_m"}


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


OBJECT_TARGETS = [(kind, path) for kind, path in FUZZ_TARGETS
                  if isinstance(_at(FUZZ_DOCUMENTS[kind][0], path), dict)]


@settings(deadline=None, max_examples=200)
@given(target=st.sampled_from(OBJECT_TARGETS),
       key=st.text(min_size=1, max_size=12).filter(lambda k: k not in KNOWN_KEYS),
       value=st.sampled_from(FUZZ_VALUES + [1.0]))
def test_unknown_key_in_input_object_exit_1(target, key, value):
    kind, path = target
    doc, commands = FUZZ_DOCUMENTS[kind]
    doc = copy.deepcopy(doc)
    _at(doc, path)[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "input.json"
        file.write_text(json.dumps(doc))
        for command in commands:
            out = Path(tmp) / f"{command[0]}.out"
            argv = [str(file) if a == "{file}" else str(out) if a == "{out}" else a
                    for a in command]
            assert main(argv) == 1, (argv, path, key)
            assert not list(Path(tmp).glob(out.name + "*")), argv


@settings(deadline=None, max_examples=200)
@given(target=st.sampled_from(OBJECT_TARGETS), index=st.integers(0, 10),
       value=st.sampled_from(FUZZ_VALUES + [1.0, "same"]))
def test_repeated_key_in_input_object_exit_1(target, index, value):
    # one of the object's own keys once more, with its own value ("same") or another;
    # a dict cannot hold it, so a marker key is written and renamed in the text
    kind, path = target
    doc, commands = FUZZ_DOCUMENTS[kind]
    doc = copy.deepcopy(doc)
    obj = _at(doc, path)
    key = list(obj)[index % len(obj)]
    obj["\0repeat"] = obj[key] if value == "same" else value
    text = json.dumps(doc).replace(json.dumps("\0repeat"), json.dumps(key))
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "input.json"
        file.write_text(text)
        for command in commands:
            out = Path(tmp) / f"{command[0]}.out"
            argv = [str(file) if a == "{file}" else str(out) if a == "{out}" else a
                    for a in command]
            assert main(argv) == 1, (argv, path, key)
            assert not list(Path(tmp).glob(out.name + "*")), argv


# --- fuzzing: one numeric flag of a command set to a bad value -------------

FLAG_FUZZ_VALUES = ["nan", "inf", "-inf", "0", "-1", "-1e300", "1e-320", "1e300", str(10**30)]
FLAG_FUZZ_SPECIES = {
    "feasible": FUZZ_SPECIES,
    "infeasible": [{"name": f"m{a}", "mass_u": a} for a in range(12, 17)],
    "non_commensurable": [{"name": "a", "mass_u": 1.0}, {"name": "b", "mass_u": math.sqrt(2)}],
}
FLAG_FUZZ_DEFAULTS = {"--velocity": "50", "--mmi-width": "1e-6"}
# the other commands: input file ("design" or "species", or None) and
# numeric flags at small defaults, so that every run takes milliseconds
FLAG_FUZZ_COMMANDS = {
    "verify": ("design", {"--phase-tol": "1e-9"}),
    "sweep": (None, {"--steps": "3", "--delta1-range": "-0.1,0.1",
                     "--delta2-range": "-0.1,0.1"}),
    "montecarlo": ("design", {"--sigma-l": "1e-11", "--trials": "5", "--seed": "0"}),
    "ams-compare": ("species", {"--velocity": "1e5", "--b-field": "1", "--charge-e": "1"}),
}


def run_fuzzed_flags(argv, out) -> int:
    """Run the CLI in process and check what it leaves: exit 0, 1 or 2, no
    file on exit 1, and no non-finite number in any file it writes."""
    code = main(argv)  # any exception escaping main fails the test
    assert code in (0, 1, 2), (argv, code)
    written = sorted(out.parent.glob(out.name + "*"))
    if code == 1:
        assert not written, argv
    for path in written:
        text = path.read_text()
        if path.suffix == ".csv":
            cells = [c for row in text.splitlines()[1:] for c in row.split(",")]
            assert all(math.isfinite(float(c)) for c in cells), (argv, path.name)
        else:
            assert "NaN" not in text and "Infinity" not in text, (argv, path.name)
    return code


@settings(deadline=None, max_examples=300)
@given(species=st.sampled_from(sorted(FLAG_FUZZ_SPECIES)),
       flag=st.sampled_from(["--velocity", "--mmi-width", "--max-winding"]),
       value=st.sampled_from(FLAG_FUZZ_VALUES))
def test_fuzzed_design_flag_never_escapes(species, flag, value):
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "species.json"
        file.write_text(json.dumps(FLAG_FUZZ_SPECIES[species]))
        out = Path(tmp) / "design.json"
        flags = {**FLAG_FUZZ_DEFAULTS, flag: value}
        argv = ["design", str(file), "--out", str(out),
                *(f"{name}={v}" for name, v in flags.items())]
        if run_fuzzed_flags(argv, out) == 0:
            assert main(["verify", str(out)]) == 0, argv  # what design writes, verify accepts


def _flag_fuzz_cases():
    for command, (_, defaults) in FLAG_FUZZ_COMMANDS.items():
        for flag in defaults:
            for v in FLAG_FUZZ_VALUES:
                # a range flag takes the value at either end, or at both
                forms = [f"{v},1", f"-1,{v}", f"{v},{v}"] if flag.endswith("-range") else [v]
                for value in forms:
                    yield command, flag, value


@pytest.mark.parametrize("command, flag, value", list(_flag_fuzz_cases()))
def test_fuzzed_flag_never_escapes(tmp_path, command, flag, value):
    species = tmp_path / "species.json"
    species.write_text(json.dumps(FUZZ_SPECIES))
    design = tmp_path / "design.json"
    assert main(["design", str(species), "--velocity", "50", "--out", str(design)]) == 0
    source, defaults = FLAG_FUZZ_COMMANDS[command]
    out = tmp_path / f"{command}.{'csv' if command == 'sweep' else 'json'}"
    argv = [command, *([str(tmp_path / f"{source}.json")] if source else []),
            *(["--out", str(out)] if command != "verify" else []),
            *(f"{name}={v}" for name, v in {**defaults, flag: value}.items())]
    run_fuzzed_flags(argv, out)


ONE_SPECIES = [{"name": "C12", "mass_kg": M_C12}]
ONE_SPECIES_DESIGN = {"velocity_mps": 100.0, "species": ONE_SPECIES, "delta_L_m": [0.0],
                      "windings": [[0]]}


@pytest.mark.parametrize("command, source, flags", [
    ("design", ONE_SPECIES, ["--velocity", "100"]),
    ("verify", ONE_SPECIES_DESIGN, []),
    ("montecarlo", ONE_SPECIES_DESIGN, ["--sigma-l", "1e-11"]),
    ("simulate", {"species": ONE_SPECIES, "velocity_mps": 100.0, "abundances": [1.0],
                  "total_particles": 100, "seed": 0}, []),
])
def test_one_species_exit_1(tmp_path, capsys, command, source, flags):
    # every command that sorts refuses what design refuses to write
    path = tmp_path / "one.json"
    path.write_text(json.dumps(source))
    out = tmp_path / "out.json"
    assert main([command, str(path), *flags,
                 *(["--out", str(out)] if command != "verify" else [])]) == 1
    err = capsys.readouterr().err
    named = "config key 'species'" if command == "simulate" else "species"
    assert f"{named}: sorting needs at least 2 species, got 1" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("out.json*"))


class TestHelpAndUsage:
    @pytest.mark.parametrize("command", [
        "design", "verify", "sweep", "montecarlo", "simulate", "ams-compare"])
    def test_help_documents_units(self, command, capsys):
        assert main([command, "--help"]) == 0
        text = capsys.readouterr().out
        assert any(unit in text for unit in ("m/s", "rad", "kg", " m", "in m"))

    def test_unknown_command_exit_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_exit_1(self, carbon_file, capsys):
        assert main(["design", str(carbon_file)]) == 1
