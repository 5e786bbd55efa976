import json

import pytest

from interfsort.cli import main

M_C12 = 1.99e-26


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
                     "--denom-bound", "50", "--out", str(out)])
        assert code == 2
        payload = json.loads(out.read_text())
        assert payload["feasible"] is False

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
            "type": "congruence", "k": 1, "gcd": 5, "modulus": 60}
        err = capsys.readouterr().err
        assert err.count("row k = 1 has no solution: gcd(N*A_k, N*A_0) = 5") == 4

    @pytest.mark.parametrize("flag", ["--max-winding", "--denom-bound"])
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

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_phase_tol_exit_1(self, carbon_file, tmp_path, capsys, tol):
        out = tmp_path / "design.json"
        main(["design", str(carbon_file), "--velocity", "100", "--out", str(out)])
        capsys.readouterr()
        assert main(["verify", str(out), f"--phase-tol={tol}"]) == 1
        assert "--phase-tol" in capsys.readouterr().err

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

    def test_non_finite_ratio_exit_1(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--ratios", "1,nan,1", "--delta1-range", "0,0",
                     "--delta2-range", "0,0", "--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
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
