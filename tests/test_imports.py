"""The import graph: which commands load numpy, and the package's public names."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import interfsort
from interfsort import ams, constants, design, gates, leakage, spectrum

ROOT = Path(__file__).resolve().parents[1]
MODULES = (ams, constants, design, gates, leakage, spectrum)


def imported_names(args, cwd):
    """Run `python -X importtime <args>`; return the process and the modules it imported."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=cwd,
                          capture_output=True, text=True, env=env, timeout=120)
    return proc, [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                  if line.startswith("import time:")]


def run_importtime(args, cwd):
    """Run `python -X importtime <args>`; return the process and whether numpy was imported."""
    proc, names = imported_names(args, cwd)
    return proc, any(name == "numpy" or name.startswith("numpy.") for name in names)


@pytest.mark.parametrize("statement", ["import interfsort", "import interfsort.cli"])
def test_import_loads_no_numpy(statement, tmp_path):
    proc, numpy_loaded = run_importtime(["-c", statement], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert not numpy_loaded


def test_cli_import_loads_every_timed_module(tmp_path):
    # perfbench/run.py times these modules under `import interfsort.cli`, and
    # fails after the whole workload if one of them is not imported there
    proc, names = imported_names(["-c", "import interfsort.cli"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    for module in ("gates", "design", "leakage", "spectrum", "cli"):
        assert f"interfsort.{module}" in names, module


def test_only_the_lazy_module_imports_numpy():
    importers = []
    for path in sorted((ROOT / "src" / "interfsort").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            if any(m == "numpy" or m.startswith("numpy.") for m in modules):
                importers.append(path.name)
    assert importers == ["_np.py"]


def test_cold_commands_load_numpy_only_for_arrays(tmp_path):
    species = tmp_path / "species.json"
    species.write_text(json.dumps([{"name": f"C{a}", "mass_u": a} for a in (12, 13, 14)]))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "species": [{"name": "C12", "mass_u": 12}, {"name": "C13", "mass_u": 13}],
        "velocity_mps": 50.0, "abundances": [0.5, 0.5], "total_particles": 1000,
        "seed": 0, "errors": {"delta_phi_rad": [0.1]}}))
    cli = ["-m", "interfsort.cli"]
    without_numpy = [
        ["design", str(species), "--velocity", "100", "--mmi-width", "1e-6",
         "--out", "design.json"],
        ["ams-compare", str(species), "--velocity", "1e5", "--out", "ams.json"],
    ]
    with_numpy = [
        ["verify", "design.json"],
        ["sweep", "--delta1-range", "0,0.1", "--delta2-range", "0,0.1", "--steps", "3",
         "--out", "sweep.csv"],
        ["montecarlo", "design.json", "--sigma-l", "1e-11", "--trials", "5",
         "--out", "mc.json"],
        ["simulate", str(config), "--out", "sim.json"],
    ]
    for argv in without_numpy + with_numpy:
        proc, numpy_loaded = run_importtime(cli + argv, tmp_path)
        assert proc.returncode == 0, (argv[0], proc.stderr[-2000:])
        assert numpy_loaded == (argv in with_numpy), argv[0]


def test_public_names_resolve_to_their_modules():
    assert len(set(interfsort.__all__)) == len(interfsort.__all__)
    for name in interfsort.__all__:
        obj = getattr(interfsort, name)
        homes = [m.__name__ for m in MODULES if vars(m).get(name) is obj]
        assert homes, name
        # a class or function is exported from the module that defines it
        assert getattr(obj, "__module__", homes[0]) in homes, name
    assert set(interfsort.__all__) <= set(dir(interfsort))


def test_submodule_and_unknown_names():
    from interfsort import spectrum as imported

    assert imported is sys.modules["interfsort.spectrum"]
    with pytest.raises(AttributeError):
        interfsort.no_such_name  # noqa: B018
