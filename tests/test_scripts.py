import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# exact stdout of the scripts whose output is pinned
EXPECTED_STDOUT = {
    "carbon_design.py": """\
v =  100.0 m/s: k1 = 3, k2 = 3, dL = 9.9891e-10 m (= 3.0 lambda_0)
v =   10.0 m/s: k1 = 3, k2 = 3, dL = 9.9891e-09 m (= 3.0 lambda_0)
v =    1.0 m/s: k1 = 3, k2 = 3, dL = 9.9891e-08 m (= 3.0 lambda_0)

N-path solver agrees: dL_1 = 9.9891e-08 m, max residual 0.00e+00 rad
5-port coupler at W = 1 um, v = 1 m/s: length = 24.03 um
""",
}


@pytest.mark.parametrize("script", [
    "carbon_design.py",
    "leakage_sweep.py",
    "spectrum_roundtrip.py",
])
def test_script_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == EXPECTED_STDOUT.get(script, proc.stdout)
    assert proc.stdout
