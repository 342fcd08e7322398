"""hecu imports, and runs its sheets, inner solves and horseshoe, without scipy."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# A fresh interpreter: import every module, run one point of the splitting
# workload (HJ graph, sheet, stable sheet, splitting, homoclinic roots), one
# f_k extraction, and the horseshoe set-up with two strips, then list what
# of scipy is loaded.
_PROGRAM = """
import importlib, pkgutil, sys
import hecu
for mod in pkgutil.iter_modules(hecu.__path__):
    importlib.import_module("hecu." + mod.name)
from hecu import inner, manifolds
from hecu.model import params_for_nu_I0
params = params_for_nu_I0(6.0, epsilon=1e-3)
graph = manifolds.solve_hj_unstable(params)
sheet = manifolds.unstable_sheet(params, [1.0], n_theta=64, graph=graph)
stable = manifolds.stable_sheet_from_unstable(sheet)
manifolds.measure_splitting(sheet, stable, 1.0, 1)
assert len(manifolds.find_homoclinics(sheet, stable, 1.0)) == 2
inner.extract_fk(params_for_nu_I0(6.0, epsilon=0.1), ks=(1, 2))
from hecu.horseshoe import build_strips, select_operating_point, setup_horseshoe
lab = setup_horseshoe(select_operating_point())
assert len(build_strips(lab, (lab.base_count + 1, lab.base_count + 2), n_v=2).strips) == 2
print(" ".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_sheets_and_inner_solves_load_no_scipy():
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", _PROGRAM], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    loaded = run.stdout.split()
    assert not loaded, f"{len(loaded)} scipy modules loaded: {' '.join(loaded[:8])} ..."
