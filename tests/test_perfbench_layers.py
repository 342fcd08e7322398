"""The traced benchmark run wraps hecu's functions by name; keep the names alive.

perfbench/layers.py installs its wrappers with getattr/setattr on hecu's
modules, so a renamed or deleted function breaks `--trace 1` only when the
benchmark runs.  This test installs and restores every wrapper here.
"""

from pathlib import Path

import numpy as np

from hecu import integrate
from hecu.model import params_for_nu_I0

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_layers_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    tracer = Tracer()
    layers.install(tracer)
    wrapped = list(tracer._undo)
    try:
        assert wrapped
        for owner, attr, original in wrapped:
            assert getattr(owner, attr) is not original, attr
        # the full-field closures are counted where integrate looks them up
        tracer.start()
        traj = integrate.integrate_mcgehee(params_for_nu_I0(6.0, epsilon=1e-3),
                                           np.array([1.0, 0.0, 0.3, 0.0]), (0.0, 1.0))
        counts = tracer.stop()
        assert counts["full"] == traj.n_rhs > 0
    finally:
        tracer.restore()
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, attr
