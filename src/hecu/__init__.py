"""Numerical laboratory for He-Cu surface scattering dynamics.

The package implements the corrugated-Morse scattering model end to end:
regularized coordinates at infinity, high-accuracy integration, the
separatrix and its Melnikov potential, Hamilton-Jacobi manifold graphs,
the exponentially small splitting and its first-harmonic constant from
the inner equation, and a finite numerical verification of horseshoe
dynamics with oscillatory orbits.
"""

__version__ = "0.1.0"

from .model import (
    CorrugationSeries,
    PhysicalParams,
    ModelParams,
    params_for_nu_I0,
    nu_from_physical,
)

__all__ = [
    "CorrugationSeries",
    "PhysicalParams",
    "ModelParams",
    "params_for_nu_I0",
    "nu_from_physical",
    "__version__",
]
