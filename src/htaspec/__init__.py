"""htaspec: phase-space quarkonium spectroscopy via the half-transform ansatz.

Subpackages by role:

* ``special``    -- real Airy functions and zeros, complex gamma and upper
                    incomplete gamma (numpy)
* ``nu``         -- Nikiforov-Uvarov eigenvalue machinery for sigma = s^2
* ``core``       -- Cornell-system types, closed-form level energies, mass
                    spectra, parameter scans
* ``confine1d``  -- 1D linear-confinement Airy solution and normalization
* ``waves``      -- phase-space wave functions, normalization, density grids
* ``gridsplit``  -- the grid command's rows across CPUs, by forked workers
* ``fitting``    -- least-squares (Levenberg-Marquardt) parameter fits
* ``dataio``     -- JSON dataset schema and the bundled meson tables
* ``cli``        -- the ``htaspec`` command-line tool
"""

from .core import (
    CornellParams,
    MesonSystem,
    QuantumState,
    Variant,
    energy_complex,
    energy_real,
    mass_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "CornellParams",
    "MesonSystem",
    "QuantumState",
    "Variant",
    "energy_real",
    "energy_complex",
    "mass_spectrum",
    "__version__",
]
