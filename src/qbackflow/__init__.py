"""Quantum-backflow state preparation of a BEC by large momentum transfer.

Library layout:

* :mod:`qbackflow.model`       — constants, condensate/transition parameters
* :mod:`qbackflow.phaseacc`    — extended-precision phase accumulation
* :mod:`qbackflow.kinematics`  — COM trajectories, action/laser/internal phases
* :mod:`qbackflow.pulses`      — arm weights of the interferometer arms
* :mod:`qbackflow.wavefield`   — analytic wavefunctions on spatial grids
* :mod:`qbackflow.observables` — flux, critical density, backflow metrics
* :mod:`qbackflow.oracle`      — independent split-step propagator (validation)
* :mod:`qbackflow.sweep`       — pulse-area / weight sweeps and peak finding
* :mod:`qbackflow.presets`     — shipped scenario configurations
* :mod:`qbackflow.config`      — configuration schema, validation, parsing
* :mod:`qbackflow.cli`         — JSON-config batch entry point
"""

__version__ = "0.1.0"
