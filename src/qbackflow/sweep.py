"""Parameter sweeps over splitting-pulse area and real arm weights.

The expensive grid work (envelope R, phase gradient grad(theta), beat
fringes) is weight-independent: :class:`SweepEngine` builds the
encounter's :class:`~qbackflow.observables.WeightKernel` once.  A weight
rule maps all values of a sweep to one array-valued ArmAmplitudes, its
coefficient matrix goes through the kernel's batched ``rates`` (prefix
sums where a row's flux is negative for certain, products where it can
turn negative) and ``density_scalars``, derived in the
:mod:`qbackflow.observables` docstring, and :class:`SweepResult` keeps
the values and the three scalars as four arrays, the sweep.csv columns.
The reported maximum and the refinement take report()'s one-profile
rate, so they compare exactly.

Phase convention for the pulse-area sweep: the splitting pulse's laser
phase is a free experimental knob that only offsets the beat fringe, so
samples use the canonical weights (|cos(A/2)|, -i |sin(A/2)|).  This
fixes the fringe offset across the sweep and makes the backflow rate an
exact function of the populations, symmetric about A = pi to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .ioutil import atomic_write_text, csv_text
from .model import MAX_PULSE_AREA, DomainError
from .observables import FLUX, WeightKernel, backflow_rate, weight_coefficients
from .pulses import ArmAmplitudes, real_weights
from .wavefield import EncounterState

if TYPE_CHECKING:
    from .config import SweepSpec

#: Golden-section refinement stops when the bracket shrinks below this
#: fraction of the sweep range.
REFINE_FRACTION = 1e-4

#: Samples within this fraction of the largest rate tie for the argmax,
#: and the first of them wins.  Mirror samples of the pulse-area sweep
#: differ by rounding only, so a plain argmax would pick between them by
#: the last bits of a sum.
ARGMAX_TIE_FRACTION = 1e-12

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True, eq=False)
class SweepResult:
    spec: SweepSpec
    values: np.ndarray               # the swept variable, one per sample
    rates: np.ndarray                # m/s, backflow rate
    rho_crit_max: np.ndarray         # max rho_crit / max |Psi|^2
    density_min: np.ndarray          # density min near x_c / max |Psi|^2
    argmax_value: float              # grid argmax (ties -> smaller value)
    max_backflow_rate: float         # report()'s rate at argmax_value
    refined_argmax_value: float      # golden-section refinement
    refined_max_backflow_rate: float

    def to_csv(self, path: str) -> None:
        atomic_write_text(path, csv_text(
            "value,backflow_rate_m_per_s,rho_crit_max,density_min",
            [self.values, self.rates, self.rho_crit_max, self.density_min]))

    def summary(self) -> dict:
        return {
            "variable": self.spec.variable,
            "range": [self.spec.lo, self.spec.hi],
            "n_samples": self.spec.n_samples,
            "argmax_value": self.argmax_value,
            "max_backflow_rate_m_per_s": self.max_backflow_rate,
            "refined_argmax_value": self.refined_argmax_value,
            "refined_max_backflow_rate_m_per_s": self.refined_max_backflow_rate,
        }


def canonical_pulse_area_weights(
        pulse_area: float | np.ndarray) -> ArmAmplitudes:
    """Sweep weights (|cos(A/2)|, -i |sin(A/2)|) per area (module docstring)."""
    area = np.asarray(pulse_area, dtype=float)
    if not np.all((0.0 <= area) & (area <= MAX_PULSE_AREA)):
        raise DomainError("pulse_area must lie in [0, 4 pi]")
    half = 0.5 * area
    return ArmAmplitudes(np.abs(np.cos(half)), -1j * np.abs(np.sin(half)))


class SweepEngine:
    """Weight-independent kernel plus batched per-sample evaluation."""

    def __init__(self, state: EncounterState):
        self.kernel = WeightKernel.from_state(state)

    def samples(self, values, weights_of) -> tuple[np.ndarray, ...]:
        """(rate, rho_crit max, density min) arrays, one row per value, at
        the weights weights_of(values)."""
        c = weight_coefficients(weights_of(np.asarray(values, dtype=float)))
        return (self.kernel.rates(c), *self.kernel.density_scalars(c))

    def backflow_rate(self, weights: ArmAmplitudes) -> float:
        """report()'s rate: the trapezoid of one full-grid flux profile."""
        return float(backflow_rate(self.kernel.profile(
            weight_coefficients(weights), FLUX)[0], self.kernel.spacing))

    # -- sweeps ---------------------------------------------------------

    def _run(self, spec: SweepSpec, weights_of) -> SweepResult:
        values = spec.values()
        rates, rho_crit_max, density_min = self.samples(values, weights_of)
        idx = int(np.argmax(rates >= (1.0 - ARGMAX_TIE_FRACTION)
                            * rates.max()))
        argmax_value = float(values[idx])
        max_rate = self.backflow_rate(weights_of(argmax_value))
        r_val, r_rate = argmax_value, max_rate
        if max_rate > 0.0:
            lo = float(values[max(idx - 1, 0)])
            hi = float(values[min(idx + 1, len(values) - 1)])
            val, rate = self._golden_section(
                lo, hi, spec.hi - spec.lo, weights_of)
            if rate >= max_rate:
                r_val, r_rate = val, rate
        return SweepResult(spec, values, rates, rho_crit_max, density_min,
                           argmax_value, max_rate, r_val, r_rate)

    def _golden_section(self, lo: float, hi: float, full_range: float,
                        weights_of) -> tuple[float, float]:
        f = lambda v: self.backflow_rate(weights_of(v))
        a, b = lo, hi
        c = b - _INV_GOLDEN * (b - a)
        d = a + _INV_GOLDEN * (b - a)
        fc, fd = f(c), f(d)
        while (b - a) > REFINE_FRACTION * full_range:
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - _INV_GOLDEN * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + _INV_GOLDEN * (b - a)
                fd = f(d)
        v = 0.5 * (a + b)
        return v, f(v)

    def sweep_pulse_area(self, spec: SweepSpec) -> SweepResult:
        if spec.variable != "pulse_area":
            raise DomainError("spec.variable must be 'pulse_area'")
        return self._run(spec, canonical_pulse_area_weights)

    def sweep_real_weights(self, spec: SweepSpec) -> SweepResult:
        if spec.variable != "real_cb":
            raise DomainError("spec.variable must be 'real_cb'")
        return self._run(spec, real_weights)
