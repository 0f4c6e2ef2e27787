"""Parameter sweeps over splitting-pulse area and real arm weights.

The expensive grid work (envelope R, phase gradient grad(theta), beat
fringes) is weight-independent: :class:`SweepEngine` builds the
encounter's :class:`~qbackflow.observables.WeightKernel` once.  A weight
rule maps all values of a sweep to one coefficient matrix.  Both rules
are one-angle families (:data:`FAMILIES`, observables docstring): per
sweep the engine sorts the ends of the flux columns' negative arcs once
(:class:`FluxEvents`), takes each row's rate from prefix sums at its
angle, and its density fractions from density products, per block of
rows, over the density-minimum window and the rule's envelope columns
(:func:`envelope_columns`, found once on the whole grid).  The reported
maximum and the refinement take report()'s one-profile rate, so they
compare exactly.

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
from .observables import (DENSITY, FLUX, PEAK_BOUND_SLACK, WeightKernel,
                          backflow_rate, weight_coefficients)
from .phaseacc import two_prod, two_sum
from .pulses import ArmAmplitudes, real_weights
from .wavefield import EncounterState

if TYPE_CHECKING:
    from .config import SweepSpec

#: Largest number of coefficient rows x columns in one density product
#: over a rule's window and envelope columns.
CHUNK_ELEMENTS = 2 ** 16

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


#: The sweep rules as one-angle families (observables docstring): the
#: angle theta in [0, pi] of each weight pair, and the unit-norm
#: coefficient row as its constant, cos theta and sin theta parts.
FAMILIES = {
    # c_b = cos(theta/2), c_f = -i sin(theta/2)
    canonical_pulse_area_weights: (
        lambda w: 2.0 * np.arctan2(np.abs(w.c_f), np.abs(w.c_b)),
        np.array([[1.0, 0.5, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0],
                  [0.0, 0.0, 0.0, -0.5, 0.0, 0.0, -1.0, 0.0]])),
    # c_b = sin(theta/2), c_f = cos(theta/2)
    real_weights: (
        lambda w: 2.0 * np.arctan2(np.abs(w.c_b), np.abs(w.c_f)),
        np.array([[1.0, 0.5, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
                  [0.0, -0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                  [0.0, 0.0, 0.5, 0.0, 0.0, 1.0, 0.0, 0.0]])),
}


def arc_events(alpha, beta, gamma) -> tuple[np.ndarray, ...]:
    """Sorted ends in [0, pi] of the arcs where alpha + beta cos theta +
    gamma sin theta < 0, their columns, and +1 (start) or -1 (stop)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        half = np.arccos(np.clip(alpha / np.hypot(beta, gamma), -1, 1))
    # Each arc and its copy 2 pi lower; an empty arc (half = 0) or the
    # arc of a zero column (NaN) has no events.
    centre = np.arctan2(gamma, beta) + math.pi - [[0.0], [2 * math.pi]]
    start, stop = (centre - half).ravel(), (centre + half).ravel()
    arcs = np.flatnonzero((start < stop) & (start < math.pi) & (stop > 0.0))
    ends = np.concatenate([start[arcs], stop[arcs]])
    order = np.argsort(ends)
    return (ends[order], np.tile(arcs % len(alpha), 2)[order],
            np.repeat([1, -1], len(arcs))[order])


class FluxEvents:
    """A family's flux arc ends, with compensated prefix sums of the flux
    rows over them (observables docstring)."""

    def __init__(self, kernel: WeightKernel, parts: np.ndarray):
        flux, self.spacing = kernel.basis[FLUX], kernel.spacing
        self.ends, column, count = arc_events(*parts[:, FLUX] @ flux)
        # Trapezoid weights: the grid's end columns count half.
        sign = np.where(column % (flux.shape[1] - 1), count, 0.5 * count)
        self.sums, self.errors = np.zeros((2, 4, len(column) + 1))
        for row, sums, errors in zip(flux, self.sums, self.errors):
            step = sign * row[column]
            np.cumsum(step, out=sums[1:])
            np.cumsum(two_sum(sums[:-1], step)[1], out=errors[1:])
        self.active = np.zeros(len(column) + 1, dtype=np.int64)
        np.cumsum(count, out=self.active[1:])

    def rates(self, theta: np.ndarray, coefficients: np.ndarray
              ) -> np.ndarray:
        """Backflow rate of every coefficient row at its angle theta,
        over the columns whose arc [start, stop) holds theta."""
        at = np.searchsorted(self.ends, theta, side="right")
        total = err = 0.0
        for c, sums, errors in zip(coefficients[:, FLUX].T, self.sums,
                                   self.errors):
            hi, lo = two_prod(c, sums[at])
            total, e = two_sum(total, hi)
            err = err + e + (lo + c * errors[at])
        # +0.0 where no column is active or the sum rounds to >= 0.
        rate = np.maximum(0.0 - self.spacing * (total + err), 0.0)
        return np.where(self.active[at] > 0, rate, 0.0)


def envelope_columns(kernel: WeightKernel, parts: np.ndarray) -> np.ndarray:
    """The grid columns whose density line a_j + s b_j comes within
    PEAK_BOUND_SLACK of the family's upper envelope for some s = sin
    theta in [0, 1] (observables docstring)."""
    a, _, b = parts[:, DENSITY] @ kernel.basis[DENSITY]
    slack = PEAK_BOUND_SLACK * a.max()
    # Exact prefilter (observables docstring): keep the lines within the
    # slack of max(line t0, line t1), the top lines at s = 0 and s = 1,
    # at s = 0, at the crossing of those two or at s = 1.
    t0, t1 = int(np.argmax(a)), int(np.argmax(a + b))
    rise = b[t1] - b[t0]
    near = np.zeros(len(a), dtype=bool)
    for s in (0.0, (a[t0] - a[t1]) / rise if rise > 0.0 else 0.0, 1.0):
        near |= a + s * b >= max(a[t0] + s * b[t0], a[t1] + s * b[t1]) - slack
    keep = np.flatnonzero(near)
    a, b = a[keep], b[keep]
    # Walk the envelope up from s = 0: the next line on top is the first
    # to cross the current one, of those rising faster.
    top, breaks = int(np.argmax(a)), [0.0, 1.0]
    while True:
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = np.where(b > b[top], (a[top] - a) / (b - b[top]), np.inf)
        top = int(np.argmin(cross))
        if not cross[top] < 1.0:
            break
        breaks.append(float(cross[top]))
    lines = a + np.array(breaks)[:, np.newaxis] * b
    near = lines >= lines.max(axis=1, keepdims=True) - slack
    return keep[near.any(axis=0)]


class SweepEngine:
    """Weight-independent kernel plus batched per-sample evaluation."""

    def __init__(self, state: EncounterState):
        self.kernel = WeightKernel.from_state(state)

    def samples(self, values, weights_of) -> tuple[np.ndarray, ...]:
        """(rate, rho_crit max, density min) arrays, one row per value, at
        the weights weights_of(values) of a rule in FAMILIES: the rates
        from its FluxEvents, the density on the window and its envelope
        columns."""
        angle, parts = FAMILIES[weights_of]
        weights = weights_of(np.asarray(values, dtype=float))
        c = weight_coefficients(weights)
        rates = FluxEvents(self.kernel, parts).rates(angle(weights), c)
        kernel = self.kernel
        window = np.arange(kernel.window.start, kernel.window.stop)
        columns = kernel.basis[DENSITY][
            :, np.append(window, envelope_columns(kernel, parts))]
        block = max(1, CHUNK_ELEMENTS // columns.shape[1])
        work = np.empty((min(block, len(c)), columns.shape[1]))
        rho_max, density_min = np.empty((2, len(c)))
        for i in range(0, len(c), block):
            chunk = c[i:i + block]
            density = np.matmul(chunk[:, DENSITY], columns,
                                out=work[:len(chunk)])
            rho_max[i:i + block], density_min[i:i + block] = (
                kernel.density_scalars(chunk, density, slice(0, len(window))))
        return rates, rho_max, density_min

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
