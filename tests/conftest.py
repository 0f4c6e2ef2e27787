"""Shared fixtures: the expensive encounter states are built once per
session.  The two-level pulse matrix is the reference for the closed-form
splitting weights, the moments of a sampled field check the propagator,
finite differences and the FFT spectrum of a sampled field check the
closed-form flux and momentum spectrum, and a correctly rounded
trapezoid of the exactly negative flux checks the backflow rates.  Two
passes of math.fsum (fsum_dd) are the exact reference for double-double
sums."""

from __future__ import annotations

import cmath
import math
from itertools import chain

import numpy as np
import pytest
from hypothesis import strategies as st

from qbackflow.cli import build_state
from qbackflow.config import SCHEMA, SweepSpec
from qbackflow.model import HBAR, DomainError, expansion
from qbackflow.observables import FLUX
from qbackflow.oracle import ALIAS_WEIGHT_LIMIT
from qbackflow.phaseacc import DoubleDouble, two_prod, two_sum
from qbackflow.presets import preset_config, reduced_scale_config, reference_config
from qbackflow.pulses import ArmAmplitudes
from qbackflow.wavefield import (Grid, WaveField, combined_from_state,
                                 encounter_state)

_phase = st.floats(0.0, 2.0 * math.pi)

#: Normalized complex arm weights with any moduli and phases.
arm_weights = st.builds(
    lambda cb, a, b: ArmAmplitudes(
        cb * cmath.exp(1j * a),
        math.sqrt(1.0 - cb * cb) * cmath.exp(1j * b)),
    st.floats(0.0, 1.0), _phase, _phase)


def transition_matrix(pulse_area: float, rabi_phase_arg: float = 0.0,
                      laser_phase: float = 0.0) -> np.ndarray:
    """Unitary acting on (c_b, c_f), the (ground, excited) amplitudes,
    for one resonant pulse."""
    lam_c = math.cos(0.5 * pulse_area)
    lam_s = np.exp(1j * rabi_phase_arg) * math.sin(0.5 * pulse_area)
    phase = np.exp(-1j * laser_phase)
    return np.array(
        [[lam_c, -1j * lam_s * phase],
         [-1j * np.conj(lam_s) * np.conj(phase), lam_c]],
        dtype=complex,
    )


def stack_weights(weights) -> ArmAmplitudes:
    """One array-valued ArmAmplitudes holding a sequence of weight pairs."""
    return ArmAmplitudes(np.array([w.c_b for w in weights], dtype=complex),
                         np.array([w.c_f for w in weights], dtype=complex))


def fsum_dd(terms: list[float]) -> DoubleDouble:
    """Double-double sum of many floats, accurate to ~2**-106 relative.

    math.fsum rounds the exact sum once; a second pass with that total
    subtracted returns the remainder, itself correctly rounded.  This is
    an accurate sum in twice the working precision in the sense of
    Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26, 1955 (2005).  A sum
    that is not finite comes back as NaN.
    """
    try:
        hi = math.fsum(terms)
        return DoubleDouble(hi, math.fsum(chain(terms, (-hi,))))
    except (OverflowError, ValueError):  # inf - inf, or beyond the range
        return DoubleDouble(math.nan)


#: Bound on the rounding error of a four-term float dot product, relative
#: to the sum of the terms' moduli (4 u / (1 - 4 u) with room to spare).
DOT_ERROR = 1e-15


def _exact_parts(rows: np.ndarray, levels: int = 4) -> np.ndarray:
    """(levels, *rows.shape) floats that sum to each element of rows, up
    to a rest below 2^-34 per level of its row's largest modulus (up to
    65,536 columns).  At each level the parts are multiples of one power
    of two, so any sum of up to rows.shape[-1] of them, in any order, is
    exact (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31, 189 (2008),
    ExtractVector)."""
    parts, rest = [], rows
    grow = math.ceil(math.log2(rows.shape[-1])) + 2
    for _ in range(levels):
        top = np.abs(rest).max(axis=-1, keepdims=True)
        sigma = np.where(top > 0.0, np.ldexp(1.0, np.frexp(top)[1] + grow),
                         1.0)
        part = (rest + sigma) - sigma
        parts.append(part)
        rest = rest - part
    return np.stack(parts)


def exact_levels(kernel) -> tuple[np.ndarray, np.ndarray]:
    """A kernel's flux rows as exact level columns, (n, levels * 4), and
    the moduli of their entries: what exact_rates reads of the kernel."""
    flux = kernel.basis[FLUX]
    return (_exact_parts(flux).reshape(-1, flux.shape[1]).T.copy(),
            np.abs(flux))


def exact_rates(kernel, coefficients: np.ndarray, levels=None,
                block: int = 32) -> np.ndarray:
    """Backflow rate of every coefficient row, correctly rounded: the
    trapezoid of the negative part of its exact flux, one rounding for
    the sum and one for the spacing.

    A column is negative where its double-double flux (two_prod,
    two_sum) is, hi + lo; only columns whose float product lies within
    DOT_ERROR of its terms' size need it.  The negative columns' flux
    rows, the end columns halved, are summed exactly as level parts
    (_exact_parts), and math.fsum rounds the exact products of the
    row's coefficients with those sums once.  levels, if given, is
    exact_levels(kernel)."""
    flux = kernel.basis[FLUX]
    columns, size = exact_levels(kernel) if levels is None else levels
    rates = np.empty(len(coefficients))
    for i in range(0, len(coefficients), block):
        c = coefficients[i:i + block, FLUX]
        product = c @ flux
        bound = np.abs(c) @ size
        bound *= DOT_ERROR
        negative = product < -bound
        rows, cols = np.nonzero(np.abs(product, out=product) <= bound)
        nonzero = bound[rows, cols] > 0.0    # all-zero terms: flux 0
        rows, cols = rows[nonzero], cols[nonzero]
        hi, lo = two_prod(c[rows, 0], flux[0, cols])
        for k in range(1, 4):
            p, e = two_prod(c[rows, k], flux[k, cols])
            hi, s = two_sum(hi, p)
            lo = lo + (s + e)
        negative[rows, cols] = hi + lo < 0.0
        weight = negative.astype(float)
        weight[:, [0, -1]] *= 0.5
        sums = (weight @ columns).reshape(len(c), -1, 4)   # exact
        hi, lo = two_prod(c[:, np.newaxis, :], sums)
        rates[i:i + len(c)] = [
            0.0 - kernel.spacing * math.fsum(terms)
            for terms in np.concatenate([hi, lo], axis=1)
            .reshape(len(c), -1).tolist()]
    return rates


#: Bounds on a rate's distance from exact_rates: relative on rows with at
#: least 1 % of the largest rate, in ulp of the integral of |J| dx
#: elsewhere.  Measured on 5,001 rows of each weight rule on the fig8,
#: reduced and coarse kernels: the event sweep 0 and 0 (every rate bit
#: for bit); report()'s one-row product 1.76e-14 (reduced, real c_b;
#: 4.3e-16 on fig8) and 0.03 ulp.
EVENT_BOUNDS = (2.0 ** -53, 1e-3)
REPORT_BOUNDS = (2e-14, 0.1)


def assert_near_exact(rates, exact, total, bounds, largest=None,
                      zeros=True):
    """rates within bounds (EVENT_BOUNDS) of exact, taking rows with at
    least 1 % of largest (default: of the largest exact rate) as large,
    at or above +0.0, and, with zeros, +0.0 exactly where exact is 0."""
    largest = exact.max(initial=0.0) if largest is None else largest
    large = exact >= 1e-2 * largest
    relative, ulp = bounds
    assert (np.abs(rates - exact)[large] <= relative * exact[large]).all()
    assert (np.abs(rates - exact)[~large]
            <= ulp * np.spacing(total[~large])).all()
    assert (rates >= 0.0).all() and not np.signbit(rates).any()
    assert ((rates == 0.0) == (exact == 0.0)).all() or not zeros


def flux_finite_difference(field: WaveField, mass: float) -> np.ndarray:
    """(hbar/m) Im(Psi* dPsi/dx) by 4th-order central differences.

    The two points at each edge, where the stencil does not fit, are NaN.
    """
    psi = field.amplitudes
    h = field.grid.spacing
    out = np.full(len(psi), np.nan)
    d = (-psi[4:] + 8.0 * psi[3:-1] - 8.0 * psi[1:-3] + psi[:-4]) / (12.0 * h)
    out[2:-2] = (HBAR / mass) * np.imag(np.conj(psi[2:-2]) * d)
    return out


def momentum_spectrum_fft(fld: WaveField) -> tuple[np.ndarray, np.ndarray]:
    """(ascending wavenumbers, |<k|Psi>|^2 normalized to unit integral):
    the numerical reference for the closed-form momentum spectrum.

    Raises on a field whose norm is off by more than 1e-3 and on
    aliasing: more than ALIAS_WEIGHT_LIMIT within 2% of the Nyquist
    wavenumber.
    """
    n = fld.grid.n_points
    if abs(fld.norm() - 1.0) > 1e-3:
        raise DomainError(f"field norm {fld.norm()} is not 1")
    k = 2.0 * math.pi * np.fft.fftshift(np.fft.fftfreq(n, d=fld.grid.spacing))
    density = np.abs(np.fft.fftshift(np.fft.fft(fld.amplitudes))) ** 2
    dk = k[1] - k[0]
    density /= density.sum() * dk
    guard = max(2, int(0.02 * n))
    edge = float((density[:guard].sum() + density[-guard:].sum()) * dk)
    if edge > ALIAS_WEIGHT_LIMIT:
        raise DomainError(
            f"aliasing: spectral weight {edge:.3e} within 2% of the Nyquist "
            f"wavenumber {k[-1]:.3e} 1/m; refine the grid spacing")
    return k, density


def position_expectation(fld) -> float:
    d = np.abs(fld.amplitudes) ** 2
    return float(np.sum(fld.grid.positions() * d) / np.sum(d))


def position_spread(fld) -> float:
    d = np.abs(fld.amplitudes) ** 2
    x = fld.grid.positions()
    mean = float(np.sum(x * d) / np.sum(d))
    return math.sqrt(float(np.sum((x - mean) ** 2 * d) / np.sum(d)))


def momentum_expectation(fld) -> float:
    k, spec = momentum_spectrum_fft(fld)
    return float(HBAR * np.sum(k * spec) * (k[1] - k[0]))


def energy_expectation(fld, config) -> float:
    """<H> for a PropagatorConfig's Hamiltonian (drift checks)."""
    k, spec = momentum_spectrum_fft(fld)
    kinetic = (HBAR ** 2 / (2.0 * config.mass)
               * np.sum(k * k * spec) * (k[1] - k[0]))
    pot = config.mass * config.gravity * position_expectation(fld)
    return float(kinetic + pot)


@pytest.fixture(scope="session")
def reduced_ctx():
    """Reduced-scale pipeline context (fast; shared read-only)."""
    return build_state(reduced_scale_config())


@pytest.fixture(scope="session")
def ref_ctx_06():
    return build_state(preset_config("paper-0.6pi"))


@pytest.fixture(scope="session")
def ref_ctx_075():
    return build_state(preset_config("paper-0.75pi"))


@pytest.fixture(scope="session")
def coarse_ctx():
    """paper-0.6pi on 1,001 points: under one sample per fringe."""
    return build_state(preset_config("paper-0.6pi"), grid_points=1001)


@pytest.fixture(scope="session")
def sweep_ctx():
    """Reference encounter state at the sweep presets' grid resolution."""
    return build_state(preset_config("paper-fig8a"))


@pytest.fixture(scope="session")
def sweep_engine(sweep_ctx):
    from qbackflow.sweep import SweepEngine
    return SweepEngine(sweep_ctx.state)


@pytest.fixture(scope="session")
def fig8a_result(sweep_engine):
    return sweep_engine.sweep_pulse_area(
        SweepSpec("pulse_area", 0.0, 4.0 * math.pi, 401))


@pytest.fixture(scope="session")
def fig8b_result(sweep_engine):
    return sweep_engine.sweep_real_weights(SweepSpec("real_cb", 0.0, 1.0, 201))


def spectrum_safe_grid(ctx, half_width_factor: float) -> Grid:
    """x-grid about the encounter whose Nyquist wavenumber is 1.5 times
    the largest local wavenumber within half_width_factor envelopes."""
    sc = ctx.scenario
    t_f = ctx.encounter_time
    b, bdot = expansion(t_f, sc.params.trap_frequency)
    sigma = sc.params.oscillator_length * b
    m_over_h = sc.params.mass / HBAR
    k_need = (m_over_h * max(abs(ctx.free_arm.velocity(t_f)),
                             abs(ctx.pulsed_arm.velocity(t_f)))
              + 8.0 / sigma + m_over_h * (bdot / b) * half_width_factor * sigma)
    samples = math.ceil(1.5 * k_need * sigma / math.pi)
    envelope_samples = max(SCHEMA["grid.envelope_samples"].default, samples)
    return Grid.auto(ctx.grid.center, sigma, half_width_factor=half_width_factor,
                     envelope_samples=envelope_samples)


@pytest.fixture(scope="session")
def fft_spectrum():
    """FFT of a context's encounter state on a spectrum-safe grid: the
    numerical reference for the closed-form momentum spectrum."""
    def spectrum(ctx, half_width_factor: float = 12.0):
        state = encounter_state(
            spectrum_safe_grid(ctx, half_width_factor), ctx.free_arm,
            ctx.pulsed_arm, ctx.encounter_time, ctx.weights)
        return momentum_spectrum_fft(combined_from_state(state))
    return spectrum
