"""Flux, critical density, backflow rate and momentum-space diagnostics.

The weight-linear kernel
------------------------
With the free arm written as R e^{i theta}, the beat wavenumber q and
the beat phase phi = q u + (theta_b - theta_f), u = x - x_c, the
combined state c_f Psi_f + c_b Psi_b has

    |Psi|^2      = R^2 |c_f + c_b e^{i phi}|^2
    (m/hbar) J   = grad(theta) |Psi|^2 + q R^2 |c_b|^2
                   + q R^2 Re[ w e^{i phi} ],        w = c_f* c_b.

Since |c_f + c_b e^{i phi}|^2 = n + 2 Re[w e^{i phi}] with
n = |c_f|^2 + |c_b|^2 (1 for normalized weights, but kept explicit),
both are linear in a few weight-independent profiles:

    (m/hbar) J = n grad(theta) R^2 + |c_b|^2 q R^2
                 + Re(w) (2 grad(theta) + q) R^2 cos(phi)
                 - Im(w) (2 grad(theta) + q) R^2 sin(phi)
    |Psi|^2    = n R^2 + 2 Re(w) R^2 cos(phi) - 2 Im(w) R^2 sin(phi)

The critical density (Palmero et al., PRA 87, 053618 (2013))

    rho_crit = q / (q + 2 grad(theta)) * R^2 * (|c_f|^2 - |c_b|^2)

is the threshold below which a measured density dip signals backflow;
it is negative (backflow impossible) when the free arm is the weaker
one.  Its maximum over the envelope support is the contrast
|c_f|^2 - |c_b|^2 times the maximum (contrast >= 0) or the minimum
(contrast < 0) of the base profile q / (q + 2 grad(theta)) R^2.

:class:`WeightKernel` stores these eight profiles as the rows of one
basis B (flux rows times hbar/m).  A batch of weights is a coefficient
matrix C with one row per weight pair,

    (n, |c_b|^2, Re w, -Im w | n, 2 Re w, -2 Im w | |c_f|^2 - |c_b|^2),

and a block of profiles of the whole batch is C @ B over that block's
columns and rows.  :func:`report` reads the rate, the density peak and
the density minimum in a window of a few fringes about x_c from its own
full-grid profiles; the sweep refinement takes the same one-profile
rate.  :meth:`WeightKernel.density_scalars` turns rows of density, on
columns that hold each row's peak, into the two density fractions.

One-angle weight families
-------------------------
Both sweep rules give rows of one angle theta in [0, pi], n = 1 up to
the rounding of the weights (c = cos theta, s = sin theta):

    pulse area: c_b = cos(theta/2), c_f = -i sin(theta/2), theta =
        arccos(cos A): C = (1, (1 + c)/2, 0, -s/2 | 1, 0, -s | -c);
    real c_b: c_b = sin(theta/2), c_f = cos(theta/2), theta =
        2 arcsin(c_b): C = (1, (1 - c)/2, s/2, 0 | 1, s, 0 | c).

So each flux column is alpha_j + beta_j c + gamma_j s = alpha_j + rho_j
cos(theta - psi_j), negative on the open arc about psi_j + pi of
half-width arccos(alpha_j / rho_j), empty where alpha_j >= rho_j; with
its copy 2 pi lower it meets [0, pi] in at most two intervals, whose
ends, sorted once per sweep, are the events of
:class:`~qbackflow.sweep.FluxEvents`; a row at theta takes every event
at or below it.  Over the events the flux rows, +1 at a start and -1 at
a stop, the end columns halved (trapezoid), have np.cumsum prefix sums
S and the cumsum E of each step's exact rounding error (two_sum).  A
row's rate is -dx sum_k c_k (S + E)_k, a double-double dot (two_prod,
two_sum) with its own coefficients: its four terms, which cancel to a
small net, round once.  A column whose flux at theta is within rounding
of 0 (theta within ~1e-15 rad of an arc end, or on a fringe minimum at
equal arms, theta = pi/2, where its arc is a point) may count or not,
which moves the rate by rounding.  A row with no active column, or whose
sum rounds to >= 0, reads +0.0.

On column j a rule's density is n R^2_j + s G_j, G_j = -R^2_j
sin(phi_j) or R^2_j cos(phi_j): lines in s = sin theta in [0, 1], whose
peak lies on their upper envelope.  :func:`~qbackflow.sweep.envelope_columns`
keeps every line within PEAK_BOUND_SLACK times the largest R^2 of it at
one of its breaks (the line less the convex envelope is concave).  An
exact prefilter first drops the lines more than that slack below
max(L_0, L_1), L_0 and L_1 the lines on top at s = 0 and s = 1, at s =
0, at their crossing s* and at s = 1: the envelope is at least that
maximum, and a line less it is concave with one break, at s*.  On fig8
7 and 4 of the 14,295 columns are kept, all in the 49-column window.

The momentum spectrum
---------------------
Kicks and free fall in a linear potential only shift momenta, so the
encounter state is one chirped Gaussian envelope
phi_COM(u) = pi^{-1/4} sigma^{-1/2} exp(-A u^2), with sigma = a_x b and
A = 1/(2 sigma^2) - i m b' / (2 hbar b), times the two plane waves
c_f e^{i k_f u} + c_b e^{i Delta theta} e^{i (k_f + q) u}, k_f = m v_f / hbar.
Fourier transforming each Gaussian, with b^2 = 1 + (omega t)^2 so that
|A| = b / (2 sigma^2) and Re(1/A) = 2 a_x^2, gives

    |<k|Psi>|^2 = (a_x / sqrt(pi)) |c_f e^{-kappa_f^2 / 4A}
                                   + c_b e^{i Delta theta} e^{-kappa_b^2 / 4A}|^2

with kappa_f = k - k_f and kappa_b = kappa_f - q.  Each arm alone is the
trap ground state's profile (a_x / sqrt(pi)) exp(-a_x^2 kappa^2), of
weight (1/2) erfc(a_x k_arm) below k = 0, so up to the cross term the
negative weight is (1/2) [|c_f|^2 erfc(a_x k_f) + |c_b|^2 erfc(a_x (k_f + q))].
As kappa_f^2 + kappa_b^2 = 2 (kappa_f - q/2)^2 + q^2 / 2, the cross term is
at most 2 |c_f c_b| (a_x / sqrt(pi)) e^{-(q a_x)^2 / 4} at any k, and its
modulus integrates to at most 2 |c_f c_b| e^{-(q a_x)^2 / 4}: 0 in float64
on the paper presets, where q a_x is about 140.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import HBAR, CondensateParams, DomainError, expansion
from .pulses import ArmAmplitudes
from .wavefield import EncounterState, Grid, com_wavefunction

#: Grid points with envelope density below this fraction of its maximum
#: are excluded from reported extrema (far tails carry no signal but the
#: critical-density prefactor can blow up near grad(theta) sign changes).
SUPPORT_DENSITY_FRACTION = 1e-6

#: Window half-width, in fringe wavelengths, for the reported density
#: minimum near the encounter center.
DENSITY_MIN_WINDOW_FRINGES = 2.0

#: Samples of the momentum spectrum per momentum width 1/a_x.
SPECTRUM_SAMPLES = 16

#: Classical backflow is excluded when m v a_x / hbar is at least the
#: first and a_x omega / v at most the second.
PLANE_WAVE_THRESHOLD = 100.0
SPREADING_THRESHOLD = 0.1

#: Slack on a weight family's density envelope, relative to the largest
#: R^2 (module docstring).
PEAK_BOUND_SLACK = 1e-12

#: Column blocks of the coefficient matrix, and row blocks of the kernel
#: basis: flux (1/s), density (1/m) and critical density (1/m).
FLUX = slice(0, 4)
DENSITY = slice(4, 7)
RHO_CRIT = slice(7, 8)


@dataclass(frozen=True)
class BackflowReport:
    """Aggregated single-encounter observables."""

    flux_profile: np.ndarray             # 1/s
    density_profile: np.ndarray          # 1/m
    critical_density_profile: np.ndarray  # 1/m, NaN at singular points
    backflow_rate: float                 # m/s
    backflow_fraction: float             # rate / integral |J| dx
    backflow_interval_count: int
    max_negative_flux: float             # 1/s, min of J (<= 0)
    rho_crit_max_fraction: float         # max rho_crit / max |Psi|^2
    density_min_fraction: float          # local min near x_c / max |Psi|^2
    fringe_wavelength: float             # m, measured peak to peak (NaN if none)
    singular_point_count: int = 0

    def scalars(self) -> dict:
        """JSON-friendly scalar fields."""
        fw = self.fringe_wavelength
        return {
            "backflow_rate_m_per_s": self.backflow_rate,
            "backflow_fraction": self.backflow_fraction,
            "backflow_interval_count": self.backflow_interval_count,
            "max_negative_flux_per_s": self.max_negative_flux,
            "rho_crit_max_fraction": self.rho_crit_max_fraction,
            "density_min_fraction": self.density_min_fraction,
            "fringe_wavelength_m": None if math.isnan(fw) else fw,
            "singular_point_count": self.singular_point_count,
        }


@dataclass(frozen=True)
class MomentumState:
    """Closed-form momentum-space description of an encounter state."""

    grid: Grid                # k window, 1/m
    k_f: float                # 1/m, free-arm wavenumber m v_f / hbar
    q: float                  # 1/m, beat wavenumber: k_b = k_f + q
    oscillator_length: float  # m, a_x
    A: complex                # 1/m^2, envelope coefficient (module docstring)
    delta_theta: float        # rad, theta_b - theta_f
    weights: ArmAmplitudes

    @classmethod
    def from_encounter(cls, state: EncounterState,
                       half_width_factor: float) -> "MomentumState":
        """The k window reaches half_width_factor / a_x beyond both arms."""
        params = state.params
        a = params.oscillator_length
        b, bdot = expansion(state.time, params.trap_frequency)
        k_f = params.mass * state.free_velocity / HBAR
        grid = Grid.auto(k_f + 0.5 * state.q, 1.0 / a,
                         half_width_factor=(half_width_factor
                                            + 0.5 * abs(state.q) * a),
                         envelope_samples=SPECTRUM_SAMPLES)
        A = complex(0.5 / (a * b) ** 2,
                    -params.mass * bdot / (2.0 * HBAR * b))
        return cls(grid, k_f, state.q, a, A, state.delta_theta, state.weights)

    @property
    def negative_weight(self) -> float:
        """Spectral weight below k = 0, exact up to the cross term."""
        a, w = self.oscillator_length, self.weights
        return 0.5 * (abs(w.c_f) ** 2 * math.erfc(a * self.k_f)
                      + abs(w.c_b) ** 2 * math.erfc(a * (self.k_f + self.q)))

    @property
    def cross_term_bound(self) -> float:
        """Bound on the integrated modulus of the cross term."""
        w = self.weights
        return 2.0 * abs(w.c_f * w.c_b) * math.exp(
            -0.25 * (self.q * self.oscillator_length) ** 2)


def weight_coefficients(weights: ArmAmplitudes) -> np.ndarray:
    """Coefficient matrix of one weight pair or an array of them, one row
    per pair."""
    c_f, c_b = np.ravel(weights.c_f), np.ravel(weights.c_b)
    w = np.conj(c_f) * c_b
    f2 = np.abs(c_f) ** 2
    b2 = np.abs(c_b) ** 2
    n = f2 + b2
    # C order: a one-row product reads its row as a contiguous vector,
    # as a one-weight batch does; a strided row rounds differently.
    return np.stack([n, b2, w.real, -w.imag,
                     n, 2.0 * w.real, -2.0 * w.imag, f2 - b2], axis=1)


@dataclass(frozen=True)
class WeightKernel:
    """Weight-independent basis of one encounter (see module docstring)."""

    basis: np.ndarray     # (8, n_points): FLUX, DENSITY, RHO_CRIT rows
    rho_base_max: float   # extrema of the critical-density base over the
    rho_base_min: float   # envelope support (NaN if the support is empty)
    window: slice         # +-DENSITY_MIN_WINDOW_FRINGES about x_c
    spacing: float        # m
    q: float              # 1/m, beat wavenumber

    @classmethod
    def from_state(cls, state: EncounterState) -> "WeightKernel":
        """Sample R^2 and grad(theta) of the encounter on its grid."""
        grid, params, q = state.grid, state.params, state.q
        b, bdot = expansion(state.time, params.trap_frequency)
        u = grid.offsets()
        r2 = np.abs(com_wavefunction(grid, state.time, params)) ** 2
        gt = (params.mass / HBAR) * (state.free_velocity + (bdot / b) * u)
        hbar_over_m = HBAR / params.mass
        basis = np.empty((8, grid.n_points))
        basis[0] = hbar_over_m * gt * r2
        basis[1] = hbar_over_m * q * r2
        basis[4] = r2
        phase = q * u + state.delta_theta
        np.cos(phase, out=basis[5])
        np.sin(phase, out=basis[6])
        basis[5:7] *= r2
        denom = q + 2.0 * gt
        np.multiply(hbar_over_m * denom, basis[5:7], out=basis[2:4])
        # Singular points (q + 2 grad(theta) = 0) are NaN; the far tails
        # are left out of the extrema, where the prefactor can blow up.
        singular = denom == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(q, denom, out=basis[7])
            basis[7] *= r2
        basis[7][singular] = np.nan
        support = r2 >= SUPPORT_DENSITY_FRACTION * float(r2.max())
        base = basis[7][support & ~singular]
        extrema = ((float(base.max()), float(base.min())) if base.size
                   else (math.nan, math.nan))

        # The zoomed-in dip the critical density is compared against:
        # the density minimum nearest x_c, within a few fringes.
        reach = (DENSITY_MIN_WINDOW_FRINGES * 2.0 * math.pi / abs(q)
                 if q != 0.0 else grid.half_width)
        bins = min(grid.n_points // 2, max(1, int(reach / grid.spacing)))
        center = grid.n_points // 2
        window = slice(center - bins, center + bins + 1)
        return cls(basis, *extrema, window, grid.spacing, q)

    def profile(self, coefficients: np.ndarray, block: slice) -> np.ndarray:
        """One profile per coefficient row, for one block of the basis."""
        return coefficients[:, block] @ self.basis[block]

    def density_scalars(self, coefficients: np.ndarray, density: np.ndarray,
                        window: slice) -> tuple[np.ndarray, np.ndarray]:
        """(rho_crit max fraction, density min fraction) of every
        coefficient row from its density row, on columns that hold the
        row's peak; the minimum is read on the columns `window` of those."""
        peak = density.max(axis=1)
        if not (peak > 0.0).all():
            raise DomainError("combined density vanishes everywhere")
        contrast = coefficients[:, RHO_CRIT.start]
        rho_max = contrast * np.where(contrast >= 0.0, self.rho_base_max,
                                      self.rho_base_min)
        return rho_max / peak, self._density_min(density[:, window]) / peak

    @staticmethod
    def _density_min(local: np.ndarray) -> np.ndarray:
        """Interior density minimum nearest the centre of the window
        columns `local`, per row; the window minimum where the window
        has no interior minimum."""
        width = local.shape[1]
        mid = local[:, 1:-1]
        inner = (mid < local[:, :-2]) & (mid <= local[:, 2:])
        distance = np.abs(np.arange(1, width - 1) - width // 2)
        nearest = np.argmin(np.where(inner, distance, width), axis=1) + 1
        rows = np.arange(len(local))
        return np.where(inner.any(axis=1), local[rows, nearest],
                        local.min(axis=1))


def _trapezoid(y: np.ndarray, dx: float) -> np.ndarray:
    """Trapezoid rule along the last axis: sum minus half the end points."""
    return dx * (y.sum(axis=-1) - 0.5 * (y[..., 0] + y[..., -1]))


def backflow_rate(flux: np.ndarray, dx: float) -> float | np.ndarray:
    """Area below zero (trapezoidal, in m/s) of a flux profile on spacing
    dx, or of each row of a stack of profiles."""
    # 0.0 - x rather than -x: a profile without backflow gives +0.0
    return 0.0 - _trapezoid(np.minimum(flux, 0.0), dx)


def momentum_spectrum(ms: MomentumState) -> np.ndarray:
    """|<k|Psi>|^2 in m on the k window of `ms` (module docstring); it
    integrates to |c_f|^2 + |c_b|^2."""
    # Offsets from the window centre keep k - k_f exact for k >> 1/a_x.
    kappa_f = ms.grid.offsets() + (ms.grid.center - ms.k_f)
    c = -0.25 / ms.A
    amp = (ms.weights.c_f * np.exp(c * kappa_f ** 2)
           + ms.weights.c_b * cmath.exp(1j * ms.delta_theta)
           * np.exp(c * (kappa_f - ms.q) ** 2))
    return ms.oscillator_length / math.sqrt(math.pi) * np.abs(amp) ** 2


def classical_backflow_check(params: CondensateParams,
                             velocity: float) -> dict:
    """Whether apparent backflow could be merely classical, as report.json's
    classical_check block.

    plane_wave_ratio = m v a_x / hbar must be large (the packet behaves
    like a plane wave of definite positive momentum); spreading_ratio =
    a_x omega / v must be small (spreading is slow against the drift).
    """
    if velocity < 0.0:
        raise DomainError("velocity must be nonnegative")
    a = params.oscillator_length
    r1 = params.mass * velocity * a / HBAR
    r2 = math.inf if velocity == 0.0 else a * params.trap_frequency / velocity
    return {"plane_wave_ratio": r1, "spreading_ratio": r2,
            "passed": r1 >= PLANE_WAVE_THRESHOLD and r2 <= SPREADING_THRESHOLD}


def _interval_count(mask: np.ndarray) -> int:
    if not mask.any():
        return 0
    m = mask.astype(np.int8)
    return int(m[0]) + int(np.count_nonzero(np.diff(m) == 1))


def _measure_fringe_wavelength(density: np.ndarray, grid: Grid) -> float:
    """Distance between the two interior density maxima nearest center."""
    interior = (density[1:-1] > density[:-2]) & (density[1:-1] >= density[2:])
    peaks = np.flatnonzero(interior) + 1
    if len(peaks) < 2:
        return float("nan")
    center = grid.n_points // 2
    order = np.argsort(np.abs(peaks - center), kind="stable")
    a, b = sorted(peaks[order[:2]])
    return float((b - a) * grid.spacing)


def report(state: EncounterState,
           weights: ArmAmplitudes | None = None) -> BackflowReport:
    """Populate every backflow observable for one encounter."""
    weights = state.weights if weights is None else weights
    kernel = WeightKernel.from_state(state)
    coefficients = weight_coefficients(weights)
    flux, density, rho = (kernel.profile(coefficients, block)[0]
                          for block in (FLUX, DENSITY, RHO_CRIT))
    rate = float(backflow_rate(flux, kernel.spacing))
    rho_max, density_min = (float(x[0]) for x in kernel.density_scalars(
        coefficients, density[np.newaxis], kernel.window))
    total = float(_trapezoid(np.abs(flux), kernel.spacing))
    neg = flux < 0.0
    return BackflowReport(
        flux_profile=flux,
        density_profile=density,
        critical_density_profile=rho,
        backflow_rate=rate,
        backflow_fraction=rate / total if total > 0.0 else 0.0,
        backflow_interval_count=_interval_count(neg),
        max_negative_flux=float(flux.min()) if neg.any() else 0.0,
        rho_crit_max_fraction=rho_max,
        density_min_fraction=density_min,
        fringe_wavelength=_measure_fringe_wavelength(density, state.grid),
        singular_point_count=int(np.count_nonzero(np.isnan(rho))),
    )
