"""Grid oracles: sampling, DFT-based short-time transforms, quadrature.

Everything here is deliberately independent of the closed-form Gaussian
algebra: functions are evaluated pointwise on periodic grids and integrals
are plain Riemann sums (which for smooth decaying integrands on a full period
converge spectrally).  These routines are the reference the closed forms are
tested against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "SampledFunction",
    "TailMassWarning",
    "WorkBudgetError",
    "check_budget",
    "sample",
    "dft_stft",
    "quad_rep_coefficient",
    "logsumexp",
]


class TailMassWarning(UserWarning):
    """Integrand has non-negligible mass at the truncation boundary."""


class WorkBudgetError(ValueError):
    """A setting asks for more work, or a wider range, than a fixed budget allows.

    Raised before anything is allocated, with the count in the message; the
    CLI reports it as a config error.
    """


class WeightRangeError(WorkBudgetError):
    """A weight whose log p |s| log(1 + |A q|) leaves double range on a norm's mesh."""


def check_budget(count: int, budget: int, what: str) -> None:
    """Raise WorkBudgetError naming the count unless count <= budget.

    count is an int, or inf when it is past float range; counts from 10^15
    up are named by their order of magnitude.
    """
    if count > budget:
        if count < 10**15:
            shown = f"{count:,}"
        else:
            shown = "more than 10^308" if count == math.inf else f"about 10^{math.log10(count):.0f}"
        raise WorkBudgetError(f"{what}: {shown} exceeds the work budget of {budget:,}")


_DEFAULTS = {1: (8.0, 512), 2: (6.0, 128), 3: (5.0, 64)}


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-half_width, half_width)^dim.

    points_per_axis must be a power of two; node k sits at
    -half_width + k * step with step = 2 * half_width / points_per_axis.
    """

    dim: int
    half_width: float
    points_per_axis: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        n = self.points_per_axis
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError("points_per_axis must be a power of two >= 2")

    @classmethod
    def default_for(cls, dim: int) -> "GridSpec":
        if dim not in _DEFAULTS:
            raise ValueError(f"no default grid for dimension {dim}")
        half, n = _DEFAULTS[dim]
        return cls(dim, half, n)

    @property
    def step(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def cell_volume(self) -> float:
        return self.step**self.dim

    def axis(self) -> np.ndarray:
        return -self.half_width + self.step * np.arange(self.points_per_axis)

    def freq_axis(self) -> np.ndarray:
        """Frequency bins m / period for m in [-N/2, N/2)."""
        n = self.points_per_axis
        return np.arange(-n // 2, n // 2) / (2.0 * self.half_width)

    def mesh(self) -> np.ndarray:
        """All nodes, shape (N, ..., N, dim)."""
        axes = np.meshgrid(*([self.axis()] * self.dim), indexing="ij")
        return np.stack(axes, axis=-1)


@dataclass
class SampledFunction:
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        shape = (self.grid.points_per_axis,) * self.grid.dim
        self.values = np.asarray(self.values, dtype=complex).reshape(shape)

    def l2_norm(self) -> float:
        return float(np.sqrt(self.grid.cell_volume * np.sum(np.abs(self.values) ** 2)))

    def inner(self, other: "SampledFunction") -> complex:
        if other.grid != self.grid:
            raise ValueError("grids differ")
        return complex(self.grid.cell_volume * np.sum(self.values * np.conj(other.values)))


def sample(f, grid: GridSpec) -> SampledFunction:
    """Evaluate a callable (e.g. a Gaussian) on the grid."""
    return SampledFunction(grid, np.asarray(f(grid.mesh()), dtype=complex))


def _f_values(f, grid):
    if isinstance(f, SampledFunction):
        if f.grid != grid:
            raise ValueError("sampled function lives on a different grid")
        return f.values
    return np.asarray(f(grid.mesh()), dtype=complex)


def _alternating_phase(grid):
    """Factor exp(-2 pi i xi_m t_k) splits off (-1)^m per axis for t at -L/2."""
    n = grid.points_per_axis
    m = np.arange(-n // 2, n // 2)
    return np.where(m % 2 == 0, 1.0, -1.0)


def dft_stft(f, g, grid: GridSpec, shifts=None):
    """Sampled short-time transform S(x, xi_m) = h^d sum_k f(t_k) conj(g(t_k - x)) e^{-2 pi i xi_m t_k}.

    f may be a callable or a SampledFunction on the grid; g must be callable
    so shifted copies are evaluated exactly (no periodic wrap of the window).

    shifts: array of translation vectors, shape (m, dim).  For dim == 1 it
    defaults to all grid nodes; for dim >= 2 it must be given (the full
    output would be prohibitively large).

    Returns (shifts, freq_axis, S) with S of shape (m,) + (N,)*dim, frequency
    bins ordered as grid.freq_axis() along every frequency axis.
    """
    fv = _f_values(f, grid)
    if shifts is None:
        if grid.dim != 1:
            raise ValueError("for dim >= 2 pass an explicit subset of shifts")
        shifts = grid.axis()[:, None]
    shifts = np.atleast_2d(np.asarray(shifts, dtype=float))
    if shifts.shape[1] != grid.dim:
        raise ValueError("shift vectors have the wrong dimension")

    mesh = grid.mesh()
    alt = _alternating_phase(grid)
    axes = tuple(range(1, grid.dim + 1))
    out = np.empty((shifts.shape[0],) + fv.shape, dtype=complex)
    for i, x in enumerate(shifts):
        gv = np.asarray(g(mesh - x), dtype=complex)
        if i == 0:
            _tail_check(fv * np.conj(gv), "dft_stft")
        spec = np.fft.fftshift(np.fft.fftn(fv * np.conj(gv)))
        for ax in axes:
            shape = [1] * (grid.dim + 1)
            shape[ax] = grid.points_per_axis
            spec = spec * alt.reshape(shape[1:])
        out[i] = spec
    out *= grid.cell_volume
    return shifts, grid.freq_axis(), out


def _tail_check(integrand, what):
    mags = np.abs(integrand)
    peak = mags.max()
    if peak == 0.0:
        return
    shell = np.zeros(mags.shape, dtype=bool)
    for ax in range(mags.ndim):
        idx = [slice(None)] * mags.ndim
        idx[ax] = 0
        shell[tuple(idx)] = True
        idx[ax] = -1
        shell[tuple(idx)] = True
    if mags[shell].max() > 1e-9 * peak:
        warnings.warn(
            f"{what}: boundary integrand is {mags[shell].max() / peak:.2e} of the peak; "
            "grid may be too small",
            TailMassWarning,
            stacklevel=3,
        )


def quad_rep_coefficient(rep, a, f, g, grid: GridSpec | None = None) -> complex:
    """Riemann-sum <f, pi(a) g> with pi applied pointwise from its displayed formula.

    Independent route: no Gaussian parameter composition, only pointwise
    evaluation of the phase and the affine argument map.
    """
    from .representations import pointwise_action

    if grid is None:
        grid = GridSpec.default_for(rep.acting_dim)
    phase, S, v = pointwise_action(rep, np.asarray(a, dtype=float))
    t = grid.mesh()
    arg = t @ S.T + v
    integrand = np.asarray(f(t), dtype=complex) * np.conj(phase(t) * np.asarray(g(arg), dtype=complex))
    _tail_check(integrand, "quad_rep_coefficient")
    return complex(grid.cell_volume * integrand.sum())


def logsumexp(values) -> float:
    """log(sum(exp(values))) over every entry, shifted by the maximum so nothing overflows."""
    values = np.asarray(values, dtype=float)
    peak = values.max()
    if not np.isfinite(peak):
        return float(peak)
    shifted = values - peak
    return float(peak + np.log(np.exp(shifted, out=shifted).sum()))
