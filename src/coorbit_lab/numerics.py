"""Grid oracles: DFT-based short-time transforms and quadrature.

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
from typing import Callable

import numpy as np

__all__ = [
    "GridSpec",
    "TailMassWarning",
    "WorkBudgetError",
    "ceil_count",
    "check_budget",
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


def check_budget(count: int, budget: int, what: Callable[[], str]) -> None:
    """Raise WorkBudgetError naming the count unless count <= budget.

    count is an int, or inf when it is past float range; counts from 10^15
    up are named by their order of magnitude.  what() describes the work,
    and is formatted only for the error.
    """
    if count > budget:
        if count < 10**15:
            shown = f"{count:,}"
        else:
            shown = "more than 10^308" if count == math.inf else f"about 10^{math.log10(count):.0f}"
        raise WorkBudgetError(f"{what()}: {shown} exceeds the work budget of {budget:,}")


def ceil_count(x: float):
    """ceil(x) as an int, or inf when x is not finite: a count for check_budget."""
    return math.ceil(x) if math.isfinite(x) else math.inf


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


def _alternating_phase(grid):
    """Factor exp(-2 pi i xi_m t_k) splits off (-1)^m per axis for t at -L/2."""
    n = grid.points_per_axis
    m = np.arange(-n // 2, n // 2)
    return np.where(m % 2 == 0, 1.0, -1.0)


def dft_stft(f, g, grid: GridSpec, shifts):
    """Sampled short-time transform S(x, xi_m) = h^d sum_k f(t_k) conj(g(t_k - x)) e^{-2 pi i xi_m t_k}.

    f and g are callables on grid points, so shifted copies of the window
    are evaluated exactly (no periodic wrap).  shifts holds the translation
    vectors x, shape (m, dim).

    Returns (shifts, freq_axis, S) with S of shape (m,) + (N,)*dim, frequency
    bins ordered as grid.freq_axis() along every frequency axis.
    """
    shifts = np.atleast_2d(np.asarray(shifts, dtype=float))
    if shifts.shape[1] != grid.dim:
        raise ValueError("shift vectors have the wrong dimension")

    mesh = grid.mesh()
    fv = np.asarray(f(mesh), dtype=complex)
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


def quad_rep_coefficient(rep, a, f, g) -> complex:
    """Riemann-sum <f, pi(a) g> on the default grid, pi applied pointwise from its displayed formula.

    Independent route: no Gaussian parameter composition, only pointwise
    evaluation of the phase and the affine argument map.
    """
    from .representations import pointwise_action

    grid = GridSpec.default_for(rep.acting_dim)
    phase, S, v = pointwise_action(rep, np.asarray(a, dtype=float))
    t = grid.mesh()
    arg = t @ S.T + v
    integrand = np.asarray(f(t), dtype=complex) * np.conj(phase(t) * np.asarray(g(arg), dtype=complex))
    _tail_check(integrand, "quad_rep_coefficient")
    return complex(grid.cell_volume * integrand.sum())


def logsumexp(values, axis=None):
    """log(sum(exp(values))) over every entry (a float), or along axis (an array).

    The entries are shifted by their maximum so nothing overflows.  Where
    that maximum is not finite (-inf when there is no mass) it is the
    result, with no warning.
    """
    values = np.asarray(values, dtype=float)
    peak = values.max(axis=axis, keepdims=True)
    # entries under a non-finite maximum stay 0: they add log(count), which
    # that maximum absorbs, and no inf - inf is formed
    shifted = np.subtract(values, peak, out=np.zeros_like(values), where=np.isfinite(peak))
    total = np.squeeze(peak + np.log(np.exp(shifted, out=shifted).sum(axis=axis, keepdims=True)), axis=axis)
    return float(total) if axis is None else total
