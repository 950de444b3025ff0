"""Grids, the DFT oracle, work budgets and errors, and logsumexp.

GridSpec is a uniform periodic grid, and dft_stft the short-time transform
sampled on it by the FFT: functions are evaluated pointwise and integrals
are plain Riemann sums (which for smooth decaying integrands on a full
period converge spectrally), independent of the closed-form Gaussian
algebra they check.  The budget check and the errors are shared by every
layer, and logsumexp sums in logs without overflow.  This module imports
nothing from the package.
"""

from __future__ import annotations

import functools
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
        if not 0 < self.half_width < math.inf:
            raise ValueError("half_width must be finite and positive")
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
    """Factor exp(-2 pi i xi_m t_k) splits off (-1)^m per axis for t at -L/2:
    the product of those signs over the axes, shape (N,)*dim."""
    n = grid.points_per_axis
    alt = np.where(np.arange(-n // 2, n // 2) % 2 == 0, 1.0, -1.0)
    return functools.reduce(np.multiply.outer, [alt] * grid.dim)


def dft_stft(f, g, grid: GridSpec, x):
    """Sampled short-time transform S(x, xi_m) = h^d sum_k f(t_k) conj(g(t_k - x)) e^{-2 pi i xi_m t_k}.

    f and g are callables on grid points, so the shifted window is evaluated
    exactly (no periodic wrap); x is the translation vector, shape (dim,).

    Returns (freq_axis, S) with S of shape (N,)*dim, frequency bins ordered
    as grid.freq_axis() along every axis.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (grid.dim,):
        raise ValueError("the shift vector has the wrong dimension")
    mesh = grid.mesh()
    integrand = np.asarray(f(mesh), dtype=complex) * np.conj(np.asarray(g(mesh - x), dtype=complex))
    _tail_check(integrand, "dft_stft")
    spec = np.fft.fftshift(np.fft.fftn(integrand)) * _alternating_phase(grid)
    return grid.freq_axis(), spec * grid.cell_volume


def _tail_check(integrand, what):
    mags = np.abs(integrand)
    peak = mags.max()
    # the largest modulus on the grid's faces, the first and last slice along each axis
    edge = max(np.take(mags, end, axis=ax).max() for ax in range(mags.ndim) for end in (0, -1))
    if edge > 1e-9 * peak:
        warnings.warn(
            f"{what}: boundary integrand is {edge / peak:.2e} of the peak; "
            "grid may be too small",
            TailMassWarning,
            stacklevel=3,
        )


def logsumexp(values) -> float:
    """log(sum(exp(values))) over every entry.

    The entries are shifted by their maximum so nothing overflows.  Where
    that maximum is not finite (-inf when there is no mass) it is the
    result, with no warning.
    """
    values = np.asarray(values, dtype=float)
    peak = values.max()
    if not math.isfinite(peak):
        return float(peak)
    shifted = np.subtract(values, peak)
    return float(peak + np.log(np.exp(shifted, out=shifted).sum()))
