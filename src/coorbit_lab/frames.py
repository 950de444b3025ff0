"""Quasi-lattices in quotient groups and coherent-frame diagnostics.

A quasi-lattice is the set of descending ordered products
gamma(k) = e^{k_n eps X_n} ... e^{k_1 eps X_1}, k integer, in the quotient;
its tile K collects ascending products with coordinates in [-eps/2, eps/2)^n.
Because every mixed bracket in these groups lands in strictly lower
coordinates, each coordinate becomes exactly additive once the ones above it
are stripped, which makes exact tiling factorization and membership tests
possible in raw coordinates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gaussian import Gaussian, log_gauss_integrals, modulate, translate, unit_gaussian
from .groups import GroupSpec, axis_point, inverse, multiply, project, section
from .numerics import GridSpec, TailMassWarning, WorkBudgetError, ceil_count, check_budget
from .representations import RepSpec, _stft_rep, act, default_window

__all__ = [
    "QuasiLattice",
    "quasilattice_points",
    "ascending_point",
    "ordered_coords",
    "locate",
    "tiling_check",
    "beurling_density",
    "FrameBounds",
    "frame_bounds_estimate",
    "dual_window_estimate",
]


@dataclass(frozen=True)
class QuasiLattice:
    group: GroupSpec
    eps: float

    def __post_init__(self):
        if not (self.eps > 0 and math.isfinite(self.eps)):
            raise ValueError("eps must be finite and positive")

    @property
    def ndim(self) -> int:
        return self.group.quotient_dim


# The routines below run in full group coordinates: they lift their stack
# once, chain multiply with axis elements, and project once at the end.  No
# law reads a central coordinate into a noncentral one, so the quotient
# coordinates come out bit for bit as a quotient_multiply per step would give
# them.

def _times_axis(group: GroupSpec, w, j: int, t) -> np.ndarray:
    """w e^{t X_j} for a full-coordinate stack w and quotient axis j."""
    return multiply(group, w, axis_point(group.total_dim, group.noncenter_indices[j], t))


def _descending(lat: QuasiLattice, ks) -> np.ndarray:
    """gamma(k) in full coordinates, central part as the chain leaves it."""
    group, eps, n = lat.group, lat.eps, lat.ndim
    w = axis_point(group.total_dim, group.noncenter_indices[n - 1], ks[..., n - 1] * eps)
    for j in range(n - 2, -1, -1):
        w = _times_axis(group, w, j, ks[..., j] * eps)
    return w


def _ascending(group: GroupSpec, ts) -> np.ndarray:
    """e^{t_1 X_1} ... e^{t_n X_n} in full coordinates."""
    w = axis_point(group.total_dim, group.noncenter_indices[0], ts[..., 0])
    for j in range(1, group.quotient_dim):
        w = _times_axis(group, w, j, ts[..., j])
    return w


def _ordered(group: GroupSpec, w) -> np.ndarray:
    """The ascending coordinates of a full-coordinate stack w, peeled from the top down."""
    out = np.empty(w.shape[:-1] + (group.quotient_dim,))
    for j in range(group.quotient_dim - 1, -1, -1):
        out[..., j] = w[..., group.noncenter_indices[j]]
        w = _times_axis(group, w, j, -out[..., j])
    return out


def quasilattice_points(lat: QuasiLattice, ks) -> np.ndarray:
    """gamma(k) for integer arrays k of shape (..., n): descending products."""
    ks = np.asarray(ks, dtype=float)
    if ks.shape[-1] != lat.ndim:
        raise ValueError(f"expected trailing dimension {lat.ndim}")
    return project(lat.group, _descending(lat, ks))


def ascending_point(group: GroupSpec, ts) -> np.ndarray:
    """e^{t_1 X_1} ... e^{t_n X_n} in the quotient, batched over leading axes."""
    return project(group, _ascending(group, np.asarray(ts, dtype=float)))


def ordered_coords(group: GroupSpec, w) -> np.ndarray:
    """Invert ascending_point: peel coordinates from the top down."""
    return _ordered(group, section(group, w))


def _labels(x, eps: float, box: float) -> np.ndarray:
    """x / eps, checked to be finite and well inside int64, as lattice labels must be.

    Raises ValueError naming the spacing and the box otherwise, before any
    cast to int64 could warn or wrap.
    """
    with np.errstate(over="ignore"):
        k = x / eps
    if not np.all(np.abs(k) < 2.0**62):
        raise ValueError(
            f"lattice labels at spacing eps = {eps:g} in a box of half-width {box:g} "
            "are not finite or exceed the int64 range"
        )
    return k


def locate(lat: QuasiLattice, points):
    """Factor each point as gamma(k) * kappa(t) with t in the half-open tile.

    Strips both sides of the word one coordinate at a time, top index first;
    at each stage the active coordinate is exactly additive, so k comes from
    plain rounding.  Returns (k, t, residual) with residual the largest
    leftover coordinate after full stripping (should be at float level).
    """
    group, eps, n = lat.group, lat.eps, lat.ndim
    w = section(group, points)
    box = float(np.abs(w).max(initial=0.0))
    ks = np.empty(w.shape[:-1] + (n,))
    ts = np.empty_like(ks)
    for j in range(n - 1, -1, -1):
        wj = w[..., group.noncenter_indices[j]]
        kj = np.floor(_labels(wj, eps, box) + 0.5)
        tj = wj - kj * eps
        ks[..., j] = kj
        ts[..., j] = tj
        step = axis_point(group.total_dim, group.noncenter_indices[j], -kj * eps)
        w = multiply(group, step, _times_axis(group, w, j, -tj))
    return ks.astype(np.int64), ts, float(np.abs(project(group, w)).max())


def tiling_check(lat: QuasiLattice, n_points: int = 10000, seed: int = 0) -> dict:
    """Random points of [-5, 5]^n must factor exactly and uniquely through the tiling.

    The factorization is re-verified through an independent route: rebuild
    gamma(k) and kappa(t) as group products and compare with the input.
    Uniqueness is spot-checked on 100 of the points by showing neighbouring
    lattice points put the same sample strictly outside the tile.
    """
    rng = np.random.default_rng(seed)
    group, eps, n = lat.group, lat.eps, lat.ndim
    pts = rng.uniform(-5.0, 5.0, (n_points, n))
    ks, ts, residual = locate(lat, pts)

    recon = project(group, multiply(group, _descending(lat, ks), _ascending(group, ts)))
    scale = max(1.0, float(np.abs(pts).max()))
    errs = np.abs(recon - pts).max(axis=-1) / scale
    in_tile = np.all((ts >= -eps / 2 - 1e-9) & (ts < eps / 2 + 1e-9), axis=-1)
    failures = int(np.count_nonzero((errs > 1e-8) | ~in_tile))

    sub = rng.choice(n_points, size=min(100, n_points), replace=False)
    violations = 0
    for j in range(n):
        for sign in (1, -1):
            k2 = ks[sub].copy()
            k2[:, j] += sign
            t2 = _ordered(group, multiply(group, inverse(group, _descending(lat, k2)), section(group, pts[sub])))
            strictly_inside = np.all((t2 > -eps / 2 + 1e-9) & (t2 < eps / 2 - 1e-9), axis=-1)
            violations += int(np.count_nonzero(strictly_inside))

    return {
        "n_points": n_points,
        "failures": failures,
        "max_reconstruction_error": float(errs.max()),
        "max_residual": residual,
        "neighbor_violations": violations,
        "ok": failures == 0 and violations == 0 and residual < 1e-8 * scale,
    }


def lattice_points_in_box(lat: QuasiLattice, center, r: float) -> np.ndarray:
    """Integer labels of every lattice point inside center · [-r, r)^n, exactly.

    Works down the descending product one axis at a time.  The partial
    product carries factors at strictly higher axes only, so appending
    e^{k eps X_j} sets ordered coordinate j to (current value + k eps) and
    later factors never touch it again.  The admissible integer range per
    axis is therefore exact; no enumeration margin is involved, and the
    polynomial shear of the lower coordinates is followed automatically.
    """
    group, eps, n = lat.group, lat.eps, lat.ndim
    partial = inverse(group, section(group, np.reshape(center, (1, n))))
    ks = np.zeros((1, 0), dtype=np.int64)
    for j in reversed(range(n)):
        w = partial[:, group.noncenter_indices[j]]
        lo = np.ceil(_labels(-r - w, eps, r) - 1e-12).astype(np.int64)
        hi = np.ceil(_labels(r - w, eps, r) - 1e-12).astype(np.int64) - 1  # strict: w + k eps < r
        cnt = np.maximum(hi - lo + 1, 0)
        idx = np.repeat(np.arange(len(partial)), cnt)
        starts = np.concatenate([[0], np.cumsum(cnt)[:-1]])
        offsets = np.arange(int(cnt.sum())) - np.repeat(starts, cnt)
        k_j = lo[idx] + offsets
        partial = _times_axis(group, partial[idx], j, k_j * eps)  # the gather keeps the columns contiguous
        ks = np.column_stack([ks[idx], k_j])
    return ks[:, ::-1]


def _distinct_rows(ks) -> bool:
    """Whether the integer rows of ks are pairwise distinct.

    Each row becomes one int64 key in mixed radix (digit j is k_j minus its
    minimum, radix the span of column j), so one flat sort decides.
    """
    if len(ks) == 0:
        return True
    lo = ks.min(axis=0)
    span = ks.max(axis=0) - lo + 1
    if math.prod(int(s) for s in span) > np.iinfo(np.int64).max:
        raise OverflowError("lattice labels span more keys than int64 holds")
    radix = np.concatenate([np.cumprod(span[:0:-1])[::-1], [1]])
    keys = np.sort((ks - lo) @ radix)
    return not np.any(keys[1:] == keys[:-1])


def beurling_density(lat: QuasiLattice, seed: int = 0) -> dict:
    """Counting density of the quasi-lattice from half-open coordinate boxes.

    Box radii are r = (m + 1/2) eps so that an aligned abelian lattice counts
    without boundary bias, with m in (4, 8, 16), (2, 4, 6) or (1, 2) as the
    quotient dimension n is at most 2, at most 4, or more; the boxes sit at
    the origin and at two random centers.  The headline estimate takes the
    worst (smallest) center at the largest radius.  Counts come from the
    exact box enumeration, re-verified here by rebuilding each point from
    its label and testing membership independently.
    """
    group, eps, n = lat.group, lat.eps, lat.ndim
    m_values = (4, 8, 16) if n <= 2 else ((2, 4, 6) if n <= 4 else (1, 2))
    rng = np.random.default_rng(seed)
    centers = np.vstack([np.zeros((1, n)), rng.uniform(-2.0, 2.0, (2, n))])
    inv_centers = inverse(group, section(group, centers))

    counts = np.zeros((len(centers), len(m_values)), dtype=np.int64)
    verified = True
    for ci in range(len(centers)):
        for mi, m in enumerate(m_values):
            r = (m + 0.5) * eps
            ks = lattice_points_in_box(lat, centers[ci], r)
            counts[ci, mi] = len(ks)
            rel = project(group, multiply(group, inv_centers[ci : ci + 1], _descending(lat, ks)))
            inside = np.all((rel >= -r) & (rel < r), axis=-1)
            if not inside.all() or not _distinct_rows(ks):
                verified = False
    if not verified:
        warnings.warn(
            "beurling_density: box enumeration disagrees with the rebuilt points",
            TailMassWarning,
            stacklevel=2,
        )
    by_radius = {}
    for mi, m in enumerate(m_values):
        vol = (2.0 * (m + 0.5) * eps) ** n
        dens = counts[:, mi] / vol
        by_radius[m] = {"min": float(dens.min()), "max": float(dens.max())}
    estimate = by_radius[m_values[-1]]["min"]
    return {
        "estimate": float(estimate),
        "expected": float(eps ** (-n)),
        "by_radius": by_radius,
        "verified": verified,
    }


# ---------------------------------------------------------------------------
# finite-section frame bounds

@dataclass(frozen=True)
class FrameBounds:
    lower: float
    upper: float
    ratio: float
    n_atoms: int
    n_test: int
    diagnostics: dict


def _coefficients(test_lin, test_amp, quad, lin, log_amp) -> np.ndarray:
    """<psi_j, h_k> = integral of psi_j conj(h_k) in closed form, shape (K, J).

    h_k = exp(log_amp - pi t.(quad)t + lin.t) are stacked, quad (K, d, d);
    the test atoms psi_j carry the unit form and differ only in (test_lin,
    test_amp).  So row k is one form with J right-hand sides.  An exponent
    whose real part overflows to -inf gives an exact zero; any other
    non-finite entry raises ValueError.
    """
    form = np.conj(quad) + np.eye(quad.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        logs = log_gauss_integrals(form, np.conj(lin)[:, None, :] + test_lin, np.conj(log_amp)[:, None] + test_amp)
        out = np.exp(logs)
    out[logs.real == -np.inf] = 0.0
    if not np.all(np.isfinite(out)):
        raise ValueError("frame bounds: a Gram entry overflows; the exponents exceed double range")
    return out


# test-space Gram eigenvalues kept, relative to the largest: the cut that
# keeps near-dependent atoms from faking a collapsed lower bound
_GRAM_CUT = 1e-8
# entries in any one array of the frame estimate: the lattice labels, the Gram
# entries (lattice points x test atoms) and the test-space Gram entries
_MAX_ENTRIES = 1 << 24
# bound on max(1, |lam|, |mu|) (1 + lattice_radius + eps)^3: the factor tables
# are polynomials of degree at most 3 in a lattice coordinate, and act
# multiplies their values by at most 2 pi, which must stay in double range
_MAX_REACH = 1e306


@lru_cache(maxsize=4)
def _test_space(d: int, dict_halfrange: float, dict_step: float):
    """The test atoms and the whitened basis of their span, read-only.

    The atoms M_xi T_x phi, (x, xi) on a grid, are the H_d action at
    lambda = -1 on the unit Gaussian phi, so each is its (lin, log_amp).
    None of this depends on the lattice, so a sweep over eps builds it once.
    Returns (lin, log_amp, basis), one row of lin per atom.
    """
    atoms = ceil_count((dict_halfrange + 0.5 * dict_step + dict_halfrange) / dict_step) ** (2 * d)
    check_budget(atoms * atoms, _MAX_ENTRIES, f"frame bounds: test-space Gram entries at d = {d}")
    offs = np.arange(-dict_halfrange, dict_halfrange + 0.5 * dict_step, dict_step)
    stft = _stft_rep(d)
    z = np.stack(np.meshgrid(*([offs] * (2 * d)), indexing="ij"), axis=-1).reshape(-1, 2 * d)
    phi = unit_gaussian(d)
    quad, lin, log_amp = act(stft, section(stft.group, z), phi.quad, phi.lin, phi.log_amp)

    test_gram = _coefficients(lin, log_amp, quad, lin, log_amp)
    evals, evecs = np.linalg.eigh(test_gram)
    keep = evals > _GRAM_CUT * float(evals.max())
    basis = evecs[:, keep] / np.sqrt(evals[keep])
    for arr in (lin, log_amp, basis):
        arr.flags.writeable = False
    return lin, log_amp, basis


def frame_bounds_estimate(
    rep: RepSpec,
    eps: float = 0.5,
    lattice_radius: float = 6.0,
    dict_halfrange: float = 4.0,
    dict_step: float = 0.5,
) -> FrameBounds:
    """Rayleigh-quotient bounds of the frame operator of the default window on a test space.

    The test space is spanned by phase-space shifted Gaussians (positions and
    frequencies on a grid), which probes both coordinates of the time-
    frequency plane; its Gram matrix is eigenvalue-truncated before the
    generalized eigenproblem so near-dependent atoms cannot fake a collapsed
    lower bound.  Both Gram matrices are Gaussian integrals in closed form.
    The test space depends only on the dimension and the dictionary
    settings, and is built once per such setting.

    Settings that ask for more than _MAX_ENTRIES labels or Gram entries, or
    whose lattice points would carry the factors of pi past double range,
    raise WorkBudgetError before anything is allocated.
    """
    g = default_window(rep)
    d = rep.acting_dim
    lat = QuasiLattice(rep.group, eps)
    n = lat.ndim
    log_reach = math.log(max(1.0, abs(rep.lam), abs(rep.mu))) + 3.0 * math.log1p(lattice_radius + eps)
    if not log_reach <= math.log(_MAX_REACH):
        raise WorkBudgetError(
            f"frame bounds: lambda = {rep.lam:g} and mu = {rep.mu:g} over a lattice reach of "
            f"{lattice_radius + eps:g} carry the factors of pi past double range"
        )

    radius = ceil_count(lattice_radius / eps)
    check_budget((2 * radius + 1) ** n, _MAX_ENTRIES, f"frame bounds: lattice labels on a {n}-dimensional quotient")
    ks = np.stack(np.meshgrid(*([np.arange(-radius, radius + 1)] * n), indexing="ij"), axis=-1).reshape(-1, n)
    gamma = quasilattice_points(lat, ks)
    gamma = gamma[np.all(np.abs(gamma) <= lattice_radius + eps, axis=-1)]

    test_lin, test_amp, basis = _test_space(d, dict_halfrange, dict_step)
    check_budget(
        len(gamma) * len(test_amp),
        _MAX_ENTRIES,
        f"frame bounds: Gram entries of {len(gamma):,} lattice points x {len(test_amp):,} test atoms",
    )
    coeff = _coefficients(test_lin, test_amp, *act(rep, section(rep.group, gamma), g.quad, g.lin, g.log_amp))
    frame_gram = coeff.conj().T @ coeff
    reduced = basis.conj().T @ frame_gram @ basis
    mu = np.linalg.eigvalsh(0.5 * (reduced + reduced.conj().T))
    lower, upper = float(mu.min()), float(mu.max())

    diagnostics = {"test_rank": int(basis.shape[1]), "eps": eps}
    return FrameBounds(lower, upper, lower / max(upper, 1e-300), len(gamma), len(test_amp), diagnostics)


# ---------------------------------------------------------------------------
# dual windows on the periodized line (Heisenberg case)

def dual_window_estimate(eps: float = 0.5) -> dict:
    """Canonical dual window of the periodized Gabor system on the line.

    The Heisenberg lattice at lambda = 1 with spacing eps acts by rolls and
    modulations on the default periodic grid, so the whole frame operator S
    is assembled from one sampled window, the unit Gaussian g.  The system is
    a frame (converged) when the smallest eigenvalue of S exceeds 1e-10 of
    the largest; a dense solve of S gamma = g gives the dual, and
    reconstruction residuals on five random Gaussians confirm that it
    behaves like one.
    """
    grid = GridSpec.default_for(1)
    g = unit_gaussian(1)
    h = grid.step
    period = 2.0 * grid.half_width
    n_pts = grid.points_per_axis

    shift = eps / h
    if abs(shift - round(shift)) > 1e-9:
        raise ValueError("eps must be an integer multiple of the grid step")
    shift = int(round(shift))
    if n_pts % shift != 0:
        raise ValueError("the shift must divide the grid size")
    if abs(eps * period - round(eps * period)) > 1e-9:
        raise ValueError("eps * period must be an integer for periodic modulations")
    n_time = n_pts // shift
    n_freq = 1.0 / (h * eps)
    if abs(n_freq - round(n_freq)) > 1e-9:
        raise ValueError("1 / (step * eps) must be an integer")
    n_freq = int(round(n_freq))

    t = grid.axis()
    g_samp = np.asarray(g(t), dtype=complex)
    rolls = np.stack([np.roll(g_samp, k * shift) for k in range(n_time)], axis=1)
    freqs = (np.arange(n_freq) - n_freq // 2) * eps
    mods = np.exp(2j * np.pi * t[:, None] * freqs[None, :])
    v_cols = (rolls[:, :, None] * mods[:, None, :]).reshape(n_pts, -1)

    frame_op = h * (v_cols @ v_cols.conj().T)
    spectrum = np.linalg.eigvalsh(frame_op)
    converged = spectrum[0] > 1e-10 * spectrum[-1]
    dual = np.linalg.solve(frame_op, g_samp)

    rolls_d = np.stack([np.roll(dual, k * shift) for k in range(n_time)], axis=1)
    vd_cols = (rolls_d[:, :, None] * mods[:, None, :]).reshape(n_pts, -1)

    rng = np.random.default_rng(0)
    residuals = []
    for _ in range(5):
        test = modulate(
            translate(Gaussian(rng.uniform(0.7, 1.8)), rng.uniform(-2, 2)), rng.uniform(-2, 2)
        )
        f_samp = np.asarray(test(t), dtype=complex)
        coeffs = h * (v_cols.conj().T @ f_samp)
        f_rec = vd_cols @ coeffs
        residuals.append(float(np.linalg.norm(f_rec - f_samp) / np.linalg.norm(f_samp)))

    overlap = complex(np.vdot(g_samp, dual) / np.vdot(g_samp, g_samp))
    snugness = float(np.linalg.norm(dual - overlap * g_samp) / np.linalg.norm(dual))
    return {
        "eps": eps,
        "converged": bool(converged),
        "dual": dual,
        "residuals": residuals,
        "max_residual": float(max(residuals)),
        "snugness": snugness,
        "frame_like": bool(converged and max(residuals) < 1e-3),
        "n_columns": int(v_cols.shape[1]),
    }
