"""Quasi-lattices in quotient groups and coherent-frame diagnostics.

A quasi-lattice is the set of descending ordered products
gamma(k) = e^{k_n eps X_n} ... e^{k_1 eps X_1}, k integer, in the quotient;
its tile K collects ascending products with coordinates in [-eps/2, eps/2)^n.
Because every mixed bracket in these groups lands in strictly lower
coordinates, each coordinate becomes exactly additive once the ones above it
are stripped, which makes exact tiling factorization and membership tests
possible in raw coordinates.  For the same reason a half-open box of width
(2m + 1) eps holds exactly 2m + 1 labels per axis, so the Beurling density
is read from one exactly enumerated box per centre, and the frame estimate's
lattice section is one such box at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gaussian import log_gauss_integrals, unit_gaussian
from .groups import GroupSpec, axis_point, inverse, multiply, project, section
from .numerics import _MAX_ENTRIES, WorkBudgetError, ceil_count, check_budget
from .representations import RepSpec, _stft_rep, act

__all__ = [
    "QuasiLattice",
    "quasilattice_points",
    "locate",
    "tiling_budget",
    "tiling_check",
    "density_box",
    "beurling_density",
    "FrameBounds",
    "frame_section",
    "frame_bounds_estimate",
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


def tiling_budget(lat: QuasiLattice, n_points: int) -> None:
    """Raise WorkBudgetError if tiling_check would draw more than _MAX_ENTRIES coordinates."""
    check_budget(n_points * lat.ndim, _MAX_ENTRIES, lambda: f"tiling check: coordinates of {n_points:,} points")


def tiling_check(lat: QuasiLattice, n_points: int = 10000, seed: int = 0) -> dict:
    """Random points of [-5, 5]^n must factor exactly and uniquely through the tiling.

    The factorization is re-verified through an independent route: rebuild
    gamma(k) and kappa(t) as group products and compare with the input.
    Uniqueness is spot-checked on 100 of the points by showing neighbouring
    lattice points put the same sample strictly outside the tile.
    """
    group, eps, n = lat.group, lat.eps, lat.ndim
    tiling_budget(lat, n_points)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-5.0, 5.0, (n_points, n))
    ks, ts, residual = locate(lat, pts)

    recon = project(group, multiply(group, _descending(lat, ks), _ascending(group, ts)))
    scale = max(1.0, float(np.abs(pts).max()))
    errs = np.abs(recon - pts).max(axis=-1) / scale
    in_tile = np.all((ts >= -eps / 2 - 1e-9) & (ts < eps / 2 + 1e-9), axis=-1)
    failures = int(np.count_nonzero((errs > 1e-8) | ~in_tile))

    sub = rng.choice(n_points, size=min(100, n_points), replace=False)
    steps = np.concatenate([np.eye(n, dtype=np.int64), -np.eye(n, dtype=np.int64)])
    k2 = ks[sub] + steps[:, None, :]  # the 2n neighbours of each sampled label, stacked
    t2 = _ordered(group, multiply(group, inverse(group, _descending(lat, k2)), section(group, pts[sub])))
    violations = int(np.count_nonzero(np.all((t2 > -eps / 2 + 1e-9) & (t2 < eps / 2 - 1e-9), axis=-1)))

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
        # gathered through the transpose, so the stack stays coordinate-major
        partial = _times_axis(group, partial.T.take(idx, axis=1).T, j, k_j * eps)
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


def density_box(lat: QuasiLattice) -> tuple[float, int, float]:
    """The half-width r, label count and volume of beurling_density's boxes.

    r = (m + 1/2) eps, with m = 16, 6 or 2 as the quotient dimension n is at
    most 2, at most 4, or more, so a box holds 2m + 1 labels per axis and
    (2m + 1)^n in all.  More than _MAX_ENTRIES labels in three boxes raise
    WorkBudgetError, checked first so that every run over the budget is
    refused as such, and then a volume past double range ValueError.
    """
    eps, n = lat.eps, lat.ndim
    m = 16 if n <= 2 else (6 if n <= 4 else 2)
    r = (m + 0.5) * eps
    count = (2 * m + 1) ** n
    check_budget(3 * count, _MAX_ENTRIES, lambda: f"density: lattice labels in three {n}-dimensional boxes")
    try:
        vol = (2.0 * r) ** n
    except OverflowError:
        vol = math.inf
    if not vol < math.inf:
        raise ValueError(f"the volume of a box of half-width {r:g} at spacing eps = {eps:g} is past double range")
    return r, count, vol


def beurling_density(lat: QuasiLattice, seed: int = 0) -> dict:
    """Counting density of the quasi-lattice from one half-open box per centre.

    The box center · [-r, r)^n of density_box sits at the origin and at two
    random centres, and the estimate, the smallest count over the volume, is
    eps^-n to rounding.  The count comes from the exact box enumeration;
    "verified" reports that every box holds exactly its (2m + 1)^n labels,
    that none repeats, and that every point, rebuilt from its label, lies in
    its box under the enumeration's tie rule (a coordinate down to 1e-12 eps
    below -r is inside).
    """
    group, eps, n = lat.group, lat.eps, lat.ndim
    r, count, vol = density_box(lat)
    rng = np.random.default_rng(seed)
    centers = np.vstack([np.zeros((1, n)), rng.uniform(-2.0, 2.0, (2, n))])
    inv_centers = inverse(group, section(group, centers))

    counts, verified = [], True
    for center, inv_center in zip(centers, inv_centers):
        ks = lattice_points_in_box(lat, center, r)
        counts.append(len(ks))
        rel = project(group, multiply(group, inv_center, _descending(lat, ks)))
        inside = bool(np.all((rel >= -r - 1e-12 * eps) & (rel < r)))
        verified = verified and len(ks) == count and inside and _distinct_rows(ks)
    return {"estimate": min(counts) / vol, "expected": float(eps ** (-n)), "verified": verified}


# ---------------------------------------------------------------------------
# finite-section frame bounds

@dataclass(frozen=True)
class FrameBounds:
    lower: float
    upper: float
    ratio: float
    n_atoms: int


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
# lattice points whose coefficients are formed at once: the frame Gram is
# accumulated over blocks, so the estimate's memory does not grow with the lattice
_BLOCK = 64
# bound on max(1, |lam|, |mu|) (1 + h)^3, h the half-width of the frame
# section: the factor tables are polynomials of degree at most 3 in a lattice
# coordinate, and act multiplies their values by at most 2 pi, which must stay
# in double range
_MAX_REACH = 1e306


@lru_cache(maxsize=4)
def _test_space(d: int, dict_halfrange: float, dict_step: float):
    """The test atoms and the whitened basis of their span, read-only.

    The atoms M_xi T_x phi, (x, xi) on a grid, are the H_d action at
    lambda = -1 on the unit Gaussian phi, so each is its (lin, log_amp).
    None of this depends on the lattice, so a sweep over eps builds it once,
    and frame_section checks its size.  Returns (lin, log_amp, basis), one
    row of lin per atom.
    """
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


def frame_section(
    rep: RepSpec, eps: float, lattice_radius: float, dict_halfrange: float, dict_step: float
) -> tuple[QuasiLattice, float]:
    """The lattice of frame_bounds_estimate and the half-width h of its section [-h, h)^n.

    h = (radius + 1/2) eps with radius = ceil(lattice_radius / eps), so the
    section holds exactly (2 radius + 1)^n labels and every budget is known
    from the settings.  More than _MAX_ENTRIES labels, test-space Gram
    entries or lattice-point x test-atom coefficients, or a box whose points
    carry the factors of pi past double range, raise WorkBudgetError.
    """
    lat = QuasiLattice(rep.group, eps)
    n = lat.ndim
    radius = ceil_count(lattice_radius / eps)
    labels = (2 * radius + 1) ** n
    check_budget(labels, _MAX_ENTRIES, lambda: f"frame bounds: lattice labels on a {n}-dimensional quotient")
    half = (radius + 0.5) * eps
    log_reach = math.log(max(1.0, abs(rep.lam), abs(rep.mu))) + 3.0 * math.log1p(half)
    if not log_reach <= math.log(_MAX_REACH):
        raise WorkBudgetError(
            f"frame bounds: lambda = {rep.lam:g} and mu = {rep.mu:g} over a lattice reach of "
            f"{half:g} carry the factors of pi past double range"
        )
    d = rep.acting_dim
    atoms = ceil_count((dict_halfrange + 0.5 * dict_step + dict_halfrange) / dict_step) ** (2 * d)
    check_budget(atoms * atoms, _MAX_ENTRIES, lambda: f"frame bounds: test-space Gram entries at d = {d}")
    check_budget(
        labels * atoms,
        _MAX_ENTRIES,
        lambda: f"frame bounds: Gram entries of {labels:,} lattice points x {atoms:,} test atoms",
    )
    return lat, half


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

    The lattice section is every lattice point of frame_section's box,
    enumerated by lattice_points_in_box once frame_section has checked
    every budget.  The frame
    Gram sum_gamma c_gamma^H c_gamma, with c_gamma the row of coefficients
    <psi_j, pi(gamma) g>, is accumulated over blocks of _BLOCK lattice
    points, so memory is O(_BLOCK J + J^2) for J test atoms whatever the
    lattice.
    """
    lat, half = frame_section(rep, eps, lattice_radius, dict_halfrange, dict_step)
    ks = lattice_points_in_box(lat, np.zeros(lat.ndim), half)
    gamma = quasilattice_points(lat, ks[np.lexsort(ks.T[::-1])])  # k_0 slowest, so the Gram sums in label-cube order
    g = unit_gaussian(rep.acting_dim)
    test_lin, test_amp, basis = _test_space(rep.acting_dim, dict_halfrange, dict_step)
    frame_gram = np.zeros((len(test_amp), len(test_amp)), dtype=complex)
    for start in range(0, len(gamma), _BLOCK):
        block = section(rep.group, gamma[start : start + _BLOCK])
        coeff = _coefficients(test_lin, test_amp, *act(rep, block, g.quad, g.lin, g.log_amp))
        frame_gram += coeff.conj().T @ coeff
    reduced = basis.conj().T @ frame_gram @ basis
    mu = np.linalg.eigvalsh(0.5 * (reduced + reduced.conj().T))
    lower, upper = float(mu.min()), float(mu.max())

    return FrameBounds(lower, upper, lower / max(upper, 1e-300), len(gamma))
