"""Quasi-lattices, densities, and finite-section frame diagnostics."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from coorbit_lab import frames
from coorbit_lab.frames import (
    _BLOCK,
    QuasiLattice,
    _coefficients,
    _distinct_rows,
    _test_space,
    beurling_density,
    frame_bounds_estimate,
    lattice_points_in_box,
    locate,
    quasilattice_points,
    tiling_check,
)
from coorbit_lab.gaussian import Gaussian
from coorbit_lab.groups import GROUPS, group_spec, inverse, multiply, project, quotient_multiply, section
from coorbit_lab.oracles import quad_rep_coefficient
from coorbit_lab.representations import RepSpec, act, default_window

ALL_SPECS = [group_spec(n, 1) for n in GROUPS]
SIX_SPECS = ALL_SPECS + [group_spec("heisenberg", 2)]


def _quotient_inverse(spec, q):
    return project(spec, inverse(spec, section(spec, q)))


def ascending_point(group, ts):
    """e^{t_1 X_1} ... e^{t_n X_n} in the quotient, through the frame layer's full-coordinate chain."""
    return project(group, frames._ascending(group, np.asarray(ts, dtype=float)))


def ordered_coords(group, w):
    """Invert ascending_point through the frame layer's full-coordinate peel."""
    return frames._ordered(group, section(group, w))


def test_quasilattice_points_against_manual_product():
    lat = QuasiLattice(group_spec("g5_3"), 0.5)
    ks = np.array([[1, -2, 3, 2]])
    got = quasilattice_points(lat, ks)[0]
    # descending product, one axis at a time
    acc = np.zeros(4)
    for j in (3, 2, 1, 0):
        step = np.zeros(4)
        step[j] = ks[0, j] * lat.eps
        acc = quotient_multiply(lat.group, acc, step)
    assert np.allclose(got, acc)


def test_locate_round_trip():
    rng = np.random.default_rng(0)
    for spec in ALL_SPECS:
        lat = QuasiLattice(spec, 0.6)
        w = rng.uniform(-4, 4, (200, spec.quotient_dim))
        ks, ts, residual = locate(lat, w)
        assert residual < 1e-10
        rebuilt = quotient_multiply(spec, quasilattice_points(lat, ks), ascending_point(spec, ts))
        assert np.abs(rebuilt - w).max() < 1e-10
        assert np.all(np.abs(ts) <= lat.eps / 2 + 1e-12)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=GROUPS)
def test_tiling(spec):
    res = tiling_check(QuasiLattice(spec, 0.75), n_points=2000, seed=0)
    assert res["ok"], res


def test_tiling_other_mesh_size():
    res = tiling_check(QuasiLattice(group_spec("heisenberg", 2), 1.3), n_points=1000, seed=1)
    assert res["ok"], res


def test_box_enumeration_against_integer_scan():
    # independent oracle: scan a generous cube of integer labels directly
    lat = QuasiLattice(group_spec("g5_3"), 0.8)
    center = np.array([0.3, -0.6, 0.2, 0.9])
    r = 2.5 * lat.eps
    got = lattice_points_in_box(lat, center, r)
    axis = np.arange(-12, 13)
    ks = np.stack(np.meshgrid(axis, axis, axis, axis, indexing="ij"), -1).reshape(-1, 4)
    gamma = quasilattice_points(lat, ks)
    rel = quotient_multiply(lat.group, np.broadcast_to(_quotient_inverse(lat.group, center), gamma.shape), gamma)
    inside = np.all((rel >= -r) & (rel < r), axis=-1)
    want = ks[inside]
    order = lambda arr: arr[np.lexsort(arr.T[::-1])]
    assert np.array_equal(order(got), order(want))


# ---------------------------------------------------------------------------
# The row-major quotient chains the lattice routines ran before they moved to
# full group coordinates: a lift, a law and a projection per axis step.  They
# are kept here as the reference the routines must match bit for bit.

def _row_lift(spec, q):
    out = np.zeros(q.shape[:-1] + (spec.total_dim,))
    out[..., list(spec.noncenter_indices)] = q
    return out


def _row_mul(spec, qa, qb):
    return multiply(spec, _row_lift(spec, qa), _row_lift(spec, qb))[..., list(spec.noncenter_indices)]


def _row_axis(n, j, t):
    out = np.zeros(np.shape(t) + (n,))
    out[..., j] = t
    return out


def _reference_quasilattice_points(lat, ks):
    ks = np.asarray(ks, dtype=float)
    n = lat.ndim
    w = _row_axis(n, n - 1, ks[..., n - 1] * lat.eps)
    for j in range(n - 2, -1, -1):
        w = _row_mul(lat.group, w, _row_axis(n, j, ks[..., j] * lat.eps))
    return w


def _reference_ascending_point(group, ts):
    n = group.quotient_dim
    w = _row_axis(n, 0, ts[..., 0])
    for j in range(1, n):
        w = _row_mul(group, w, _row_axis(n, j, ts[..., j]))
    return w


def _reference_ordered_coords(group, w):
    n = group.quotient_dim
    out = np.empty_like(w)
    for j in range(n - 1, -1, -1):
        out[..., j] = w[..., j]
        w = _row_mul(group, w, _row_axis(n, j, -out[..., j]))
    return out


def _reference_locate(lat, w):
    group, eps, n = lat.group, lat.eps, lat.ndim
    ks, ts = np.empty_like(w), np.empty_like(w)
    for j in range(n - 1, -1, -1):
        kj = np.floor(w[..., j] / eps + 0.5)
        tj = w[..., j] - kj * eps
        ks[..., j], ts[..., j] = kj, tj
        w = _row_mul(group, _row_axis(n, j, -kj * eps), _row_mul(group, w, _row_axis(n, j, -tj)))
    return ks.astype(np.int64), ts, float(np.abs(w).max())


def _reference_lattice_points_in_box(lat, center, r):
    group, eps, n = lat.group, lat.eps, lat.ndim
    partial = inverse(group, _row_lift(group, center))[list(group.noncenter_indices)].reshape(1, n)
    ks = np.zeros((1, 0), dtype=np.int64)
    for j in reversed(range(n)):
        w = partial[:, j]
        lo = np.ceil((-r - w) / eps - 1e-12).astype(np.int64)
        hi = np.ceil((r - w) / eps - 1e-12).astype(np.int64) - 1
        cnt = np.maximum(hi - lo + 1, 0)
        idx = np.repeat(np.arange(len(partial)), cnt)
        starts = np.concatenate([[0], np.cumsum(cnt)[:-1]])
        k_j = lo[idx] + np.arange(int(cnt.sum())) - np.repeat(starts, cnt)
        partial = _row_mul(group, partial[idx], _row_axis(n, j, k_j * eps))
        ks = np.column_stack([ks[idx], k_j])
    return ks[:, ::-1]


def _same_bits(got, want) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and (
        np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
    )


@pytest.mark.parametrize(
    "spec", SIX_SPECS, ids=[s.name + str(s.total_dim // 2 if s.name == "heisenberg" else 0) for s in SIX_SPECS]
)
def test_full_coordinate_chains_match_the_row_major_quotient_chains(spec):
    rng = np.random.default_rng(21)
    n = spec.quotient_dim
    lat = QuasiLattice(spec, 0.6)
    ks = rng.integers(-6, 7, (300, n))
    ts = rng.uniform(-3, 3, (300, n))
    w = rng.uniform(-4, 4, (300, n))
    assert _same_bits(quasilattice_points(lat, ks), _reference_quasilattice_points(lat, ks))
    assert _same_bits(ascending_point(spec, ts), _reference_ascending_point(spec, ts))
    assert _same_bits(ordered_coords(spec, w), _reference_ordered_coords(spec, w))
    got, want = locate(lat, w), _reference_locate(lat, w)
    assert all(_same_bits(x, y) for x, y in zip(got[:2], want[:2])) and got[2] == want[2]
    center, r = rng.uniform(-1, 1, n), 2.3 * lat.eps
    assert _same_bits(lattice_points_in_box(lat, center, r), _reference_lattice_points_in_box(lat, center, r))


def test_box_enumeration_abelian_count():
    lat = QuasiLattice(group_spec("heisenberg", 1), 0.5)
    ks = lattice_points_in_box(lat, np.zeros(2), (4 + 0.5) * lat.eps)
    assert len(ks) == 9 * 9


@pytest.mark.parametrize("eps", [1.0, 0.5])
def test_density_is_exact_for_heisenberg(eps):
    d = beurling_density(QuasiLattice(group_spec("heisenberg", 1), eps))
    assert d["verified"]
    assert d["estimate"] == pytest.approx(eps**-2, rel=1e-12)


def test_density_halving_quadruples():
    lat1 = beurling_density(QuasiLattice(group_spec("heisenberg", 1), 1.0))
    lat2 = beurling_density(QuasiLattice(group_spec("heisenberg", 1), 0.5))
    assert lat2["estimate"] == pytest.approx(4 * lat1["estimate"], rel=1e-12)


def test_density_on_a_sheared_group():
    d = beurling_density(QuasiLattice(group_spec("g6_19"), 0.75))
    assert d["verified"]
    assert d["estimate"] == pytest.approx(0.75**-4, rel=1e-12)


# the 21 round spacings from 0.10 to 2.00 at which a rebuild test without the
# enumeration's tie rule rejects exact boundary points of g5_3 and g6_19 (seed 0)
_BOUNDARY_SPACINGS = (
    0.1, 0.3, 0.35, 0.55, 0.65, 0.7, 0.85, 0.9, 0.95, 1.05, 1.1,
    1.15, 1.3, 1.35, 1.45, 1.55, 1.65, 1.7, 1.85, 1.9, 1.95,
)


@pytest.mark.parametrize("name", ["g5_3", "g6_19"])
def test_density_verifies_points_on_the_box_boundary(name):
    # at eps = 0.3 labels (-14, -6, -5, -5) give a sheared coordinate of
    # exactly -r = -6.5 eps, which the float rebuild puts one ulp below -r
    lat = QuasiLattice(group_spec(name), 0.3)
    r = 6.5 * lat.eps
    assert quasilattice_points(lat, lattice_points_in_box(lat, np.zeros(4), r)).min() < -r
    assert [eps for eps in _BOUNDARY_SPACINGS if not beurling_density(QuasiLattice(lat.group, eps))["verified"]] == []


@pytest.mark.parametrize("spec", ALL_SPECS, ids=GROUPS)
def test_density_counts_one_exact_box_per_centre(spec, monkeypatch):
    counts = []

    def counting(lat, center, r):
        ks = lattice_points_in_box(lat, center, r)
        counts.append(len(ks))
        return ks

    monkeypatch.setattr(frames, "lattice_points_in_box", counting)
    n = spec.quotient_dim
    m = 16 if n <= 2 else (6 if n <= 4 else 2)
    d = beurling_density(QuasiLattice(spec, 0.75))
    assert counts == [(2 * m + 1) ** n] * 3
    assert sorted(d) == ["estimate", "expected", "verified"]
    assert d["verified"] and d["estimate"] == pytest.approx(d["expected"], rel=1e-12)


def test_tiling_check_stacks_every_neighbour_in_one_pass(monkeypatch):
    shapes = []

    def recording(lat, ks):
        shapes.append(ks.shape)
        return descending(lat, ks)

    descending = frames._descending
    monkeypatch.setattr(frames, "_descending", recording)
    assert tiling_check(QuasiLattice(group_spec("g5_3"), 0.75), n_points=300, seed=0)["ok"]
    assert shapes == [(300, 4), (8, 100, 4)]  # the rebuild, then all 2n neighbours


def test_box_enumeration_hands_the_law_coordinate_major_stacks(monkeypatch):
    layouts = []

    def recording(group, w, j, t):
        layouts.append(w.flags.f_contiguous)
        return times_axis(group, w, j, t)

    times_axis = frames._times_axis
    monkeypatch.setattr(frames, "_times_axis", recording)
    for spec in ALL_SPECS:
        lattice_points_in_box(QuasiLattice(spec, 0.75), np.full(spec.quotient_dim, 0.4), 3.1)
    assert len(layouts) == sum(spec.quotient_dim for spec in ALL_SPECS) and all(layouts)


def test_distinct_rows_uses_one_key_per_row():
    rng = np.random.default_rng(0)
    ks = np.unique(rng.integers(-40, 40, (500, 4)), axis=0)
    assert _distinct_rows(ks)
    assert _distinct_rows(ks[::-1])
    assert not _distinct_rows(np.vstack([ks, ks[17:18]]))
    assert _distinct_rows(np.zeros((0, 4), dtype=np.int64))
    # a key range of 2^62 fits in int64, one of 2^64 does not
    assert _distinct_rows(np.array([[0, 0], [2**31, 2**31 - 2]]))
    with pytest.raises(OverflowError):
        _distinct_rows(np.array([[0, 0], [2**32, 2**32]]))


@pytest.mark.parametrize("eps,point", [(1e-300, 1.0), (1e-20, 1.0), (1e-300, 1e10)], ids=["huge", "past-int64", "inf"])
def test_labels_beyond_int64_raise_without_a_cast_warning(eps, point):
    # 1e10 / 1e-300 overflows to inf; the others are finite but do not fit int64
    lat = QuasiLattice(group_spec("heisenberg", 1), eps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"spacing eps = {eps:g} in a box of half-width {point:g} ")):
            locate(lat, np.full((3, 2), point))
        with pytest.raises(ValueError, match=re.escape(f"spacing eps = {eps:g} in a box of half-width 1 ")):
            lattice_points_in_box(lat, np.full(2, point), 1.0)


def test_frame_bounds_on_a_comfortable_frame():
    rep = RepSpec(group_spec("heisenberg", 1), 1.0)
    fb = frame_bounds_estimate(rep, eps=0.5)
    assert fb.ratio > 0.9
    assert fb.lower > 0.1


def test_frame_bounds_past_the_critical_density():
    rep = RepSpec(group_spec("heisenberg", 1), 1.0)
    fb = frame_bounds_estimate(rep, eps=1.25)
    assert fb.ratio < 0.01
    assert fb.upper > 0.1  # Bessel side survives


def _walnut_bounds(eps: float) -> tuple[float, float]:
    """Exact frame bounds of the Gaussian Gabor system with alpha = beta = eps = N^{-1/2}.

    With alpha beta = 1/N the frame operator is sum_n G_n T_{n N alpha} / beta
    (Walnut, J. Math. Anal. Appl. 165, 1992), with the alpha-periodic
    G_n(t) = sum_k g(t - n N alpha - k alpha) g(t - k alpha).  On each coset
    t + N alpha Z it is a convolution, so its spectrum is the range of the
    symbol sigma(t, omega) = sum_n G_n(t) e^{-2 pi i n omega} / beta over
    t in [0, alpha) and omega in [0, 1).  sigma is even in omega and in t
    about alpha/2, and the grids hold 0 and the half points.
    """
    n_over = round(eps**-2)
    t = eps * np.arange(64) / 64
    omega = np.arange(64) / 64
    k = np.arange(-60, 61)
    sigma = np.zeros((64, 64))
    for n in range(-8, 9):
        g_n = np.exp(-np.pi * ((t[:, None] - (n * n_over + k) * eps) ** 2 + (t[:, None] - k * eps) ** 2)).sum(axis=1)
        sigma += g_n[:, None] * np.cos(2 * np.pi * n * omega)[None, :]
    sigma /= eps
    return float(sigma.min()), float(sigma.max())


@pytest.mark.parametrize("eps", [0.5, 3**-0.5, 2**-0.5], ids=["N4", "N3", "N2"])
def test_frame_bounds_lie_within_the_exact_walnut_bounds(eps):
    exact_lower, exact_upper = _walnut_bounds(eps)
    fb = frame_bounds_estimate(RepSpec(group_spec("heisenberg", 1), 1.0), eps=eps)
    # a finite section sees part of the spectrum: inside [A, B], and close to both ends
    assert exact_lower <= fb.lower <= fb.upper <= exact_upper
    assert fb.lower <= 1.02 * exact_lower
    assert fb.upper >= exact_upper / 1.02


@pytest.mark.parametrize("name", ["heisenberg", "g5_3", "g6_19"])
def test_closed_form_gram_entries_match_the_grid_oracle(name):
    # <psi_j, pi(gamma) g> against a Riemann sum of the displayed formula
    grp = group_spec(name, 1)
    rep = RepSpec(grp, 1.0, 1.0 if grp.center_dim == 2 else 0.0)
    g = default_window(rep)
    rng = np.random.default_rng(17)
    test_lin, test_amp, _ = _test_space(rep.acting_dim, 1.0, 0.5)
    ks = rng.integers(-2, 3, (12, grp.quotient_dim))
    cols = rng.choice(len(test_amp), 12, replace=False)
    a = section(grp, quasilattice_points(QuasiLattice(grp, 0.5), ks))
    coeff = _coefficients(test_lin[cols], test_amp[cols], *act(rep, a, g.quad, g.lin, g.log_amp))
    for i in range(12):
        psi = Gaussian(np.eye(rep.acting_dim), test_lin[cols[i]], test_amp[cols[i]])
        assert abs(coeff[i, i] - quad_rep_coefficient(rep, a[i], psi, g)) < 1e-12


def test_frame_sweep_reuses_the_test_space_bit_for_bit():
    rep = RepSpec(group_spec("heisenberg", 1), 1.0)
    first = frame_bounds_estimate(rep, eps=0.5)
    frame_bounds_estimate(rep, eps=1.25)
    again = frame_bounds_estimate(rep, eps=0.5)
    _test_space.cache_clear()
    fresh = frame_bounds_estimate(rep, eps=0.5)
    assert first == again == fresh


def _unblocked_bounds(rep, eps, lattice_radius, dict_halfrange):
    """The frame estimate with the whole coefficient matrix in one array, as one product."""
    lat = QuasiLattice(rep.group, eps)
    half = (math.ceil(lattice_radius / eps) + 0.5) * eps
    gamma = quasilattice_points(lat, _reference_lattice_points_in_box(lat, np.zeros(lat.ndim), half))
    g = default_window(rep)
    test_lin, test_amp, basis = _test_space(rep.acting_dim, dict_halfrange, 0.5)
    coeff = _coefficients(test_lin, test_amp, *act(rep, section(rep.group, gamma), g.quad, g.lin, g.log_amp))
    reduced = basis.conj().T @ (coeff.conj().T @ coeff) @ basis
    mu = np.linalg.eigvalsh(0.5 * (reduced + reduced.conj().T))
    return len(gamma), float(mu.min()), float(mu.max())


@pytest.mark.parametrize(
    ("name", "eps", "lattice_radius", "dict_halfrange", "short"),
    [("heisenberg", 0.5, 1.0, 4.0, True), ("heisenberg", 0.5, 6.0, 4.0, False), ("g5_3", 1.0, 1.5, 1.0, False)],
    ids=["one-block-short", "ragged-last-block", "g5_3"],
)
def test_blocked_frame_gram_matches_one_product(name, eps, lattice_radius, dict_halfrange, short):
    # a lattice shorter than one block, and ones whose last block is partial,
    # give the bounds of the whole coefficient matrix up to the sum order
    grp = group_spec(name, 1)
    rep = RepSpec(grp, 1.0)
    fb = frame_bounds_estimate(rep, eps=eps, lattice_radius=lattice_radius, dict_halfrange=dict_halfrange)
    n_atoms, lower, upper = _unblocked_bounds(rep, eps, lattice_radius, dict_halfrange)
    assert fb.n_atoms == n_atoms
    assert (n_atoms < _BLOCK) if short else (n_atoms > _BLOCK and n_atoms % _BLOCK != 0)
    assert abs(fb.upper - upper) <= 1e-12 * upper
    assert abs(fb.lower - lower) <= 1e-8 * upper


@pytest.mark.parametrize("spec", ALL_SPECS, ids=GROUPS)
def test_frame_section_is_the_exact_box(spec):
    # the section is every label of [-h, h)^n, h = (ceil(R / eps) + 1/2) eps;
    # on g5_3 and g6_19 a label cube cut at |gamma| <= R + eps kept 445 of 625
    rep = RepSpec(spec, 1.0, 1.0 if spec.center_dim == 2 else 0.0)
    lat, half = QuasiLattice(spec, 1.0), (math.ceil(1.5 / 1.0) + 0.5) * 1.0
    fb = frame_bounds_estimate(rep, eps=1.0, lattice_radius=1.5, dict_halfrange=0.0)  # one test atom
    assert fb.n_atoms == len(_reference_lattice_points_in_box(lat, np.zeros(lat.ndim), half)) == 5**lat.ndim


def test_frame_bounds_memory_does_not_grow_with_the_lattice():
    # 625 lattice atoms x 289 test atoms: the whole coefficient array and its
    # temporaries come to about 17 MB, blocks of them and the J x J Gram to 3.4 MB
    rep = RepSpec(group_spec("heisenberg", 1), 1.0)
    frame_bounds_estimate(rep, eps=0.5)  # the test space is built once, outside the measurement
    tracemalloc.start()
    try:
        frame_bounds_estimate(rep, eps=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_test_space_is_built_once_and_read_only():
    rep = RepSpec(group_spec("heisenberg", 1), 1.0)
    frame_bounds_estimate(rep, eps=0.5)
    info = _test_space.cache_info()
    assert info.currsize >= 1
    frame_bounds_estimate(rep, eps=0.9)
    assert _test_space.cache_info().hits == info.hits + 1
    lin, log_amp, basis = _test_space(1, 4.0, 0.5)
    for arr in (lin, log_amp, basis):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
