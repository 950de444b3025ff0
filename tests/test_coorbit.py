"""Norm engine: analytic identities, scaling laws, independent quadrature
routes, and the orbit scans."""

import functools
import itertools
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.special import logsumexp

from _references import coefficient_log_modulus, stack_states
from coorbit_lab import coorbit
from coorbit_lab.coorbit import (
    DEFAULT_SCAN,
    LogQuadratic,
    NormSpec,
    NormTask,
    WeightSpec,
    chirp_scan_task,
    coorbit_norm_log,
    df_modulation_task,
    fit_log_quadratic,
    fit_slope,
    formal_dimension,
    g53_curve_tasks,
    modulation_norm_log,
    orbit_scan,
    power_weight,
)
from coorbit_lab.gaussian import (
    Gaussian,
    chirp,
    chirp_stft_modulus,
    l2_norm,
    log_stft_modulus,
    quad_forms,
    tensor,
    translate,
    unit_gaussian,
)
from coorbit_lab.groups import group_spec, quotient_multiply, section
from coorbit_lab.numerics import TailMassWarning, WeightRangeError, WorkBudgetError
from coorbit_lab.oracles import chirp_mp_norm, pointwise_action
from coorbit_lab.representations import (
    RepSpec,
    _States,
    act,
    apply_rep,
    known_formal_dimension,
)

H1 = group_spec("heisenberg", 1)


def weight_log(weight, points) -> np.ndarray:
    """log m(q) = s log(1 + |A q|) at each point q (a row of points)."""
    cols = list(weight.coords)
    aq = np.asarray(points, dtype=float)[..., cols] @ weight.A[:, cols].T
    return weight.s * np.log1p(np.linalg.norm(aq, axis=-1))


def moderate_check(group, weight, control, n_pairs=10000) -> dict:
    """Sampled check of m(xy) <= v(x) m(y) under the quotient group law, on
    pairs drawn uniformly from [-5, 5]^n."""
    rng = np.random.default_rng(0)
    n = group.quotient_dim
    x = rng.uniform(-5.0, 5.0, (n_pairs, n))
    y = rng.uniform(-5.0, 5.0, (n_pairs, n))
    xy = quotient_multiply(group, x, y)
    excess = weight_log(weight, xy) - weight_log(control, x) - weight_log(weight, y)
    worst = float(excess.max())
    return {"max_log_excess": worst, "pairs": n_pairs, "ok": worst <= 1e-9}


def weight_pullback_g616(weight, lam, mu=0.0):
    """Transport a quotient weight for the 6,16 group to phase-space coordinates.

    The coefficient map identifies quotient points with phase-space points
    (x1, x2, xi1, xi2) via x5 = x1, x6 = x2, x4 = -xi2/lam,
    x3 = (mu x2 - xi1)/lam; the weight is composed with that substitution,
    q = M z, so its matrix becomes A M.
    """
    if weight is None:
        return None
    if lam == 0.0:
        raise ValueError("pullback needs lambda != 0")
    if weight.coords[-1] > 3:
        raise ValueError(f"weight coordinates {weight.coords} out of range for the 4 quotient coordinates")
    M = np.zeros((4, 4))
    M[0, 1:3] = mu / lam, -1.0 / lam
    M[1, 3] = -1.0 / lam
    M[2, 0] = M[3, 1] = 1.0
    return WeightSpec(weight.s, weight.A[:, :4] @ M[: weight.A.shape[1]])


def test_norm_spec_validation():
    with pytest.raises(ValueError):
        NormSpec(p=0.5)
    for p in (np.inf, np.nan):
        with pytest.raises(ValueError, match=f"p = {p} is not supported"):
            NormSpec(p=p)
    with pytest.raises(ValueError):
        NormSpec(p=1.0, resolution=-0.5)


def test_power_weight_values():
    w = power_weight(2.0, (0,))
    pts = np.array([[3.0, 99.0], [0.0, 5.0]])
    # (1 + |q_S|)^2, reading only coordinate 0
    assert np.allclose(weight_log(w, pts), 2.0 * np.log1p([3.0, 0.0]))
    assert w.coords == (0,)
    # as a row of A, index -1 would select the last coordinate
    with pytest.raises(ValueError, match="non-negative"):
        power_weight(1.0, (-1,))
    # a repeated coordinate would weight it by sqrt(2) |q_0|
    with pytest.raises(ValueError, match="distinct"):
        power_weight(1.0, (0, 0))
    # a weight that is not finite is refused here, before any norm probes or meshes with it
    for s in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"s must be finite, got {s}"):
            power_weight(s, (0,))


def test_fit_log_quadratic_recovers_plant():
    rng = np.random.default_rng(0)
    H = -np.eye(3) - 0.3 * np.ones((3, 3))
    g = rng.normal(size=3)
    c = 1.7

    def f(x):
        return c + g @ x + 0.5 * x @ H @ x

    quad = fit_log_quadratic(f, 3)
    assert quad.const == pytest.approx(c, abs=1e-9)
    assert np.allclose(quad.grad, g, atol=1e-9)
    assert np.allclose(quad.hess, H, atol=1e-9)


def test_fit_log_quadratic_rejects_quartic():
    with pytest.raises(RuntimeError):
        fit_log_quadratic(lambda x: -float(np.sum(x**4)), 2)


def test_log_quadratic_total_against_grid():
    # closed Gaussian integral against a plain Riemann sum
    quad = LogQuadratic(0.3, np.array([0.2, -0.5]), np.array([[-2.0, 0.4], [0.4, -1.5]]))
    ax = np.arange(-8, 8, 0.05)
    xs = np.stack(np.meshgrid(ax, ax, indexing="ij"), -1).reshape(-1, 2)
    vals = quad.const + xs @ quad.grad + 0.5 * np.einsum("ni,ij,nj->n", xs, quad.hess, xs)
    num = logsumexp(vals) + 2 * np.log(0.05)
    assert quad.total() == pytest.approx(num, abs=1e-9)


def test_log_quadratic_marginalized_against_grid():
    quad = LogQuadratic(-0.2, np.array([0.1, 0.3, -0.2]), -np.eye(3) - 0.2)
    reduced = quad.marginalized((1,))
    ax = np.arange(-9, 9, 0.05)
    for x in ([0.4, -0.7], [0.0, 1.1]):
        pts = np.array([[x[0], t, x[1]] for t in ax])
        vals = quad.const + pts @ quad.grad + 0.5 * np.einsum("ni,ij,nj->n", pts, quad.hess, pts)
        num = logsumexp(vals) + np.log(0.05)
        assert reduced.value(np.array(x)) == pytest.approx(num, abs=1e-9)


@pytest.mark.parametrize("k", range(1, 7))
def test_log_quadratic_total_is_the_marginal_of_every_dimension(k):
    # total() solves once against the Cholesky factor; marginalized() stacks
    # the kept directions beside the gradient in its one solve
    rng = np.random.default_rng(40 + k)
    m = rng.normal(size=(5, k, k))
    quad = LogQuadratic(rng.normal(size=5), rng.normal(size=(5, k)) * 3.0, -(m @ m.swapaxes(-1, -2)) - 0.1 * np.eye(k))
    total, marginal = quad.total(), quad.marginalized(range(k))
    assert marginal.grad.shape == (5, 0) and marginal.hess.shape == (5, 0, 0)
    assert np.allclose(total, marginal.const, rtol=1e-13, atol=0.0)
    # the Gaussian integral written with slogdet and a solve against -hess itself
    _, log_det = np.linalg.slogdet(-quad.hess)
    quad_term = np.einsum("ni,ni->n", quad.grad, np.linalg.solve(-quad.hess, quad.grad[..., None])[..., 0])
    direct = quad.const + 0.5 * k * np.log(2.0 * np.pi) - 0.5 * log_det + 0.5 * quad_term
    assert np.allclose(total, direct, rtol=1e-12, atol=0.0)


def test_log_quadratic_total_refuses_an_indefinite_hessian():
    quad = LogQuadratic(np.zeros(2), np.zeros((2, 2)), np.array([-np.eye(2), [[-1.0, 2.0], [2.0, -1.0]]]))
    # the second model is indefinite over both directions, not along either one alone
    assert np.isfinite(quad.marginalized((1,)).const).all()
    for integrate in (quad.total, lambda: quad.marginalized((0, 1))):
        with pytest.raises(RuntimeError, match="not negative definite"):
            integrate()


@pytest.mark.parametrize("rep", [RepSpec(H1, 1.0), RepSpec(group_spec("g6_16"), 1.0, 1.0)], ids=lambda r: r.group.name)
def test_a_closed_form_norm_makes_five_linalg_calls(monkeypatch, rep):
    # the kernel's Cholesky test of Re Q, slogdet and solve; total()'s
    # Cholesky factorisation and one triangular solve, whether the window
    # side is cached or not (the first call also builds the unit character)
    d = rep.acting_dim
    f, g = Gaussian(np.diag([1.2, 0.9][:d]), [0.3 - 0.2j, 0.1][:d]), unit_gaussian(d)
    coorbit_norm_log(rep, f, g, NormSpec(p=2.0))
    calls = []
    for name in np.linalg.__all__:
        func = getattr(np.linalg, name)
        if callable(func) and not isinstance(func, type):

            def counting(*args, _name=name, _func=func, **kwargs):
                calls.append(_name)
                return _func(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
    coorbit._cached_window_side.cache_clear()
    for _ in ("cold", "warm"):
        calls.clear()
        coorbit_norm_log(rep, f, g, NormSpec(p=2.0))
        assert sorted(calls) == ["cholesky", "cholesky", "slogdet", "solve", "solve"]


def test_log_quadratic_conditioned():
    quad = LogQuadratic(0.0, np.zeros(2), np.array([[-1.0, 0.3], [0.3, -2.0]]))
    cond = quad.conditioned((1,), np.array([0.5]))
    assert cond.value(np.array([0.7])) == pytest.approx(quad.value(np.array([0.7, 0.5])))


def test_moyal_collapse_on_heisenberg():
    rep = RepSpec(H1, 1.0)
    f = Gaussian(1.4, 0.3)
    g = unit_gaussian(1)
    got = np.exp(coorbit_norm_log(rep, f, g, NormSpec(p=2.0)))
    assert got == pytest.approx(l2_norm(f) * l2_norm(g), rel=1e-12)


def test_heisenberg_norm_against_direct_grid_sum():
    # the full dual route: engine value vs a plain 2-d Riemann sum of |V|^p,
    # each coefficient integrated in t from the displayed formula of the action
    rep = RepSpec(H1, 1.0)
    f = Gaussian(0.8 + 0.5j, 0.2 - 0.1j)
    g = unit_gaussian(1)
    step, half = 0.05, 7.0
    ax = np.arange(-half, half, step) + step / 2
    t = np.arange(-12.0, 12.0 + 1e-9, 0.01)
    w = np.full(t.shape, 0.01)
    w[[0, -1]] /= 2.0  # trapezoidal rule
    # (pi(x, y) g)(t) = phase(t) g(t + v): the phase reads only y, the shift v only x
    phases = np.array([pointwise_action(rep, [0.0, y, 0.0])[0](t[:, None]) for y in ax])
    shifts = np.array([pointwise_action(rep, [x, 0.0, 0.0])[2] for x in ax])
    shifted = g(t[None, :, None] + shifts[:, None, :])
    coeffs = (f(t) * w * np.conj(shifted)) @ np.conj(phases).T  # rows x, columns y
    log_mod = np.log(np.abs(coeffs)).ravel()
    for p in (1.0, 3.0):
        engine = coorbit_norm_log(rep, f, g, NormSpec(p=p))
        brute = (logsumexp(p * log_mod) + 2 * np.log(step)) / p
        assert engine == pytest.approx(brute, abs=1e-7)


@pytest.mark.parametrize("lam", [1.0, 2.0])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_heisenberg_reduction_to_modulation_norm(lam, p):
    rep = RepSpec(H1, lam)
    f = Gaussian(1.4, 0.3)
    g = unit_gaussian(1)
    co = coorbit_norm_log(rep, f, g, NormSpec(p=p))
    # the quotient substitution contributes |lam|^{-1/p} against the plain norm
    mod = modulation_norm_log(f, g, NormSpec(p=p)) - np.log(lam) / p
    assert co == pytest.approx(mod, abs=1e-10)


def test_heisenberg_weighted_reduction():
    lam, p = 2.0, 1.0
    rep = RepSpec(H1, lam)
    f = Gaussian(1.4, 0.3)
    g = unit_gaussian(1)
    m = power_weight(1.5, (0, 1))
    co = coorbit_norm_log(rep, f, g, NormSpec(p=p, weight=m, box_half=7.0, resolution=0.25))

    # m(x, y / lam): the weight pulled back to phase space
    m_t = WeightSpec(1.5, np.diag([1.0, 1.0 / lam]))
    mod = modulation_norm_log(f, g, NormSpec(p=p, weight=m_t, box_half=7.0, resolution=0.25))
    assert abs(np.expm1(co - (mod - np.log(lam) / p))) < 1e-2


def test_moderate_weights():
    ok = moderate_check(H1, power_weight(2.0, (0, 1)), power_weight(2.0, (0, 1)), n_pairs=2000)
    assert ok["ok"], ok
    flat = moderate_check(H1, power_weight(0.0, (0, 1)), power_weight(0.0, (0, 1)), n_pairs=500)
    assert flat["max_log_excess"] <= 1e-12
    # a quadratic weight is not moderate against a linear control
    bad = moderate_check(H1, power_weight(2.0, (0, 1)), power_weight(1.0, (0, 1)), n_pairs=2000)
    assert not bad["ok"]
    assert bad["max_log_excess"] > 0.1


@pytest.mark.parametrize("lam,mu", [(1.0, 0.0), (2.0, 1.0)])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_g616_reduction_to_pulled_back_modulation(lam, mu, p):
    grp = group_spec("g6_16")
    rep = RepSpec(grp, lam, mu)
    f = Gaussian(np.diag([1.3, 0.9]), [0.2, -0.1])
    g = unit_gaussian(2)
    co = coorbit_norm_log(rep, f, g, NormSpec(p=p))
    mod = modulation_norm_log(f, g, NormSpec(p=p)) - 2.0 * np.log(lam) / p
    assert co == pytest.approx(mod, abs=1e-8)


def test_g616_weighted_pullback():
    lam, mu, p = 2.0, 1.0, 1.0
    rep = RepSpec(group_spec("g6_16"), lam, mu)
    f = Gaussian(np.diag([1.3, 0.9]), [0.2, -0.1])
    g = unit_gaussian(2)
    m = power_weight(1.0, (0, 1))
    spec = NormSpec(p=p, weight=m, box_half=7.0, resolution=0.25)
    co = coorbit_norm_log(rep, f, g, spec)
    pulled = weight_pullback_g616(m, lam, mu)
    mod = modulation_norm_log(f, g, NormSpec(p=p, weight=pulled, box_half=7.0, resolution=0.25))
    assert abs(np.expm1(co - (mod - 2.0 * np.log(lam) / p))) < 1e-2


@pytest.mark.parametrize("lam,mu", [(1.0, 0.0), (2.0, 1.0), (-0.5, 3.0)])
def test_weight_pullback_identity_map(lam, mu):
    m = power_weight(1.0, (2, 3))
    pulled = weight_pullback_g616(m, lam, mu)
    z = np.random.default_rng(0).uniform(-2, 2, (10, 4))
    # the quotient point (x3, x4, x5, x6) of the phase-space point z
    x = np.column_stack([(mu * z[:, 1] - z[:, 2]) / lam, -z[:, 3] / lam, z[:, 0], z[:, 1]])
    assert np.allclose(weight_log(pulled, z), weight_log(m, x), atol=1e-12)
    # a weight on (x3, x4) reads xi1, xi2, and x2 when mu shears x3
    assert weight_pullback_g616(power_weight(1.0, (0, 1)), lam, mu).coords == ((1, 2, 3) if mu else (2, 3))
    assert weight_pullback_g616(None, 2.0, 1.0) is None


@pytest.mark.parametrize("name,lam,mu", [("heisenberg", 1.0, 0.0), ("g6_16", 1.0, 1.0), ("g5_3", 1.0, 0.0), ("g6_19", 1.0, 1.0)])
def test_p2_orthogonality_collapse(name, lam, mu):
    grp = group_spec(name, 1)
    rep = RepSpec(grp, lam, mu) if mu else RepSpec(grp, lam)
    f = Gaussian(np.eye(rep.acting_dim) * 1.2, np.full(rep.acting_dim, 0.1))
    g = unit_gaussian(rep.acting_dim)
    got = np.exp(coorbit_norm_log(rep, f, g, NormSpec(p=2.0)))
    want = l2_norm(f) * l2_norm(g) / np.sqrt(known_formal_dimension(rep))
    assert got == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_p2_orthogonality_on_dynin_folland(lam):
    # d_pi = |lam|^3 for the 7-dimensional group (Moore & Wolf, Trans. AMS 185, 1973)
    rep = RepSpec(group_spec("dynin_folland"), lam)
    f = Gaussian(np.eye(3) * 1.2, np.full(3, 0.1))
    g = unit_gaussian(3)
    got = np.exp(coorbit_norm_log(rep, f, g, NormSpec(p=2.0)))
    want = l2_norm(f) * l2_norm(g) / np.sqrt(abs(lam) ** 3)
    assert got == pytest.approx(want, rel=1e-5)


_FIVE = [("heisenberg", 0.0), ("g6_16", 1.0), ("g5_3", 0.0), ("g6_19", 1.0), ("dynin_folland", 0.0)]


def _chirped_state(rng, d):
    """A random state with a cross term, a chirp and a complex shift."""
    M, C = rng.normal(size=(d, d)), rng.normal(size=(d, d))
    quad = M @ M.T + 0.3 * np.eye(d) + 0.5j * (C + C.T)
    return Gaussian(quad, 0.5 * (rng.normal(size=d) + 1j * rng.normal(size=d)))


@pytest.mark.parametrize("lam", [0.25, 0.5, 2.0, 8.0, 16.0, -0.7])
@pytest.mark.parametrize("name,mu", _FIVE)
def test_p2_closed_form_at_every_character(name, mu, lam):
    # every norm is meshed at lambda = +-1 and dilated back, so the coupled
    # mesh keeps its accuracy as the coefficient narrows with |lambda|
    rep = RepSpec(group_spec(name), lam, mu)
    f, g = _chirped_state(np.random.default_rng(29), rep.acting_dim), unit_gaussian(rep.acting_dim)
    got = np.exp(coorbit_norm_log(rep, f, g, NormSpec(p=2.0)))
    want = l2_norm(f) * l2_norm(g) / np.sqrt(known_formal_dimension(rep))
    assert got == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize(
    "name,lam,want",
    # g5_3: the quadrature reference, which the test recomputes (estimate
    # 2e-13).  dynin_folland: the engine meshed at lambda itself at resolution
    # 1/64, which a one-off nested quad reference reproduces to every digit
    # (CHANGES.md)
    [("g5_3", 16.0, 0.007956409383871377), ("dynin_folland", 8.0, 0.005785298360364805)],
)
def test_large_lambda_p1_against_fine_references(name, lam, want):
    # at the default resolution these read 39.5% and 39.7% high when the
    # coupled mesh kept its step in the caller's coordinates
    rep = RepSpec(group_spec(name), lam)
    g = unit_gaussian(rep.acting_dim)
    if len(rep.split[0]) == 1:  # one coupled coordinate: the engine is held against the reference itself
        [log_want], [error] = _quadrature_log_norms(rep, stack_states([g]), 1.0)
        assert error < 1e-9 and np.exp(log_want) == pytest.approx(want, rel=1e-12)
        want = np.exp(log_want)
    assert np.exp(coorbit_norm_log(rep, g, g, NormSpec(p=1.0))) == pytest.approx(want, rel=1e-7)


def _truncation_family():
    """The chirped family, in the order of _FIVE at lambda = 1 (mu = 1 on the
    two-centre groups): {name: (rep, 40 states)} from one generator, seed 11.

    A state's real part is 0.05 M M^T plus 0.02, 0.1 or 0.3 times the
    identity and its chirp (C + C^T) / 2 times 0, 4 or 16, so some are narrow
    and steep; its linear part is standard complex normal.  The family was
    chosen because its g5_3 states spread far along the coupled coordinate,
    where a box of half-width 8 cut their mass off with no warning.
    """
    rng = np.random.default_rng(11)
    family = {}
    for name, mu in _FIVE:
        rep = RepSpec(group_spec(name), 1.0, mu)
        d = rep.acting_dim
        states = []
        for _ in range(40):
            M = rng.normal(size=(d, d))
            real = 0.05 * M @ M.T + rng.choice([0.02, 0.1, 0.3]) * np.eye(d)
            C = rng.normal(size=(d, d))
            imag = 0.5 * (C + C.T) * rng.choice([0.0, 4.0, 16.0])
            states.append(Gaussian(real + 1j * imag, rng.normal(size=d) + 1j * rng.normal(size=d)))
        family[name] = rep, states
    return family


def _norm_or_warning(rep, f, spec):
    """The log norm of f against the unit window, and whether a TailMassWarning was raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TailMassWarning)
        got = coorbit_norm_log(rep, f, unit_gaussian(rep.acting_dim), spec)
    return got, any(issubclass(w.category, TailMassWarning) for w in caught)


def _p2_closed_form(rep, f):
    return np.log(l2_norm(f) * l2_norm(unit_gaussian(rep.acting_dim)) / np.sqrt(known_formal_dimension(rep)))


_PEAK_MAGNITUDES = 2.0 ** (np.arange(-32, 81) / 8.0)  # 1/16 to 1024, ratio 2^(1/8)


def _quadrature_log_norms(rep, stack, p):
    """The log L^p norms of a _States stack against the unit window on a rep
    with one coupled coordinate c, and the integrator's bound on the relative
    error of each state's integral.

    Each state's slice mass exp(p total(c)) comes from the node quadratics.
    Its peak is found on a geometric grid of this helper's own (0 and
    +-_PEAK_MAGNITUDES), refined three times on 33 uniform nodes between the
    best node's neighbours, and its width w is (-d^2 p total / dc^2)^(-1/2)
    at the peak, from the last grid.  scipy.integrate.quad_vec (adaptive
    Gauss-Kronrod, 21 points) integrates w exp(p total(peak + w x) - p
    total(peak)) over the whole x line for all states at once: nothing of
    the engine's mesh, box, probe or tail checks enters.
    """
    g, rows = unit_gaussian(rep.acting_dim), np.arange(len(stack.log_amp))

    def log_mass(c):  # c (states, nodes per state)
        nodes = stack.rows(np.repeat(rows, c.shape[1]))
        return coorbit._node_quadratics(rep, nodes, g, c.reshape(-1, 1)).scaled(p).total().reshape(c.shape)

    def best_of(grid):
        vals = log_mass(grid)
        return vals, np.clip(np.argmax(vals, axis=1), 1, grid.shape[1] - 2)

    grid = np.tile(np.concatenate([-_PEAK_MAGNITUDES[::-1], [0.0], _PEAK_MAGNITUDES]), (len(rows), 1))
    vals, best = best_of(grid)
    for _ in range(3):
        lo, hi = grid[rows, best - 1], grid[rows, best + 1]
        grid = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 33)
        vals, best = best_of(grid)
    peak, top, h = grid[rows, best], vals[rows, best], grid[:, 1] - grid[:, 0]
    width = h / np.sqrt(2.0 * top - vals[rows, best + 1] - vals[rows, best - 1])

    def scaled_mass(x):
        return width * np.exp(log_mass((peak + width * x)[:, None])[:, 0] - top)

    mass, error = integrate.quad_vec(
        scaled_mass, -np.inf, np.inf, epsabs=0.0, epsrel=1e-10, norm="max", quadrature="gk21"
    )
    return (top + np.log(mass)) / p, error / mass


@functools.lru_cache(maxsize=None)
def _family_reference(name, p):
    """_quadrature_log_norms of the 40 draws of _truncation_family()[name] (read-only)."""
    rep, states = _truncation_family()[name]
    want, error = _quadrature_log_norms(rep, stack_states(states), p)
    want.flags.writeable = error.flags.writeable = False
    return want, error


def _norms_and_warnings(rep, states, spec):
    """The engine's log norms of the states against the unit window, in one
    call, and the set of draws whose TailMassWarning it raised."""
    where = [f" at draw {i}" for i in range(len(states))]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TailMassWarning)
        got, _ = coorbit._coorbit_log_norms(rep, stack_states(states), unit_gaussian(rep.acting_dim), spec, where)
    return got, {int(re.search(r" at draw (\d+):", str(w.message))[1]) for w in caught}


@pytest.mark.parametrize("name", [name for name, _ in _FIVE])
def test_chirped_draws_match_the_closed_form_or_warn(name):
    # a norm whose box cuts off mass must say so: with a uniform coupled axis,
    # 10 of the 40 g5_3 draws read more than 1e-3 low (up to 13.7%) silently
    rep, states = _truncation_family()[name]
    got, warned = _norms_and_warnings(rep, states, NormSpec())
    for i, f in enumerate(states):
        assert i in warned or abs(np.expm1(got[i] - _p2_closed_form(rep, f))) < 1e-3, i


@pytest.mark.parametrize("p", [1.0, 1.5])
@pytest.mark.parametrize("name", ["g5_3", "g6_19"])
def test_chirped_draws_match_the_quadrature_reference_or_warn(name, p):
    # no closed form below p = 2: when this test was written, g5_3 warned on
    # 17 draws at either p and g6_19 on 1 and 0, and the worst unwarned
    # errors were 3.7e-5 and 7.2e-8 (g5_3), 6.9e-5 and 6.3e-6 (g6_19)
    rep, states = _truncation_family()[name]
    got, warned = _norms_and_warnings(rep, states, NormSpec(p=p))
    want, error = _family_reference(name, p)
    assert error.max() < 1e-9
    for i in range(len(states)):
        assert i in warned or abs(np.expm1(got[i] - want[i])) < 1e-3, i


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="a wide box misses g5_3 silently (ROADMAP item 15)")
@pytest.mark.parametrize("draw", [22, 33])
def test_g5_3_draws_at_a_wide_box_match_the_quadrature_reference_or_warn(draw):
    # at box_half = 1000 the sinh mesh reads these +1.66e-3 and -1.64e-3 off
    # the reference with no warning; the reference itself is checked on the
    # same draws in test_chirped_draws_match_the_quadrature_reference_or_warn
    rep, states = _truncation_family()["g5_3"]
    got, warned = _norm_or_warning(rep, states[draw], NormSpec(p=1.0, box_half=1000.0))
    assert warned or abs(np.expm1(got - _family_reference("g5_3", 1.0)[0][draw])) < 1e-3


def _g619_orbit_state(u):
    """f1 (x) phi pushed along coordinate 5 of g6_19 (lambda = mu = 1): its
    g5_3 coupled marginal has a standard deviation of about 0.24 u."""
    a = np.zeros(6)
    a[5] = u
    return apply_rep(RepSpec(group_spec("g6_19"), 1.0, 1.0), a, tensor(Gaussian(1.4, 0.3), unit_gaussian(1)))


@pytest.mark.parametrize(
    "p,draw",
    [(2.0, 35), (2.0, 32), (2.0, 37), (2.0, None), (1.0, 16), (1.0, 21)],
    ids=["p2-draw-35", "p2-draw-32", "p2-draw-37", "p2-g6_19-orbit-u20", "p1-draw-16", "p1-draw-21"],
)
def test_named_g5_3_truncations_match_or_warn(p, draw):
    # with a uniform coupled axis these read -13.7%, -9.4%, -4.9%, -4.7%,
    # -17.3% and -13.5% at box 8, each with no warning.  At p = 1 the default
    # box still cuts off 14.2% and 11.4% of the mass, so those two must warn;
    # their reference comparison is the xfail below
    rep = RepSpec(group_spec("g5_3"), 1.0)
    f = _g619_orbit_state(20.0) if draw is None else _truncation_family()["g5_3"][1][draw]
    got, warned = _norm_or_warning(rep, f, NormSpec(p=p))
    if p == 2.0:
        assert warned or abs(np.expm1(got - _p2_closed_form(rep, f))) < 1e-3
    else:
        assert warned


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the default box truncates g5_3 at p = 1 (ROADMAP item 15)")
@pytest.mark.parametrize("draw", [16, 21])
def test_named_g5_3_p1_truncations_match_the_quadrature_reference(draw):
    # at the default spec the engine reads 4.2157 and 4.8675, 13.9% and 10.0%
    # under the references 4.3653 and 4.9731 (adaptive quadrature on the
    # slice mass)
    rep, states = _truncation_family()["g5_3"]
    got, _ = _norm_or_warning(rep, states[draw], NormSpec(p=1.0))
    want, error = (x[draw] for x in _family_reference("g5_3", 1.0))
    assert error < 1e-9
    assert abs(np.expm1(got - want)) < 1e-3


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the sinh step misses a wide window (ROADMAP item 23)")
@pytest.mark.parametrize("w", [0.1, 0.07, 0.05])
@pytest.mark.parametrize("name", ["g5_3", "dynin_folland"])
def test_wide_window_against_itself_matches_the_closed_form_or_warns(name, w):
    # the p = 2 norm of Gaussian(w I) against itself is ||g||^2 / sqrt(d_pi);
    # at the default spec it reads +4.2e-3, +2.2% and +6.1% high with no
    # warning on both groups (g6_19 stays within 1.1e-7).  At resolution 1/32
    # g5_3 at w = 0.05 meets it to 4e-16, so the error is the sinh axis's step
    rep = RepSpec(group_spec(name), 1.0)
    g = Gaussian(w * np.eye(rep.acting_dim))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TailMassWarning)
        got = coorbit_norm_log(rep, g, g, NormSpec())
    want = np.log(l2_norm(g) ** 2 / np.sqrt(known_formal_dimension(rep)))
    assert any(issubclass(c.category, TailMassWarning) for c in caught) or abs(np.expm1(got - want)) < 1e-3


def test_weighted_norm_at_negative_lambda_against_grid_sum():
    # the weight (1 + |y|) is read in the caller's coordinates, where the
    # coefficient at lambda = -3 is a third as wide in y; the reference is a
    # Riemann sum there, each coefficient integrated in t from the displayed
    # formula of the action.  The kink at y = 0 converges as h^2: the engine's
    # step 1/8 at the unit character is 1/24 in y, 5e-4 from the limit
    rep = RepSpec(H1, -3.0)
    f, g, p = Gaussian(0.8 + 0.5j, 0.2 - 0.1j), unit_gaussian(1), 1.0
    xs, ys = np.arange(-7.0, 7.0 + 1e-9, 0.05), np.arange(-3.0, 3.0 + 1e-9, 0.02)
    t = np.arange(-12.0, 12.0 + 1e-9, 0.01)
    w = np.full(t.shape, 0.01)
    w[[0, -1]] /= 2.0  # trapezoidal rule
    phases = np.array([pointwise_action(rep, [0.0, y, 0.0])[0](t[:, None]) for y in ys])
    shifts = np.array([pointwise_action(rep, [x, 0.0, 0.0])[2] for x in xs])
    coeffs = (f(t) * w * np.conj(g(t[None, :, None] + shifts[:, None, :]))) @ np.conj(phases).T  # rows x, columns y
    log_mod = np.log(np.abs(coeffs)) + np.log1p(np.abs(ys))
    brute = (logsumexp(p * log_mod) + np.log(0.05 * 0.02)) / p
    engine = coorbit_norm_log(rep, f, g, NormSpec(p=p, weight=power_weight(1.0, (1,))))
    assert abs(np.expm1(engine - brute)) < 1e-3


@pytest.mark.parametrize("lam", [4.0, -2.5])
def test_scan_centers_are_in_the_callers_coordinates(lam):
    # pi(u e_3) f on g5_3 puts the coupled mass at u / lambda; each reported
    # center must sit at the peak of the slice mass that the kernel reads at
    # lambda itself, to the probe's final step of 1/4 at the unit character
    rep = RepSpec(group_spec("g5_3"), lam)
    own, _, _ = g53_curve_tasks(1.0)
    res = orbit_scan(NormTask("centers", NormSpec(p=1.0), own.states, own.window, rep=rep), (10.0, 40.0, 160.0))
    grid = np.arange(-80.0, 80.0 + 1e-9, 0.01)
    for u, (center,) in zip(res.u_values, res.centers):
        states = own.states(np.array([u])).rows(np.zeros(len(grid), dtype=int))
        quads = coorbit._node_quadratics(rep, states, own.window, grid[:, None])
        mass = quads.scaled(1.0).total()
        assert abs(center - grid[np.argmax(mass)]) <= 0.25 / abs(lam)


def test_a_norm_at_negative_lambda_keeps_the_callers_representation():
    # H_1 at lambda = -3 is meshed at lambda = -1, the modulation norm's
    # representation; the messages still read the caller's
    rep = RepSpec(H1, -3.0)
    f, g = Gaussian(1.4, 0.3), unit_gaussian(1)
    spec = NormSpec(p=1.0, weight=power_weight(1.0, (1,)), box_half=0.5)
    with pytest.warns(TailMassWarning, match="^coorbit norm on heisenberg: the outer quadrature shell"):
        coorbit_norm_log(rep, f, g, spec)


def test_a_weight_past_double_range_at_the_unit_character_is_refused():
    # A delta^-1 = 1e10 / 1e-300 on y leaves double range: the norm is
    # refused with a weight range error, and no overflow warning on the way
    spec = NormSpec(p=1.0, weight=WeightSpec(1.0, [[0.0, 1e10]]))
    with pytest.raises(WeightRangeError, match=r"A delta\^-1 is past double range"):
        coorbit_norm_log(RepSpec(H1, 1e-300), unit_gaussian(1), unit_gaussian(1), spec)


def _covariance_errors(rep, f, a, p, reference=False):
    """| ||V_g pi(a_k) f|| / ||V_g f|| - 1 | for every row a_k of a, in one stacked
    norm with f first; the index of every state a tail warning names is left out.
    With reference, also each state's relative error against _quadrature_log_norms."""
    g = unit_gaussian(rep.acting_dim)
    quad, lin, log_amp = act(rep, np.vstack([np.zeros(rep.group.total_dim), a]), f.quad, f.lin, f.log_amp)
    stack = _States(quad_forms(quad), lin, log_amp)
    where = [f" (state {i})" for i in range(len(a) + 1)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TailMassWarning)
        logs, _ = coorbit._coorbit_log_norms(rep, stack, g, NormSpec(p=p), where)
    warned = {i for i in range(len(a) + 1) for w in caught if where[i] in str(w.message)}
    assert 0 not in warned
    errors = np.abs(np.expm1(logs - logs[0]))
    if reference:
        want, bound = _quadrature_log_norms(rep, stack, p)
        assert bound.max() < 1e-9
        errors = np.maximum(errors, np.abs(np.expm1(logs - want)))
    return [e for k, e in enumerate(errors) if k not in warned]


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
@pytest.mark.parametrize("lam", [1.0, -0.7])
@pytest.mark.parametrize("name,mu", _FIVE)
def test_norms_are_covariant(name, mu, lam, p):
    # ||V_g pi(a) f|| = ||V_g f|| for every a (Feichtinger & Groechenig, J. Funct.
    # Anal. 86, 1989): pi(a) f is one action, and its coupled mass moves as
    # far as a does, so it shares no mesh node with f's.  Six draws of a per
    # box [-s, s]^n; each must match to 1e-6 unless a tail warning names it.
    # On the groups with one coupled coordinate each norm, f's too, must also
    # match the quadrature reference, so that no engine error is shared by all
    rep = RepSpec(group_spec(name), lam, mu)
    rng = np.random.default_rng(3)
    f = _chirped_state(rng, rep.acting_dim)
    a = np.vstack([rng.uniform(-s, s, (6, rep.group.total_dim)) for s in (0.5, 2.0, 4.0)])
    assert max(_covariance_errors(rep, f, a, p, reference=name in ("g5_3", "g6_19"))) < 1e-6


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("lam", [1.0, -0.7])
@pytest.mark.parametrize(
    "name,mu,coords", [("heisenberg", 0.0, (0, 1)), ("g6_16", 0.6, (0, 3)), ("g6_16", 0.6, (1, 2))]
)
def test_weighted_norms_obey_the_moderate_bound(name, mu, coords, lam, p):
    # for a v-moderate weight m, ||V_g pi(a) f||_{L^p_m} <= v(x) ||V_g f||_{L^p_m}
    # with x the quotient part of a (Feichtinger & Groechenig, J. Funct.
    # Anal. 86, 1989), and by f = pi(a)^-1 pi(a) f, up to a phase, also
    # >= ||V_g f||_{L^p_m} / v(x^-1).  Both quotients are abelian, so x^-1 = -x,
    # and (1 + |q_S|)^s is its own control weight.  The bound holds for the
    # integrals; the slack of 1e-3 in the log covers the mesh: at the default
    # h = 1/8 the log ratio moves by up to 2.1e-4 against h = 1/16 (the
    # weight's kink converges as h^2), while near a = 0 the margin is linear
    # in |x|, 2.2e-4 at |x| = 2.2e-4 on heisenberg
    rep = RepSpec(group_spec(name), lam, mu)
    rng = np.random.default_rng(3)
    f = _chirped_state(rng, rep.acting_dim)
    a = np.vstack([rng.uniform(-s, s, (4, rep.group.total_dim)) for s in (1e-3, 0.5, 2.0, 4.0)])
    x = a[:, rep.group.noncenter_slice]
    np.testing.assert_array_equal(quotient_multiply(rep.group, x, -x), 0.0)
    for s in (1.0, 2.0):
        weight = control = power_weight(s, coords)
        assert moderate_check(rep.group, weight, control)["ok"]
        quad, lin, log_amp = act(rep, np.vstack([np.zeros(rep.group.total_dim), a]), f.quad, f.lin, f.log_amp)
        states = _States(quad_forms(quad), lin, log_amp)
        logs, _ = coorbit._coorbit_log_norms(rep, states, unit_gaussian(rep.acting_dim), NormSpec(p=p, weight=weight))
        ratio, bound = logs[1:] - logs[0], weight_log(control, x)
        assert (ratio <= bound + 1e-3).all() and (ratio >= -weight_log(control, -x) - 1e-3).all()
        assert (bound > 0.0).all()  # a bound that reads 0 would test covariance, not moderateness


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
def test_dynin_folland_covariance_named_draws(p):
    # two draws that the unprobed coupled mesh, which reached 25 boxes out,
    # missed by up to 1.1e-4 and 9.0e-3 (p = 3), with no warning
    rep = RepSpec(group_spec("dynin_folland"), 1.0)
    quad = [
        [11.17 + 3.32j, -0.09 - 0.03j, -3.89 - 0.37j],
        [-0.09 - 0.03j, 0.87 - 0.67j, 1.44 - 0.29j],
        [-3.89 - 0.37j, 1.44 - 0.29j, 5.18 - 0.24j],
    ]
    f = Gaussian(np.array(quad), np.array([0.48 + 0.77j, -0.1 + 0.27j, 0.01 - 0.25j]))
    a = np.array([[1.4, -1.32, 1.86, 0.49, 0.43, 1.88, 1.15], [-3.25, 0.37, 3.37, 0.5, 1.95, 3.58, 2.74]])
    assert max(_covariance_errors(rep, f, a, p)) < 1e-6


def _claim_coupled(monkeypatch, coupled):
    """Make every RepSpec built from here on claim the coupled coordinates
    coupled(true ones), keeping its affine ones and so its grading.  The
    window-side cache, keyed by a rep's value, is swapped for an empty one
    until the test ends, so no entry crosses the claim either way."""
    moving = RepSpec.moving.func
    monkeypatch.setattr(RepSpec, "moving", property(lambda rep: (coupled(moving(rep)[0]), moving(rep)[1])))
    cached = coorbit._cached_window_side
    fresh = functools.lru_cache(maxsize=cached.cache_info().maxsize)(cached.__wrapped__)
    monkeypatch.setattr(coorbit, "_cached_window_side", fresh)


def test_engine_validates_every_node(monkeypatch):
    # with the coupled coordinate treated as quadratic, the off-grid checks must fire
    _claim_coupled(monkeypatch, lambda coupled: ())
    rep = RepSpec(group_spec("g5_3"), 1.0)
    f = Gaussian(np.diag([1.2, 0.9]), [0.1, -0.2])
    with pytest.raises(RuntimeError, match="not quadratic"):
        coorbit_norm_log(rep, f, unit_gaussian(2), NormSpec(p=2.0))


def _nodes(rep, count=20):
    """count coupled nodes: the far corners at +-200 and a spread of nodes of
    the engine's sinh mesh, or the single empty node."""
    coupled, _ = rep.split
    if not coupled:
        return np.zeros((1, 0))
    axis = coorbit._sinh_axis(0.0, NormSpec())[0]
    corners = np.array(list(itertools.product((-200.0, 200.0), repeat=len(coupled))))
    inner = np.random.default_rng(3).choice(axis, (count - len(corners), len(coupled)))
    return np.concatenate([corners, inner])


def _node_case(name, d, mu, lam):
    """rep, one state per node (each shifted in its linear part), a window,
    the nodes of _nodes, and the generator that drew them."""
    rep = RepSpec(group_spec(name, d), lam, mu)
    k = rep.acting_dim
    rng = np.random.default_rng(11)
    C = rng.uniform(-0.6, 0.6, (k, k))
    f = chirp(Gaussian(np.diag(rng.uniform(0.8, 1.3, k)), rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k)), C + C.T)
    g = Gaussian(1.3 * np.eye(k) + 0.2 * np.ones((k, k)) + 0.15j * np.eye(k), np.full(k, 0.1 - 0.3j), 0.4)
    nodes = _nodes(rep)
    states = [Gaussian(f.quad, f.lin + 0.05 * j * (1.0 - 0.5j), f.log_amp) for j in range(len(nodes))]
    return rep, states, g, nodes, rng


_NODE_CASES = pytest.mark.parametrize(
    "name,d,mu",
    [("heisenberg", 1, 0.0), ("heisenberg", 2, 0.0), ("g6_16", 1, 0.6), ("g5_3", 1, 0.0), ("g6_19", 1, 0.6), ("dynin_folland", 1, 0.0)],
)


@pytest.mark.parametrize("lam", [2.0, -0.7])
@_NODE_CASES
def test_closed_form_quadratic_matches_the_stencil_fit(name, d, mu, lam):
    # the engine reads each node's quadratic from one solve; the unit-step
    # stencil over direct kernel values is the independent reference
    rep, states, g, nodes, rng = _node_case(name, d, mu, lam)
    coupled, fitdims = map(list, rep.split)  # lists: a top-level tuple indexes several axes
    quads = coorbit._node_quadratics(rep, stack_states(states), g, nodes)
    for j, node in enumerate(nodes):

        def kernel(r, node=node, f=states[j]):
            q = np.zeros(rep.group.quotient_dim)
            q[coupled], q[fitdims] = node, r
            return coefficient_log_modulus(rep, section(rep.group, q), f, g)[0]

        ref = fit_log_quadratic(kernel, len(fitdims))
        got = LogQuadratic(quads.const[j], quads.grad[j], quads.hess[j])
        for r in rng.uniform(-3.0, 3.0, (10, len(fitdims))):
            want = ref.value(r)
            assert abs(got.value(r) - want) <= 1e-9 * max(1.0, abs(want))


def test_closed_form_quadratic_is_exact_near_a_far_mode():
    # the g6_19 sibling of the g5_3 curve at u = 640: the stencil differenced
    # log moduli of order 1e5 and missed the kernel by 9e-5 near the modes
    _, _, sibling = g53_curve_tasks(1.0)
    f, g = sibling.prepare(640.0)
    rep = sibling.rep
    coupled, fitdims = map(list, rep.split)  # lists: a top-level tuple indexes several axes
    nodes = np.linspace(-8.0, 8.0, 9)[:, None]
    quads = coorbit._node_quadratics(rep, stack_states([f] * len(nodes)), g, nodes)
    rng = np.random.default_rng(5)
    for j, node in enumerate(nodes):
        quad = LogQuadratic(quads.const[j], quads.grad[j], quads.hess[j])
        r = np.linalg.solve(-quad.hess, quad.grad) + rng.normal(0.0, 0.3, (20, len(fitdims)))
        q = np.zeros((len(r), rep.group.quotient_dim))
        q[:, coupled], q[:, fitdims] = node, r
        direct = coefficient_log_modulus(rep, section(rep.group, q), f, g)
        assert np.abs(quad.value(r) - direct).max() < 1e-8


@pytest.mark.parametrize("lam", [2.0, -0.7])
@_NODE_CASES
def test_engine_check_values_are_the_kernel_at_the_check_points(monkeypatch, name, d, mu, lam):
    # the engine evaluates its check rows with its node's Q; the kernel forms
    # each row's own Q from its own factors
    rep, states, g, nodes, _ = _node_case(name, d, mu, lam)
    coupled, fitdims = map(list, rep.split)  # lists: a top-level tuple indexes several axes
    seen = []
    validate = coorbit._validate

    def recording(quad, fx, f0):
        seen.append(fx)
        validate(quad, fx, f0)

    monkeypatch.setattr(coorbit, "_validate", recording)
    coorbit._node_quadratics(rep, stack_states(states), g, nodes)
    [fx] = seen
    checks = coorbit._check_offsets(len(fitdims))
    q = np.zeros((len(nodes), len(checks), rep.group.quotient_dim))
    q[..., coupled] = nodes[:, None, :]
    q[..., fitdims] = checks
    a = section(rep.group, q).reshape(-1, rep.group.total_dim)
    want = coefficient_log_modulus(rep, a, stack_states([f for f in states for _ in checks]), g)
    assert np.all(np.abs(fx.ravel() - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def _block_case(name):
    """rep, stacked states (one per node), a window and the nodes: several
    states at the single node of heisenberg, and the far corners and inner
    nodes of the sinh mesh of g5_3 and dynin_folland."""
    if name != "heisenberg":
        rep, states, g, nodes, _ = _node_case(name, 1, 0.0, 2.0)
        return rep, stack_states(states), g, nodes
    rep = RepSpec(group_spec(name), 2.0)
    rng = np.random.default_rng(17)
    states = [
        Gaussian(np.diag(rng.uniform(0.7, 1.4, 1)) + 0.3j, rng.uniform(-1, 1, 1) + 1j * rng.uniform(-1, 1, 1))
        for _ in range(7)
    ]
    g = Gaussian(1.3 + 0.15j, [0.1 - 0.3j], 0.4)
    return rep, stack_states(states), g, np.zeros((len(states), 0))


@pytest.mark.parametrize("name", ["heisenberg", "g5_3", "dynin_folland"])
def test_node_quadratics_do_not_depend_on_the_block_size(monkeypatch, name):
    # the nodes as one block, as uneven blocks of three, and one node per
    # block (a block smaller than a node's rows still takes one node)
    rep, states, g, nodes = _block_case(name)
    rows = len(rep.split[1]) + 4
    got = []
    for block in (rows * len(nodes), rows * 3, rows, 1):
        monkeypatch.setattr(coorbit, "_BLOCK", block)
        got.append(coorbit._node_quadratics(rep, states, g, nodes))
    for quad in got[1:]:
        for field, ref in zip(quad, got[0]):
            assert field.shape == ref.shape and field.tobytes() == ref.tobytes()


def test_validate_decides_at_its_tolerance():
    # a residual passes up to 1e-7 of max(100, |fx|, |f0|), entry by entry;
    # a model that is not finite reports the overflow
    rng = np.random.default_rng(23)
    checks = coorbit._check_offsets(2)
    scale = np.array([[1e-3], [3.0], [1e4]])  # below the floor of 100, and above it through fx
    quad = LogQuadratic(
        scale[:, :1] * rng.uniform(0.5, 1.0, (3, 4)),
        scale[..., None] * rng.uniform(-0.2, 0.2, (3, 4, 2)),
        scale[..., None, None] * -np.eye(2) * rng.uniform(0.5, 1.0, (3, 4, 1, 1)),
    )
    model = quad.const[..., None] + quad.grad @ checks.T
    model += 0.5 * np.einsum("ci,...ij,cj->...c", checks, quad.hess, checks)
    f0 = quad.const.copy()
    f0[1, 1] = 5e3  # a value at the node, not at the checks, sets the scale of one entry
    tol = 1e-7 * np.maximum(np.maximum(100.0, np.abs(model)), np.abs(f0)[..., None])
    sign = rng.choice([-1.0, 1.0], model.shape)
    coorbit._validate(quad, model + 0.9 * sign * tol, f0)
    for at in [(0, 0, 0), (1, 1, 2), (2, 3, 1)]:
        fx = model + 0.9 * sign * tol
        fx[at] = model[at] + 1.1 * sign[at] * tol[at]
        with pytest.raises(RuntimeError, match="not quadratic"):
            coorbit._validate(quad, fx, f0)
    for bad in (np.nan, np.inf):
        const = quad.const.copy()
        const[2, 0] = bad
        with pytest.raises(OverflowError, match="leave double range"):
            coorbit._validate(LogQuadratic(const, quad.grad, quad.hess), model, f0)


def test_engine_reads_k_plus_4_factor_rows_per_node(monkeypatch):
    # one factor table: the three check rows, r = 0 and e_1, ..., e_k of each
    # node (k = 4 on dynin_folland and on the 2-dimensional modulation norm),
    # not the 18-point stencil, and no call past _BLOCK group elements; the
    # nodes are the 23 x 23 sinh mesh and those the probe reads on both axes
    rows, probed = [], []
    factors, probe = coorbit._factors, coorbit._probe_center

    def counting(rep, a):
        rows.append(len(a))
        return factors(rep, a)

    def probing(slice_mass, n_rows):
        sizes = []
        probed.append(sizes)

        def counted(r, c):
            sizes.append(c.size)
            return slice_mass(r, c)

        return probe(counted, n_rows)

    monkeypatch.setattr(coorbit, "_factors", counting)
    monkeypatch.setattr(coorbit, "_probe_center", probing)
    coorbit._cached_window_side.cache_clear()  # the first ladder's rows are read on a cold cache only
    rep = RepSpec(group_spec("dynin_folland"), 1.0)
    coorbit_norm_log(rep, Gaussian(np.eye(3) * 1.2, np.full(3, 0.1)), unit_gaussian(3), NormSpec(p=2.0))
    n_nodes = len(coorbit._sinh_axis(0.0, NormSpec())[0]) ** 2
    assert n_nodes == 529 and len(probed) == 2 and all(sizes[0] == 21 for sizes in probed)
    assert sum(rows) == 8 * (n_nodes + sum(map(sum, probed)))
    assert all(r % 8 == 0 for r in rows) and max(rows) <= coorbit._BLOCK
    # a closed-form norm reads its one node's rows only while the window
    # side is not cached: 8 on the cold call, none on the warm one
    coorbit._cached_window_side.cache_clear()
    f = chirp(unit_gaussian(2), np.array([[1.0, 0.5], [0.5, -2.0]]))
    for want in ([8], []):
        rows.clear()
        modulation_norm_log(f)
        assert rows == want


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


_CACHED_CASES = {
    "heisenberg-d1": lambda: coorbit_norm_log(
        RepSpec(H1, 1.3), Gaussian(1.2 + 0.4j, [0.3 - 0.2j]), Gaussian(1.1 + 0.2j, [0.1 - 0.3j], 0.4), NormSpec(p=1.5)
    ),
    "heisenberg-d2": lambda: coorbit_norm_log(
        RepSpec(group_spec("heisenberg", 2), -0.8),
        chirp(Gaussian(np.diag([1.1, 0.8]), [0.2, -0.4j]), np.array([[0.5, 0.2], [0.2, -1.0]])),
        unit_gaussian(2),
        NormSpec(p=2.0),
    ),
    "g6_16": lambda: coorbit_norm_log(
        RepSpec(group_spec("g6_16"), 2.0, 0.6),
        Gaussian(np.diag([1.3, 0.9]), [0.1, 0.2 + 0.5j]),
        unit_gaussian(2),
        NormSpec(p=1.0),
    ),
    "modulation-d2": lambda: modulation_norm_log(
        chirp(unit_gaussian(2), np.array([[1.0, 0.5], [0.5, -2.0]])), None, NormSpec(p=1.0)
    ),
    "heisenberg-weighted": lambda: coorbit_norm_log(
        RepSpec(H1, 1.0),
        Gaussian(0.9, [0.4 + 0.1j]),
        unit_gaussian(1),
        NormSpec(p=2.0, weight=power_weight(1.0, (0, 1))),
    ),
    "scan-six-states": lambda: [*(res := orbit_scan(chirp_scan_task(1.0, cross=True))).log_norms, res.slope],
}


@pytest.mark.parametrize("case", list(_CACHED_CASES))
def test_a_cached_window_side_gives_the_bits_of_a_cold_one(case):
    # the cold call fills the window side's cache, the warm call reads it
    coorbit._cached_window_side.cache_clear()
    cold = _hex(_CACHED_CASES[case]())
    info = coorbit._cached_window_side.cache_info()
    assert info.misses == 1 and info.hits == 0
    warm = _hex(_CACHED_CASES[case]())
    assert coorbit._cached_window_side.cache_info().hits == 1
    assert warm == cold


def test_the_window_side_cache_keys_on_the_window_values():
    # an equal-valued copy of the window hits; one ulp in any field of it, or
    # a field changed in place on the same object, misses
    coorbit._cached_window_side.cache_clear()
    rep, f = RepSpec(H1, 1.0), Gaussian(1.2, [0.3])
    g = Gaussian(1.1 + 0.2j, [0.1 - 0.3j], 0.4)
    ref = coorbit_norm_log(rep, f, g)
    assert coorbit_norm_log(rep, f, Gaussian(g.quad.copy(), g.lin.copy(), g.log_amp)) == ref
    assert coorbit._cached_window_side.cache_info()[:2] == (1, 1)  # hits, misses

    def up(z):
        return complex(np.nextafter(z.real, np.inf), z.imag)

    quad = g.quad.copy()
    quad[0, 0] = up(quad[0, 0])
    bumped = [
        Gaussian(quad, g.lin, g.log_amp),
        Gaussian(g.quad, [up(g.lin[0])], g.log_amp),
        Gaussian(g.quad, g.lin, up(g.log_amp)),
    ]
    for j, window in enumerate(bumped):
        coorbit_norm_log(rep, f, window)
        assert coorbit._cached_window_side.cache_info()[:2] == (1, 2 + j)
    g.lin[0] += 0.5
    moved = coorbit_norm_log(rep, f, g)
    assert coorbit._cached_window_side.cache_info()[:2] == (1, 5) and moved != ref


def test_window_side_cache_entries_are_read_only_and_bounded(monkeypatch):
    seen = []
    cached = coorbit._cached_window_side

    def recording(*key):
        seen.append(cached(*key))
        return seen[-1]

    monkeypatch.setattr(coorbit, "_cached_window_side", recording)
    cached.cache_clear()
    size = cached.cache_info().maxsize
    assert size is not None and size <= 64
    rep, f = RepSpec(H1, 1.0), Gaussian(1.2, [0.3])
    for j in range(size + 5):
        coorbit_norm_log(rep, f, Gaussian(1.0 + 0.01 * j))
    assert cached.cache_info().currsize == size
    for side in seen:
        for field in side:
            assert not field.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                field[...] = 0.0


def test_a_window_side_that_raises_is_not_cached(monkeypatch):
    # a split that claims no coupled coordinate on g5_3 fails the exact C/S
    # test in the window side: every call raises, and nothing is cached
    coorbit._cached_window_side.cache_clear()
    _claim_coupled(monkeypatch, lambda coupled: ())
    rep = RepSpec(group_spec("g5_3"), 1.0)
    for calls in (1, 2, 3):
        with pytest.raises(RuntimeError, match="the chirp or the substitution moves"):
            coorbit_norm_log(rep, Gaussian(np.diag([1.2, 0.9]), [0.1, -0.2]), unit_gaussian(2), NormSpec(p=2.0))
        assert coorbit._cached_window_side.cache_info()[1:] == (calls, 32, 0)  # misses, maxsize, currsize


def test_the_state_side_runs_on_every_call_to_a_cached_window_side():
    # Re(f.quad + conj(g.quad)) = [[2, 3], [3, 2]] is not positive definite:
    # a warm window side does not skip the check
    rep, g = RepSpec(group_spec("heisenberg", 2), 1.0), unit_gaussian(2)
    good = _States(np.eye(2, dtype=complex)[None], np.zeros((1, 2), complex), np.zeros(1, complex))
    bad = good._replace(quad=np.array([[[1.0, 3.0], [3.0, 1.0]]], dtype=complex))
    coorbit._cached_window_side.cache_clear()
    coorbit._node_quadratics(rep, good, g, np.zeros((1, 0)))
    for _ in range(2):
        with pytest.raises(ValueError, match="positive definite"):
            coorbit._node_quadratics(rep, bad, g, np.zeros((1, 0)))
    assert coorbit._cached_window_side.cache_info()[:2] == (2, 1)


def _record_window_sides(monkeypatch):
    """Wrap coorbit._window_side; the list it returns gets the nodes of each call."""
    seen = []
    inner = coorbit._window_side

    def recording(rep, g_quad, g_lin, g_log_amp, nodes):
        seen.append(np.array(nodes))
        return inner(rep, g_quad, g_lin, g_log_amp, nodes)

    monkeypatch.setattr(coorbit, "_window_side", recording)
    return seen


@pytest.mark.parametrize("name", ["g5_3", "g6_19", "dynin_folland"])
def test_a_warm_coupled_norm_builds_no_window_side_for_its_ladder(monkeypatch, name):
    # the probe's first ladder meets every state at the same 21 nodes: a cold
    # norm builds their window side once, a warm one reads it from the cache,
    # and both give the same bits
    rep = RepSpec(group_spec(name), 1.0, 1.0 if name == "g6_19" else 0.0)
    ladder = coorbit._shared_nodes(rep.unit)
    assert ladder.shape == (21, len(rep.split[0])) and not ladder[:, 1:].any()
    d = rep.acting_dim
    f, g = Gaussian(np.diag([1.3, 0.8, 1.1][:d]), [0.4, -0.2j, 0.1][:d]), unit_gaussian(d)
    seen = _record_window_sides(monkeypatch)
    coorbit._cached_window_side.cache_clear()
    runs = []
    for built in (1, 0):  # cold, then warm
        seen.clear()
        runs.append(_hex(coorbit_norm_log(rep, f, g, NormSpec(p=1.0))))
        assert sum(np.array_equal(nodes, ladder) for nodes in seen) == built
    assert coorbit._cached_window_side.cache_info()[:2] == (1, 1)  # hits, misses
    assert runs[0] == runs[1]


def test_a_second_state_on_the_same_window_hits_the_ladder_cache():
    coorbit._cached_window_side.cache_clear()
    rep, g = RepSpec(group_spec("g5_3"), 1.0), unit_gaussian(2)
    for f in (Gaussian(np.diag([1.3, 0.8]), [0.4, -0.2]), Gaussian(np.diag([0.9, 1.2]), [0.1j, 0.3])):
        coorbit_norm_log(rep, f, g, NormSpec(p=2.0))
    assert coorbit._cached_window_side.cache_info()[:2] == (1, 1)


def test_a_stacked_scan_reads_its_ladder_window_side_on_21_nodes(monkeypatch):
    # six states meet the same ladder: its window side is built on its 21
    # nodes and broadcast, not on 21 nodes per state
    seen = _record_window_sides(monkeypatch)
    coorbit._cached_window_side.cache_clear()
    orbit_scan(g53_curve_tasks(1.0)[0], DEFAULT_SCAN)
    sizes = [len(nodes) for nodes in seen]
    assert sizes[0] == 21 and 21 * len(DEFAULT_SCAN) not in sizes


@pytest.mark.parametrize("name", ["g5_3", "dynin_folland"])
def test_shared_nodes_give_the_bits_of_the_same_nodes_named_per_state(monkeypatch, name):
    # each state meets every shared node on the cached window side; naming
    # the nodes per state reads it inline.  They agree bit for bit, in one
    # block, in blocks of three states, and one state per block
    rep, states, g, _ = _block_case(name)
    states = states.rows(slice(0, 7))
    ladder = coorbit._shared_nodes(rep)
    n, rows = len(states.log_amp), len(rep.split[1]) + 4
    named = coorbit._node_quadratics(rep, states.rows(np.repeat(np.arange(n), len(ladder))), g, np.tile(ladder, (n, 1)))
    for block in (rows * len(ladder) * n, rows * len(ladder) * 3, 1):
        monkeypatch.setattr(coorbit, "_BLOCK", block)
        shared = coorbit._node_quadratics(rep, states, g)
        for field, ref in zip(shared, named):
            assert field.shape == ref.shape and field.tobytes() == ref.tobytes()


def test_engine_rejects_a_split_that_leaves_out_a_coupled_coordinate(monkeypatch):
    # dynin_folland couples two quotient coordinates; with one of them fitted
    # as if quadratic, its chirp moves along the fit rows and the exact
    # comparison of C and S with the node's r = 0 row fires
    assert len(RepSpec(group_spec("dynin_folland"), 1.0).moving[0]) == 2
    _claim_coupled(monkeypatch, lambda coupled: coupled[:1])
    rep = RepSpec(group_spec("dynin_folland"), 1.0)
    with pytest.raises(RuntimeError, match="not quadratic .*: the chirp or the substitution moves"):
        coorbit_norm_log(rep, Gaussian(np.eye(3) * 1.2, np.full(3, 0.1)), unit_gaussian(3), NormSpec(p=2.0))


def test_factors_past_double_range_are_not_reported_as_a_wrong_split(monkeypatch):
    # a chirp past double range holds inf and nan, and nan differs from
    # itself: the exact comparison must report the overflow, not the split
    factors = coorbit._factors

    def overflowing(rep, a):
        theta, C, m, S, v = factors(rep, a)
        return theta, C * np.inf, m, S, v

    monkeypatch.setattr(coorbit, "_factors", overflowing)
    rep = RepSpec(group_spec("g5_3"), 1.0)
    with pytest.raises(OverflowError, match="leave double range"):
        coorbit_norm_log(rep, unit_gaussian(2), unit_gaussian(2), NormSpec(p=2.0))


def test_engine_against_full_grid_on_g5_3():
    # honest four-dimensional Riemann sum; coarse but entirely independent.
    # Each coefficient is integrated in t = (s, tau) from the displayed formula
    # of the action.  f and g are diagonal and the phase is an s-term plus a
    # tau-term, so the integral splits into an s-factor, which reads only
    # (q1, q2), and a tau-factor, which reads only (q0, q2, q3).
    rep = RepSpec(group_spec("g5_3"), 1.0)
    f_s, f_tau = Gaussian(1.2, 0.1), Gaussian(0.9, -0.2)
    f = tensor(f_s, f_tau)
    g1 = unit_gaussian(1)
    g = unit_gaussian(2)
    p = 2.0
    engine = coorbit_norm_log(rep, f, g, NormSpec(p=p))
    step, half = 0.5, 3.0
    ax = np.arange(-half, half, step) + step / 2
    t = np.arange(-10.0, 10.0 + 1e-9, 0.02)
    w = np.full(t.shape, 0.02)
    w[[0, -1]] /= 2.0  # trapezoidal rule
    on_s = np.stack([t, np.zeros_like(t)], axis=-1)
    on_tau = on_s[:, ::-1]

    def factors(q):
        """(pi(q) g)(t) restricted to the s-axis and to the tau-axis."""
        phase, S, v = pointwise_action(rep, section(rep.group, q))
        assert np.array_equal(S, np.eye(2))
        return phase(on_s) * g1(t + v[0]), phase(on_tau) * g1(t + v[1])

    rng = np.random.default_rng(12)
    for q0, q1, q2, q3 in rng.uniform(-half, half, (5, 4)):
        phase, _, v = pointwise_action(rep, section(rep.group, [q0, q1, q2, q3]))
        i, j = rng.integers(0, len(t), 2)
        whole = phase(np.array([t[i], t[j]])) * g(np.array([t[i], t[j]]) + v)
        split = factors([0.0, q1, q2, 0.0])[0][i] * factors([q0, 0.0, q2, q3])[1][j]
        assert whole == pytest.approx(split, rel=1e-12)

    s_rows = np.array([factors([0.0, q1, q2, 0.0])[0] for q1 in ax for q2 in ax])
    tau_rows = np.array([factors([q0, 0.0, q2, q3])[1] for q0 in ax for q2 in ax for q3 in ax])
    log_s = np.log(np.abs(np.conj(s_rows) @ (f_s(t) * w))).reshape(len(ax), len(ax))
    log_tau = np.log(np.abs(np.conj(tau_rows) @ (f_tau(t) * w))).reshape(len(ax), len(ax), len(ax))
    log_mod = log_s[None, :, :, None] + log_tau[:, None, :, :]  # axes (q0, q1, q2, q3)
    brute = (logsumexp(p * log_mod) + 4 * np.log(step)) / p
    assert abs(np.expm1(engine - brute)) < 2e-2


def test_g5_3_norm_regression_pin():
    # adaptive quadrature on the slice mass reads 1.9017378898, the engine 1.9017378751
    rep = RepSpec(group_spec("g5_3"), 1.0)
    state, _ = g53_curve_tasks(1.0)[0].prepare(10.0)
    [want], [error] = _quadrature_log_norms(rep, stack_states([state]), 1.0)
    assert error < 1e-9
    got = np.exp(coorbit_norm_log(rep, state, unit_gaussian(2), NormSpec(p=1.0)))
    assert got == pytest.approx(np.exp(want), rel=1e-6)


def test_isometry_of_the_action():
    for name in ("heisenberg", "g5_3"):
        grp = group_spec(name, 1)
        rep = RepSpec(grp, 1.0)
        f = Gaussian(np.eye(rep.acting_dim) * 1.1, np.full(rep.acting_dim, 0.2))
        g = unit_gaussian(rep.acting_dim)
        a = np.zeros(grp.total_dim)
        a[-1] = 1.0
        moved = apply_rep(rep, a, f)
        n0 = coorbit_norm_log(rep, f, g, NormSpec(p=1.0))
        n1 = coorbit_norm_log(rep, moved, g, NormSpec(p=1.0))
        assert abs(np.expm1(n1 - n0)) < 1e-2


def test_modulation_norm_tensor_multiplicativity():
    f1, f2 = Gaussian(1.3, 0.2), Gaussian(0.9, -0.4)
    g = unit_gaussian(1)
    got = modulation_norm_log(tensor(f1, f2), unit_gaussian(2), NormSpec(p=1.5))
    want = modulation_norm_log(f1, g, NormSpec(p=1.5)) + modulation_norm_log(f2, g, NormSpec(p=1.5))
    assert got == pytest.approx(want, abs=1e-10)


def test_modulation_norm_of_chirps_matches_closed_form():
    g = unit_gaussian(1)
    for u in (2.0, 4.0, 8.0):
        got = np.exp(modulation_norm_log(chirp(g, u), g, NormSpec(p=1.0)))
        assert got == pytest.approx(chirp_mp_norm(u, 1.0), rel=1e-8)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stft_kernel_matches_log_stft_modulus(d):
    # modulation norms read V_g f(x, xi) = <f, M_xi T_x g> off the H_d kernel at
    # lambda = -1; the Gaussian-algebra route is the independent reference
    rng = np.random.default_rng(10 + d)
    A = rng.uniform(-0.3, 0.3, (d, d))
    quad = np.eye(d) * 1.1 + 0.2 * (A + A.T) + 0.4j * np.eye(d)
    f = translate(chirp(Gaussian(quad, rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)), np.diag(rng.uniform(-3, 3, d))), rng.uniform(-2, 2, d))
    g = Gaussian(np.eye(d) * 1.6, rng.uniform(-0.5, 0.5, d), log_amp=0.3)
    z = rng.uniform(-6.0, 6.0, (200, 2 * d))
    rep = coorbit._stft_rep(d)
    assert rep == RepSpec(group_spec("heisenberg", d), -1.0)
    got = coefficient_log_modulus(rep, section(rep.group, z), f, g)
    want = np.array([log_stft_modulus(f, g, x[:d], x[d:]) for x in z])
    assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))


def _sequential_probe(slice_mass, moves=None):
    """The recentring probe one center at a time, as the engine ran it before batching.

    moves, if given, gets the center of each move of the climb after the ladder.
    """
    best_c, best_v = 0.0, slice_mass(0.0)
    for mag in (float(2**k) for k in range(1, 11)):
        for c in (mag, -mag):
            v = slice_mass(c)
            if v > best_v:
                best_c, best_v = c, v
    step = max(1.0, abs(best_c) / 2.0)
    while step >= 0.25:
        moved = False
        for c in (best_c + step, best_c - step):
            v = slice_mass(c)
            if v > best_v:
                best_c, best_v, moved = c, v, True
        if moved and moves is not None:
            moves.append(best_c)
        if not moved:
            step /= 2.0
    return best_c


_SLICE_MASSES = {
    "peak": lambda c: -((c - 3.3) ** 2),
    "peak-near-1000": lambda c: -((c - 999.6) ** 2),
    "peak-near-minus-1000": lambda c: -np.abs(c + 1000.2),
    "flat": lambda c: np.zeros_like(c),
    "plateau": lambda c: -np.maximum(np.abs(c - 37.0) - 6.0, 0.0),
    "terraces": lambda c: -np.floor(np.abs(c + 211.0) / 3.0),
    "twin-peaks": lambda c: -np.abs(np.abs(c) - 8.0),
    "twin-plateaus": lambda c: -np.maximum(np.abs(np.abs(c) - 700.0) - 40.0, 0.0),
    "ripples": lambda c: np.round(np.cos(c), 1) - 1e-4 * (c - 500.0) ** 2,
    # from 512 with step 128 both neighbours gain; the larger gain wins
    "both-sides-gain": lambda c: -1e-3 * np.abs(c - 512.0) + 2.0 * (np.abs(c - 384.0) < 1) + (np.abs(c - 640.0) < 1),
    # ... and on equal gains the step up wins
    "equal-gains": lambda c: -1e-3 * np.abs(c - 512.0) + (np.abs(np.abs(c - 512.0) - 128.0) < 1),
}


@pytest.mark.parametrize("name", list(_SLICE_MASSES))
def test_batched_probe_matches_sequential(name):
    mass = _SLICE_MASSES[name]
    calls = []

    def batched(rows, c):
        assert list(rows) == [0]
        calls.append(c.size)
        return mass(np.asarray(c, dtype=float))

    (got,) = coorbit._probe_center(batched, 1)
    moves = []
    assert got == _sequential_probe(lambda c: float(mass(np.array([c]))[0]), moves)
    # after the ladder, one call per move and one that finds no step gains
    assert calls[0] == 21 and len(calls) - 1 <= len(moves) + 1


def test_lockstep_probe_matches_sequential_per_row():
    # every slice-mass shape is one row of a single lockstep probe: each row
    # must land where the sequential probe lands, and a row must leave the
    # calls once its climb is done, after one call per move of the sequential
    # one and one more
    names = list(_SLICE_MASSES)
    masses = [_SLICE_MASSES[name] for name in names]
    calls = []

    def lockstep(rows, c):
        calls.append((list(rows), c.shape))
        return np.stack([masses[r](c[i]) for i, r in enumerate(rows)])

    got = coorbit._probe_center(lockstep, len(names))
    assert calls[0] == (list(range(len(names))), (len(names), 21))
    for before, (rows, shape) in zip(calls, calls[1:]):
        assert shape[0] == len(rows) and shape[1] % 2 == 0
        assert set(rows) <= set(before[0])
    for r, mass in enumerate(masses):
        moves = []
        assert got[r] == _sequential_probe(lambda c, mass=mass: float(mass(np.array([c]))[0]), moves), names[r]
        assert sum(r in rows for rows, _ in calls[1:]) <= len(moves) + 1, names[r]


@pytest.mark.parametrize("u", [320.0, 640.0])
def test_df_chirp_direction_modulation_norm_precision(u):
    # the state is the unit window chirped by the cross matrix u/2 in (w2, w3)
    # and modulated, which leaves the norm alone; differencing the log modulus
    # far from its mode lost digits (the route through log_stft_modulus missed
    # by 2.7e-6 at u = 320 and 2.2e-5 at u = 640)
    task = df_modulation_task(1.0)
    f, g = task.prepare(u)
    C = np.zeros((3, 3))
    C[1, 2] = C[2, 1] = u / 2.0
    assert modulation_norm_log(f, g, task.norm) == pytest.approx(np.log(chirp_mp_norm(C, 1.0)), abs=1e-8)


@pytest.mark.parametrize("p,coords", [(2.0, (0, 1)), (1.0, (0,)), (3.0, (1,))])
def test_weighted_modulation_norm_against_grid_sum(p, coords):
    # the weighted directions are meshed and the others integrated in closed
    # form; a plain sum of the closed-form spectrogram of a chirp, on the
    # engine's nodes in the weighted directions and a fine grid in the others,
    # must agree
    C = np.array([[1.5]])
    spec = NormSpec(p=p, weight=power_weight(1.0, coords), box_half=7.0, resolution=0.25)
    got = modulation_norm_log(chirp(unit_gaussian(1), C), unit_gaussian(1), spec)
    nodes, fine = np.arange(-7.0, 7.0 + 0.125, 0.25), np.arange(-40.0, 40.0, 0.05)
    x, xi = (nodes if i in coords else fine for i in (0, 1))
    X, XI = np.meshgrid(x, xi, indexing="ij")
    V = chirp_stft_modulus(C, X[..., None], XI[..., None])
    m = 1.0 + np.hypot(X if 0 in coords else 0.0, XI if 1 in coords else 0.0)
    want = np.log(np.sum((V * m) ** p) * (x[1] - x[0]) * (xi[1] - xi[0])) / p
    assert got == pytest.approx(want, abs=1e-10)


def test_weighted_modulation_norm_obeys_the_node_budget(monkeypatch):
    # a norm weighted on x and xi meshes both: 57^2 = 3,249 nodes, refused
    # before any mesh is built
    monkeypatch.setattr(coorbit, "_MAX_NODES", 1000)
    spec = NormSpec(p=2.0, weight=power_weight(1.0, (0, 1)), box_half=7.0, resolution=0.25)
    with pytest.raises(WorkBudgetError, match="3,249 exceeds"):
        modulation_norm_log(unit_gaussian(1), unit_gaussian(1), spec)


def test_mesh_nodes_counts_the_nodes_the_axes_hold():
    # box half-widths on and off the grid of each step: the budget's count must
    # be each built axis's length (it read 24 linear nodes at box_half = 1.175,
    # resolution = 0.1, where the axis holds 25)
    wrong = []
    for h in (0.1, 0.07, 0.3, 0.125):
        for b in ((k + f) * h for k in range(1, 100) for f in (0.0, 0.25, 0.5, 0.75)):
            spec = NormSpec(box_half=b, resolution=h)
            n_sinh, n_linear = len(coorbit._sinh_axis(0.0, spec)[0]), len(coorbit._linear_axis(spec)[0])
            counts = [coorbit._mesh_nodes(spec, 1, 0), coorbit._mesh_nodes(spec, 0, 1), coorbit._mesh_nodes(spec, 2, 1)]
            if counts != [n_sinh, n_linear, n_sinh**2 * n_linear]:
                wrong.append((b, h, counts))
    assert wrong == []


def test_tail_raise_on_cramped_box():
    # a narrow window spreads its coefficient past the default box: the outer
    # shell carries 1.24% of the mass at 50 I, over the 1% that formal_dimension allows
    rep = RepSpec(group_spec("g5_3"), 1.0)
    with pytest.raises(ValueError, match="outer quadrature shell"):
        formal_dimension(rep, Gaussian(50.0 * np.eye(2)))


def test_every_tail_warning_points_at_the_callers_line():
    # a box of half-width 1 cuts off mass on g5_3's coupled axis and on a
    # weighted phase-space axis; each entry point's warning names this file
    rep, f = RepSpec(group_spec("g5_3"), 1.0), unit_gaussian(2)
    small = NormSpec(p=1.0, box_half=1.0, resolution=0.25)
    weighted = NormSpec(p=1.0, weight=power_weight(1.0, (0,)), box_half=1.0, resolution=0.25)
    task = NormTask("small-box", small, lambda u: stack_states([f] * len(u)), f, rep=rep)
    calls = [
        lambda: coorbit_norm_log(rep, f, f, small),
        lambda: modulation_norm_log(f, None, weighted),
        lambda: orbit_scan(task, (40.0, 80.0)),
    ]
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", TailMassWarning)
            call()
        assert caught and [w.filename for w in caught] == [__file__] * len(caught)


@pytest.mark.parametrize("name", ["g5_3", "g6_19", "dynin_folland"])
def test_coupled_mesh_resolution_stability(name):
    # every coupled axis is a sinh axis; at either step the norm must meet the
    # p = 2 closed form ||f|| ||g|| / sqrt(d_pi)
    rep = RepSpec(group_spec(name), 1.0, 1.0 if name == "g6_19" else 0.0)
    f = unit_gaussian(rep.acting_dim)
    want = _p2_closed_form(rep, f)
    for resolution in (0.25, 0.175):
        got = coorbit_norm_log(rep, f, f, NormSpec(p=2.0, resolution=resolution))
        assert abs(np.expm1(got - want)) < 1e-3, resolution


def test_fit_slope_on_synthetic_data():
    u = np.array(DEFAULT_SCAN)
    logs = 0.75 * np.log(u) + 2.0
    slope, intercept = fit_slope(u, logs, growth="u", u_min=32.0)
    assert slope == pytest.approx(0.75, abs=1e-12)
    assert intercept == pytest.approx(2.0, abs=1e-12)
    logs2 = -0.25 * np.log1p(u**2) + 1.0
    slope2, _ = fit_slope(u, logs2, growth="1+u^2", u_min=32.0)
    assert slope2 == pytest.approx(-0.25, abs=1e-12)


@pytest.mark.parametrize("p,want", [(1.0, 0.5), (2.0, 0.0), (4.0, -0.25)])
def test_chirp_scan_slopes(p, want):
    res = orbit_scan(chirp_scan_task(p))
    tol = 0.005 if p == 2.0 else 0.02
    assert abs(res.slope - want) <= tol


def test_cross_chirp_scan_slope():
    res = orbit_scan(chirp_scan_task(1.0, cross=True))
    assert abs(res.slope - 1.0) <= 0.02


def test_df_chirp_direction_slope():
    res = orbit_scan(df_modulation_task(1.0))
    assert abs(res.slope - 1.0) <= 0.02


def test_g53_curve_three_norms():
    own, mod, sibling = g53_curve_tasks(1.0)
    u_values = (10.0, 40.0, 160.0)
    r_own = orbit_scan(own, u_values=u_values)
    norms = np.exp(r_own.log_norms)
    assert np.abs(norms / norms[0] - 1).max() < 0.01
    r_mod = orbit_scan(mod, u_values=u_values)
    assert abs(r_mod.slope - 0.5) <= 0.02
    r_sib = orbit_scan(sibling, u_values=u_values)
    assert abs(r_sib.slope - 0.25) <= 0.02


def test_norm_task_validation():
    with pytest.raises(ValueError, match="unknown growth abscissa"):
        NormTask("x", NormSpec(), lambda u: None, unit_gaussian(1), growth="log u")


_LADDERS = {"default": DEFAULT_SCAN, "5-640": tuple(5.0 * 2**k for k in range(8))}


def _scan_tasks():
    from coorbit_lab.cli import _SCAN_TASKS

    tasks = [
        pytest.param(factory(p), ladder, id=f"{name}-p{p:g}-{ladder}")
        for name, (factory, _, _) in _SCAN_TASKS.items()
        for p in (1.0, 1.5, 2.0)
        for ladder in _LADDERS
    ]
    weighted = NormSpec(p=1.5, weight=power_weight(1.0, (0, 1)), resolution=0.25)

    def states(u):
        return stack_states([chirp(unit_gaussian(1), np.array([[0.02 * x]])) for x in u])

    task = NormTask("weighted", weighted, states, unit_gaussian(1))
    tasks.append(pytest.param(task, "default", id="weighted-modulation"))
    return tasks


@pytest.mark.parametrize("task,ladder", _scan_tasks())
def test_orbit_scan_is_the_per_u_scalar_norms(task, ladder):
    # one stacked evaluation over the u-ladder gives, bit for bit, the log
    # norms of one public scalar call per u
    u_values = _LADDERS[ladder]
    res = orbit_scan(task, u_values)
    want = []
    for u in u_values:
        f, g = task.prepare(u)
        if task.rep is None:
            want.append(modulation_norm_log(f, g, task.norm))
        else:
            want.append(coorbit_norm_log(task.rep, f, g, task.norm))
    assert [v.hex() for v in res.log_norms] == [v.hex() for v in want]
    assert len(res.centers) == (0 if task.rep is None else len(u_values))


def _count_node_reads(monkeypatch):
    """Wrap coorbit._node_quadratics; the list it returns gets the node count
    of each call, one per model it returns (each state at each shared node
    when the call names no nodes)."""
    calls = []
    inner = coorbit._node_quadratics

    def counting(rep, states, g, cpts=None):
        quad = inner(rep, states, g, cpts)
        calls.append(len(quad.const))
        return quad

    monkeypatch.setattr(coorbit, "_node_quadratics", counting)
    return calls


@pytest.mark.parametrize(
    "task",
    [chirp_scan_task(1.0), chirp_scan_task(2.0, cross=True), g53_curve_tasks(1.0)[1], df_modulation_task(1.0)],
    ids=lambda t: t.label,
)
def test_modulation_scan_reads_one_node_batch(monkeypatch, task):
    calls = _count_node_reads(monkeypatch)
    orbit_scan(task, DEFAULT_SCAN)
    assert calls == [len(DEFAULT_SCAN)]


def test_coorbit_scan_probes_in_lockstep(monkeypatch):
    # one ladder read of 21 nodes per state, then one read per lockstep move,
    # each of +-step pairs, then one mesh read of every state's nodes
    own = g53_curve_tasks(1.0)[0]
    calls = _count_node_reads(monkeypatch)
    coorbit._cached_window_side.cache_clear()
    res = orbit_scan(own, DEFAULT_SCAN)
    u = len(DEFAULT_SCAN)
    assert calls[0] == 21 * u
    assert all(0 < n and n % 2 == 0 for n in calls[1:-1])
    assert calls[-1] == u * len(coorbit._sinh_axis(0.0, own.norm)[0])
    assert len(res.centers) == u and all(len(c) == 1 for c in res.centers)


@pytest.mark.parametrize("case", ["own-scan", "g5_3-norm"])
def test_probe_reads_the_kernel_once_per_move(monkeypatch, case):
    # the ladder, one read per move of the climbs and one that finds no step
    # gains, then the mesh: a probe that read one step per call made 13 or 14
    # reads on the own scan and 5 on the g5_3 norm
    calls = _count_node_reads(monkeypatch)
    if case == "own-scan":
        orbit_scan(g53_curve_tasks(1.0)[0], DEFAULT_SCAN)
        assert len(calls) <= 5
    else:
        f = Gaussian(np.diag([1.3, 0.8]), np.array([0.4, -0.2]))
        coorbit_norm_log(RepSpec(group_spec("g5_3"), 1.0), f, unit_gaussian(2), NormSpec(p=2.0))
        assert len(calls) <= 3


def test_stacked_tail_check_names_only_the_state_that_spills():
    # a state narrow along the first acting variable spreads along g5_3's
    # coupled coordinate past a box of half-width 1.5; the unit states do not
    rep = RepSpec(group_spec("g5_3"), 1.0)

    def states(u):
        return stack_states([Gaussian(np.diag([20.0 if x == 40.0 else 1.0, 1.0])) for x in u])

    task = NormTask("spill", NormSpec(p=2.0, box_half=1.5), states, unit_gaussian(2), rep=rep)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        orbit_scan(task, (10.0, 20.0, 40.0, 80.0))
    messages = [str(w.message) for w in caught if issubclass(w.category, TailMassWarning)]
    assert len(messages) == 1 and messages[0].startswith("coorbit norm on g5_3 at u = 40:")


@pytest.mark.parametrize("kind", ["modulation", "coorbit"])
def test_orbit_scan_needs_one_state_of_the_window_dimension_per_u(kind):
    # a row short of the ladder would zip the per-u labels short; a state of
    # another dimension than the window has no norm against it
    base = chirp_scan_task(1.0, cross=True)
    rep = RepSpec(group_spec("g5_3"), 1.0) if kind == "coorbit" else None
    short = NormTask("short", base.norm, lambda u: base.states(u[:-1]), base.window, rep=rep)
    wide = NormTask("wide", base.norm, base.states, unit_gaussian(3), rep=rep)
    for task in (short, wide):
        with pytest.raises(ValueError, match="one state of the window's dimension"):
            orbit_scan(task, (1.0, 2.0, 40.0, 80.0))


def test_node_kernel_rejects_states_whose_real_part_is_not_positive_definite():
    # Re(f.quad + conj(g.quad)) = [[2, 3], [3, 2]] has a positive diagonal and
    # the eigenvalue -1: the integral of the product does not exist
    rep = RepSpec(group_spec("g5_3"), 1.0)
    good = np.eye(2, dtype=complex)
    bad = np.array([[1.0, 3.0], [3.0, 1.0]], dtype=complex)
    states = _States(np.array([good, bad]), np.zeros((2, 2), complex), np.zeros(2, complex))
    g = unit_gaussian(2)
    assert np.isfinite(coorbit._node_quadratics(rep, states.rows([0]), g, np.zeros((1, 1))).const).all()
    with pytest.raises(ValueError, match="positive definite"):
        coorbit._node_quadratics(rep, states, g, np.zeros((2, 1)))
    with pytest.raises(ValueError, match="positive definite"):
        coefficient_log_modulus(rep, np.zeros((2, rep.group.total_dim)), states, g)


_REP53 = RepSpec(group_spec("g5_3"), 1.0)
_REP_DF = RepSpec(group_spec("dynin_folland"), 1.0)


def _along(rep, u):
    """The group element u e_3: the direction of the g5_3 curve and of the df chirp."""
    a = np.zeros(rep.group.total_dim)
    a[3] = u
    return a


def _g53_curve_state(u):
    return apply_rep(_REP53, _along(_REP53, u), tensor(Gaussian(1.4, 0.3), unit_gaussian(1)))


# the per-u constructions the stacked ladders replace, kept as their reference
_PER_U_STATES = {
    "chirp-1d": lambda u: chirp(unit_gaussian(1), np.array([[u]])),
    "chirp-2d-cross": lambda u: chirp(unit_gaussian(2), np.array([[0.0, u / 2.0], [u / 2.0, 0.0]])),
    "g53-curve-own": _g53_curve_state,
    "g53-curve-modulation": _g53_curve_state,
    "g53-curve-sibling": _g53_curve_state,
    "df-chirp-direction": lambda u: apply_rep(_REP_DF, _along(_REP_DF, u), unit_gaussian(3)),
}


@pytest.mark.parametrize("name", sorted(_PER_U_STATES))
def test_stacked_ladder_is_the_per_u_construction(name):
    # one stacked chirp or action over the ladder gives, bit for bit, the
    # states of one validated Gaussian per u; prepare(u) is its one-row case
    from coorbit_lab.cli import _SCAN_TASKS

    task = _SCAN_TASKS[name][0](1.0)
    u = np.array(DEFAULT_SCAN + _LADDERS["5-640"] + (0.0, 1e-3, 2.5e4))
    want = stack_states([_PER_U_STATES[name](x) for x in u])
    for got, ref in zip(task.states(u), want):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    f, g = task.prepare(u[2])
    ref = _PER_U_STATES[name](u[2])
    assert (f.quad.tobytes(), f.lin.tobytes(), f.log_amp) == (ref.quad.tobytes(), ref.lin.tobytes(), ref.log_amp)
    assert g is task.window and g.dim == f.dim


def test_fit_slope_needs_two_distinct_abscissae_past_u_min():
    with pytest.raises(ValueError, match="distinct"):
        fit_slope([10.0, 40.0, 40.0, 40.0], [0.0, 1.0, 1.0, 1.0], u_min=32.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slope, _ = fit_slope([10.0, 40.0, 40.0, 80.0], [0.0, 1.0, 1.0, 1.0 + np.log(2.0)], u_min=32.0)
    assert slope == pytest.approx(1.0, abs=1e-12)


def test_weighted_coorbit_norm_memory_is_bounded_by_blocks():
    # at resolution 0.07 the weight mesh on quotient coordinates (0, 1) of
    # g5_3 has 229 x 229 nodes per coupled node (41 of them), 2.17 M pairs;
    # conditioning a model per pair all at once peaked at 235 MB on 2.15 M,
    # where the engine now holds one value per pair.
    # The child reports its peak resident size as VmHWM:
    # ru_maxrss would carry over the peak of this process, which a fork and
    # exec keep on Linux
    code = (
        "import numpy as np\n"
        "from coorbit_lab.coorbit import NormSpec, coorbit_norm_log, power_weight\n"
        "from coorbit_lab.gaussian import Gaussian, unit_gaussian\n"
        "from coorbit_lab.groups import group_spec\n"
        "from coorbit_lab.representations import RepSpec\n"
        "rep = RepSpec(group_spec('g5_3'), 1.0)\n"
        "spec = NormSpec(p=2.0, weight=power_weight(1.0, (0, 1)), resolution=0.07)\n"
        "v = coorbit_norm_log(rep, Gaussian(1.2 * np.eye(2), np.full(2, 0.1)), unit_gaussian(2), spec)\n"
        "hwm = [line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')]\n"
        "print(repr(v), *hwm)\n"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    out = proc.stdout.split()
    assert float(out[0]) == pytest.approx(-0.3549382092652973, rel=1e-15)
    assert int(out[1]) / 1024.0 < 100.0  # VmHWM is in kB


def _no_kernel(*args, **kwargs):
    raise AssertionError("a kernel call came before the refusal")


@pytest.mark.parametrize(
    "group,lam,spec,error,match",
    [
        ("g5_3", 1.0, NormSpec(weight=power_weight(1.0, (7,))), ValueError, "out of range"),
        ("heisenberg", 1e-300, NormSpec(p=1.0, weight=WeightSpec(1.0, [[0.0, 1e10]])), WeightRangeError, "A delta"),
        ("g5_3", 1.0, NormSpec(resolution=1e-7), WorkBudgetError, "work budget"),
    ],
    ids=["weight-out-of-range", "weight-past-double-range", "node-budget"],
)
def test_every_refusal_comes_before_any_kernel_call(monkeypatch, group, lam, spec, error, match):
    # each norm would probe or read the kernel next, so a refusal made after
    # that point would show as the AssertionError instead of its own error
    monkeypatch.setattr(coorbit, "_node_quadratics", _no_kernel)
    monkeypatch.setattr(coorbit, "_probe_center", _no_kernel)
    rep = RepSpec(group_spec(group), lam)
    f = unit_gaussian(rep.acting_dim)
    with pytest.raises(error, match=match):
        coorbit_norm_log(rep, f, f, spec)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="mu cancels in the g6_16 engine (ROADMAP item 9)")
@pytest.mark.parametrize("mu", [1e8, 1e9])
def test_g6_16_norm_does_not_depend_on_a_large_mu(mu):
    # an unweighted g6_16 norm is the same at every mu, 2 here as at mu = 0;
    # today it reads 1.772453850905516 at mu = 1e8 and 0.09045015681978348 at
    # 1e9, with no warning
    g = unit_gaussian(2)
    got = np.exp(coorbit_norm_log(RepSpec(group_spec("g6_16"), 1.0, mu), g, g, NormSpec(p=1.0)))
    assert got == pytest.approx(2.0, rel=1e-9)
