"""The exact Gaussian algebra: every operator against direct evaluation,
every closed form against quadrature."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from coorbit_lab.gaussian import (
    Gaussian,
    chirp,
    chirp_mp_norm,
    chirp_stft_modulus,
    conjugate,
    delta_matrix,
    inner_product,
    l2_norm,
    log_gauss_integral,
    log_gauss_integrals,
    log_inner,
    log_stft_modulus,
    modulate,
    pullback_affine,
    quad_forms,
    stft_closed,
    tensor,
    translate,
    unit_gaussian,
)

coords = st.floats(-2.0, 2.0)


def quad_c(func, lim=8.0):
    """Complex 1-d quadrature, |t| <= lim."""
    re = quad(lambda t: func(t).real, -lim, lim, limit=200)[0]
    im = quad(lambda t: func(t).imag, -lim, lim, limit=200)[0]
    return re + 1j * im


def random_gaussian(rng, dim, spread=1.0):
    m = rng.normal(size=(dim, dim))
    quad_part = m @ m.T + np.eye(dim) + 1j * spread * np.triu(rng.normal(size=(dim, dim)), 0)
    quad_part = (quad_part + quad_part.T) / 2
    lin = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return Gaussian(quad_part, lin, rng.normal(scale=0.3) + 1j * rng.normal(scale=0.3))


def test_unit_gaussian_values():
    g = unit_gaussian(1)
    assert g(0.0) == pytest.approx(1.0)
    assert g(1.0) == pytest.approx(np.exp(-np.pi))
    g2 = unit_gaussian(2)
    assert g2(np.array([1.0, 1.0])) == pytest.approx(np.exp(-2 * np.pi))


def test_l2_norm_closed_form():
    # int exp(-2 pi t^2) dt = 2^{-1/2} per axis
    for d in (1, 2, 3):
        assert l2_norm(unit_gaussian(d)) == pytest.approx(2.0 ** (-d / 4), rel=1e-12)


def test_gauss_integral_against_quadrature():
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = random_gaussian(rng, 1)
        num = quad_c(lambda t: g(np.array([t])))
        assert np.exp(log_gauss_integral(g)) == pytest.approx(num, rel=1e-9)


def test_inner_product_against_quadrature():
    rng = np.random.default_rng(4)
    f, g = random_gaussian(rng, 1), random_gaussian(rng, 1)
    num = quad_c(lambda t: f(np.array([t])) * np.conj(g(np.array([t]))))
    assert inner_product(f, g) == pytest.approx(num, rel=1e-9)


@given(x=coords, t=coords)
@settings(max_examples=40, deadline=None)
def test_translate_evaluates(x, t):
    g = unit_gaussian(1)
    assert translate(g, x)(t) == pytest.approx(g(t - x), abs=1e-12)


@given(xi=coords, t=coords)
@settings(max_examples=40, deadline=None)
def test_modulate_evaluates(xi, t):
    g = unit_gaussian(1)
    want = np.exp(2j * np.pi * xi * t) * g(t)
    assert modulate(g, xi)(t) == pytest.approx(want, abs=1e-12)


@given(c=st.floats(-5.0, 5.0), t=coords)
@settings(max_examples=40, deadline=None)
def test_chirp_evaluates(c, t):
    g = unit_gaussian(1)
    want = np.exp(-1j * np.pi * c * t * t) * g(t)
    assert chirp(g, c)(t) == pytest.approx(want, abs=1e-12)


def test_pullback_affine_evaluates():
    rng = np.random.default_rng(5)
    g = random_gaussian(rng, 2)
    S = np.array([[1.0, 0.7], [0.0, 1.0]])
    v = np.array([0.3, -0.4])
    for t in rng.normal(size=(5, 2)):
        assert pullback_affine(g, S, v)(t) == pytest.approx(g(S @ t + v), rel=1e-12)


def test_tensor_and_conjugate():
    rng = np.random.default_rng(6)
    f, g = random_gaussian(rng, 1), random_gaussian(rng, 1)
    fg = tensor(f, g)
    t = np.array([0.3, -1.1])
    assert fg(t) == pytest.approx(f(t[:1]) * g(t[1:]), rel=1e-12)
    assert conjugate(f)(0.4) == pytest.approx(np.conj(f(0.4)), rel=1e-12)


def test_stft_closed_matches_definition():
    rng = np.random.default_rng(9)
    f, g = random_gaussian(rng, 1), random_gaussian(rng, 1)
    x, xi = 0.7, -0.4
    want = inner_product(f, modulate(translate(g, x), xi))
    assert stft_closed(f, g, x, xi) == pytest.approx(want, rel=1e-12)
    num = quad_c(lambda t: f(np.array([t])) * np.conj(g(np.array([t - x]))) * np.exp(-2j * np.pi * xi * t))
    assert stft_closed(f, g, x, xi) == pytest.approx(num, rel=1e-8)


def test_stft_of_window_at_origin():
    # <phi, phi> = ||phi||^2 = 2^{-1/2}
    g = unit_gaussian(1)
    assert stft_closed(g, g, 0.0, 0.0) == pytest.approx(2.0 ** -0.5, rel=1e-12)


def test_log_stft_modulus_survives_huge_chirps():
    g = unit_gaussian(1)
    f = chirp(g, 320.0)
    val = log_stft_modulus(f, g, 3.0, 2.0)
    assert np.isfinite(val)
    assert val == pytest.approx(np.log(chirp_stft_modulus(320.0, 3.0, 2.0)), rel=1e-10)


@pytest.mark.parametrize("dim", [1, 2])
def test_chirp_stft_modulus_matches_algebra(dim):
    rng = np.random.default_rng(10 + dim)
    g = unit_gaussian(dim)
    for _ in range(50):
        C = rng.uniform(-3, 3, (dim, dim))
        C = (C + C.T) / 2
        x = rng.uniform(-2, 2, dim)
        xi = rng.uniform(-2, 2, dim)
        want = abs(stft_closed(chirp(g, C), g, x, xi))
        assert chirp_stft_modulus(C, x, xi) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
def test_chirp_stft_modulus_batches_like_the_scalar_call(dim):
    rng = np.random.default_rng(20 + dim)
    C = rng.uniform(-3, 3, (dim, dim))
    C = (C + C.T) / 2
    x = rng.uniform(-2, 2, (4, 1, dim))
    xi = rng.uniform(-2, 2, (5, dim))
    got = chirp_stft_modulus(C, x, xi)
    assert got.shape == (4, 5)
    for i in range(4):
        for j in range(5):
            want = chirp_stft_modulus(C, x[i, 0], xi[j])
            assert isinstance(want, float)
            assert abs(got[i, j] - want) <= 1e-15
    np.testing.assert_array_equal(chirp_stft_modulus(C, (x, xi)), got)
    with pytest.raises(ValueError):
        chirp_stft_modulus(C, x, rng.uniform(-2, 2, (5, dim + 1)))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_chirp_stft_modulus_takes_a_stack_of_chirps(dim):
    rng = np.random.default_rng(40 + dim)
    C = rng.uniform(-3, 3, (6, dim, dim))
    C = (C + np.swapaxes(C, -1, -2)) / 2
    x = rng.uniform(-2, 2, (6, dim))
    xi = rng.uniform(-2, 2, (6, dim))
    got = chirp_stft_modulus(C, x, xi)
    assert got.shape == (6,)
    for i in range(6):
        assert abs(got[i] - chirp_stft_modulus(C[i], x[i], xi[i])) <= 1e-15
    C[3, 0, -1] += 1.0
    if dim > 1:
        with pytest.raises(ValueError, match="symmetric"):
            chirp_stft_modulus(C, x, xi)


def test_log_gauss_integral_is_one_row_of_the_stacked_form():
    rng = np.random.default_rng(44)
    gs = []
    for _ in range(5):
        quad = rng.uniform(0.5, 2) * np.eye(2) + 1j * np.diag(rng.uniform(-1, 1, 2))
        lin = rng.normal(size=2) + 1j * rng.normal(size=2)
        gs.append(Gaussian(quad, lin, rng.normal() + 1j * rng.normal()))
    stacked = log_gauss_integrals(
        np.stack([g.quad for g in gs]), np.stack([g.lin for g in gs]), np.array([g.log_amp for g in gs])
    )
    assert [complex(v) for v in stacked] == [log_gauss_integral(g) for g in gs]


def test_delta_matrix_determinant_identity():
    rng = np.random.default_rng(12)
    for dim in (1, 2, 3):
        for _ in range(20):
            C = rng.uniform(-4, 4, (dim, dim))
            C = (C + C.T) / 2
            lhs = np.linalg.det(delta_matrix(C)) * np.linalg.det(4 * np.eye(dim) + C @ C)
            assert lhs == pytest.approx(1.0, abs=1e-10)
    # pinned value: u = 3 in one variable gives det = 1/13
    assert np.linalg.det(delta_matrix(3.0)) == pytest.approx(1.0 / 13.0, rel=1e-12)


def test_chirp_mp_norm_pinned_value():
    # p = 1, u = 3: the closed form collapses to (4 + 9)^{1/4}
    assert chirp_mp_norm(3.0, 1.0) == pytest.approx(13.0 ** 0.25, rel=1e-12)


def test_chirp_mp_norm_against_grid_sum():
    u, p = 2.0, 1.5
    step, half = 0.02, 7.0
    ax = np.arange(-half, half, step) + step / 2
    xs, xis = np.meshgrid(ax, ax, indexing="ij")
    vals = chirp_stft_modulus(u, xs[..., None], xis[..., None])
    num = (np.sum(vals**p) * step * step) ** (1 / p)
    assert chirp_mp_norm(u, p) == pytest.approx(num, rel=1e-6)


def test_moyal_identity_for_windows():
    # int |<phi, M T phi>|^2 over the phase plane equals ||phi||^4 = 1/2
    val = chirp_mp_norm(0.0, 2.0)
    assert val**2 == pytest.approx(0.5, rel=1e-12)


def test_rejects_indefinite_quadratic_part():
    with pytest.raises(ValueError):
        Gaussian(-1.0)


def test_stacked_forms_are_checked_like_single_ones():
    # the batched self-tests validate whole stacks with the constructor's rules
    good = np.eye(2) + 0.3j * np.eye(2)
    stack = np.stack([good] * 5)
    assert np.array_equal(quad_forms(stack), stack)
    indefinite = stack.copy()
    indefinite[3] = np.diag([1.0, -0.2]) + 0.3j * np.eye(2)
    with pytest.raises(ValueError, match="positive definite"):
        quad_forms(indefinite)
    skew = stack.copy()
    skew[1, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="symmetric"):
        quad_forms(skew)
    with pytest.raises(ValueError, match="positive definite"):
        Gaussian(indefinite[3])


def test_amplitude_and_log_amp_agree():
    g1 = Gaussian(1.0, 0.2, amplitude=2.0)
    g2 = Gaussian(1.0, 0.2, log_amp=np.log(2.0))
    assert g1(0.3) == pytest.approx(g2(0.3), rel=1e-12)
