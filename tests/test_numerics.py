"""Grids, the sampled transform, and the pointwise-evaluation oracle."""

import numpy as np
import pytest

from coorbit_lab.gaussian import chirp, chirp_stft_modulus, inner_product, stft_closed, unit_gaussian
from coorbit_lab.groups import group_spec
from scipy.special import logsumexp as scipy_logsumexp

from coorbit_lab.numerics import GridSpec, TailMassWarning, dft_stft, logsumexp
from coorbit_lab.oracles import quad_rep_coefficient
from coorbit_lab.representations import RepSpec, apply_rep


def test_grid_axes():
    grid = GridSpec(1, 8.0, 512)
    ax = grid.axis()
    assert len(ax) == 512
    assert ax[0] == -8.0
    assert np.allclose(np.diff(ax), grid.step)
    fr = grid.freq_axis()
    assert len(fr) == 512
    assert np.allclose(np.diff(fr), 1.0 / (2 * grid.half_width))


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(1, -1.0, 64)
    for half_width in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            GridSpec(1, half_width, 8)
    with pytest.raises(ValueError):
        GridSpec(0, 4.0, 64)


def test_defaults_by_dimension():
    for d in (1, 2, 3):
        grid = GridSpec.default_for(d)
        assert grid.dim == d


def test_dft_stft_window_peak():
    g = unit_gaussian(1)
    grid = GridSpec.default_for(1)
    freq, S = dft_stft(g, g, grid, [0.0])
    k0 = np.argmin(np.abs(freq))
    assert freq[k0] == 0.0
    # <phi, phi> = 2^{-1/2}
    assert abs(S[k0]) == pytest.approx(2.0 ** -0.5, abs=1e-8)


def test_dft_stft_matches_closed_form_for_chirp():
    grid = GridSpec.default_for(1)
    g = unit_gaussian(1)
    f = chirp(g, 1.2)
    x = np.array([0.6])
    freq, S = dft_stft(f, g, grid, x)
    keep = np.abs(freq) <= 3.0
    want = np.array([chirp_stft_modulus(1.2, x, np.array([w])) for w in freq[keep]])
    assert np.abs(np.abs(S[keep]) - want).max() < 1e-6


def test_dft_stft_2d_value():
    g = unit_gaussian(2)
    grid = GridSpec.default_for(2)
    x = np.array([0.4, -0.3])
    freq, S = dft_stft(g, g, grid, x)
    k0 = np.argmin(np.abs(freq))
    want = abs(stft_closed(g, g, x, np.zeros(2)))
    assert abs(S[k0, k0]) == pytest.approx(want, abs=1e-8)
    # one entry would broadcast over both axes of the mesh
    with pytest.raises(ValueError, match="wrong dimension"):
        dft_stft(g, g, grid, [0.4])


def test_tail_warning_on_cramped_grid():
    g = unit_gaussian(1)
    with pytest.warns(TailMassWarning):
        dft_stft(g, g, GridSpec(1, 1.0, 64), [0.0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("shift", [0.0, 800.0, -800.0])
def test_logsumexp_against_scipy(shift):
    # shifts that overflow or underflow exp() on their own
    values = np.random.default_rng(0).normal(0.0, 30.0, 500) + shift
    assert logsumexp(values) == pytest.approx(float(scipy_logsumexp(values)), rel=1e-14)
    assert logsumexp(np.array([-np.inf, -np.inf])) == -np.inf
    assert logsumexp(np.array([0.0, np.inf, 1e308])) == np.inf


@pytest.mark.parametrize("name", ["heisenberg", "g5_3"])
def test_pointwise_oracle_agrees_with_closed_route(name):
    grp = group_spec(name, 1)
    rep = RepSpec(grp, 1.0)
    f = chirp(unit_gaussian(rep.acting_dim), 0.4 * np.eye(rep.acting_dim))
    g = unit_gaussian(rep.acting_dim)
    rng = np.random.default_rng(1)
    for _ in range(3):
        a = rng.uniform(-1.0, 1.0, grp.total_dim)
        closed = inner_product(f, apply_rep(rep, a, g))
        numeric = quad_rep_coefficient(rep, a, f, g)
        assert closed == pytest.approx(numeric, abs=2e-8)
