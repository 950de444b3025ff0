"""Reference routes that more than one test file checks the engine against.

No test_ prefix, so pytest collects nothing from here.
"""

import numpy as np

from coorbit_lab.gaussian import Gaussian
from coorbit_lab.representations import _log_integral_modulus, _product_form, act

_TWO_PI = 2.0 * np.pi


def pullback_affine(g: Gaussian, S, v) -> Gaussian:
    """g(S t + v) for real invertible S."""
    Sm = np.asarray(S, dtype=float).reshape(g.dim, g.dim)
    if abs(np.linalg.det(Sm)) < 1e-300:
        raise ValueError("affine substitution must be invertible")
    w = np.asarray(v, dtype=float).reshape(g.dim)
    quad = Sm.T @ g.quad @ Sm
    lin = Sm.T @ (g.lin - _TWO_PI * g.quad @ w)
    log_amp = g.log_amp - np.pi * w @ g.quad @ w + g.lin @ w
    return Gaussian(quad, lin, log_amp)


def coefficient_log_modulus(rep, a, f, g: Gaussian) -> np.ndarray:
    """log |<f, pi(a_k) g>| for every row a_k of a, shape (N, n) -> (N,).

    f is one Gaussian, or _States with one state f_k per row of a.  The
    product f conj(pi(a) g) = exp(-pi t.Qt + L.t + la) is formed for all rows
    at once, and the log modulus of its integral is
    Re la - log|det Q| / 2 + Re(L.Q^{-1}L) / 4 pi.
    """
    a = np.asarray(a, dtype=float).reshape(-1, rep.group.total_dim)
    quad, lin, log_amp = act(rep, a, g.quad, g.lin, g.log_amp)
    return _log_integral_modulus(*_product_form(f.quad, f.lin, quad, lin), f.log_amp + np.conj(log_amp))
