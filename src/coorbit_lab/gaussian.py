"""Closed-form algebra of generalized Gaussian functions.

Everything in this package ultimately reduces to one function class: complex
multiples of exp(-pi t.At + b.t) on R^d, with A complex symmetric and Re A
positive definite.  Translation, modulation, quadratic chirps, invertible
affine substitutions and tensor products stay inside the class, and L2
inner products and integrals have closed forms on it, so each operation is
bookkeeping on the triple (A, b, log c).

Amplitudes are stored as complex logarithms.  Orbit experiments move windows
hundreds of widths off center, where the plain amplitude underflows double
precision; its logarithm never does.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Gaussian",
    "unit_gaussian",
    "translate",
    "modulate",
    "chirp",
    "tensor",
    "quad_forms",
    "conjugate",
    "log_gauss_integral",
    "log_gauss_integrals",
    "inner_product",
    "log_inner",
    "l2_norm",
    "stft_closed",
    "log_stft_modulus",
    "delta_matrix",
    "chirp_stft_modulus",
]

_TWO_PI = 2.0 * np.pi


def _as_quad(A):
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"quadratic form must be a square matrix, got shape {A.shape}")
    return quad_forms(A)


def quad_forms(A):
    """A stack (..., d, d) of quadratic forms, checked and symmetrized.

    Each form must be symmetric to 1e-10 of its largest entry, and its real
    part must be positive definite after symmetrizing; else ValueError.
    """
    A = _symmetrized(A, "quadratic form")
    if np.any(np.linalg.eigvalsh(A.real) <= 0.0):
        raise ValueError("real part of the quadratic form must be positive definite")
    return A


def _as_real_sym(C, dim=None):
    """A real symmetric matrix, or a stack (..., d, d) of them, symmetrized."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if C.shape[-2] != C.shape[-1]:
        raise ValueError(f"chirp matrix must be square, got shape {C.shape}")
    if dim is not None and C.shape[-1] != dim:
        raise ValueError(f"chirp matrix dimension {C.shape[-1]} does not match {dim}")
    return _symmetrized(C, "chirp matrix")


def _symmetrized(A, what: str):
    """0.5 (A + A^T) for a stack (..., d, d); ValueError naming what unless
    each matrix is symmetric to 1e-10 of its largest entry (or of 1)."""
    At = np.swapaxes(A, -1, -2)
    scale = np.maximum(1.0, np.abs(A).max(axis=(-2, -1), initial=0.0))
    if np.any(np.abs(A - At).max(axis=(-2, -1), initial=0.0) > 1e-10 * scale):
        raise ValueError(f"{what} must be symmetric")
    return 0.5 * (A + At)


class Gaussian:
    """A single generalized Gaussian c * exp(-pi t.At + b.t) on R^d."""

    __slots__ = ("quad", "lin", "log_amp")

    def __init__(self, quad, lin=None, log_amp=0.0):
        self.quad = _as_quad(quad)
        d = self.quad.shape[0]
        if lin is None:
            lin = np.zeros(d)
        self.lin = np.asarray(lin, dtype=complex).reshape(d)
        self.log_amp = complex(log_amp)

    @property
    def dim(self) -> int:
        return self.quad.shape[0]

    def _points(self, t):
        t = np.asarray(t, dtype=float)
        if self.dim == 1 and (t.ndim == 0 or t.shape[-1] != 1):
            t = t[..., None]
        if t.shape[-1] != self.dim:
            raise ValueError(f"points have dimension {t.shape[-1]}, expected {self.dim}")
        return t

    def log_value(self, t):
        """Complex log of the function at points t, shape (..., d)."""
        t = self._points(t)
        quad_term = np.einsum("...i,ij,...j->...", t, self.quad, t)
        return self.log_amp - np.pi * quad_term + t @ self.lin

    def __call__(self, t):
        return np.exp(self.log_value(t))


def unit_gaussian(dim: int = 1) -> Gaussian:
    """The standard window exp(-pi |t|^2)."""
    return Gaussian(np.eye(dim))


def translate(g: Gaussian, x) -> Gaussian:
    """g(t - x)."""
    v = np.asarray(x, dtype=float).reshape(g.dim)
    lin = g.lin + _TWO_PI * g.quad @ v
    log_amp = g.log_amp - np.pi * v @ g.quad @ v - g.lin @ v
    return Gaussian(g.quad, lin, log_amp)


def modulate(g: Gaussian, xi) -> Gaussian:
    """exp(2 pi i xi.t) g(t)."""
    w = np.asarray(xi, dtype=float).reshape(g.dim)
    return Gaussian(g.quad, g.lin + _TWO_PI * 1j * w, g.log_amp)


def chirp(g: Gaussian, C) -> Gaussian:
    """N_C g = exp(-i pi t.Ct) g(t) for real symmetric C."""
    return Gaussian(g.quad + 1j * _as_real_sym(C, g.dim), g.lin, g.log_amp)


def tensor(f: Gaussian, g: Gaussian) -> Gaussian:
    """(f tensor g)(s, t) = f(s) g(t)."""
    df, dg = f.dim, g.dim
    quad = np.zeros((df + dg, df + dg), dtype=complex)
    quad[:df, :df] = f.quad
    quad[df:, df:] = g.quad
    lin = np.concatenate([f.lin, g.lin])
    return Gaussian(quad, lin, f.log_amp + g.log_amp)


def conjugate(g: Gaussian) -> Gaussian:
    return Gaussian(np.conj(g.quad), np.conj(g.lin), np.conj(g.log_amp))


def _log_det_sqrt(A):
    """log det(A)^{1/2} on the branch continuous from positive definite A.

    The spectrum of a complex symmetric A with Re A > 0 lies in the open right
    half-plane, so the principal log of each eigenvalue is unambiguous and the
    sum is the analytic branch.  A may be a stack (..., d, d).
    """
    w = np.linalg.eigvals(A)
    if np.any(w.real <= 0):
        raise ValueError("quadratic form has spectrum outside the right half-plane")
    return 0.5 * np.sum(np.log(w), axis=-1)


def log_gauss_integrals(quad, lin, log_amp):
    """log of the integral over R^d of exp(log_amp - pi t.(quad)t + lin.t), stacked.

    quad (..., d, d), lin (..., d) and log_amp (...) hold one Gaussian per
    row; they are taken as they are, unvalidated.  One batched solve and one
    batched eigenvalue branch serve every row.  lin may instead carry one
    axis more than quad, (..., J, d) with log_amp (..., J): J Gaussians share
    each form, and its solve takes the J right-hand sides at once.
    """
    shared = lin.ndim == quad.ndim
    lins = lin if shared else lin[..., None, :]
    y = np.swapaxes(np.linalg.solve(quad, np.swapaxes(lins, -1, -2)), -1, -2)
    quadratic = (lins[..., None, :] @ y[..., None])[..., 0, 0]
    log_det = _log_det_sqrt(quad)[..., None]
    if not shared:
        quadratic, log_det = quadratic[..., 0], log_det[..., 0]
    return log_amp - log_det + quadratic / (4.0 * np.pi)


def log_gauss_integral(g: Gaussian) -> complex:
    """log of integral of g over R^d: one row of log_gauss_integrals."""
    return complex(log_gauss_integrals(g.quad[None], g.lin[None], g.log_amp)[0])


def _product(f: Gaussian, g: Gaussian) -> Gaussian:
    return Gaussian(f.quad + g.quad, f.lin + g.lin, f.log_amp + g.log_amp)


def log_inner(f: Gaussian, g: Gaussian) -> complex:
    """log <f, g> with the inner product conjugate-linear in g."""
    return log_gauss_integral(_product(f, conjugate(g)))


def inner_product(f: Gaussian, g: Gaussian) -> complex:
    """<f, g> = integral of f conj(g)."""
    return complex(np.exp(log_inner(f, g)))


def l2_norm(f: Gaussian) -> float:
    return float(np.exp(0.5 * log_inner(f, f).real))


def _phase_point(x, xi):
    return np.atleast_1d(np.asarray(x, float)), np.atleast_1d(np.asarray(xi, float))


def stft_closed(f, g, x, xi) -> complex:
    """<f, M_xi T_x g>: the short-time transform of f with window g at (x, xi)."""
    x, w = _phase_point(x, xi)
    return inner_product(f, modulate(translate(g, x), w))


def log_stft_modulus(f: Gaussian, g: Gaussian, x, xi) -> float:
    x, w = _phase_point(x, xi)
    return float(log_inner(f, modulate(translate(g, x), w)).real)


def delta_matrix(C):
    """Covariance-form matrix of |<N_C phi, M_xi T_x phi>| on stacked (xi, x).

    With D = (4I + C^2)^{-1} the blocks are [[2D, DC], [DC, I - 2D]]; the
    modulus of the transform is det(4I+C^2)^{-1/4} exp(-pi z.Delta z).
    """
    return _delta(_as_real_sym(C))


def _delta(Cm):
    d = Cm.shape[-1]
    D = np.linalg.inv(4.0 * np.eye(d) + Cm @ Cm)
    DC = D @ Cm
    out = np.empty(Cm.shape[:-2] + (2 * d, 2 * d))
    out[..., :d, :d] = 2.0 * D
    out[..., :d, d:] = DC
    out[..., d:, :d] = DC
    out[..., d:, d:] = np.eye(d) - 2.0 * D
    return out


def chirp_stft_modulus(C, x, xi):
    """|<N_C phi, M_xi T_x phi>| in closed form.

    x and xi are (..., d) arrays of phase-space points, and C is one real
    symmetric (d, d) matrix or a stack (..., d, d); their leading shapes
    broadcast against each other.  One point and one C give a float, a batch
    an array of the broadcast leading shape.
    """
    x, w = _phase_point(x, xi)
    Cm = _as_real_sym(C)
    d = Cm.shape[-1]
    if x.shape[-1] != d or w.shape[-1] != d:
        raise ValueError(f"phase-space points must have trailing dimension {d}")
    zvec = np.concatenate(np.broadcast_arrays(w, x), axis=-1)
    det4 = np.linalg.det(4.0 * np.eye(d) + Cm @ Cm)
    form = np.einsum("...i,...ij,...j->...", zvec, _delta(Cm), zvec)
    out = det4**-0.25 * np.exp(-np.pi * form)
    return float(out) if out.ndim == 0 else out
