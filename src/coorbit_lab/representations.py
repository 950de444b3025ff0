"""Schroedinger-type representations of the five groups on Gaussian windows.

Each representation acts by a unit phase times a chain of elementary
operators (translation, modulation, chirp, unimodular affine substitution),
so applying a group element to a generalized Gaussian stays in closed form.
The unit phase e^{2 pi i theta} rides in the imaginary part of log_amp;
coefficient moduli and quotient integrals read only real parts.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .gaussian import Gaussian, l2_norm, quad_forms, unit_gaussian
from .gaussian import log_inner  # noqa: F401  (perfbench/test_perfbench.py checks that the tracer wraps it here)
from .groups import GroupSpec, group_spec, multiply, section

__all__ = [
    "RepSpec",
    "act",
    "apply_rep",
    "homomorphism_check",
    "unitarity_check",
    "known_formal_dimension",
]

_TWO_PI = 2.0 * np.pi
_TWO_PI_I = 2j * np.pi


@dataclass(frozen=True)
class RepSpec:
    group: GroupSpec
    lam: float = 1.0
    mu: float = 0.0

    def __post_init__(self):
        name = self.group.name
        if not (math.isfinite(self.lam) and math.isfinite(self.mu)):
            raise ValueError(f"lam and mu must be finite, got lam={self.lam}, mu={self.mu}")
        if self.mu != 0.0 and self.group.center_dim != 2:
            raise ValueError(f"{name} has a one-dimensional centre and takes no mu parameter")
        if 0.0 < abs(self.lam) < sys.float_info.min:
            # a subnormal lam would reach slogdet as a division by zero
            raise ValueError(
                f"lam={self.lam} is below the smallest normal double {sys.float_info.min:g}: "
                f"{name}'s formal dimension at it is out of double range"
            )
        d_pi = known_formal_dimension(self)
        if d_pi == 0.0 or d_pi == math.inf:
            why = "no square-integrable representation" if d_pi == 0.0 else "a formal dimension beyond double range"
            raise ValueError(f"{name} has {why} at lambda={self.lam}, mu={self.mu}")

    @property
    def acting_dim(self) -> int:
        return self.group.quotient_dim // 2

    @cached_property
    def moving(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The quotient coordinates that move the factors of pi: (coupled, affine).

        coupled lists those that move the chirp C or the substitution S, affine
        those that move the shift v or S.  The factors are polynomial in a, so
        one probe decides: _factors at a fixed generic quotient point q0 and at
        q0 + e_i for each i.
        """
        n = self.group.quotient_dim
        q0 = np.sqrt(np.arange(2.0, n + 2.0))
        _, C, _, S, v = _factors(self, section(self.group, np.vstack([q0, q0 + np.eye(n)])))

        def moved(x):
            return np.abs(x[1:] - x[0]).reshape(n, -1).max(axis=1) > 0

        coupled = np.flatnonzero(moved(C) | moved(S))
        affine = np.flatnonzero(moved(v) | moved(S))
        return tuple(coupled.tolist()), tuple(affine.tolist())

    @cached_property
    def split(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(coupled, fit): the coupled coordinates and the rest, over which the engine fits."""
        coupled = self.moving[0]
        return coupled, tuple(i for i in range(self.group.quotient_dim) if i not in coupled)

    @cached_property
    def unit(self) -> RepSpec:
        """The unit character: RepSpec(group, +-1, mu), with the sign of lam."""
        return RepSpec(self.group, math.copysign(1.0, self.lam), self.mu)

    @cached_property
    def delta(self) -> np.ndarray:
        """The dilation that carries pi to its unit character (read-only).

        It scales group coordinate i by |lam| ** w_i with the grading w of
        _grading: |<f, pi(a) g>| = |<f, pi_{+-1}(delta a) g>| for every f, g
        and a (Folland & Stein, Hardy Spaces on Homogeneous Groups, 1982).
        mu has grading weight 0 and stays.  The norm engine meshes the unit
        character; the tests check the relation on random elements.
        """
        # the grading read at the unit character, whose factors stay in double range
        delta = abs(self.lam) ** _grading(self.unit).astype(float)
        delta.flags.writeable = False
        return delta

    @cached_property
    def quotient_delta(self) -> np.ndarray:
        """delta on the quotient coordinates (read-only)."""
        return self.delta[self.group.noncenter_slice]

    @cached_property
    def log_jacobian(self) -> float:
        """sum(log quotient_delta), the log Jacobian of the quotient dilation."""
        return float(np.log(self.quotient_delta).sum())


def _factors(rep: RepSpec, a):
    """Break pi(a) into (scalar phase theta, chirp C, modulation m, affine (S, v)).

    The operator is f -> e^{2 pi i theta} * M_m N_C (f o (t -> S t + v)); all
    multiplications commute, so the order among them is immaterial.  a holds
    one element per row, shape (N, n); the factors come back stacked:
    theta (N,), C (N, d, d), m (N, d), S (N, d, d), v (N, d).
    """
    d = rep.acting_dim
    C = np.zeros((len(a), d, d))
    S = C + _identity(d)
    theta, m, v = rep.group.rep_factors(rep, a, C, S)
    return theta, C, m, S, v


@lru_cache(maxsize=None)
def _identity(d: int) -> np.ndarray:
    """The d x d identity (read-only)."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def act(rep: RepSpec, a, quad, lin, log_amp):
    """pi(a_k) g for every row a_k of a, on Gaussian parameters.

    g = exp(log_amp - pi t.(quad)t + lin.t) is one Gaussian, or a stack of
    them with one per row of a.  Returns the stacked parameters of
    e^{2 pi i theta} M_m N_C (g o (t -> S t + v)): quad (N, d, d), lin (N, d)
    and log_amp (N,), with the phase 2 pi theta in the imaginary part of
    log_amp.  Plain arithmetic: nothing is validated.
    """
    factors = _factors(rep, a)
    theta, C, _, S, _ = factors
    out_lin, out_amp = _acted_lin_amp(factors, quad, lin, log_amp)
    # the phase goes to the imaginary part alone, so the real part, all a
    # modulus reads, keeps its bits even where 2 pi theta leaves double range
    out_amp.imag += _TWO_PI * theta
    return _acted_quad(C, S, quad), out_lin, out_amp


def _acted_quad(C, S, quad):
    """The quad S^T quad S + iC of pi(a_k) g, for stacked factors C and S.

    S and C are real, so the product is taken on the real and imaginary
    parts of quad apart: S^T Re(quad) S + i (S^T Im(quad) S + C).  That is
    the complex product bit for bit, at a fraction of its cost.
    """
    St = S.swapaxes(-1, -2)
    return St @ quad.real @ S + 1j * (St @ quad.imag @ S + C)


def _acted_lin_amp(factors, quad, lin, log_amp):
    """The lin (N, d) and log_amp (N,) of M_m N_C (g o (t -> S t + v)), for the
    stacked factors of _factors: pi(a_k) g up to its unit phase, which act
    adds and a modulus does not read."""
    _, _, m, S, v = factors
    # cast once: a product of a real and a complex operand casts the real one buffer by buffer
    S, v = S.astype(complex), v.astype(complex)
    # one Gaussian: a single matrix product over all rows, which einsum would round differently
    Av = v @ quad.T if quad.ndim == 2 else np.einsum("nij,nj->ni", quad, v)
    # S^T as the subscripts "nji", and lin (d,) or (N, d) broadcast by the
    # ellipsis: einsum reads S and lin in place, with no transposed or broadcast copy
    out_lin = np.einsum("nji,nj->ni", S, lin - _TWO_PI * Av) + _TWO_PI_I * m
    out_amp = log_amp - np.pi * np.einsum("ni,ni->n", v, Av) + np.einsum("...i,...i->...", v, lin)
    return out_lin, out_amp


class _States(NamedTuple):
    """Stacked Gaussian parameters, one state per row, as act returns them:
    quad (N, d, d), lin (N, d) and log_amp (N,).  They stand wherever a single
    Gaussian's fields broadcast against a stack (the kernel)."""

    quad: np.ndarray
    lin: np.ndarray
    log_amp: np.ndarray

    @classmethod
    def stack(cls, gaussians) -> "_States":
        return cls(
            np.array([h.quad for h in gaussians]),
            np.array([h.lin for h in gaussians]),
            np.array([h.log_amp for h in gaussians]),
        )

    @classmethod
    def one(cls, f: Gaussian) -> "_States":
        """f as a one-row stack, its quad and lin as views."""
        return cls(f.quad[None], f.lin[None], np.array([f.log_amp]))

    def rows(self, idx) -> "_States":
        return _States(self.quad[idx], self.lin[idx], self.log_amp[idx])


def apply_rep(rep: RepSpec, a, f: Gaussian) -> Gaussian:
    """pi(a) f for one element a in full group coordinates."""
    a = np.asarray(a, dtype=float).reshape(1, rep.group.total_dim)
    quad, lin, log_amp = act(rep, a, f.quad, f.lin, f.log_amp)
    return Gaussian(quad[0], lin[0], log_amp[0])


@lru_cache(maxsize=None)
def _stft_rep(d: int) -> RepSpec:
    """The Schroedinger representation of H_d with pi(x, xi, 0) g = M_xi T_x g."""
    return RepSpec(group_spec("heisenberg", d), -1.0)


def _log_integral_modulus(Q, L, la):
    """log |integral of exp(la - pi t.Qt + L.t)| for stacked parameters."""
    _, log_abs_det = np.linalg.slogdet(Q)
    y = np.linalg.solve(Q, L[..., None])[..., 0]
    return la.real - 0.5 * log_abs_det + np.einsum("ni,ni->n", L, y).real / (4.0 * np.pi)


def _product_form(f_quad, f_lin, quad, lin):
    """(Q, L) of f conj(h) for stacked h = exp(log_amp - pi t.(quad)t + lin.t);
    its la is f.log_amp + conj(log_amp).

    f_quad and f_lin are one Gaussian's or stacked states': they broadcast
    against the stacks of h, so one state or one per row both work.  Raises
    unless every real part of Q is positive definite (_check_positive_real).
    """
    Q = f_quad + np.conj(quad)
    _check_positive_real(Q)
    return Q, f_lin + np.conj(lin)


def _check_positive_real(Q) -> None:
    """Raise unless every real part of the stack Q is positive definite, as
    the integral of a product form needs: one batched Cholesky factorisation
    of the real parts decides it."""
    try:
        np.linalg.cholesky(Q.real)
    except np.linalg.LinAlgError:
        raise ValueError("real part of the quadratic form must be positive definite") from None


# ---------------------------------------------------------------------------
# self-tests used by the acceptance suite

def _checked(rep: RepSpec, a, quad):
    """The checks the scalar route makes per Gaussian, over a whole stack.

    Every substitution S of pi(a_k) must be invertible, and every form of
    quad symmetric with positive definite real part, as the Gaussian
    constructor demands.  Returns the symmetrized forms.
    """
    if np.any(np.abs(np.linalg.det(_factors(rep, a)[3])) < 1e-300):
        raise ValueError("affine substitution must be invertible")
    return quad_forms(quad)


def homomorphism_check(rep: RepSpec, n_pairs: int = 500, seed: int = 0, box: float = 2.0) -> dict:
    """pi(a) pi(b) g versus pi(ab) g on random pairs, all pairs at once.

    The two Gaussians must agree exactly, the phase (the imaginary part of
    log_amp) modulo 2 pi included.  Each pair's error is the largest
    parameter difference relative to the largest parameter of the left side.
    """
    rng = np.random.default_rng(seed)
    g = unit_gaussian(rep.acting_dim)
    ab = rng.uniform(-box, box, (n_pairs, 2, rep.group.total_dim))
    a, b = ab[:, 0], ab[:, 1]
    prod = multiply(rep.group, a, b)
    quad, lin, log_amp = act(rep, b, g.quad, g.lin, g.log_amp)
    lq, ll, la = act(rep, a, _checked(rep, b, quad), lin, log_amp)
    lq = _checked(rep, a, lq)
    rq, rl, ra = act(rep, prod, g.quad, g.lin, g.log_amp)
    rq = _checked(rep, prod, rq)
    scale = np.maximum.reduce(
        [np.ones(n_pairs), np.abs(lq).max(axis=(1, 2)), np.abs(ll).max(axis=1), np.abs(la)]
    )
    err = np.maximum(np.abs(lq - rq).max(axis=(1, 2)), np.abs(ll - rl).max(axis=1))
    diff = la - ra
    err = np.maximum(err, np.abs(diff.real))
    err = np.maximum(err, np.abs((diff.imag + np.pi) % (2.0 * np.pi) - np.pi))
    worst = float(np.max(err / scale, initial=0.0))
    return {"max_error": worst, "pairs": n_pairs, "ok": worst < 1e-10}


def unitarity_check(rep: RepSpec, n_samples: int = 100, seed: int = 0, box: float = 3.0) -> dict:
    """||pi(a) g|| against ||g|| on random elements, all at once."""
    rng = np.random.default_rng(seed)
    g = Gaussian(
        np.eye(rep.acting_dim) * 1.3,
        rng.uniform(-0.5, 0.5, rep.acting_dim) + 1j * rng.uniform(-0.5, 0.5, rep.acting_dim),
    )
    ref = l2_norm(g)
    a = rng.uniform(-box, box, (n_samples, rep.group.total_dim))
    quad, lin, log_amp = act(rep, a, g.quad, g.lin, g.log_amp)
    quad = _checked(rep, a, quad)
    # ||h||^2 is the integral of h conj(h)
    log_sq = _log_integral_modulus(quad + np.conj(quad), lin + np.conj(lin), log_amp + np.conj(log_amp))
    worst = float(np.max(np.abs(np.exp(0.5 * log_sq) - ref) / ref, initial=0.0))
    return {"max_error": worst, "samples": n_samples, "ok": worst < 1e-10}


def _grading(rep: RepSpec) -> np.ndarray:
    """Integer weights w on the group coordinates, taken from the brackets.

    Fixed: 1 on lambda's centre coordinate, 0 on mu's, and 0 on every
    coordinate that moves the shift or the substitution of pi.  The rest
    follow from w_k = w_i + w_j on every bracket [E_i, E_j] = c E_k.  Raises
    ValueError when a weight stays undetermined, comes out negative, or a
    bracket breaks the rule.
    """
    grp = rep.group
    fixed = dict(zip(grp.center_indices, (1, 0)))
    fixed.update((grp.noncenter_indices[q], 0) for q in rep.moving[1])
    # one row w_k - w_i - w_j = 0 per bracket, then one row w_i = fixed[i] per fixed weight
    eye = np.eye(grp.total_dim)
    rows = np.array([eye[k] - eye[i] - eye[j] for i, j, k, _ in grp.brackets] + [eye[i] for i in fixed])
    rhs = np.array([0.0] * len(grp.brackets) + list(fixed.values()))
    solution, _, rank, _ = np.linalg.lstsq(rows, rhs, rcond=None)
    if rank < grp.total_dim:
        raise ValueError(f"the brackets of {grp.name} leave a weight undetermined: rank {rank} of {grp.total_dim}")
    w = np.rint(solution).astype(int)
    if w.min() < 0 or (rows @ w != rhs).any():
        raise ValueError(f"the brackets of {grp.name} admit no grading with these fixed weights: {w.tolist()}")
    return w


def known_formal_dimension(rep: RepSpec) -> float:
    """The formal dimension in closed form: d_pi = |Pf(B)| = sqrt|det B|.

    Taken as exp(log|det B| / 2): a determinant past double range still gives
    d_pi when d_pi itself fits, and inf when it does not.

    B(X, Y) = <l, [X, Y]> on the non-central coordinates, with l the central
    character: lam on the first central coordinate, mu on the second
    (Moore & Wolf, Trans. AMS 185, 1973; Corwin & Greenleaf 1990, sec. 4.5).
    """
    grp = rep.group
    ell = dict(zip(grp.center_indices, (rep.lam, rep.mu)))
    B = np.zeros((grp.total_dim, grp.total_dim))
    for i, j, k, c in grp.brackets:
        if k in ell:
            B[i, j] += c * ell[k]
            B[j, i] -= c * ell[k]
    outer = grp.noncenter_slice
    with np.errstate(over="ignore"):  # a singular B has log|det B| = -inf, so d_pi = 0
        return float(np.exp(0.5 * np.linalg.slogdet(B[outer, outer])[1]))
