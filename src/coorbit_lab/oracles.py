"""The lab's independent routes: what the closed forms are checked against.

Each route here shares none of the engine's code.  The group laws are
checked by finite differences of the products themselves, a representation
is applied from its written-out formula (a phase polynomial and an affine
substitution, never composed Gaussian parameters), coefficients are Riemann
sums on a periodic grid, and the chirp spectrogram's norm is its closed
determinant.  So this module imports nothing from representations or
coorbit, and no module of the package imports it: the CLI and the engine
run without it, and only the tests call it.

The DFT short-time transform oracle, numerics.dft_stft with its GridSpec,
belongs here too, but stays in numerics, where the benchmark's tracer wraps
it by name.
"""

from __future__ import annotations

import numpy as np

from .gaussian import _as_real_sym
from .groups import GroupSpec, axis_point, inverse, multiply
from .numerics import GridSpec, _tail_check

__all__ = [
    "pointwise_action",
    "quad_rep_coefficient",
    "structure_constants",
    "commutator",
    "bracket_check",
    "jacobian_check",
    "chirp_mp_norm",
]

_TWO_PI_I = 2j * np.pi


# ---------------------------------------------------------------------------
# the representations from their displayed formulas

def pointwise_action(rep, a):
    """The displayed formula as data: (phase callable, S, v) with (pi(a) f)(t) = phase(t) f(S t + v).

    Used by the grid oracle; evaluates the written-out phase polynomial
    directly instead of composing Gaussian parameters.
    """
    a = np.asarray(a, dtype=float).reshape(rep.group.total_dim)
    lam, mu = rep.lam, rep.mu
    name = rep.group.name
    d = rep.acting_dim
    S = np.eye(d)
    if name == "heisenberg":
        x, y, z = a[:d], a[d : 2 * d], a[2 * d]
        v = -x
        const = lam * z

        def phase(t):
            return np.exp(_TWO_PI_I * (const - lam * t @ y))

    elif name == "g6_16":
        v = -a[4:6]
        const = lam * a[0] + mu * (a[1] - a[4] * a[5])

        def phase(t):
            s, tau = t[..., 0], t[..., 1]
            return np.exp(_TWO_PI_I * (const - lam * (a[2] * s + a[3] * tau) + mu * a[5] * s))

    elif name == "g5_3":
        v = -np.array([a[2], a[4]])
        const = lam * (a[0] - a[2] * a[3])

        def phase(t):
            s, tau = t[..., 0], t[..., 1]
            return np.exp(_TWO_PI_I * (const + lam * (a[3] * s - a[1] * tau + 0.5 * a[3] * tau**2)))

    elif name == "g6_19":
        v = -a[4:6]
        const = lam * a[0] + mu * (a[1] - 0.5 * a[4] ** 2 * a[5])

        def phase(t):
            s, tau = t[..., 0], t[..., 1]
            return np.exp(
                _TWO_PI_I * (const - lam * a[2] * tau + mu * (-a[3] * s + a[4] * a[5] * s - 0.5 * a[5] * s**2))
            )

    else:  # dynin_folland
        z, y1, y2, y3 = a[0], a[1], a[2], a[3]
        x1, x2, x3 = a[4], a[5], a[6]
        S = np.array([[1.0, 0.0, x2], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        v = np.array([x1, x2, x3])
        const = lam * z

        def phase(t):
            w1, w2, w3 = t[..., 0], t[..., 1], t[..., 2]
            return np.exp(_TWO_PI_I * (const + lam * (w3 * y1 + w2 * y2 + w1 * y3 - 0.5 * w3 * w2 * y3)))

    return phase, S, v


def quad_rep_coefficient(rep, a, f, g) -> complex:
    """Riemann-sum <f, pi(a) g> on the default grid, pi applied pointwise from its displayed formula.

    Independent route: no Gaussian parameter composition, only pointwise
    evaluation of the phase and the affine argument map.
    """
    grid = GridSpec.default_for(rep.acting_dim)
    phase, S, v = pointwise_action(rep, np.asarray(a, dtype=float))
    t = grid.mesh()
    arg = t @ S.T + v
    integrand = np.asarray(f(t), dtype=complex) * np.conj(phase(t) * np.asarray(g(arg), dtype=complex))
    _tail_check(integrand, "quad_rep_coefficient")
    return complex(grid.cell_volume * integrand.sum())


# ---------------------------------------------------------------------------
# the declared structure constants and the Haar measure, from the laws

def structure_constants(spec: GroupSpec) -> np.ndarray:
    """C[i, j, k], the coefficient of E_k in [E_i, E_j], from the declared table."""
    n = spec.total_dim
    C = np.zeros((n, n, n))
    for i, j, k, c in spec.brackets:
        C[i, j, k] += c
        C[j, i, k] -= c
    return C


def commutator(spec: GroupSpec, a, b) -> np.ndarray:
    ab = multiply(spec, a, b)
    return multiply(spec, ab, multiply(spec, inverse(spec, a), inverse(spec, b)))


def bracket_check(spec: GroupSpec) -> dict:
    """Structure constants from group commutators vs the declared table.

    Richardson-extrapolated: with c(h) = commutator(h e_i, h e_j)/h^2, the
    estimate 2 c(h) - c(2h) at h = 1e-3 removes the O(h) term.
    """
    step = 1e-3
    n = spec.total_dim
    declared = structure_constants(spec)
    worst = 0.0
    pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            def est(h):
                return commutator(spec, axis_point(n, i, h), axis_point(n, j, h)) / h**2

            num = 2.0 * est(step) - est(2.0 * step)
            worst = max(worst, float(np.abs(num - declared[i, j]).max()))
            pairs += 1
    return {"max_error": worst, "pairs": pairs, "ok": worst < 1e-4}


def jacobian_check(spec: GroupSpec) -> dict:
    """|det| of left and right translation Jacobians (Haar = Lebesgue check).

    Central differences of step 1e-4 at 40 random pairs from [-2, 2]^n.
    """
    n_samples, step = 40, 1e-4
    rng = np.random.default_rng(0)
    n = spec.total_dim
    a = rng.uniform(-2.0, 2.0, size=(n_samples, n))
    x = rng.uniform(-2.0, 2.0, size=(n_samples, n))
    worst = {"left": 0.0, "right": 0.0}
    for side in ("left", "right"):
        J = np.empty((n_samples, n, n))
        for i in range(n):
            dx = np.zeros(n)
            dx[i] = 0.5 * step
            if side == "left":
                diff = multiply(spec, a, x + dx) - multiply(spec, a, x - dx)
            else:
                diff = multiply(spec, x + dx, a) - multiply(spec, x - dx, a)
            J[:, :, i] = diff / step
        dets = np.linalg.det(J)
        worst[side] = float(np.abs(np.abs(dets) - 1.0).max())
    return {**worst, "ok": max(worst.values()) < 1e-6}


# ---------------------------------------------------------------------------
# the chirp spectrogram's norm in closed form

def chirp_mp_norm(C, p: float) -> float:
    """L^p norm of the chirp spectrogram: p^{-d/p} det(4I+C^2)^{1/(2p)-1/4}."""
    if not p >= 1:
        raise ValueError("p must be >= 1")
    Cm = _as_real_sym(C)
    d = Cm.shape[0]
    det4 = np.linalg.det(4.0 * np.eye(d) + Cm @ Cm)
    return float(p ** (-d / p) * det4 ** (1.0 / (2.0 * p) - 0.25))
