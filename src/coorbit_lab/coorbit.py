"""Weighted coefficient norms over quotient groups and phase space.

The engine rests on one structural fact: for a fixed value of the few
"coupled" quotient coordinates (the ones entering a chirp or an affine
substitution), the log modulus of a coefficient of a single Gaussian against
a single Gaussian window is exactly a quadratic polynomial in the remaining
coordinates.  That quadratic is read in closed form from the Gaussian
parameters at each coupled node (_node_quadratics), those directions are
integrated in closed form (Schur complements of the quadratic), and
numerical quadrature is spent only on the coupled and weighted directions.

Every node's quadratic is checked before it is trusted: the factors that fix
the Gaussian integral's Q must not move with the quadratic coordinates, and
the model must reproduce the kernel's value at three off-grid points.  A
failure raises instead of silently degrading the norm.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .gaussian import Gaussian, _check_positive_real, l2_norm, quad_forms, tensor, unit_gaussian
from .groups import group_spec, section
from .numerics import TailMassWarning, WeightRangeError, ceil_count, check_budget, logsumexp
from .representations import (
    RepSpec,
    _States,
    _acted_lin_amp,
    _acted_quad,
    _factors,
    _stft_rep,
    act,
)

__all__ = [
    "WeightSpec",
    "NormSpec",
    "LogQuadratic",
    "fit_log_quadratic",
    "power_weight",
    "coorbit_norm_log",
    "formal_dimension",
    "modulation_norm_log",
    "NormTask",
    "ScanResult",
    "orbit_scan",
    "fit_slope",
    "chirp_scan_task",
    "g53_curve_tasks",
    "df_modulation_task",
]

# group elements per factor table call (k + 4 rows per coupled node): bounds
# the engine's working memory whatever the mesh size
_BLOCK = 1024
# coupled mesh nodes times weight mesh nodes, summed over the states, that
# one norm evaluation may take on; beyond it a NormSpec is refused before any
# mesh is built
_MAX_NODES = 1 << 22
# largest share of a norm's mass the outer shell of its quadrature mesh may
# carry before the box counts as too small
_TAIL_TOL = 0.01

@dataclass(frozen=True, eq=False)
class WeightSpec:
    """The weight m(q) = (1 + |A q|)^s on quotient (or phase-space) coordinates.

    Column i of A multiplies coordinate i; coordinates past its last column
    do not enter.  coords, the columns of A with a nonzero entry, are the
    directions the weight reads, and only they get a quadrature mesh.
    """

    s: float
    A: np.ndarray

    def __post_init__(self):
        A = np.array(self.A, dtype=float, ndmin=2)
        if A.ndim != 2 or not np.isfinite(A).all():
            raise ValueError(f"A must be a finite matrix, got shape {A.shape}")
        A.flags.writeable = False
        if not math.isfinite(self.s):
            raise ValueError(f"s must be finite, got {self.s}")
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "A", A)
        if not self.coords:
            raise ValueError("a weight must depend on at least one coordinate")

    @property
    def coords(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.A.any(axis=0)))


def power_weight(s: float, coords: Sequence[int]) -> WeightSpec:
    """m(q) = (1 + |q_S|)^s with the euclidean norm over the selected, distinct coordinates."""
    coords = [int(i) for i in coords]
    if any(i < 0 for i in coords):
        raise ValueError(f"weight coordinates must be non-negative, got {tuple(coords)}")
    if len(set(coords)) < len(coords):
        raise ValueError(f"weight coordinates must be distinct, got {tuple(coords)}")
    return WeightSpec(s, np.eye(max(coords, default=-1) + 1)[coords])


@dataclass(frozen=True)
class NormSpec:
    """The exponent, weight and quadrature controls for a norm computation.

    p is the exponent over the quotient.  box_half and resolution describe
    the mesh at the unit character lambda = +-1: in the caller's coordinates
    an axis of grading weight w spans box_half / |lambda|^w.  Every coupled
    axis is probed and meshed geometrically about the probe's centre: nodes
    centre + sinh(s), s in steps of 2 resolution up to asinh(box_half).
    Weighted axes are uniform, of step resolution.
    """

    p: float = 2.0
    weight: WeightSpec | None = None
    box_half: float = 8.0
    resolution: float = 0.125

    def __post_init__(self):
        if not math.isfinite(self.p):
            raise ValueError(f"p = {self.p} is not supported; use a finite exponent >= 1")
        if self.p < 1.0:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if not all(v > 0 and math.isfinite(v) for v in (self.box_half, self.resolution)):
            raise ValueError("box_half and resolution must be finite and positive")
        if self.resolution > self.box_half:
            raise ValueError("resolution exceeds the integration box")


# ---------------------------------------------------------------------------
# exact quadratic models of log moduli

class LogQuadratic(NamedTuple):
    """Q(r) = const + grad . r + r . hess . r / 2 with symmetric hess.

    Leading axes of const, grad and hess are batch axes: one model per entry,
    broadcast against each other and against batched arguments.
    """

    const: float | np.ndarray
    grad: np.ndarray
    hess: np.ndarray

    @property
    def ndim(self) -> int:
        return self.grad.shape[-1]

    def value(self, r):
        r = np.asarray(r, dtype=float)
        # r.hess.r as the sum of the k^2 elementwise products hess_ij (r_i r_j):
        # on a weight mesh a three-operand einsum costs several times more
        rhr = np.zeros(np.broadcast_shapes(self.hess.shape[:-2], r.shape[:-1]))
        for i in range(self.ndim):
            for j in range(self.ndim):
                rhr += self.hess[..., i, j] * (r[..., i] * r[..., j])
        return self.const + np.einsum("...i,...i->...", self.grad, r) + 0.5 * rhr

    def scaled(self, s: float) -> "LogQuadratic":
        return LogQuadratic(s * self.const, s * self.grad, s * self.hess)

    def conditioned(self, dims: Sequence[int], values) -> "LogQuadratic":
        """Fix the listed dimensions; remaining dims keep their relative order.

        values has trailing axis len(dims); its leading axes broadcast against
        the batch axes of the model.
        """
        dims = list(dims)
        values = np.asarray(values, dtype=float)
        keep = [i for i in range(self.ndim) if i not in dims]
        cond = LogQuadratic(self.const, self.grad[..., dims], _block(self.hess, dims, dims)).value(values)
        if not keep:
            return LogQuadratic(cond, np.zeros(np.shape(cond) + (0,)), np.zeros((0, 0)))
        grad = self.grad[..., keep] + (_block(self.hess, keep, dims) @ values[..., None])[..., 0]
        return LogQuadratic(cond, grad, _block(self.hess, keep, keep))

    def marginalized(self, dims: Sequence[int]) -> "LogQuadratic":
        """Integrate exp(Q) over the listed dimensions s in closed form: with
        -hess_ss = L L^T and [z, W] = L^-1 [grad_s, hess_st], one solve, the
        kept t get grad_t + W^T z and hess_tt + W^T W, and const as in total()."""
        dims = list(dims)
        if not dims:
            return self
        keep = [i for i in range(self.ndim) if i not in dims]
        if not keep:  # the same factorisation and solve as total(), on every dimension
            const = self.total()
            return LogQuadratic(const, np.zeros(np.shape(const) + (0,)), np.zeros(np.shape(const) + (0, 0)))
        g_s, h_st = self.grad[..., dims, None], _block(self.hess, dims, keep)
        batch = np.broadcast_shapes(g_s.shape[:-2], h_st.shape[:-2])
        rhs = np.concatenate([np.broadcast_to(x, batch + x.shape[-2:]) for x in (g_s, h_st)], axis=-1)
        low, y = _factor_solve(_block(self.hess, dims, dims), rhs)
        z, w = y[..., 0], y[..., 1:]
        wt = w.swapaxes(-1, -2)
        grad = self.grad[..., keep] + (wt @ z[..., None])[..., 0]
        return LogQuadratic(_log_integral(self.const, low, z), grad, _block(self.hess, keep, keep) + wt @ w)

    def total(self):
        """log of the integral of exp(Q) over every dimension; one value per batch entry:
        const + (k/2) log 2 pi - sum log diag(L) + z.z / 2 with -hess = L L^T and
        z = L^-1 grad, one solve, since grad^T (-hess)^-1 grad = |L^-1 grad|^2 (Higham,
        Accuracy and Stability of Numerical Algorithms, 2002, ch. 10)."""
        low, z = _factor_solve(self.hess, self.grad[..., None])
        return _log_integral(self.const, low, z[..., 0])


def _block(mat, rows, cols):
    """The (rows, cols) block of the trailing two axes of mat."""
    return mat[..., rows, :][..., cols]


def _factor_solve(hess, rhs):
    """The lower Cholesky factor L of -hess and L^-1 rhs, for stacks; raises
    RuntimeError unless every -hess is positive definite."""
    try:
        low = np.linalg.cholesky(-hess)
    except np.linalg.LinAlgError:
        raise RuntimeError(
            "cannot integrate analytically: the log-modulus Hessian is not "
            "negative definite in the requested directions"
        ) from None
    return low, np.linalg.solve(low, rhs)


def _log_integral(const, low, z):
    """const + (k/2) log 2 pi - sum log diag(low) + z.z / 2 (LogQuadratic.total)."""
    log_det = 0.5 * low.shape[-1] * math.log(2.0 * math.pi) - np.add.reduce(np.log(low.diagonal(0, -2, -1)), axis=-1)
    return const + log_det + 0.5 * np.einsum("...i,...i->...", z, z)


def _stencil(ndim: int) -> np.ndarray:
    """Unit-step finite-difference offsets: 0, +e_i, -e_i, then e_i + e_j for i < j."""
    eye = np.eye(ndim)
    pairs = [eye[i] + eye[j] for i in range(ndim) for j in range(i + 1, ndim)]
    return np.concatenate([np.zeros((1, ndim)), eye, -eye, np.reshape(pairs, (-1, ndim))])


@lru_cache(maxsize=None)
def _check_offsets(ndim: int) -> np.ndarray:
    """The three off-grid validation offsets, one per row (read-only)."""
    checks = np.random.default_rng(0).uniform(-1.7, 1.7, (3, ndim))
    checks.flags.writeable = False
    return checks


@lru_cache(maxsize=None)
def _check_design(ndim: int) -> np.ndarray:
    """The model's terms at the _check_offsets c, one column per check
    (read-only): c, then the flattened c c^T / 2, so that a model's
    [grad, flattened hess] times it, plus const, is the model at each check."""
    checks = _check_offsets(ndim)
    squares = (checks[:, :, None] * checks[:, None, :]).reshape(len(checks), -1)
    design = np.concatenate([checks.T, 0.5 * squares.T])
    design.flags.writeable = False
    return design


@lru_cache(maxsize=None)
def _row_offsets(ndim: int) -> np.ndarray:
    """The fit coordinates of a node's ndim + 4 factor rows, one per row
    (read-only): the three _check_offsets, r = 0, then e_1, ..., e_ndim."""
    offsets = np.concatenate([_check_offsets(ndim), np.eye(ndim + 1, ndim, -1)])
    offsets.flags.writeable = False
    return offsets


def _validate(quad: LogQuadratic, fx, f0) -> None:
    """Raise unless quad reproduces the values fx at the check points.

    The check points are the _check_offsets of quad's dimension, and fx
    holds one value per check along its trailing axis; f0 is the function's
    value at the reference point of the model.  Leading axes are batch
    axes.  The tolerance is 1e-7 of the largest of 100, |fx| and |f0|,
    entry by entry: a residual at it passes, one past it raises
    RuntimeError; when none exceeds the floor 1e-7 x 100 (and none is nan)
    the rest of the test is skipped.  Only this decision reads the model at
    the checks, so how its terms are summed moves no output.  A miss is how a function that is
    not quadratic shows up; the engine catches a wrong set of coupled
    coordinates before, when a check row's factors differ from its node's
    (_node_quadratics).  A field of the model past double range shows in
    the model at every check; a model or value that is not finite (so a
    residual that is not) raises OverflowError.
    """
    terms = np.concatenate([quad.grad, quad.hess.reshape(*quad.hess.shape[:-2], -1)], axis=-1)
    model = np.asarray(quad.const)[..., None] + terms @ _check_design(quad.ndim)
    resid = np.abs(fx - model)
    # residuals within the tolerance's floor pass at once; a nan or inf one does not
    if resid.max(initial=0.0) <= 1e-7 * 100.0:
        return
    if not np.isfinite(resid).all():
        raise OverflowError("the log-modulus quadratics leave double range")
    bad = resid > 1e-7 * np.maximum(np.maximum(100.0, np.abs(fx)), np.abs(f0)[..., None])
    if bad.any():
        raise RuntimeError(
            "log-modulus is not quadratic in the marginalized coordinates "
            f"(residual {resid[bad].max():.3e}); the coupled coordinates "
            "do not match the representation's factors"
        )


def fit_log_quadratic(func: Callable[[np.ndarray], float], ndim: int) -> LogQuadratic:
    """Recover an exactly quadratic function from unit-step finite differences about 0.

    The differences are exact for quadratics at any step size; validation
    evaluates func at a few off-grid points and raises if the model does not
    reproduce them.  The engine reads its quadratics in closed form
    (_node_quadratics); this is the reference they are tested against.
    """
    if ndim == 0:
        return LogQuadratic(float(func(np.zeros(0))), np.zeros(0), np.zeros((0, 0)))
    k = ndim
    values = np.array([float(func(x)) for x in _stencil(k)])
    f0, f_plus, f_minus, f_pair = values[0], values[1 : 1 + k], values[1 + k : 1 + 2 * k], values[1 + 2 * k :]
    hess = np.diag(f_plus + f_minus - 2.0 * f0)
    iu, ju = np.triu_indices(k, 1)
    hess[iu, ju] = hess[ju, iu] = f_pair - f_plus[iu] - f_plus[ju] + f0
    quad = LogQuadratic(f0, 0.5 * (f_plus - f_minus), hess)
    _validate(quad, np.array([float(func(x)) for x in _check_offsets(ndim)]), f0)
    return quad


class _WindowSide(NamedTuple):
    """What the node quadratics read of the window g, one entry per node:
    quad (m, d, d), the conjugate of the acted quad at r = 0; lin
    (m, k + 4, d), the conjugate of the acted lin on each factor row (the
    product f conj(pi g) reads them so); amp (m, 4), Re of the acted
    amplitude on the three check rows and r = 0; grad (m, k), the part of
    the gradient no state moves, amp(e_i) - amp(0) - H_la[i, i] / 2; and
    H_la = -2 pi V^T Re(g.quad) V (m, k, k)."""

    quad: np.ndarray
    lin: np.ndarray
    amp: np.ndarray
    grad: np.ndarray
    h_la: np.ndarray


def _window_side(rep: RepSpec, g_quad, g_lin, g_log_amp, nodes) -> _WindowSide:
    """The part of _node_quadratics that reads only rep, the window and the nodes.

    g_quad, g_lin and g_log_amp are the window's fields.  One factor table
    holds the k + 4 rows of each node (_row_offsets).  C and S may move only
    with the coupled coordinates of rep.split: every row's C and S must
    equal its node's r = 0 row bit for bit, else the split is wrong and the
    log modulus is not quadratic, which raises.  It runs under the kernel's
    errstate: the C/S test and _validate report overflow.
    """
    group = rep.group
    coupled, fitdims = rep.split
    offsets = _row_offsets(len(fitdims))
    m, rows = len(nodes), len(offsets)
    qv = np.zeros((m, rows, group.quotient_dim))
    if coupled:
        qv[..., coupled] = nodes[:, None, :]
    qv[..., fitdims] = offsets
    factors = _factors(rep, section(group, qv.reshape(m * rows, -1)))
    _, C, _, S, v = factors
    C, S, v = C.reshape(m, rows, *C.shape[1:]), S.reshape(m, rows, *S.shape[1:]), v.reshape(m, rows, -1)
    # row 3 of each node is r = 0, the rows after it e_1, ..., e_k
    if ((C != C[:, 3:4]) | (S != S[:, 3:4])).any():
        if not (np.isfinite(C).all() and np.isfinite(S).all()):
            raise OverflowError("the log-modulus quadratics leave double range")
        raise RuntimeError(
            "log-modulus is not quadratic in the marginalized coordinates: the chirp or the "
            "substitution moves with them; the coupled coordinates do not match the "
            "representation's factors"
        )
    lin, amp = _acted_lin_amp(factors, g_quad, g_lin, g_log_amp)
    amp = amp.real.reshape(m, rows)
    V = v[:, 4:] - v[:, 3:4]
    h_la = -2.0 * np.pi * V @ g_quad.real @ V.swapaxes(-1, -2)
    grad = amp[:, 4:] - amp[:, 3:4] - 0.5 * h_la.diagonal(0, -2, -1)
    quad = _acted_quad(C[:, 3], S[:, 3], g_quad)
    return _WindowSide(np.conj(quad, out=quad), np.conj(lin, out=lin).reshape(m, rows, -1), amp[:, :4], grad, h_la)


def _shared_nodes(rep: RepSpec) -> np.ndarray:
    """The nodes every state of a norm meets: the one empty node of a rep
    with no coupled coordinate, else the probe's ladder (_PROBE_LADDER) on
    the first coupled coordinate with 0 on the others, where _coupled_axes
    starts every centre."""
    coupled = rep.split[0]
    nodes = np.zeros((len(_PROBE_LADDER) if coupled else 1, len(coupled)))
    if coupled:
        nodes[:, 0] = _PROBE_LADDER
    return nodes


@lru_cache(maxsize=32)
def _cached_window_side(rep: RepSpec, quad: bytes, lin: bytes, log_amp: bytes) -> _WindowSide:
    """_window_side at rep's _shared_nodes (read-only), cached by value: the
    window arrives as the bytes of its complex fields, so an equal-valued
    copy of it hits, and any other bit misses.  A fill that raises is not
    cached."""
    d = rep.acting_dim
    window = np.frombuffer(quad, complex).reshape(d, d), np.frombuffer(lin, complex), np.frombuffer(log_amp, complex)[0]
    side = _window_side(rep, *window, _shared_nodes(rep))
    for field in side:
        field.flags.writeable = False
    return side


@np.errstate(over="ignore", invalid="ignore")  # the C/S test and _validate report overflow
def _node_quadratics(rep: RepSpec, states: _States, g: Gaussian, cpts=None) -> LogQuadratic:
    """The quadratic r -> log |<f, pi(section(q)) g>| at coupled nodes q.

    cpts holds one node per row, a value for each coupled coordinate of rep
    (rep.split), and states one state f_j per node.  cpts None stands for
    rep's _shared_nodes, which each state of states meets in turn: the
    models come state-major, len(_shared_nodes(rep)) per state.  r runs
    over the other quotient coordinates, in order.  At a node Q is fixed,
    L = L0 + J r is affine and so is the shift v = v0 + V r, so the kernel's
    Re la - log|det Q| / 2 + Re(L.Q^-1 L) / 4 pi is quadratic in r with

        hess = Re(J^T Q^-1 J) / 2 pi + H_la,   H_la = -2 pi V^T Re(g.quad) V,
        grad = Re la(e_i) - Re la(0) - H_la[i, i] / 2 + Re(J^T Q^-1 L0) / 2 pi,

    and const its value at r = 0 (the Gaussian integral, Folland, Harmonic
    Analysis in Phase Space, 1989, App. A).  Each node reads k + 4 factor
    rows (_row_offsets): the three off-grid check points, r = 0, then
    e_1, ..., e_k.

    The window side (_window_side) reads only rep, g and the nodes: the
    factor table, the exact C/S test, the action of pi on g, V, H_la and
    the part of grad that no state moves.  The shared nodes' side is read
    once, from _cached_window_side, a cache of at most 32 entries keyed by
    rep and the bytes of g's fields, and broadcast over the states: the
    closed form's empty node, which is every node of a rep with no coupled
    coordinate, and the probe's first ladder.  Other nodes (the climbs and
    the meshes) read it inline, per block.  The state side (_state_side)
    runs on every call: Q is formed once per node, with one Cholesky
    factorisation (the positive-definiteness check, _check_positive_real),
    one slogdet and one (k + 4)-column solve against the rows L = (the
    checks' L, L0, J_1, ..., J_k).  One product L Q^-1 L^T then holds the
    kernel's check values and const on its first four diagonal entries,
    Re(J^T Q^-1 L0) and Re(J^T Q^-1 J), and every model must reproduce its
    check values (_validate).

    A call whose states fit in one block of _BLOCK factor rows returns that
    block's model; more run block by block, each written into the returned
    arrays, so the block size moves no bit.  A block costs the same fixed
    work whatever it holds: about forty array operations, indexing and
    _validate included, and three numpy.linalg calls on the state side,
    which is all a cached window side leaves, and about sixty more on an
    inline window side.  The kernel reads only moduli, so it leaves out the
    unit phase of the action (act adds it).
    """
    coupled, fitdims = rep.split
    k = len(fitdims)
    side, per_state = None, 1
    if cpts is None or not coupled:  # with no coupled coordinate every node is the empty node
        side = _cached_window_side(rep, *[np.asarray(x, dtype=complex).tobytes() for x in (g.quad, g.lin, g.log_amp)])
        per_state = len(side.amp)
        if per_state > 1:  # a node axis after the state axis: each state meets every shared node
            states = _States(states.quad[:, None], states.lin[:, None], states.log_amp[:, None])
    n = len(states.log_amp)
    step = max(1, _BLOCK // ((k + 4) * per_state))  # states per block
    if n <= step:
        return _state_side(side if side is not None else _window_side(rep, g.quad, g.lin, g.log_amp, cpts), states)
    out = const, grad, hess = LogQuadratic(
        np.empty(n * per_state), np.empty((n * per_state, k)), np.empty((n * per_state, k, k))
    )
    for start in range(0, n, step):
        block, rows = slice(start, start + step), slice(start * per_state, (start + step) * per_state)
        block_side = side if side is not None else _window_side(rep, g.quad, g.lin, g.log_amp, cpts[block])
        const[rows], grad[rows], hess[rows] = _state_side(block_side, states.rows(block))
    return out


def _state_side(side: _WindowSide, states: _States) -> LogQuadratic:
    """The part of _node_quadratics that reads the states: the models of
    states against side, which broadcast.  states holds one state per node
    of side, or any number against side's one node, or carries a node axis
    of length 1 after its state axis, so that each state meets every node of
    side; those models come flat, state-major."""
    Q = states.quad + side.quad
    _check_positive_real(Q)
    L = states.lin[:, None] + side.lin
    # rows 0 to 2 are the checks, row 3 is r = 0: their L, then J_1, ..., J_k as
    # differences of the rows' L (J taken off the window side alone,
    # conj(lin(e_i) - lin(0)), misses the large-u chirp scans' closed forms
    # by about a tenth more in rms)
    L[..., 4:, :] -= L[..., 3:4, :]
    _, log_abs_det = np.linalg.slogdet(Q)
    form = (L @ np.linalg.solve(Q, L.swapaxes(-1, -2))).real / (2.0 * np.pi)  # Re(L_a Q^-1 L_b) / 2 pi
    # the kernel's log modulus at each check row and at r = 0, with its node's Q
    vals = states.log_amp[:, None].real + side.amp - 0.5 * log_abs_det[..., None]
    vals += 0.5 * form.diagonal(0, -2, -1)[..., :4]
    h = form[..., 4:, 4:] + side.h_la
    quad = LogQuadratic(vals[..., 3], side.grad + form[..., 4:, 3], 0.5 * (h + h.swapaxes(-1, -2)))
    _validate(quad, vals[..., :3], quad.const)
    if quad.const.ndim > 1:  # states at every node of side: state-major
        k = quad.ndim
        return LogQuadratic(quad.const.reshape(-1), quad.grad.reshape(-1, k), quad.hess.reshape(-1, k, k))
    return quad


# ---------------------------------------------------------------------------
# quadrature meshes

def _linear_axis(spec: NormSpec):
    """The uniform axis over the box, for the weighted coordinates."""
    vals = np.arange(-spec.box_half, spec.box_half + 0.5 * spec.resolution, spec.resolution)
    return vals, np.full(vals.shape, math.log(spec.resolution))


def _sinh_axis(center: float, spec: NormSpec):
    """The axis of every coupled coordinate: nodes center + sinh(s) on a
    uniform s-grid over the box, so geometric spacing, finest at the center."""
    s_max = math.asinh(spec.box_half)
    step = 2.0 * spec.resolution
    s = np.arange(-s_max, s_max + 0.5 * step, step)
    return center + np.sinh(s), math.log(step) + np.log(np.cosh(s))


def _mesh_nodes(spec: NormSpec, n_coupled: int, n_weighted: int):
    """The node count of n_coupled _sinh_axis and n_weighted _linear_axis
    axes, from the spec alone (inf past float range).  Each count is the
    length np.arange gives its axis, ceil((stop - start) / step), summed in
    the order numpy sums it."""
    b, h = spec.box_half, spec.resolution
    s_max, step = math.asinh(b), 2.0 * h
    sinh, linear = ceil_count((s_max + 0.5 * step + s_max) / step), ceil_count((b + 0.5 * h + b) / h)
    return sinh**n_coupled * linear**n_weighted


def _product_mesh(axes):
    """Cartesian product of (values, log-weights) axes.

    Returns points (M, k), per-point log measure (M,), and a boundary flag
    marking points touching the outer shell of any axis.
    """
    if not axes:
        return np.zeros((1, 0)), np.zeros(1), np.zeros(1, dtype=bool)
    grid = [idx.ravel() for idx in np.meshgrid(*[np.arange(len(vals)) for vals, _ in axes], indexing="ij")]
    points = np.stack([vals[idx] for (vals, _), idx in zip(axes, grid)], axis=-1)
    logw = np.zeros(points.shape[0])
    boundary = np.zeros(points.shape[0], dtype=bool)
    for (vals, lw), idx in zip(axes, grid):
        logw += np.broadcast_to(lw, (len(vals),))[idx]
        boundary |= (idx == 0) | (idx == len(vals) - 1)
    return points, logw, boundary


def _check_tail(shell_log, total_log, what: Callable[[], str]):
    """Warn when the log mass shell_log of a mesh's outer shell is more than
    _TAIL_TOL of the log mass total_log; what() names the mesh, and is
    formatted only for the warning."""
    frac = float(np.exp(shell_log - total_log))
    if frac > _TAIL_TOL:
        warnings.warn(
            f"{what()}: the outer quadrature shell carries {frac:.2%} of the mass "
            f"(tolerance {_TAIL_TOL:.2%}); enlarge box_half",
            TailMassWarning,
            stacklevel=5,  # past _assemble, _coorbit_log_norms and the entry point that calls it
        )


def _mesh_radius(a_c, a_w, cpts, wpts):
    """|A q| with one row per coupled node and one column per weight node, from A's columns a_c
    and a_w for them: a row of A at a time, so two mesh-sized arrays whatever A's rank."""
    r = np.zeros((len(cpts), len(wpts)))
    t = np.empty_like(r)
    for row_c, row_w in zip(a_c, a_w):
        np.add.outer(np.einsum("ci,i->c", cpts, row_c), np.einsum("wi,i->w", wpts, row_w), out=t)
        r += np.square(t, out=t)
    return np.sqrt(r, out=r)


# the probe's first candidates, one row of them per climb: 0, then +-2, +-4, .., +-1024 (read-only)
_PROBE_LADDER = np.array([0.0] + [c for k in range(1, 11) for c in (2.0**k, -(2.0**k))])
_PROBE_LADDER.flags.writeable = False


def _probe_center(slice_mass: Callable[[np.ndarray, np.ndarray], np.ndarray], n_rows: int) -> np.ndarray:
    """Locate the modes of n_rows slice-mass functions whose centers may sit far from 0.

    slice_mass(rows, centers) maps centers (len(rows), K), one row of
    candidates per function listed in rows, to their masses, same shape.
    The hill climbs run in lockstep: a geometric ladder (one call with every
    row, each of them _PROBE_LADDER) finds each mode's order of magnitude,
    then each climb walks to its mode with halving steps.  Each later call
    reads, for every climb not yet done, all the steps it could take from
    its center without moving: +-step, +-step/2, ... down to the last
    step >= 0.25, a row padded with its last pair.  The sequential climb is
    replayed on those masses up to its first move, so a call costs one
    move, not one step.  A final center is within a fraction of the
    integration box of the true peak.  Per row, ties go to the earlier
    candidate: 0, then +mag before -mag, and the current center before
    +step before -step.
    """
    rows = np.arange(n_rows)
    masses = slice_mass(rows, _PROBE_LADDER[None].repeat(n_rows, axis=0))
    best = np.argmax(masses, axis=1)
    best_c, best_v = _PROBE_LADDER[best], masses[rows, best]
    step = np.maximum(1.0, np.abs(best_c) / 2.0)
    active = rows
    while len(active):
        # step = m 2^e with 0.5 <= m < 1 keeps step / 2^j >= 0.25 for j < e + 2;
        # a climb with fewer steps than the longest repeats its last
        at_step = step[active]
        n_steps = np.frexp(at_step)[1] + 2
        steps = at_step[:, None] / 2.0 ** np.minimum(np.arange(n_steps.max()), n_steps[:, None] - 1)
        pairs = best_c[active, None, None] + steps[..., None] * np.array([1.0, -1.0])
        mass = slice_mass(active, pairs.reshape(len(active), -1)).reshape(pairs.shape)
        k = np.argmax(mass, axis=2)
        top = mass.max(axis=2)  # mass at k
        gains = top > best_v[active, None]
        # the first step that gains is the move; a climb with none is done
        i = np.flatnonzero(gains.any(axis=1))
        at = np.argmax(gains[i], axis=1)
        active = active[i]
        best_c[active] = pairs[i, at, k[i, at]]
        best_v[active] = top[i, at]
        step[active] = steps[i, at]
    return best_c


# ---------------------------------------------------------------------------
# coorbit norms over quotient groups

def coorbit_norm_log(rep: RepSpec, f: Gaussian, g: Gaussian, spec: NormSpec | None = None) -> float:
    """log of the L^p_m norm of q -> <f, pi(section(q)) g> over the quotient."""
    norms, _ = _coorbit_log_norms(rep, _States.one(f), g, spec)
    return float(norms[0])


def formal_dimension(rep: RepSpec, g=None) -> float:
    """d_pi estimate from the orthogonality relation: ||g||^4 / int |V_g g|^2.

    Raises ValueError, in place of the TailMassWarning of the norm, when the
    tail outside the truncation box exceeds 1% of the integral.
    """
    if g is None:
        g = unit_gaussian(rep.acting_dim)
    spec = NormSpec(p=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TailMassWarning)
        try:
            log_sq = 2.0 * coorbit_norm_log(rep, g, g, spec)
        except TailMassWarning as tail:
            raise ValueError(str(tail)) from None
    return float(np.exp(4.0 * np.log(l2_norm(g)) - log_sq))


class _Plan(NamedTuple):
    """A norm as _normalise reads it from its representation and spec alone."""

    rep: RepSpec  # the caller's: the engine meshes rep.unit
    a: np.ndarray | None  # the weight's A delta^-1; None without a weight
    wdims: list[int]  # the meshed fit coordinates: the weighted ones
    name: Callable[[], str]  # how messages name the norm


def _coorbit_log_norms(rep, states, g, spec=None, where=None):
    """coorbit_norm_log for every state f_i of states at once: _normalise, then
    the closed form when nothing is meshed, else _coupled_axes and _assemble.
    spec None is NormSpec().

    Returns the log norms (U,) and the centers (U, c) the recentring probe
    found on the c coupled coordinates, in the caller's coordinates.  Every
    mesh read stacks all U states; the tail checks are made per state, with
    where[i] (if given) appended to the message.

    The norm is taken at the unit character rep.unit: the engine meshes
    q' = delta q (rep.quotient_delta), where the coefficient of pi is that
    of pi_{+-1}, carries a weight's matrix as A delta^-1 and takes the
    Jacobian, rep.log_jacobian / p, off the log norm.  box_half, resolution and the
    probe act in q'; the centers are divided by delta on the way out.

    V_g f(x, xi) = <f, M_xi T_x g> is the coefficient of the Heisenberg
    group H_d at lambda = -1 (_stft_rep), whose quotient coordinates are
    (x, xi): its coorbit norm is the modulation norm.
    """
    spec = NormSpec() if spec is None else spec
    plan = _normalise(rep, spec, len(states.log_amp))
    coupled = rep.unit.split[0]
    if not (coupled or plan.wdims):  # nothing is meshed: every direction in closed form
        log_norms = _node_quadratics(rep.unit, states, g).scaled(spec.p).total() / spec.p
        log_norms -= rep.log_jacobian / spec.p
        return log_norms, np.zeros((len(log_norms), 0))
    centers, mesh = _coupled_axes(plan, states, g, spec)
    log_norms = _assemble(plan, states, g, spec, mesh, where)
    log_norms -= rep.log_jacobian / spec.p
    return log_norms, centers / rep.quotient_delta[list(coupled)]


def _normalise(rep, spec, n_states) -> _Plan:
    """The _Plan of a norm of n_states states.  Every refusal is made here, before
    any kernel call: weight coordinates out of range, A delta^-1 past double
    range, and the node budget, in that order."""
    n = rep.group.quotient_dim

    def name():
        return "modulation norm" if rep == _stft_rep(n // 2) else f"coorbit norm on {rep.group.name}"

    weight, a = spec.weight, None
    if weight is not None and weight.coords[-1] >= n:
        raise ValueError(f"weight coordinates {weight.coords} out of range for quotient dim {n}")
    if weight is not None:
        # A delta^-1, with zero columns past A's last
        with np.errstate(over="ignore"):  # a matrix past double range is refused just below
            a = np.hstack([weight.A, np.zeros((len(weight.A), n))])[:, :n] / rep.quotient_delta
        if not np.isfinite(a).all():
            raise WeightRangeError(f"{name()}: the weight's matrix A delta^-1 is past double range")
    coupled = rep.unit.split[0]
    # a weight meshes its coordinates off the coupled ones
    wdims = sorted(set(weight.coords) - set(coupled)) if weight is not None else []
    check_budget(
        n_states * _mesh_nodes(spec, len(coupled), len(wdims)),
        _MAX_NODES,
        lambda: f"{name()}: {n_states} state(s) x {len(coupled)} coupled and {len(wdims)} "
        f"weighted mesh axes at resolution {spec.resolution:g} in a box of half-width {spec.box_half:g}",
    )
    return _Plan(rep, a, wdims, name)


def _coupled_axes(plan: _Plan, states: _States, g: Gaussian, spec: NormSpec):
    """The centers (U, c) _probe_center finds on the coupled coordinates, one
    after another, and the mesh of _sinh_axis about them: points (U, M, c),
    one row of M per state, with the log weights and outer-shell flags (M,)
    every state shares."""
    unit = plan.rep.unit
    centers = np.zeros((len(states.log_amp), len(unit.split[0])))
    for j in range(centers.shape[1]):

        def smass(rows, c, j=j):
            if j == 0 and c.shape[1] == len(_PROBE_LADDER) and (c == _PROBE_LADDER).all():
                # the ladder with every center still 0: the shared nodes, window side cached
                quad = _node_quadratics(unit, states.rows(rows), g)
            else:
                cv = np.repeat(centers[rows], c.shape[1], axis=0)
                cv[:, j] = c.ravel()
                quad = _node_quadratics(unit, states.rows(np.repeat(rows, c.shape[1])), g, cv)
            return quad.scaled(spec.p).total().reshape(c.shape)

        centers[:, j] = _probe_center(smass, len(centers))
    offsets, logw, boundary = _product_mesh([_sinh_axis(0.0, spec) for _ in range(centers.shape[1])])
    return centers, (centers[:, None, :] + offsets, logw, boundary)


def _assemble(plan: _Plan, states: _States, g: Gaussian, spec: NormSpec, mesh, where) -> np.ndarray:
    """The log norms (U,) before the Jacobian, summed on the coupled mesh of
    _coupled_axes with the weight's term, per state, and tail-checked."""
    p, unit, wdims, name = spec.p, plan.rep.unit, plan.wdims, plan.name
    coupled, fitdims = unit.split
    points, clogw, cbound = mesh
    n_states, per_state = points.shape[:2]
    where = where or [""] * n_states
    wpts, wlogw, wbound = _product_mesh([_linear_axis(spec) for _ in wdims])
    cpts = points.reshape(n_states * per_state, len(coupled))
    node_states = states.rows(np.repeat(np.arange(n_states), per_state))

    # one row per coupled node of every state, one column per weight node: the
    # fit coordinates off the weight mesh are integrated out once per node, and
    # the quadratic left in the weighted ones is evaluated on the weight mesh
    # (one empty point without a weight)
    quad = _node_quadratics(unit, node_states, g, cpts).scaled(p)
    quad = quad.marginalized([i for i, c in enumerate(fitdims) if c not in wdims])
    vals = LogQuadratic(quad.const[:, None], quad.grad[:, None], quad.hess[..., None, :, :]).value(wpts)
    if plan.a is not None:
        s = spec.weight.s
        r = _mesh_radius(plan.a[:, coupled], plan.a[:, wdims], cpts, wpts)
        reach = float(r.max())
        if not math.isfinite(p * abs(s) * math.log1p(reach)):
            raise WeightRangeError(f"{name()}: p log m at s = {s:g}, |A q| = {reach:g} is past double range")
        vals += p * s * np.log1p(r, out=r)

    # per state: the log mass over its coupled and weight nodes, one flat row
    # (a 2-D reduction by axis would sum in another order), and its outer shell
    contribs = vals.reshape(n_states, per_state, -1)
    contribs += clogw[:, None]
    contribs += wlogw
    boundary = (cbound[:, None] | wbound[None, :]).ravel()
    shell = boundary.any()
    norms = np.empty(n_states)
    for i, at in enumerate(where):
        row = contribs[i].ravel()
        total_log = logsumexp(row)
        if shell:
            # compress, not row[boundary]: several times faster on one long row
            _check_tail(logsumexp(row.compress(boundary)), total_log, lambda: name() + at)
        norms[i] = total_log / p
    return norms


# ---------------------------------------------------------------------------
# modulation norms on phase space

def modulation_norm_log(f: Gaussian, g: Gaussian | None = None, spec: NormSpec | None = None) -> float:
    """log of the M^p_m norm: coordinates ordered (x_1..x_d, xi_1..xi_d).

    The coorbit norm of the STFT representation _stft_rep(d).
    """
    g = unit_gaussian(f.dim) if g is None else g
    if g.dim != f.dim:
        raise ValueError(f"window dimension {g.dim} does not match signal dimension {f.dim}")
    norms, _ = _coorbit_log_norms(_stft_rep(f.dim), _States.one(f), g, spec)
    return float(norms[0])


# ---------------------------------------------------------------------------
# orbit scans and growth exponents

@dataclass(frozen=True)
class NormTask:
    """One scan row: a family of states along a u-ladder, the window they are
    taken against, and the norm to take of them.

    states(u) maps the ladder u (U,) to _States with one row per u; the
    window is the same at every u.  The norm is the coorbit norm of rep, or
    the modulation norm when rep is None.
    """

    label: str
    norm: NormSpec
    states: Callable[[np.ndarray], _States]
    window: Gaussian
    rep: RepSpec | None = None
    growth: str = "u"  # abscissa of the slope fit: log u, or log(1 + u^2)

    def __post_init__(self):
        if self.growth not in ("u", "1+u^2"):
            raise ValueError(f"unknown growth abscissa {self.growth!r}")

    def prepare(self, u: float) -> tuple[Gaussian, Gaussian]:
        """(f, g) at one u: the one-row case of states, and the window."""
        f = self.states(np.array([float(u)]))
        return Gaussian(f.quad[0], f.lin[0], f.log_amp[0]), self.window


@dataclass(frozen=True)
class ScanResult:
    growth: str
    u_values: tuple[float, ...]
    log_norms: tuple[float, ...]
    slope: float
    intercept: float
    centers: tuple[tuple[float, ...], ...] = ()  # the recentred coupled coordinates per u; () with none


def fit_slope(u_values, log_norms, growth: str = "u", u_min: float = 32.0) -> tuple[float, float]:
    u = np.asarray(u_values, dtype=float)
    y = np.asarray(log_norms, dtype=float)
    mask = u >= u_min
    if mask.sum() < 2 or u[mask].min() == u[mask].max():
        raise ValueError(f"need at least two distinct u values past u_min = {u_min:g} for a slope fit")
    x = np.log(u[mask]) if growth == "u" else np.log1p(u[mask] ** 2)
    dx, y = x - x.mean(), y[mask]
    slope = float(dx @ (y - y.mean()) / (dx @ dx))  # the least-squares line through centred sums
    return slope, float(y.mean() - slope * x.mean())


DEFAULT_SCAN = (10.0, 20.0, 40.0, 80.0, 160.0, 320.0)


def orbit_scan(task: NormTask, u_values: Sequence[float] = DEFAULT_SCAN, u_min_fit: float = 32.0) -> ScanResult:
    """The norms of the states task.states(u) along u_values, and the slope fit.

    Every state is taken in one stacked norm evaluation against task.window.
    A tail-mass warning names its u.
    """
    u_values = tuple(float(u) for u in u_values)
    states = task.states(np.array(u_values))
    g = task.window
    n, d = len(u_values), g.dim
    shapes = tuple(np.shape(field) for field in states)
    if shapes != ((n, d, d), (n, d), (n,)):
        raise ValueError(
            f"scan {task.label}: states(u) must give one state of the window's dimension {d} "
            f"for each of the {n} values of u, got (quad, lin, log_amp) of shapes {shapes}"
        )
    where = [f" at u = {u:g}" for u in u_values]
    logs, found = _coorbit_log_norms(task.rep or _stft_rep(d), states, g, task.norm, where=where)
    centers = tuple(tuple(float(c) for c in row) for row in found) if found.size else ()
    logs = tuple(float(v) for v in logs)
    slope, intercept = fit_slope(u_values, logs, task.growth, u_min_fit)
    return ScanResult(task.growth, u_values, logs, slope, intercept, centers)


def chirp_scan_task(p: float, cross: bool = False) -> NormTask:
    """M^p growth along pure chirps: one variable, or the planar cross chirp."""
    d = 2 if cross else 1
    window = unit_gaussian(d)

    def states(u):
        n = len(u)
        mats = np.zeros((n, d, d))
        if cross:
            mats[:, 0, 1] = mats[:, 1, 0] = u / 2.0
        else:
            mats[:, 0, 0] = u
        return _States(quad_forms(window.quad + 1j * mats), np.tile(window.lin, (n, 1)), np.full(n, window.log_amp))

    label = f"chirp-cross-p{p:g}" if cross else f"chirp-1d-p{p:g}"
    return NormTask(label, NormSpec(p=p), states, window)


def _orbit_states(rep: RepSpec, f: Gaussian, u) -> _States:
    """pi(u_k e_3) f for every u_k of the ladder, along the fourth group
    coordinate: one stacked action."""
    a = np.zeros((len(u), rep.group.total_dim))
    a[:, 3] = u
    quad, lin, log_amp = act(rep, a, f.quad, f.lin, f.log_amp)
    return _States(quad_forms(quad), lin, log_amp)


def g53_curve_tasks(p: float = 1.0) -> tuple[NormTask, NormTask, NormTask]:
    """Three norms of the same curve of states, the fixed f1 (x) phi pushed
    along the fourth coordinate of the 5-dimensional group: its own coorbit
    norm (an invariant), the plain modulation norm, and the coorbit norm
    taken in the 6,19 group, whose growth follows (1 + u^2) rather than u."""
    rep53 = RepSpec(group_spec("g5_3"), 1.0)
    rep619 = RepSpec(group_spec("g6_19"), 1.0, 1.0)
    window = unit_gaussian(2)
    states = partial(_orbit_states, rep53, tensor(Gaussian(1.4, 0.3), unit_gaussian(1)))
    return (
        NormTask(f"co-g53-curve-p{p:g}", NormSpec(p=p), states, window, rep=rep53),
        NormTask(f"mp-g53-curve-p{p:g}", NormSpec(p=p), states, window),
        NormTask(f"co-g619-curve-p{p:g}", NormSpec(p=p), states, window, rep=rep619, growth="1+u^2"),
    )


def df_modulation_task(p: float = 1.0) -> NormTask:
    """M^p(R^3) growth along the chirp-generating direction of the 7-dimensional group."""
    rep = RepSpec(group_spec("dynin_folland"), 1.0)
    window = unit_gaussian(3)
    return NormTask(f"df-y3-mp-p{p:g}", NormSpec(p=p), partial(_orbit_states, rep, window), window)
