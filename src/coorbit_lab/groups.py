"""Five nilpotent Lie groups in global polynomial coordinates, one record each.

Each group is R^n with a polynomial product.  A group's record (GroupSpec)
declares only what cannot be worked out: the product law, the bracket table
and the factors of its Schroedinger-type representation.  The dimension, the
centre and the quotient follow from the brackets, and so do the acting
dimension and the formal dimension of the representation.  The
representation's record (representations.RepSpec) derives the rest once:
the coupled coordinates from its factors, and with the brackets the
homogeneity grading and the dilation delta to its unit character.

All five laws are written out as polynomials.  The 7-dimensional one is in
coordinates of the second kind (ordered exponentials e^{c1 E1} ... e^{c7 E7}),
the parametrization its Schroedinger-type representation expects; it is the
Baker-Campbell-Hausdorff series of its brackets, summed by hand, and the tests
keep that series as its reference.

All operations broadcast over leading axes, so lattice and sampling code can
push 10^4 points through at once.  The stacks this module allocates
(section, axis_point) are coordinate-major: Fortran-ordered, so each
coordinate of an (N, n) stack is one contiguous column, which is how the laws
read and write them.  The laws return the same bits on either layout.  Every
record puts its centre at one end of the coordinates, so the noncentral ones
form one slice, and section and project read and write it without a fancy
index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "GROUPS",
    "GroupSpec",
    "group_spec",
    "multiply",
    "inverse",
    "section",
    "project",
    "quotient_multiply",
    "axis_point",
    "structure_constants",
]


@dataclass(frozen=True)
class GroupSpec:
    """The record of one group.

    brackets lists each nonzero [E_i, E_j] = c E_k as (i, j, k, c).
    law(a, b) returns the product of two coordinate arrays of one shape.
    rep_factors(rep, a, C, S) returns the factors (theta, m, v) of pi(a) for
    each row of a and writes the chirp and affine factors into C and S, which
    come in as zeros and identities (see representations._factors).
    """

    name: str
    brackets: tuple[tuple[int, int, int, float], ...]
    law: Callable
    rep_factors: Callable

    @cached_property
    def total_dim(self) -> int:
        # every coordinate enters some bracket: one that did not would split
        # off an abelian factor, which has no square-integrable representation
        return 1 + max(max(i, j, k) for i, j, k, _ in self.brackets)

    @cached_property
    def center_indices(self) -> tuple[int, ...]:
        """The coordinates whose row of the bracket table is zero."""
        C = structure_constants(self)
        return tuple(int(i) for i in np.flatnonzero(~C.any(axis=(1, 2))))

    @property
    def center_dim(self) -> int:
        return len(self.center_indices)

    @cached_property
    def quotient_dim(self) -> int:
        return self.total_dim - self.center_dim

    @cached_property
    def noncenter_indices(self) -> tuple[int, ...]:
        c = set(self.center_indices)
        return tuple(i for i in range(self.total_dim) if i not in c)

    @cached_property
    def noncenter_slice(self) -> slice:
        """The noncentral coordinates, which every record keeps contiguous."""
        idx = self.noncenter_indices
        if idx != tuple(range(idx[0], idx[-1] + 1)):
            raise ValueError(f"{self.name}: the noncentral coordinates {idx} are not contiguous")
        return slice(idx[0], idx[-1] + 1)


def axis_point(dim: int, j: int, t) -> np.ndarray:
    """Coordinate-axis element(s): t e_j, with t scalar or batched; coordinate-major."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape + (dim,), order="F")
    out[..., j] = t
    return out


# ---------------------------------------------------------------------------
# explicit product laws (0-based coordinates; centers come first except for
# the Heisenberg group, whose center is the last coordinate)

def _mul_heisenberg(a, b):
    d = a.shape[-1] // 2
    out = a + b
    out[..., 2 * d] += np.einsum("...i,...i->...", a[..., :d], b[..., d : 2 * d])
    return out


def _mul_g6_16(a, b):
    out = a + b
    out[..., 0] += a[..., 4] * b[..., 2] + a[..., 5] * b[..., 3]
    out[..., 1] += a[..., 5] * b[..., 4]
    return out


def _mul_g5_3(a, b):
    out = a + b
    out[..., 0] += a[..., 3] * b[..., 2] + a[..., 4] * b[..., 1] + 0.5 * a[..., 4] ** 2 * b[..., 3]
    out[..., 1] += a[..., 4] * b[..., 3]
    return out


def _mul_g6_19(a, b):
    out = a + b
    out[..., 0] += a[..., 5] * b[..., 2]
    out[..., 1] += a[..., 4] * b[..., 3] + a[..., 4] * a[..., 5] * b[..., 4] + 0.5 * a[..., 5] * b[..., 4] ** 2
    out[..., 3] += a[..., 5] * b[..., 4]
    return out


def _mul_df(a, b):
    # second-kind coordinates (z, y1, y2, y3, x1, x2, x3): a is the ordered
    # product e^{a0 E0} ... e^{a6 E6}; the BCH series, kept in the tests as the
    # reference, closes to these corrections because the algebra is 3-step
    out = a + b
    out[..., 0] += (
        a[..., 4] * b[..., 3] + a[..., 5] * b[..., 2] + a[..., 6] * b[..., 1] - 0.5 * a[..., 5] * a[..., 6] * b[..., 3]
    )
    out[..., 1] += 0.5 * a[..., 5] * b[..., 3]
    out[..., 2] -= 0.5 * a[..., 6] * b[..., 3]
    out[..., 4] += a[..., 6] * b[..., 5]
    return out


# basis order (Z, Y1, Y2, Y3, X1, X2, X3) = (E0, ..., E6)
_DF_BRACKETS = (
    (6, 1, 0, 1.0),  # [X3, Y1] = Z
    (5, 2, 0, 1.0),  # [X2, Y2] = Z
    (4, 3, 0, 1.0),  # [X1, Y3] = Z
    (5, 3, 1, 0.5),  # [X2, Y3] = Y1/2
    (6, 3, 2, -0.5),  # [X3, Y3] = -Y2/2
    (6, 5, 4, 1.0),  # [X3, X2] = X1
)


# ---------------------------------------------------------------------------
# factors of the Schroedinger-type representations: pi(a) f is
# e^{2 pi i theta} M_m N_C (f o (t -> S t + v)), one factor per row of a

def _rep_heisenberg(rep, a, C, S):
    d = rep.acting_dim
    return rep.lam * a[:, 2 * d], -rep.lam * a[:, d : 2 * d], -a[:, :d]


def _rep_g6_16(rep, a, C, S):
    lam, mu = rep.lam, rep.mu
    z1, z2, a3, a4, a5, a6 = a.T
    m = np.stack([-lam * a3 + mu * a6, -lam * a4], axis=-1)
    return lam * z1 + mu * (z2 - a5 * a6), m, -a[:, 4:6]


def _rep_g5_3(rep, a, C, S):
    lam = rep.lam
    z, a2, a3, a4 = a.T[:4]
    C[:, 1, 1] = -lam * a4
    return lam * (z - a3 * a4), np.stack([lam * a4, -lam * a2], axis=-1), -a[:, [2, 4]]


def _rep_g6_19(rep, a, C, S):
    lam, mu = rep.lam, rep.mu
    z1, z2, a3, a4, a5, a6 = a.T
    C[:, 0, 0] = mu * a6
    m = np.stack([mu * (-a4 + a5 * a6), -lam * a3], axis=-1)
    return lam * z1 + mu * (z2 - 0.5 * a5**2 * a6), m, -a[:, 4:6]


def _rep_df(rep, a, C, S):
    # coordinates (z, y1, y2, y3, x1, x2, x3)
    lam = rep.lam
    C[:, 1, 2] = C[:, 2, 1] = lam * a[:, 3] / 2.0
    S[:, 0, 2] = a[:, 5]
    return lam * a[:, 0], lam * a[:, [3, 2, 1]], a[:, 4:7]


# ---------------------------------------------------------------------------
# the records

def _heisenberg(d: int) -> GroupSpec:
    if d < 1:
        raise ValueError("heisenberg_d must be >= 1")
    brackets = tuple((i, d + i, 2 * d, 1.0) for i in range(d))  # [X_i, Y_i] = Z
    return GroupSpec("heisenberg", brackets, _mul_heisenberg, _rep_heisenberg)


# name -> its record; the Heisenberg family has one record per d
_TABLE = {
    "heisenberg": _heisenberg,
    "g6_16": GroupSpec("g6_16", ((4, 2, 0, 1.0), (5, 3, 0, 1.0), (5, 4, 1, 1.0)), _mul_g6_16, _rep_g6_16),
    "g5_3": GroupSpec("g5_3", ((3, 2, 0, 1.0), (4, 1, 0, 1.0), (4, 3, 1, 1.0)), _mul_g5_3, _rep_g5_3),
    "g6_19": GroupSpec("g6_19", ((5, 2, 0, 1.0), (4, 3, 1, 1.0), (5, 4, 3, 1.0)), _mul_g6_19, _rep_g6_19),
    "dynin_folland": GroupSpec("dynin_folland", _DF_BRACKETS, _mul_df, _rep_df),
}

GROUPS = tuple(_TABLE)


def group_spec(name: str, heisenberg_d: int = 1) -> GroupSpec:
    """The record of a group; heisenberg_d picks the Heisenberg group H_d and is ignored elsewhere."""
    if name not in _TABLE:
        raise ValueError(f"unknown group {name!r}; choose from {GROUPS}")
    entry = _TABLE[name]
    return entry if isinstance(entry, GroupSpec) else entry(heisenberg_d)


# ---------------------------------------------------------------------------

def multiply(spec: GroupSpec, a, b) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1] != spec.total_dim or b.shape[-1] != spec.total_dim:
        raise ValueError(f"expected trailing dimension {spec.total_dim}")
    return spec.law(*np.broadcast_arrays(a, b))


def inverse(spec: GroupSpec, a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    # Coordinate i of a product is a_i + b_i + P_i, and P_i reads b only at
    # coordinates that are final when the reversed sweep reaches i: later
    # ones, and those with P_j = 0, which -a gets right from the start.  So
    # one sweep solves a.y = 0.
    y = -a
    for i in reversed(range(spec.total_dim)):
        y[..., i] -= multiply(spec, a, y)[..., i]
    return y


def section(spec: GroupSpec, q) -> np.ndarray:
    """Lift quotient coordinates to the group, central part set to zero; coordinate-major."""
    q = np.asarray(q, dtype=float)
    if q.shape[-1] != spec.quotient_dim:
        raise ValueError(f"expected trailing dimension {spec.quotient_dim}")
    out = np.zeros(q.shape[:-1] + (spec.total_dim,), order="F")
    out[..., spec.noncenter_slice] = q
    return out


def project(spec: GroupSpec, a) -> np.ndarray:
    """The quotient coordinates of a: a view of its noncentral slice."""
    a = np.asarray(a, dtype=float)
    return a[..., spec.noncenter_slice]


def quotient_multiply(spec: GroupSpec, qa, qb) -> np.ndarray:
    return project(spec, multiply(spec, section(spec, qa), section(spec, qb)))


# ---------------------------------------------------------------------------
# declared structure constants, which oracles.bracket_check tests against the laws

def structure_constants(spec: GroupSpec) -> np.ndarray:
    """C[i, j, k], the coefficient of E_k in [E_i, E_j], from the declared table."""
    n = spec.total_dim
    C = np.zeros((n, n, n))
    for i, j, k, c in spec.brackets:
        C[i, j, k] += c
        C[j, i, k] -= c
    return C
