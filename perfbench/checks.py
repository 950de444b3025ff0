"""Correctness checks, each against theory or a computation made apart from the engine.

Nothing here imports coorbit_lab: the expected values come from the
literature (formal dimensions, growth exponents, lattice densities) or from
closed forms written out here by hand, so a fault in the engine cannot hide
in its own reference.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np


class CheckError(Exception):
    """A program output disagrees with its reference."""


def formal_dimension(group: str, lam: float, mu: float = 0.0, heisenberg_d: int = 1) -> float:
    """d_pi from the literature: |lam|^d, lam^2, lam^2, |lam mu| and |lam|^3."""
    return {
        "heisenberg": abs(lam) ** heisenberg_d,
        "g6_16": lam**2,
        "g5_3": lam**2,
        "g6_19": abs(lam * mu),
        "dynin_folland": abs(lam) ** 3,
    }[group]


# quotient dimension n of each group (Heisenberg with d = 1), for densities eps^-n
QUOTIENT_DIM = {"heisenberg": 2, "g6_16": 4, "g5_3": 4, "g6_19": 4, "dynin_folland": 6}


def gaussian_l2(a, b) -> float:
    """||exp(-pi sum a_i t_i^2 + b.t)|| for real a > 0 and complex b.

    |f|^2 = exp(-2 pi sum a_i t_i^2 + 2 Re b.t), integrated one axis at a time.
    """
    a = np.asarray(a, dtype=float)
    rb = np.real(np.asarray(b, dtype=complex))
    log_sq = float(np.sum(-0.5 * np.log(2.0 * a) + rb**2 / (2.0 * np.pi * a)))
    return math.exp(0.5 * log_sq)


def heisenberg_log_coefficient(a: float, b: complex, lam: float, x, y):
    """log |<f, pi(x, y) g>| for f = exp(-pi a t^2 + b t), g = exp(-pi t^2) on R.

    The Schroedinger representation acts by (pi(x, y) g)(t) = exp(-2 pi i lam y t) g(t - x),
    so the coefficient is the integral of exp(-pi (a + 1) t^2 + beta t - pi x^2)
    with beta = b + 2 pi x + 2 pi i lam y.
    """
    beta = b + 2.0 * np.pi * np.asarray(x) + 2j * np.pi * lam * np.asarray(y)
    return -0.5 * math.log(a + 1.0) + np.real(beta * beta) / (4.0 * np.pi * (a + 1.0)) - np.pi * np.asarray(x) ** 2


def heisenberg_weighted_grid_norm(a: float, b: complex, lam: float, box_half: float, resolution: float, s: float) -> float:
    """(sum over the (x, y) grid of |<f, pi(x, y) g>|^2 (1 + |(x, y)|)^(2 s) h^2)^(1/2).

    The grid is the one the engine meshes a weighted quotient coordinate with:
    nodes from -box_half to box_half in steps of resolution.
    """
    nodes = np.arange(-box_half, box_half + 0.5 * resolution, resolution)
    x, y = np.meshgrid(nodes, nodes, indexing="ij")
    log_terms = 2.0 * heisenberg_log_coefficient(a, b, lam, x, y) + 2.0 * s * np.log1p(np.hypot(x, y))
    peak = float(log_terms.max())
    total = peak + math.log(float(np.exp(log_terms - peak).sum())) + 2.0 * math.log(resolution)
    return math.exp(0.5 * total)


def close(what: str, value: float, expected: float, rtol: float) -> None:
    err = abs(value - expected) / abs(expected)
    if not err <= rtol:
        raise CheckError(f"{what}: {value!r} against {expected!r}, relative error {err:.3e} > {rtol:g}")


def slope(what: str, fitted: float, expected: float, tol: float = 0.02) -> None:
    if not abs(fitted - expected) <= tol:
        raise CheckError(f"{what}: slope {fitted:.5f} against the exponent {expected:.5f}, beyond {tol:g}")


def invariant(what: str, norms, tol: float = 0.01) -> None:
    norms = np.asarray(norms, dtype=float)
    spread = float(np.max(np.abs(norms / norms[0] - 1.0)))
    if not spread < tol:
        raise CheckError(f"{what}: norms vary by {spread:.3e} along the orbit, not below {tol:g}")


def exit_status(what: str, code: int, expected: int, stderr: str) -> None:
    if code != expected:
        raise CheckError(f"{what}: exit code {code}, expected {expected}")
    if "Traceback" in stderr:
        raise CheckError(f"{what}: printed a traceback")


def summary_passes(what: str, summary: dict) -> None:
    if summary.get("pass") is not True:
        raise CheckError(f"{what}: JSON summary has pass = {summary.get('pass')!r}")


def same_bytes(what: str, first: bytes, second: bytes) -> None:
    if first != second:
        at = next((i for i, (u, v) in enumerate(zip(first, second)) if u != v), min(len(first), len(second)))
        raise CheckError(f"{what}: the CSV of a repeat with the same seed differs from byte {at}")


def _rows(csv_text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(csv_text)))


def density_table(csv_text: str) -> None:
    """Every group's density is eps^-n; no tiling failures, no neighbour violations."""
    rows = _rows(csv_text)
    if {r["group"] for r in rows} != set(QUOTIENT_DIM):
        raise CheckError(f"density: groups {[r['group'] for r in rows]}, expected all five")
    for r in rows:
        eps = float(r["eps"])
        close(f"density of {r['group']}", float(r["density"]), eps ** -QUOTIENT_DIM[r["group"]], 1e-9)
        if int(r["failures"]) != 0 or int(r["neighbor_violations"]) != 0:
            raise CheckError(
                f"density of {r['group']}: {r['failures']} tiling failures, "
                f"{r['neighbor_violations']} neighbour violations"
            )


def frame_table(csv_text: str, d_pi: float = 1.0, ratio_tol: float = 0.01) -> None:
    """Heisenberg (d = 1) lattice density is eps^-2; below d_pi the frame collapses, A/B < ratio_tol."""
    rows = _rows(csv_text)
    if not rows:
        raise CheckError("frame-sweep: empty table")
    below = 0
    for r in rows:
        eps = float(r["eps"])
        density = eps**-2
        close(f"frame-sweep density at eps={eps}", float(r["density"]), density, 1e-9)
        if density < d_pi:
            below += 1
            ratio = float(r["A_est"]) / float(r["B_est"])
            if not ratio < ratio_tol:
                raise CheckError(f"frame-sweep at eps={eps}: A/B = {ratio:.3e} below the critical density")
    if below == 0:
        raise CheckError("frame-sweep: no sampled eps lies below the critical density")
