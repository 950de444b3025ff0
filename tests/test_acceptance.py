"""Acceptance gate: the nine headline checks, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete; every check re-derives its quantities from scratch at the stated
tolerances and asserts its own runtime budget.
"""

import time

import numpy as np
import pytest

from coorbit_lab.coorbit import (
    NormSpec,
    chirp_scan_task,
    coorbit_norm_log,
    g53_curve_tasks,
    modulation_norm_log,
    orbit_scan,
)
from coorbit_lab.frames import QuasiLattice, beurling_density, frame_bounds_estimate, tiling_check
from coorbit_lab.gaussian import (
    Gaussian,
    chirp,
    chirp_stft_modulus,
    delta_matrix,
    l2_norm,
    stft_closed,
    unit_gaussian,
)
from coorbit_lab.groups import GROUPS, group_spec
from coorbit_lab.numerics import GridSpec, dft_stft
from coorbit_lab.representations import (
    RepSpec,
    formal_dimension,
    homomorphism_check,
    known_formal_dimension,
    unitarity_check,
)


def report(number: int, name: str, ok: bool, detail: str, elapsed: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {verdict} {detail} [{elapsed:.1f}s]", flush=True)


def random_sym(rng, dim, scale=3.0):
    C = rng.uniform(-scale, scale, (dim, dim))
    return (C + C.T) / 2


def test_criterion_1_chirp_transform_closed_form():
    t0 = time.time()
    rng = np.random.default_rng(101)
    max_closed = 0.0
    for dim in (1, 2):
        window = unit_gaussian(dim)
        for _ in range(500):
            C = random_sym(rng, dim)
            x = rng.uniform(-2, 2, dim)
            xi = rng.uniform(-2, 2, dim)
            direct = abs(stft_closed(chirp(window, C), window, x, xi))
            max_closed = max(max_closed, abs(direct - chirp_stft_modulus(C, x, xi)))
    max_oracle = 0.0
    for dim in (1, 2):
        window = unit_gaussian(dim)
        grid = GridSpec.default_for(dim)
        for _ in range(30):
            C = random_sym(rng, dim, scale=1.5)
            x = rng.uniform(-1, 1, dim)
            _, freq, S = dft_stft(chirp(window, C), window, grid, shifts=[x])
            mesh = np.stack(np.meshgrid(*([freq] * dim), indexing="ij"), axis=-1)
            keep = np.all(np.abs(mesh) <= 2.0, axis=-1)
            want = chirp_stft_modulus(C, x, mesh[keep])
            max_oracle = max(max_oracle, float(np.abs(np.abs(S[0][keep]) - want).max()))
    elapsed = time.time() - t0
    ok = max_closed < 1e-10 and max_oracle < 1e-6 and elapsed < 30
    report(1, "chirp transform closed form", ok, f"max_closed={max_closed:.2e} max_oracle={max_oracle:.2e}", elapsed)
    assert max_closed < 1e-10
    assert max_oracle < 1e-6
    assert elapsed < 30


def test_criterion_2_determinant_identity():
    t0 = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    for i in range(100):
        dim = 1 + i % 2
        C = random_sym(rng, dim)
        val = np.linalg.det(delta_matrix(C)) * np.linalg.det(4 * np.eye(dim) + C @ C)
        worst = max(worst, abs(val - 1.0))
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 1
    report(2, "covariance determinant identity", ok, f"max_error={worst:.2e}", elapsed)
    assert worst < 1e-10
    assert elapsed < 1


def test_criterion_3_chirp_norm_exponents():
    t0 = time.time()
    details = []
    ok = True
    for p in (1.0, 2.0, 4.0):
        res = orbit_scan(chirp_scan_task(p))
        want = 1.0 / p - 0.5
        tol = 0.005 if p == 2.0 else 0.02
        good = abs(res.slope - want) <= tol
        ok = ok and good
        details.append(f"1d p={p}: {res.slope:+.4f} vs {want:+.2f}")
    for p in (1.0, 2.0, 4.0):
        res = orbit_scan(chirp_scan_task(p, cross=True))
        want = 2.0 / p - 1.0
        tol = 0.005 if p == 2.0 else 0.02
        good = abs(res.slope - want) <= tol
        ok = ok and good
        details.append(f"cross p={p}: {res.slope:+.4f} vs {want:+.2f}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    report(3, "chirp norm exponents", ok, "; ".join(details), elapsed)
    assert ok


def test_criterion_4_orthogonality_collapse():
    t0 = time.time()
    details = []
    ok = True
    for name in GROUPS:
        grp = group_spec(name, 1)
        rep = RepSpec(grp, 1.0, 1.0) if name in ("g6_16", "g6_19") else RepSpec(grp, 1.0)
        d = rep.acting_dim
        f = Gaussian(np.eye(d) * 1.2, np.full(d, 0.1))
        g = unit_gaussian(d)
        got = np.exp(coorbit_norm_log(rep, f, g, NormSpec(p=2.0)))
        d_pi = known_formal_dimension(rep)  # the Pfaffian of the bracket form
        want = l2_norm(f) * l2_norm(g) / np.sqrt(d_pi)
        rel = abs(got - want) / want
        ok = ok and rel < 1e-3
        details.append(f"{name}: rel={rel:.1e}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    report(4, "p=2 collapse to the orthogonality constant", ok, "; ".join(details), elapsed)
    assert ok


def test_criterion_5_distinctness_witnesses():
    t0 = time.time()
    own, mod, sibling = g53_curve_tasks(1.0)
    r_own = orbit_scan(own)
    norms = np.exp(r_own.log_norms)
    deviation = float(np.abs(norms / norms[0] - 1.0).max())
    r_mod = orbit_scan(mod)
    r_sib = orbit_scan(sibling)
    elapsed = time.time() - t0
    ok = (
        deviation < 0.01
        and abs(r_mod.slope - 0.5) <= 0.02
        and abs(r_sib.slope - 0.25) <= 0.02
        and elapsed < 600
    )
    detail = (
        f"own-norm deviation={deviation:.2e}; modulation slope={r_mod.slope:+.4f} vs +0.50; "
        f"sibling slope={r_sib.slope:+.4f} vs +0.25"
    )
    report(5, "one curve, three inequivalent norms", ok, detail, elapsed)
    assert deviation < 0.01
    assert abs(r_mod.slope - 0.5) <= 0.02
    assert abs(r_sib.slope - 0.25) <= 0.02
    assert elapsed < 600


def test_criterion_6_representation_selftest():
    t0 = time.time()
    max_hom = 0.0
    max_unit = 0.0
    for name in GROUPS:
        grp = group_spec(name, 1)
        rep = RepSpec(grp, 1.0, 1.0) if name in ("g6_16", "g6_19") else RepSpec(grp, 1.0)
        hom = homomorphism_check(rep, n_pairs=500, seed=106)
        unit = unitarity_check(rep, n_samples=100, seed=106)
        max_hom = max(max_hom, hom["max_error"])
        max_unit = max(max_unit, unit["max_error"])
    elapsed = time.time() - t0
    ok = max_hom < 1e-10 and max_unit < 1e-10 and elapsed < 60
    report(6, "homomorphism and unitarity", ok, f"max_hom={max_hom:.2e} max_unit={max_unit:.2e}", elapsed)
    assert max_hom < 1e-10
    assert max_unit < 1e-10
    assert elapsed < 60


def test_criterion_7_g616_reduction():
    t0 = time.time()
    grp = group_spec("g6_16")
    f = Gaussian(np.diag([1.3, 0.9]), [0.2, -0.1])
    g = unit_gaussian(2)
    worst = 0.0
    for lam, mu in ((1.0, 0.0), (2.0, 1.0)):
        rep = RepSpec(grp, lam, mu)
        for p in (1.0, 2.0):
            co = coorbit_norm_log(rep, f, g, NormSpec(p=p))
            mod = modulation_norm_log(f, g, NormSpec(p=p)) - 2.0 * np.log(lam) / p
            worst = max(worst, abs(np.expm1(co - mod)))
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 120
    report(7, "planar-quotient reduction to modulation norms", ok, f"max_rel={worst:.2e}", elapsed)
    assert worst < 1e-4
    assert elapsed < 120


def test_criterion_8_formal_dimension_and_density():
    t0 = time.time()
    h1 = group_spec("heisenberg", 1)
    dim_err = 0.0
    for lam in (1.0, 2.0):
        est = formal_dimension(RepSpec(h1, lam))
        dim_err = max(dim_err, abs(est - abs(lam)))
    sweep_ok = True
    worst_ratio = 0.0
    for lam, eps_list in ((1.0, (0.5, 0.7, 0.9, 1.1, 1.25, 1.5)), (2.0, (0.5, 0.6, 0.75, 0.9))):
        rep = RepSpec(h1, lam)
        d_pi = known_formal_dimension(rep)
        for eps in eps_list:
            density = beurling_density(QuasiLattice(h1, eps))["estimate"]
            if density < 0.95 * d_pi:
                ratio = frame_bounds_estimate(rep, eps=eps).ratio
                worst_ratio = max(worst_ratio, ratio)
                sweep_ok = sweep_ok and ratio < 0.01
    elapsed = time.time() - t0
    ok = dim_err < 1e-3 and sweep_ok and elapsed < 600
    detail = f"formal-dimension error={dim_err:.1e}; worst subcritical A/B={worst_ratio:.2e}"
    report(8, "formal dimension and the density threshold", ok, detail, elapsed)
    assert dim_err < 1e-3
    assert sweep_ok
    assert elapsed < 600


def test_criterion_9_quasilattice_tiling():
    t0 = time.time()
    failures = {}
    for name in GROUPS:
        grp = group_spec(name, 1)
        res = tiling_check(QuasiLattice(grp, 0.75), n_points=10000, seed=109)
        failures[name] = res["failures"] + res["neighbor_violations"]
    elapsed = time.time() - t0
    total = sum(failures.values())
    ok = total == 0 and elapsed < 10
    report(9, "quasi-lattice tiling", ok, f"failures={failures}", elapsed)
    assert total == 0
    assert elapsed < 10
