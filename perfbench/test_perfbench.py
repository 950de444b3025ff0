"""Self-test of the benchmark: each correctness check rejects a perturbed result.

Runs in a few seconds and needs no workload run.
"""

import math

import numpy as np
import pytest

import checks
from tracer import Tracer

DENSITY_CSV = (
    "group,eps,n_points,failures,neighbor_violations,density,expected_density\n"
    + "".join(
        f"{g},0.75,10000,0,0,{0.75 ** -n!r},{0.75 ** -n!r}\n" for g, n in checks.QUOTIENT_DIM.items()
    )
)
FRAME_CSV = "eps,density,A_est,B_est\n0.5,4.0,2.8,2.85\n1.25,0.64,-3.3e-16,0.87\n"


def test_norm_off_by_1e_3_is_rejected():
    checks.close("norm", 1.2345, 1.2345, 1e-6)
    with pytest.raises(checks.CheckError):
        checks.close("norm", 1.2345 * (1 + 1e-3), 1.2345, 1e-6)


def test_slope_off_by_0_05_is_rejected():
    checks.slope("chirp-1d", 0.4997, 0.5)
    with pytest.raises(checks.CheckError):
        checks.slope("chirp-1d", 0.55, 0.5)


def test_orbit_norms_that_drift_are_rejected():
    checks.invariant("g53-curve-own", [2.0, 2.0 * (1 + 1e-12), 2.0])
    with pytest.raises(checks.CheckError):
        checks.invariant("g53-curve-own", [2.0, 2.05, 2.0])


def test_flipped_csv_byte_is_rejected():
    data = DENSITY_CSV.encode()
    checks.same_bytes("density", data, bytes(data))
    flipped = bytearray(data)
    flipped[len(flipped) // 2] ^= 0x01
    with pytest.raises(checks.CheckError, match="byte"):
        checks.same_bytes("density", data, bytes(flipped))


def test_exit_code_1_where_0_is_expected_is_rejected():
    checks.exit_status("density", 0, 0, "")
    with pytest.raises(checks.CheckError):
        checks.exit_status("density", 1, 0, "")
    with pytest.raises(checks.CheckError, match="traceback"):
        checks.exit_status("coorbit-norm", 3, 3, "Traceback (most recent call last):\n")


def test_density_and_frame_tables():
    checks.density_table(DENSITY_CSV)
    with pytest.raises(checks.CheckError):
        checks.density_table(DENSITY_CSV.replace("dynin_folland,0.75,10000,0,0", "dynin_folland,0.75,10000,1,0"))
    checks.frame_table(FRAME_CSV)
    with pytest.raises(checks.CheckError, match="A/B"):
        checks.frame_table(FRAME_CSV.replace("-3.3e-16", "0.2"))


def test_heisenberg_coefficient_matches_quadrature_in_t():
    """The hand-written closed form behind the weighted reference, against a plain t-grid sum."""
    a, b, lam = 1.2, 0.4 - 0.7j, 1.0
    t = np.linspace(-12.0, 12.0, 48001)
    for x, y in ((0.0, 0.0), (0.8, -0.5), (-1.5, 1.25)):
        integrand = np.exp(-np.pi * a * t**2 + b * t) * np.exp(2j * np.pi * lam * y * t) * np.exp(-np.pi * (t - x) ** 2)
        numeric = abs(integrand.sum() * (t[1] - t[0]))
        assert math.isclose(math.exp(checks.heisenberg_log_coefficient(a, b, lam, x, y)), numeric, rel_tol=1e-10)


def test_gaussian_l2_matches_quadrature():
    a, b = np.array([0.9]), np.array([0.6 + 0.3j])
    t = np.linspace(-12.0, 12.0, 48001)
    numeric = math.sqrt((np.abs(np.exp(-np.pi * a[0] * t**2 + b[0] * t)) ** 2).sum() * (t[1] - t[0]))
    assert math.isclose(checks.gaussian_l2(a, b), numeric, rel_tol=1e-10)


def test_tracer_counts_self_time_and_restores():
    from coorbit_lab import gaussian, representations

    original = gaussian.log_inner
    g = gaussian.unit_gaussian(2)
    tracer = Tracer()
    with tracer.installed():
        assert representations.log_inner is not original
        gaussian.log_inner(g, g)
    assert gaussian.log_inner is original and representations.log_inner is original
    spans = tracer.summary()["spans"]
    inner, ctor = spans["gaussian.log_inner"], spans["gaussian.Gaussian"]
    assert inner["calls"] == 1 and ctor["calls"] >= 2
    assert 0.0 <= inner["self_s"] <= inner["total_s"] - ctor["total_s"] + 1e-12
    assert list(tracer.span_parent) == [-1] + [0] * (len(tracer.span_parent) - 1)
