"""The five unitary actions: exact group structure, two independent
evaluation routes, and the orthogonality constants."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from _references import coefficient_log_modulus, pullback_affine
from coorbit_lab.gaussian import Gaussian, chirp, inner_product, l2_norm, log_inner, modulate
from coorbit_lab.groups import GROUPS, group_spec, multiply, section
from coorbit_lab.oracles import pointwise_action, quad_rep_coefficient
from coorbit_lab.representations import (
    RepSpec,
    _factors,
    _grading,
    act,
    apply_rep,
    default_window,
    formal_dimension,
    homomorphism_check,
    known_formal_dimension,
    unitarity_check,
)


def standard_rep(name):
    grp = group_spec(name, 1)
    if name in ("g6_16", "g6_19"):
        return RepSpec(grp, 1.0, 1.0)
    return RepSpec(grp, 1.0)


ALL_REPS = [standard_rep(n) for n in GROUPS]


def rep_coefficient_log_modulus(rep, a, f, g) -> float:
    """log |<f, pi(a) g>| through one acted Gaussian, safe far outside the windows' joint support."""
    return float(log_inner(f, apply_rep(rep, a, g)).real)


@pytest.mark.parametrize("rep", ALL_REPS, ids=GROUPS)
def test_homomorphism_with_full_phase(rep):
    res = homomorphism_check(rep, n_pairs=60, seed=0)
    assert res["max_error"] < 1e-12, res


@pytest.mark.parametrize("rep", ALL_REPS, ids=GROUPS)
def test_homomorphism_modulo_phase(rep):
    res = homomorphism_check(rep, n_pairs=60, seed=1)
    assert res["max_error"] < 1e-12, res


@pytest.mark.parametrize("rep", ALL_REPS, ids=GROUPS)
def test_unitarity(rep):
    res = unitarity_check(rep, n_samples=40, seed=0)
    assert res["max_error"] < 1e-10, res


@pytest.mark.parametrize("rep", ALL_REPS, ids=GROUPS)
def test_central_character(rep):
    # central elements act as the scalar exp(2 pi i lam z): modulus-one phase only
    grp = rep.group
    f = default_window(rep)
    a = np.zeros(grp.total_dim)
    a[grp.center_indices[0]] = 0.7
    acted = apply_rep(rep, a, f)
    phase = inner_product(acted, f) / inner_product(f, f)
    assert abs(phase - np.exp(2j * np.pi * rep.lam * 0.7)) < 1e-12


@pytest.mark.parametrize("rep", ALL_REPS, ids=GROUPS)
def test_coefficient_modulus_ignores_the_central_lift(rep):
    grp = rep.group
    rng = np.random.default_rng(2)
    f = chirp(default_window(rep), 0.3 * np.eye(rep.acting_dim))
    g = default_window(rep)
    q = rng.uniform(-1.5, 1.5, grp.quotient_dim)
    base = rep_coefficient_log_modulus(rep, section(grp, q), f, g)
    lift = section(grp, q)
    lift[list(grp.center_indices)] = rng.uniform(-3, 3, len(grp.center_indices))
    shifted = np.log(abs(inner_product(f, apply_rep(rep, lift, g))))
    assert shifted == pytest.approx(base, abs=1e-10)


@pytest.mark.parametrize("rep", ALL_REPS, ids=GROUPS)
def test_closed_coefficient_against_pointwise_quadrature(rep):
    rng = np.random.default_rng(3)
    f = chirp(default_window(rep), 0.4 * np.eye(rep.acting_dim))
    g = default_window(rep)
    for _ in range(3):
        a = rng.uniform(-1.0, 1.0, rep.group.total_dim)
        closed = inner_product(f, apply_rep(rep, a, g))
        numeric = quad_rep_coefficient(rep, a, f, g)
        assert closed == pytest.approx(numeric, abs=2e-8)


KERNEL_REPS = [
    RepSpec(group_spec("heisenberg", 1), 1.3),
    RepSpec(group_spec("heisenberg", 2), -0.8),
    RepSpec(group_spec("g6_16"), 2.0, 0.6),
    RepSpec(group_spec("g5_3"), -1.5),
    RepSpec(group_spec("g6_19"), 0.7, -1.4),
    RepSpec(group_spec("dynin_folland"), 2.0),
]


KERNEL_IDS = ["heisenberg-d1", "heisenberg-d2", "g6_16", "g5_3", "g6_19", "dynin_folland"]


@pytest.mark.parametrize("rep", KERNEL_REPS, ids=KERNEL_IDS)
def test_batched_action_matches_pointwise_action(rep):
    # each row of act, evaluated at a random t, against the displayed formula
    # (pi(a) g)(t) = phase(t) g(S t + v), phase included
    rng = np.random.default_rng(6)
    d = rep.acting_dim
    g = Gaussian(np.diag(rng.uniform(0.7, 1.4, d)) + 0.3j * np.eye(d), rng.uniform(-0.5, 0.5, d) + 0.2j, log_amp=0.1)
    a = rng.uniform(-2.0, 2.0, (200, rep.group.total_dim))
    t = rng.uniform(-2.0, 2.0, (200, d))
    quad, lin, log_amp = act(rep, a, g.quad, g.lin, g.log_amp)
    assert quad.shape == (200, d, d) and lin.shape == (200, d) and log_amp.shape == (200,)
    got = np.exp(log_amp - np.pi * np.einsum("ni,nij,nj->n", t, quad, t) + np.einsum("ni,ni->n", t, lin))
    want = []
    for a_k, t_k in zip(a, t):
        phase, S, v = pointwise_action(rep, a_k)
        want.append(phase(t_k) * g(S @ t_k + v))
    want = np.array(want)
    assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))


def _scalar_action(rep, a, f):
    """pi(a) f composed one operator at a time from the factor table."""
    theta, C, m, S, v = (factor[0] for factor in _factors(rep, np.reshape(a, (1, -1))))
    out = modulate(chirp(pullback_affine(f, S, v), C), m)
    return Gaussian(out.quad, out.lin, out.log_amp + 2j * np.pi * theta)


def _flipped_phase(grp):
    """grp with the sign of the phase theta of its representation flipped."""

    def rep_factors(rep, a, C, S):
        theta, m, v = grp.rep_factors(rep, a, C, S)
        return -theta, m, v

    return dataclasses.replace(grp, rep_factors=rep_factors)


@pytest.mark.parametrize("rep", ALL_REPS, ids=GROUPS)
def test_homomorphism_check_catches_a_flipped_phase(rep):
    mutated = RepSpec(_flipped_phase(rep.group), rep.lam, rep.mu)
    res = homomorphism_check(mutated, n_pairs=60, seed=0)
    assert not res["ok"]
    assert res["max_error"] > 1e-3


@pytest.mark.parametrize("rep", ALL_REPS, ids=GROUPS)
def test_homomorphism_check_draws_the_scalar_pairs(rep):
    # with the phase flipped, the error of a pair is large and depends on the
    # pair; the batched check must give the worst error of the pairs a scalar
    # loop draws (a, then b, pair by pair), composed operator by operator
    mutated = RepSpec(_flipped_phase(rep.group), rep.lam, rep.mu)
    n = rep.group.total_dim
    rng = np.random.default_rng(8)
    g = default_window(rep)
    errors = []
    for _ in range(3):
        a = rng.uniform(-2.0, 2.0, n)
        b = rng.uniform(-2.0, 2.0, n)
        lhs = _scalar_action(mutated, a, _scalar_action(mutated, b, g))
        rhs = _scalar_action(mutated, multiply(rep.group, a, b), g)
        scale = max(1.0, np.abs(lhs.quad).max(), np.abs(lhs.lin).max(), abs(lhs.log_amp))
        dphase = (lhs.log_amp - rhs.log_amp).imag
        errors.append(abs((dphase + np.pi) % (2.0 * np.pi) - np.pi) / scale)
    assert min(errors) > 1e-3
    got = homomorphism_check(mutated, n_pairs=3, seed=8, box=2.0)["max_error"]
    assert got == pytest.approx(max(errors), rel=1e-9)


@pytest.mark.parametrize("rep", ALL_REPS, ids=GROUPS)
def test_unitarity_check_draws_the_scalar_samples(rep):
    # stretching S by 1 + a_0^2 breaks unitarity by an amount that depends on
    # the element; the batched check on one sample must give the error of the
    # element a scalar loop draws after the window
    grp = rep.group

    def rep_factors(rep_, a, C, S):
        out = grp.rep_factors(rep_, a, C, S)
        S *= 1.0 + a[:, :1, None] ** 2
        return out

    mutated = RepSpec(dataclasses.replace(grp, rep_factors=rep_factors), rep.lam, rep.mu)
    d = rep.acting_dim
    rng = np.random.default_rng(9)
    g = Gaussian(np.eye(d) * 1.3, rng.uniform(-0.5, 0.5, d) + 1j * rng.uniform(-0.5, 0.5, d))
    a = rng.uniform(-3.0, 3.0, grp.total_dim)
    want = abs(l2_norm(_scalar_action(mutated, a, g)) / l2_norm(g) - 1.0)
    assert want > 1e-3
    got = unitarity_check(mutated, n_samples=1, seed=9, box=3.0)["max_error"]
    assert got == pytest.approx(want, rel=1e-9)


def test_checks_reject_a_singular_substitution():
    # the batched checks keep pullback_affine's invertibility check
    grp = group_spec("heisenberg", 1)

    def rep_factors(rep, a, C, S):
        out = grp.rep_factors(rep, a, C, S)
        S[:] = 0.0
        return out

    rep = RepSpec(dataclasses.replace(grp, rep_factors=rep_factors), 1.0)
    with pytest.raises(ValueError, match="invertible"):
        homomorphism_check(rep, n_pairs=5)
    with pytest.raises(ValueError, match="invertible"):
        unitarity_check(rep, n_samples=5)


@pytest.mark.parametrize("rep", KERNEL_REPS, ids=KERNEL_IDS)
def test_batched_kernel_matches_scalar_route(rep):
    rng = np.random.default_rng(4)
    d = rep.acting_dim
    quad = np.diag(rng.uniform(0.7, 1.4, d)) + 0.3j * np.eye(d)
    f = Gaussian(quad, rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d))
    g = Gaussian(np.eye(d) * 1.1, rng.uniform(-0.5, 0.5, d))
    a = rng.uniform(-400.0, 400.0, (200, rep.group.total_dim))
    got = coefficient_log_modulus(rep, a, f, g)
    want = np.array([rep_coefficient_log_modulus(rep, x, f, g) for x in a])
    assert got.shape == (200,)
    assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("rep", KERNEL_REPS, ids=KERNEL_IDS)
def test_acted_quad_is_the_complex_product_bit_for_bit(rep):
    # the action forms S^T quad S + iC from real products; a chirped window
    # has a complex quad, so both the real and the imaginary branch are read,
    # for one window and for a stack with one state per row
    rng = np.random.default_rng(6)
    d = rep.acting_dim
    window = chirp(
        Gaussian(np.eye(d) * 1.2 + 0.1 * np.ones((d, d)), np.full(d, 0.2 - 0.1j)),
        0.6 * np.eye(d) + 0.2 * np.ones((d, d)),
    )
    a = rng.uniform(-5.0, 5.0, (40, rep.group.total_dim))
    _, C, _, S, _ = _factors(rep, a)
    St = np.swapaxes(S, -1, -2)
    stacked = window.quad * rng.uniform(0.5, 2.0, (40, 1, 1)) + 0.3j * rng.uniform(-1.0, 1.0, (40, 1, 1))
    for quad in (window.quad, stacked):
        got = act(rep, a, quad, window.lin, window.log_amp)[0]
        assert got.tobytes() == (St @ quad @ S + 1j * C).tobytes()


# the quotient coordinates that enter the chirp or the substitution, per record of KERNEL_REPS
COUPLED = [(), (), (), (2,), (3,), (2, 4)]


@pytest.mark.parametrize("rep,coupled", zip(KERNEL_REPS, COUPLED), ids=KERNEL_IDS)
def test_declared_coupled_coordinates_are_the_ones_that_move_the_form(rep, coupled):
    # a quotient coordinate is coupled exactly when moving it changes the chirp C or
    # the substitution S: random probes, and the engine's one-probe derivation
    assert rep.moving[0] == coupled
    grp = rep.group
    rng = np.random.default_rng(5)
    moving = set()
    for _ in range(4):
        q = rng.uniform(-2.0, 2.0, grp.quotient_dim)
        moved = q + np.diag(rng.uniform(0.5, 1.5, grp.quotient_dim))
        _, C, _, S, _ = _factors(rep, section(grp, np.vstack([q, moved])))
        changed = (np.abs(C[1:] - C[0]) + np.abs(S[1:] - S[0])).max(axis=(1, 2)) > 0
        moving |= set(np.flatnonzero(changed).tolist())
    assert moving == set(coupled)


def test_a_caller_cannot_change_the_records_derived_facts():
    # every norm on the record shares its split and dilation, so they are
    # tuples and read-only arrays, and the frozen record refuses a new value
    rep = RepSpec(group_spec("dynin_folland"), 2.0)
    assert rep.split == ((2, 4), (0, 1, 3, 5)) and rep.split is rep.split
    with pytest.raises(TypeError):
        rep.split[0][0] = 3
    for delta in (rep.delta, rep.quotient_delta):
        with pytest.raises(ValueError, match="read-only"):
            delta[0] = 1.0
    for name in ("moving", "split", "unit", "delta", "quotient_delta", "log_jacobian"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rep, name, None)
    assert rep.split == ((2, 4), (0, 1, 3, 5)) and rep.delta.tolist() == [2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0]


def homogeneity_check(rep, n_points=50, seed=0) -> dict:
    """|<f, pi(a) g>| against |<f, pi_{+-1}(delta a) g>| on random elements.

    The unit character and the dilation delta are rep.unit and rep.delta,
    the map the norm engine applies.  The grading comes from the brackets
    and the factors are declared apart from them, so the relation tests one
    against the other.
    """
    rng = np.random.default_rng(seed)
    d = rep.acting_dim
    f = Gaussian(1.4 * np.eye(d) + 0.3j * np.ones((d, d)), np.full(d, 0.3 - 0.2j))
    g = default_window(rep)
    a = rng.uniform(-1.5, 1.5, (n_points, rep.group.total_dim))
    lhs = coefficient_log_modulus(rep, a, f, g)
    rhs = coefficient_log_modulus(rep.unit, a * rep.delta, f, g)
    worst = float(np.max(np.abs(np.expm1(lhs - rhs)), initial=0.0))
    return {"max_rel_error": worst, "ok": worst < 1e-10}


def test_g5_3_homogeneity():
    # the grading from the brackets reproduces the known dilation of g5_3, which
    # scales the quotient coordinates as (lam q0, q1, lam q2, q3)
    rep = RepSpec(group_spec("g5_3"), 2.0)
    assert _grading(rep).tolist() == [1, 1, 0, 1, 0]
    res = homogeneity_check(rep, n_points=30)
    assert res["ok"], res


@pytest.mark.parametrize("lam", [2.0, -0.7])
@pytest.mark.parametrize("rep", KERNEL_REPS, ids=KERNEL_IDS)
def test_homogeneity_on_every_record(rep, lam):
    res = homogeneity_check(RepSpec(rep.group, lam, rep.mu), n_points=200, seed=1)
    assert res["ok"], res
    assert res["max_rel_error"] < 1e-10


@pytest.mark.parametrize("factor", ["chirp", "modulation"])
def test_homogeneity_check_catches_factors_off_the_grading(factor):
    # one more power of lam on a factor keeps the coupled coordinates and the
    # grading, but the factor no longer scales with the dilation.  (Doubling C
    # would not do: 2C is as linear in lam as C, and the relation still holds.)
    grp = group_spec("g5_3")

    def skewed(rep, a, C, S):
        theta, m, v = grp.rep_factors(rep, a, C, S)
        if factor == "chirp":
            C *= rep.lam
            return theta, m, v
        return theta, rep.lam * m, v

    res = homogeneity_check(RepSpec(dataclasses.replace(grp, rep_factors=skewed), 2.0))
    assert not res["ok"]
    assert res["max_rel_error"] > 1e-3


def _last_accepted(accepts, inside, outside):
    """The |lam| nearest outside that accepts takes, bisecting log|lam| between
    inside, which it takes, and outside."""
    if accepts(outside):
        return outside
    for _ in range(200):
        mid = math.sqrt(inside) * math.sqrt(outside)
        if mid in (inside, outside):
            break
        inside, outside = (mid, outside) if accepts(mid) else (inside, mid)
    return inside


@pytest.mark.parametrize("rep", KERNEL_REPS, ids=KERNEL_IDS)
def test_the_dilation_is_finite_and_nonzero_at_every_accepted_lambda(rep):
    # the norm engine divides by delta and takes its log: at the largest and
    # the smallest |lam| whose formal dimension RepSpec accepts, of either
    # sign, delta must be a finite positive dilation, and the unit character
    # keeps the group, mu and the sign of lam
    def accepts(lam):
        try:
            RepSpec(rep.group, lam, rep.mu)
        except ValueError:
            return False
        return True

    extremes = [_last_accepted(accepts, 1.0, edge) for edge in (sys.float_info.max, 5e-324)]
    assert extremes[0] > 1e100 and extremes[1] < 1e-100
    for lam in extremes + [-x for x in extremes]:
        at = RepSpec(rep.group, lam, rep.mu)
        assert np.isfinite(at.delta).all() and (at.delta > 0).all(), lam
        assert at.unit == RepSpec(rep.group, math.copysign(1.0, lam), rep.mu)


@pytest.mark.parametrize("rep", KERNEL_REPS, ids=KERNEL_IDS)
@pytest.mark.parametrize("lam", [1e-310, -5e-324, -(sys.float_info.min / 2.0)])
def test_a_subnormal_lambda_is_refused_before_any_array_work(rep, lam):
    # slogdet would divide by zero on the way to d_pi = 0, so the range is
    # checked first; the smallest normal double itself is not refused here
    with pytest.raises(ValueError, match="below the smallest normal double"):
        RepSpec(rep.group, lam, rep.mu)
    try:
        RepSpec(rep.group, sys.float_info.min, rep.mu)
    except ValueError as exc:
        assert "smallest normal double" not in str(exc)


def test_grading_rejects_brackets_that_fix_no_grading(monkeypatch):
    # [E_3, E_1] = E_0 asks w_0 = w_3 + w_1 = 2 against the fixed w_0 = 1
    grp = group_spec("g5_3")
    skew = dataclasses.replace(grp, brackets=grp.brackets + ((3, 1, 0, 1.0),))
    with pytest.raises(ValueError, match="no grading"):
        _grading(RepSpec(skew, 1.0))
    # without the weight-0 coordinates of the shift, the brackets leave weights open
    monkeypatch.setattr(RepSpec, "moving", property(lambda rep: ((), ())))
    with pytest.raises(ValueError, match="undetermined"):
        _grading(RepSpec(grp, 1.0))


def test_rep_spec_validation():
    with pytest.raises(ValueError):
        RepSpec(group_spec("heisenberg", 1), 0.0)
    with pytest.raises(ValueError):
        RepSpec(group_spec("g6_19"), 1.0, 0.0)  # needs both parameters
    with pytest.raises(ValueError):
        RepSpec(group_spec("heisenberg", 1), 1.0, 2.0)  # no second parameter here


def test_action_moves_window_as_expected():
    # Heisenberg: position a shifts the argument, momentum a modulates
    rep = standard_rep("heisenberg")
    g = default_window(rep)
    a = np.array([0.8, 0.0, 0.0])
    acted = apply_rep(rep, a, g)
    for t in (-0.5, 0.0, 1.2):
        assert abs(acted(t)) == pytest.approx(abs(g(t - 0.8)), rel=1e-12)


@pytest.mark.parametrize(
    "name,lam,mu,expected",
    [
        ("heisenberg", 1.0, 0.0, 1.0),
        ("heisenberg", 2.0, 0.0, 2.0),
        ("g6_16", 2.0, 1.0, 4.0),
        ("g5_3", 2.0, 0.0, 4.0),
        ("g6_19", 2.0, 3.0, 6.0),
        ("dynin_folland", 1.0, 0.0, 1.0),
        ("dynin_folland", -2.0, 0.0, 8.0),  # |lam|^3
    ],
)
def test_known_formal_dimension_values(name, lam, mu, expected):
    grp = group_spec(name, 1)
    rep = RepSpec(grp, lam, mu) if mu else RepSpec(grp, lam)
    assert known_formal_dimension(rep) == pytest.approx(expected)


@pytest.mark.parametrize(
    "name,lam,mu,rtol",
    [
        ("heisenberg", 1.0, 0.0, 1e-6),
        ("heisenberg", 2.0, 0.0, 1e-6),
        ("g6_16", 1.0, 1.0, 1e-6),
        ("g6_16", 2.0, 1.0, 1e-6),
        ("g5_3", -1.5, 0.0, 1e-6),
        ("g6_19", 2.0, 1.0, 1e-6),
        ("g6_19", 1.0, -0.6, 1e-6),
        # two coupled sinh axes make dynin_folland's mesh the coarsest of the five
        ("dynin_folland", 2.0, 0.0, 1e-5),
    ],
    ids=[
        "heisenberg-1.0",
        "heisenberg-2.0",
        "g6_16-1.0",
        "g6_16-2.0",
        "g5_3--1.5",
        "g6_19-2.0",
        "g6_19-mu=-0.6",
        "dynin_folland-2.0",
    ],
)
def test_formal_dimension_matches_closed_form(name, lam, mu, rtol):
    rep = RepSpec(group_spec(name, 1), lam, mu)
    est = formal_dimension(rep)
    assert est == pytest.approx(known_formal_dimension(rep), rel=rtol)


def test_formal_dimension_is_window_independent():
    rep = RepSpec(group_spec("heisenberg", 1), 1.0)
    other = Gaussian(1.7, 0.4)
    assert formal_dimension(rep, other) == pytest.approx(1.0, rel=1e-6)


def test_heisenberg_higher_dimension():
    rep = RepSpec(group_spec("heisenberg", 2), 1.5)
    res = homomorphism_check(rep, n_pairs=40, seed=0)
    assert res["max_error"] < 1e-12
    assert known_formal_dimension(rep) == pytest.approx(1.5**2)
