"""Group laws: pinned products, the axioms, and the declared bracket tables."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coorbit_lab.groups import (
    GROUPS,
    axis_point,
    group_spec,
    inverse,
    multiply,
    project,
    quotient_multiply,
    section,
    structure_constants,
)
from coorbit_lab.oracles import bracket_check, commutator, jacobian_check

ALL_SPECS = [group_spec(n, 1) for n in GROUPS] + [group_spec("heisenberg", 2)]


def spec_ids():
    return [s.name if s.name != "heisenberg" else f"heisenberg{s.total_dim // 2}" for s in ALL_SPECS]


def test_heisenberg_pinned_product_and_inverse():
    h = group_spec("heisenberg", 1)
    # (x,y,z)(x',y',z') = (x+x', y+y', z+z'+xy')
    assert np.allclose(multiply(h, [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]), [5.0, 7.0, 14.0])
    assert np.allclose(inverse(h, [1.0, 2.0, 3.0]), [-1.0, -2.0, -1.0])


def test_g5_3_pinned_product():
    g = group_spec("g5_3")
    a = [0.0, 0.0, 0.0, 0.0, 1.0]
    b = [0.0, 0.0, 0.0, 1.0, 0.0]
    assert np.allclose(multiply(g, a, b), [0.5, 1.0, 0.0, 1.0, 1.0])
    # reversed order picks up no correction: the law is not commutative
    assert np.allclose(multiply(g, b, a), [0.0, 0.0, 0.0, 1.0, 1.0])


def test_dynin_folland_pinned_product():
    g = group_spec("dynin_folland")
    # coordinates (z, y1, y2, y3, x1, x2, x3)
    a = [0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0]
    b = [0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0]
    assert np.allclose(multiply(g, a, b), [3.0, 2.0, -0.5, 1.0, 4.0, 3.0, 3.0])
    # reversed order picks up no correction: b's only x, x2, meets no y2 or y3 in a
    assert np.allclose(multiply(g, b, a), np.add(a, b))


# The definition the 7-dimensional law is written out from: the ordered
# exponential e^{c0 E0} ... e^{c6 E6}, multiplied through the
# Baker-Campbell-Hausdorff series of the declared brackets.

def _bracket(C, u, v):
    return np.einsum("...i,...j,ijk->...k", u, v, C)


def _bch(C, u, v):
    """Baker-Campbell-Hausdorff product; exact here since the algebra is 3-step."""
    w = _bracket(C, u, v)
    return u + v + 0.5 * w + (_bracket(C, u, w) - _bracket(C, v, w)) / 12.0


def _log(C, c):
    """Algebra element of the ordered product e^{c0 E0} ... e^{c6 E6}."""
    W = np.zeros_like(c)
    for j in range(c.shape[-1]):
        V = np.zeros_like(c)
        V[..., j] = c[..., j]
        W = _bch(C, W, V)
    return W


def _coords(C, W):
    """Inverse of _log: peel ordered-exponential coordinates off the top.

    Works because every prefix span of the basis is an ideal, so brackets
    never feed the coordinate currently being peeled.
    """
    out = np.empty_like(W)
    for j in reversed(range(W.shape[-1])):
        out[..., j] = W[..., j]
        V = np.zeros_like(W)
        V[..., j] = -out[..., j]
        W = _bch(C, W, V)
    return out


def _assert_close_per_coordinate(got, want, rtol=1e-12):
    # each coordinate within rtol of the largest value it takes over the sample
    assert np.all(np.abs(got - want) <= rtol * np.abs(want).max(axis=0))


def test_dynin_folland_law_is_the_bch_product():
    spec = group_spec("dynin_folland")
    C = structure_constants(spec)
    a, b = np.random.default_rng(7).uniform(-50, 50, (2, 10_000, 7))
    _assert_close_per_coordinate(multiply(spec, a, b), _coords(C, _bch(C, _log(C, a), _log(C, b))))


def test_dynin_folland_inverse_is_the_bch_inverse():
    spec = group_spec("dynin_folland")
    C = structure_constants(spec)
    a = np.random.default_rng(8).uniform(-50, 50, (10_000, 7))
    _assert_close_per_coordinate(inverse(spec, a), _coords(C, -_log(C, a)))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids())
def test_identity_and_inverse(spec):
    rng = np.random.default_rng(1)
    a = rng.uniform(-2, 2, (40, spec.total_dim))
    e = np.zeros(spec.total_dim)
    assert np.allclose(multiply(spec, e, a), a)
    assert np.allclose(multiply(spec, a, e), a)
    assert np.abs(multiply(spec, a, inverse(spec, a))).max() < 1e-12
    assert np.abs(multiply(spec, inverse(spec, a), a)).max() < 1e-12


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids())
def test_associativity(spec):
    rng = np.random.default_rng(2)
    a, b, c = rng.uniform(-2, 2, (3, 60, spec.total_dim))
    lhs = multiply(spec, multiply(spec, a, b), c)
    rhs = multiply(spec, a, multiply(spec, b, c))
    assert np.abs(lhs - rhs).max() < 1e-12


@given(st.integers(0, len(ALL_SPECS) - 1), st.data())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_associativity_property(idx, data):
    spec = ALL_SPECS[idx]
    pt = st.lists(st.floats(-3, 3), min_size=spec.total_dim, max_size=spec.total_dim)
    a, b, c = (np.array(data.draw(pt)) for _ in range(3))
    lhs = multiply(spec, multiply(spec, a, b), c)
    rhs = multiply(spec, a, multiply(spec, b, c))
    assert np.abs(lhs - rhs).max() < 1e-9


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids())
def test_commutators_respect_the_center(spec):
    # commutators of central elements vanish; the center is where they land
    rng = np.random.default_rng(3)
    a = rng.uniform(-2, 2, spec.total_dim)
    z = np.zeros(spec.total_dim)
    z[list(spec.center_indices)] = rng.uniform(-2, 2, len(spec.center_indices))
    assert np.abs(commutator(spec, a, z)).max() < 1e-12


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids())
def test_declared_brackets_match_the_law(spec):
    res = bracket_check(spec)
    assert res["ok"], res


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids())
def test_translations_are_volume_preserving(spec):
    res = jacobian_check(spec)
    assert res["ok"], res


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids())
def test_structure_constants_antisymmetry_and_jacobi(spec):
    C = structure_constants(spec)
    assert np.abs(C + np.swapaxes(C, 0, 1)).max() == 0.0
    # Jacobi: sum over cyclic permutations of [[X_i, X_j], X_k] is zero
    jac = (
        np.einsum("ijm,mkn->ijkn", C, C)
        + np.einsum("jkm,min->ijkn", C, C)
        + np.einsum("kim,mjn->ijkn", C, C)
    )
    assert np.abs(jac).max() < 1e-12


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids())
def test_quotient_operations_are_projected_group_operations(spec):
    rng = np.random.default_rng(4)
    qa = rng.uniform(-2, 2, (20, spec.quotient_dim))
    qb = rng.uniform(-2, 2, (20, spec.quotient_dim))
    prod = quotient_multiply(spec, qa, qb)
    want = project(spec, multiply(spec, section(spec, qa), section(spec, qb)))
    assert np.allclose(prod, want)
    assert np.allclose(project(spec, section(spec, qa)), qa)
    inv = project(spec, inverse(spec, section(spec, qa)))
    assert np.abs(quotient_multiply(spec, qa, inv)).max() < 1e-12


def test_central_lifts_change_nothing_downstairs():
    spec = group_spec("g6_19")
    rng = np.random.default_rng(5)
    qa = rng.uniform(-2, 2, spec.quotient_dim)
    qb = rng.uniform(-2, 2, spec.quotient_dim)
    lift = section(spec, qa)
    lift[list(spec.center_indices)] = rng.uniform(-3, 3, len(spec.center_indices))
    shifted = project(spec, multiply(spec, lift, section(spec, qb)))
    assert np.allclose(shifted, quotient_multiply(spec, qa, qb))


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids())
def test_laws_give_the_same_bits_on_either_layout(spec):
    # section and axis_point allocate coordinate-major stacks; every law must
    # return the same bits on them as on row-major ones, and keep the layout
    rng = np.random.default_rng(8)
    a, b = rng.uniform(-3, 3, (2, 50, spec.total_dim))
    want = multiply(spec, a, b)
    fa, fb = np.asfortranarray(a), np.asfortranarray(b)
    got = multiply(spec, fa, fb)
    assert got.flags.f_contiguous
    assert _bits(got) == _bits(want)
    assert _bits(multiply(spec, fa, b)) == _bits(want)
    assert _bits(multiply(spec, fa[:1], fb)) == _bits(multiply(spec, a[:1], b))
    assert _bits(inverse(spec, fa)) == _bits(inverse(spec, a))
    q = rng.uniform(-3, 3, (50, spec.quotient_dim))
    assert section(spec, q).flags.f_contiguous
    assert axis_point(spec.total_dim, 0, q[:, 0]).flags.f_contiguous
    assert _bits(project(spec, section(spec, q))) == _bits(q)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_ids())
def test_no_law_reads_a_central_coordinate_into_a_noncentral_one(spec):
    # so lattice chains may run in full coordinates and project once at the end
    rng = np.random.default_rng(9)
    a, b = rng.uniform(-3, 3, (2, 50, spec.total_dim))
    moved_a, moved_b = a.copy(), b.copy()
    centre = list(spec.center_indices)
    moved_a[:, centre] = rng.uniform(-50, 50, (50, spec.center_dim))
    moved_b[:, centre] = rng.uniform(-50, 50, (50, spec.center_dim))
    want = project(spec, multiply(spec, a, b))
    assert _bits(project(spec, multiply(spec, moved_a, moved_b))) == _bits(want)
    assert _bits(project(spec, inverse(spec, moved_a))) == _bits(project(spec, inverse(spec, a)))


def test_df_three_step_nilpotency():
    # triple brackets vanish: ad(a) ad(b) ad(c) = 0 on the 7-dimensional algebra
    spec = group_spec("dynin_folland")
    C = structure_constants(spec)
    rng = np.random.default_rng(6)
    for _ in range(5):
        a, b, c, d = rng.uniform(-1, 1, (4, spec.total_dim))
        w = np.einsum("i,j,ijk->k", c, d, C)
        w = np.einsum("i,j,ijk->k", b, w, C)
        w = np.einsum("i,j,ijk->k", a, w, C)
        assert np.abs(w).max() < 1e-14


def test_unknown_group_rejected():
    with pytest.raises(ValueError):
        group_spec("so3")


def test_heisenberg_dimension_parameter():
    h2 = group_spec("heisenberg", 2)
    assert h2.total_dim == 5
    assert h2.center_indices == (4,)
    assert group_spec("g5_3").center_indices == (0,)
