"""Inner products: frozen values, symmetry, shift structure, Gram matrices."""

import random
from fractions import Fraction as F

import pytest

from sgortho.coeffs import TABLE
from sgortho.families import sobolev_three_term
from sgortho.inner import (SobolevParams, _l2_cache, energy_inner,
                           extended_inner, gram_matrix, mono_inner,
                           mono_inner_l2, poly_inner)
from sgortho.linalg import bareiss_det
from sgortho.poly import Poly
from sgortho.rationals import ZERO

L2 = SobolevParams.l2()
S1 = SobolevParams.order1(1)


def test_frozen_l2_values():
    assert mono_inner_l2((0, 1), (0, 1)) == 1
    assert mono_inner_l2((0, 2), (0, 2)) == F(11, 90)
    assert mono_inner_l2((0, 3), (0, 3)) == F(1, 30)
    assert mono_inner_l2((0, 1), (0, 2)) == F(-1, 3)
    assert mono_inner_l2((1, 1), (0, 2)) == F(-1, 45)
    assert mono_inner_l2((1, 1), (1, 1)) == F(11, 2430)


def test_symmetry_of_l2_product():
    rng = random.Random(3)
    for _ in range(40):
        a = (rng.randint(0, 5), rng.choice((1, 2, 3)))
        b = (rng.randint(0, 5), rng.choice((1, 2, 3)))
        assert mono_inner_l2(a, b) == mono_inner_l2(b, a)


def _per_term_l2(a, b):
    """Oracle: <P_a, P_b>_2 = -sum_{s=1}^{k+1} B(P_{j+s,i}, P_{k+1-s,i'}) with
    j >= k, B summed over all three corners; no cache."""
    if a[0] < b[0]:
        a, b = b, a
    (j, i), (k, ip) = a, b
    total = F(0)
    for s in range(1, k + 2):
        f, g = (j + s, i), (k + 1 - s, ip)
        total -= sum(TABLE.value(*f, v) * TABLE.normal(*g, v)
                     - TABLE.value(*g, v) * TABLE.normal(*f, v) for v in (0, 1, 2))
    return total


def test_antidiagonal_walk_matches_per_term_sum():
    saved = dict(_l2_cache)
    _l2_cache.clear()
    try:
        indices = [(j, k) for j in range(15) for k in (1, 2, 3)]
        for a in indices:
            for b in indices:
                assert mono_inner_l2(a, b) == _per_term_l2(a, b), (a, b)
    finally:
        _l2_cache.clear()
        _l2_cache.update(saved)


def test_cross_family_of_antisymmetric_is_zero():
    for j in range(5):
        for k in range(5):
            assert mono_inner_l2((j, 1), (k, 3)) == 0
            assert mono_inner_l2((j, 2), (k, 3)) == 0
            assert mono_inner(S1, (j, 1), (k, 3)) == 0


def test_sobolev_is_shifted_l2_sum():
    params = SobolevParams.of_weights([1, F(1, 2), 3])
    for j in range(4):
        for k in range(4):
            for fam in (1, 2, 3):
                expected = sum(
                    params.chi[r] * mono_inner_l2((j - r, fam), (k - r, fam))
                    for r in range(params.order + 1)
                    if j - r >= 0 and k - r >= 0)
                assert mono_inner(params, (j, fam), (k, fam)) == expected


def test_laplacian_shift_identity_on_polys():
    rng = random.Random(11)
    for _ in range(15):
        j, jp = rng.randint(1, 5), rng.randint(1, 5)
        k, kp = rng.choice((1, 2, 3)), rng.choice((1, 2, 3))
        a = Poly.monomial(j, k).laplacian()
        b = Poly.monomial(jp, kp).laplacian()
        assert poly_inner(L2, a, b) == mono_inner_l2((j - 1, k), (jp - 1, kp))


def test_multi_base_point_relation():
    for j in range(3):
        for k in range(3):
            base = mono_inner(S1, (j, 3), (k, 3))
            assert mono_inner(S1, (j, 3), (k, 3), base_a=1, base_b=1) == base
            assert mono_inner(S1, (j, 3), (k, 3), base_a=1, base_b=2) == \
                -base / 2
    a = Poly({(1, 3): F(2)}, base_point=1)
    b = Poly({(0, 3): F(3)}, base_point=2)
    assert poly_inner(S1, a, b) == 6 * (-F(1, 2)) * mono_inner(S1, (1, 3), (0, 3))
    with pytest.raises(ValueError):
        mono_inner(S1, (0, 1), (0, 3), base_a=1)
    with pytest.raises(ValueError):
        poly_inner(S1, Poly({(0, 1): F(1)}, base_point=1), Poly.monomial(0, 1))


def _per_term_inner(params, f, g):
    """Oracle: the naive sum of cf * cg * mono_inner over all term pairs."""
    total = F(0)
    for a, cf in f.coeffs.items():
        for b, cg in g.coeffs.items():
            total += cf * cg * mono_inner(params, a, b, f.base_point, g.base_point)
    return total


def _random_poly(rng, families, base_point=0):
    coeffs = {(rng.randint(0, 6), rng.choice(families)):
              F(rng.randint(-60, 60), rng.randint(1, 45))
              for _ in range(rng.randint(1, 6))}
    return Poly(coeffs, base_point)


ORACLE_PARAMS = {
    "l2": L2,
    "order1": SobolevParams.order1(F(3, 7)),
    "order2": SobolevParams.of_weights([1, F(2, 3), F(1, 9)]),
    "order2-chi1-zero": SobolevParams.of_weights([1, 0, F(5, 2)]),
}


@pytest.mark.parametrize("params", ORACLE_PARAMS.values(), ids=ORACLE_PARAMS)
def test_poly_inner_matches_per_term_sum(params):
    rng = random.Random(17)
    family_sets = ((1,), (2,), (3,), (1, 2), (1, 3), (1, 2, 3))
    for _ in range(30):
        f = _random_poly(rng, rng.choice(family_sets))
        g = _random_poly(rng, rng.choice(family_sets))
        got = poly_inner(params, f, g)
        assert type(got) is type(ZERO)
        assert got == _per_term_inner(params, f, g)
    for base_f, base_g in ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (2, 0)):
        for _ in range(5):
            f = _random_poly(rng, (3,), base_f)
            g = _random_poly(rng, (3,), base_g)
            got = poly_inner(params, f, g)
            assert type(got) is type(ZERO)
            assert got == _per_term_inner(params, f, g)
    mixed_off_q0 = _random_poly(rng, (1, 2, 3), base_point=1)
    for zero in (Poly.zero(), Poly.zero(base_point=2)):
        for other in (_random_poly(rng, (1, 2, 3)), mixed_off_q0, zero):
            for got in (poly_inner(params, zero, other),
                        poly_inner(params, other, zero)):
                assert type(got) is type(ZERO) and got == 0


def test_poly_inner_matches_per_term_sum_on_family_members():
    # the large-bit inputs the family builders actually pass
    params = ORACLE_PARAMS["order1"]
    polys = sobolev_three_term(2, F(3, 7), 9).polys
    for i in (0, 4, 8, 9):
        for j in (3, 9):
            assert poly_inner(params, polys[i], polys[j]) == \
                _per_term_inner(params, polys[i], polys[j])


def test_poly_inner_rejects_off_q0_base_point_outside_k3():
    mixed = Poly({(1, 1): F(1, 3), (2, 3): F(2)}, base_point=1)
    k3 = Poly({(0, 3): F(5, 4)}, base_point=1)
    for f, g in ((mixed, k3), (k3, mixed),
                 (Poly({(0, 2): F(1)}), Poly({(1, 3): F(1)}, base_point=2))):
        with pytest.raises(ValueError):
            poly_inner(S1, f, g)


def test_positive_definiteness_of_poly_inner():
    rng = random.Random(5)
    for _ in range(10):
        coeffs = {(rng.randint(0, 4), rng.choice((1, 2, 3))): F(rng.randint(-5, 5))
                  for _ in range(4)}
        f = Poly(coeffs)
        if f.is_zero():
            continue
        assert poly_inner(S1, f, f) > 0
        assert poly_inner(S1, f, Poly.monomial(0, 1)) == \
            poly_inner(S1, Poly.monomial(0, 1), f)


def test_energy_examples():
    p01, p02, p03 = (Poly.monomial(0, k) for k in (1, 2, 3))
    assert energy_inner(p01, p02) == 0
    assert energy_inner(p01, Poly.monomial(3, 2)) == 0
    assert energy_inner(p02, p02) == F(1, 2)
    assert energy_inner(p02, p03) == 0
    rng = random.Random(9)
    for _ in range(10):
        f = Poly({(rng.randint(0, 3), rng.choice((1, 2, 3))): F(rng.randint(-4, 4))
                  for _ in range(3)})
        g = Poly({(rng.randint(0, 3), rng.choice((1, 2, 3))): F(rng.randint(-4, 4))
                  for _ in range(3)})
        assert energy_inner(f, g) == energy_inner(g, f)


def test_energy_matches_renormalized_graph_energy_for_harmonics():
    # independent oracle: for harmonic u, v the renormalized level-m graph
    # energy (5/3)^m E_m(u, v) equals the energy form at every level
    from sgortho.grid import _corner_table, harmonic_extend

    p02 = Poly.monomial(0, 2)
    p03 = Poly.monomial(0, 3)
    for m in (1, 2, 3):
        u = harmonic_extend([0, F(-1, 2), F(-1, 2)], m)
        v = harmonic_extend([0, F(1, 2), F(-1, 2)], m)
        e_uu = F(0)
        e_uv = F(0)
        # every edge of the level-m graph lies in exactly one m-cell
        for a0, a1, a2 in _corner_table(m):
            for i, j in ((a0, a1), (a0, a2), (a1, a2)):
                du = u.values[i] - u.values[j]
                dv = v.values[i] - v.values[j]
                e_uu += du * du
                e_uv += du * dv
        scale = F(5, 3) ** m
        assert scale * e_uu == energy_inner(p02, p02)
        assert scale * e_uv == energy_inner(p02, p03)


def test_extended_inner_reductions_and_examples():
    one = Poly.monomial(0, 1)
    zero_extras = SobolevParams(order=0, chi=(F(1),), energy_weights=(F(0),),
                                boundary_matrices=((tuple([F(0)] * 3),) * 3,))
    assert extended_inner(zero_extras, one, one) == poly_inner(L2, one, one)
    ident = tuple(tuple(F(1) if r == c else F(0) for c in range(3))
                  for r in range(3))
    with_mass = SobolevParams(order=0, chi=(F(1),), boundary_matrices=(ident,))
    assert extended_inner(with_mass, one, one) == 1 + 3
    with_energy = SobolevParams(order=0, chi=(F(1),), energy_weights=(F(1),))
    assert extended_inner(with_energy, one, one) == poly_inner(L2, one, one)


def test_non_psd_boundary_matrix_rejected():
    bad = tuple(tuple(F(-1) if r == c else F(0) for c in range(3))
                for r in range(3))
    with pytest.raises(ValueError):
        SobolevParams(order=0, chi=(F(1),), boundary_matrices=(bad,))
    asym = ((F(1), F(2), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)))
    with pytest.raises(ValueError):
        SobolevParams(order=0, chi=(F(1),), boundary_matrices=(asym,))


def test_params_validation():
    with pytest.raises(ValueError):
        SobolevParams(order=1, chi=(F(1),))
    with pytest.raises(ValueError):
        SobolevParams(order=0, chi=(F(2),))
    with pytest.raises(ValueError):
        SobolevParams(order=1, chi=(F(1), F(-1)))


def test_gram_matrix_shapes_and_symmetry():
    gm = gram_matrix(S1, 3, 4)
    assert gm.basis == tuple((j, 3) for j in range(5))
    for r in range(5):
        for c in range(5):
            assert gm.entry(r, c) == gm.entry(c, r)
    mixed = gram_matrix(L2, "mixed", 1)
    assert mixed.basis == ((0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3))
    for r, (j, k) in enumerate(mixed.basis):
        for c, (jp, kp) in enumerate(mixed.basis):
            if {k, kp} in ({1, 3}, {2, 3}):
                assert mixed.entry(r, c) == 0


def test_gram_matrix_single_entry_family3():
    gm = gram_matrix(L2, 3, 0)
    assert gm.entries == ((F(1, 30),),)


@pytest.mark.parametrize("family", [1, 2, 3])
def test_gram_positive_definite_leading_minors(family):
    gm = gram_matrix(S1, family, 10)
    rows = [list(r) for r in gm.entries]
    for size in range(1, 12):
        sub = [row[:size] for row in rows[:size]]
        assert bareiss_det(sub) > 0


def test_gram_mixed_positive_definite():
    gm = gram_matrix(S1, "mixed", 3)
    rows = [list(r) for r in gm.entries]
    for size in range(1, len(rows) + 1):
        sub = [row[:size] for row in rows[:size]]
        assert bareiss_det(sub) > 0


def test_sobolev_gram_is_weighted_shift_of_l2_gram():
    params = SobolevParams.of_weights([1, F(2, 3)])
    gm = gram_matrix(params, 2, 5)
    for r, (j, _) in enumerate(gm.basis):
        for c, (k, _) in enumerate(gm.basis):
            expected = mono_inner_l2((j, 2), (k, 2))
            if j >= 1 and k >= 1:
                expected += F(2, 3) * mono_inner_l2((j - 1, 2), (k - 1, 2))
            assert gm.entry(r, c) == expected


def test_gram_json_shape():
    gm = gram_matrix(L2, 3, 1)
    payload = gm.to_json_dict()
    assert payload["basis"] == [[0, 3], [1, 3]]
    assert payload["entries"][0][0] == "1/30"
    assert payload["params"]["chi"] == ["1"]


def test_discrete_integration_oracle_level6():
    # Riemann-style cross-check of an exact inner product: cell-corner means
    # of the product of two harmonic functions over the level-6 cells
    from sgortho.grid import build_grid, cell_words, harmonic_extend
    from sgortho.addresses import VertexAddress

    m = 6
    grid = build_grid(m)
    u = harmonic_extend([0, F(-1, 2), F(-1, 2)], m)
    total = F(0)
    for word in cell_words(m):
        vals = [u.value_at(VertexAddress.make(word, c)) for c in (0, 1, 2)]
        total += sum(v * v for v in vals) / 3
    total /= 3 ** m
    exact = mono_inner_l2((0, 2), (0, 2))
    assert abs(total - exact) < F(4, 100) * exact
